"""Builds the two-rack Etalon testbed of Figure 6.

Two racks of hosts, each wired to a ToR through full-duplex access
links; the ToRs exchange traffic over a pair of :class:`RackUplink`
objects (one per direction) sharing the TDN schedule. A
:class:`ScheduleDriver` gates the uplinks; a :class:`TDNNotifier`
implements the ToR-to-host ICMP notifications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.net.node import Host
from repro.net.queues import SharedBufferPool
from repro.net.switch import ToRSwitch
from repro.obs.telemetry import Telemetry
from repro.rdcn.config import RDCNConfig
from repro.rdcn.fabric import NetworkPath, RackUplink, attach_hosts, build_voqs
from repro.rdcn.notifier import TDNNotifier
from repro.rdcn.schedule import ScheduleDriver, TDNSchedule
from repro.sim.rng import SeededRandom
from repro.sim.simulator import Simulator


@dataclass
class TwoRackTestbed:
    """Everything an experiment needs a handle on."""

    sim: Simulator
    config: RDCNConfig
    schedule: TDNSchedule
    driver: ScheduleDriver
    notifier: TDNNotifier
    rng: SeededRandom
    hosts: Dict[int, List[Host]] = field(default_factory=dict)
    tors: Dict[int, ToRSwitch] = field(default_factory=dict)
    uplinks: Dict[int, RackUplink] = field(default_factory=dict)  # by source rack
    # Per-ToR shared buffer pools (empty for the "static" policy, which
    # carves plain per-VOQ queues and constructs no pool objects).
    pools: Dict[int, SharedBufferPool] = field(default_factory=dict)

    def host(self, rack: int, index: int) -> Host:
        return self.hosts[rack][index]

    def start(self) -> None:
        """Arm the schedule; call once before ``sim.run``."""
        self.driver.start()


def build_two_rack_testbed(
    config: RDCNConfig,
    sim: Optional[Simulator] = None,
) -> TwoRackTestbed:
    """Construct the testbed. Every VOQ CE-marks ECN-capable packets at
    ``config.ecn_threshold``, as a switch port does; whether a sender's
    packets are ECN-capable is the sender's business."""
    sim = sim or Simulator()
    rng = SeededRandom(config.seed)

    schedule = TDNSchedule.uniform(config.schedule_pattern, config.day_ns, config.night_ns)
    driver = ScheduleDriver(sim, schedule)
    notifier = TDNNotifier(
        sim, driver, config.notifier, rng, tdn_rate_of=config.tdn_rate_bps
    )

    testbed = TwoRackTestbed(
        sim=sim,
        config=config,
        schedule=schedule,
        driver=driver,
        notifier=notifier,
        rng=rng,
    )

    paths = {
        tdn: NetworkPath(
            tdn_id=tdn,
            rate_bps=config.tdn_rate_bps(tdn),
            one_way_delay_ns=config.tdn_one_way_ns(tdn),
            is_circuit=(tdn != 0),
            name="packet" if tdn == 0 else f"optical{tdn}",
        )
        for tdn in range(config.n_tdns)
    }

    tors = {rack: ToRSwitch(sim, rack) for rack in (0, 1)}
    for rack in (0, 1):
        testbed.hosts[rack] = attach_hosts(sim, tors[rack], rack, config)

    telemetry = Telemetry.of(sim)
    for src_rack, dst_rack in ((0, 1), (1, 0)):
        # Each ToR of the two-rack testbed has exactly one cross-rack
        # VOQ, so its pool (shared policies) holds tor_buffer_total(1).
        voqs, pool = build_voqs(
            config,
            {dst_rack: f"voq-r{src_rack}-to-r{dst_rack}"},
            config.tor_buffer_total(n_voqs=1),
            f"pool-r{src_rack}",
            mark_threshold=config.ecn_threshold,
        )
        if pool is not None:
            testbed.pools[src_rack] = pool
            telemetry.instrument_pool(pool, sim)
        telemetry.instrument_queue(voqs[dst_rack], sim)
        uplink = RackUplink(
            sim,
            paths,
            voqs[dst_rack],
            tors[dst_rack].forward,
            name=f"uplink-r{src_rack}",
        )
        tors[src_rack].add_uplink(dst_rack, uplink)
        testbed.uplinks[src_rack] = uplink
        driver.on_day_start(lambda tdn, _idx, up=uplink: up.set_active(tdn))
        driver.on_night_start(lambda _idx, up=uplink: up.set_active(None))

    for rack in (0, 1):
        notifier.add_rack(tors[rack], testbed.hosts[rack])
    testbed.tors = tors
    return testbed
