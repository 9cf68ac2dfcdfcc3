"""ToR-generated TDN-change notifications (§3.2, §5.4).

At each day start (rotor fabric: each slot) every ToR sends its hosts an
ICMP carrying the new TDN ID. End-to-end delivery latency is the sum of
three components, each with an optimized and an unoptimized variant
matching the §5.4 study:

1. **Generation** — building the ICMP packet at the ToR. With packet
   caching the ToR keeps a pre-built packet and only fills in the TDN
   ID; without, it constructs the packet from scratch (8x slower at the
   median, 2.7x at the 99th percentile).
2. **Transport** — a dedicated control network delivers at a fixed low
   latency; the shared data network sends the ICMP down the same
   downlink as data packets, where it queues behind them.
3. **Host processing** — with the pull model every flow reads a global
   TDN variable (near-zero cost); with the push model the kernel walks
   all flows and updates each in turn, so the i-th flow sees the update
   only after ``i`` per-flow update costs.

Generation latency is sampled from a shifted-exponential distribution
whose median/tail parameters come from :class:`NotifierConfig`, so the
microbenchmark in ``benchmarks/test_notifier_micro.py`` can regenerate
the paper's reported ratios.

**The rack is the unit of an announcement.** On the dedicated control
network with no fault hook armed, ``_emit`` schedules one arrival leg
for the whole rack, not one packet per host. At arrival every host's
ingress (:meth:`Host.notification_arrived`: ``rx_packets``, the
freshness filter, stale accounting) is asked in rack order without a
packet; at each fresh host's processing instant the notifier looks at
who listens *then*: a host with nobody but the notifier's own latency
recorder costs one sample, any other gets its ``TDNNotification`` built
and dispatched to its listeners. Both legs are pushed when the per-host
path would have pushed its first leg of the batch, so event order, event
counts and every value are the per-host path's (docs/performance.md,
"The fixed event floor"). What needs a real packet still gets one, read
off what the code observes and not off an option: an armed
``fault_hook`` (an injector perturbs individual ICMPs; ``app_pause``
arms it too, because its gate wraps ``host.deliver``) and the shared
data network (a real packet on a real link) take the per-host path —
on either fabric: nothing else in ``src/`` builds a ``TDNNotification``.

**An announcement nobody listens to costs no events.** A run whose
connection class declares it never listens to TDN changes
(``listens_to_tdn_changes``: plain TCP and reTCP do not, TDTCP and MPTCP
do) arms :meth:`TDNNotifier.announce_without_events` with its horizon.
While no fault hook is armed, the control network is dedicated, the
fabric has no per-rack TDN ids and ``notifier:deliver`` is off, each
announcement is the rack path's arithmetic done at once: the same
generation draws in rack order, the same ``notify_seq`` blocks in emit
order, every host's ingress through :meth:`Host.notification_arrived`
(only for an arrival at or before the horizon, as an arrival event
past it would never have fired), and one pending ``(processing instant,
arrival instant, generated, hosts)`` entry per run of a rack's hosts
with one processing delay. ``delivery_latency_samples`` takes an entry
in once the clock has reached its processing instant, in the order the
rack path's events would have recorded it, so nothing processed after
the horizon is recorded. A listener that subscribes meanwhile is refused
(:meth:`Host.subscribe_tdn_changes` raises): it would never be called.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.net.node import Host
from repro.net.packet import MAX_TDN_ID, TDNNotification
from repro.net.switch import ToRSwitch
from repro.obs.telemetry import Telemetry
from repro.rdcn.config import NotifierConfig
from repro.rdcn.schedule import ScheduleDriver
from repro.sim.rng import SeededRandom
from repro.sim.simulator import Simulator


def _shifted_exponential(p50_ns: int, tail_ns: int) -> Tuple[float, float]:
    """``(shift, rate)`` of the generation-latency distribution
    ``shift + Exp(rate)``: median exactly ``p50_ns``, 99th percentile at
    ``tail_ns``. ``rate == 0.0`` marks the degenerate constant ``p50_ns``.
    """
    if tail_ns <= p50_ns:
        return p50_ns, 0.0
    # For Exp(mean): p99 - p50 of the shifted variable ~ mean*(ln 100 - ln 2).
    mean = (tail_ns - p50_ns) / (math.log(100.0) - math.log(2.0))
    # Median of Exp(mean) is mean*ln 2; shift so the median is exactly p50.
    return p50_ns - mean * math.log(2.0), 1.0 / mean


def _draw_delay_ns(rng: SeededRandom, shift: float, rate: float) -> int:
    if rate == 0.0:
        return shift
    return max(int(shift + rng.expovariate(rate)), 0)


def sample_generation_delay_ns(
    rng: SeededRandom, p50_ns: int, tail_ns: int
) -> int:
    """One generation-latency sample.

    Shifted exponential: ``p50 + Exp(mean)`` with the mean chosen so the
    99th percentile lands at ``tail_ns``. Medians and tails then match
    the configured values closely over many samples.
    """
    return _draw_delay_ns(rng, *_shifted_exponential(p50_ns, tail_ns))


class TDNNotifier:
    """Wires a :class:`ScheduleDriver` to per-rack host notification."""

    def __init__(
        self,
        sim: Simulator,
        driver: ScheduleDriver,
        config: NotifierConfig,
        rng: SeededRandom,
        tdn_rate_of=None,
        tdn_id_of=None,
    ):
        self.sim = sim
        self.driver = driver
        self.config = config
        self.rng = rng.fork("notifier")
        # Generation-delay sampling draws from its own named child so
        # adding more notifier randomness (e.g. fault streams) later
        # never shifts the delay sequence.
        self._generation_rng = self.rng.fork("generation")
        # The distribution is fixed by the config: work it out once, not
        # on each of the two samples every TDN change draws.
        self._generation_params = (
            _shifted_exponential(config.generation_cached_p50_ns, config.generation_cached_tail_ns)
            if config.packet_caching
            else _shifted_exponential(
                config.generation_uncached_p50_ns, config.generation_uncached_tail_ns
            )
        )
        # Rate lookup for the "slowdown" night policy; without one,
        # night announcements degrade to the "always"/"none" behaviour.
        self.tdn_rate_of = tdn_rate_of
        # Per-rack id ``tdn_id_of(tor, tdn_id)``, asked as the ToR emits
        # (a demand-aware fabric announces each rack's partner).
        self.tdn_id_of = tdn_id_of
        self._racks: List[ToRSwitch] = []
        self._hosts_by_rack: Dict[int, List[Host]] = {}
        self.notifications_sent = 0
        # Monotonic per-notification emission counter (stamped into
        # notify_seq) so hosts can reject stale/duplicate arrivals.
        self._notify_seq = 0
        # Fault-injection hook (repro.faults): called per host delivery
        # as hook(host, notification) -> list of extra delays in ns
        # ([] drops, [0] delivers on time, extra entries duplicate).
        self.fault_hook = None
        # Latency samples (ns) from generation decision to host dispatch,
        # recorded for the §5.4 microbenchmarks (read them through
        # delivery_latency_samples), and the event-free announcements'
        # entries not yet due: a heap of (processing instant, arrival
        # instant, generated_ns, hosts).
        self._samples: List[int] = []
        self._pending: List[Tuple[int, int, int, int]] = []
        # The run's horizon once announce_without_events armed it.
        self._event_free_until: Optional[int] = None
        self._tp_deliver = Telemetry.of(sim).tracepoint("notifier:deliver")
        # One bound-method object, so the rack walk can tell by identity
        # that a host's only listener is this recorder.
        self._recorder = self._record_latency
        driver.on_day_start(self._day_started)
        if config.night_policy != "none":
            driver.on_night_start(self._night_started)

    def add_rack(self, tor: ToRSwitch, hosts: List[Host]) -> None:
        self._racks.append(tor)
        self._hosts_by_rack[tor.rack] = list(hosts)
        for host in hosts:
            # Protocol ceiling, not the schedule's current TDN count:
            # runtime schedule changes (§4.2) may introduce new ids.
            host.max_tdn_id = MAX_TDN_ID
        # Host-side processing cost per the push/pull model: under push,
        # host i's flows see the update after i per-flow update costs
        # (the "unlucky flows" of §5.4). Under pull the cost is one read.
        for index, host in enumerate(hosts):
            host.notification_processing_ns = self.host_processing_delay_ns(index)
            host.subscribe_tdn_changes(self._recorder)
            host.notifier = self

    def announce_without_events(self, until_ns: int) -> None:
        """Arm event-free announcements for a run to ``until_ns`` in
        which nothing but this notifier's latency recorder listens (see
        the module docstring). Raises if a host already has another
        listener."""
        for hosts in self._hosts_by_rack.values():
            for host in hosts:
                if host._tdn_listeners != [self._recorder]:
                    raise RuntimeError(
                        f"host {host.address} has a TDN-change listener besides "
                        "the latency recorder"
                    )
        self._event_free_until = until_ns

    @property
    def event_free(self) -> bool:
        """True while an announcement costs no events: armed by
        :meth:`announce_without_events`, no fault hook, the dedicated
        control network, no per-rack TDN ids and ``notifier:deliver``
        off."""
        return (
            self._event_free_until is not None
            and self.fault_hook is None
            and self.config.dedicated_network
            and self.tdn_id_of is None
            and not self._tp_deliver.enabled
        )

    @property
    def delivery_latency_samples(self) -> List[int]:
        """Send-to-processed latencies (ns, §5.4's end-to-end metric) in
        processing order, up to the current instant."""
        if self._pending:
            self._take_due()
        return self._samples

    def _take_due(self) -> None:
        """Record the pending entries whose processing instant has come."""
        pending = self._pending
        samples = self._samples
        now = self.sim.now
        while pending and pending[0][0] <= now:
            instant, _arrival, generated_ns, hosts = heappop(pending)
            samples.extend([instant - generated_ns] * hosts)

    def _record_latency(self, notification: TDNNotification) -> None:
        """Record send-to-processed latency (§5.4's end-to-end metric)."""
        latency_ns = self.sim.now - notification.generated_ns
        self.delivery_latency_samples.append(latency_ns)
        if self._tp_deliver.enabled:
            self._tp_deliver.emit(
                self.sim.now,
                host=notification.dst,
                tdn=notification.tdn_id,
                latency_ns=latency_ns,
            )

    def host_processing_delay_ns(self, flow_index: int) -> int:
        if self.config.pull_model:
            return self.config.pull_read_cost_ns
        return self.config.push_per_flow_cost_ns * (flow_index + 1)

    def generation_delay_ns(self) -> int:
        return _draw_delay_ns(self._generation_rng, *self._generation_params)

    # ------------------------------------------------------------------
    # Schedule hook
    # ------------------------------------------------------------------
    def _day_started(self, tdn_id: int, day_index: int) -> None:
        self._announce(tdn_id)

    def _night_started(self, day_index: int) -> None:
        """Maybe announce the upcoming TDN as the blackout begins."""
        days = self.driver.schedule.days
        current_tdn = days[day_index % len(days)].tdn_id
        next_tdn = days[(day_index + 1) % len(days)].tdn_id
        if next_tdn == current_tdn:
            return
        if self.config.night_policy == "slowdown" and self.tdn_rate_of is not None:
            if self.tdn_rate_of(next_tdn) >= self.tdn_rate_of(current_tdn):
                return  # speed-ups are announced at day start
        self._announce(next_tdn)

    def _announce(self, tdn_id: int) -> None:
        if self.event_free:
            self._announce_without_events(tdn_id)
            return
        for tor in self._racks:
            delay = self.generation_delay_ns()
            self.sim.schedule(delay, self._emit, tor, tdn_id, self.sim.now)

    def _announce_without_events(self, tdn_id: int) -> None:
        """The rack path's legs as arithmetic: ``_emit`` at ``now +
        delay`` (the emits fire in delay order, ties in rack order, and
        take their ``notify_seq`` blocks so), ``_arrive_at_rack`` a
        control delay later, ``_process`` at each processing delay after
        that. A leg past the horizon is not taken, as its event would
        not have fired."""
        pending = self._pending
        if pending:
            self._take_due()  # keeps the heap to the announcements in flight
        now = self.sim.now
        until = self._event_free_until
        control_ns = self.config.control_delay_ns
        delays = [self.generation_delay_ns() for _tor in self._racks]
        for delay, tor in sorted(zip(delays, self._racks), key=itemgetter(0)):
            if now + delay > until:
                break
            hosts = self._hosts_by_rack.get(tor.rack, [])
            seq = self._notify_seq
            self._notify_seq += len(hosts)
            self.notifications_sent += len(hosts)
            arrival = now + delay + control_ns
            if arrival > until:
                continue
            # A run of fresh hosts with one processing delay is one
            # entry, as it is one _process event on the rack path.
            runs: List[List[int]] = []  # [processing delay, hosts]
            for host in hosts:
                if host.notification_arrived(seq, tdn_id):
                    delay_ns = host.notification_processing_ns
                    if runs and runs[-1][0] == delay_ns:
                        runs[-1][1] += 1
                    else:
                        runs.append([delay_ns, 1])
                seq += 1
            for delay_ns, count in runs:
                heappush(pending, (arrival + delay_ns, arrival, now, count))

    def _emit(self, tor: ToRSwitch, tdn_id: int, generated_ns: int) -> None:
        hosts = self._hosts_by_rack.get(tor.rack, [])
        if self.tdn_id_of is not None:
            tdn_id = self.tdn_id_of(tor, tdn_id)
            if tdn_id is None:
                return  # the rack went dark before its ToR got to announce
        hook = self.fault_hook
        if hook is None and self.config.dedicated_network and hosts:
            # Nothing perturbs individual ICMPs and the control network
            # is not a link: announce to the rack, one leg where the
            # per-host path below opens one event and joins it n-1 times.
            first_seq = self._notify_seq
            self._notify_seq += len(hosts)
            self.notifications_sent += len(hosts)
            self.sim.schedule_fanout(
                self.config.control_delay_ns,
                self._arrive_at_rack,
                (tor.name, hosts, tdn_id, generated_ns, first_seq),
            )
            return
        for host in hosts:
            notification = TDNNotification(tor.name, host.address, tdn_id, generated_ns)
            notification.notify_seq = self._notify_seq
            self._notify_seq += 1
            self.notifications_sent += 1
            if hook is None:
                self._dispatch(tor, host, notification, 0)
                continue
            deliveries = hook(host, notification)
            for copy_index, extra_ns in enumerate(deliveries):
                if copy_index == 0:
                    duplicate = notification
                else:
                    # Duplicates are distinct packet objects sharing the
                    # original's notify_seq, so host-level seq filtering
                    # absorbs the storm.
                    duplicate = TDNNotification(tor.name, host.address, tdn_id, generated_ns)
                    duplicate.notify_seq = notification.notify_seq
                self._dispatch(tor, host, duplicate, extra_ns)

    def _arrive_at_rack(self, announcement: tuple) -> None:
        """Leg 1 of a rack announcement: every host's ingress, in rack
        order, without a packet. Fresh hosts are handed to leg 2 at
        their processing instant — a ``schedule_fanout`` call where
        :meth:`Host.deliver` makes one (the first host of a run of equal
        processing delays) and a list append where its call would have
        joined the open batch, so every push happens when it did."""
        tor_name, hosts, tdn_id, generated_ns, seq = announcement
        run, run_delay_ns = None, 0  # 0: no run open
        for host in hosts:
            if host.notification_arrived(seq, tdn_id):
                delay_ns = host.notification_processing_ns
                if delay_ns <= 0:
                    # Dispatched on arrival; whatever a listener pushes
                    # closes the open batch, so the run ends here too.
                    run_delay_ns = 0
                    self._process((tor_name, tdn_id, generated_ns, ((host, seq),)))
                elif delay_ns == run_delay_ns:
                    run.append((host, seq))
                else:
                    run = [(host, seq)]
                    run_delay_ns = delay_ns
                    self.sim.schedule_fanout(
                        delay_ns, self._process, (tor_name, tdn_id, generated_ns, run)
                    )
            seq += 1

    def _process(self, batch: tuple) -> None:
        """Leg 2: the instant these hosts' listeners see the change.
        Who listens is read now, not at arrival (a connection may have
        subscribed or released in between). A host with nobody but this
        notifier's recorder costs its latency sample; any other gets its
        packet, dispatched as :meth:`Host.deliver` would have."""
        tor_name, tdn_id, generated_ns, run = batch
        recorder = self._recorder
        tracepoint = self._tp_deliver
        samples = self.delivery_latency_samples
        latency_ns = self.sim.now - generated_ns
        for host, seq in run:
            listeners = host._tdn_listeners
            if len(listeners) == 1 and listeners[0] is recorder and not tracepoint.enabled:
                samples.append(latency_ns)
            else:
                notification = TDNNotification(tor_name, host.address, tdn_id, generated_ns)
                notification.notify_seq = seq
                host._dispatch_notification(notification)

    def _dispatch(
        self, tor: ToRSwitch, host: Host, notification: TDNNotification, extra_ns: int
    ) -> None:
        if self.config.dedicated_network:
            # Dedicated control network: fixed, uncontended latency, so
            # the hosts of a rack share one fire time and one heap event.
            self.sim.schedule_fanout(
                self.config.control_delay_ns + extra_ns, host.deliver, notification
            )
        elif extra_ns > 0:
            self.sim.schedule(extra_ns, self._send_via_downlink, tor, host, notification)
        else:
            # Shared data network: queue behind data packets on the
            # host's downlink.
            self._send_via_downlink(tor, host, notification)

    def _send_via_downlink(self, tor: ToRSwitch, host: Host, notification: TDNNotification) -> None:
        link = tor._downlinks.get(host.address)
        if link is None:
            # Host not wired through this ToR (unit tests): fall back to
            # direct delivery with control latency.
            self.sim.schedule(self.config.control_delay_ns, host.deliver, notification)
            return
        # The emulated hosts share one data-plane interface (Etalon's
        # containers sit behind one NIC and one Click process): the ICMP
        # contends with the host's own transmit backlog on the common
        # NIC and waits for the software switch to process the VOQ
        # backlog ahead of it, in addition to downlink queueing.
        contention_ns = host.egress.backlog_ns() if host.egress is not None else 0
        for queue in tor.voqs.values():
            contention_ns += len(queue) * self.config.switch_per_packet_cost_ns
        if contention_ns > 0:
            self.sim.schedule(contention_ns, link.send, notification)
        else:
            link.send(notification)
