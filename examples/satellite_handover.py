#!/usr/bin/env python3
"""TDTCP beyond data centers: the satellite handover scenario of §3.5.

"Satellite signal coverage has a periodic strong-weak pattern as
satellites orbit the earth. Satellite links are used if a strong signal
can be detected. When the signal falls weak, fiber links between ground
stations are often used as a backup. At any time, only one link is
selected. TDTCP is particularly suitable for a network with this
pattern."

We model TDN 0 as the terrestrial fiber backup (moderate bandwidth,
low latency) and TDN 1 as the satellite pass (high bandwidth, high
latency), alternating every 2 ms with a 100 us handover blackout, and
compare TDTCP against plain CUBIC.

Run:  python examples/satellite_handover.py [--cycles N]

``--cycles`` is the horizon in handover cycles (default 24).
"""

import argparse

from repro.apps.bulk import BulkReceiver, BulkSender
from repro.core import TDTCPConnection
from repro.rdcn import RDCNConfig, build_two_rack_testbed
from repro.rdcn.config import NotifierConfig
from repro.tcp import TCPConfig
from repro.tcp.sockets import create_connection_pair
from repro.units import gbps, throughput_gbps, usec


def satellite_config() -> RDCNConfig:
    # §3.5: TDTCP suits networks whose conditions change every
    # 1-100x RTT. A 20 ms pass over a ~6 ms-RTT satellite link (and a
    # ~1 ms-RTT fiber backup) sits comfortably in that regime.
    return RDCNConfig(
        n_hosts_per_rack=1,
        mss=1500,
        # TDN 0: ground fiber backup — 1 Gbps, short path.
        packet_rate_bps=gbps(1),
        packet_one_way_ns=usec(450),
        # TDN 1: satellite pass — 5 Gbps, long path.
        optical_rate_bps=gbps(5),
        optical_one_way_ns=usec(2_900),
        host_link_rate_bps=gbps(5),
        host_link_delay_ns=usec(10),
        # Modest ground-station buffering: ~0.4 ms at the backup rate
        # (a deep buffer here just bloats the fiber path's RTT).
        voq_capacity=256,
        # Alternating passes: satellite up half the time.
        schedule_pattern=(0, 1),
        day_ns=usec(20_000),
        night_ns=usec(500),
        notifier=NotifierConfig(control_delay_ns=usec(20)),
    )


def run_variant(cycles: int, connection_cls, **kwargs) -> float:
    config = satellite_config()
    testbed = build_two_rack_testbed(config)
    tcp = TCPConfig(
        mss=config.mss,
        rwnd_packets=4096,
        send_buffer_packets=4096,
        min_rto_ns=usec(50_000),
    )
    client, server = create_connection_pair(
        testbed.sim,
        testbed.host(0, 0),
        testbed.host(1, 0),
        cc_name="cubic",
        config=tcp,
        connection_cls=connection_cls,
        **kwargs,
    )
    receiver = BulkReceiver(server)
    BulkSender(client)
    testbed.start()
    testbed.sim.run(until=cycles * config.week_ns)
    return throughput_gbps(receiver.delivered_bytes, testbed.sim.now)


def main() -> None:
    from repro.tcp.connection import TCPConnection

    parser = argparse.ArgumentParser(description="TDTCP vs CUBIC across satellite handovers")
    parser.add_argument("--cycles", type=int, default=24, help="handover cycles to simulate")
    cycles = parser.parse_args().cycles

    config = satellite_config()
    average_capacity = (
        (config.packet_rate_bps + config.optical_rate_bps) * config.day_ns
        / config.week_ns / 1e9
    )
    print("satellite/ground handover scenario (§3.5 generality)")
    print("  ground fiber: 1 Gbps / ~1 ms RTT; satellite: 5 Gbps / ~6 ms RTT")
    print("  handover every 20 ms with a 500 us blackout")
    print(f"  average link capacity: {average_capacity:.2f} Gbps")
    print()
    cubic = run_variant(cycles, TCPConnection)
    tdtcp = run_variant(cycles, TDTCPConnection, tdn_count=2)
    print(f"  single-path CUBIC: {cubic:.3f} Gbps")
    print(f"  TDTCP:             {tdtcp:.3f} Gbps  "
          f"({(tdtcp / cubic - 1) * 100:+.0f}%)")


if __name__ == "__main__":
    main()
