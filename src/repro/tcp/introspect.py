"""``ss -ti``-style connection introspection.

Renders live connection state the way the kernel's socket-statistics
tool would — one line per connection plus an indented detail line per
path (TDN). Useful when debugging experiments interactively and in the
examples.
"""

from __future__ import annotations

from repro.tcp.connection import TCPConnection


def _format_bytes(count: int) -> str:
    value = float(count)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if value < 1024 or unit == "TB":
            return f"{value:.0f}{unit}" if unit == "B" else f"{value:.1f}{unit}"
        value /= 1024.0
    raise AssertionError("unreachable")


def _format_rate(bps: float) -> str:
    for unit in ("bps", "Kbps", "Mbps", "Gbps"):
        if bps < 1000 or unit == "Gbps":
            return f"{bps:.1f}{unit}"
        bps /= 1000.0
    raise AssertionError("unreachable")


def _format_age(delta_ns: int) -> str:
    """Time since an event, ss-style (``lastsnd`` and friends)."""
    if delta_ns < 1_000_000:
        return f"{delta_ns / 1e3:.0f}us"
    return f"{delta_ns / 1e6:.1f}ms"


def describe_connection(conn: TCPConnection) -> str:
    """Multi-line ss-style description of one connection."""
    header = (
        f"{conn.state:<12} {conn.host.address}:{conn.local_port} -> "
        f"{conn.remote_addr}:{conn.remote_port}"
    )
    totals = (
        f"  bytes_acked:{_format_bytes(conn.stats.bytes_acked)}"
        f" bytes_received:{_format_bytes(conn.stats.bytes_delivered)}"
        f" segs_out:{conn.stats.segments_sent}"
        f" retrans:{conn.stats.retransmissions}"
        f" spurious:{conn.stats.spurious_retransmissions}"
        f" rtos:{conn.stats.rtos}"
        f" unacked:{conn.total_packets_out()}"
    )
    lines = [header, totals]
    multi_path = len(conn.paths) > 1
    for path in conn.paths:
        srtt = f"{path.rtt.srtt_ns / 1e6:.3f}ms" if path.rtt.srtt_ns else "-"
        rttvar = f"{path.rtt.rttvar_ns / 1e6:.3f}ms" if path.rtt.rttvar_ns else "-"
        label = f"  tdn:{path.tdn_id} " if multi_path else "  "
        # Per-path telemetry: EWMA delivery rate plus the ages of the
        # last cwnd-update / retransmit tracepoints (ss's delivery_rate
        # and lastsnd-style fields).
        telemetry = ""
        if path.delivery_rate_bps > 0:
            telemetry += f" delivery_rate:{_format_rate(path.delivery_rate_bps)}"
        if path.last_cwnd_update_ns is not None:
            telemetry += f" last_cwnd_update:{_format_age(conn.sim.now - path.last_cwnd_update_ns)}"
        if path.last_retransmit_ns is not None:
            telemetry += f" last_retransmit:{_format_age(conn.sim.now - path.last_retransmit_ns)}"
        lines.append(
            f"{label}{path.cc.name} cwnd:{path.cc.cwnd:.1f}"
            + (
                f" ssthresh:{path.cc.ssthresh:.1f}"
                if path.cc.ssthresh != float("inf")
                else ""
            )
            + f" rtt:{srtt}/{rttvar}"
            f" state:{path.ca_state.value}"
            f" pipe:{path.packets_out}/{path.sacked_out}/{path.lost_out}/{path.retrans_out}"
            + telemetry
        )
    extra = getattr(conn, "tdn_state", None)
    if extra is not None and not getattr(conn, "downgraded", False):
        lines.append(
            f"  tdtcp: current_tdn:{extra.current_index}"
            f" switches:{extra.switches}"
            f" change_ptr:{conn.tdn_change_seq}"
        )
    return "\n".join(lines)
