"""Extension: incast (synchronized many-to-one) on the RDCN.

Not a paper figure — the classic DCN stress pattern, run on the paper's
fabric: N workers respond to one aggregator in barrier-style rounds.
Expected shape: round times grow with fan-in; TDTCP neither helps nor
hurts materially (rounds are short-flow-like, §5.1), and its per-TDN
accounting survives the convergence."""

from repro.apps.incast import run_incast
from repro.core.tdtcp import TDTCPConnection
from repro.obs.sketch import quantile
from repro.rdcn.config import RDCNConfig
from repro.rdcn.topology import build_two_rack_testbed
from repro.tcp.connection import TCPConnection

from benchmarks.conftest import emit


def test_ext_incast_fanin(benchmark, results_dir, scale):
    def study():
        out = {}
        for name, cls, kwargs in (
            ("tcp", TCPConnection, {}),
            ("tdtcp", TDTCPConnection, {"tdn_count": 2}),
        ):
            rows = {}
            for n_workers in (2, 4, 8):
                tb = build_two_rack_testbed(
                    RDCNConfig(n_hosts_per_rack=8, seed=scale["seed"])
                )
                coordinator = run_incast(
                    tb, n_workers=n_workers,
                    duration_ns=tb.config.week_ns * max(scale["weeks"], 16),
                    connection_cls=cls, **kwargs,
                )
                rows[n_workers] = coordinator
            out[name] = rows
        return out

    results = benchmark.pedantic(study, rounds=1, iterations=1)
    lines = ["incast round times (30 KB blocks/worker, barrier rounds):",
             f"{'variant':<8} {'workers':>8} {'rounds':>7} {'p50 us':>8} {'p99 us':>9}"]
    for name, rows in results.items():
        for n_workers, coordinator in rows.items():
            times = coordinator.stats.round_times_us()
            lines.append(
                f"{name:<8} {n_workers:>8} {len(times):>7} "
                f"{quantile(times, 0.5):>8.1f} {quantile(times, 0.99):>9.1f}"
            )
    emit(results_dir, "ext_incast", "\n".join(lines))

    for name, rows in results.items():
        p50 = {n: quantile(c.stats.round_times_us(), 0.5) for n, c in rows.items()}
        assert p50[8] > p50[2], f"{name}: fan-in squeeze missing"
        assert len(rows[8].stats.completed) >= 3
    # TDTCP within a sane band of plain TCP (short-flow non-impact).
    tcp_p50 = quantile(results["tcp"][4].stats.round_times_us(), 0.5)
    tdtcp_p50 = quantile(results["tdtcp"][4].stats.round_times_us(), 0.5)
    assert 0.5 < tdtcp_p50 / tcp_p50 < 2.0
