"""§5.4 microbenchmarks: the three notification-path optimizations.

Paper-reported component improvements:

* ICMP packet caching: 8x at p50, 2.7x at p99 (generation latency);
* push -> pull flow update: ~3 orders of magnitude (total update time);
* dedicated control network: 5x (end-to-end one-way latency) — here
  demonstrated as dedicated vs shared delivery under data-plane load.
"""

from repro.experiments import ExperimentConfig, run_experiment
from repro.obs.sketch import quantile
from repro.rdcn.config import NotifierConfig, RDCNConfig
from repro.rdcn import notifier as costs
from repro.rdcn.notifier import sample_generation_delay_ns
from repro.sim.rng import SeededRandom

from benchmarks.conftest import emit


def test_icmp_packet_caching(benchmark, results_dir):
    rng = SeededRandom(17)

    def sample_both():
        cached = [
            sample_generation_delay_ns(
                rng, costs.GENERATION_CACHED_P50_NS, costs.GENERATION_CACHED_TAIL_NS
            )
            for _ in range(50_000)
        ]
        uncached = [
            sample_generation_delay_ns(
                rng, costs.GENERATION_UNCACHED_P50_NS, costs.GENERATION_UNCACHED_TAIL_NS
            )
            for _ in range(50_000)
        ]
        return cached, uncached

    cached, uncached = benchmark.pedantic(sample_both, rounds=1, iterations=1)
    p50 = quantile(uncached, 0.5) / quantile(cached, 0.5)
    p99 = quantile(uncached, 0.99) / quantile(cached, 0.99)
    emit(
        results_dir,
        "micro_caching",
        "ICMP generation latency, uncached/cached ratio:\n"
        f"  p50: {p50:.1f}x (paper: 8x)\n"
        f"  p99: {p99:.1f}x (paper: 2.7x)",
    )
    assert 5.0 < p50 < 11.0
    assert 1.5 < p99 < 4.5


def test_push_vs_pull_update(benchmark, results_dir):
    """Total time to update N flows: push walks them one by one, pull is
    a single shared variable read per flow."""
    n_flows = 64

    def totals():
        push_total = sum(costs.PUSH_PER_FLOW_COST_NS * (i + 1) for i in range(n_flows))
        pull_total = sum(costs.PULL_READ_COST_NS for _ in range(n_flows))
        return push_total, pull_total

    push_total, pull_total = benchmark.pedantic(totals, rounds=1, iterations=1)
    ratio = push_total / pull_total
    emit(
        results_dir,
        "micro_push_pull",
        f"flow update time, push/pull ratio over {n_flows} flows: "
        f"{ratio:.0f}x (paper: ~3 orders of magnitude)",
    )
    assert ratio > 1_000


def test_dedicated_vs_shared_network(benchmark, results_dir):
    """End-to-end notification latency with a loaded data plane."""

    def run_both():
        latencies = {}
        for name, dedicated in (("dedicated", True), ("shared", False)):
            cfg = ExperimentConfig(
                variant="tdtcp",
                rdcn=RDCNConfig(
                    notifier=NotifierConfig(dedicated_network=dedicated)
                ),
                n_flows=8,
                weeks=10,
                warmup_weeks=2,
            )
            result = run_experiment(cfg)
            latencies[name] = result.notification_latencies
        return latencies

    latencies = benchmark.pedantic(run_both, rounds=1, iterations=1)
    p50 = quantile(latencies["shared"], 0.5) / max(quantile(latencies["dedicated"], 0.5), 1)
    p99 = quantile(latencies["shared"], 0.99) / max(quantile(latencies["dedicated"], 0.99), 1)
    emit(
        results_dir,
        "micro_dedicated",
        "notification one-way latency, shared/dedicated ratio under load:\n"
        f"  p50: {p50:.1f}x (paper: 5x)\n"
        f"  p99: {p99:.1f}x (paper: 5x)",
    )
    assert p50 > 1.5  # shared clearly slower under data-plane load
