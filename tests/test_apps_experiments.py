"""Applications and the experiment harness."""

import pytest

from repro.apps.bulk import BulkReceiver, BulkSender
from repro.experiments import ExperimentConfig, VARIANTS, get_variant, run_experiment
from repro.experiments.variants import VariantSpec
from repro.rdcn.config import RDCNConfig
from repro.rdcn.topology import build_two_rack_testbed
from repro.tcp.cc import make_congestion_control
from repro.tcp.sockets import create_connection_pair
from repro.units import gbps, msec, usec

from tests.helpers import small_rdcn, two_hosts


class TestBulkApps:
    def test_sender_starts_on_establishment(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, server = create_connection_pair(sim, a, b, connect=False)
        sender = BulkSender(client)
        assert not sender.started
        client.connect()
        sim.run(until=msec(1))
        assert sender.started
        assert client.send_buffer.unlimited

    def test_fixed_size_sender(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, server = create_connection_pair(sim, a, b)
        client.write(30_000)
        sim.run(until=msec(5))
        assert server.stats.bytes_delivered == 30_000

    def test_receiver_traces(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, server = create_connection_pair(sim, a, b)
        receiver = BulkReceiver(server)
        seen = []
        client.write(5_000)
        sim.run(until=msec(2))
        seen.append(receiver.delivered_bytes)
        client.write(10_000)
        sim.run(until=msec(5))
        seen.append(receiver.delivered_bytes)
        assert seen == [5_000, 15_000]
        assert server.stats.bytes_delivered == 15_000

    def test_receiver_chains_existing_callback(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, server = create_connection_pair(sim, a, b)
        seen = []
        server.on_delivered = lambda t, n: seen.append(n)
        BulkReceiver(server)
        client.write(3000)
        sim.run(until=msec(5))
        assert seen[-1] == 3000

class TestWorkload:
    def test_flow_count_and_wiring(self):
        """The runner opens one flow per ``n_flows``, host i of rack 0
        to host i of rack 1, and books each flow's delivered bytes; more
        flows than hosts grow the racks."""
        config = ExperimentConfig(variant="cubic", rdcn=small_rdcn(n_hosts=2),
                                  n_flows=3, weeks=3, warmup_weeks=1)
        result = run_experiment(config)
        assert result.config.rdcn.n_hosts_per_rack == 3
        assert len(result.flow_delivered) == 3
        assert all(delivered > 0 for delivered in result.flow_delivered)
        assert sum(result.flow_delivered) == result.aggregate_delivered


class TestVariantRegistry:
    def test_all_paper_variants_present(self):
        for name in ("cubic", "dctcp", "mptcp", "retcp", "retcpdyn", "tdtcp", "tdtcp-unopt"):
            spec = get_variant(name)
            assert isinstance(spec, VariantSpec)
            assert spec.name == name

    def test_unknown_variant(self):
        with pytest.raises(KeyError):
            get_variant("quic")

    def test_dctcp_needs_ecn(self):
        """Said by the spec's CCA, not by the spec."""

        def cca_wants_ecn(variant: str) -> bool:
            return make_congestion_control(get_variant(variant).cc_name, clock=None).wants_ecn

        assert cca_wants_ecn("dctcp")
        assert not cca_wants_ecn("cubic")

    def test_unoptimized_flag(self):
        assert get_variant("tdtcp-unopt").unoptimized_notifier
        assert not get_variant("tdtcp").unoptimized_notifier


class TestExperimentConfig:
    def test_defaults_derive_tcp_config(self):
        cfg = ExperimentConfig(variant="cubic")
        assert cfg.tcp.mss == cfg.rdcn.mss

    def test_hosts_grow_with_flows(self):
        cfg = ExperimentConfig(variant="cubic", n_flows=12)
        assert cfg.rdcn.n_hosts_per_rack >= 12

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(variant="cubic", weeks=3, warmup_weeks=5)
        with pytest.raises(ValueError):
            ExperimentConfig(variant="cubic", n_flows=0)

    def test_duration(self):
        cfg = ExperimentConfig(variant="cubic", weeks=10)
        assert cfg.duration_ns == 10 * cfg.rdcn.week_ns


class TestRunner:
    @pytest.mark.parametrize("variant", ["cubic", "dctcp", "tdtcp", "mptcp", "retcp", "retcpdyn"])
    def test_small_run_every_variant(self, variant):
        cfg = ExperimentConfig(variant=variant, n_flows=2, weeks=6, warmup_weeks=2)
        result = run_experiment(cfg)
        assert result.aggregate_delivered > 0
        assert result.throughput_gbps > 0.5
        assert len(result.flow_delivered) == 2
        assert result.seq_week_curve
        assert result.voq_week_curve

    def test_reproducible_runs(self):
        cfg1 = ExperimentConfig(variant="tdtcp", n_flows=2, weeks=5, warmup_weeks=1, seed=9)
        cfg2 = ExperimentConfig(variant="tdtcp", n_flows=2, weeks=5, warmup_weeks=1, seed=9)
        r1 = run_experiment(cfg1)
        r2 = run_experiment(cfg2)
        assert r1.aggregate_delivered == r2.aggregate_delivered
        assert r1.seq_week_curve == r2.seq_week_curve

    def test_different_seeds_differ(self):
        # TDTCP reacts to notification timing, whose generation jitter
        # is seeded — different seeds must give different traces.
        # (CUBIC ignores notifications entirely, so its traces are
        # legitimately seed-independent.)
        r1 = run_experiment(ExperimentConfig(variant="tdtcp", n_flows=2, weeks=5, warmup_weeks=1, seed=1))
        r2 = run_experiment(ExperimentConfig(variant="tdtcp", n_flows=2, weeks=5, warmup_weeks=1, seed=2))
        assert r1.seq_week_curve != r2.seq_week_curve

    def test_per_day_counters_have_expected_length(self):
        cfg = ExperimentConfig(variant="cubic", n_flows=2, weeks=6, warmup_weeks=2)
        result = run_experiment(cfg)
        assert len(result.reordering_per_day) == 4
        assert len(result.retx_marks_per_day) == 4

    def test_notification_latencies_recorded(self):
        cfg = ExperimentConfig(variant="tdtcp", n_flows=2, weeks=5, warmup_weeks=1)
        result = run_experiment(cfg)
        assert result.notification_latencies

