"""Extensions beyond the headline reproduction: per-TDN CCAs,
background traffic, the N-rack rotor schedule, sweeps, CLI."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tdtcp import TDTCPConnection
from repro.experiments import cli, figures, runner
from repro.experiments.cli import main as cli_main
from repro.experiments.executor import ExperimentExecutor
from repro.experiments.runner import ExperimentResult
from repro.experiments.sweeps import day_length_sweep, duty_ratio_sweep
from repro.rdcn.rotor import round_robin_matchings
from repro.sim import SeededRandom, Simulator
from repro.tcp.sockets import create_connection_pair
from repro.units import gbps, msec, usec

from tests.helpers import rotor_day_pattern, two_hosts


class TestPerTDNCCAs:
    def test_distinct_ccas_per_tdn(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, server = create_connection_pair(
            sim, a, b,
            connection_cls=TDTCPConnection,
            tdn_count=2,
            cc_names=["reno", "cubic"],
        )
        sim.run(until=usec(300))
        assert client.paths[0].cc.name == "reno"
        assert client.paths[1].cc.name == "cubic"

    def test_new_tdn_beyond_list_uses_default(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, _server = create_connection_pair(
            sim, a, b,
            connection_cls=TDTCPConnection,
            tdn_count=2,
            cc_name="cubic",
            cc_names=["reno", "dctcp"],
        )
        client.set_current_tdn(3)
        assert client.paths[3].cc.name == "cubic"

    def test_length_mismatch_rejected(self):
        sim, a, b, _ab, _ba = two_hosts()
        with pytest.raises(ValueError):
            TDTCPConnection(sim, a, b.address, 5001, tdn_count=2, cc_names=["reno"])

    def test_mixed_ccas_transfer(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, server = create_connection_pair(
            sim, a, b,
            connection_cls=TDTCPConnection,
            tdn_count=2,
            cc_names=["cubic", "reno"],
        )
        client.start_bulk()
        sim.run(until=msec(5))
        assert server.stats.bytes_delivered > 1_000_000


class TestRotorSchedule:
    def test_eight_racks_seven_matchings(self):
        matchings = round_robin_matchings(8)
        assert len(matchings) == 7
        for matching in matchings:
            assert len(matching) == 4  # perfect matching

    @given(st.sampled_from([2, 4, 6, 8, 10, 12]))
    @settings(max_examples=10)
    def test_every_pair_exactly_once(self, n_racks):
        matchings = round_robin_matchings(n_racks)
        seen = [pair for matching in matchings for pair in matching]
        assert len(seen) == len(set(seen))
        expected = n_racks * (n_racks - 1) // 2
        assert len(seen) == expected

    def test_odd_rack_count_rejected(self):
        with pytest.raises(ValueError):
            round_robin_matchings(7)

    def test_matching_index_lookup(self):
        pattern = rotor_day_pattern(8, 0, 3)
        matchings = round_robin_matchings(8)
        assert (0, 3) in matchings[pattern.index(1)]

    def test_pair_schedule_is_papers_ratio(self):
        tdns = rotor_day_pattern(8, 0, 1)
        assert len(tdns) == 7
        assert tdns.count(1) == 1
        assert tdns.count(0) == 6

    def test_self_pair_rejected(self):
        """No matching pairs a rack with itself."""
        assert all(a != b for matching in round_robin_matchings(8) for a, b in matching)
        with pytest.raises(ValueError):
            rotor_day_pattern(8, 3, 3)


class TestSweeps:
    def test_duty_ratio_sweep_smoke(self):
        result = duty_ratio_sweep(
            packet_days=(2, 6), variants=("cubic", "tdtcp"),
            weeks=8, warmup_weeks=2, n_flows=2,
        )
        table = result.by_label()
        assert set(table) == {"2:1", "6:1"}
        for row in table.values():
            assert row["tdtcp"] > 0 and row["cubic"] > 0
        assert "duty-ratio-sweep" in result.render()

    def test_day_length_sweep_smoke(self):
        result = day_length_sweep(
            day_us_values=(180,), variants=("tdtcp",),
            weeks=8, warmup_weeks=2, n_flows=2,
        )
        assert len(result.points) == 1
        assert result.points[0].throughput_gbps > 0

    def test_run_options_reach_sweep_points_and_their_reports_come_back(self):
        result = day_length_sweep(
            day_us_values=(180,), variants=("tdtcp",),
            weeks=4, warmup_weeks=1, n_flows=2, audit="warn",
        )
        assert result.ok
        assert len(result.reports) == 1
        assert result.reports[0].startswith("[180us/tdtcp] auditor [warn]: ")


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "sweep-ratio" in out

    def test_unknown_target(self, capsys):
        assert cli_main(["fig99"]) == 2

    def test_fig2_small(self, capsys, tmp_path):
        code = cli_main([
            "fig2", "--weeks", "6", "--warmup", "2", "--flows", "2",
            "--csv", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "steady-state throughput" in out
        assert list(tmp_path.glob("fig2_*.csv"))

    def test_fig10_prints_the_whole_figure(self, capsys):
        code = cli_main(["fig10", "--weeks", "6", "--warmup", "2", "--flows", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[fig10a reordering events/day]" in out
        assert "[fig10b retransmission marks/day]" in out
        assert "spurious retransmissions per GB delivered" in out

    def test_figure_trailer_reports_the_fault_plan_and_the_auditor(self, capsys, tmp_path):
        code = cli_main([
            "fig2", "--weeks", "6", "--warmup", "2", "--flows", "2",
            "--audit", "fail", "--bundle-dir", str(tmp_path),
            "--fault-plan", "examples/fault_plans/lossy_fabric.json",
        ])
        assert code == 0
        out = capsys.readouterr().out
        for variant in ("cubic", "mptcp"):
            assert f"[fig2/{variant}] fault plan: lossy-fabric (4 specs, " in out
            assert f"[fig2/{variant}] auditor [fail]: " in out


@pytest.fixture
def no_run(monkeypatch):
    """Fail the test if the CLI starts any run."""
    def refuse(*_args, **_kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(ExperimentExecutor, "run_batch", refuse)
    monkeypatch.setattr(runner, "run_experiment", refuse)


class TestCLIRefusesBeforeAnyRun:
    @pytest.mark.parametrize("target", ["chaos", "replay-trace", "sweep-load", "sweep-ratio", "sweep-day"])
    def test_a_buffer_flag_the_target_ignores_is_refused(self, no_run, capsys, tmp_path, target):
        trace = tmp_path / "flows.csv"
        trace.write_text("start_ns,src,dst,size_bytes\n0,r0h0,r1h0,3000\n")
        code = cli_main([target, "--weeks", "3", "--warmup", "1", "--trace", str(trace),
                         "--buffer-policy", "complete-sharing", "--buffer-total", "40"])
        assert code == 2
        assert "--buffer-policy" in capsys.readouterr().err

    def test_a_config_the_flags_cannot_build_exits_2_with_its_message(self, no_run, capsys):
        assert cli_main(["chaos", "--weeks", "4"]) == 2
        assert "weeks must exceed warmup_weeks" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["chaos", "replay-trace"])
    def test_an_unknown_variant_exits_2_with_its_message(self, no_run, capsys, tmp_path, target):
        trace = tmp_path / "flows.csv"
        trace.write_text("start_ns,src,dst,size_bytes\n0,r0h0,r1h0,3000\n")
        code = cli_main([target, "--weeks", "3", "--warmup", "1", "--trace", str(trace),
                         "--variant", "nope"])
        assert code == 2
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize("names", ["nope", "cubic,nope", "mptcp"])
    def test_an_unsupported_sweep_load_variant_exits_2_naming_the_flag(self, no_run, capsys, names):
        code = cli_main(["sweep-load", "--weeks", "3", "--warmup", "1", "--variants", names])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("--variants: ")
        assert "supported: cubic, dctcp, reno" in err


# ----------------------------------------------------------------------
# A run option has one road to a run: flag x target matrix
# ----------------------------------------------------------------------
#: Every target that builds runs (``list`` builds none).
RUN_TARGETS = [name for name in cli.TARGETS if name != "list"]

#: One non-default value per run-level flag, and where it must land on
#: every config the target builds.
RUN_FLAGS = {
    "--weeks": (["7"], lambda c: c.weeks == 7),
    "--warmup": (["3"], lambda c: c.warmup_weeks == 3),
    "--flows": (["5"], lambda c: c.n_flows == 5),
    "--seed": (["11"], lambda c: c.seed == 11),
    "--fidelity": (["tiered"], lambda c: c.fidelity == "tiered"),
    "--trace-out": (["OBS"], lambda c: c.obs is not None and c.obs.trace_dir == "OBS"),
    "--metrics-out": (["OBS"], lambda c: c.obs is not None and c.obs.metrics_dir == "OBS"),
    "--profile": ([], lambda c: c.obs is not None and c.obs.profile),
    "--fault-plan": (
        ["examples/fault_plans/lossy_fabric.json"],
        lambda c: c.fault_plan is not None and c.fault_plan.name == "lossy-fabric",
    ),
    "--audit": (["warn"], lambda c: c.audit == "warn"),
    "--watchdog-events": (["12345"], lambda c: c.watchdog_max_events == 12345),
    "--watchdog-wall": (["6.5"], lambda c: c.watchdog_max_wall_s == 6.5),
    "--bundle-dir": (["BUNDLES"], lambda c: c.bundle_dir == "BUNDLES"),
}

@pytest.fixture(scope="module")
def configs_reaching_a_run(tmp_path_factory):
    """``target -> configs`` a CLI invocation carrying every run flag
    hands to the executor / runner, without simulating anything."""
    recorded = {}
    tmp = tmp_path_factory.mktemp("run_flags")
    trace = tmp / "flows.csv"
    trace.write_text("start_ns,src,dst,size_bytes\n0,r0h0,r1h0,3000\n")

    def record(target):
        if target in recorded:
            return recorded[target]
        configs = recorded[target] = []

        def empty_result(config):
            configs.append(config)
            return ExperimentResult(config=config, duration_ns=config.duration_ns)

        argv = [target, "--trace", str(trace)]
        for flag, (value, _check) in RUN_FLAGS.items():
            argv += [flag, *value]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                ExperimentExecutor, "run_batch",
                lambda self, batch, labels=None: [empty_result(c) for c in batch],
            )
            patch.setattr(runner, "run_experiment", empty_result)
            cli.main(argv)
        return configs

    return record


class TestRunFlagsReachEveryTarget:
    @pytest.mark.parametrize("flag", RUN_FLAGS)
    @pytest.mark.parametrize("target", RUN_TARGETS)
    def test_flag_lands_on_every_config(self, configs_reaching_a_run, target, flag):
        configs = configs_reaching_a_run(target)
        assert configs, f"{target} built no run"
        _value, check = RUN_FLAGS[flag]
        dropped = [c.variant for c in configs if not check(c)]
        assert not dropped, f"{target} dropped {flag} on {dropped}"

    def test_telemetry_labels_name_the_run(self, configs_reaching_a_run):
        assert [c.obs.label for c in configs_reaching_a_run("fig2")] == [
            "fig2_cubic", "fig2_mptcp"]
        assert [c.obs.label for c in configs_reaching_a_run("sweep-load")] == [
            f"load_{load}_{variant}"
            for load in ("0.20", "0.40", "0.60") for variant in ("cubic", "tdtcp")]

    def test_only_the_voq_figures_skip_the_sequence(self, configs_reaching_a_run):
        wants_sequence = {
            name: {c.collect_sequence for c in configs_reaching_a_run(name)}
            for name in figures.FIGURES
        }
        voq_only = {"fig13", "fig14-10g", "fig14-100g"}
        assert wants_sequence == {
            name: {name not in voq_only} for name in figures.FIGURES
        }

    def test_cli_figures_are_the_figures_table(self):
        assert cli.FIGURES is figures.FIGURES

    def test_a_misspelt_run_option_is_an_error(self):
        with pytest.raises(TypeError):
            figures.fig2(wekks=3)
        with pytest.raises(TypeError):
            duty_ratio_sweep(wekks=3)
