"""Self-test of the ledger harness (outside tier-1's ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q

Runs every workload at the ``--smoke`` horizons, so it checks the
harness, not the numbers.
"""

from __future__ import annotations

import argparse
import copy
import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
for _path in (str(REPO_ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def run_child(workload: str, trace: int, out: str = None) -> dict:
    args = argparse.Namespace(seed=3, seconds=1, smoke=True, out=out)
    return run._child(args, workload, trace)


class TestCatalogue:
    def test_benchmark_json_has_exactly_the_contract_keys(self):
        assert sorted(BENCHMARK) == [
            "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        assert BENCHMARK["paths"] == ["benchmarks/ledger"]
        assert 1 <= BENCHMARK["run_seconds"] <= 60

    def test_limits_and_names(self):
        assert 2 <= len(BENCHMARK["workloads"]) <= 8
        assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
        assert 1 <= len(BENCHMARK["per_layer"]) <= 128
        names = ([w["name"] for w in BENCHMARK["workloads"]]
                 + [m["name"] for m in BENCHMARK["end_to_end"]]
                 + [m["name"] for m in BENCHMARK["per_layer"]])
        assert len(names) == len(set(names))
        for name in names:
            assert NAME.fullmatch(name), name
        for workload in BENCHMARK["workloads"]:
            assert sorted(workload) == ["name", "why"]
            assert len(workload["why"]) <= 200 and "\n" not in workload["why"]

    def test_every_metric_has_unit_direction_and_bound(self):
        for metric in BENCHMARK["end_to_end"]:
            assert sorted(metric) == ["better", "bound", "name", "unit"]
            assert UNIT.fullmatch(metric["unit"])
            assert metric["better"] in ("lower", "higher")
            assert 0 < metric["bound"] <= 0.25
        for metric in BENCHMARK["per_layer"]:
            assert sorted(metric) == ["better", "name", "unit"]
            assert UNIT.fullmatch(metric["unit"])
            assert metric["better"] in ("lower", "higher")
        # The builder's contract: set-up time carries the largest bound.
        setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
        assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                          "bound": max(m["bound"] for m in BENCHMARK["end_to_end"])}]

    def test_benchmark_json_matches_the_harness(self):
        assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
            (cls.name, cls.why) for cls in workloads.WORKLOADS]
        assert [(m["name"], m["unit"], m["better"], m["bound"])
                for m in BENCHMARK["end_to_end"]] == [
            (name, *spec[:3]) for name, spec in metrics.END_TO_END.items()]
        assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
            (name, *spec[:2]) for name, spec in metrics.PER_LAYER.items()]

    def test_pins_cover_seed_1(self):
        pins = json.loads((HERE / "pins.json").read_text())
        assert sorted(pins["sim_digest"]["seed1"]) == sorted(workloads.BY_NAME)
        assert len(pins["accuracy_pairs"][f"seed{workloads.ACCURACY_SEED}"]) == 4

    def test_accuracy_may_not_exceed_its_pin_by_more_than_the_slack(self):
        pins = json.loads((HERE / "pins.json").read_text())
        pinned = pins["accuracy_pairs"][f"seed{workloads.ACCURACY_SEED}"]
        assert workloads.accuracy_regressions(pinned, pinned) == []
        worse = copy.deepcopy(pinned)
        # One pair's FCT error up by 4 points moves the mean of four by 1.
        pair = worse["cubic/data-mining"]
        pair["tiered_fct_p50_us"] += 0.04 * pair["packet_fct_p50_us"]
        (problem,) = workloads.accuracy_regressions(worse, pinned)
        assert "fct_p50_err_pct" in problem


class TestRobustWall:
    def test_takes_the_quiet_sample_of_every_slice(self):
        quiet = [0.05] * 10
        reps = [list(quiet) for _ in range(3)]
        reps[0][2] = 0.5   # a slow phase hits a different slice each rep
        reps[1][7] = 0.4
        reps[2][0] = 0.3
        assert metrics.robust_wall_s(reps) == pytest.approx(sum(quiet))

    def test_merges_slices_shorter_than_the_floor(self):
        # 1 ms slices are merged 20 at a time: a cost that moves from
        # slice to slice inside one group is kept, not filtered out.
        reps = [[0.001] * 40 for _ in range(2)]
        reps[0][3] += 0.01
        reps[1][11] += 0.01
        assert metrics.robust_wall_s(reps) == pytest.approx(0.05)

    def test_refuses_reps_whose_slices_do_not_line_up(self):
        with pytest.raises(ValueError):
            metrics.robust_wall_s([[1.0, 1.0], [0.5, 0.5, 0.5]])


class TestTracer:
    def test_self_times_add_up_to_the_wall(self, tmp_path):
        workload = workloads.OperaRotor(5, workloads.SCALES["smoke"], str(tmp_path))
        workload.setup()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            workload.rep(workloads.SliceClock(), tracer)
        finally:
            tracer.remove()
        layers = tracer.layer_self_s()
        assert sum(layers.values()) == pytest.approx(tracer.wall_s, rel=1e-6)
        assert layers["rdcn.opera"] > 0 and layers["tcp"] > 0
        assert layers[tracing.HARNESS] / tracer.wall_s < 0.10
        assert tracer.timer_events > 0
        # Timer events are booked to the timer's owner, never to sim.
        assert not [e for e in tracer.events.values() if e[1] == "Timer._fire"]

    def test_wrappers_are_all_removed(self, tmp_path):
        import importlib

        def targets():
            out = []
            for module_name, class_name, attr, _layer, _hot in tracing.WRAP_TARGETS:
                module = importlib.import_module(module_name)
                owner = getattr(module, class_name) if class_name else module
                out.append(owner.__dict__[attr])
            return out

        before = targets()
        tracer = tracing.Tracer()
        tracer.install()
        assert all(a is not b for a, b in zip(targets(), before))
        tracer.remove()
        assert all(a is b for a, b in zip(targets(), before))
        assert not tracer.installed


@pytest.mark.parametrize("name", list(workloads.BY_NAME))
def test_smoke_run_meets_the_output_contract(name, tmp_path):
    untraced = run_child(name, 0)
    traced = run_child(name, 1, out=str(tmp_path))
    for row, catalogue in ((untraced, metrics.END_TO_END), (traced, metrics.PER_LAYER)):
        assert row["exit"] == 0 and row["correct"] is True, row["detail"]["problems"]
        assert sorted(k for k in row if k not in ("detail", "exit")) == [
            "attempted", "correct", "failed", "metrics"]
        assert row["attempted"] >= 1 and row["failed"] == 0
        assert list(row["metrics"]) == list(catalogue)
        assert row["detail"]["smoke"] is True
        assert row["detail"]["digest_matches_pinned"] is None
    for metric in untraced["metrics"].values():
        assert metric["value"] > 0
    assert traced["detail"]["sim_digest"] == untraced["detail"]["sim_digest"]
    values = {k: v["value"] for k, v in traced["metrics"].items()}
    assert values["trace.unattributed_share"] <= 0.10
    assert sum(traced["detail"]["layer_shares"].values()) == pytest.approx(1.0)
    if name != "tiered_elephants":
        assert not [k for k, v in values.items() if k.startswith("sim.fastpath.") and v]
    assert (values["rdcn.opera.self_s"] > 0) == (name == "opera_rotor")
    spans = json.loads((tmp_path / f"spans_{name}.json").read_text())
    assert spans["smoke"] is True and spans["phases"] and spans["spans"]


def test_exits_non_zero_without_the_product(tmp_path):
    """In a directory with only the benchmark's own files the child must
    fail without printing a result."""
    ledger = tmp_path / "benchmarks" / "ledger"
    ledger.mkdir(parents=True)
    for path in HERE.iterdir():
        if path.is_file():
            (ledger / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "fig7_bulk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
