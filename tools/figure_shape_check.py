#!/usr/bin/env python3
"""Figure-shape regression gate for tiered fidelity.

Runs fig2 (motivation) and fig7 (the paper's headline comparison) at a
small seeded scale in both ``fidelity="packet"`` and
``fidelity="tiered"``, then checks that the fluid fast path preserves
the *shape* of the paper's results rather than their exact bytes:

* per-variant steady-state throughput in tiered mode stays within a
  pinned band of the packet value — exactly 1.0x for variants the
  fluid model force-falls-back on (dctcp, mptcp, retcp, retcpdyn run
  packet fidelity either way, so any drift there is a real bug), and
  [1.0, 1.5]x for fluid variants (the model has no retransmission
  waste, so tiered lands slightly high; measured ~1.2-1.4x at this
  scale);
* fig7's headline claims stay in place: every TDTCP-vs-other
  throughput gain moves by at most a pinned number of percentage
  points across fidelities. The fluid model's optimism is asymmetric —
  it inflates fluid variants (tdtcp, cubic) but not forced-packet ones
  — so gains shift by up to ~22 points at this scale (and near-parity
  pairs like tdtcp-vs-retcpdyn can even flip sign); the gate bounds
  the shift rather than demanding sign-stability the model cannot
  honestly provide.

This is the statistical counterpart of the byte-identity goldens in
``tests/test_trace_goldens.py``: packet traces must not change at all;
tiered figures must stay within these tolerances. Exit 0 on pass, 1 on
any shape violation, with every check printed either way.

Usage::

    PYTHONPATH=src python tools/figure_shape_check.py
    PYTHONPATH=src python tools/figure_shape_check.py --weeks 14 --flows 8
"""

from __future__ import annotations

import argparse
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.figures import fig2, fig7  # noqa: E402
from repro.experiments.report import headline_claims  # noqa: E402
from repro.sim.fastpath import FLUID_VARIANTS  # noqa: E402

#: Tiered/packet throughput band for fluid variants (no retransmission
#: waste or ramp-up stalls -> tiered is slightly optimistic). Mirrors
#: the pinned band in tests/test_fastpath.py.
FLUID_LOW, FLUID_HIGH = 1.0, 1.5
#: Forced-packet variants rerun the identical packet path, so their
#: ratio must be exactly 1 up to float formatting.
FORCED_TOL = 1e-9
#: Max movement of a fig7 headline gain (percentage points) across
#: fidelities. Measured shifts at the default scale: -20 (vs cubic,
#: itself fluid-boosted) to +21 (vs forced-packet variants); 35 leaves
#: headroom for seed scatter while still catching a broken model.
MAX_GAIN_SHIFT_PCT = 35.0


def run_both(figure, weeks: int, flows: int, seed: int):
    packet = figure(weeks=weeks, warmup_weeks=2, n_flows=flows, seed=seed,
                    fidelity="packet")
    tiered = figure(weeks=weeks, warmup_weeks=2, n_flows=flows, seed=seed,
                    fidelity="tiered")
    return packet, tiered


def check_ratios(name: str, packet, tiered) -> list:
    failures = []
    for variant, packet_thr in sorted(packet.throughputs_gbps.items()):
        tiered_thr = tiered.throughputs_gbps.get(variant)
        if tiered_thr is None:
            failures.append(f"{name}/{variant}: missing from tiered run")
            continue
        ratio = tiered_thr / packet_thr if packet_thr else float("inf")
        if variant in FLUID_VARIANTS:
            ok = FLUID_LOW <= ratio <= FLUID_HIGH
            band = f"[{FLUID_LOW}, {FLUID_HIGH}] (fluid)"
        else:
            ok = abs(ratio - 1.0) <= FORCED_TOL
            band = "exactly 1.0 (forced packet)"
        print(f"  {name}/{variant:<10} packet {packet_thr:6.2f} Gbps, "
              f"tiered {tiered_thr:6.2f} Gbps, ratio {ratio:.4f} "
              f"{'ok' if ok else 'FAIL'} — expected {band}")
        if not ok:
            failures.append(
                f"{name}/{variant}: tiered/packet throughput ratio "
                f"{ratio:.4f} outside {band}"
            )
    return failures


def check_headline_shift(packet, tiered) -> list:
    failures = []
    packet_claims = headline_claims(packet)
    tiered_claims = headline_claims(tiered)
    for key, packet_gain in sorted(packet_claims.items()):
        tiered_gain = tiered_claims.get(key)
        if tiered_gain is None:
            failures.append(f"fig7 claim {key}: missing from tiered run")
            continue
        shift = tiered_gain - packet_gain
        ok = abs(shift) <= MAX_GAIN_SHIFT_PCT
        print(f"  fig7 {key:<22} packet {packet_gain:+7.1f}%, "
              f"tiered {tiered_gain:+7.1f}% (shift {shift:+.1f} pts) "
              f"{'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(
                f"fig7 claim {key}: gain moved {shift:+.1f} points across "
                f"fidelities (packet {packet_gain:+.1f}% vs tiered "
                f"{tiered_gain:+.1f}%), beyond {MAX_GAIN_SHIFT_PCT} allowed"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--weeks", type=int, default=10,
                        help="horizon in optical weeks (default 10)")
    parser.add_argument("--flows", type=int, default=4,
                        help="flows per variant (default 4)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    failures = []
    for name, figure in (("fig2", fig2), ("fig7", fig7)):
        print(f"[figure-shape] {name} at weeks={args.weeks} "
              f"flows={args.flows} seed={args.seed}", flush=True)
        packet, tiered = run_both(figure, args.weeks, args.flows, args.seed)
        for label, data in (("packet", packet), ("tiered", tiered)):
            if data.failures:
                failures.extend(
                    f"{name}/{variant} ({label}): {failure.render()}"
                    for variant, failure in data.failures.items()
                )
        failures.extend(check_ratios(name, packet, tiered))
        if name == "fig7":
            failures.extend(check_headline_shift(packet, tiered))

    if failures:
        print(f"[figure-shape] FAIL: {len(failures)} violation(s)",
              file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("[figure-shape] ok: tiered figures preserve packet-mode shape")
    return 0


if __name__ == "__main__":
    sys.exit(main())
