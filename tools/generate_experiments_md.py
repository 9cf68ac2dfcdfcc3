#!/usr/bin/env python3
"""Assemble EXPERIMENTS.md from benchmarks/results/*.txt.

Run after ``pytest benchmarks/ --benchmark-only``:

    python tools/generate_experiments_md.py
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"

# (section title, paper expectation, result files)
SECTIONS = [
    (
        "Figure 2 — motivation sequence graph",
        "CUBIC and MPTCP fall far below the optimal line: their slopes track "
        "the packet network in unshaded periods and capture only a sliver of "
        "the optical day; MPTCP sits below CUBIC (§2.2).",
        ["fig02.txt"],
    ),
    (
        "Figure 7 — bandwidth AND latency differences",
        "TDTCP dramatically out-performs CUBIC/DCTCP/MPTCP (+24%/+24%/+41% "
        "in the paper); reTCP is competitive only with dynamic buffer "
        "resizing; TDTCP's VOQ occupancy is modest with an initial-burst "
        "spike at the optical-to-packet transition; retcpdyn fills its "
        "enlarged 50-jumbo VOQ ahead of each circuit day.",
        ["fig07.txt"],
    ),
    (
        "Figure 8 — bandwidth difference only",
        "CUBIC and DCTCP adapt to pure bandwidth variation and only slightly "
        "under-perform TDTCP; retcpdyn approaches optimal; MPTCP still "
        "struggles. Here CUBIC clearly exceeds the packet-only rate, while "
        "DCTCP — ECN-driven, K = 30 segments — holds the VOQ near K, enters "
        "the optical day with no standing queue and keeps the packet rate: "
        "asserted as >= 0.95x packet-only, below CUBIC, and the shortest "
        "mean VOQ of the single-path variants (a DCTCP that never saw a CE "
        "mark used to read 12.15 Gbps here; K and g are not retuned).",
        ["fig08.txt"],
    ),
    (
        "Figure 9 — latency difference only (100 Gbps)",
        "All buffer-filling variants perform almost identically (TDTCP ~= "
        "CUBIC); DCTCP, latency-sensitive, does worse; MPTCP brings up the "
        "rear; optimal ~= packet-only.",
        ["fig09.txt"],
    ),
    (
        "Figure 10 — reordering and spurious retransmissions",
        "Paper (jumbo units): CUBIC retransmits 15 pkts/day at p90, 133 max; "
        "TDTCP cuts the tail to 7 at p90, 54 max, with 80% of optical days "
        "completely clean. Here (1500 B units, 6x the packet count per "
        "byte): TDTCP's per-day marks sit below CUBIC's at the median, its "
        "spurious-retransmission rate per delivered byte is an order of "
        "magnitude lower, and a fraction of its optical days are fully "
        "clean.",
        ["fig10.txt"],
    ),
    (
        "Figure 11 — TDN change notification optimizations",
        "The three §5.4 optimizations combined buy +12.7% throughput in the "
        "paper; here the optimized notification path is strictly faster and "
        "buys a positive (smaller) margin, because the simulated fabric's "
        "baseline notification latency is already low.",
        ["fig11.txt"],
    ),
    (
        "Figure 13 (A.3) — VOQ occupancy, CUBIC & MPTCP",
        "CUBIC keeps the VOQ near-full through packet days and drains during "
        "the optical day (service >> arrival); MPTCP shows the tdm_schd "
        "switching dip.",
        ["fig13.txt"],
    ),
    (
        "Figure 14 (A.4) — VOQ occupancy, latency-only",
        "With bandwidth fixed, the circuit BDP is smaller than the packet "
        "BDP, so reTCP-dyn's queue prebuilding is mismatched (it still fills "
        "the enlarged VOQ); TDTCP's buffer use stays in line with "
        "CUBIC/DCTCP/MPTCP.",
        ["fig14_10g.txt", "fig14_100g.txt"],
    ),
    (
        "Headline claims (the paper's 'table')",
        "TDTCP +24% over CUBIC and DCTCP, +41% over MPTCP, parity with "
        "reTCP-dyn. Directions reproduce; magnitudes are larger on the "
        "cleaner simulated fabric.",
        ["headline.txt"],
    ),
    (
        "§5.4 microbenchmarks — notification components",
        "ICMP packet caching: 8x at p50, 2.7x at p99. Push -> pull flow "
        "update: ~3 orders of magnitude. Dedicated control network: 5x "
        "end-to-end.",
        ["micro_caching.txt", "micro_push_pull.txt", "micro_dedicated.txt"],
    ),
    (
        "Extension — duty-cycle ratio sweep (§5.1 future work)",
        "The paper defers ratios other than 6:1. Measured: TDTCP's relative "
        "gain grows with the optical share (2:1) and shrinks as circuits "
        "become rare (13:1), never dropping below parity.",
        ["ext_duty_ratio.txt"],
    ),
    (
        "Extension — day-length sweep (§3.5 operating regime)",
        "TDTCP's advantage holds across day lengths from ~0.6x to ~10x the "
        "packet RTT, largest where days are a handful of RTTs.",
        ["ext_day_length.txt"],
    ),
    (
        "Extension — short-lived flows (§5.1's deferred claim)",
        "\"Overall, we do not expect TDTCP to impact the completion time of "
        "short-lived flows.\" Measured: FCT distributions of 15 KB RPCs are "
        "indistinguishable between plain TCP and TDTCP.",
        ["ext_short_flows.txt"],
    ),
    (
        "Extension — latency-sensitive CCA inside TDTCP (Figure 9's hypothesis)",
        "Running DCTCP inside every TDN of a TDTCP connection at least "
        "matches plain DCTCP on the latency-only fabric.",
        ["ext_dctcp_per_tdn.txt"],
    ),
    (
        "Extension — incast (synchronized many-to-one)",
        "Not a paper figure: the classic DCN stress pattern on the paper's "
        "fabric. Round times grow with fan-in for every variant; TDTCP's "
        "per-TDN accounting survives the convergence and completes rounds "
        "at least as fast as plain TCP.",
        ["ext_incast.txt"],
    ),
    (
        "Ablations — reproduction design choices",
        "Switch pacing (the §5.2 'sender pacing' remark), the ToR night-"
        "announcement policy, and reTCP's ramp factor, each quantified.",
        ["ablation_pacing.txt", "ablation_night_policy.txt", "ablation_retcp_alpha.txt"],
    ),
]

HEADER = """\
# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation, regenerated by
`pytest benchmarks/ --benchmark-only` on the simulated testbed
(defaults: 8 flows, 24 optical weeks after 8 warm-up weeks, seed 1;
scale with `REPRO_WEEKS` / `REPRO_FLOWS` / `REPRO_SEED`). The text
tables below are verbatim benchmark output; the *shape* statements in
each "paper expectation" paragraph are asserted by the benchmark that
produced the table.

Scale reminders (full details in DESIGN.md §7): this is a discrete-event
simulation, not a kernel on hardware — absolute Gbps differ from the
paper; MSS is 1500 B with the VOQ at the paper's byte capacity (96
segments = 16 jumbo frames, reported in jumbo equivalents in the VOQ
tables); the paper averages thousands of optical weeks, we average tens.

This file is generated: `python tools/generate_experiments_md.py`.
"""


def main() -> int:
    if not RESULTS.is_dir():
        print("no benchmarks/results directory — run the benchmarks first", file=sys.stderr)
        return 1
    parts = [HEADER]
    missing = []
    for title, expectation, files in SECTIONS:
        parts.append(f"\n## {title}\n")
        parts.append(f"**Paper expectation.** {expectation}\n")
        for name in files:
            path = RESULTS / name
            if not path.exists():
                missing.append(name)
                parts.append(f"*(missing: {name} — benchmark not yet run)*\n")
                continue
            parts.append("```")
            parts.append(path.read_text().rstrip())
            parts.append("```\n")
    out = ROOT / "EXPERIMENTS.md"
    out.write_text("\n".join(parts))
    print(f"wrote {out}")
    if missing:
        print(f"missing results: {', '.join(missing)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
