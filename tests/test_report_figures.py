"""Figure definitions and text reports at smoke scale."""

import hashlib
import pathlib

import pytest

from repro.experiments.figures import (
    Figure,
    bw_only_rdcn,
    fig2,
    fig11,
    latency_only_rdcn,
)
from repro.experiments.report import (
    figure_to_csv,
    headline_claims,
    render_cdf_summary,
    render_headline_claims,
    render_seq_graph,
    render_throughput_summary,
    render_voq_graph,
)

SMALL = dict(weeks=6, warmup_weeks=2, n_flows=2)


@pytest.fixture(scope="module")
def fig2_small():
    return fig2(**SMALL)


class TestFigureDefinitions:
    def test_fig2_contents(self, fig2_small):
        data = fig2_small
        assert set(data.seq_curves) == {"cubic", "mptcp"}
        assert data.optimal is not None
        assert data.packet_only is not None
        assert data.throughputs_gbps["cubic"] > 0

    def test_curves_are_tiled_weeks(self, fig2_small):
        times, values = fig2_small.seq_curves["cubic"]
        assert times[-1] >= 2 * fig2_small.rdcn.week_ns
        assert values[-1] >= values[0]

    def test_bw_only_rdcn_equalizes_latency(self):
        rdcn = bw_only_rdcn()
        assert rdcn.optical_one_way_ns == rdcn.packet_one_way_ns
        assert rdcn.optical_rate_bps != rdcn.packet_rate_bps

    def test_latency_only_rdcn_equalizes_rate(self):
        rdcn = latency_only_rdcn(100.0)
        assert rdcn.optical_rate_bps == rdcn.packet_rate_bps
        assert rdcn.optical_one_way_ns != rdcn.packet_one_way_ns

    def test_fig11_variants(self):
        data = fig11(**SMALL)
        assert set(data.throughputs_gbps) == {"tdtcp", "tdtcp-unopt"}

    def test_run_figure_custom(self):
        data = Figure("custom", bw_only_rdcn(), ("cubic",))(weeks=6, warmup_weeks=2, n_flows=2)
        assert data.name == "custom"
        assert list(data.seq_curves) == ["cubic"]


class TestReports:
    def test_seq_graph_renders(self, fig2_small):
        text = render_seq_graph(fig2_small)
        assert "optimal" in text
        assert "packet-only" in text
        assert "cubic" in text
        # A numeric table with one row per sample.
        assert len(text.splitlines()) > 10

    def test_voq_graph_renders(self, fig2_small):
        text = render_voq_graph(fig2_small)
        assert "jumbo" in text

    def test_throughput_summary(self, fig2_small):
        text = render_throughput_summary(fig2_small)
        assert "Gbps" in text
        assert "optimal" in text

    def test_headline_claims(self, fig2_small):
        claims = headline_claims(fig2_small)
        assert "tdtcp_vs_cubic_pct" not in claims  # tdtcp not in fig2
        text = render_headline_claims(fig2_small)
        assert "headline" in text

    def test_cdf_summary(self):
        text = render_cdf_summary("x", {"cubic": [0, 1, 2, 3], "tdtcp": [0, 0, 0, 1]})
        assert "p50" in text and "zero-days" in text
        assert "cubic" in text and "tdtcp" in text

    def test_cdf_summary_empty(self):
        text = render_cdf_summary("x", {"cubic": []})
        assert "cubic" in text  # no crash on empty

    def test_csv_export(self, fig2_small, tmp_path):
        written = figure_to_csv(fig2_small, tmp_path)
        assert any("seq" in path for path in written)
        assert any("throughput" in path for path in written)
        for path in written:
            content = open(path).read()
            assert content.strip()

    def test_csv_curves_are_the_golden(self, fig2_small, tmp_path):
        """Every plotted number of a small fig 2 — the tiled sequence
        and VOQ weeks, the reference lines, the throughputs — pinned
        byte for byte."""
        digest = hashlib.sha256()
        for path in sorted(figure_to_csv(fig2_small, tmp_path)):
            digest.update(pathlib.Path(path).read_bytes())
        assert digest.hexdigest() == (
            "fbe3a490a0922af30f09c3dff85fb4c2407e8435c8cf1e16166e2a0987c6ee1b"
        )
