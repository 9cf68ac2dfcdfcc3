"""Unified telemetry: tracepoints, metrics, exporters, profiling.

The simulator-side analogue of the kernel introspection the paper's
evaluation relied on (``ss -ti`` dumps, ``tcp_probe``-style probes):

* :mod:`repro.obs.tracepoints` — named probe points that cost one
  attribute check when disabled;
* :mod:`repro.obs.metrics` — counters, gauges, and quantile-sketch
  families with label support;
* :mod:`repro.obs.sketch` — mergeable constant-memory quantile sketches
  (DDSketch-style) and streaming moment stats;
* :mod:`repro.obs.campaign` — the run-lifecycle event bus (JSONL
  campaign log, worker heartbeats);
* :mod:`repro.obs.outcome` — what a run produced: the host-dependent
  fields and the outcome digest every golden hashes;
* :mod:`repro.obs.exporters` — JSONL, Chrome trace-event JSON
  (Perfetto-loadable, TDNs as tracks), and CSV time series;
* :mod:`repro.obs.profiling` — per-callback wall-time attribution for
  ``Simulator.run``;
* :mod:`repro.obs.telemetry` — the facade tying them to one run.

See ``docs/observability.md`` for the tracepoint catalog and the
mapping to the paper's kernel probes.
"""

from repro.obs.campaign import (
    CAMPAIGN_SCHEMA_VERSION,
    CampaignLog,
    campaign_summary,
    read_campaign,
    validate_record,
    validate_records,
)
from repro.obs.exporters import (
    MemoryExporter,
    render_chrome_trace,
    render_jsonl,
    write_csv_series,
)
from repro.obs.metrics import Counter, Gauge, MetricsRegistry, Sketch
from repro.obs.profiling import SimulatorProfiler
from repro.obs.sketch import (
    DEFAULT_ALPHA,
    PERCENTILE_LABELS,
    QuantileSketch,
    StreamStats,
    sketch_from_samples,
)
from repro.obs.telemetry import DISABLED, ObsConfig, Telemetry
from repro.obs.tracepoints import (
    NULL_TRACEPOINT,
    TRACEPOINT_CATALOG,
    Tracepoint,
    TracepointRegistry,
)

__all__ = [
    "CAMPAIGN_SCHEMA_VERSION",
    "CampaignLog",
    "Counter",
    "DEFAULT_ALPHA",
    "DISABLED",
    "Gauge",
    "MemoryExporter",
    "MetricsRegistry",
    "NULL_TRACEPOINT",
    "ObsConfig",
    "PERCENTILE_LABELS",
    "QuantileSketch",
    "SimulatorProfiler",
    "Sketch",
    "StreamStats",
    "TRACEPOINT_CATALOG",
    "Telemetry",
    "Tracepoint",
    "TracepointRegistry",
    "campaign_summary",
    "read_campaign",
    "render_chrome_trace",
    "render_jsonl",
    "sketch_from_samples",
    "validate_record",
    "validate_records",
    "write_csv_series",
]
