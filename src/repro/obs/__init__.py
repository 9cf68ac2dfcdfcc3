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

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "campaign": (
        "CAMPAIGN_SCHEMA_VERSION",
        "CampaignLog",
        "campaign_summary",
        "read_campaign",
        "validate_record",
        "validate_records",
    ),
    "exporters": (
        "MemoryExporter",
        "render_chrome_trace",
        "render_jsonl",
        "write_csv_series",
    ),
    "metrics": ("Counter", "Gauge", "MetricsRegistry", "Sketch"),
    "profiling": ("SimulatorProfiler",),
    "sketch": (
        "DEFAULT_ALPHA",
        "PERCENTILE_LABELS",
        "QuantileSketch",
        "StreamStats",
        "sketch_from_samples",
    ),
    "telemetry": ("DISABLED", "ObsConfig", "Telemetry"),
    "tracepoints": (
        "NULL_TRACEPOINT",
        "TRACEPOINT_CATALOG",
        "Tracepoint",
        "TracepointRegistry",
    ),
})
