"""TDTCP reproduction: Time-division TCP for reconfigurable DCNs.

Public API roadmap:

* :mod:`repro.sim` — discrete-event simulator core.
* :mod:`repro.net` — packets, links, queues, hosts, switches.
* :mod:`repro.rdcn` — schedules, the time-multiplexed fabric, the
  two-rack testbed builder, TDN-change notifications.
* :mod:`repro.tcp` — the single-path TCP stack (CUBIC/DCTCP/Reno).
* :mod:`repro.core` — TDTCP itself (the paper's contribution).
* :mod:`repro.mptcp` — MPTCP with the tdm scheduler.
* :mod:`repro.retcp` — reTCP and the dynamic-buffer controller.
* :mod:`repro.apps` — bulk-transfer workloads.
* :mod:`repro.obs` — telemetry, metrics and quantile sketches.
* :mod:`repro.experiments` — runs, their week-folded series, and the
  per-figure experiment definitions.
"""

__version__ = "1.0.0"

from repro.sim import Simulator
from repro.rdcn import RDCNConfig, build_two_rack_testbed
from repro.tcp import TCPConfig, TCPConnection

__all__ = [
    "Simulator",
    "RDCNConfig",
    "build_two_rack_testbed",
    "TCPConfig",
    "TCPConnection",
    "__version__",
]
