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

A package imports none of its submodules up front: each name it
exports loads its defining module on first access
(:func:`lazy_exports`), so a run loads only the subsystems it uses.
"""

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple

__version__ = "1.0.0"


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for a package whose public
    names live in its submodules (PEP 562). ``exports`` maps each
    submodule, relative to ``package``, to the names it defines.

    The first access to a name imports its submodule and stores the
    value in the package's namespace, so later reads are plain
    attribute lookups. An unknown name raises :class:`AttributeError`,
    which lets ``from package import submodule`` fall through to the
    import system."""
    where = {name: f"{package}.{module}" for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(where[name]), name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    return list(where), __getattr__, __dir__


__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "sim": ("Simulator",),
    "rdcn": ("RDCNConfig", "build_two_rack_testbed"),
    "tcp": ("TCPConfig", "TCPConnection"),
})
__all__.append("__version__")
