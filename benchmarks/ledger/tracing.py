"""Benchmark-owned tracing: a span stack over the layer boundaries.

Nothing here lives in the product. The traced pass installs

* one object on the public duck-typed ``Simulator.profiler`` hook, which
  attributes every fired event to the layer of its callback (a timer
  event to the layer of the timer's callback, not to ``sim.timers``);
* class-level wrappers on the synchronous layer entries
  (:data:`WRAP_TARGETS`), installed by :meth:`Tracer.install` and taken
  off again by :meth:`Tracer.remove`.

Every wrapper pushes a frame on one span stack, so a span's **self
time** is its duration minus the part its child spans cover, and the
self times of all spans add up to the traced wall exactly. Hot spans
are aggregated per (span name, parent layer) as count + inclusive +
self; phase-level spans are kept one by one with id, name, start, end
and parent id.
"""

from __future__ import annotations

import importlib
import os
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

HARNESS = "harness"

# Module prefix -> layer, first match wins (most specific first).
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.fastpath", "sim.fastpath"),
    ("repro.sim", "sim"),
    ("repro.tcp", "tcp"),
    ("repro.core", "core.tdtcp"),
    ("repro.mptcp", "mptcp"),
    ("repro.retcp", "retcp"),
    ("repro.net", "net"),
    ("repro.rdcn.opera", "rdcn.opera"),
    ("repro.rdcn.rotor", "rdcn.opera"),
    ("repro.rdcn", "rdcn"),
    ("repro.apps", "apps.engine"),
    ("repro.obs.sketch", "obs.sketch"),
    ("repro.obs.campaign", "obs.campaign"),
    ("repro.obs", "obs"),
    ("repro.metrics", "obs"),
    ("repro.faults", "faults"),
    ("repro.experiments.runner", "experiments.runner"),
    ("repro.experiments.executor", "experiments.executor"),
    ("repro.experiments.checkpoint", "experiments.checkpoint"),
    ("repro.experiments", "experiments.figures"),
)

# (module, class or None for a module-level function, attribute, layer,
# hot). Hot spans fire per packet/flow/record and are only aggregated;
# the others are phase-level and kept individually as well.
WRAP_TARGETS: Tuple[Tuple[str, Optional[str], str, str, bool], ...] = (
    ("repro.sim.simulator", "Simulator", "run", "sim", False),
    ("repro.experiments.runner", None, "run_experiment", "experiments.runner", False),
    ("repro.experiments.executor", None, "run_experiment", "experiments.runner", False),
    ("repro.experiments.executor", "ExperimentExecutor", "run_batch", "experiments.executor", False),
    ("repro.experiments.executor", "ResultCache", "get", "experiments.cache", True),
    ("repro.experiments.executor", "ResultCache", "put", "experiments.cache", True),
    ("repro.experiments.checkpoint", "CampaignCheckpoint", "save", "experiments.checkpoint", True),
    ("repro.experiments.runner", "ExperimentResult", "to_dict", "experiments.transport", True),
    ("repro.experiments.runner", "ExperimentResult", "from_dict", "experiments.transport", True),
    ("repro.obs.campaign", "CampaignLog", "emit", "obs.campaign", True),
    ("repro.obs.sketch", "QuantileSketch", "add", "obs.sketch", True),
    ("repro.apps.engine", "CompletionStats", "on_complete", "apps.engine", True),
    ("repro.tcp.connection", "TCPConnection", "receive", "tcp", True),
    ("repro.tcp.connection", "TCPConnection", "_handle_ack", "tcp", True),
    ("repro.core.tdtcp", "TDTCPConnection", "set_current_tdn", "core.tdtcp", True),
    ("repro.mptcp.connection", "MPTCPConnection", "pump", "mptcp", True),
    ("repro.retcp.retcp", "ReTCPConnection", "ramp_up", "retcp", True),
    ("repro.retcp.retcp", "ReTCPConnection", "ramp_down", "retcp", True),
    ("repro.net.node", "Host", "send", "net", True),
    ("repro.net.node", "Host", "deliver", "net", True),
    ("repro.net.switch", "ToRSwitch", "forward", "net", True),
    ("repro.rdcn.fabric", "RackUplink", "enqueue", "rdcn", True),
    ("repro.rdcn.opera", "OperaToR", "forward", "rdcn.opera", True),
    ("repro.rdcn.opera", "OperaToR", "receive_from_fabric", "rdcn.opera", True),
    # Not a layer entry: it hands the traced pass the testbed whose
    # public counters (link/uplink tx, queue drops) are read afterwards.
    ("repro.rdcn.topology", "TwoRackTestbed", "start", "rdcn", False),
)


def layer_of_module(module: Optional[str]) -> str:
    if module:
        for prefix, layer in LAYER_PREFIXES:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return HARNESS


class Tracer:
    """Span stack + aggregates + the ``Simulator.profiler`` hook."""

    def __init__(self) -> None:
        # The root frame is the harness itself; its self time is the
        # unattributed remainder.
        self._root = [HARNESS, 0.0, 0, 0.0]
        self.stack: List[list] = [self._root]
        # (span name, parent layer) -> [layer, count, inclusive_s, self_s]
        self.spans: Dict[Tuple[str, str], list] = {}
        # callback function -> [layer, qualname, count, self_s]
        self.events: Dict[Any, list] = {}
        self.phases: List[dict] = []
        self.timer_events = 0
        self.event_core: Dict[str, float] = {}
        self.checkpoint_bytes = 0
        self.testbeds: List[Any] = []
        self.batches: List[list] = []
        self._next_id = 1
        self._installed: List[Tuple[Any, str, Any]] = []
        self._timer_fire: Any = None
        self._started_at = 0.0
        self.wall_s = 0.0

    # ------------------------------------------------------------------
    # Lifetime
    # ------------------------------------------------------------------
    def install(self) -> None:
        from repro.sim.timers import Timer

        self._timer_fire = Timer._fire
        for module_name, class_name, attr, layer, hot in WRAP_TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            original = owner.__dict__[attr]
            name = f"{class_name}.{attr}" if class_name else attr
            if isinstance(original, (classmethod, staticmethod)):
                wrapped: Any = type(original)(
                    self._wrap(original.__func__, name, layer, hot)
                )
            else:
                wrapped = self._wrap(original, name, layer, hot)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, original))
        self._started_at = perf_counter()

    def remove(self) -> None:
        self.wall_s = perf_counter() - self._started_at
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._installed)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _open(self, layer: str, keep: bool) -> Tuple[list, list]:
        parent = self.stack[-1]
        span_id = 0
        if keep:
            span_id = self._next_id
            self._next_id = span_id + 1
        # Frame: [layer, child_s, span_id, child_s at the last event end].
        frame = [layer, 0.0, span_id, 0.0]
        self.stack.append(frame)
        return parent, frame

    def _close(self, name: str, parent: list, frame: list, started: float) -> None:
        elapsed = perf_counter() - started
        self.stack.pop()
        parent[1] += elapsed
        key = (name, parent[0])
        entry = self.spans.get(key)
        if entry is None:
            self.spans[key] = [frame[0], 1, elapsed, elapsed - frame[1]]
        else:
            entry[1] += 1
            entry[2] += elapsed
            entry[3] += elapsed - frame[1]
        if frame[2]:
            start_s = started - self._started_at
            self.phases.append({
                "id": frame[2], "parent": parent[2], "name": name,
                "layer": frame[0], "start_s": start_s, "end_s": start_s + elapsed,
            })

    def _wrap(self, fn: Callable, name: str, layer: str, hot: bool) -> Callable:
        open_span = self._open
        close_span = self._close
        before, after = self._hooks().get(name, (None, None))
        keep = not hot

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args[0])
            parent, frame = open_span(layer, keep)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(name, parent, frame, started)
            if after is not None:
                after(args[0], result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__module__ = getattr(fn, "__module__", None)
        return wrapper

    def _hooks(self) -> Dict[str, Tuple[Optional[Callable], Optional[Callable]]]:
        """What four wrappers do besides timing."""

        def attach_profiler(sim) -> None:
            if sim.profiler is None:
                sim.profiler = self

        def count_checkpoint_bytes(_checkpoint, path) -> None:
            self.checkpoint_bytes += os.path.getsize(path)

        def keep_testbed(testbed, _result) -> None:
            self.testbeds.append(testbed)

        def keep_batch(_executor, results) -> None:
            self.batches.append(list(results))

        return {
            "Simulator.run": (attach_profiler, None),
            "CampaignCheckpoint.save": (None, count_checkpoint_bytes),
            "TwoRackTestbed.start": (None, keep_testbed),
            "ExperimentExecutor.run_batch": (None, keep_batch),
        }

    def span(self, name: str, layer: str):
        """Context manager for a phase-level span opened by the harness
        around one of its own calls into a layer."""
        return _PhaseSpan(self, name, layer)

    # ------------------------------------------------------------------
    # Simulator.profiler hook (duck-typed, see repro.sim.simulator)
    # ------------------------------------------------------------------
    def run_started(self) -> None:
        pass

    def run_finished(self, processed: int) -> None:
        pass

    def record_event_core(self, stats: dict) -> None:
        core = self.event_core
        for key in ("heap_pushes", "pool_hits", "pool_misses"):
            core[key] = core.get(key, 0) + stats.get(key, 0)
        core["max_heap_len"] = max(core.get("max_heap_len", 0), stats.get("max_heap_len", 0))

    def record(self, fn: Callable, wall_s: float) -> None:
        """One fired event. The stack top is the enclosing
        ``Simulator.run`` frame; spans that ran inside the callback have
        already added their time to its child total, so the event's
        self time is its duration minus what they added, and the whole
        event then counts as a child of the run."""
        frame = self.stack[-1]
        func = getattr(fn, "__func__", fn)
        if func is self._timer_fire:
            self.timer_events += 1
            fn = fn.__self__._fn
            func = getattr(fn, "__func__", fn)
        entry = self.events.get(func)
        if entry is None:
            entry = self.events[func] = [
                layer_of_module(getattr(func, "__module__", None)),
                getattr(func, "__qualname__", repr(func)), 0, 0.0,
            ]
        entry[2] += 1
        entry[3] += wall_s - (frame[1] - frame[3])
        frame[1] = frame[3] = frame[3] + wall_s

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def layer_self_s(self) -> Dict[str, float]:
        """Self time per layer; ``harness`` holds the unattributed rest."""
        out: Dict[str, float] = {}
        for layer, _count, _inclusive, self_s in self.spans.values():
            out[layer] = out.get(layer, 0.0) + self_s
        for layer, _name, _count, self_s in self.events.values():
            out[layer] = out.get(layer, 0.0) + self_s
        out[HARNESS] = out.get(HARNESS, 0.0) + self.wall_s - self._root[1]
        return out

    def span_total(self, name: str) -> Tuple[int, float, float]:
        """(count, inclusive_s, self_s) of a span name over all parents."""
        count, inclusive, self_s = 0, 0.0, 0.0
        for (span_name, _parent), entry in self.spans.items():
            if span_name == name:
                count += entry[1]
                inclusive += entry[2]
                self_s += entry[3]
        return count, inclusive, self_s

    def event_count(self, qualname_suffix: str) -> int:
        return sum(e[2] for e in self.events.values() if e[1].endswith(qualname_suffix))

    def total_events(self) -> int:
        return sum(e[2] for e in self.events.values())

    def phases_named(self, name: str) -> List[dict]:
        return [p for p in self.phases if p["name"] == name]

    def to_dict(self) -> dict:
        """Everything recorded, JSON-ready (the ``--out`` span file)."""
        return {
            "wall_s": self.wall_s,
            "layer_self_s": dict(sorted(self.layer_self_s().items())),
            "spans": [
                {"name": name, "parent_layer": parent, "layer": e[0],
                 "count": e[1], "inclusive_s": e[2], "self_s": e[3]}
                for (name, parent), e in sorted(self.spans.items())
            ],
            "events": sorted(
                ({"callback": e[1], "layer": e[0], "count": e[2], "self_s": e[3]}
                 for e in self.events.values()),
                key=lambda row: (-row["self_s"], row["callback"]),
            ),
            "phases": self.phases,
        }


class _PhaseSpan:
    def __init__(self, tracer: Tracer, name: str, layer: str) -> None:
        self._tracer = tracer
        self._name = name
        self._layer = layer

    def __enter__(self) -> "_PhaseSpan":
        self._parent, self._frame = self._tracer._open(self._layer, True)
        self._started = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._tracer._close(self._name, self._parent, self._frame, self._started)


class NullTracer:
    """The untraced pass: ``span`` costs one no-op context manager at
    phase level (a handful per rep), nothing per packet or event."""

    def span(self, name: str, layer: str):
        return _NULL_SPAN


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()
