"""Fault injectors: execute a :class:`repro.faults.plan.FaultPlan`
against a built testbed.

One :class:`FaultInjector` owns every armed fault. Injection points:

* **net** — a :class:`_CarrierPerturbation` wraps the ``deliver``
  callable of each matched carrier (host access :class:`~repro.net.link.Link`
  or cross-rack :class:`~repro.rdcn.fabric.RackUplink`) with Bernoulli
  loss, Gilbert–Elliott burst loss, and delay jitter; link flaps drive
  the Link's native ``down`` gate (in-flight packets die on the wire);
  queue squeezes use :meth:`~repro.net.queues.DropTailQueue.squeeze`.
* **rdcn** — the notifier's ``fault_hook`` drops/delays/duplicates TDN
  notifications (producing the stale and out-of-order arrivals the
  degradation layer must absorb); ``schedule_skew`` installs the
  schedule driver's ``boundary_jitter``; ``rotor_stall`` gates uplinks
  through an :class:`_UplinkGate` that replays the last requested TDN
  on release.
* **host** — ``app_pause`` buffers every packet arriving at a host and
  releases the backlog in order on resume; ``rcv_buffer_pressure``
  scales the advertised receive window of the host's connections.

Every stochastic draw comes from a child stream forked per spec (and
per carrier for net faults), so the workload's own random streams are
untouched and a plan replays byte-identically under the same seed.
Every injected effect is counted and emitted through the
``fault:inject`` tracepoint.
"""

from __future__ import annotations

import fnmatch
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs.telemetry import Telemetry
from repro.sim.rng import SeededRandom
from repro.sim.simulator import Simulator


class _CarrierPerturbation:
    """Wraps one carrier's ``deliver`` with the net-fault rule chain."""

    def __init__(self, sim: Simulator, carrier: Any, name: str, injector: "FaultInjector"):
        self.sim = sim
        self.name = name
        self.injector = injector
        self.down = 0  # refcount: overlapping flap windows nest
        # (spec, stream, mutable state) evaluated in plan order.
        self.rules: List[Tuple[FaultSpec, SeededRandom, dict]] = []
        self._original = carrier.deliver
        carrier.deliver = self._deliver

    def add_rule(self, spec: FaultSpec, stream: SeededRandom) -> None:
        self.rules.append((spec, stream, {"bad": False}))

    def _deliver(self, pkt: Any) -> None:
        now = self.sim.now
        if self.down:
            pkt.dropped = True
            self.injector.record("link_flap", self.name, "drop")
            return
        extra_delay = 0
        for spec, stream, state in self.rules:
            if now < spec.at_ns or (spec.until_ns is not None and now >= spec.until_ns):
                continue
            kind = spec.kind
            if kind == "packet_loss":
                if stream.chance(spec.param("rate", 0.0)):
                    pkt.dropped = True
                    self.injector.record(kind, self.name, "drop")
                    return
            elif kind == "burst_loss":
                # Advance the Gilbert-Elliott chain one step per packet.
                if state["bad"]:
                    if stream.chance(spec.param("p_exit", 0.2)):
                        state["bad"] = False
                elif stream.chance(spec.param("p_enter", 0.05)):
                    state["bad"] = True
                loss = (
                    spec.param("loss_bad", 1.0)
                    if state["bad"]
                    else spec.param("loss_good", 0.0)
                )
                if loss > 0.0 and stream.chance(loss):
                    pkt.dropped = True
                    self.injector.record(kind, self.name, "drop")
                    return
            elif kind == "delay_jitter":
                rate = spec.param("rate", 1.0)
                if rate >= 1.0 or stream.chance(rate):
                    jitter = stream.jitter_ns(int(spec.param("max_jitter_ns", 50_000)))
                    if jitter > 0:
                        extra_delay += jitter
                        self.injector.record(kind, self.name, "delay")
        if extra_delay > 0:
            self.sim.schedule(extra_delay, self._original, pkt)
        else:
            self._original(pkt)


class _UplinkGate:
    """Interposes on ``RackUplink.set_active`` so a rotor stall wins
    over schedule-driven activations, then replays the last request."""

    def __init__(self, uplink: Any):
        self.uplink = uplink
        self.stalls = 0
        self.requested: Optional[int] = uplink.active_tdn
        self._real_set_active = uplink.set_active
        uplink.set_active = self._set_active

    def _set_active(self, tdn_id: Optional[int]) -> None:
        self.requested = tdn_id
        if self.stalls == 0:
            self._real_set_active(tdn_id)

    def stall(self) -> None:
        self.stalls += 1
        if self.stalls == 1:
            self._real_set_active(None)

    def release(self) -> None:
        if self.stalls == 0:
            return
        self.stalls -= 1
        if self.stalls == 0:
            self._real_set_active(self.requested)


class _HostGate:
    """Pause/resume a host: while paused every arriving packet is held;
    resume releases the backlog in arrival order (the §5.4 'unlucky
    flows' burst, taken to its extreme)."""

    def __init__(self, host: Any):
        self.host = host
        self.paused = 0
        self._held: List[Any] = []
        self._real_deliver = host.deliver
        host.deliver = self._deliver

    def _deliver(self, pkt: Any) -> None:
        if self.paused:
            self._held.append(pkt)
        else:
            self._real_deliver(pkt)

    def pause(self) -> None:
        self.paused += 1

    def resume(self) -> None:
        if self.paused == 0:
            return
        self.paused -= 1
        if self.paused == 0 and self._held:
            backlog, self._held = self._held, []
            for pkt in backlog:
                self._real_deliver(pkt)


class FaultInjector:
    """Arms a :class:`FaultPlan` on a testbed and executes it.

    ``rng`` is the experiment's **root** seed wrapper; the injector
    forks its own ``faults`` stream from it (fork derives child seeds
    arithmetically, so the workload's streams never see a different
    sequence because faults are enabled).
    """

    def __init__(self, sim: Simulator, plan: FaultPlan, rng: SeededRandom):
        self.sim = sim
        self.plan = plan
        self._root = rng.fork("faults")
        self.effects: Dict[str, int] = {}
        self.unmatched: List[str] = []
        self._tp = Telemetry.of(sim).tracepoint("fault:inject")
        self._perturbations: Dict[str, _CarrierPerturbation] = {}
        self._uplink_gates: Dict[str, _UplinkGate] = {}
        self._host_gates: Dict[str, _HostGate] = {}
        self._notifier_rules: List[Tuple[FaultSpec, SeededRandom]] = []
        self._schedule_rules: List[Tuple[FaultSpec, SeededRandom]] = []
        self._armed = False

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm_testbed(self, testbed: Any) -> "FaultInjector":
        """Discover a two-rack or rotor testbed's components and arm every
        spec (the rotor fabric has no ``RackUplink``: a ``rotor_stall``
        there lands in ``unmatched``). Call before ``testbed.start()``."""
        links: Dict[str, Any] = {}
        hosts: Dict[str, Any] = {}
        for rack_hosts in testbed.hosts.values():
            for host in rack_hosts:
                hosts[host.address] = host
                if host.egress is not None:
                    links[host.egress.name] = host.egress
        for tor in testbed.tors.values():
            for link in tor._downlinks.values():
                links[link.name] = link
        uplinks = {uplink.name: uplink for uplink in getattr(testbed, "uplinks", {}).values()}
        queues = {q.name: q for tor in testbed.tors.values() for q in tor.voqs.values()}
        return self.arm(
            links=links,
            uplinks=uplinks,
            queues=queues,
            hosts=hosts,
            notifier=testbed.notifier,
            driver=testbed.driver,
        )

    def arm(
        self,
        links: Optional[Dict[str, Any]] = None,
        uplinks: Optional[Dict[str, Any]] = None,
        queues: Optional[Dict[str, Any]] = None,
        hosts: Optional[Dict[str, Any]] = None,
        notifier: Any = None,
        driver: Any = None,
    ) -> "FaultInjector":
        """Arm every spec of the plan against the given components."""
        if self._armed:
            raise RuntimeError("fault injector already armed")
        self._armed = True
        links = links or {}
        uplinks = uplinks or {}
        queues = queues or {}
        hosts = hosts or {}
        carriers = {**links, **uplinks}
        for index, spec in enumerate(self.plan):
            kind = spec.kind
            if kind in ("packet_loss", "burst_loss", "delay_jitter"):
                matched = self._match(spec, carriers)
                for name in matched:
                    stream = self._root.fork(f"{index}:{kind}:{name}")
                    self._perturbation(carriers[name], name).add_rule(spec, stream)
            elif kind == "link_flap":
                matched = self._match(spec, carriers)
                targets = [(name, carriers[name]) for name in matched]
                if targets:
                    default_down = (
                        (spec.until_ns - spec.at_ns) if spec.until_ns is not None else 100_000
                    )
                    self._schedule_windows(
                        spec, self._flap_down, self._flap_up, targets,
                        window_ns=int(spec.param("down_ns", default_down)),
                    )
            elif kind == "queue_squeeze":
                matched = self._match(spec, queues)
                targets = [(name, queues[name]) for name in matched]
                if targets:
                    self._schedule_windows(spec, self._squeeze, self._unsqueeze, targets)
            elif kind == "rotor_stall":
                matched = self._match(spec, uplinks)
                targets = [(name, self._uplink_gate(uplinks[name], name)) for name in matched]
                if targets:
                    self._schedule_windows(spec, self._stall, self._release, targets)
            elif kind == "app_pause":
                matched = self._match(spec, hosts)
                targets = [(name, self._host_gate(hosts[name], name)) for name in matched]
                if targets:
                    self._schedule_windows(spec, self._pause, self._resume, targets)
                    # The gate is the host's ingress: the notifier must
                    # send real packets through it, which an armed hook
                    # (answering [0] with no notifier rule) makes it do.
                    if notifier is not None and notifier.fault_hook is None:
                        notifier.fault_hook = self._notifier_hook
            elif kind == "rcv_buffer_pressure":
                matched = self._match(spec, hosts)
                targets = [(name, hosts[name]) for name in matched]
                if targets:
                    saved: Dict[int, Tuple[Any, int]] = {}
                    self._schedule_windows(
                        spec,
                        lambda s, t, _saved=saved: self._apply_pressure(s, t, _saved),
                        lambda s, t, _saved=saved: self._relieve_pressure(s, t, _saved),
                        targets,
                    )
            elif kind in ("notifier_drop", "notifier_delay", "notifier_duplicate"):
                if notifier is None:
                    self.unmatched.append(f"{kind}: no notifier to arm")
                    continue
                self._notifier_rules.append((spec, self._root.fork(f"{index}:{kind}")))
                if notifier.fault_hook is None:
                    notifier.fault_hook = self._notifier_hook
            elif kind == "schedule_skew":
                if driver is None:
                    self.unmatched.append(f"{kind}: no schedule driver to arm")
                    continue
                self._schedule_rules.append((spec, self._root.fork(f"{index}:{kind}")))
                if driver.boundary_jitter is None:
                    driver.boundary_jitter = self._boundary_jitter
        return self

    def _match(self, spec: FaultSpec, components: Dict[str, Any]) -> List[str]:
        matched = [
            name for name in sorted(components) if fnmatch.fnmatch(name, spec.target)
        ]
        if not matched:
            self.unmatched.append(f"{spec.kind}: target {spec.target!r} matched nothing")
        return matched

    def _perturbation(self, carrier: Any, name: str) -> _CarrierPerturbation:
        perturbation = self._perturbations.get(name)
        if perturbation is None:
            perturbation = _CarrierPerturbation(self.sim, carrier, name, self)
            self._perturbations[name] = perturbation
        return perturbation

    def _uplink_gate(self, uplink: Any, name: str) -> _UplinkGate:
        gate = self._uplink_gates.get(name)
        if gate is None:
            gate = _UplinkGate(uplink)
            self._uplink_gates[name] = gate
        return gate

    def _host_gate(self, host: Any, name: str) -> _HostGate:
        gate = self._host_gates.get(name)
        if gate is None:
            gate = _HostGate(host)
            self._host_gates[name] = gate
        return gate

    def _schedule_windows(
        self, spec: FaultSpec, enter, leave, targets, window_ns: Optional[int] = None
    ) -> None:
        """Lay out the (possibly periodic) enter/leave event pairs of a
        point fault. The window defaults to ``until_ns - at_ns``; with
        no ``until_ns`` the fault enters and never leaves."""
        if window_ns is None and spec.until_ns is not None:
            window_ns = spec.until_ns - spec.at_ns
        for repetition in range(spec.count):
            start = spec.at_ns + repetition * (spec.period_ns or 0)
            for name, target in targets:
                self.sim.at(start, enter, spec, (name, target))
                if window_ns is not None:
                    self.sim.at(start + window_ns, leave, spec, (name, target))

    # ------------------------------------------------------------------
    # Point-fault callbacks (all called by simulator events)
    # ------------------------------------------------------------------
    def _flap_down(self, spec: FaultSpec, target) -> None:
        name, carrier = target
        if hasattr(carrier, "down"):
            carrier.down = True
        else:
            self._perturbation(carrier, name).down += 1
        self.record("link_flap", name, "down")

    def _flap_up(self, spec: FaultSpec, target) -> None:
        name, carrier = target
        if hasattr(carrier, "down"):
            carrier.down = False
        else:
            perturbation = self._perturbations.get(name)
            if perturbation is not None and perturbation.down > 0:
                perturbation.down -= 1
        self.record("link_flap", name, "up")

    def _squeeze(self, spec: FaultSpec, target) -> None:
        name, queue = target
        queue.squeeze(max(int(spec.param("capacity", 1)), 1))
        self.record("queue_squeeze", name, "squeeze")

    def _unsqueeze(self, spec: FaultSpec, target) -> None:
        name, queue = target
        queue.unsqueeze()
        self.record("queue_squeeze", name, "restore")

    def _stall(self, spec: FaultSpec, target) -> None:
        name, gate = target
        gate.stall()
        self.record("rotor_stall", name, "stall")

    def _release(self, spec: FaultSpec, target) -> None:
        name, gate = target
        gate.release()
        self.record("rotor_stall", name, "release")

    def _pause(self, spec: FaultSpec, target) -> None:
        name, gate = target
        gate.pause()
        self.record("app_pause", name, "pause")

    def _resume(self, spec: FaultSpec, target) -> None:
        name, gate = target
        gate.resume()
        self.record("app_pause", name, "resume")

    def _apply_pressure(self, spec: FaultSpec, target, saved: Dict[int, Tuple[Any, int]]) -> None:
        name, host = target
        factor = spec.param("factor", 0.1)
        for handler in host._connections.values():
            rwnd = getattr(handler, "_rwnd_bytes", None)
            if rwnd is None or id(handler) in saved:
                continue
            saved[id(handler)] = (handler, rwnd)
            mss = getattr(getattr(handler, "config", None), "mss", 1)
            handler._rwnd_bytes = max(int(rwnd * factor), mss)
        self.record("rcv_buffer_pressure", name, "apply")

    def _relieve_pressure(self, spec: FaultSpec, target, saved: Dict[int, Tuple[Any, int]]) -> None:
        name, _host = target
        for handler, rwnd in saved.values():
            handler._rwnd_bytes = rwnd
        saved.clear()
        self.record("rcv_buffer_pressure", name, "relieve")

    # ------------------------------------------------------------------
    # Notifier / schedule hooks
    # ------------------------------------------------------------------
    def _notifier_hook(self, host: Any, notification: Any) -> List[int]:
        """Per-delivery fault decision: returns the extra-delay list
        ([] = drop, [0] = on time, more entries = duplicates)."""
        now = self.sim.now
        deliveries = [0]
        for spec, stream in self._notifier_rules:
            if not spec.active_at(now):
                continue
            if not fnmatch.fnmatch(host.address, spec.target):
                continue
            kind = spec.kind
            if kind == "notifier_drop":
                if stream.chance(spec.param("rate", 0.0)):
                    self.record(kind, host.address, "drop")
                    return []
            elif kind == "notifier_delay":
                if stream.chance(spec.param("rate", 1.0)):
                    jitter = stream.jitter_ns(int(spec.param("max_delay_ns", 100_000)))
                    if jitter > 0:
                        deliveries[0] += jitter
                        self.record(kind, host.address, "delay")
            elif kind == "notifier_duplicate":
                if stream.chance(spec.param("rate", 0.0)):
                    deliveries.append(
                        deliveries[0] + int(spec.param("dup_delay_ns", 50_000))
                    )
                    self.record(kind, host.address, "duplicate")
        return deliveries

    def _boundary_jitter(self, phase: str, global_index: int, nominal_ns: int) -> int:
        """Schedule-driver hook: extra delay for one day/night boundary."""
        skew = 0
        for spec, stream in self._schedule_rules:
            if not spec.active_at(nominal_ns):
                continue
            draw = stream.jitter_ns(int(spec.param("max_skew_ns", 20_000)))
            if draw > 0:
                skew += draw
                self.record("schedule_skew", phase, f"day{global_index}")
        return skew

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def record(self, kind: str, target: str, detail: str) -> None:
        self.effects[kind] = self.effects.get(kind, 0) + 1
        if self._tp.enabled:
            self._tp.emit(self.sim.now, kind=kind, target=target, detail=detail)

    @property
    def total_effects(self) -> int:
        return sum(self.effects.values())

    def report(self) -> dict:
        """JSON-ready summary for experiment results and repro bundles."""
        return {
            "plan": self.plan.name,
            "specs": len(self.plan),
            "effects": dict(sorted(self.effects.items())),
            "total_effects": self.total_effects,
            "unmatched": list(self.unmatched),
        }
