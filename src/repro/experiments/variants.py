"""The TCP variants under evaluation (§5.2).

Each :class:`VariantSpec` knows how to prepare the testbed (the
dynamic-buffer controller for retcpdyn, the unoptimized notifier for
tdtcp-unopt) and how to wire one cross-rack flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Type

from repro.core.tdtcp import TDTCPConnection
from repro.mptcp.connection import MPTCPConnection, create_mptcp_pair
from repro.rdcn.topology import TwoRackTestbed
from repro.retcp.dynbuf import DynamicBufferController
from repro.retcp.retcp import ReTCPConnection
from repro.tcp.connection import TCPConnection
from repro.tcp.sockets import create_connection_pair


@dataclass
class VariantSpec:
    """One evaluated TCP variant.

    ``connection_cls`` / ``cc_name`` / :meth:`conn_kwargs` are the one
    description of how the variant opens a connection: ``make_flow``
    (bulk flows) and ``engine_flow_opener`` (the workload engine) both
    read them. ``connection_cls=None`` marks a variant that does not
    open one plain connection per flow (MPTCP's subflow bundles).
    """

    name: str
    description: str
    unoptimized_notifier: bool = False
    connection_cls: Optional[Type[TCPConnection]] = TCPConnection
    cc_name: str = "cubic"

    def listens_to_tdn_changes(self) -> bool:
        """Whether this variant's connections subscribe to TDN-change
        notifications."""
        return self.connection_cls.listens_to_tdn_changes

    def prepare(self, testbed: TwoRackTestbed, exp_config) -> dict:
        """Per-run context (e.g. the retcpdyn controller)."""
        return {}

    def conn_kwargs(self, testbed: TwoRackTestbed, exp_config) -> dict:
        """Constructor arguments beyond the common ones."""
        return {}

    def make_flow(self, testbed: TwoRackTestbed, src, dst, index: int, exp_config, context: dict):
        """Returns (sender_endpoint, receiver_endpoint)."""
        client, server = create_connection_pair(
            testbed.sim,
            src,
            dst,
            cc_name=self.cc_name,
            config=exp_config.tcp,
            connection_cls=self.connection_cls,
            **self.conn_kwargs(testbed, exp_config),
        )
        controller: Optional[DynamicBufferController] = context.get("controller")
        if controller is not None:
            controller.register(client)
            controller.register(server)
        return client, server


class SinglePathVariant(VariantSpec):
    """cubic / dctcp / reno: stock single-path TCP under ``cc_name``."""

    def __init__(self, name: str, cc_name: str, description: str):
        super().__init__(name=name, description=description, cc_name=cc_name)


class MPTCPVariant(VariantSpec):
    """mptcp2f: two subflows pinned to packet/optical with tdm_schd."""

    def __init__(self):
        super().__init__(
            name="mptcp",
            description="MPTCP, 2 subflows pinned per network, tdm_schd scheduler",
            connection_cls=None,
        )

    def listens_to_tdn_changes(self) -> bool:
        return MPTCPConnection.listens_to_tdn_changes

    def make_flow(self, testbed, src, dst, index, exp_config, context):
        return create_mptcp_pair(
            testbed.sim,
            src,
            dst,
            cc_name=self.cc_name,
            config=exp_config.tcp,
            n_subflows=min(2, testbed.config.n_tdns),
        )


class ReTCPVariant(VariantSpec):
    """retcp / retcpdyn."""

    def __init__(self, name: str, dynamic_buffers: bool):
        self.dynamic_buffers = dynamic_buffers
        description = (
            "reTCP with dynamic VOQ resizing and advance ramp notification"
            if dynamic_buffers
            else "reTCP reacting to in-band circuit marks only"
        )
        super().__init__(name=name, description=description, connection_cls=ReTCPConnection)

    def prepare(self, testbed, exp_config) -> dict:
        if not self.dynamic_buffers:
            return {}
        controller = DynamicBufferController(
            testbed.sim,
            testbed.driver,
            list(testbed.uplinks.values()),
            normal_capacity=testbed.config.voq_capacity,
        )
        return {"controller": controller}

    def conn_kwargs(self, testbed, exp_config) -> dict:
        return {"alpha": exp_config.retcp_alpha}


class TDTCPVariant(VariantSpec):
    """tdtcp / tdtcp-unopt (unoptimized TDN change notification)."""

    def __init__(self, name: str = "tdtcp", unoptimized_notifier: bool = False):
        description = "TDTCP (per-TDN congestion state, CUBIC per TDN)"
        if unoptimized_notifier:
            description += ", unoptimized notification path"
        super().__init__(
            name=name,
            description=description,
            unoptimized_notifier=unoptimized_notifier,
            connection_cls=TDTCPConnection,
        )

    def conn_kwargs(self, testbed, exp_config) -> dict:
        return {"tdn_count": testbed.config.n_tdns}


VARIANTS: Dict[str, VariantSpec] = {
    spec.name: spec
    for spec in (
        SinglePathVariant("cubic", "cubic", "single-path TCP CUBIC"),
        SinglePathVariant("dctcp", "dctcp", "DCTCP (ECN-based)"),
        SinglePathVariant("reno", "reno", "single-path TCP NewReno"),
        MPTCPVariant(),
        ReTCPVariant("retcp", dynamic_buffers=False),
        ReTCPVariant("retcpdyn", dynamic_buffers=True),
        TDTCPVariant("tdtcp"),
        TDTCPVariant("tdtcp-unopt", unoptimized_notifier=True),
    )
}


def get_variant(name: str) -> VariantSpec:
    try:
        return VARIANTS[name]
    except KeyError:
        raise KeyError(f"unknown variant {name!r}; known: {sorted(VARIANTS)}") from None


def engine_variants() -> Tuple[str, ...]:
    """Variants the workload engine can drive: every registered spec
    that opens one plain connection per flow. MPTCP's subflow bundles
    don't fit the engine's open/write/close churn discipline."""
    return tuple(
        name for name, spec in VARIANTS.items() if spec.connection_cls is not None
    )


def engine_flow_opener(name: str, testbed: TwoRackTestbed, exp_config):
    """How the workload engine opens one short flow under ``name``:
    returns ``(connection_cls, cc_name, conn_kwargs)``.

    retcpdyn keeps its VOQ-resizing controller (``prepare`` still runs)
    but short flows are not registered for the advance cwnd ramp — they
    rarely outlive a single day, so the ramp has nothing to act on.
    """
    spec = get_variant(name)
    if spec.connection_cls is None:
        raise ValueError(
            f"variant {name!r} is not supported by the workload engine; "
            f"supported: {engine_variants()}"
        )
    return spec.connection_cls, spec.cc_name, spec.conn_kwargs(testbed, exp_config)
