"""Experiment workload: N parallel long-lived cross-rack flows (§5.1).

Host *i* in rack 0 sends bulk data to host *i* in rack 1; all flows
start together (with an optional tiny jitter so event ordering is not
pathological) and run for the whole experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.apps.bulk import BulkReceiver, BulkSender
from repro.rdcn.topology import TwoRackTestbed

# A flow factory returns (sender_endpoint, receiver_endpoint) wired
# between the two hosts; endpoints must expose the bulk/delivery API.
FlowFactory = Callable[[TwoRackTestbed, object, object, int], Tuple[object, object]]


@dataclass
class Flow:
    """One cross-rack flow and its application endpoints."""

    index: int
    sender: object
    receiver: object
    app_sender: BulkSender
    app_receiver: BulkReceiver

    @property
    def delivered_bytes(self) -> int:
        return self.app_receiver.delivered_bytes


@dataclass
class Workload:
    """All flows of one experiment run."""

    flows: List[Flow] = field(default_factory=list)


def build_workload(
    testbed: TwoRackTestbed,
    flow_factory: FlowFactory,
    n_flows: Optional[int] = None,
) -> Workload:
    """Create ``n_flows`` flows, host i (rack 0) -> host i (rack 1).

    All flows start at the same time, as in §5.1 ("all flows are
    configured to start at the same time").
    """
    n_flows = n_flows if n_flows is not None else testbed.config.n_hosts_per_rack
    if n_flows > testbed.config.n_hosts_per_rack:
        raise ValueError(
            f"{n_flows} flows need {n_flows} hosts per rack, "
            f"only {testbed.config.n_hosts_per_rack} configured"
        )
    workload = Workload()
    for index in range(n_flows):
        src = testbed.host(0, index)
        dst = testbed.host(1, index)
        sender, receiver = flow_factory(testbed, src, dst, index)
        app_receiver = BulkReceiver(receiver)
        app_sender = BulkSender(sender)
        workload.flows.append(Flow(index, sender, receiver, app_sender, app_receiver))
    return workload
