"""The ``tdm_schd`` packet scheduler (§2.2).

The paper extends MPTCP with a scheduler that steers packets between
two subflows according to the RDCN schedule: when the packet network is
active, everything goes to subflow 0 (pinned to the packet network),
and vice versa. Nights allow the subflow of the *previous* day to keep
transmitting into the VOQ (the host does not know the fabric is
reconfiguring — it only sees day-start notifications).
"""

from __future__ import annotations


class TdmScheduler:
    """Maps the currently active TDN to the one subflow allowed to send."""

    def __init__(self, n_subflows: int = 2):
        if n_subflows < 1:
            raise ValueError("need at least one subflow")
        self.n_subflows = n_subflows
        self.active_tdn: int = 0

    def set_active_tdn(self, tdn_id: int) -> None:
        self.active_tdn = tdn_id

    def allows(self, subflow_index: int) -> bool:
        """May this subflow transmit right now?"""
        if self.n_subflows == 1:
            return True
        return subflow_index == self.active_tdn
