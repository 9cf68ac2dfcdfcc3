"""A finished flow costs nothing (ISSUE 15).

``TCPConnection.release()`` and the FIN-ACKed → CLOSED transition end
in one hook, ``_quiesce``: every timer cancelled and, for TDTCP, the
connection off its host's TDN listener list with its pace timer
stopped. A TDN change therefore costs O(live flows), and a released
connection can no longer transmit.
"""

import pytest

from tests.helpers import (
    bulk_pair,
    engine_fingerprint,
    run_for,
    run_keeping_testbed,
    tdtcp_engine,
    two_hosts,
    unregistered_sends,
)
from repro.core.tdtcp import TDTCPConnection
from repro.net.node import Host
from repro.net.packet import TDNNotification
from repro.sim.simulator import Simulator
from repro.tcp.connection import CLOSE_WAIT, CLOSED, TCPConnection
from repro.tcp.sockets import create_connection_pair
from repro.units import msec, usec


def timers(conn):
    found = [conn.rto_timer, conn.reorder_timer, conn.tlp_timer, conn.delack_timer]
    if isinstance(conn, TDTCPConnection):
        found.append(conn._pace_timer)
    return found


def notify(host: Host, tdn_id: int) -> None:
    host.deliver(TDNNotification("tor0", host.address, tdn_id=tdn_id))


class TestUnsubscribe:
    def test_removal_during_dispatch_skips_nobody(self):
        host = Host(Simulator(), "r0h0")
        calls = []

        def first(n):
            calls.append("first")
            host.unsubscribe_tdn_changes(first)
            host.unsubscribe_tdn_changes(last)

        def middle(n):
            calls.append("middle")

        def last(n):
            calls.append("last")

        for listener in (first, middle, last):
            host.subscribe_tdn_changes(listener)
        notify(host, 1)
        # The dispatch in progress finishes over the list it started with.
        assert calls == ["first", "middle", "last"]
        notify(host, 0)
        assert calls[3:] == ["middle"]

    def test_unknown_callback_is_a_no_op(self):
        host = Host(Simulator(), "r0h0")
        seen = []
        host.subscribe_tdn_changes(seen.append)
        host.unsubscribe_tdn_changes(lambda n: None)
        notify(host, 1)
        assert len(seen) == 1

    def test_bound_methods_compare_by_instance(self):
        """``conn._on_tdn_notification`` is a fresh bound-method object
        on every attribute read; removal must still find it, and only
        the one of that connection."""
        sim, a, b, _ab, _ba = two_hosts()
        one, _ = create_connection_pair(sim, a, b, connection_cls=TDTCPConnection, connect=False)
        two, _ = create_connection_pair(
            sim, a, b, connection_cls=TDTCPConnection, server_port=5002, connect=False
        )
        one.release()
        assert a._tdn_listeners == [two._on_tdn_notification]


class TestRelease:
    @pytest.mark.parametrize("connection_cls", [TCPConnection, TDTCPConnection])
    def test_release_is_idempotent_and_leaves_nothing_armed(self, connection_cls):
        sim, a, b, _ab, _ba = two_hosts()
        client, server = bulk_pair(sim, a, b, connection_cls=connection_cls)
        run_for(sim, usec(300))
        assert client.rto_timer.armed
        for _ in range(2):
            client.release()
            server.release()
        assert not a._connections and not b._connections
        assert not a._tdn_listeners and not b._tdn_listeners
        assert not any(t.armed for t in timers(client) + timers(server))

    def test_released_connection_holding_retx_pending_never_sends(self):
        """At the parent the released client's listener and pace timer
        stayed: the next TDN change retransmitted into the fabric from
        a flow key nobody answers for."""
        sim, a, b, _ab, _ba = two_hosts()
        client, _server = bulk_pair(sim, a, b, connection_cls=TDTCPConnection)
        run_for(sim, usec(300))
        for seg in list(client.segments.values()):
            client._mark_lost(seg)
        pending = list(client._retx_pending)
        assert pending
        client.release()
        sent = []
        a.send = sent.append
        notify(a, 1)
        run_for(sim, msec(2))  # more than a week of the default schedule
        assert sent == []
        assert client._retx_pending == pending
        assert client.current_tdn == 0 and client.notifications_seen == 0

    def test_closed_by_fin_ack_is_quiet_before_release(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, server = create_connection_pair(sim, a, b, connection_cls=TDTCPConnection)
        client.write(30_000)
        client.close()
        notify(a, 1)  # a live connection does pace: the timer is in use
        run_for(sim, msec(1))
        assert client.state == CLOSED and server.state == CLOSE_WAIT
        assert a._tdn_listeners == []
        assert not any(t.armed for t in timers(client))
        # The peer is still live: it keeps its subscription.
        assert b._tdn_listeners == [server._on_tdn_notification]
        events = sim.processed_events
        notify(a, 0)
        run_for(sim, msec(1))
        assert sim.processed_events == events
        assert client.notifications_seen == 1
        client.release()  # what the application does next is still fine
        server.release()
        assert b._tdn_listeners == []


class TestIdleFabricCost:
    """The per-period event count of a fabric whose flows have all
    completed and been released equals that of a fabric that never
    carried one — at the parent it grew with every flow ever started
    (two-rack, week 21: 62 / 552 / 4,590 events for 0 / 10 / 100)."""

    @staticmethod
    def idle_events(fabric: str, n_flows: int) -> int:
        testbed, engine, period_ns = tdtcp_engine(fabric, max_flows=n_flows)
        sim = testbed.sim
        sim.run(until=20 * period_ns)
        if engine is not None:
            assert engine.stats.completed == n_flows
        before = sim.processed_events
        sim.run(until=21 * period_ns)
        return sim.processed_events - before

    @pytest.mark.parametrize("fabric", ["two-rack", "opera"])
    def test_released_flows_leave_no_per_period_cost(self, fabric):
        floor = self.idle_events(fabric, 0)
        assert floor > 0
        assert self.idle_events(fabric, 10) == floor
        assert self.idle_events(fabric, 100) == floor

    def test_an_idle_cubic_week_costs_the_schedule_boundaries_only(self, tmp_path, monkeypatch):
        """Through ``run_experiment`` a cubic fabric's hosts have nobody
        but the notifier's recorder listening, so a TDN change costs no
        event: an idle week is its 7 day starts, 7 night starts and the
        driver's week boundary. A TDTCP week stays at 62: its 8
        announcements take the rack path (emit, arrival and processing
        legs on each of 2 racks, joined where they share an instant)."""
        from repro.apps.engine import write_trace
        from repro.experiments import ExperimentConfig
        from repro.experiments.config import WorkloadConfig

        empty = tmp_path / "empty.csv"
        write_trace(empty, [])

        def run_events(weeks: int) -> int:
            result, testbed = run_keeping_testbed(ExperimentConfig(
                variant="cubic", weeks=weeks, warmup_weeks=0, seed=1,
                workload=WorkloadConfig(kind="trace", trace_path=str(empty)),
            ), monkeypatch)
            assert len(result.notification_latencies) == 8 * weeks * 2 * 8
            return testbed.sim.processed_events

        assert run_events(2) - run_events(1) == 7 + 7 + 1
        assert self.idle_events("two-rack", 0) == 62


# Recorded at the parent commit (37fb6a3) with ``unregistered_sends``
# in its dropping form: transmissions from a flow key that is no longer
# registered at the sending host are discarded at ``Host.send`` (5 such
# packets in the second case, 6 in the fourth, none in the others — there
# the plain parent gives the same hash). Reproduced here with no oracle.
#
# The two Opera hashes were re-pinned once, on purpose, when the rotor
# fabric stopped announcing slots itself (a fixed 1 us, no generation or
# processing cost) and started announcing through ``TDNNotifier``: the
# default §5.4 cost model now applies to every ToR, so a host hears of a
# slot ~0.25 us later. Counts are unchanged; with the notifier given
# the old timing the old hashes come back, which
# ``tests/test_opera.py::TestNotifierContract::test_old_timing_gives_the_pre_change_goldens``
# keeps as a test (``bc3933d4…`` / ``41c6673a…``).
#
# All four were re-pinned again, on purpose, when a TDTCP pace tick
# started to exist only while the connection has paced work: an idle
# endpoint's work now goes at once instead of at an idle grid's next
# tick. The overloaded two-rack case completes 869 flows instead of 899
# (across seeds 8-19 that case is a wash: 5 of 12 complete more). Under
# ``tests.helpers.grid_pacing()`` every previous hash comes back.
ENGINE_GOLDENS = [
    (("two-rack", 1, 6, 600, 0.4), 600, 600,
     "a43319f8d6189e1649259b45a0123c6613d4ba9db3ccdd22eccf12b48beaee18"),
    (("two-rack", 2, 2, None, 1.0), 1675, 869,
     "261351889ba3c473317303e5958fd4d904365e563247e078f3a98d3a79d02437"),
    (("opera", 1, 2, 600, 0.4), 600, 588,
     "78ef915cffce1c475abb16559d3c8acfc2aed307eb05e1ecb287c38d8ead2100"),
    (("opera", 4, 2, 800, 0.5), 800, 784,
     "ea80af36e9cdde1ed8b9190bcd62341c075ebecff7046341d3a94e31b43fa322"),
]


@pytest.mark.parametrize(
    "case,started,completed,sha256", ENGINE_GOLDENS,
    ids=[f"{case[0]}-seed{case[1]}" for case, *_ in ENGINE_GOLDENS],
)
def test_engine_results_are_the_parents_without_zombie_retransmissions(
    case, started, completed, sha256
):
    with unregistered_sends() as zombies:
        fingerprint = engine_fingerprint(*case)
    assert zombies == []
    assert fingerprint == {"started": started, "completed": completed, "sha256": sha256}
