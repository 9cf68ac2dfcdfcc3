"""TDTCPConnection behaviour: negotiation, switching, tagging,
relaxed loss detection, RTT filtering, pacing, downgrade."""

from collections import Counter
from contextlib import nullcontext

import pytest

from repro.core.tdtcp import TDTCPConnection
from repro.net.packet import TDNNotification
from repro.sim import Simulator
from repro.tcp.config import TCPConfig
from repro.tcp.connection import CLOSED, ESTABLISHED, TCPConnection
from repro.tcp.sockets import create_connection_pair
from repro.units import msec, usec

from tests.helpers import grid_pacing, two_hosts


def tdtcp_pair(sim, a, b, tdn_count=2, **kwargs):
    return create_connection_pair(
        sim, a, b, connection_cls=TDTCPConnection, tdn_count=tdn_count, **kwargs
    )


def switch(*hosts, tdn_id):
    for host in hosts:
        host.deliver(TDNNotification("tor", host.address, tdn_id=tdn_id))


def record_sends(sim, host):
    """``(time, packet)`` of everything ``host`` sends from now on."""
    sent = []
    send = host.send

    def recording(pkt):
        sent.append((sim.now, pkt))
        send(pkt)

    host.send = recording
    return sent


def count_pace_ticks(monkeypatch) -> Counter:
    """``_on_pace_tick`` calls per connection name, for connections
    built from here on (the timer binds the method at construction)."""
    ticks = Counter()
    tick = TDTCPConnection._on_pace_tick

    def counted(conn):
        ticks[conn.name] += 1
        tick(conn)

    monkeypatch.setattr(TDTCPConnection, "_on_pace_tick", counted)
    return ticks


class TestNegotiation:
    def test_td_capable_handshake(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, server = tdtcp_pair(sim, a, b)
        sim.run(until=usec(200))
        assert client.state == ESTABLISHED
        assert client.negotiated_tdns == 2
        assert server.negotiated_tdns == 2
        assert client.is_tdtcp and server.is_tdtcp

    def test_mismatched_tdn_count_downgrades(self):
        sim, a, b, _ab, _ba = two_hosts()
        client_port = a.allocate_port()
        client = TDTCPConnection(sim, a, b.address, 5001, local_port=client_port, tdn_count=2)
        server = TDTCPConnection(sim, b, a.address, client_port, local_port=5001, tdn_count=3)
        server.listen()
        client.connect()
        sim.run(until=usec(300))
        assert client.state == ESTABLISHED
        assert server.downgraded
        assert client.downgraded

    def test_plain_tcp_peer_downgrades(self):
        sim, a, b, _ab, _ba = two_hosts()
        client_port = a.allocate_port()
        client = TDTCPConnection(sim, a, b.address, 5001, local_port=client_port, tdn_count=2)
        server = TCPConnection(sim, b, a.address, client_port, local_port=5001)
        server.listen()
        client.connect()
        sim.run(until=usec(300))
        assert client.state == ESTABLISHED
        assert client.downgraded
        assert server.negotiated_tdns is None

    def test_syn_tracked_under_tdn0(self):
        """A.2: the SYN is always accounted to TDN 0."""
        sim, a, b, _ab, _ba = two_hosts()
        client_port = a.allocate_port()
        client = TDTCPConnection(sim, a, b.address, 5001, local_port=client_port, tdn_count=2)
        # Force the current TDN away from 0 before connecting.
        client.set_current_tdn(1)
        server = TDTCPConnection(sim, b, a.address, client_port, local_port=5001, tdn_count=2)
        server.listen()
        client.connect()
        assert client.segments[0].tdn_id == 0
        sim.run(until=usec(300))
        assert client.state == ESTABLISHED


class TestSwitching:
    def test_notification_switches_state(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, _server = tdtcp_pair(sim, a, b)
        sim.run(until=usec(200))
        a.deliver(TDNNotification("tor", a.address, tdn_id=1))
        sim.run(until=usec(201))
        assert client.current_tdn == 1
        assert client.tdn_state.switches == 1

    def test_change_pointer_set_on_switch(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, _server = tdtcp_pair(sim, a, b)
        client.start_bulk()
        sim.run(until=msec(1))
        snd_nxt = client.snd_nxt
        a.deliver(TDNNotification("tor", a.address, tdn_id=1))
        sim.run(until=msec(1) + usec(1))
        assert client.tdn_change_seq >= snd_nxt

    def test_new_tdn_initializes_state(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, _server = tdtcp_pair(sim, a, b)
        sim.run(until=usec(200))
        a.deliver(TDNNotification("tor", a.address, tdn_id=5))
        sim.run(until=usec(210))
        assert len(client.paths) == 6
        assert client.current_tdn == 5

    def test_data_tagged_with_current_tdn(self):
        sim, a, b, ab, _ba = two_hosts()
        tags = []
        original = ab.deliver
        ab.deliver = lambda p: (tags.append(p.data_tdn) if p.payload_len else None, original(p))
        client, _server = tdtcp_pair(sim, a, b)
        client.start_bulk()
        sim.run(until=usec(500))
        assert set(tags) == {0}
        a.deliver(TDNNotification("tor", a.address, tdn_id=1))
        tags.clear()
        sim.run(until=msec(2))
        assert 1 in set(tags)

    def test_acks_tagged_by_receiver_view(self):
        sim, a, b, _ab, ba = two_hosts()
        tags = []
        original = ba.deliver
        ba.deliver = lambda p: (tags.append(p.ack_tdn) if p.is_ack else None, original(p))
        client, server = tdtcp_pair(sim, a, b)
        client.start_bulk()
        sim.run(until=usec(500))
        b.deliver(TDNNotification("tor", b.address, tdn_id=1))
        # Let ACKs generated before the switch drain out of the pipe.
        sim.run(until=usec(800))
        tags.clear()
        sim.run(until=msec(2))
        assert set(tags) == {1}

    def test_per_tdn_cwnd_checkpointing_end_to_end(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, _server = tdtcp_pair(sim, a, b)
        client.start_bulk()
        sim.run(until=msec(3))
        # Both ends learn about the switch (as both racks' ToRs notify).
        a.deliver(TDNNotification("tor", a.address, tdn_id=1))
        b.deliver(TDNNotification("tor", b.address, tdn_id=1))
        sim.run(until=msec(4))  # pre-switch ACKs drain
        cwnd0 = client.paths[0].cc.cwnd
        sim.run(until=msec(8))
        assert client.paths[0].cc.cwnd == cwnd0  # untouched while inactive


class TestDowngradeAPI:
    def test_manual_downgrade(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, server = tdtcp_pair(sim, a, b)
        client.start_bulk()
        sim.run(until=msec(1))
        client.downgrade()
        assert client.current_tdn == 0
        a.deliver(TDNNotification("tor", a.address, tdn_id=1))
        sim.run(until=msec(2))
        assert client.current_tdn == 0  # notifications ignored
        assert client.wire_tdn is None  # no more tagging
        # The peer keeps talking TDTCP; transfer continues.
        assert server.stats.bytes_delivered > 0

    def test_snapshot_fields(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, _server = tdtcp_pair(sim, a, b)
        sim.run(until=usec(200))
        snap = client.snapshot()
        assert snap["tdtcp"] is True
        assert snap["current_tdn"] == 0
        assert len(snap["paths"]) == 2


class TestRelaxedLossDetection:
    def test_cross_tdn_hole_not_marked_lost(self):
        """Data sent on TDN 0, then a switch to TDN 1; TDN-1 ACKs SACKing
        above the un-ACKed TDN-0 data must not trigger retransmission."""
        sim, a, b, ab, _ba = two_hosts()
        held = []
        original = ab.deliver

        def slow_path(pkt):
            # Delay the last TDN-0 data sent just before the switch:
            # they arrive 40 us late while TDN-1 data goes straight
            # through (the low-latency path of Figure 3a).
            if (
                pkt.payload_len
                and pkt.data_tdn == 0
                and len(held) < 8
                and sim.now > usec(990)
            ):
                held.append(pkt)
                sim.schedule(usec(40), original, pkt)
                return
            original(pkt)

        ab.deliver = slow_path
        client, server = tdtcp_pair(sim, a, b)
        client.start_bulk()
        sim.run(until=msec(1))
        a.deliver(TDNNotification("tor", a.address, tdn_id=1))
        b.deliver(TDNNotification("tor", b.address, tdn_id=1))
        sim.run(until=msec(3))
        assert held  # reordering actually happened
        # Relaxed detection: the delayed TDN-0 segments were not
        # spuriously retransmitted via the dup/SACK heuristic.
        assert client.stats.spurious_retransmissions <= 1

    def test_plain_tcp_retransmits_same_scenario(self):
        """Control experiment: plain TCP in the same reordering scenario
        does retransmit spuriously (what Figure 10 shows for CUBIC)."""
        sim, a, b, ab, _ba = two_hosts()
        held = []
        original = ab.deliver

        def slow_path(pkt):
            if pkt.payload_len and len(held) < 8 and 80_000 < pkt.seq <= 92_000:
                held.append(pkt)
                sim.schedule(usec(400), original, pkt)
                return
            original(pkt)

        ab.deliver = slow_path
        client, server = create_connection_pair(sim, a, b)
        client.start_bulk()
        sim.run(until=msec(3))
        assert held
        assert client.stats.spurious_retransmissions >= 1


class TestRTTFiltering:
    def test_type3_samples_discarded(self):
        """Crossed samples must not pollute either TDN's estimator."""
        sim, a, b, _ab, _ba = two_hosts(one_way_ns=usec(20))
        client, server = tdtcp_pair(sim, a, b)
        client.start_bulk()
        sim.run(until=msec(2))
        # Receiver switches its view to TDN 1: its ACKs are now tagged 1
        # while the sender's data stays tagged 0 -> type-3, discarded.
        b.deliver(TDNNotification("tor", b.address, tdn_id=1))
        sim.run(until=msec(2) + usec(200))  # pre-switch ACKs drain
        srtt_before = client.paths[0].rtt.srtt_ns
        samples_before = client.paths[0].rtt.samples + client.paths[1].rtt.samples
        sim.run(until=msec(4))
        samples_after = client.paths[0].rtt.samples + client.paths[1].rtt.samples
        assert samples_after == samples_before
        assert client.paths[0].rtt.srtt_ns == srtt_before

    def test_pessimistic_rto_used(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, server = tdtcp_pair(sim, a, b)
        client.start_bulk()
        sim.run(until=msec(2))
        # Give TDN 1 a large RTT history by hand.
        client.paths[1].rtt.update(usec(500))
        rto = client._rto_ns()
        # synth >= srtt0/2 + 500/2.
        assert rto >= usec(250)


class TestSwitchPacing:
    def _switch_burst_sends(self, switch_pacing: bool) -> list:
        """Times at which TDN-1 data leaves the host NIC after a switch."""
        sim, a, b, _ab, _ba = two_hosts(forward_queue=32)
        times = []
        original_send = a.send

        def counting_send(pkt):
            if getattr(pkt, "payload_len", 0) and pkt.data_tdn == 1:
                times.append(sim.now)
            original_send(pkt)

        a.send = counting_send
        client, _server = tdtcp_pair(sim, a, b, switch_pacing=switch_pacing)
        client.start_bulk()
        sim.run(until=msec(2))
        client.paths[1].cc.cwnd = 40
        times.clear()
        a.deliver(TDNNotification("tor", a.address, tdn_id=1))
        sim.run(until=msec(2) + usec(30))
        return times

    def test_pacing_spreads_burst(self):
        times = self._switch_burst_sends(switch_pacing=True)
        # Paced: far fewer than the full window in the first 30 us.
        assert 0 < len(times) < 20

    def test_unpaced_bursts(self):
        times = self._switch_burst_sends(switch_pacing=False)
        assert len(times) >= 20  # the whole window goes out immediately

    # A pace tick exists only while the connection has paced work:
    # unsent data or a due retransmission.
    def test_a_pure_receiver_never_ticks(self, monkeypatch):
        ticks = count_pace_ticks(monkeypatch)
        sim, a, b, _ab, _ba = two_hosts()
        client, server = tdtcp_pair(sim, a, b)
        client.start_bulk()
        for i in range(1, 7):
            sim.run(until=msec(i))
            switch(a, b, tdn_id=i % 2)
        sim.run(until=msec(7))
        assert server.tdn_state.switches == 6
        assert ticks[server.name] == 0 and ticks[client.name] > 0

    def test_a_handshaking_endpoint_sends_at_establishment(self, monkeypatch):
        ticks = count_pace_ticks(monkeypatch)
        sim, a, b, _ab, _ba = two_hosts()
        client, server = tdtcp_pair(sim, a, b, connect=False)
        sent = record_sends(sim, a)
        established = []
        client.on_established = lambda: established.append((sim.now, ticks[client.name]))
        switch(a, b, tdn_id=1)  # no SRTT yet: a 100 us window
        client.write(15_000)
        client.connect()
        sim.run(until=usec(300))
        ((at, ticks_before),) = established
        assert at < client._pace_until_ns and ticks_before == 0
        assert min(t for t, pkt in sent if pkt.payload_len) == at
        assert ticks[server.name] == 0

    @pytest.mark.parametrize("grid", [False, True], ids=["rule", "grid"])
    def test_close_inside_a_window_sends_the_fin_at_once(self, grid):
        sim, a, b, _ab, _ba = two_hosts()
        client, _server = tdtcp_pair(sim, a, b)
        client.write(30_000)
        sim.run(until=msec(1))
        assert client.snd_una == client.snd_nxt  # data done and ACKed
        sent = record_sends(sim, a)
        with grid_pacing() if grid else nullcontext():
            switch(a, b, tdn_id=1)
            sim.run(until=sim.now + usec(5))
            closed_at = sim.now
            client.close()
            sim.run(until=msec(2))
        ((fin_at, _fin),) = [(t, pkt) for t, pkt in sent if pkt.fin]
        if grid:  # the first grid tick at or after the window's end
            assert fin_at >= client._pace_until_ns > closed_at
        else:
            assert fin_at == closed_at
        assert client.state == CLOSED

    def test_a_cwnd_limited_bulk_sender_keeps_the_grid(self):
        def sends(grid):
            with grid_pacing() if grid else nullcontext():
                sim, a, b, _ab, _ba = two_hosts(forward_queue=32)
                client, _server = tdtcp_pair(sim, a, b)
                sent = record_sends(sim, a)
                client.start_bulk()
                sim.run(until=msec(1))
                # A switch every 15 us, well inside one RTT: each TDN
                # comes back with its last window still in flight, so
                # the paced sender runs into its cwnd mid-window.
                for i in range(1, 41):
                    switch(a, b, tdn_id=i % 2)
                    sim.run(until=sim.now + usec(15))
                sim.run(until=msec(2))
            return [(t, pkt.seq, pkt.payload_len, pkt.ack) for t, pkt in sent]

        assert sends(grid=False) == sends(grid=True)

    def test_paced_sends_are_an_interval_apart(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, _server = tdtcp_pair(sim, a, b)
        client.write(15_000)
        sim.run(until=msec(1))
        paced = []
        send = a.send

        def recording(pkt):
            if pkt.payload_len and sim.now < client._pace_until_ns:
                paced.append((sim.now, client._pace_interval_ns()))
            send(pkt)

        a.send = recording
        switch(a, b, tdn_id=1)
        sim.run(until=sim.now + usec(10))
        written_at = sim.now
        client.write(30_000)  # work reaches an idle endpoint: it goes at once
        sim.run(until=msec(2))
        assert paced[0][0] == written_at and len(paced) > 3
        for (earlier, interval), (later, _) in zip(paced, paced[1:]):
            assert later - earlier >= interval

    def test_no_timer_outlives_the_window_without_work(self):
        sim, a, b, _ab, _ba = two_hosts()
        bulk, bulk_rx = tdtcp_pair(sim, a, b)
        done, done_rx = tdtcp_pair(sim, a, b, server_port=5002)
        bulk.start_bulk()
        done.write(15_000)
        sim.run(until=msec(1))
        switch(a, b, tdn_id=1)
        conns = (bulk, bulk_rx, done, done_rx)
        window_end = max(conn._pace_until_ns for conn in conns)
        sim.run(until=window_end - 1)
        assert bulk._pace_timer.armed  # the paced sender keeps its grid
        for until in (window_end - 1, window_end + usec(50)):
            sim.run(until=until)
            assert [conn._pace_timer.armed for conn in conns[1:]] == [False] * 3
