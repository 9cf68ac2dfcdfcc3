"""Schedule: days, nights, weeks, rotor view, driver callbacks."""

import pytest

from repro.rdcn.config import RDCNConfig
from repro.rdcn.rotor import round_robin_matchings
from repro.rdcn.schedule import Day, ScheduleDriver, TDNSchedule
from repro.sim import Simulator
from repro.units import usec

from tests.helpers import rotor_day_pattern


def paper_schedule():
    return TDNSchedule.uniform((0, 0, 0, 0, 0, 0, 1), usec(180), usec(20))


class TestTDNSchedule:
    def test_week_length(self):
        s = paper_schedule()
        assert s.week_ns == 7 * usec(200)

    def test_active_during_days(self):
        s = paper_schedule()
        assert s.active_at(0) == 0
        assert s.active_at(usec(179)) == 0
        assert s.active_at(usec(200)) == 0
        # 7th configuration is optical.
        assert s.active_at(usec(6 * 200 + 10)) == 1

    def test_nights_are_blackouts(self):
        s = paper_schedule()
        assert s.active_at(usec(185)) is None
        assert s.active_at(usec(6 * 200 + 190)) is None

    def test_periodicity(self):
        s = paper_schedule()
        for t in (0, usec(100), usec(185), usec(1250)):
            assert s.active_at(t) == s.active_at(t + s.week_ns)
            assert s.active_at(t) == s.active_at(t + 5 * s.week_ns)

    def test_rate_profile_covers_week(self):
        s = paper_schedule()
        pieces = s.rate_profile([10e9, 100e9])
        assert pieces[0] == (0, usec(180), 10e9)
        assert pieces[-1][1] == s.week_ns
        covered = sum(end - start for start, end, _ in pieces)
        assert covered == s.week_ns

    def test_no_nights_allowed(self):
        s = TDNSchedule.uniform((0, 1), usec(10), 0)
        assert s.active_at(usec(5)) == 0
        assert s.active_at(usec(15)) == 1
        assert s.week_ns == usec(20)

    def test_invalid_day(self):
        with pytest.raises(ValueError):
            Day(0, 0, 0)
        with pytest.raises(ValueError):
            Day(-1, 10, 0)
        with pytest.raises(ValueError):
            Day(0, 10, -1)

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            TDNSchedule([])

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            paper_schedule().active_at(-1)


class TestPairSchedule:
    """The default schedule is one rack pair's view of an 8-rack rotor."""

    def test_eight_racks_gives_paper_ratio(self):
        pattern = RDCNConfig().schedule_pattern
        assert sorted(rotor_day_pattern(8, 0, 1)) == sorted(pattern) == [0] * 6 + [1]
        for a, b in [(0, 7), (2, 5), (3, 6)]:
            assert sorted(rotor_day_pattern(8, a, b)) == [0] * 6 + [1]

    def test_two_racks_always_direct(self):
        assert rotor_day_pattern(2, 0, 1) == [1]

    def test_invalid_rack_count(self):
        with pytest.raises(ValueError):
            round_robin_matchings(1)


class TestScheduleDriver:
    def test_day_and_night_callbacks(self):
        sim = Simulator()
        s = TDNSchedule.uniform((0, 1), usec(10), usec(2))
        driver = ScheduleDriver(sim, s)
        events = []
        driver.on_day_start(lambda tdn, idx: events.append(("day", sim.now, tdn, idx)))
        driver.on_night_start(lambda idx: events.append(("night", sim.now, idx)))
        driver.start()
        sim.run(until=usec(24) - 1)
        assert events == [
            ("day", 0, 0, 0),
            ("night", usec(10), 0),
            ("day", usec(12), 1, 1),
            ("night", usec(22), 1),
        ]

    def test_continues_across_weeks(self):
        sim = Simulator()
        s = TDNSchedule.uniform((0, 1), usec(10), usec(2))
        driver = ScheduleDriver(sim, s)
        days = []
        driver.on_day_start(lambda tdn, idx: days.append(idx))
        driver.start()
        sim.run(until=s.week_ns * 5)
        assert days[:10] == list(range(10))
        assert driver.day_index == days[-1] + 1

    def test_lead_callbacks_fire_ahead(self):
        sim = Simulator()
        s = TDNSchedule.uniform((0, 0, 1), usec(10), usec(2))
        driver = ScheduleDriver(sim, s)
        leads = []
        driver.on_day_lead(usec(5), lambda tdn, idx: leads.append((sim.now, tdn, idx)), tdn_id=1)
        driver.start()
        sim.run(until=s.week_ns * 3)
        # Optical day starts at 24 us within each week.
        expected_first = usec(24) - usec(5)
        assert leads[0] == (expected_first, 1, 2)
        assert leads[1][0] == expected_first + s.week_ns
        assert len(leads) == 3

    def test_lead_crossing_week_boundary(self):
        sim = Simulator()
        # Optical day at the very start of the week: lead must fire in
        # the previous week.
        s = TDNSchedule.uniform((1, 0, 0), usec(10), usec(2))
        driver = ScheduleDriver(sim, s)
        leads = []
        driver.on_day_lead(usec(5), lambda tdn, idx: leads.append(sim.now), tdn_id=1)
        driver.start()
        sim.run(until=s.week_ns * 3)
        # Week 1's optical day starts at week_ns; its lead fires 5 us before.
        assert s.week_ns - usec(5) in leads
        assert 2 * s.week_ns - usec(5) in leads

    def test_current_tdn_tracking(self):
        sim = Simulator()
        driver = ScheduleDriver(sim, paper_schedule())
        driver.start()
        sim.run(until=usec(100))
        assert driver.current_tdn == 0
        sim.run(until=usec(190))
        assert driver.current_tdn is None
        sim.run(until=usec(1250))
        assert driver.current_tdn == 1

    def test_double_start_rejected(self):
        sim = Simulator()
        driver = ScheduleDriver(sim, paper_schedule())
        driver.start()
        with pytest.raises(RuntimeError):
            driver.start()

    def test_lead_longer_than_week_rejected(self):
        sim = Simulator()
        s = TDNSchedule.uniform((0, 1), usec(10), usec(2))
        driver = ScheduleDriver(sim, s)
        with pytest.raises(ValueError):
            driver.on_day_lead(s.week_ns, lambda tdn, idx: None)
