import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtlearn.config import schedule_from_config
from mtlearn.schedule import (
    INFINITE,
    Schedule,
    ScheduleError,
    ScheduleKind,
    assignment,
    classify,
    learning_rate,
    make_schedule,
    parse_count,
    parse_rate,
    rates_at,
)


def random_two_level_schedule(rng):
    n = int(rng.integers(2, 7))
    fast = float(rng.uniform(0.001, 1.0))
    slow = float(rng.choice([0.0, rng.uniform(0.0, fast)]))
    s = int(rng.integers(1, 50))
    return make_schedule(n, (fast, slow), s=s)


class TestMakeSchedule:
    def test_three_agent_two_level_example(self):
        sched = make_schedule(3, (0.01, 0.001), s=100)
        assert sched.cluster_sizes == (1, 2)
        assert sched.levels == (0.01, 0.001)
        assert classify(sched) is ScheduleKind.MULTI_TIMESCALE

    def test_equal_rates_classify_independent(self):
        sched = make_schedule(2, (0.3, 0.3), cluster_sizes=(1, 1), s=10)
        assert classify(sched) is ScheduleKind.INDEPENDENT

    def test_size_mismatch_rejected(self):
        with pytest.raises(ScheduleError):
            make_schedule(3, (0.1, 0.2), cluster_sizes=(2, 2))

    @pytest.mark.parametrize("kwargs", [
        dict(n=0, levels=(0.1,)),
        dict(n=3, levels=()),
        dict(n=3, levels=(-0.1, 0.2)),
        dict(n=3, levels=(math.inf, 0.2)),
        dict(n=3, levels=(0.1, 0.2), s=0),
        dict(n=3, levels=(0.1, 0.2), s=2.5),
        dict(n=3, levels=(0.1, 0.2), cluster_sizes=(1, 1, 1)),
        dict(n=3, levels=(0.1, 0.2, 0.3)),  # no default sizes for three levels
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ScheduleError):
            make_schedule(**kwargs)

    @pytest.mark.parametrize("sizes", [(1.5, 2), (True, 2), ("1", 2), (None, 3), (0, 3)])
    def test_cluster_sizes_follow_the_count_rule(self, sizes):
        with pytest.raises(ScheduleError, match="cluster sizes must be an integer >= 1"):
            make_schedule(3, (0.1, 0.2), cluster_sizes=sizes)

    def test_integral_float_cluster_sizes_are_integers(self):
        sched = make_schedule(3, (0.1, 0.2), cluster_sizes=(1.0, np.int64(2)))
        assert sched.cluster_sizes == (1, 2)
        assert all(type(c) is int for c in sched.cluster_sizes)

    def test_single_level_defaults_to_whole_team(self):
        sched = make_schedule(4, (0.2,))
        assert sched.cluster_sizes == (4,)
        assert classify(sched) is ScheduleKind.INDEPENDENT



@st.composite
def schedule_args(draw):
    """Valid ``make_schedule`` arguments ``(n, levels, cluster_sizes, s)``, in
    every spelling it accepts: sizes given or left to the default, counts and
    periods as ints or integral floats, infinity as a number or a string."""
    levels = draw(st.lists(st.one_of(st.floats(0.0, 2.0), st.integers(0, 2)),
                           min_size=1, max_size=3))
    if len(levels) == 3 or draw(st.booleans()):
        sizes = draw(st.lists(st.integers(1, 3), min_size=len(levels), max_size=len(levels)))
        n = sum(sizes)
        sizes = draw(st.sampled_from([sizes, tuple(float(c) for c in sizes)]))
    else:
        sizes, n = None, draw(st.integers(len(levels), 8))
    period = st.one_of(st.integers(1, 50), st.integers(1, 50).map(float),
                       st.sampled_from(["inf", " Infinity", math.inf]))
    return draw(st.sampled_from([n, float(n)])), levels, sizes, draw(period)


# Values each field rejects whatever the others hold.
BAD_SCHEDULE_FIELDS = {
    "n": [0, -1, 2.5, True, "3", None, 99],
    "levels": [(), (-0.1,), (math.inf,), (math.nan, 0.1), ("0.3",), (True,)],
    "cluster_sizes": [(0,), (1.5, 1), (True,), ("1",), (None,), (99,)],
    "switch_period": [0, -1, 2.5, math.nan, "soon", True, None],
}


class TestScheduleChecksItself:
    @given(args=schedule_args())
    def test_direct_construction_equals_the_factory(self, args):
        n, levels, sizes, s = args
        sched = make_schedule(n, levels, sizes, s=s)
        assert Schedule(n, levels, sizes, s) == sched == dataclasses.replace(sched)
        assert Schedule(n=n, levels=levels, cluster_sizes=sizes, switch_period=s) == sched
        assert type(sched.n) is int and type(sched.levels) is tuple
        assert all(type(v) is float for v in sched.levels)
        assert all(type(c) is int for c in sched.cluster_sizes)
        assert type(sched.switch_period) is float

    @given(args=schedule_args(), data=st.data())
    def test_an_invalid_field_fails_with_the_factorys_message(self, args, data):
        sched = make_schedule(*args[:3], s=args[3])
        name = data.draw(st.sampled_from(sorted(BAD_SCHEDULE_FIELDS)))
        bad = data.draw(st.sampled_from(BAD_SCHEDULE_FIELDS[name]))
        fields = dict(dataclasses.asdict(sched), **{name: bad})
        with pytest.raises(ScheduleError) as factory:
            make_schedule(fields["n"], fields["levels"], fields["cluster_sizes"],
                          s=fields["switch_period"])
        for build in (lambda: Schedule(**fields),
                      lambda: dataclasses.replace(sched, **{name: bad})):
            with pytest.raises(ScheduleError) as direct:
                build()
            assert str(direct.value) == str(factory.value)

    def test_replaced_levels_are_checked(self):
        # Unchecked, this schedule would train, and classify would name its regime.
        sched = make_schedule(2, (0.5, 0.1), s=10)
        with pytest.raises(ScheduleError, match="rates must be finite and >= 0, got -3.0"):
            dataclasses.replace(sched, levels=(0.5, -3.0))

    def test_replaced_switch_period_is_checked(self):
        sched = make_schedule(2, (0.5, 0.1), s=10)
        with pytest.raises(ScheduleError, match="positive integer or inf, got 2.5"):
            dataclasses.replace(sched, switch_period=2.5)

    def test_replaced_cluster_sizes_are_checked(self):
        # Unchecked, these sizes would fail inside train with a bare IndexError.
        sched = make_schedule(2, (0.5, 0.1), s=10)
        with pytest.raises(ScheduleError, match="2 levels but 1 cluster sizes"):
            dataclasses.replace(sched, cluster_sizes=(1,))

    def test_the_default_sizes_are_the_factorys(self):
        assert Schedule(4, (0.3, 0.1)).cluster_sizes == (1, 3)
        assert Schedule(4, (0.3,)).cluster_sizes == (4,)
        assert Schedule(4, (0.3,)).switch_period == INFINITE

class TestAssignment:
    def test_worked_three_agent_rotation(self):
        sched = make_schedule(3, (0.01, 0.001), s=100)
        assert assignment(sched, 0) == {0: 0, 1: 1, 2: 1}
        assert assignment(sched, 99) == {0: 0, 1: 1, 2: 1}
        assert assignment(sched, 150) == {0: 1, 1: 0, 2: 1}
        assert assignment(sched, 250) == {0: 1, 1: 1, 2: 0}
        assert assignment(sched, 300) == assignment(sched, 0)

    def test_infinite_period_never_rotates(self):
        sched = make_schedule(4, (0.1, 0.01), s=INFINITE)
        base = assignment(sched, 0)
        for t in (1, 17, 10_000, 10**9):
            assert assignment(sched, t) == base

    def test_periodicity(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            sched = random_two_level_schedule(rng)
            period = sched.n * int(sched.switch_period)
            for t in (0, 3, period - 1, 2 * period + 5):
                assert assignment(sched, t + period) == assignment(sched, t)

    def test_constant_within_switch_window(self):
        sched = make_schedule(3, (0.5, 0.1), s=7)
        for k in range(6):
            window = [assignment(sched, t) for t in range(k * 7, (k + 1) * 7)]
            assert all(w == window[0] for w in window)

    def test_negative_step_rejected(self):
        sched = make_schedule(3, (0.5, 0.1), s=7)
        with pytest.raises(ValueError):
            assignment(sched, -1)

    def test_general_layout_rotates_cyclically(self):
        sched = make_schedule(5, (0.4, 0.2, 0.1), cluster_sizes=(2, 2, 1), s=3)
        assert assignment(sched, 0) == {0: 0, 1: 0, 2: 1, 3: 1, 4: 2}
        # One rotation: the layout shifts forward by one agent.
        assert assignment(sched, 3) == {0: 2, 1: 0, 2: 0, 3: 1, 4: 1}


class TestLearningRate:
    def test_fast_agent_rate(self):
        sched = make_schedule(3, (0.01, 0.001), s=100)
        assert learning_rate(sched, 50, 0) == 0.01
        assert learning_rate(sched, 50, 1) == 0.001
        assert learning_rate(sched, 150, 1) == 0.01

    def test_sequential_has_at_most_one_nonzero(self):
        sched = make_schedule(4, (0.2, 0.0), s=5)
        for t in range(60):
            nonzero = [a for a in range(4) if learning_rate(sched, t, a) > 0.0]
            assert len(nonzero) == 1

    def test_independent_rate_constant(self):
        sched = make_schedule(3, (0.25, 0.25), cluster_sizes=(1, 2), s=4)
        for t in range(40):
            for agent in range(3):
                assert learning_rate(sched, t, agent) == 0.25

    def test_agent_validation(self):
        sched = make_schedule(2, (0.1, 0.0), s=3)
        with pytest.raises(IndexError):
            learning_rate(sched, 0, 2)


@st.composite
def schedules(draw):
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    levels = draw(st.lists(st.sampled_from([0.0, 0.05, 0.1, 0.3]),
                           min_size=len(sizes), max_size=len(sizes)))
    period = draw(st.one_of(st.integers(1, 20), st.just("inf")))
    return make_schedule(sum(sizes), levels, cluster_sizes=sizes, s=period)


def walked_levels(sched, t):
    """Each agent's level index at step ``t``, by brute force: the layout
    has rotated ``t // s`` times, and agent i sits at position (i - rotation)
    mod n, whose level is found by walking the clusters in order."""
    rotation = 0 if sched.switch_period == INFINITE else t // int(sched.switch_period)
    levels = []
    for agent in range(sched.n):
        pos = (agent - rotation) % sched.n
        for h in range(len(sched.cluster_sizes)):
            if pos < sum(sched.cluster_sizes[:h + 1]):
                levels.append(h)
                break
    return levels


class TestRatesAt:
    @given(sched=schedules(), t=st.integers(0, 10 ** 6))
    def test_matches_learning_rate(self, sched, t):
        levels = walked_levels(sched, t)
        assert assignment(sched, t) == dict(enumerate(levels))
        rates = rates_at(sched, t)
        assert rates == tuple(sched.levels[h] for h in levels)
        assert rates == tuple(learning_rate(sched, t, i) for i in range(sched.n))

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf"), "-1"])
    def test_parse_rate_rejects(self, bad):
        with pytest.raises(ScheduleError, match="finite and >= 0"):
            parse_rate(bad)

    @pytest.mark.parametrize("bad", ["0.3", "inf", True, False, None, [0.3], 1j])
    def test_rates_must_be_real_numbers(self, bad):
        with pytest.raises(ScheduleError, match="rates must be real numbers"):
            parse_rate(bad)
        with pytest.raises(ScheduleError, match="rates must be real numbers"):
            make_schedule(2, (0.3, bad), s=10)

    def test_string_and_bool_rates_do_not_become_levels(self):
        with pytest.raises(ScheduleError):
            make_schedule(2, ("0.3", True), s=10)

    @pytest.mark.parametrize("good, level", [(1, 1.0), (0, 0.0), (np.float64(0.25), 0.25),
                                             (np.int64(2), 2.0)])
    def test_real_rates_are_floats(self, good, level):
        rate = parse_rate(good)
        assert rate == level and type(rate) is float


class TestClassify:
    def test_reductions(self):
        assert classify(make_schedule(3, (0.2, 0.2), s=5)) is ScheduleKind.INDEPENDENT
        assert classify(make_schedule(3, (0.2, 0.0), s=5)) is ScheduleKind.SEQUENTIAL
        assert classify(make_schedule(3, (0.2, 0.1), s=INFINITE)) is ScheduleKind.TWO_TIMESCALE
        assert classify(make_schedule(3, (0.2, 0.1), s=1000)) is ScheduleKind.MULTI_TIMESCALE

    def test_zero_slow_with_infinite_period_is_two_timescale(self):
        sched = make_schedule(3, (0.2, 0.0), s=INFINITE)
        assert classify(sched) is ScheduleKind.TWO_TIMESCALE


class TestFairness:
    def test_each_agent_fast_exactly_s_steps_per_cycle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            sched = random_two_level_schedule(rng)
            s = int(sched.switch_period)
            offset = int(rng.integers(0, 3 * sched.n * s))
            window = range(offset, offset + sched.n * s)
            for agent in range(sched.n):
                fast_steps = sum(1 for t in window if assignment(sched, t)[agent] == 0)
                assert fast_steps == s

    def test_exactly_one_fast_agent(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            sched = random_two_level_schedule(rng)
            for t in range(0, 4 * int(sched.switch_period) + 3):
                fast = [a for a, lvl in assignment(sched, t).items() if lvl == 0]
                assert len(fast) == sched.cluster_sizes[0] == 1


class TestConfigRoundTrip:
    def test_round_trip(self):
        cfg = {"levels": [0.01, 0.001], "cluster_sizes": [1, 2], "switch_period": 100}
        assert schedule_from_config(3, cfg) == make_schedule(3, (0.01, 0.001), s=100)

    def test_inf_spelling_accepted(self):
        cfg = {"levels": [0.1, 0.01], "switch_period": "inf"}
        sched = schedule_from_config(2, cfg)
        assert not sched.is_switching
        assert sched == make_schedule(2, (0.1, 0.01), s=math.inf)

    def test_unknown_period_string_rejected(self):
        with pytest.raises(ScheduleError):
            schedule_from_config(2, {"levels": [0.1, 0.01], "switch_period": "soon"})

    @pytest.mark.parametrize("bad", [True, False, None, [10], 1j])
    def test_non_real_period_rejected(self, bad):
        with pytest.raises(ScheduleError, match="positive integer or inf"):
            schedule_from_config(2, {"levels": [0.1, 0.01], "switch_period": bad})
        with pytest.raises(ScheduleError, match="positive integer or inf"):
            make_schedule(2, (0.1, 0.01), s=bad)


class TestParseCount:
    @pytest.mark.parametrize("value, expected", [(1, 1), (10, 10), (10.0, 10),
                                                 (np.int64(3), 3)])
    def test_integers_pass(self, value, expected):
        count = parse_count(value, "total_steps")
        assert count == expected and type(count) is int

    @pytest.mark.parametrize("value", [100.7, 0, 0.0, -3, True, "10", None, math.nan, math.inf])
    def test_others_fail(self, value):
        with pytest.raises(ValueError, match="eval_every must be an integer >= 1"):
            parse_count(value, "eval_every")
