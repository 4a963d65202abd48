"""Scheduled ``learners.train`` against the live-env reference learner.

``train_with_tables`` steps through a transition table, with exploration
drawn ahead, rates looked up once per switching period and the per-step
rules inlined. ``single_rate_reference.train_reference`` calls
``select_action``, ``q_update``, ``greedy_action`` and ``rates_at`` on
live envs on every step. For every schedule the two must return the same
run log, byte for byte, and the same Q-tables: the same observations as
keys (a zero rate creates no row) and bit-identical values, NaN included.
Run logs are compared through ``runlog_to_csv``, because NaN breaks ``==``.

Where every Q-value provably stays finite (``learners._stays_finite``), the
loop keeps each row's first-max action and maximum up to date update by
update instead of recomputing them. The drawn payoffs of 1e308 and rates of
2.5 mostly run the recomputing path, so one case draws only payoffs and
rates that keep the bound, with exact ties and rewards of -0.0.
"""

from __future__ import annotations

import math
import struct

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import mtlearn as mt
from mtlearn.learners import (
    EpsilonSchedule,
    QLearnerConfig,
    _stays_finite,
    runlog_to_csv,
    train_with_tables,
)

from conftest import fixture_env_factory
from single_rate_reference import train_reference
from test_lockstep import foraging_factories, matrix_game_factories, q_configs, run_specs


def bits(row: list[float]) -> bytes:
    return struct.pack(f"{len(row)}d", *row)


def assert_train_matches_reference(factory, schedule, seed, q_config, total_steps,
                                   eval_every, eval_episodes):
    args = (q_config, total_steps, eval_every, eval_episodes, seed)
    log, tables = train_with_tables(factory, schedule, *args)
    ref_log, ref_tables = train_reference(factory, schedule, *args)
    assert runlog_to_csv(log) == runlog_to_csv(ref_log)
    assert (log.seed, log.eval_episodes) == (ref_log.seed, ref_log.eval_episodes)
    assert [t.keys() for t in tables] == [t.keys() for t in ref_tables]
    for table, ref_table in zip(tables, ref_tables):
        assert {o: bits(row) for o, row in table.items()} == {
            o: bits(row) for o, row in ref_table.items()}
    return tables


@st.composite
def seeded_foraging_factories(draw):
    """Foraging envs whose reset seed places every agent and food, so the
    table is filled entry by entry, not expanded up front."""
    agents = tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=2)))
    foods = tuple(draw(st.lists(st.integers(1, sum(agents)), min_size=1, max_size=2)))
    config = mt.ForagingConfig(width=draw(st.integers(2, 4)), height=draw(st.integers(2, 3)),
                               agent_levels=agents, food_levels=foods,
                               horizon=draw(st.integers(1, 8)),
                               view_radius=draw(st.sampled_from([None, 0, 1])))
    return lambda: mt.ForagingEnv(config)


common = dict(q_config=q_configs, data=st.data(), eval_episodes=st.integers(1, 3))
FINITE_PAYOFFS = (-1.0, -0.0, 0.0, 0.5, 1.0)
FINITE_RATES = (0.0, 0.05, 0.5, 1.0)
# Hypothesis shrinks a failing example for up to five minutes, replaying both
# loops each time; these tests report the failing example as drawn, at once.
UNSHRUNK = [phase for phase in Phase if phase is not Phase.shrink]


class TestTrainMatchesLiveReference:
    @settings(max_examples=100, deadline=None, phases=UNSHRUNK)
    @given(factory=matrix_game_factories(), total_steps=st.integers(1, 150),
           eval_every=st.integers(1, 60), **common)
    def test_matrix_games(self, factory, q_config, data, total_steps, eval_every,
                          eval_episodes):
        schedule, seed = data.draw(run_specs(factory().n))
        assert_train_matches_reference(factory, schedule, seed, q_config, total_steps,
                                       eval_every, eval_episodes)

    @settings(max_examples=150, deadline=None, phases=UNSHRUNK)
    @given(factory=matrix_game_factories(FINITE_PAYOFFS), total_steps=st.integers(1, 150),
           eval_every=st.integers(1, 60), **common)
    def test_matrix_games_within_the_finite_bound(self, factory, q_config, data, total_steps,
                                                  eval_every, eval_episodes):
        schedule, seed = data.draw(run_specs(factory().n, FINITE_RATES))
        assert _stays_finite(schedule.rates_by_rotation, factory().game.payoff, total_steps)
        assert_train_matches_reference(factory, schedule, seed, q_config, total_steps,
                                       eval_every, eval_episodes)

    @settings(max_examples=40, deadline=None, phases=UNSHRUNK)
    @given(factory=foraging_factories(), total_steps=st.integers(1, 300),
           eval_every=st.integers(1, 120), **common)
    def test_fixed_foraging_layouts(self, factory, q_config, data, total_steps, eval_every,
                                    eval_episodes):
        schedule, seed = data.draw(run_specs(factory().n))
        assert_train_matches_reference(factory, schedule, seed, q_config, total_steps,
                                       eval_every, eval_episodes)

    @settings(max_examples=40, deadline=None, phases=UNSHRUNK)
    @given(factory=seeded_foraging_factories(), total_steps=st.integers(1, 300),
           eval_every=st.integers(1, 120), **common)
    def test_seeded_foraging_layouts(self, factory, q_config, data, total_steps, eval_every,
                                     eval_episodes):
        schedule, seed = data.draw(run_specs(factory().n))
        assert_train_matches_reference(factory, schedule, seed, q_config, total_steps,
                                       eval_every, eval_episodes)

    def test_fixture_with_zero_slow_rate(self):
        q_config = QLearnerConfig(EpsilonSchedule(1.0, 0.01, 3000), discount=0.95)
        for levels, period, seed in (((0.3, 0.05), 500, 0), ((0.3, 0.0), 100, 1),
                                     ((0.0, 0.0), 7, 2)):
            tables = assert_train_matches_reference(
                fixture_env_factory, mt.make_schedule(2, levels, s=period), seed, q_config,
                4000, 700, 5)
            assert all(table == {} for table in tables) == (levels == (0.0, 0.0))

    def test_diverging_runs_hold_nan_rows(self):
        # test_lockstep's diverging case: rewards of 1e308 overflow the
        # rate-2.5 updates to inf and then NaN, and rate-0 phases freeze
        # tables that hold NaN rows.
        payoff = [[1e308, -1e308, 0.0], [-1e308, 7.0, 6.0]]

        def factory():
            return mt.MatrixGameEnv(mt.make_game(payoff), horizon=2)

        q_config = QLearnerConfig(EpsilonSchedule(1.0, 0.0, 40), discount=0.9)
        diverged = 0
        for levels in ((2.5, 0.0), (0.0, 2.5), (2.5, 2.5), (2.5, 0.05)):
            for period in (1, 7):
                for seed in (0, 1):
                    tables = assert_train_matches_reference(
                        factory, mt.make_schedule(2, levels, s=period), seed, q_config,
                        200, 30, 2)
                    diverged += any(math.isnan(v) for table in tables
                                    for row in table.values() for v in row)
        assert diverged >= 4
