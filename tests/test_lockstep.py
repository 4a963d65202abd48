"""The lockstep sweep loop against the scalar reference loop.

``lockstep.train_lockstep`` must return, for every run, the run log that
``learners.train`` returns for that run alone, byte for byte. Run logs are
compared through ``runlog_to_csv``, because a diverged run logs NaN and
NaN breaks ``==``.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtlearn as mt
from mtlearn.learners import (
    EpsilonSchedule,
    QLearnerConfig,
    _exploration,
    runlog_to_csv,
    train,
    train_with_tables,
)
from mtlearn.lockstep import train_lockstep

from single_rate_reference import select_action

from conftest import CLIMBING_PAYOFF, ascii_layouts, fixture_env_factory

RATES = (0.0, 0.05, 0.5, 1.0, 2.5)
# Payoffs of 1e308 overflow a learner to inf and then NaN within a few
# updates, which exercises the NaN-aware first-max fold and frozen tables.
PAYOFFS = (-1e308, -30.0, -1.0, 0.0, 0.5, 1.0, 7.0, 1e308)


@st.composite
def matrix_game_factories(draw, payoffs=PAYOFFS):
    """1-4 agents with unequal action counts, horizon 1-6, entries from ``payoffs``."""
    n = draw(st.integers(1, 4))
    counts = tuple(draw(st.integers(1, 3)) for _ in range(n))
    payoff = np.array(draw(st.lists(st.sampled_from(payoffs), min_size=int(np.prod(counts)),
                                    max_size=int(np.prod(counts))))).reshape(counts)
    horizon = draw(st.integers(1, 6))
    return lambda: mt.MatrixGameEnv(mt.make_game(payoff), horizon=horizon)


@st.composite
def foraging_factories(draw):
    """ASCII layouts (lockstep needs a fixed start), view_radius None, 0 or 1."""
    config = mt.foraging_config_from_ascii(draw(ascii_layouts()),
                                           horizon=draw(st.integers(1, 8)),
                                           view_radius=draw(st.sampled_from([None, 0, 1])))
    return lambda: mt.ForagingEnv(config)


@st.composite
def run_specs(draw, n: int, rates=RATES):
    """(schedule, seed) of one run: rate levels from ``rates`` (two, or one
    for a single agent), and a period of 1, a finite count or infinity."""
    levels = tuple(draw(st.sampled_from(rates)) for _ in range(min(n, 2)))
    period = draw(st.sampled_from([1, 2, 7, 50, math.inf]))
    return mt.make_schedule(n, levels, s=period), draw(st.integers(0, 2 ** 16))


def assert_lockstep_matches_train(factory, runs, q_config, total_steps, eval_every,
                                  eval_episodes):
    schedules = [sched for sched, _ in runs]
    seeds = [seed for _, seed in runs]
    logs = train_lockstep(factory, schedules, seeds, q_config, total_steps, eval_every,
                          eval_episodes)
    assert len(logs) == len(runs)
    for (sched, seed), log in zip(runs, logs):
        reference = train(factory, sched, q_config, total_steps, eval_every, eval_episodes,
                          seed)
        assert runlog_to_csv(log) == runlog_to_csv(reference)
        assert (log.seed, log.eval_episodes) == (reference.seed, reference.eval_episodes)


q_configs = st.builds(
    lambda start, end, decay, discount: QLearnerConfig(EpsilonSchedule(start, end, decay),
                                                       discount),
    st.sampled_from([0.0, 0.3, 1.0]), st.sampled_from([0.0, 0.05, 0.5]),
    st.integers(1, 80), st.sampled_from([0.0, 0.9, 1.0]))


class TestLockstepMatchesTrain:
    @settings(max_examples=150, deadline=None)
    @given(factory=matrix_game_factories(), q_config=q_configs, data=st.data(),
           total_steps=st.integers(1, 150), eval_every=st.integers(1, 60),
           eval_episodes=st.integers(1, 3))
    def test_matrix_games(self, factory, q_config, data, total_steps, eval_every,
                          eval_episodes):
        n = factory().n
        runs = data.draw(st.lists(run_specs(n), min_size=1, max_size=4))
        assert_lockstep_matches_train(factory, runs, q_config, total_steps, eval_every,
                                      eval_episodes)

    @settings(max_examples=60, deadline=None)
    @given(factory=foraging_factories(), q_config=q_configs, data=st.data(),
           total_steps=st.integers(1, 300), eval_every=st.integers(1, 120),
           eval_episodes=st.integers(1, 3))
    def test_foraging_layouts(self, factory, q_config, data, total_steps, eval_every,
                              eval_episodes):
        n = factory().n
        runs = data.draw(st.lists(run_specs(n), min_size=1, max_size=4))
        assert_lockstep_matches_train(factory, runs, q_config, total_steps, eval_every,
                                      eval_episodes)

    def test_diverging_runs_with_frozen_phases(self):
        # Rewards of 1e308 overflow the rate-2.5 updates to inf and then NaN
        # at once; rate-0 phases then freeze such tables, where
        # lr * (target - current) would be NaN, and the bootstrap maximum
        # meets rows that hold a NaN.
        payoff = [[1e308, -1e308, 0.0], [-1e308, 7.0, 6.0]]

        def factory():
            return mt.MatrixGameEnv(mt.make_game(payoff), horizon=2)

        runs = [(mt.make_schedule(2, levels, s=period), seed)
                for levels in ((2.5, 0.0), (0.0, 2.5), (2.5, 2.5), (2.5, 0.05))
                for period in (1, 7) for seed in (0, 1)]
        q_config = QLearnerConfig(EpsilonSchedule(1.0, 0.0, 40), discount=0.9)
        diverged = 0
        for sched, seed in runs:
            _, tables = train_with_tables(factory, sched, q_config, 200, 30, 2, seed)
            diverged += any(math.isnan(v) for table in tables for row in table.values()
                            for v in row)
        assert diverged >= 4
        assert_lockstep_matches_train(factory, runs, q_config, 200, 30, 2)

    def test_unit_rates_that_overflow(self):
        # Rates of at most 1 cannot overflow a Q-value unless the rewards are
        # near the float range, as here: the finite check must still run.
        payoff = [[1e308, -1e308], [5.0, 1e308]]

        def factory():
            return mt.MatrixGameEnv(mt.make_game(payoff), horizon=4)

        runs = [(mt.make_schedule(2, levels, s=period), seed)
                for levels in ((1.0, 0.0), (0.5, 1.0), (1.0, 1.0))
                for period in (1, 3) for seed in (0, 1)]
        q_config = QLearnerConfig(EpsilonSchedule(1.0, 0.0, 40), discount=1.0)
        assert_lockstep_matches_train(factory, runs, q_config, 60, 10, 2)

    def test_fixture_runs(self):
        sched = mt.make_schedule(2, (0.3, 0.05), s=500)
        runs = [(sched, seed) for seed in (0, 1)] + [(mt.make_schedule(2, (0.3, 0.0), s=100), 2)]
        q_config = QLearnerConfig(EpsilonSchedule(1.0, 0.01, 3000), discount=0.95)
        assert_lockstep_matches_train(fixture_env_factory, runs, q_config, 5000, 700, 5)

    def test_climbing_sweep_cells(self):
        def factory():
            return mt.MatrixGameEnv(mt.make_game(CLIMBING_PAYOFF), horizon=5)

        runs = [(mt.make_schedule(2, (lr0, lr1), s=period), seed)
                for lr0, lr1 in ((0.5, 0.5), (0.5, 0.02), (0.02, 0.1))
                for period in (10, math.inf) for seed in (0, 3)]
        q_config = QLearnerConfig(EpsilonSchedule(1.0, 0.05, 2000), discount=0.9)
        assert_lockstep_matches_train(factory, runs, q_config, 3000, 250, 10)


class TestLockstepArguments:
    def test_no_runs(self):
        assert train_lockstep(fixture_env_factory, [], [], QLearnerConfig(), 10, 5, 1) == []

    def test_mismatched_lengths(self):
        sched = mt.make_schedule(2, (0.3, 0.1))
        with pytest.raises(ValueError, match="2 schedules but 1 seeds"):
            train_lockstep(fixture_env_factory, [sched, sched], [0], QLearnerConfig(), 10, 5, 1)

    def test_agent_count_mismatch(self):
        sched = mt.make_schedule(3, (0.3, 0.1))
        with pytest.raises(ValueError, match="schedule is for 3 agents"):
            train_lockstep(fixture_env_factory, [sched], [0], QLearnerConfig(), 10, 5, 1)

    def test_seeded_env_rejected(self):
        def factory():
            return mt.ForagingEnv(mt.ForagingConfig(width=3, height=3, agent_levels=(1, 1),
                                                    food_levels=(1,)))

        sched = mt.make_schedule(2, (0.3, 0.1))
        for schedules, seeds in (([sched], [0]), ([], [])):
            with pytest.raises(ValueError, match="needs an environment with a fixed start"):
                train_lockstep(factory, schedules, seeds, QLearnerConfig(), 10, 5, 1)

    def test_bad_step_counts(self):
        sched = mt.make_schedule(2, (0.3, 0.1))
        with pytest.raises(ValueError, match="total_steps"):
            train_lockstep(fixture_env_factory, [sched], [0], QLearnerConfig(), 0, 5, 1)


epsilons = st.builds(EpsilonSchedule, st.sampled_from([0.0, 0.01, 0.5, 0.99, 1.0]),
                     st.sampled_from([0.0, 0.01, 0.5, 0.99, 1.0]), st.integers(1, 40))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n_actions=st.integers(1, 9), epsilon=epsilons,
       steps=st.integers(0, 60))
def test_exploration_draws_match_select_action(seed, n_actions, epsilon, steps):
    """The pre-drawn exploration consumes the stream as select_action does."""
    draws = _exploration(random.Random(seed), epsilon, n_actions, steps)
    # A table whose greedy action is always 0 marks every explored step that
    # drew a nonzero action; the streams must also end in the same state.
    reference_rng, drawn_rng = random.Random(seed), random.Random(seed)
    _exploration(drawn_rng, epsilon, n_actions, steps)
    marker = {0: [1.0] + [0.0] * (n_actions - 1)}
    assert len(draws) == steps
    for t, drawn in enumerate(draws):
        action = select_action(marker, 0, epsilon.value(t), reference_rng, n_actions)
        if drawn >= 0:
            assert action == drawn
        else:
            assert action == 0
    assert reference_rng.getstate() == drawn_rng.getstate()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n_actions=st.integers(1, 9), epsilon=epsilons,
       first=st.integers(0, 60), second=st.integers(0, 60))
def test_windowed_draws_continue_one_stream(seed, n_actions, epsilon, first, second):
    """Drawing [0, a) and then [a, b) from one rng is one draw of [0, b)."""
    rng, whole_rng = random.Random(seed), random.Random(seed)
    stop = first + second
    windows = (_exploration(rng, epsilon, n_actions, first)
               + _exploration(rng, epsilon, n_actions, stop, first))
    assert windows == _exploration(whole_rng, epsilon, n_actions, stop)
    assert rng.getstate() == whole_rng.getstate()
