"""Lockstep batches whose runs share seeds, as the runs of a sweep do.

A sweep trains every cell with the same few seeds, and ``train_lockstep``
draws each distinct seed's exploration once for all the runs that use it.
Every run must still return, byte for byte, the run log ``learners.train``
returns for it alone.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtlearn as mt
from mtlearn import learners, lockstep
from mtlearn.learners import QLearnerConfig

from conftest import CLIMBING_PAYOFF
from test_lockstep import (
    assert_lockstep_matches_train,
    foraging_factories,
    matrix_game_factories,
    q_configs,
    run_specs,
)


def shared_seed_runs(n: int):
    """2-6 (schedule, seed) runs with seeds from {0, 1, 2}, so seeds repeat."""
    return st.lists(st.tuples(run_specs(n).map(lambda spec: spec[0]), st.sampled_from((0, 1, 2))),
                    min_size=2, max_size=6)


class TestSharedSeedsMatchTrain:
    @settings(max_examples=100, deadline=None)
    @given(factory=matrix_game_factories(), q_config=q_configs, data=st.data(),
           total_steps=st.integers(1, 150), eval_every=st.integers(1, 60),
           eval_episodes=st.integers(1, 3))
    def test_matrix_games(self, factory, q_config, data, total_steps, eval_every,
                          eval_episodes):
        runs = data.draw(shared_seed_runs(factory().n))
        assert_lockstep_matches_train(factory, runs, q_config, total_steps, eval_every,
                                      eval_episodes)

    @settings(max_examples=40, deadline=None)
    @given(factory=foraging_factories(), q_config=q_configs, data=st.data(),
           total_steps=st.integers(1, 300), eval_every=st.integers(1, 120),
           eval_episodes=st.integers(1, 3))
    def test_foraging_layouts(self, factory, q_config, data, total_steps, eval_every,
                              eval_episodes):
        runs = data.draw(shared_seed_runs(factory().n))
        assert_lockstep_matches_train(factory, runs, q_config, total_steps, eval_every,
                                      eval_episodes)


def test_exploration_is_drawn_once_per_seed(monkeypatch):
    calls = []

    def counting_exploration(rng, epsilon, n_actions, stop, start=0):
        calls.append(n_actions)
        return exploration(rng, epsilon, n_actions, stop, start)

    exploration = learners._exploration
    monkeypatch.setattr(learners, "_exploration", counting_exploration)

    def factory():
        return mt.MatrixGameEnv(mt.make_game(CLIMBING_PAYOFF), horizon=5)

    schedules = [mt.make_schedule(2, levels, s=period)
                 for levels in ((0.5, 0.5), (0.5, 0.1), (0.1, 0.02)) for period in (10, 100)]
    lockstep.train_lockstep(factory, schedules, [7] * len(schedules), QLearnerConfig(),
                            200, 50, 2)
    # one stream per agent, for the one seed, drawn in each of the 4 eval windows
    assert calls == [3, 3] * 4
    calls.clear()
    lockstep.train_lockstep(factory, schedules, [7, 8, 9] * 2, QLearnerConfig(), 200, 50, 2)
    assert len(calls) == 3 * 2 * 4


@pytest.mark.parametrize("kernel", ["train", "train_lockstep"])
def test_exploration_is_drawn_one_eval_window_at_a_time(monkeypatch, kernel):
    # A run holds at most one eval window of exploration, so its memory does
    # not grow with total_steps; each stream is still drawn in step order.
    eval_every = 30
    total_steps = 10 * eval_every
    draws = {}  # each (seed, agent) stream -> the (start, stop) of its draws

    def recording_exploration(rng, epsilon, n_actions, stop, start=0):
        draws.setdefault(rng, []).append((start, stop))
        return exploration(rng, epsilon, n_actions, stop, start)

    exploration = learners._exploration
    monkeypatch.setattr(learners, "_exploration", recording_exploration)

    def factory():
        return mt.MatrixGameEnv(mt.make_game(CLIMBING_PAYOFF), horizon=5)

    schedule = mt.make_schedule(2, (0.5, 0.1), s=7)
    if kernel == "train":
        learners.train(factory, schedule, QLearnerConfig(), total_steps, eval_every, 1, 7)
    else:
        lockstep.train_lockstep(factory, [schedule] * 3, [7, 8, 7], QLearnerConfig(),
                                total_steps, eval_every, 1)
    assert len(draws) == (2 if kernel == "train" else 4)
    for steps in draws.values():
        assert all(0 < stop - start <= eval_every for start, stop in steps)
        assert [start for start, _ in steps] == [0] + [stop for _, stop in steps[:-1]]
        assert steps[-1][1] == total_steps
