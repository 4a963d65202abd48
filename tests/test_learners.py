import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtlearn as mt
from mtlearn import learners
from mtlearn.envs import MatrixGameEnv, SearchBudgetError
from mtlearn.estimation import Mode, run_br_iteration, team_mse
from mtlearn.learners import (
    EpsilonSchedule,
    QLearnerConfig,
    _exploration,
    _spawn_streams,
    _walk,
    estimation_gradient,
    runlog_to_csv,
    train,
    train_estimation,
    train_with_tables,
)
from mtlearn.schedule import rates_at

import estimation_reference
from conftest import MATCH_PAYOFF, fixture_env_factory
from single_rate_reference import greedy_action, q_update, select_action, train_single_rate


def match_env_factory():
    return MatrixGameEnv(mt.make_game(MATCH_PAYOFF), horizon=5)


def small_q_config(decay=200):
    return QLearnerConfig(epsilon=EpsilonSchedule(1.0, 0.1, decay), discount=0.9)


PERIODS = (1, 2, 3, 7, math.inf)


class TestQUpdate:
    def test_terminal_update_closed_form(self):
        table = {}
        new = q_update(table, obs=0, action=1, reward=1.0, next_obs=0, done=True,
                       lr=0.5, discount=0.9, n_actions=3)
        assert new == 0.5
        assert table[0] == [0.0, 0.5, 0.0]

    def test_bootstrapped_update_closed_form(self):
        table = {1: [0.0, 2.0]}
        new = q_update(table, obs=0, action=0, reward=0.0, next_obs=1, done=False,
                       lr=1.0, discount=0.9, n_actions=2)
        assert new == pytest.approx(1.8)

    def test_zero_rate_is_exact_noop(self):
        table = {0: [0.25, -1.0]}
        before = {k: list(v) for k, v in table.items()}
        value = q_update(table, obs=0, action=0, reward=99.0, next_obs=0, done=False,
                         lr=0.0, discount=0.9, n_actions=2)
        assert value == 0.25
        assert table == before
        # No row is materialized for unseen observations either.
        assert q_update(table, obs=7, action=1, reward=1.0, next_obs=0, done=True,
                        lr=0.0, discount=0.9, n_actions=2) == 0.0
        assert 7 not in table

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            q_update({}, 0, 0, 0.0, 0, True, -0.1, 0.9, 2)

    def test_contraction_to_fixed_point(self):
        # Single state, single action, constant reward: Q converges to
        # r / (1 - gamma) geometrically at rate (1 - lr * (1 - gamma)).
        table = {}
        r, gamma, lr = 1.0, 0.9, 0.25
        target = r / (1.0 - gamma)
        rate = 1.0 - lr * (1.0 - gamma)
        for t in range(1, 400):
            q_update(table, 0, 0, r, 0, False, lr, gamma, 1)
            expected_gap = target * rate ** t
            assert abs(table[0][0] - target) == pytest.approx(expected_gap, rel=1e-9)
        assert abs(table[0][0] - target) < 1e-4 * target


class TestSelectAction:
    def test_greedy_argmax(self):
        table = {0: [0.0, 5.0, 1.0]}
        rng = np.random
        assert select_action(table, 0, 0.0, rng, 3) == 1

    def test_greedy_tie_breaks_lowest(self):
        table = {0: [2.0, 2.0, 2.0]}
        assert select_action(table, 0, 0.0, np.random, 3) == 0
        assert greedy_action({}, 5, 4) == 0

    def test_uniform_at_epsilon_one(self):
        import random
        rng = random.Random(123)
        counts = [0] * 4
        draws = 10_000
        for _ in range(draws):
            counts[select_action({}, 0, 1.0, rng, 4)] += 1
        p = 1.0 / 4.0
        sigma = math.sqrt(draws * p * (1.0 - p))
        for c in counts:
            assert abs(c - draws * p) <= 3.0 * sigma

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            select_action({}, 0, 1.5, np.random, 2)


class TestEpsilonSchedule:
    def test_linear_decay(self):
        eps = EpsilonSchedule(1.0, 0.0, 10)
        assert eps.value(0) == 1.0
        assert eps.value(5) == pytest.approx(0.5)
        assert eps.value(10) == 0.0
        assert eps.value(10**6) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            EpsilonSchedule(2.0, 0.0, 10)
        with pytest.raises(ValueError):
            EpsilonSchedule(1.0, 0.0, 0)


class TestTrainReductions:
    @pytest.mark.parametrize("factory", [match_env_factory, fixture_env_factory])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equal_rates_reproduce_single_rate_reference(self, factory, seed):
        lr = 0.2
        sched = mt.make_schedule(2, (lr, lr), s=7)
        scheduled = train(factory, sched, small_q_config(), total_steps=1500,
                          eval_every=500, eval_episodes=3, seed=seed)
        reference = train_single_rate(factory, lr, small_q_config(), total_steps=1500,
                                      eval_every=500, eval_episodes=3, seed=seed)
        assert scheduled == reference
        assert runlog_to_csv(scheduled) == runlog_to_csv(reference)

    def test_dedup_equal_rate_runs_across_periods(self):
        lr = 0.3
        logs = []
        for s in (1, 50, mt.INFINITE):
            sched = mt.make_schedule(2, (lr, lr), s=s)
            logs.append(train(match_env_factory, sched, small_q_config(),
                              total_steps=800, eval_every=200, eval_episodes=2, seed=4))
        assert logs[0] == logs[1] == logs[2]

    def test_sequential_keeps_frozen_agent_tables_bit_identical(self):
        sched = mt.make_schedule(2, (0.3, 0.0), s=300)
        common = dict(eval_every=300, eval_episodes=2, seed=11)
        # Agent 1 is fast during [300, 600) and frozen during [600, 900).
        _, tables_600 = train_with_tables(match_env_factory, sched, small_q_config(),
                                          total_steps=600, **common)
        _, tables_900 = train_with_tables(match_env_factory, sched, small_q_config(),
                                          total_steps=900, **common)
        assert tables_600[1]  # learned something while fast
        assert tables_900[1] == tables_600[1]
        assert tables_900[0] != tables_600[0]  # the active agent kept moving

    def test_sequential_updates_touch_only_fast_agent(self):
        sched = mt.make_schedule(3, (0.4, 0.0), s=10)
        env_cfg = {"kind": "matrix_game", "payoff": np.ones((2, 2, 2)).tolist(),
                   "horizon": 4}
        _, tables = train_with_tables(lambda: mt.env_from_config(env_cfg), sched,
                                      small_q_config(), total_steps=10,
                                      eval_every=10, eval_episodes=1, seed=0)
        assert tables[0]  # fast agent during the first window
        assert tables[1] == {} and tables[2] == {}

    def test_determinism_same_seed_same_log(self):
        sched = mt.make_schedule(2, (0.3, 0.05), s=100)
        a = train(fixture_env_factory, sched, small_q_config(), 1000, 250, 2, seed=9)
        b = train(fixture_env_factory, sched, small_q_config(), 1000, 250, 2, seed=9)
        assert a == b
        c = train(fixture_env_factory, sched, small_q_config(), 1000, 250, 2, seed=10)
        assert a != c

    def test_validation_before_stepping(self):
        sched = mt.make_schedule(3, (0.1, 0.05), s=10)  # wrong agent count
        with pytest.raises(ValueError):
            train(match_env_factory, sched, small_q_config(), 10, 5, 1, seed=0)
        sched2 = mt.make_schedule(2, (0.1, 0.05), s=10)
        with pytest.raises(ValueError):
            train(match_env_factory, sched2, small_q_config(), 0, 5, 1, seed=0)

    def test_search_budget_fires_before_the_first_step(self, monkeypatch):
        # The fixture's table is 552 states x 36 joint actions, all expanded
        # before training; an env over the budget fails before any step or
        # exploration draw. A complete table is read through flat views, not
        # TransitionTable.step, so the run's pieces show that it trained.
        work = []
        walk, exploration = learners._walk, learners._exploration

        def recording_walk(*args):
            for piece in walk(*args):
                work.append(piece[:2])
                yield piece

        monkeypatch.setattr(learners, "_walk", recording_walk)
        monkeypatch.setattr(learners, "_exploration",
                            lambda *a: work.append("explore") or exploration(*a))
        sched = mt.make_schedule(2, (0.3, 0.05), s=50)
        monkeypatch.setattr(learners, "SEARCH_BUDGET", 552 * 36 - 1)
        with pytest.raises(SearchBudgetError, match="reachable-state search exceeded 19871 "):
            train(fixture_env_factory, sched, small_q_config(), 100, 50, 1, seed=0)
        assert work == []
        monkeypatch.setattr(learners, "SEARCH_BUDGET", 552 * 36)
        log = train(fixture_env_factory, sched, small_q_config(), 100, 50, 1, seed=0)
        # two agents' streams, drawn in each of the two eval windows, and
        # both windows' steps walked and evaluated
        assert work.count("explore") == 2 * 2
        assert [w for w in work if w != "explore"] == [(0, 50), (50, 100)]
        assert [step for step, _ in log.eval_points] == [50, 100]

    def test_runlog_csv_shape(self):
        sched = mt.make_schedule(2, (0.2, 0.1), s=10)
        log = train(match_env_factory, sched, small_q_config(), 400, 100, 2, seed=1)
        lines = runlog_to_csv(log).strip().split("\n")
        assert lines[0] == "step,mean_eval_return"
        assert lines[-1].startswith("final,")
        assert len(lines) == len(log.eval_points) + 2
        assert log.final_return == pytest.approx(
            sum(v for _, v in log.eval_points[-5:]) / min(5, len(log.eval_points)))


class TestStepKernel:
    def test_runs_with_one_agent_count_share_one_compiled_kernel(self):
        sched = mt.make_schedule(2, (0.3, 0.05), s=50)
        train(fixture_env_factory, sched, small_q_config(), 100, 50, 1, seed=0)
        kernel, compiled = learners._kernel(2), learners._kernel.cache_info().misses
        train(fixture_env_factory, sched, small_q_config(), 100, 50, 1, seed=1)
        train(match_env_factory, sched, small_q_config(), 100, 50, 1, seed=2)
        assert learners._kernel.cache_info().misses == compiled
        assert learners._kernel(2) is kernel and learners._kernel(3) is not kernel
        # compiled in the module's namespace, so it sees the module's names
        assert kernel.__globals__ is vars(learners)


class TestTrainEstimation:
    def test_zero_rates_leave_gains_unchanged(self, coupled_problem):
        sched = mt.make_schedule(3, (0.0, 0.0), s=5)
        log = train_estimation(coupled_problem, sched, batch_size=8, total_steps=50, seed=0)
        assert log.final_gains == (0.0, 0.0, 0.0)
        values = [v for _, v in log.eval_points]
        assert all(v == values[0] for v in values)
        assert values[0] == pytest.approx(1.0)

    def test_exact_gradient_rate_one_synchronized_is_jacobi(self, coupled_problem):
        sched = mt.make_schedule(3, (1.0, 1.0), s=1)
        log = train_estimation(coupled_problem, sched, batch_size=1, total_steps=12,
                               seed=0, exact_gradient=True, record_gains=True)
        trace = run_br_iteration(coupled_problem, Mode.IIBR, np.zeros(3),
                                 max_sweeps=12, tol=1e-15)
        for step in range(min(len(log.gains_trace), len(trace.iterates))):
            assert np.allclose(log.gains_trace[step], trace.iterates[step],
                               rtol=1e-12, atol=1e-13)

    def test_exact_gradient_rotating_zero_slow_is_gauss_seidel(self, coupled_problem):
        sched = mt.make_schedule(3, (1.0, 0.0), s=1)
        log = train_estimation(coupled_problem, sched, batch_size=1, total_steps=30,
                               seed=0, exact_gradient=True, record_gains=True)
        trace = run_br_iteration(coupled_problem, Mode.SIBR, np.zeros(3),
                                 max_sweeps=10, tol=1e-15)
        for sweep in range(min(len(log.gains_trace) // 3, len(trace.iterates))):
            assert np.allclose(log.gains_trace[3 * sweep], trace.iterates[sweep],
                               atol=1e-13)

    def test_stochastic_gradient_is_unbiased(self, coupled_problem):
        rng = np.random.default_rng(55)
        gains = np.array([0.3, -0.2, 0.5])
        batch = 200_000
        x = rng.standard_normal(batch)
        y = x[:, None] + math.sqrt(0.5) * rng.standard_normal((batch, 3))
        sample = estimation_gradient(coupled_problem, gains, x, y)
        # Central-difference oracle on the closed-form objective.
        h = 1e-5
        for i in range(3):
            up, down = gains.copy(), gains.copy()
            up[i] += h
            down[i] -= h
            central = (team_mse(coupled_problem, up) - team_mse(coupled_problem, down)) / (2 * h)
            resid = x[:, None] - y * gains[None, :]
            row_sum = resid.sum(axis=1)
            per = (-2.0 / 9.0) * y[:, i] * (resid[:, i] + (row_sum - resid[:, i]))
            stderr = float(np.std(per, ddof=1)) / math.sqrt(batch)
            assert abs(sample[i] - central) <= 3.0 * stderr

    def test_multi_timescale_reaches_oracle_optimum(self, coupled_problem):
        sched = mt.make_schedule(3, (0.05, 0.005), s=50)
        log = train_estimation(coupled_problem, sched, batch_size=64,
                               total_steps=4000, seed=1)
        assert log.eval_points[-1][1] <= 1.0 / 7.0 + 1e-2

    def test_divergence_is_logged_not_raised(self, coupled_problem):
        sched = mt.make_schedule(3, (1.0, 1.0), s=1)
        log = train_estimation(coupled_problem, sched, batch_size=1, total_steps=2000,
                               seed=0, exact_gradient=True)
        assert log.eval_points[-1][1] > 1e6 or not math.isfinite(log.eval_points[-1][1])

    def test_validation(self, coupled_problem):
        sched = mt.make_schedule(3, (0.1, 0.0), s=5)
        with pytest.raises(ValueError):
            train_estimation(coupled_problem, sched, batch_size=0, total_steps=10, seed=0)
        wrong = mt.make_schedule(2, (0.1, 0.0), s=5)
        with pytest.raises(ValueError):
            train_estimation(coupled_problem, wrong, batch_size=1, total_steps=10, seed=0)

    @pytest.mark.parametrize("s", PERIODS)
    @settings(max_examples=40, deadline=None)
    @given(problem=st.sampled_from([(1.0, 1.0, 0.5, 3), (1.0, 0.4, 1.0, 2), (2.0, -0.5, 0.2, 4)]),
           levels=st.lists(st.sampled_from([0.0, 0.05, 0.5, 1.0, 1.7]), min_size=1, max_size=2),
           batch_size=st.integers(1, 3), total_steps=st.integers(1, 150),
           seed=st.integers(0, 2 ** 32 - 1), eval_every=st.one_of(st.none(), st.integers(1, 40)),
           exact_gradient=st.booleans(), record_gains=st.booleans())
    def test_matches_the_per_step_reference(self, s, problem, levels, batch_size, total_steps,
                                            seed, eval_every, exact_gradient, record_gains):
        # Rates looked up once per piece give the per-step loop's run, bit for
        # bit (compared by repr, so a diverged NaN gain compares too).
        problem = mt.build_problem(*problem)
        sched = mt.make_schedule(problem.n, levels, s=s)
        args = (problem, sched, batch_size, total_steps, seed, eval_every, exact_gradient,
                record_gains)
        got, want = train_estimation(*args), estimation_reference.train_estimation(*args)
        for name in ("eval_points", "final_gains", "gains_trace", "final_return"):
            assert repr(getattr(got, name)) == repr(getattr(want, name))


class TestWalk:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(2, 3), eval_every=st.integers(2, 40),
           windows=st.integers(0, 5))
    def test_pieces_tile_the_run_with_each_steps_rates(self, data, n, eval_every, windows):
        total_steps = windows * eval_every + data.draw(st.integers(1, eval_every - 1))
        periods = data.draw(st.lists(st.sampled_from(PERIODS), min_size=1, max_size=4))
        schedules = [mt.make_schedule(n, (1.0 + r, 0.1 * r), s=s) for r, s in enumerate(periods)]
        seeds = data.draw(st.lists(st.sampled_from((0, 1, 2)), min_size=len(schedules),
                                   max_size=len(schedules)))
        counts = data.draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
        epsilon = EpsilonSchedule(1.0, data.draw(st.sampled_from((0.0, 0.3))),
                                  data.draw(st.integers(1, 2 * total_steps)))
        pieces = list(_walk(schedules, total_steps, eval_every, seeds, epsilon, counts))

        assert pieces[0][0] == 0 and pieces[-1][1] == total_steps
        for (_, stop, *_), (start, *_) in zip(pieces, pieces[1:]):
            assert start == stop
        for start, stop, rotations, explore, evaluate in pieces:
            assert start < stop and explore.shape == (stop - start, len(schedules), n)
            assert evaluate == (stop % eval_every == 0 or stop == total_steps)
            # a piece ends only at an eval point or where some run's rates rotate
            assert evaluate or any(stop % s == 0 for s in periods if s != math.inf)
            for r, schedule in enumerate(schedules):
                for t in range(start, stop):
                    assert schedule.rates_by_rotation[rotations[r]] == rates_at(schedule, t)
        assert sum(evaluate for *_, evaluate in pieces) == -(-total_steps // eval_every)

        # Each run's windows, joined, are its seed's whole-run draws.
        explore = np.concatenate([piece[3] for piece in pieces])
        for r, seed in enumerate(seeds):
            for i, rng in enumerate(_spawn_streams(seed, n)[2]):
                assert explore[:, r, i].tolist() == _exploration(rng, epsilon, counts[i],
                                                                 total_steps)
        # Without seeds the same pieces carry no exploration.
        bare = list(_walk(schedules, total_steps, eval_every))
        assert [(a, b, list(rot), ev) for a, b, rot, _, ev in bare] == \
            [(a, b, list(rot), ev) for a, b, rot, _, ev in pieces]
        assert all(piece[3].shape == (piece[1] - piece[0], 0, n) for piece in bare)
