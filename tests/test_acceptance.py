"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL
line per criterion; each test also enforces its runtime budget.
"""

import functools
import math
import time

import numpy as np
import pytest

import mtlearn as mt
from mtlearn.estimation import Mode
from mtlearn.games import TieBreak, run_dynamics, is_agent_by_agent_optimal, sibr_step, team_payoff
from mtlearn.harness import (
    aggregate,
    gap_recovered,
    load_experiment_config,
    normalize_returns,
    run_sweep,
    smooth,
)
from mtlearn.learners import (
    EpsilonSchedule,
    QLearnerConfig,
    train,
    train_estimation,
    train_with_tables,
)
from mtlearn.linalg import eigvals
from mtlearn.reports import emit_reports

from conftest import (
    FIXTURE_DISCOUNT,
    FIXTURE_EPSILON,
    FIXTURE_EVAL_EPISODES,
    FIXTURE_EVAL_EVERY,
    FIXTURE_LEVELS,
    FIXTURE_SWITCH,
    FIXTURE_TOTAL_STEPS,
    MATCH_PAYOFF,
    fixture_env_factory,
    random_team_game,
)
from single_rate_reference import train_single_rate

RHO_SIBR = 6.0 * math.sqrt(6.0) / 27.0
RHO_IIBR = 4.0 / 3.0


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} FAIL: {description}")
                raise
            print(f"\nACCEPTANCE {number} PASS: {description}")
        return run
    return wrap


def eigenset_deviation(computed, expected) -> float:
    pool = list(expected)
    worst = 0.0
    assert len(computed) == len(pool)
    for v in computed:
        j = int(np.argmin([abs(v - e) for e in pool]))
        worst = max(worst, abs(v - pool.pop(j)))
    return worst


def geometric_mean_tail_ratio(errors, tail=10) -> float:
    errs = np.array([e for e in errors if 0.0 < e < np.inf])
    ratios = errs[1:] / errs[:-1]
    return float(np.exp(np.mean(np.log(ratios[-tail:]))))


@criterion(1, "exact spectral analysis of the three-agent estimation instance")
def test_criterion_1_spectral_analysis(coupled_problem):
    start = time.perf_counter()
    a_iibr = mt.iteration_matrix(coupled_problem, Mode.IIBR)
    a_sibr = mt.iteration_matrix(coupled_problem, Mode.SIBR)
    assert abs(mt.spectral_radius(a_iibr) - RHO_IIBR) <= 1e-9
    assert abs(mt.spectral_radius(a_sibr) - RHO_SIBR) <= 1e-9
    assert eigenset_deviation(eigvals(a_iibr), [-4.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0]) <= 1e-9
    expected_sibr = [0.0, (14 + math.sqrt(20) * 1j) / 27, (14 - math.sqrt(20) * 1j) / 27]
    assert eigenset_deviation(eigvals(a_sibr), expected_sibr) <= 1e-9
    assert time.perf_counter() - start < 1.0


@criterion(2, "sequential sweeps converge at the predicted rate, simultaneous diverge")
def test_criterion_2_convergence_divergence(coupled_problem):
    start = time.perf_counter()
    sibr = mt.run_br_iteration(coupled_problem, Mode.SIBR, np.zeros(3),
                               max_sweeps=60, tol=1e-8)
    assert sibr.converged and sibr.sweeps <= 60
    assert np.max(np.abs(sibr.iterates[-1] - 6.0 / 7.0)) <= 1e-8
    assert abs(geometric_mean_tail_ratio(sibr.errors) - RHO_SIBR) <= 0.05 * RHO_SIBR

    iibr = mt.run_br_iteration(coupled_problem, Mode.IIBR, np.zeros(3),
                               max_sweeps=1000, tol=1e-8)
    assert iibr.diverged
    assert abs(geometric_mean_tail_ratio(iibr.errors) - RHO_IIBR) <= 0.05 * RHO_IIBR
    assert time.perf_counter() - start < 1.0


@criterion(3, "monotone sequential improvement on 200 random team games")
def test_criterion_3_sequential_guarantees():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(200):
        game = random_team_game(rng)
        initial = tuple(int(rng.integers(c)) for c in game.action_counts)
        bound = int(np.prod(game.action_counts))

        profile = initial
        payoff = team_payoff(game, profile)
        for _ in range(bound + 1):
            before = profile
            for agent in range(game.n):
                profile = sibr_step(game, profile, agent, TieBreak.KEEP_CURRENT)
                new_payoff = team_payoff(game, profile)
                assert new_payoff >= payoff  # exact comparison, no tolerance
                payoff = new_payoff
            if profile == before:
                break

        trace = run_dynamics(game, Mode.SIBR, initial, max_rounds=bound + 1)
        assert trace.status == "converged"
        assert trace.round_ <= bound
        assert is_agent_by_agent_optimal(game, trace.final_profile)
    assert time.perf_counter() - start < 5.0


@criterion(4, "simultaneous updates cycle on the match game, sequential solve it")
def test_criterion_4_match_game(match_game):
    iibr = run_dynamics(match_game, Mode.IIBR, (0, 1), max_rounds=100)
    assert iibr.status == "cycle"
    assert iibr.period == 2
    sibr = run_dynamics(match_game, Mode.SIBR, (0, 1), max_rounds=100)
    assert sibr.status == "converged"
    assert sibr.final_payoff == 1.0


@criterion(5, "scheduler fairness, rotation, and regime reductions on 100 random configs")
def test_criterion_5_scheduler_invariants():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        s = int(rng.integers(1, 60))
        fast = float(rng.uniform(0.01, 1.0))
        slow = float(rng.uniform(0.0, fast))
        sched = mt.make_schedule(n, (fast, slow), s=s)

        # Fairness: each agent is fast exactly s steps in any n*s window.
        offset = int(rng.integers(0, 2 * n * s))
        counts = [0] * n
        for t in range(offset, offset + n * s):
            assign = mt.assignment(sched, t)
            fast_agents = [a for a, lvl in assign.items() if lvl == 0]
            assert len(fast_agents) == 1  # exactly-one-fast
            counts[fast_agents[0]] += 1
        assert counts == [s] * n

        # Periodicity and switching only at multiples of s.
        t_probe = int(rng.integers(0, 3 * n * s))
        assert mt.assignment(sched, t_probe + n * s) == mt.assignment(sched, t_probe)
        window_start = (t_probe // s) * s
        assert mt.assignment(sched, window_start) == mt.assignment(sched, t_probe)

        # Reductions.
        equal = mt.make_schedule(n, (fast, fast), s=s)
        assert mt.classify(equal) is mt.ScheduleKind.INDEPENDENT
        for t in range(0, 3 * s + 2):
            for agent in range(n):
                assert mt.learning_rate(equal, t, agent) == fast

        sequential = mt.make_schedule(n, (fast, 0.0), s=s)
        assert mt.classify(sequential) is mt.ScheduleKind.SEQUENTIAL
        for t in range(0, 3 * s + 2):
            nonzero = [a for a in range(n) if mt.learning_rate(sequential, t, a) != 0.0]
            assert len(nonzero) <= 1

        frozen = mt.make_schedule(n, (fast, slow), s=mt.INFINITE)
        base = mt.assignment(frozen, 0)
        for t in (1, s, 17 * s + 3, 10**8):
            assert mt.assignment(frozen, t) == base


@criterion(6, "equal-rate scheduling is byte-identical to the single-rate reference")
def test_criterion_6_learner_reductions():
    def match_factory():
        return mt.MatrixGameEnv(mt.make_game(MATCH_PAYOFF), horizon=5)

    q_config = QLearnerConfig(epsilon=EpsilonSchedule(1.0, 0.1, 400), discount=0.9)
    for factory in (match_factory, fixture_env_factory):
        for seed in (0, 1, 2):
            sched = mt.make_schedule(2, (0.25, 0.25), s=13)
            scheduled = train(factory, sched, q_config, total_steps=1200,
                              eval_every=400, eval_episodes=3, seed=seed)
            reference = train_single_rate(factory, 0.25, q_config, total_steps=1200,
                                          eval_every=400, eval_episodes=3, seed=seed)
            assert scheduled == reference

    # A frozen agent's table is bit-identical across its slow phase.
    sched = mt.make_schedule(2, (0.3, 0.0), s=300)
    q_config = QLearnerConfig(epsilon=EpsilonSchedule(1.0, 0.1, 500), discount=0.9)
    snapshots = {}
    for steps in (600, 900):  # agent 1 is fast on [300, 600), frozen on [600, 900)
        _, tables = train_with_tables(match_factory, sched, q_config, total_steps=steps,
                                      eval_every=300, eval_episodes=2, seed=3)
        snapshots[steps] = tables
    assert snapshots[600][1]
    assert snapshots[900][1] == snapshots[600][1]


@criterion(7, "scheduled tabular learning solves the cooperative foraging fixture")
def test_criterion_7_desk_scale_learning():
    start = time.perf_counter()
    env = fixture_env_factory()
    assert mt.optimal_return(env) == 1.0

    sched = mt.make_schedule(2, FIXTURE_LEVELS, s=FIXTURE_SWITCH)
    assert mt.classify(sched) is mt.ScheduleKind.MULTI_TIMESCALE
    q_config = QLearnerConfig(epsilon=EpsilonSchedule(*FIXTURE_EPSILON),
                              discount=FIXTURE_DISCOUNT)
    hits = 0
    finals = []
    for seed in range(20):
        log = train(fixture_env_factory, sched, q_config,
                    total_steps=FIXTURE_TOTAL_STEPS, eval_every=FIXTURE_EVAL_EVERY,
                    eval_episodes=FIXTURE_EVAL_EPISODES, seed=seed)
        finals.append(log.final_return)
        if log.final_return >= 0.99:
            hits += 1
    elapsed = time.perf_counter() - start
    assert hits >= 16, f"only {hits}/20 seeds reached 0.99 (finals: {finals})"
    assert elapsed < 120.0, f"fixture suite took {elapsed:.1f}s"


@criterion(8, "gradient learners reach the oracle optimum and mirror both sweep outcomes")
def test_criterion_8_estimation_learning(coupled_problem):
    oracle = 1.0 / 7.0
    sequential = mt.make_schedule(3, (0.05, 0.0), s=50)
    assert mt.classify(sequential) is mt.ScheduleKind.SEQUENTIAL
    log_seq = train_estimation(coupled_problem, sequential, batch_size=64,
                               total_steps=4000, seed=0)
    assert log_seq.eval_points[-1][1] <= oracle + 1e-2

    multi = mt.make_schedule(3, (0.05, 0.005), s=50)
    assert mt.classify(multi) is mt.ScheduleKind.MULTI_TIMESCALE
    log_multi = train_estimation(coupled_problem, multi, batch_size=64,
                                 total_steps=4000, seed=0)
    assert log_multi.eval_points[-1][1] <= oracle + 1e-2

    # Exact gradients at unit rate reproduce the two sweep outcomes.
    sync = train_estimation(coupled_problem, mt.make_schedule(3, (1.0, 1.0), s=1),
                            batch_size=1, total_steps=60, seed=0, exact_gradient=True)
    iibr = mt.run_br_iteration(coupled_problem, Mode.IIBR, np.zeros(3),
                               max_sweeps=60, tol=1e-8)
    assert iibr.diverged
    assert sync.eval_points[-1][1] > 1e6  # the same blow-up, seen through the objective

    rotating = train_estimation(coupled_problem, mt.make_schedule(3, (1.0, 0.0), s=1),
                                batch_size=1, total_steps=120, seed=0,
                                exact_gradient=True, record_gains=True)
    sibr = mt.run_br_iteration(coupled_problem, Mode.SIBR, np.zeros(3),
                               max_sweeps=40, tol=1e-8)
    assert sibr.converged
    assert rotating.eval_points[-1][1] <= oracle + 1e-8
    for sweep in range(len(sibr.iterates)):
        assert np.allclose(rotating.gains_trace[3 * sweep], sibr.iterates[sweep],
                           atol=1e-12)


@criterion(9, "harness metrics are exact and sweep outputs are byte-stable")
def test_criterion_9_harness_mechanics(tmp_path):
    assert normalize_returns({"A": 2.0, "B": 4.0, "C": 3.0}) == {"A": 0.0, "B": 1.0, "C": 0.5}
    with pytest.raises(ValueError):
        normalize_returns({"A": 5.0, "B": 5.0})
    assert gap_recovered(0.0, 0.0, 1.0) == 0.0
    assert gap_recovered(0.0, 1.0, 1.0) == 100.0
    assert gap_recovered(2.0, 3.0, 6.0) == 25.0
    assert smooth([0.0, 0.0, 0.0, 0.0, 5.0], window=5)[-1] == 1.0
    assert smooth([1.5, 2.5, 3.5], window=1) == [1.5, 2.5, 3.5]
    means = aggregate({"a": {"t1": 0.2, "t2": 0.4, "t3": 0.6}})
    assert means["a"] == (pytest.approx(0.4), pytest.approx(0.4))

    raw = {
        "env": {"kind": "matrix_game", "payoff": MATCH_PAYOFF, "horizon": 5},
        "grid": {"lr0": [0.5, 0.1], "lr1": [0.5, 0.1], "switch_periods": [5, 50]},
        "seeds": [0, 1, 2],
        "total_steps": 300,
        "eval_every": 100,
        "eval_episodes": 2,
        "q": {"discount": 0.9, "epsilon_start": 1.0, "epsilon_end": 0.1,
              "epsilon_decay_steps": 150},
    }
    emitted = {}
    for label, workers in (("first", 1), ("again", 1), ("pooled", 4)):
        result = run_sweep(load_experiment_config(raw), workers=workers)
        assert sum(len(c.runs) for c in result.cells) == 24
        out = tmp_path / label
        emit_reports(result, out)
        emitted[label] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    assert emitted["first"] == emitted["again"]
    assert emitted["first"] == emitted["pooled"]
    names = set(emitted["first"])
    digest = next(iter(names)).split("_")[1].split(".")[0]
    assert {f"heatmap_{digest}_s5.csv", f"heatmap_{digest}_s50.csv",
            f"curves_{digest}.csv", f"gain_{digest}.csv",
            f"sweep_{digest}.json"} <= names
    header = emitted["first"][f"curves_{digest}.csv"].split(b"\n", 1)[0]
    assert header == b"step,mean_return,stderr,regime,lr0,lr1,s"
