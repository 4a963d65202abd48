"""Decentralized tabular learners driven by the rate scheduler.

Each agent owns a Q-table over its private observation ids and updates
it online with whatever learning rate the schedule assigns at that
update step, so independent, sequential, two-timescale, and rotating
multi-timescale training are all the same loop. It steps through one
:class:`envs.TransitionTable` of the env, built by ``_setup`` as for
``lockstep.train_lockstep``, walked in ``_walk``'s pieces with the per-step
rules inlined. A stochastic-gradient learner covers the estimation problem.

Randomness is fanned out from one master seed into separate streams
(episode seeds, per-agent exploration, evaluation), so evaluation never
perturbs training and changing the agent count never shifts the
episode stream.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .envs import SEARCH_BUDGET, TransitionTable
from .estimation import TeamEstimationProblem, team_mse, team_mse_gradient
from .schedule import Schedule, check_type, parse_count, parse_number

QTable = dict[int, list[float]]


@dataclass(frozen=True)
class EpsilonSchedule:
    """Linear exploration decay from start to end over decay_steps."""

    start: float = 1.0
    end: float = 0.05
    decay_steps: int = 1

    def __post_init__(self):
        if not all(0 <= parse_number(v, "epsilon bounds") <= 1 for v in (self.start, self.end)):
            raise ValueError("epsilon bounds must lie in [0, 1]")
        parse_count(self.decay_steps, "decay_steps")

    def value(self, t: int) -> float:
        if t >= self.decay_steps:
            return self.end
        return self.start + (self.end - self.start) * (t / self.decay_steps)


@dataclass(frozen=True)
class QLearnerConfig:
    epsilon: EpsilonSchedule = EpsilonSchedule()
    discount: float = 0.95

    def __post_init__(self):
        if not isinstance(self.epsilon, EpsilonSchedule):
            raise ValueError(f"epsilon must be an EpsilonSchedule, got {self.epsilon!r}")
        if not 0 <= parse_number(self.discount, "discount") <= 1:
            raise ValueError(f"discount must lie in [0, 1], got {self.discount}")


@dataclass(frozen=True)
class RunLog:
    """Evaluation trace of one seeded training run.

    ``eval_points`` holds (update step, mean greedy return over
    ``eval_episodes`` episodes); for estimation runs the second member
    is the exact team error and ``eval_episodes`` is 0. ``final_return``
    averages the last five eval points. Estimation runs also carry the
    final gain vector and, optionally, the whole gain trajectory.
    """

    seed: int
    eval_points: tuple[tuple[int, float], ...]
    final_return: float
    eval_episodes: int
    final_gains: tuple[float, ...] | None = None
    gains_trace: tuple[tuple[float, ...], ...] | None = None


def _final_window_mean(values: list[float], window: int = 5) -> float:
    if not values:
        raise ValueError("no evaluation points recorded")
    tail = values[-window:]
    return sum(tail) / len(tail)


def _run_log(seed: int, eval_points, eval_episodes: int, **gains) -> RunLog:
    """The :class:`RunLog` of ``(step, value)`` eval points, its final
    return the mean of the last five values."""
    eval_points = tuple(eval_points)
    return RunLog(seed=seed, eval_points=eval_points,
                  final_return=_final_window_mean([value for _, value in eval_points]),
                  eval_episodes=eval_episodes, **gains)


def runlog_to_csv(log: RunLog) -> str:
    lines = ["step,mean_eval_return"]
    for step, value in log.eval_points:
        lines.append(f"{step},{value!r}")
    lines.append(f"final,{log.final_return!r}")
    return "\n".join(lines) + "\n"


def _spawn_streams(seed: int, n_agents: int):
    """Master-seed fan-out: (episode rng, eval rng, per-agent exploration rngs)."""
    root = np.random.SeedSequence(seed)
    env_ss, eval_ss, explore_ss = root.spawn(3)

    def to_rng(ss: np.random.SeedSequence) -> random.Random:
        return random.Random(int.from_bytes(ss.generate_state(4, np.uint32).tobytes(), "little"))

    return to_rng(env_ss), to_rng(eval_ss), [to_rng(ss) for ss in explore_ss.spawn(n_agents)]


def _exploration(rng: random.Random, epsilon: EpsilonSchedule, n_actions: int,
                 stop: int, start: int = 0) -> list[int]:
    """One agent's exploration over steps ``[start, stop)``: each step's random
    action, or -1 where it acts greedily. Draws from ``rng`` as an epsilon-greedy
    choice with ``epsilon.value(t)`` does (the reference learner's ``select_action``
    in ``tests/``): ``random()`` while epsilon is positive, then, only when
    exploring, ``randrange(n_actions)``, computed as the standard library does
    (``getrandbits`` of the count's bit length until one is below it)."""
    rnd, getrandbits = rng.random, rng.getrandbits
    bits = n_actions.bit_length()
    first, last, decay = epsilon.start, epsilon.end, epsilon.decay_steps
    out = [-1] * (stop - start)
    for t in range(start, stop):
        e = last if t >= decay else first + (last - first) * (t / decay)
        if e > 0.0 and rnd() < e:
            a = getrandbits(bits)
            while a >= n_actions:
                a = getrandbits(bits)
            out[t - start] = a
    return out


def _walk(schedules: Sequence[Schedule], total_steps: int, eval_every: int,
          seeds: Sequence[int] = (), epsilon: EpsilonSchedule | None = None,
          counts: Sequence[int] = ()):
    """One run per schedule, walked in pieces ``(start, stop, rotations, explore,
    evaluate)`` split only where some run's rates rotate and at eval points
    (``evaluate`` set: every ``eval_every`` steps and the last). ``rotations[r]``
    is run r's rotation over the piece, ``explore`` the piece's ``(steps, runs,
    n)`` exploration (no runs without ``seeds``), drawn once per distinct seed,
    one eval window at a time, from rngs kept across windows."""
    n = schedules[0].n
    periods = np.array([int(s.switch_period) if s.is_switching else total_steps
                        for s in schedules])
    distinct = list(dict.fromkeys(seeds))
    rngs = [_spawn_streams(seed, n)[2] for seed in distinct]
    pick = [distinct.index(seed) for seed in seeds]
    dtype = np.min_scalar_type(-max(counts, default=1))
    for lo in range(0, total_steps, eval_every):
        hi = min(lo + eval_every, total_steps)
        draws = np.empty((hi - lo, len(distinct), n), dtype)
        for k, agent_rngs in enumerate(rngs):
            for i, rng in enumerate(agent_rngs):
                draws[:, k, i] = _exploration(rng, epsilon, counts[i], hi, lo)
        explore = draws.take(pick, axis=1)
        stops = sorted({hi}.union(*(range(lo - lo % p + p, hi, p) for p in set(periods.tolist()))))
        starts = [lo] + stops[:-1]
        for start, stop, rotations in zip(starts, stops, np.array(starts)[:, None] // periods % n):
            yield start, stop, rotations, explore[start - lo:stop - lo], stop == hi


def _evaluate_greedy(table: TransitionTable, tables: list[QTable], episodes: int,
                     eval_rng: random.Random) -> float:
    """Mean greedy return over ``episodes`` episodes, each from a reset seeded
    by ``eval_rng``; each distinct start state's episode is played once.
    ``tables`` are keyed by the table's dense observation ids."""
    strides, observations = table.strides.tolist(), table.obs
    returns: dict[int, float] = {}  # start state -> its episode's return
    total = 0.0
    for _ in range(episodes):
        start = table.reset(eval_rng.getrandbits(32))
        ep_return = returns.get(start)
        if ep_return is None:
            ep_return, state = 0.0, start
            for _ in range(table.horizon):
                joint = sum([(row.index(max(row)) if row is not None else 0) * stride
                             for row, stride in zip(map(dict.get, tables, observations[state]),
                                                    strides)])
                state, reward, term = table.step(state, joint)
                ep_return += reward
                if term:
                    break
            returns[start] = ep_return
        total += ep_return
    return total / episodes


def _setup(env_factory, schedules: Sequence[Schedule], seeds: Sequence[int],
           q_config: QLearnerConfig, total_steps: int, eval_every: int, eval_episodes: int
           ) -> tuple[TransitionTable, list[int], tuple[int, int, int]]:
    """The set-up of ``train_with_tables`` and ``lockstep.train_lockstep``.

    Before ``env_factory`` is called, checks the types of ``q_config`` and each
    schedule and parses the counts and seeds with :func:`schedule.parse_count`;
    then checks each schedule against the env's agent count and expands a
    fixed-start table from its start (raising :class:`envs.SearchBudgetError`
    past :data:`envs.SEARCH_BUDGET`). Returns the table, the seeds as ints and
    ``(total_steps, eval_every, eval_episodes)`` as ints.
    """
    check_type(q_config, QLearnerConfig, "q_config")
    for schedule in schedules:
        check_type(schedule, Schedule, "schedule")
    counts = (parse_count(total_steps, "total_steps"), parse_count(eval_every, "eval_every"),
              parse_count(eval_episodes, "eval_episodes"))
    seeds = [parse_count(seed, "seed", minimum=0) for seed in seeds]
    if len(schedules) != len(seeds):
        raise ValueError(f"{len(schedules)} schedules but {len(seeds)} seeds")
    table = TransitionTable(env_factory())
    for schedule in schedules:
        if schedule.n != table.n:
            raise ValueError(f"schedule is for {schedule.n} agents, environment has {table.n}")
    if table.fixed_start:
        table.expand_reachable(table.reset(0), SEARCH_BUDGET)
    return table, seeds, counts


def train_with_tables(env_factory, schedule: Schedule, q_config: QLearnerConfig,
                      total_steps: int, eval_every: int, eval_episodes: int,
                      seed: int) -> tuple[RunLog, list[QTable]]:
    """Scheduled decentralized Q-learning; also returns the learned tables,
    keyed by the env's own observations.

    The env comes from one ``env_factory()`` call, and training and greedy
    evaluation both step through one :class:`TransitionTable` of it, set up
    by ``_setup`` as for ``lockstep.train_lockstep``; only the step kernel
    differs. Training keys the Q-tables by the table's dense observation ids.
    """
    table, (seed,), (total_steps, eval_every, eval_episodes) = _setup(
        env_factory, [schedule], [seed], q_config, total_steps, eval_every, eval_episodes)
    n = table.n
    tables: list[QTable] = [{} for _ in range(n)]
    env_rng, eval_rng, _ = _spawn_streams(seed, n)
    state = table.reset(env_rng.getrandbits(32))
    action_counts, observations, horizon = table.action_counts, table.obs, table.horizon

    discount = q_config.discount
    agent_ids, strides = range(n), table.strides.tolist()

    eval_points: list[tuple[int, float]] = []
    episode_steps = 0
    for _, stop, rotations, explore, evaluate in _walk(
            [schedule], total_steps, eval_every, [seed], q_config.epsilon, action_counts):
        rates = schedule.rates_by_rotation[rotations[0]]
        for actions in explore[:, 0].tolist():
            obs = observations[state]
            joint = 0
            for i in agent_ids:  # a greedy agent's -1 becomes its first-max action
                a = actions[i]
                if a < 0:
                    row = tables[i].get(obs[i])
                    actions[i] = a = row.index(max(row)) if row is not None else 0
                joint += a * strides[i]
            state, reward, term = table.step(state, joint)
            episode_steps += 1
            done = term or episode_steps >= horizon
            next_obs = observations[state]
            for i in agent_ids:
                lr = rates[i]
                if lr == 0.0:  # a zero rate creates no row
                    continue
                q, o, a = tables[i], obs[i], actions[i]
                row = q.get(o)
                if row is None:
                    row = q[o] = [0.0] * action_counts[i]
                if done:  # an ending step does not bootstrap
                    target = reward
                else:
                    nxt = q.get(next_obs[i])
                    target = reward + discount * (max(nxt) if nxt is not None else 0.0)
                row[a] += lr * (target - row[a])
            if done:
                state = table.reset(env_rng.getrandbits(32))
                episode_steps = 0
        if evaluate:
            eval_points.append((stop, _evaluate_greedy(table, tables, eval_episodes, eval_rng)))

    own = [list(ids) for ids in table._obs_ids]  # dense id -> the env's observation
    return (_run_log(seed, eval_points, eval_episodes),
            [{ids[o]: row for o, row in q.items()} for q, ids in zip(tables, own)])


def train(env_factory, schedule: Schedule, q_config: QLearnerConfig,
          total_steps: int, eval_every: int, eval_episodes: int,
          seed: int) -> RunLog:
    """Scheduled decentralized Q-learning, returning the evaluation log."""
    return train_with_tables(env_factory, schedule, q_config, total_steps, eval_every,
                             eval_episodes, seed)[0]


def _safe_mse(problem: TeamEstimationProblem, gains: np.ndarray) -> float:
    """Team error with diverged iterates mapped to infinity instead of noise."""
    if not np.all(np.isfinite(gains)):
        return float("inf")
    with np.errstate(over="ignore", invalid="ignore"):
        value = team_mse(problem, gains)
    return value if math.isfinite(value) else float("inf")


def estimation_gradient(problem: TeamEstimationProblem, gains: np.ndarray,
                        x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sample-average gradient of the team error on a batch of draws.

    ``x`` has shape (batch,), ``y`` shape (batch, n). Unbiased for the
    analytic gradient ``(2 / n**2) * (gamma @ K - eta)``.
    """
    n = problem.n
    resid = x[:, None] - y * gains[None, :]
    row_sum = resid.sum(axis=1)
    per_agent = problem.p * resid + problem.q * (row_sum[:, None] - resid)
    return (-2.0 / (n * n)) * np.mean(y * per_agent, axis=0)


def train_estimation(problem: TeamEstimationProblem, schedule: Schedule,
                     batch_size: int, total_steps: int, seed: int,
                     eval_every: int | None = None, exact_gradient: bool = False,
                     record_gains: bool = False) -> RunLog:
    """Stochastic-gradient learning of the estimation gains.

    Every agent holds one gain, starting from zero. Each update step
    draws a fresh batch from the generative model (or uses the analytic
    gradient when ``exact_gradient`` is set) and every agent moves with
    its scheduled rate. Steps are preconditioned by the per-coordinate
    curvature, so a rate of exactly 1 with exact gradients performs an
    exact per-coordinate best response: synchronized rate-1 updates are
    the simultaneous-update iteration and one rotation of a zero-slow,
    period-1 schedule is the sequential one.

    The log records the exact team error at evaluation points.
    """
    check_type(schedule, Schedule, "schedule")
    batch_size = parse_count(batch_size, "batch_size")
    total_steps = parse_count(total_steps, "total_steps")
    seed = parse_count(seed, "seed", minimum=0)
    eval_every = parse_count(max(1, total_steps // 50) if eval_every is None else eval_every,
                             "eval_every")
    n = problem.n
    if schedule.n != n:
        raise ValueError(f"schedule is for {schedule.n} agents, problem has {n}")

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    gains = np.zeros(n)
    diag = np.diag(problem.gamma)
    precond = (n * n) / (2.0 * diag)
    noise_std = math.sqrt(problem.sigma2)

    trace = [tuple(gains)] if record_gains else None
    eval_points: list[tuple[int, float]] = []
    for start, stop, rotations, _, evaluate in _walk([schedule], total_steps, eval_every):
        rates = np.array(schedule.rates_by_rotation[rotations[0]])
        for _ in range(start, stop):
            if exact_gradient:
                grad = team_mse_gradient(problem, gains)
            else:
                x = rng.standard_normal(batch_size)
                y = x[:, None] + noise_std * rng.standard_normal((batch_size, n))
                grad = estimation_gradient(problem, gains, x, y)
            gains = gains - rates * precond * grad
            if record_gains:
                trace.append(tuple(gains))
        if evaluate:
            eval_points.append((stop, _safe_mse(problem, gains)))

    return _run_log(seed, eval_points, 0,
                    final_gains=tuple(float(g) for g in gains),
                    gains_trace=tuple(trace) if trace is not None else None)
