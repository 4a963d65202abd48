"""Lockstep training: many scheduled Q-learning runs of one env as one numpy loop.

``train_lockstep`` returns, run for run, the logs that ``learners.train``
returns, bit for bit, while paying the per-step interpreter cost once for
every run. Its inputs are ``train``'s: ``learners._setup``'s complete
:class:`TransitionTable` of the env, read as is (its read-only arrays taken at
flat offsets), and ``learners._walk``'s pieces, with rates looked up once per
piece and exploration drawn one eval window at a time.
Sweeps use it (``harness.run_sweep``); it is a module of its own, imported
on first use, so importing the package does not load it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .envs import TransitionTable
from .learners import QLearnerConfig, RunLog, _run_log, _setup, _stays_finite, _walk
from .schedule import Schedule


def _first_max(rows: np.ndarray, finite: bool) -> np.ndarray:
    """Index of each row's maximum over the last axis, found as the scalar
    loop's ``row.index(max(row))`` finds it: the first strictly greater
    value wins, so a NaN is never picked after the first entry and a NaN
    first entry is never replaced. ``np.argmax`` agrees while every
    value is finite or a -inf pad."""
    if finite:
        return rows.argmax(-1)
    best = np.zeros(rows.shape[:-1], dtype=np.intp)
    best_value = rows[..., 0]
    for a in range(1, rows.shape[-1]):
        greater = rows[..., a] > best_value
        best[greater] = a
        best_value = np.where(greater, rows[..., a], best_value)
    return best


def _evaluate_lockstep(table: TransitionTable, obs: np.ndarray, q_rows: np.ndarray,
                       base: np.ndarray, episodes: int, finite: bool) -> list[float]:
    """``_evaluate_greedy`` for every run at once: from the env's fixed start
    the runs play their one greedy episode together. ``obs`` is
    ``table.obs`` as an array."""
    runs = len(base)
    live = np.arange(runs)
    state = np.full(runs, table.reset(0), dtype=np.intp)
    returns = np.zeros(runs)
    n_joint = len(table.joint_actions)
    steps = 0
    while live.size:
        rows = base[live] + obs.take(state, axis=0)
        joint = _first_max(q_rows.take(rows, axis=0), finite) @ table.strides
        entry = state * n_joint + joint
        returns[live] += table.reward.take(entry)
        steps += 1
        if steps >= table.horizon:
            break
        going = ~table.term.take(entry)
        live, state = live[going], table.next.take(entry)[going]
    total = np.zeros(runs)
    for _ in range(episodes):
        total = total + returns
    return (total / episodes).tolist()


def train_lockstep(env_factory, schedules: Sequence[Schedule], seeds: Sequence[int],
                   q_config: QLearnerConfig, total_steps: int, eval_every: int,
                   eval_episodes: int) -> list[RunLog]:
    """``train`` for many (schedule, seed) runs at once, as one numpy loop.

    Returns, for each run r, the log that ``train(env_factory,
    schedules[r], q_config, total_steps, eval_every, eval_episodes,
    seeds[r])`` returns, bit for bit. The env must have a fixed start
    (every env ``env_from_config`` builds has one); any other raises
    ``ValueError``. All runs advance together through the complete
    table, so a step is a few numpy calls over every run. Greedy choices
    and the bootstrap maximum follow the scalar loop's first-max fold, a
    zero rate leaves a table untouched, and every update does ``train``'s
    float operations in its order.
    """
    table, seeds, (total_steps, eval_every, eval_episodes) = _setup(
        env_factory, schedules, seeds, q_config, total_steps, eval_every, eval_episodes)
    if not table.fixed_start:
        raise ValueError("lockstep training needs an environment with a fixed start")
    runs, n = len(seeds), table.n
    if not runs:
        return []
    start = table.reset(0)
    discount, horizon = q_config.discount, table.horizon
    rates = np.array([schedule.rates_by_rotation for schedule in schedules])
    run_ids = np.arange(runs)
    # Facts of the complete table (an unfilled entry holds reward 0, term False):
    # does some entry end the episode, and do updates need the finite check?
    any_term = bool(table.term.any())
    check = not _stays_finite(rates, table.reward, total_steps)

    # The Q-tables of all runs as one array: row (base[r, i] + o) is run r,
    # agent i, dense observation o. Actions past an agent's count are -inf
    # pads, which the first-max fold never picks.
    width, observations = max(table.action_counts), table.obs_count
    q = np.zeros((runs, n, observations, width))
    for i, k in enumerate(table.action_counts):
        q[:, i, :, k:] = -np.inf
    q_rows, q_flat = q.reshape(-1, width), q.reshape(-1)
    base = (np.arange(runs * n, dtype=np.intp) * observations).reshape(runs, n)
    n_joint, strides = len(table.joint_actions), table.strides
    obs = np.array(table.obs, dtype=np.intp)
    row_starts = np.arange(runs * n, dtype=np.intp).reshape(runs, n) * width
    start_off = start * n_joint
    start_rows = base + obs[start]
    state_off = np.full(runs, start_off, dtype=np.intp)  # each run's state's first entry
    rows = start_rows.copy()  # each run's agents' Q-rows in that state
    ends = np.full(runs, horizon, dtype=np.intp)  # step count that cuts each run's episode
    next_cut = horizon  # the earliest of them, while only the horizon ends episodes

    finite = True
    eval_steps: list[int] = []
    eval_returns: list[list[float]] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for begin, stop, rotations, explore, evaluate in _walk(
                schedules, total_steps, eval_every, seeds, q_config.epsilon, table.action_counts):
            lr = rates[run_ids, rotations]
            for t1, greedy_t, forced_t in zip(range(begin + 1, stop + 1), explore < 0, explore):
                actions = np.where(greedy_t, _first_max(q_rows.take(rows, axis=0), finite),
                                   forced_t)
                entry = state_off + actions @ strides
                succ = table.next.take(entry)  # flat offsets into the complete table
                succ_rows = base + obs.take(succ, axis=0)
                succ_q = q_rows.take(succ_rows, axis=0)
                reward = table.reward.take(entry)[:, None]
                target = reward + discount * succ_q.take(row_starts + _first_max(succ_q, finite))
                if any_term:
                    done = table.term.take(entry) | (ends <= t1)
                    ended = np.count_nonzero(done)
                else:  # only the horizon ends episodes
                    ended = t1 >= next_cut
                    if ended:
                        done = ends <= t1
                if ended:  # an ending step does not bootstrap
                    np.copyto(target, reward, where=done[:, None])
                cells = rows * width + actions
                current = q_flat.take(cells)
                new = current + lr * (target - current)
                # inf or NaN, or a sum that overflows
                if check and finite and not math.isfinite(new.sum()):
                    finite = False
                if not finite:  # a zero rate leaves its entry untouched
                    learning = lr != 0.0
                    new, cells = new[learning], cells[learning]
                q_flat[cells] = new
                state_off, rows = succ * n_joint, succ_rows
                if ended:
                    np.copyto(ends, t1 + horizon, where=done)
                    if not any_term:
                        next_cut = int(ends.min())
                    np.copyto(state_off, start_off, where=done)
                    np.copyto(rows, start_rows, where=done[:, None])
            if evaluate:  # after the last step's resets, which evaluation does not read
                eval_steps.append(stop)
                eval_returns.append(_evaluate_lockstep(table, obs, q_rows, base,
                                                       eval_episodes, finite))

    return [_run_log(seed, zip(eval_steps, [returns[r] for returns in eval_returns]),
                     eval_episodes) for r, seed in enumerate(seeds)]
