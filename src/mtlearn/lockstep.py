"""Lockstep training: many scheduled Q-learning runs of one env as one numpy loop.

``train_lockstep`` returns, run for run, the logs that ``learners.train``
returns, bit for bit, while paying the per-step interpreter cost once for
every run. The runs step through a :class:`TransitionTable` of the env,
filled on demand. Sweeps use it (``harness.run_sweep``); it is a module of
its own, imported on first use, so importing the package does not load it.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Sequence

import numpy as np

from .learners import (
    QLearnerConfig,
    RunLog,
    _final_window_mean,
    _spawn_streams,
    _validate_train_args,
)
from .schedule import Schedule


class TransitionTable:
    """An environment's transitions as arrays, filled on demand.

    States get dense ids in the order they are first seen, keyed by the
    time-free state ``get_state()[1:]``. Joint action ``j`` is the index of
    the joint action in ``itertools.product`` order, ``sum(a_i * strides[i])``.
    For state ``s``:

    - ``next[s, j]`` is the successor's id, or -1 while the entry is missing;
    - ``reward[s, j]`` is the step's reward;
    - ``term[s, j]`` is the step's ``done`` taken from step counter 0;
    - ``obs[s, i]`` is agent ``i``'s observation as a dense per-agent id,
      numbered in the order first seen.

    ``missing`` counts the entries of the states seen so far that are not
    filled yet; once it is 0, every successor is filled too.

    A missing entry is filled through the env's own ``set_state`` and
    ``step`` from step counter 0, as the planner does. The step counter
    only ends an episode at the horizon, so a step taken at counter ``t``
    ends the episode when ``term`` is set or ``t + 1 >= horizon``.
    Transitions are deterministic, so one table serves any number of runs
    of the same env without coupling them.
    """

    def __init__(self, env):
        self.env = env
        self.n = env.n
        self.horizon = env.horizon
        self.action_counts = tuple(env.action_counts)
        self.fixed_start = env.fixed_start
        self.joint_actions = list(itertools.product(*(range(k) for k in self.action_counts)))
        self.strides = np.array([int(np.prod(self.action_counts[i + 1:]))
                                 for i in range(self.n)], dtype=np.intp)
        self._keys: list[tuple] = []
        self._index: dict[tuple, int] = {}
        self._obs_ids: list[dict[int, int]] = [{} for _ in range(self.n)]
        self._start: int | None = None
        self.missing = 0
        shape = (64, len(self.joint_actions))  # rows double as states are seen
        self.next = np.full(shape, -1, dtype=np.intp)
        self.reward = np.zeros(shape)
        self.term = np.zeros(shape, dtype=bool)
        self.obs = np.zeros((shape[0], self.n), dtype=np.intp)

    @property
    def obs_count(self) -> int:
        """The most distinct observations any one agent has been given."""
        return max(len(ids) for ids in self._obs_ids)

    def reset(self, seed: int) -> int:
        """Id of the state ``env.reset(seed)`` starts in."""
        if self._start is not None:
            return self._start
        observations = self.env.reset(seed)
        state = self._intern(self.env.get_state()[1:], observations)
        if self.fixed_start:
            self._start = state
        return state

    def fill(self, states: np.ndarray, joints: np.ndarray) -> None:
        """Fill the missing entries among the (state, joint action) pairs."""
        env = self.env
        for s, j in dict.fromkeys(zip(states.tolist(), joints.tolist())):
            if self.next[s, j] >= 0:
                continue
            env.set_state((0,) + self._keys[s])
            res = env.step(self.joint_actions[j])
            succ = self._intern(env.get_state()[1:], res.observations)
            self.next[s, j] = succ
            self.reward[s, j] = res.reward
            self.term[s, j] = res.done
            self.missing -= 1

    def _intern(self, key: tuple, observations: Sequence[int]) -> int:
        state = self._index.setdefault(key, len(self._keys))
        if state < len(self._keys):
            return state
        self._keys.append(key)
        self.missing += len(self.joint_actions)
        if state == len(self.obs):
            self._grow()
        for i, o in enumerate(observations):
            ids = self._obs_ids[i]
            self.obs[state, i] = ids.setdefault(o, len(ids))
        return state

    def _grow(self) -> None:
        self.next = np.concatenate([self.next, np.full_like(self.next, -1)])
        self.reward = np.concatenate([self.reward, np.zeros_like(self.reward)])
        self.term = np.concatenate([self.term, np.zeros_like(self.term)])
        self.obs = np.concatenate([self.obs, np.zeros_like(self.obs)])


def _exploration(rng: random.Random, eps_values: list[float], n_actions: int) -> list[int]:
    """One agent's exploration over a run: each step's random action, or -1
    where it acts greedily.

    Draws from ``rng`` exactly as ``select_action`` does: ``random()``
    whenever epsilon is positive, then, only when exploring,
    ``randrange(n_actions)``, inlined as the standard library computes it
    (``getrandbits`` of the count's bit length until a value is below the
    count).
    """
    rnd, getrandbits = rng.random, rng.getrandbits
    bits = n_actions.bit_length()
    out = [-1] * len(eps_values)
    for t, e in enumerate(eps_values):
        if e > 0.0 and rnd() < e:
            a = getrandbits(bits)
            while a >= n_actions:
                a = getrandbits(bits)
            out[t] = a
    return out


def _first_max(rows: np.ndarray, finite: bool) -> np.ndarray:
    """Index of each row's maximum over the last axis, found as
    ``greedy_action`` and builtin ``max`` find it: the first strictly
    greater value wins, so a NaN is never picked after the first entry and
    a NaN first entry is never replaced. ``np.argmax`` agrees while every
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


class _LockstepQ:
    """The Q-tables of R runs of n agents, as one array.

    ``flat[(base[r, i] + o) * width + a]`` is run r, agent i, dense
    observation o, action a, and ``rows`` is the same array with one row
    per (run, agent, observation). Actions past an agent's count are -inf
    pads, which the first-max fold never picks. Rows grow with the
    transition table's observation count.
    """

    def __init__(self, runs: int, action_counts: Sequence[int]):
        self.runs = runs
        self.n = len(action_counts)
        self.width = max(action_counts)
        self.pad = np.zeros((self.n, self.width))
        for i, k in enumerate(action_counts):
            self.pad[i, k:] = -np.inf
        self.capacity = 0
        self._alloc(16)

    def _alloc(self, capacity: int) -> None:
        q = np.empty((self.runs, self.n, capacity, self.width))
        q[:] = self.pad[None, :, None, :]
        if self.capacity:
            q[:, :, :self.capacity] = self.rows.reshape(
                self.runs, self.n, self.capacity, self.width)
        self.capacity = capacity
        self.rows = q.reshape(-1, self.width)
        self.flat = q.reshape(-1)
        agent_rows = np.arange(self.runs * self.n, dtype=np.intp) * capacity
        self.base = agent_rows.reshape(self.runs, self.n)

    def fit(self, table: TransitionTable) -> None:
        """Make room for every observation the table has numbered."""
        needed = table.obs_count
        if needed > self.capacity:
            self._alloc(max(needed, 2 * self.capacity))

    def greedy(self, rows: np.ndarray, finite: bool) -> np.ndarray:
        """``greedy_action`` of each row; ``finite`` says no entry is NaN or inf."""
        return _first_max(self.rows.take(rows, axis=0), finite)

    def best(self, rows: np.ndarray, finite: bool) -> np.ndarray:
        """Builtin ``max`` of each row: its value at the greedy action."""
        return self.flat.take(rows * self.width + self.greedy(rows, finite))


def _evaluate_lockstep(table: TransitionTable, q: _LockstepQ, eval_rngs: list[random.Random],
                       episodes: int, finite: bool) -> list[float]:
    """``_evaluate_greedy`` for every run at once: all runs' episodes step
    together, each run's returns are summed episode by episode, in order.
    ``eval_rngs`` draw the reset seeds, and are empty when the env ignores
    them."""
    runs = q.runs
    if table.fixed_start:
        state = np.full(runs * episodes, table.reset(0), dtype=np.intp)
    else:
        state = np.array([table.reset(rng.getrandbits(32)) for rng in eval_rngs
                          for _ in range(episodes)], dtype=np.intp)
        q.fit(table)
    live = np.arange(runs * episodes)
    run_of = np.repeat(np.arange(runs), episodes)
    returns = np.zeros(runs * episodes)
    n_joint = len(table.joint_actions)
    steps = 0
    while live.size:
        joint = q.greedy(q.base[run_of[live]] + table.obs.take(state, axis=0), finite) \
            @ table.strides
        entry = state * n_joint + joint
        succ = table.next.take(entry)
        if table.missing and succ.min() < 0:
            table.fill(state, joint)
            q.fit(table)
            succ = table.next.take(entry)
        returns[live] += table.reward.take(entry)
        steps += 1
        if steps >= table.horizon:
            break
        going = ~table.term.take(entry)
        live, state = live[going], succ[going]
    total = np.zeros(runs)
    per_episode = returns.reshape(runs, episodes)
    for e in range(episodes):
        total = total + per_episode[:, e]
    return (total / episodes).tolist()


def train_lockstep(env_factory, schedules: Sequence[Schedule], seeds: Sequence[int],
                   q_config: QLearnerConfig, total_steps: int, eval_every: int,
                   eval_episodes: int, config_digest: str = "") -> list[RunLog]:
    """``train`` for many (schedule, seed) runs at once, as one numpy loop.

    Returns, for each run r, the log that ``train(env_factory,
    schedules[r], q_config, total_steps, eval_every, eval_episodes,
    seeds[r], config_digest)`` returns, bit for bit. All runs advance
    together through one :class:`TransitionTable` of the env, so the
    per-step cost is a few numpy calls over every run. Exploration does
    not depend on the Q-values, so each run's exploration is drawn ahead
    from its own streams in ``train``'s order. Greedy choices and the
    bootstrap maximum follow ``greedy_action``'s first-max fold, a zero
    rate leaves a table untouched, and every update does ``train``'s
    float operations in its order.
    """
    _validate_train_args(total_steps, eval_every, eval_episodes)
    if len(schedules) != len(seeds):
        raise ValueError(f"{len(schedules)} schedules but {len(seeds)} seeds")
    table = TransitionTable(env_factory())
    n = table.n
    for schedule in schedules:
        if schedule.n != n:
            raise ValueError(f"schedule is for {schedule.n} agents, environment has {n}")
    runs = len(seeds)
    if not runs:
        return []
    eps_values = [q_config.epsilon.value(t) for t in range(total_steps)]
    counts = table.action_counts
    explore = np.empty((total_steps, runs, n), dtype=np.min_scalar_type(-max(counts)))
    # Reset seeds are drawn only when the env uses them; the streams are
    # separate, so skipping their draws changes nothing else.
    env_rngs, eval_rngs = [], []
    for r, seed in enumerate(seeds):
        env_rng, eval_rng, explore_rngs = _spawn_streams(seed, n)
        for i, rng in enumerate(explore_rngs):
            explore[:, r, i] = _exploration(rng, eps_values, counts[i])
        if not table.fixed_start:
            env_rngs.append(env_rng)
            eval_rngs.append(eval_rng)
    discount = q_config.discount
    rates = np.array([schedule.rates_by_rotation for schedule in schedules])
    # A schedule that never switches stays at rotation 0 for every step.
    periods = np.array([int(s.switch_period) if s.is_switching else total_steps
                        for s in schedules], dtype=np.int64)
    rate_change = np.zeros(total_steps, dtype=bool)  # steps where some run rotates
    for period in set(periods.tolist()):
        rate_change[::period] = True
    run_ids = np.arange(runs)
    horizon = table.horizon

    q = _LockstepQ(runs, counts)
    if table.fixed_start:
        state = np.full(runs, table.reset(0), dtype=np.intp)
    else:
        state = np.array([table.reset(rng.getrandbits(32)) for rng in env_rngs],
                         dtype=np.intp)
    q.fit(table)
    n_joint = len(table.joint_actions)
    capacity = 0
    clock = np.zeros(runs, dtype=np.intp)  # per-run step counter within the episode
    finite = True
    eval_steps: list[int] = []
    eval_returns: list[list[float]] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(total_steps):
            if q.capacity != capacity:  # the tables grew since the last check: rows moved
                capacity = q.capacity
                rows = q.base + table.obs.take(state, axis=0)
                if table.fixed_start:
                    start_rows = q.base + table.obs[table.reset(0)]
            if rate_change[t]:
                lr = rates[run_ids, (t // periods) % n]
                learning = lr != 0.0
                all_learning = learning.all()
            forced = explore[t]
            actions = np.where(forced < 0, q.greedy(rows, finite), forced)
            joint = actions @ table.strides
            entry = state * n_joint + joint
            succ = table.next.take(entry)
            if table.missing and succ.min() < 0:
                table.fill(state, joint)
                q.fit(table)
                succ = table.next.take(entry)
                rows = q.base + table.obs.take(state, axis=0)  # moved if the tables grew
            reward = table.reward.take(entry)[:, None]
            clock += 1
            done = table.term.take(entry) | (clock >= horizon)
            succ_rows = q.base + table.obs.take(succ, axis=0)
            target = np.where(done[:, None], reward,
                              reward + discount * q.best(succ_rows, finite))
            cells = rows * q.width + actions
            current = q.flat.take(cells)
            new = current + lr * (target - current)
            if not all_learning:  # a zero rate leaves its entry untouched
                new, cells = new[learning], cells[learning]
            if finite and not math.isfinite(new.sum()):  # inf or NaN, or a sum that overflows
                finite = False
            q.flat[cells] = new
            state, rows = succ, succ_rows

            done_steps = t + 1
            if done_steps % eval_every == 0 or done_steps == total_steps:
                eval_steps.append(done_steps)
                eval_returns.append(_evaluate_lockstep(table, q, eval_rngs, eval_episodes,
                                                       finite))
            if done.any():
                clock[done] = 0
                if table.fixed_start:
                    state[done] = table.reset(0)
                    np.copyto(rows, start_rows, where=done[:, None])
                else:
                    for r in np.flatnonzero(done).tolist():
                        state[r] = table.reset(env_rngs[r].getrandbits(32))
                    q.fit(table)
                    rows[done] = q.base[done] + table.obs.take(state[done], axis=0)

    logs = []
    for r, seed in enumerate(seeds):
        values = [returns[r] for returns in eval_returns]
        logs.append(RunLog(seed=seed, eval_points=tuple(zip(eval_steps, values)),
                           final_return=_final_window_mean(values),
                           eval_episodes=eval_episodes, config_digest=config_digest))
    return logs
