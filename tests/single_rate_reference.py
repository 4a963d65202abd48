"""Independent live-env learner: the reference for ``learners.train``.

``learners.train`` steps through a ``TransitionTable`` of the env, with
exploration drawn ahead and its per-step rules inlined. This learner is
deliberately kept as its own plain loop: it calls the per-step rules
defined here, ``select_action``, ``q_update`` and ``greedy_action``, on
every step, reads each step's rates with ``schedule.rates_at`` (or uses one
fixed rate for every agent), and steps and evaluates on live env instances,
with no table. Criterion 6's
reduction runs it with one rate; ``tests/test_train_reference.py`` runs it
with schedules.
"""

from __future__ import annotations

import random

from mtlearn.learners import QLearnerConfig, QTable, RunLog, _final_window_mean, _spawn_streams
from mtlearn.schedule import Schedule, parse_count, rates_at


def q_update(table: QTable, obs: int, action: int, reward: float, next_obs: int,
             done: bool, lr: float, discount: float, n_actions: int) -> float:
    """One tabular Q-learning update; returns the new entry.

    A zero learning rate is an exact no-op: the table is not touched,
    not even to materialize a missing row.
    """
    if lr < 0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    if lr == 0.0:
        row = table.get(obs)
        return row[action] if row is not None else 0.0
    row = table.get(obs)
    if row is None:
        row = [0.0] * n_actions
        table[obs] = row
    if done:
        target = reward
    else:
        nxt = table.get(next_obs)
        target = reward + discount * (max(nxt) if nxt is not None else 0.0)
    row[action] += lr * (target - row[action])
    return row[action]


def greedy_action(table: QTable, obs: int, n_actions: int) -> int:
    row = table.get(obs)
    if row is None:
        return 0
    best = 0
    for a in range(1, n_actions):
        if row[a] > row[best]:
            best = a
    return best


def select_action(table: QTable, obs: int, epsilon: float, rng: random.Random,
                  n_actions: int) -> int:
    """Epsilon-greedy action; greedy ties break to the lowest action id."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    if epsilon > 0.0 and rng.random() < epsilon:
        return rng.randrange(n_actions)
    return greedy_action(table, obs, n_actions)


def evaluate_greedy_on_env(env, tables, action_counts, episodes: int,
                           eval_rng: random.Random) -> float:
    """Mean greedy return over ``episodes`` episodes of ``env``, reset for each."""
    total = 0.0
    for _ in range(episodes):
        obs = env.reset(eval_rng.getrandbits(32))
        ep_return = 0.0
        while True:
            actions = [greedy_action(tables[i], obs[i], action_counts[i])
                       for i in range(len(tables))]
            res = env.step(actions)
            ep_return += res.reward
            obs = res.observations
            if res.done:
                break
        total += ep_return
    return total / episodes


def train_reference(env_factory, rates: float | Schedule, q_config: QLearnerConfig,
                    total_steps: int, eval_every: int, eval_episodes: int,
                    seed: int) -> tuple[RunLog, list[dict]]:
    """Reference learner, returning the log and the Q-tables. ``rates`` is a
    schedule, read with ``rates_at`` on every step, or one rate that every
    agent always updates with."""
    for value, name in ((total_steps, "total_steps"), (eval_every, "eval_every"),
                        (eval_episodes, "eval_episodes")):
        parse_count(value, name)
    if not isinstance(rates, Schedule) and rates < 0:
        raise ValueError(f"learning rate must be >= 0, got {rates}")
    env = env_factory()
    eval_env = env_factory()
    n = env.n
    action_counts = env.action_counts
    tables = [{} for _ in range(n)]
    env_rng, eval_rng, explore_rngs = _spawn_streams(seed, n)
    eps = q_config.epsilon
    discount = q_config.discount

    eval_steps: list[int] = []
    eval_returns: list[float] = []
    obs = env.reset(env_rng.getrandbits(32))
    for t in range(total_steps):
        eps_t = eps.value(t)
        actions = [select_action(tables[i], obs[i], eps_t, explore_rngs[i], action_counts[i])
                   for i in range(n)]
        res = env.step(actions)
        lrs = rates_at(rates, t) if isinstance(rates, Schedule) else (rates,) * n
        for i in range(n):
            q_update(tables[i], obs[i], actions[i], res.reward, res.observations[i],
                     res.done, lrs[i], discount, action_counts[i])
        obs = res.observations
        done_steps = t + 1
        if done_steps % eval_every == 0 or done_steps == total_steps:
            if not eval_steps or eval_steps[-1] != done_steps:
                eval_steps.append(done_steps)
                eval_returns.append(evaluate_greedy_on_env(eval_env, tables, action_counts,
                                                           eval_episodes, eval_rng))
        if res.done:
            obs = env.reset(env_rng.getrandbits(32))

    log = RunLog(seed=seed,
                 eval_points=tuple(zip(eval_steps, eval_returns)),
                 final_return=_final_window_mean(eval_returns),
                 eval_episodes=eval_episodes)
    return log, tables


def train_single_rate(env_factory, lr: float, q_config: QLearnerConfig,
                      total_steps: int, eval_every: int, eval_episodes: int,
                      seed: int) -> RunLog:
    """Reference learner: every agent always updates with the same rate."""
    log, _ = train_reference(env_factory, lr, q_config, total_steps, eval_every,
                             eval_episodes, seed)
    return log
