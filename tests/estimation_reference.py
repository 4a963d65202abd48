"""Reference estimation learner, kept as it was first written.

:func:`train_estimation` here reads every step's rates with
``schedule.rates_at`` and checks for an eval point on every step.
``mtlearn.learners.train_estimation`` walks the run in ``learners._walk``'s
pieces instead, looking rates up once per piece. ``tests/test_learners.py``
holds it to this version bit for bit. The gradient, the error and the run
log are the package's own.
"""

from __future__ import annotations

import math

import numpy as np

from mtlearn.estimation import TeamEstimationProblem, team_mse_gradient
from mtlearn.learners import RunLog, _run_log, _safe_mse, estimation_gradient
from mtlearn.schedule import Schedule, parse_count, rates_at


def train_estimation(problem: TeamEstimationProblem, schedule: Schedule,
                     batch_size: int, total_steps: int, seed: int,
                     eval_every: int | None = None, exact_gradient: bool = False,
                     record_gains: bool = False) -> RunLog:
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
    for t in range(total_steps):
        if exact_gradient:
            grad = team_mse_gradient(problem, gains)
        else:
            x = rng.standard_normal(batch_size)
            y = x[:, None] + noise_std * rng.standard_normal((batch_size, n))
            grad = estimation_gradient(problem, gains, x, y)
        rates = np.array(rates_at(schedule, t))
        gains = gains - rates * precond * grad
        if record_gains:
            trace.append(tuple(gains))
        done_steps = t + 1
        if done_steps % eval_every == 0 or done_steps == total_steps:
            eval_points.append((done_steps, _safe_mse(problem, gains)))

    return _run_log(seed, eval_points, 0,
                    final_gains=tuple(float(g) for g in gains),
                    gains_trace=tuple(trace) if trace is not None else None)
