"""Experiment orchestration: metrics, grid sweeps, seed replication.

A sweep runs scheduled Q-learning over the full (fast rate, slow rate,
switching period) grid for every seed, then aggregates the per-cell mean
and standard error of the final return. Cells partition into regimes by
their rate pair: equal rates are independent learning, a zero rate is
sequential learning, and the remaining off-diagonal cells are
multi-timescale. Equal-rate cells do not depend on the switching period,
so they are executed once and shared across periods.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

# Re-exported: harness.load_experiment_config and harness.run_sweep are the sweep API.
from .config import ExperimentConfig, load_experiment_config  # noqa: F401
from .envs import env_from_config
from .learners import RunLog
from .schedule import Schedule, parse_count


class DegenerateRangeError(ValueError):
    """Raised when min == max makes [0, 1] normalization undefined."""


class DegenerateGapError(ValueError):
    """Raised when the reference gap is zero."""


# ---------------------------------------------------------------------------
# Metrics


def normalize_returns(returns: Mapping[str, float]) -> dict[str, float]:
    """Affine map of one task's per-algorithm returns onto [0, 1]."""
    if len(returns) < 2:
        raise DegenerateRangeError("need returns from at least two algorithms")
    values = list(returns.values())
    lo, hi = min(values), max(values)
    if hi == lo:
        raise DegenerateRangeError(f"all returns equal ({lo}); range is degenerate")
    return {name: (v - lo) / (hi - lo) for name, v in returns.items()}


def aggregate(scores: Mapping[str, Mapping[str, float]]) -> dict[str, tuple[float, float]]:
    """(mean, median) across tasks per algorithm; task sets must agree."""
    if not scores:
        raise ValueError("no scores to aggregate")
    task_sets = {name: frozenset(per_task) for name, per_task in scores.items()}
    reference = next(iter(task_sets.values()))
    if not reference:
        raise ValueError("empty task set")
    for name, tasks in task_sets.items():
        if tasks != reference:
            raise ValueError(f"algorithm {name!r} covers different tasks")
    out = {}
    for name, per_task in scores.items():
        values = [per_task[t] for t in sorted(per_task)]
        out[name] = (sum(values) / len(values), float(statistics.median(values)))
    return out


def gap_recovered(dt: float, mdt: float, ctde: float) -> float:
    """Percentage of the centralized-vs-decentralized gap closed by mdt."""
    if ctde == dt:
        raise DegenerateGapError("reference gap is zero (ctde == dt)")
    return (mdt - dt) * 100.0 / (ctde - dt)


def smooth(curve: Sequence[float], window: int = 5) -> list[float]:
    """Trailing moving average; early points average the available prefix."""
    window = parse_count(window, "window")
    values = list(curve)
    if not values:
        raise ValueError("cannot smooth an empty curve")
    out = []
    acc = 0.0
    for i, v in enumerate(values):
        acc += v
        if i >= window:
            acc -= values[i - window]
        out.append(acc / min(i + 1, window))
    return out


def _stderr(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    return statistics.stdev(values) / math.sqrt(len(values))


REGIMES = ("independent", "sequential", "multi_timescale")  # in the order reports list them


def cell_regime(lr0: float, lr1: float) -> str:
    if lr0 == lr1:
        return "independent"
    if lr0 == 0.0 or lr1 == 0.0:
        return "sequential"
    return "multi_timescale"


# ---------------------------------------------------------------------------
# Sweep execution


class Job(NamedTuple):
    """One (cell, seed) training run of a sweep; ``schedule`` is the cell's
    entry in :attr:`ExperimentConfig.schedules`."""

    schedule: Schedule
    seed: int


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


# The least work, in run-steps (jobs x total_steps), that earns a batch of
# its own. A lockstep step costs nearly as much for a few runs as for a
# hundred, and every worker starts up and expands its own transition table,
# so only big sweeps gain from a split. The figure predates the current loop
# and was never re-tuned; at this loop a split did not win either (README
# "Lockstep sweeps", ROADMAP "Settled"). A lower one would split sweep_matrix
# at --workers 2, and the benchmark's peak_rss_mb would count a worker's RSS.
SPLIT_RUN_STEPS = 2_500_000
# The CPUs this process may run on: no sweep starts more workers than that.
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run_batch(config: ExperimentConfig,
               jobs: Sequence[Job]) -> list[tuple[RunLog | None, str | None]]:
    """Train a batch of jobs in one lockstep loop; top level so worker pools
    can pickle it. Returns (log, error) per job, in order. The batch fails
    as a unit: if the loop raises, every job of the batch fails with that
    error."""
    from .lockstep import train_lockstep  # loaded by the first sweep, not by the package

    try:
        logs = train_lockstep(functools.partial(env_from_config, config.env),
                              [job.schedule for job in jobs], [job.seed for job in jobs],
                              config.q_config, config.total_steps, config.eval_every,
                              config.eval_episodes)
    except Exception as exc:  # noqa: BLE001 - the batch's jobs fail, not the sweep
        return [(None, _error_text(exc))] * len(jobs)
    return [(log, None) for log in logs]


def _run_jobs(config: ExperimentConfig, jobs: Sequence[Job],
              workers: int) -> list[tuple[RunLog | None, str | None]]:
    """(log, error) of every job, in order.

    The jobs are split into contiguous batches, at most one per worker, per
    CPU (:data:`CPUS`) and per :data:`SPLIT_RUN_STEPS` run-steps of work: one batch
    runs in this process, more run one per pool task. Each batch succeeds or
    fails whole (:func:`_run_batch`). If a worker dies, every job of each
    batch left unfinished fails with the pool's error and the other batches
    keep their results.
    """
    count = max(1, min(workers, CPUS, len(jobs),
                       len(jobs) * config.total_steps // SPLIT_RUN_STEPS))
    if count <= 1:
        return _run_batch(config, jobs)
    from . import lockstep  # noqa: F401 - loaded before forking, so workers inherit it

    bounds = [len(jobs) * b // count for b in range(count + 1)]
    batches = [jobs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    outcomes: list[tuple[RunLog | None, str | None]] = []
    with ProcessPoolExecutor(max_workers=count) as pool:
        futures = [pool.submit(_run_batch, config, batch) for batch in batches]
        for batch, future in zip(batches, futures):
            try:
                outcomes += future.result()
            except BrokenProcessPool as exc:
                outcomes += [(None, _error_text(exc))] * len(batch)
    return outcomes


@dataclass(frozen=True)
class CellResult:
    lr0: float
    lr1: float
    period: float
    regime: str
    runs: tuple[RunLog | None, ...]
    errors: tuple[str | None, ...]
    final_mean: float
    final_stderr: float

    @property
    def ok(self) -> bool:
        return all(e is None for e in self.errors)


@dataclass(frozen=True)
class SweepResult:
    digest: str
    lr0_values: tuple[float, ...]
    lr1_values: tuple[float, ...]
    switch_periods: tuple[float, ...]
    seeds: tuple[int, ...]
    total_steps: int
    cells: tuple[CellResult, ...]  # lr0-major, then lr1, then period

    def cell(self, i0: int, i1: int, ip: int) -> CellResult:
        stride1 = len(self.switch_periods)
        stride0 = len(self.lr1_values) * stride1
        return self.cells[i0 * stride0 + i1 * stride1 + ip]

    def failures(self) -> list[tuple[CellResult, int, str]]:
        """(cell, seed, error) of every failed run, in grid order."""
        return [(cell, seed, err) for cell in self.cells
                for seed, err in zip(self.seeds, cell.errors) if err is not None]

    def best_cell(self, regime: str) -> CellResult:
        candidates = [c for c in self.cells if c.regime == regime and c.ok]
        if not candidates:
            raise ValueError(f"no successful cells in regime {regime!r}")
        return max(candidates, key=lambda c: c.final_mean)  # the first of equal means

    def summary(self) -> tuple[dict[str, CellResult], tuple[float, float] | None]:
        """The best cell of each regime in :data:`REGIMES` that has a
        successful one, and :meth:`performance_gain`, or None without it."""
        best = {}
        for regime in REGIMES:
            try:
                best[regime] = self.best_cell(regime)
            except ValueError:
                continue
        has_gain = "independent" in best and "multi_timescale" in best
        return best, self.performance_gain() if has_gain else None

    def performance_gain(self) -> tuple[float, float]:
        """Relative gain of the best multi-timescale cell over the best
        independent cell, with a first-order propagated standard error."""
        ind = self.best_cell("independent")
        mt = self.best_cell("multi_timescale")
        if mt.final_mean == ind.final_mean:
            return 0.0, 0.0
        if ind.final_mean == 0.0:
            return math.copysign(math.inf, mt.final_mean), math.inf
        gain = (mt.final_mean - ind.final_mean) / abs(ind.final_mean)
        err = math.sqrt(mt.final_stderr ** 2 + ind.final_stderr ** 2) / abs(ind.final_mean)
        return gain, err


def run_sweep(config: ExperimentConfig, workers: int = 1) -> SweepResult:
    """Run the full grid; equal-rate cells are executed once per seed.

    The unique (cell, seed) jobs are trained in lockstep batches
    (``lockstep.train_lockstep``), one per worker once the sweep is big
    enough to split (see :data:`SPLIT_RUN_STEPS`), and the results are
    reassembled in deterministic grid order, so the outcome does not
    depend on the worker count.
    """
    workers = parse_count(workers, "workers")
    # Each cell's schedule; equal-rate cells do not depend on the switching
    # period, so they run at the first one and the job itself is the dedup key.
    first_period = config.switch_periods[0]
    grid = [(lr0, lr1, period, config.schedules[lr0, lr1, first_period if lr0 == lr1 else period])
            for lr0 in config.lr0_values for lr1 in config.lr1_values
            for period in config.switch_periods]
    jobs = list(dict.fromkeys(Job(sched, seed) for *_, sched in grid for seed in config.seeds))
    outcomes = dict(zip(jobs, _run_jobs(config, jobs, workers)))

    cells: list[CellResult] = []
    for lr0, lr1, period, schedule in grid:
        runs, errors = zip(*(outcomes[Job(schedule, seed)] for seed in config.seeds))
        finals = [r.final_return for r in runs if r is not None]
        cells.append(CellResult(
            lr0=lr0, lr1=lr1, period=period, regime=cell_regime(lr0, lr1),
            runs=runs, errors=errors,
            final_mean=sum(finals) / len(finals) if finals else math.nan,
            final_stderr=_stderr(finals),
        ))

    return SweepResult(
        digest=config.digest, lr0_values=config.lr0_values, lr1_values=config.lr1_values,
        switch_periods=config.switch_periods, seeds=config.seeds,
        total_steps=config.total_steps, cells=tuple(cells),
    )
