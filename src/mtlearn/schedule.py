"""Multi-timescale learning-rate schedules.

All agents train concurrently, but the learning rate each agent uses
depends on which cluster it currently sits in. Clusters rotate over
the agents every ``s`` update steps, so with the default two-level
shape (one fast agent, the rest slow) the fast role walks round-robin
through the team. Degenerate settings recover the familiar regimes:
equal rates give independent learning, a zero slow rate gives
sequential learning, and an infinite switching period gives plain
two-timescale learning.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Sequence


class ScheduleError(ValueError):
    """Raised when schedule parameters are inconsistent."""


class ScheduleKind(enum.Enum):
    INDEPENDENT = "independent"
    SEQUENTIAL = "sequential"
    TWO_TIMESCALE = "two_timescale"
    MULTI_TIMESCALE = "multi_timescale"


INFINITE = math.inf


@dataclass(frozen=True)
class Schedule:
    """Rotating assignment of rate levels to agents.

    ``levels`` is ordered fast to slow (``levels[0]`` is the fast
    rate). ``cluster_sizes[h]`` agents carry ``levels[h]`` at any time;
    the assignment rotates by one agent every ``switch_period`` update
    steps (never, if the period is infinite).
    """

    n: int
    levels: tuple[float, ...]
    cluster_sizes: tuple[int, ...]
    switch_period: float  # positive integer count of update steps, or math.inf

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def is_switching(self) -> bool:
        return math.isfinite(self.switch_period)

    @functools.cached_property
    def rates_by_rotation(self) -> tuple[tuple[float, ...], ...]:
        """Rate of every agent, indexed by rotation, then by agent."""
        pos_level = position_levels(self)
        return tuple(tuple(self.levels[pos_level[(i - rot) % self.n]] for i in range(self.n))
                     for rot in range(self.n))


def make_schedule(n: int, levels: Sequence[float],
                  cluster_sizes: Sequence[int] | None = None,
                  s: float = INFINITE) -> Schedule:
    """Validate and build a :class:`Schedule`.

    ``cluster_sizes`` defaults to ``(1, n - 1)`` for two levels and to
    the whole team on one level when a single rate is given.

    Raises
    ------
    ScheduleError
        If the sizes do not sum to ``n``, a rate is negative or not
        finite, or the switching period is not a positive integer (or
        infinity).
    """
    if n < 1:
        raise ScheduleError(f"agent count must be positive, got {n}")
    levels = tuple(parse_rate(v) for v in levels)
    if not levels:
        raise ScheduleError("need at least one rate level")

    if cluster_sizes is None:
        if len(levels) == 1:
            cluster_sizes = (n,)
        elif len(levels) == 2 and n >= 2:
            cluster_sizes = (1, n - 1)
        else:
            raise ScheduleError("cluster_sizes required for this levels/n combination")
    cluster_sizes = tuple(int(c) for c in cluster_sizes)
    if len(cluster_sizes) != len(levels):
        raise ScheduleError(
            f"{len(levels)} levels but {len(cluster_sizes)} cluster sizes"
        )
    if any(c < 1 for c in cluster_sizes):
        raise ScheduleError(f"cluster sizes must be positive, got {cluster_sizes}")
    if sum(cluster_sizes) != n:
        raise ScheduleError(
            f"cluster sizes {cluster_sizes} sum to {sum(cluster_sizes)}, expected {n}"
        )

    return Schedule(n=n, levels=levels, cluster_sizes=cluster_sizes,
                    switch_period=parse_switch_period(s))


def parse_rate(value) -> float:
    """The learning-rate rule shared by schedules and sweep configs.

    Raises
    ------
    ScheduleError
        If the value is negative or not finite.
    """
    rate = float(value)
    if rate < 0 or not math.isfinite(rate):
        raise ScheduleError(f"rates must be finite and >= 0, got {rate}")
    return rate


def parse_switch_period(value) -> float:
    """The switching-period rule shared by schedules and sweep configs.

    A period is a positive integer number of update steps (``10`` or
    ``10.0``, returned as a float) or infinity (``math.inf`` or one of
    the strings "inf", "infinite", "infinity").

    Raises
    ------
    ScheduleError
        For any other value, such as ``10.5``, ``0`` or ``"soon"``.
    """
    if isinstance(value, str):
        if value.strip().lower() not in ("inf", "infinite", "infinity"):
            raise ScheduleError(f"unrecognized switching period {value!r}")
        return INFINITE
    if math.isinf(value):
        return INFINITE
    if math.isnan(value) or value != int(value) or int(value) < 1:
        raise ScheduleError(f"switching period must be a positive integer or inf, got {value}")
    return float(int(value))


def rotation_at(schedule: Schedule, t: int) -> int:
    """How many positions the cluster layout has rotated by step ``t``."""
    if t < 0:
        raise ValueError(f"update step must be >= 0, got {t}")
    if not schedule.is_switching:
        return 0
    return (t // int(schedule.switch_period)) % schedule.n


def _level_of_position(schedule: Schedule, pos: int) -> int:
    acc = 0
    for h, c in enumerate(schedule.cluster_sizes):
        acc += c
        if pos < acc:
            return h
    raise AssertionError("position outside cluster layout")


def assignment(schedule: Schedule, t: int) -> dict[int, int]:
    """Map from agent index to rate-level index at update step ``t``.

    At ``t = 0`` agents fill the clusters in index order (agent 0 in
    the fast cluster first). Every ``switch_period`` steps the layout
    rotates forward by one agent, so with the default (1, n-1) shape
    the fast agent at step t is ``(t // s) mod n``.
    """
    r = rotation_at(schedule, t)
    return {agent: _level_of_position(schedule, (agent - r) % schedule.n)
            for agent in range(schedule.n)}


def learning_rate(schedule: Schedule, t: int, agent: int) -> float:
    """Rate used by ``agent`` at update step ``t``."""
    if not 0 <= agent < schedule.n:
        raise IndexError(f"agent {agent} out of range [0, {schedule.n})")
    r = rotation_at(schedule, t)
    return schedule.levels[_level_of_position(schedule, (agent - r) % schedule.n)]


def rates_at(schedule: Schedule, t: int) -> tuple[float, ...]:
    """Rate of every agent at update step ``t``, indexed by agent.

    Equal to ``learning_rate(schedule, t, agent)`` for each agent, from a
    per-rotation table built once per schedule, so it is cheap enough to
    call on every update step.
    """
    return schedule.rates_by_rotation[rotation_at(schedule, t)]


def classify(schedule: Schedule) -> ScheduleKind:
    """Which learning regime the schedule reduces to.

    Equal rates on all levels mean independent learning regardless of
    switching. A two-level (1, n-1) schedule with a zero slow rate and
    finite switching is sequential learning. A non-degenerate schedule
    that never switches is two-timescale learning. Everything else is
    genuinely multi-timescale.
    """
    if all(v == schedule.levels[0] for v in schedule.levels):
        return ScheduleKind.INDEPENDENT
    if (schedule.num_levels == 2
            and schedule.cluster_sizes == (1, schedule.n - 1)
            and schedule.levels[1] == 0.0
            and schedule.is_switching):
        return ScheduleKind.SEQUENTIAL
    if not schedule.is_switching:
        return ScheduleKind.TWO_TIMESCALE
    return ScheduleKind.MULTI_TIMESCALE


def schedule_to_config(schedule: Schedule) -> dict:
    """JSON-ready form: {levels, cluster_sizes, switch_period}, inf as "inf"."""
    period: float | str = schedule.switch_period
    if not math.isfinite(period):
        period = "inf"
    else:
        period = int(period)
    return {
        "levels": list(schedule.levels),
        "cluster_sizes": list(schedule.cluster_sizes),
        "switch_period": period,
    }


def schedule_from_config(n: int, cfg: dict) -> Schedule:
    """Inverse of :func:`schedule_to_config`; accepts "inf" for the period."""
    return make_schedule(n, cfg["levels"], cfg.get("cluster_sizes"),
                         s=cfg.get("switch_period", "inf"))


def position_levels(schedule: Schedule) -> tuple[int, ...]:
    """Level index of each layout position (position 0 is fastest)."""
    return tuple(_level_of_position(schedule, p) for p in range(schedule.n))
