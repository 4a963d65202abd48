"""Multi-timescale learning-rate schedules.

All agents train concurrently, but the learning rate each agent uses
depends on which cluster it currently sits in. Clusters rotate over
the agents every ``s`` update steps, so with the default two-level
shape (one fast agent, the rest slow) the fast role walks round-robin
through the team. Degenerate settings recover the familiar regimes:
equal rates give independent learning, a zero slow rate gives
sequential learning, and an infinite switching period gives plain
two-timescale learning.

The module also holds the field rules every checked value shares, each
defined once: the configs, the ``env`` block and the value types read their
fields with the ``parse_*`` functions and :func:`check_type` below.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
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
    """Rotating assignment of rate levels to agents, checked whenever built.

    ``levels`` is ordered fast to slow (``levels[0]`` is the fast
    rate). ``cluster_sizes[h]`` agents carry ``levels[h]`` at any time;
    the assignment rotates by one agent every ``switch_period`` update
    steps (never, if the period is infinite). ``cluster_sizes`` defaults
    to ``(1, n - 1)`` for two levels and to the whole team on one level
    when a single rate is given.

    Raises
    ------
    ScheduleError
        If ``n`` or a size is not an integer >= 1 (the :func:`parse_count` rule),
        the sizes do not sum to ``n``, a rate is negative or not finite, or
        the switching period is not a positive integer (or infinity).
    """

    n: int
    levels: tuple[float, ...]
    cluster_sizes: tuple[int, ...] | None = None
    switch_period: float = INFINITE  # positive integer count of update steps, or math.inf

    def __post_init__(self):
        try:
            n = parse_count(self.n, "n")
            cluster_sizes = (None if self.cluster_sizes is None else
                             tuple(parse_count(c, "cluster sizes") for c in self.cluster_sizes))
        except ValueError as err:
            raise ScheduleError(str(err)) from None
        levels = tuple(parse_rate(v) for v in self.levels)
        if not levels:
            raise ScheduleError("need at least one rate level")
        if cluster_sizes is None:
            if len(levels) == 1:
                cluster_sizes = (n,)
            elif len(levels) == 2 and n >= 2:
                cluster_sizes = (1, n - 1)
            else:
                raise ScheduleError("cluster_sizes required for this levels/n combination")
        if len(cluster_sizes) != len(levels):
            raise ScheduleError(f"{len(levels)} levels but {len(cluster_sizes)} cluster sizes")
        if sum(cluster_sizes) != n:
            raise ScheduleError(f"cluster sizes {cluster_sizes} sum to {sum(cluster_sizes)}, "
                                f"expected {n}")
        for name, value in (("n", n), ("levels", levels), ("cluster_sizes", cluster_sizes),
                            ("switch_period", parse_switch_period(self.switch_period))):
            object.__setattr__(self, name, value)

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def is_switching(self) -> bool:
        return math.isfinite(self.switch_period)

    @functools.cached_property
    def levels_by_rotation(self) -> tuple[tuple[int, ...], ...]:
        """Level index of every agent, indexed by rotation, then by agent: at
        rotation r, agent i holds the level of cluster position (i - r) mod n."""
        layout = [h for h, size in enumerate(self.cluster_sizes) for _ in range(size)]
        return tuple(tuple(layout[(i - rot) % self.n] for i in range(self.n))
                     for rot in range(self.n))

    @functools.cached_property
    def rates_by_rotation(self) -> tuple[tuple[float, ...], ...]:
        """Rate of every agent, indexed by rotation, then by agent."""
        return tuple(tuple(self.levels[h] for h in levels) for levels in self.levels_by_rotation)


def make_schedule(n: int, levels: Sequence[float],
                  cluster_sizes: Sequence[int] | None = None,
                  s: float = INFINITE) -> Schedule:
    """:class:`Schedule` with the switching period given as ``s``."""
    return Schedule(n, levels, cluster_sizes, s)


def _as_float(value) -> float | None:
    """``value`` as a float if it is a real number, else None: ``True``, ``10**400`` are none."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return None
    try:
        return float(value)
    except OverflowError:
        return None


def parse_number(value, name: str) -> float:
    """The rule for a real-valued field: a real number, never a string or a bool
    (``"0.5"``, ``True``), returned as a float. Each field checks its own range."""
    number = _as_float(value)
    if number is None:
        raise ValueError(f"{name} must be a number, got {value!r}")
    return number


def parse_rate(value) -> float:
    """The learning-rate rule shared by schedules and sweep configs: a real
    number (``0.3`` or ``1``), returned as a float.

    Raises
    ------
    ScheduleError
        If the value is negative, not finite, or not a real number, such as
        ``"0.3"`` or ``True``.
    """
    rate = _as_float(value)
    if rate is None:
        raise ScheduleError(f"rates must be real numbers, finite and >= 0, got {value!r}")
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
        For any other value, such as ``10.5``, ``0``, ``"soon"``, ``True``
        or ``None``.
    """
    if isinstance(value, str):
        if value.strip().lower() not in ("inf", "infinite", "infinity"):
            raise ScheduleError(f"unrecognized switching period {value!r}")
        return INFINITE
    period = _as_float(value)
    if period is None:
        raise ScheduleError(f"switching period must be a positive integer or inf, got {value!r}")
    if not (period >= 1 and (period == INFINITE or period.is_integer())):
        raise ScheduleError(f"switching period must be a positive integer or inf, got {value}")
    return period


def parse_count(value, name: str, minimum: int = 1) -> int:
    """The rule for a config's integer fields: an integer >= ``minimum``,
    given as ``10`` or ``10.0``. Counts of steps, episodes and the like
    keep the default 1; seeds, action ids and view radii pass 0.

    Raises
    ------
    ValueError
        For any other value, such as ``100.7``, ``0``, ``True`` or ``"10"``.
    """
    number = _as_float(value)
    if number is None or not math.isfinite(number) or number != int(number) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def parse_list(value, name: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a JSON list, got {value!r}")
    return list(value)


def parse_object(value, path: str, keys: tuple[str, ...], required: tuple[str, ...] = ()) -> dict:
    """``value`` as the config object at ``path`` ("" for the top level): a
    dict with every key in ``required`` and none outside ``keys``."""
    where = path or "config"
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object, got {value!r}")
    prefix = f"{path}." if path else ""
    unknown = [key for key in value if key not in keys]
    if unknown:
        names = ", ".join(repr(prefix + key) for key in unknown)
        raise ValueError(f"unknown key {names} in {where}; valid keys: {', '.join(keys)}")
    for key in required:
        if key not in value:
            raise ValueError(f"config is missing required key {prefix + key!r}")
    return value


def parse_choice(enum_type: type[enum.Enum], value, name: str):
    """The member of ``enum_type`` named ``value``, in any letter case."""
    names = [member.name.lower() for member in enum_type]
    if not isinstance(value, str) or value.lower() not in names:
        raise ValueError(f"unknown {name} {value!r}; expected one of {', '.join(names)}")
    return enum_type[value.upper()]


def check_type(value, kind: type, name: str) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a ``kind``: ``"iibr"`` is no Mode."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")


def rotation_at(schedule: Schedule, t: int) -> int:
    """How many positions the cluster layout has rotated by step ``t``."""
    if t < 0:
        raise ValueError(f"update step must be >= 0, got {t}")
    if not schedule.is_switching:
        return 0
    return (t // int(schedule.switch_period)) % schedule.n


def assignment(schedule: Schedule, t: int) -> dict[int, int]:
    """Map from agent index to rate-level index at update step ``t``.

    At ``t = 0`` agents fill the clusters in index order (agent 0 in
    the fast cluster first). Every ``switch_period`` steps the layout
    rotates forward by one agent, so with the default (1, n-1) shape
    the fast agent at step t is ``(t // s) mod n``.
    """
    return dict(enumerate(schedule.levels_by_rotation[rotation_at(schedule, t)]))


def learning_rate(schedule: Schedule, t: int, agent: int) -> float:
    """Rate used by ``agent`` at update step ``t``."""
    if not 0 <= agent < schedule.n:
        raise IndexError(f"agent {agent} out of range [0, {schedule.n})")
    return rates_at(schedule, t)[agent]


def rates_at(schedule: Schedule, t: int) -> tuple[float, ...]:
    """Rate of every agent at update step ``t``, indexed by agent.

    A read of the per-rotation table built once per schedule. Only
    :func:`learning_rate` and the reference learners in ``tests/`` call it;
    the training loops read the table once per ``learners._walk`` piece.
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
