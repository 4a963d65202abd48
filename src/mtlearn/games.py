"""Best-response dynamics on finite shared-payoff games.

A team game is a payoff tensor shared by all agents. The dynamics
either update every agent simultaneously against the previous joint
action (IIBR) or cycle through the agents one at a time (SIBR).
Sequential updates can never decrease the shared payoff, so they
terminate at a joint action no single agent can improve; simultaneous
updates may cycle instead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .estimation import Mode
from .schedule import check_type, parse_count, parse_number


class TieBreak(enum.Enum):
    """Rule for resolving ties in the per-agent argmax.

    KEEP_CURRENT keeps the agent's current action whenever it is among
    the maximizers (so fixed points are exactly the joint actions that
    no unilateral move improves); LOWEST_INDEX always picks the
    smallest maximizing action id.
    """

    LOWEST_INDEX = "lowest_index"
    KEEP_CURRENT = "keep_current"


def _payoff_entries(value):
    """``value`` with each entry read by the number rule, so a string or a bool fails."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_payoff_entries(v) for v in value]
    return parse_number(value, "payoff")


@dataclass(frozen=True, eq=False)
class TeamGame:
    """Finite cooperative game with one payoff shared by all agents, checked whenever
    built: ``payoff`` is copied once into the game's own read-only float tensor, one
    axis per agent, and gives ``n`` and ``action_counts``. A payoff that is not a
    tensor of finite numbers (each by :func:`schedule.parse_number`), with at least
    one axis and no empty one, raises ValueError."""

    payoff: np.ndarray
    n: int = field(init=False)
    action_counts: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        try:
            arr = np.array(_payoff_entries(self.payoff), dtype=float)
        except (TypeError, ValueError):
            raise ValueError(f"payoff must be a tensor of numbers, got {self.payoff!r}") from None
        arr.setflags(write=False)
        for name, value in (("payoff", arr), ("n", arr.ndim), ("action_counts", arr.shape)):
            object.__setattr__(self, name, value)
        if self.n < 1:
            raise ValueError(f"need at least one agent, got n={self.n}")
        if any(c < 1 for c in self.action_counts):
            raise ValueError("every agent needs at least one action")
        if not np.all(np.isfinite(self.payoff)):
            raise ValueError("payoff entries must be finite")


make_game = TeamGame


@dataclass(frozen=True, eq=False)
class DynamicsTrace:
    """Round-by-round record of the joint action and its payoff.

    ``profiles[0]`` is the initial joint action; ``profiles[r]`` is the
    result of round r. ``status`` is ``"converged"`` (with ``round_``
    set), ``"cycle"`` (with ``period`` and ``start`` indices into
    ``profiles``), or ``"max_rounds"``.
    """

    mode: Mode
    profiles: tuple[tuple[int, ...], ...]
    payoffs: tuple[float, ...]
    status: str
    round_: int | None = None
    period: int | None = None
    start: int | None = None

    @property
    def final_profile(self) -> tuple[int, ...]:
        return self.profiles[-1]

    @property
    def final_payoff(self) -> float:
        return self.payoffs[-1]


def _check_profile(game: TeamGame, profile: Sequence[int],
                   name: str = "profile") -> tuple[int, ...]:
    """``profile`` as ints. A non-integer action fails the count rule
    (ValueError); an integer one out of range raises IndexError."""
    # Plain ints first and without a parse: the dynamics re-check every profile they build.
    prof = tuple(a if type(a) is int else int(a) if isinstance(a, np.integer)
                 else parse_count(a, name, minimum=0) for a in profile)
    if len(prof) != game.n:
        raise IndexError(f"profile length {len(prof)} != agent count {game.n}")
    for i, a in enumerate(prof):
        if not 0 <= a < game.action_counts[i]:
            raise IndexError(f"action {a} out of range [0, {game.action_counts[i]}) for agent {i}")
    return prof


def team_payoff(game: TeamGame, profile: Sequence[int]) -> float:
    """Shared payoff of a joint action (plain tensor lookup)."""
    return float(game.payoff[_check_profile(game, profile)])


def best_response(game: TeamGame, profile: Sequence[int], agent: int,
                  tie_break: TieBreak = TieBreak.KEEP_CURRENT) -> int:
    """Action maximizing the shared payoff with all other agents fixed. Of equal
    payoffs ``argmax`` keeps the lowest action id (payoffs are finite, see :class:`TeamGame`)."""
    check_type(tie_break, TieBreak, "tie_break")
    prof = _check_profile(game, profile)
    if not 0 <= agent < game.n:
        raise IndexError(f"agent {agent} out of range [0, {game.n})")
    line = game.payoff[prof[:agent] + (slice(None),) + prof[agent + 1:]]
    best = int(line.argmax())
    if tie_break is TieBreak.KEEP_CURRENT and line[prof[agent]] == line[best]:
        return prof[agent]
    return best


def iibr_step(game: TeamGame, profile: Sequence[int],
              tie_break: TieBreak = TieBreak.KEEP_CURRENT) -> tuple[int, ...]:
    """Every agent switches to its best response against the input profile."""
    check_type(tie_break, TieBreak, "tie_break")
    prof = _check_profile(game, profile)
    return tuple(best_response(game, prof, i, tie_break) for i in range(game.n))


def sibr_step(game: TeamGame, profile: Sequence[int], agent: int,
              tie_break: TieBreak = TieBreak.KEEP_CURRENT) -> tuple[int, ...]:
    """Only ``agent`` switches to its best response; everyone else is copied."""
    check_type(tie_break, TieBreak, "tie_break")
    prof = _check_profile(game, profile)
    br = best_response(game, prof, agent, tie_break)
    return prof[:agent] + (br,) + prof[agent + 1:]


def run_dynamics(game: TeamGame, mode: Mode, initial: Sequence[int],
                 max_rounds: int = 1000,
                 tie_break: TieBreak = TieBreak.KEEP_CURRENT) -> DynamicsTrace:
    """Run best-response rounds until a fixed point, a cycle, or the budget.

    One round is either a simultaneous update of all agents (IIBR) or a
    full pass over agents 0..n-1 in order (SIBR). A round whose result
    no further round would change ends the run as converged; a repeat
    of an earlier joint action ends it as a cycle (detected by exact
    profile hashing).
    """
    check_type(mode, Mode, "mode")
    check_type(tie_break, TieBreak, "tie_break")
    max_rounds = parse_count(max_rounds, "max_rounds")
    cur = _check_profile(game, initial, "initial")
    profiles = [cur]
    payoffs = [team_payoff(game, cur)]
    seen = {cur: 0}
    status = "max_rounds"
    round_ = period = start = None

    def next_round(prof: tuple[int, ...]) -> tuple[int, ...]:
        if mode is Mode.IIBR:
            return iibr_step(game, prof, tie_break)
        for agent in range(game.n):
            prof = sibr_step(game, prof, agent, tie_break)
        return prof

    # The next round tests convergence: a SIBR pass, too, keeps ``cur`` only at a fixed point.
    nxt = next_round(cur)
    for r in range(1, max_rounds + 1):
        cur = nxt
        profiles.append(cur)
        payoffs.append(team_payoff(game, cur))
        nxt = next_round(cur)
        if nxt == cur:
            status, round_ = "converged", r
            break
        if cur in seen:
            status = "cycle"
            start = seen[cur]
            period = len(profiles) - 1 - start
            break
        seen[cur] = len(profiles) - 1

    return DynamicsTrace(mode=mode, profiles=tuple(profiles), payoffs=tuple(payoffs),
                         status=status, round_=round_, period=period, start=start)


def is_agent_by_agent_optimal(game: TeamGame, profile: Sequence[int]) -> bool:
    """True iff no single-agent deviation strictly improves the payoff."""
    prof = _check_profile(game, profile)
    base = game.payoff[prof]
    return all(game.payoff[prof[:i] + (slice(None),) + prof[i + 1:]].max() <= base
               for i in range(game.n))
