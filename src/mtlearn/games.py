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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimation import Mode
from .schedule import parse_count


class TieBreak(enum.Enum):
    """Rule for resolving ties in the per-agent argmax.

    KEEP_CURRENT keeps the agent's current action whenever it is among
    the maximizers (so fixed points are exactly the joint actions that
    no unilateral move improves); LOWEST_INDEX always picks the
    smallest maximizing action id.
    """

    LOWEST_INDEX = "lowest_index"
    KEEP_CURRENT = "keep_current"


@dataclass(frozen=True, eq=False)
class TeamGame:
    """Finite cooperative game with one payoff shared by all agents."""

    n: int
    action_counts: tuple[int, ...]
    payoff: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one agent, got n={self.n}")
        if len(self.action_counts) != self.n:
            raise ValueError("action_counts length must equal the agent count")
        if any(c < 1 for c in self.action_counts):
            raise ValueError("every agent needs at least one action")
        if self.payoff.shape != self.action_counts:
            raise ValueError(
                f"payoff tensor shape {self.payoff.shape} does not match "
                f"action counts {self.action_counts}"
            )
        if not np.all(np.isfinite(self.payoff)):
            raise ValueError("payoff entries must be finite")


def make_game(payoff) -> TeamGame:
    """Build a TeamGame from a payoff tensor (one axis per agent)."""
    arr = np.asarray(payoff, dtype=float)
    arr.setflags(write=False)
    return TeamGame(n=arr.ndim, action_counts=arr.shape, payoff=arr)


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


def _check_profile(game: TeamGame, profile: Sequence[int]) -> tuple[int, ...]:
    prof = tuple(int(a) for a in profile)
    if len(prof) != game.n:
        raise IndexError(f"profile length {len(prof)} != agent count {game.n}")
    for i, a in enumerate(prof):
        if not 0 <= a < game.action_counts[i]:
            raise IndexError(
                f"action {a} out of range [0, {game.action_counts[i]}) for agent {i}"
            )
    return prof


def team_payoff(game: TeamGame, profile: Sequence[int]) -> float:
    """Shared payoff of a joint action (plain tensor lookup)."""
    return float(game.payoff[_check_profile(game, profile)])


def best_response(game: TeamGame, profile: Sequence[int], agent: int,
                  tie_break: TieBreak = TieBreak.KEEP_CURRENT) -> int:
    """Action maximizing the shared payoff with all other agents fixed."""
    prof = _check_profile(game, profile)
    if not 0 <= agent < game.n:
        raise IndexError(f"agent {agent} out of range [0, {game.n})")
    idx = list(prof)
    best_a = 0
    best_v = -np.inf
    for a in range(game.action_counts[agent]):
        idx[agent] = a
        v = float(game.payoff[tuple(idx)])
        if v > best_v:
            best_v = v
            best_a = a
    if tie_break is TieBreak.KEEP_CURRENT:
        idx[agent] = prof[agent]
        if float(game.payoff[tuple(idx)]) == best_v:
            return prof[agent]
    return best_a


def iibr_step(game: TeamGame, profile: Sequence[int],
              tie_break: TieBreak = TieBreak.KEEP_CURRENT) -> tuple[int, ...]:
    """Every agent switches to its best response against the input profile."""
    prof = _check_profile(game, profile)
    return tuple(best_response(game, prof, i, tie_break) for i in range(game.n))


def sibr_step(game: TeamGame, profile: Sequence[int], agent: int,
              tie_break: TieBreak = TieBreak.KEEP_CURRENT) -> tuple[int, ...]:
    """Only ``agent`` switches to its best response; everyone else is copied."""
    prof = _check_profile(game, profile)
    br = best_response(game, prof, agent, tie_break)
    return prof[:agent] + (br,) + prof[agent + 1:]


def _is_fixed_point(game: TeamGame, profile: tuple[int, ...], tie_break: TieBreak) -> bool:
    return all(best_response(game, profile, i, tie_break) == profile[i]
               for i in range(game.n))


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
    max_rounds = parse_count(max_rounds, "max_rounds")
    cur = _check_profile(game, initial)
    profiles = [cur]
    payoffs = [team_payoff(game, cur)]
    seen = {cur: 0}
    status = "max_rounds"
    round_ = period = start = None

    for r in range(1, max_rounds + 1):
        if mode is Mode.IIBR:
            cur = iibr_step(game, cur, tie_break)
        else:
            for agent in range(game.n):
                cur = sibr_step(game, cur, agent, tie_break)
        profiles.append(cur)
        payoffs.append(team_payoff(game, cur))
        if _is_fixed_point(game, cur, tie_break):
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
    base = team_payoff(game, prof)
    idx = list(prof)
    for i in range(game.n):
        for a in range(game.action_counts[i]):
            if a == prof[i]:
                continue
            idx[i] = a
            if float(game.payoff[tuple(idx)]) > base:
                return False
        idx[i] = prof[i]
    return True
