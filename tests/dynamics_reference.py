"""Reference best-response dynamics, kept as they were first written.

Each round of :func:`run_dynamics` here is followed by a separate
convergence test, one simultaneous best-response step (``iibr_step(cur) ==
cur``), so every round computes its best responses twice.
``mtlearn.games.run_dynamics`` takes the next round's result as that test.
``tests/test_games.py`` holds it to this version trace for trace. The step
functions and the trace record are the package's own.
"""

from __future__ import annotations

from mtlearn.estimation import Mode
from mtlearn.games import DynamicsTrace, TieBreak, iibr_step, sibr_step, team_payoff


def run_dynamics(game, mode: Mode, initial, max_rounds: int = 1000,
                 tie_break: TieBreak = TieBreak.KEEP_CURRENT) -> DynamicsTrace:
    cur = tuple(initial)
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
        if iibr_step(game, cur, tie_break) == cur:
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
