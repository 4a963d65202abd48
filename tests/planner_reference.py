"""Reference planner: the exhaustive recursive plan search.

``optimal_return`` in ``mtlearn.envs`` plans by backward induction over a
table of time-free states. This is the direct search it replaced, kept as
the independent oracle its equivalence tests compare against. Values are
memoized by full environment state, step counter included, so the
recursion depth grows with the horizon.
"""

import copy
import itertools

from mtlearn.envs import SearchBudgetError


def reference_optimal_return(env, seed: int = 0, budget: int = 10_000_000) -> float:
    """Maximum achievable episode return, by exhaustive plan search.

    Works on a deep copy, so the passed environment is untouched. Raises
    :class:`SearchBudgetError` once more than ``budget`` joint actions
    have been expanded.
    """
    sim = copy.deepcopy(env)
    sim.reset(seed)
    joint_actions = list(itertools.product(*(range(k) for k in sim.action_counts)))
    memo: dict = {}
    expansions = 0

    def value(state) -> float:
        nonlocal expansions
        cached = memo.get(state)
        if cached is not None:
            return cached
        best = None
        for ja in joint_actions:
            expansions += 1
            if expansions > budget:
                raise SearchBudgetError(
                    f"plan search exceeded {budget} expansions; the environment "
                    f"is too large for exhaustive planning"
                )
            sim.set_state(state)
            res = sim.step(ja)
            v = res.reward if res.done else res.reward + value(sim.get_state())
            if best is None or v > best:
                best = v
        memo[state] = best
        return best

    return value(sim.get_state())
