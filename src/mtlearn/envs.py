"""Desk-scale cooperative environments with a shared episodic contract.

Both environments expose ``reset(seed) -> observations`` and
``step(joint_action) -> StepResult`` plus the per-agent action and
observation space sizes, so learners can treat them uniformly. The
matrix-game environment replays a fixed team game for a set horizon;
the foraging environment is a small gridworld where agents must stand
next to a food item and load it together.
"""

from __future__ import annotations

import copy
import itertools
import random
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .games import TeamGame, make_game


class SearchBudgetError(RuntimeError):
    """Raised when exhaustive planning would exceed its expansion budget."""


@dataclass(frozen=True)
class StepResult:
    observations: tuple[int, ...]
    reward: float
    done: bool


class MatrixGameEnv:
    """Repeated shared-payoff matrix game; all agents observe state id 0."""

    def __init__(self, game: TeamGame, horizon: int = 1):
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self.game = game
        self.horizon = horizon
        self.n = game.n
        self._t = 0

    @property
    def action_counts(self) -> tuple[int, ...]:
        return self.game.action_counts

    @property
    def observation_space_sizes(self) -> tuple[int, ...]:
        return (1,) * self.n

    @property
    def fixed_start(self) -> bool:
        """True: ``reset`` ignores its seed."""
        return True

    def reset(self, seed: int = 0) -> tuple[int, ...]:
        self._t = 0
        return (0,) * self.n

    def step(self, joint_action: Sequence[int]) -> StepResult:
        acts = tuple(int(a) for a in joint_action)
        if len(acts) != self.n:
            raise ValueError(f"expected {self.n} actions, got {len(acts)}")
        for i, a in enumerate(acts):
            if not 0 <= a < self.game.action_counts[i]:
                raise ValueError(f"invalid action {a} for agent {i}")
        reward = float(self.game.payoff[acts])
        self._t += 1
        return StepResult(observations=(0,) * self.n, reward=reward,
                          done=self._t >= self.horizon)

    def get_state(self):
        return (self._t,)

    def set_state(self, state) -> None:
        (self._t,) = state


# Action ids for the foraging gridworld.
UP, DOWN, LEFT, RIGHT, STAY, LOAD = range(6)
_MOVES = {UP: (-1, 0), DOWN: (1, 0), LEFT: (0, -1), RIGHT: (0, 1)}


@dataclass(frozen=True)
class ForagingConfig:
    """Layout and rules for the foraging gridworld.

    Positions are (row, col). ``agent_positions`` / ``food_positions``
    may be None, in which case the reset seed draws distinct free cells.
    ``view_radius`` of None means full observability (every agent sees
    the complete state id); otherwise an agent only resolves entities
    within the given Chebyshev radius. With ``cooperative_only`` set,
    every food must be too heavy for any single agent.
    """

    width: int
    height: int
    agent_levels: tuple[int, ...]
    food_levels: tuple[int, ...]
    agent_positions: tuple[tuple[int, int], ...] | None = None
    food_positions: tuple[tuple[int, int], ...] | None = None
    horizon: int = 50
    cooperative_only: bool = False
    view_radius: int | None = None

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("grid must be at least 1x1")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if not self.agent_levels or any(l < 1 for l in self.agent_levels):
            raise ValueError("agent levels must be positive integers")
        if not self.food_levels or any(l < 1 for l in self.food_levels):
            raise ValueError("food levels must be positive integers")
        if max(self.food_levels) > sum(self.agent_levels):
            raise ValueError("unsolvable layout: a food exceeds the combined agent level")
        if self.cooperative_only and min(self.food_levels) <= max(self.agent_levels):
            raise ValueError("cooperative_only requires every food to need more than one agent")
        for positions, count, label in (
            (self.agent_positions, len(self.agent_levels), "agent"),
            (self.food_positions, len(self.food_levels), "food"),
        ):
            if positions is None:
                continue
            if len(positions) != count:
                raise ValueError(f"{label} positions do not match {label} count")
            for r, c in positions:
                if not (0 <= r < self.height and 0 <= c < self.width):
                    raise ValueError(f"{label} position ({r}, {c}) outside the grid")
        fixed = list(self.agent_positions or ()) + list(self.food_positions or ())
        if len(set(fixed)) != len(fixed):
            raise ValueError("fixed positions overlap")
        total_cells = self.width * self.height
        if len(self.agent_levels) + len(self.food_levels) > total_cells:
            raise ValueError("more entities than grid cells")
        if self.view_radius is not None and self.view_radius < 0:
            raise ValueError("view radius must be >= 0")

    @property
    def n(self) -> int:
        return len(self.agent_levels)


def foraging_config_from_ascii(rows: Sequence[str], horizon: int = 50,
                               cooperative_only: bool = False,
                               view_radius: int | None = None) -> ForagingConfig:
    """Parse an ASCII layout into a fixed-position config.

    Digits 1-9 are agents with that level, letters a-i are foods with
    level 1-9, '.' (or space) is an empty cell. Agents and foods are
    numbered in reading order.
    """
    if not rows:
        raise ValueError("empty layout")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("layout rows must have equal length")
    agent_levels: list[int] = []
    agent_positions: list[tuple[int, int]] = []
    food_levels: list[int] = []
    food_positions: list[tuple[int, int]] = []
    for r, row in enumerate(rows):
        for c, ch in enumerate(row):
            if ch in ". ":
                continue
            if ch.isdigit() and ch != "0":
                agent_levels.append(int(ch))
                agent_positions.append((r, c))
            elif "a" <= ch <= "i":
                food_levels.append(ord(ch) - ord("a") + 1)
                food_positions.append((r, c))
            else:
                raise ValueError(f"unrecognized layout character {ch!r} at ({r}, {c})")
    return ForagingConfig(
        width=width, height=len(rows),
        agent_levels=tuple(agent_levels), food_levels=tuple(food_levels),
        agent_positions=tuple(agent_positions), food_positions=tuple(food_positions),
        horizon=horizon, cooperative_only=cooperative_only, view_radius=view_radius,
    )


class _MemoNode(NamedTuple):
    """One time-free state in a ``ForagingEnv`` transition memo.

    Successors are node indices, not references, so the memo holds no
    reference cycles and is freed with its env.
    """

    agent_pos: tuple[tuple[int, int], ...]
    food_alive: tuple[bool, ...]
    edges: dict  # joint action -> (successor index, StepResult)
    results: dict  # reward -> StepResult into this node; done = every food gone
    observations: tuple[int, ...]


class ForagingEnv:
    """Cooperative level-based foraging on a small grid.

    Actions per agent: 0 up, 1 down, 2 left, 3 right, 4 stay, 5 load.
    Moves are resolved in agent-index order; a move onto a wall, another
    agent, or an uncollected food is ignored. A food is collected when
    the agents adjacent to it (4-neighborhood) that chose LOAD have a
    combined level at least the food's level; the reward is the food
    level divided by the total food level, so clearing everything in
    one episode yields exactly 1.0.

    Each instance memoises the transitions it computes, keyed by the
    time-free state and the joint action, so a revisited step is a
    dictionary lookup; ``set_state`` turns the memo off for that instance.
    """

    def __init__(self, config: ForagingConfig):
        self.config = config
        self.n = config.n
        self._total_level = float(sum(config.food_levels))
        self._fixed_positions = None
        if config.agent_positions is not None and config.food_positions is not None:
            self._fixed_positions = (tuple(config.agent_positions),
                                     tuple(config.food_positions))
        self._agent_pos: tuple[tuple[int, int], ...] = ()
        self._food_pos: tuple[tuple[int, int], ...] = ()
        self._food_alive: tuple[bool, ...] = ()
        self._t = 0
        # Transition memo: ``_memo`` maps a time-free state to its index in
        # ``_nodes``, and ``_edges`` is the current node's edges. All three are
        # None once ``set_state`` has been called.
        self._memo: dict | None = {}
        self._nodes: list[_MemoNode] | None = []
        self._edges: dict | None = None

    @property
    def horizon(self) -> int:
        return self.config.horizon

    @property
    def action_counts(self) -> tuple[int, ...]:
        return (6,) * self.n

    @property
    def observation_space_sizes(self) -> tuple[int, ...]:
        cfg = self.config
        cells = cfg.width * cfg.height
        m = len(cfg.food_levels)
        if cfg.view_radius is None:
            size = cells ** self.n * (2 ** m)
            return (size,) * self.n
        base = (2 * cfg.view_radius + 1) ** 2 + 1
        size = cells * base ** (self.n - 1 + m)
        return (size,) * self.n

    @property
    def fixed_start(self) -> bool:
        """True when every position is fixed, so ``reset`` ignores its seed."""
        return self._fixed_positions is not None

    def reset(self, seed: int = 0) -> tuple[int, ...]:
        if self._fixed_positions is not None:
            self._agent_pos, self._food_pos = self._fixed_positions
        else:
            self._agent_pos, self._food_pos = self._draw_positions(seed)
        self._food_alive = (True,) * len(self.config.food_levels)
        self._t = 0
        if self._memo is not None:
            return self._nodes[self._enter_node()].observations
        return self._observations()

    def _draw_positions(self, seed: int):
        """Positions for a reset; cells left to the seed are distinct free cells."""
        cfg = self.config
        rng = random.Random(seed)
        taken: set[tuple[int, int]] = set()
        for positions in (cfg.agent_positions, cfg.food_positions):
            if positions is not None:
                taken.update(positions)

        def draw(count: int) -> list[tuple[int, int]]:
            free = [(r, c) for r in range(cfg.height) for c in range(cfg.width)
                    if (r, c) not in taken]
            chosen = rng.sample(free, count)
            taken.update(chosen)
            return chosen

        agent_pos = (cfg.agent_positions if cfg.agent_positions is not None
                     else draw(self.n))
        food_pos = (cfg.food_positions if cfg.food_positions is not None
                    else draw(len(cfg.food_levels)))
        return tuple(agent_pos), tuple(food_pos)

    def step(self, joint_action: Sequence[int]) -> StepResult:
        acts = tuple(joint_action)
        edges = self._edges
        outcome = edges.get(acts) if edges is not None else None
        if outcome is None:
            result = self._transition(acts)
        else:
            node, result = outcome
            self._agent_pos, self._food_alive, self._edges = self._nodes[node][:3]
        self._t += 1
        if not result.done and self._t >= self.config.horizon:
            return StepResult(result.observations, result.reward, True)
        return result

    def _transition(self, joint_action: tuple) -> StepResult:
        """Compute one transition from the current time-free state and, while
        the memo is on, store it under the validated joint action. Only valid
        actions are ever stored, so invalid ones always reach the checks.
        Leaves the env in the successor state."""
        cfg = self.config
        acts = tuple(int(a) for a in joint_action)
        if len(acts) != self.n:
            raise ValueError(f"expected {self.n} actions, got {len(acts)}")
        for i, a in enumerate(acts):
            if not 0 <= a < 6:
                raise ValueError(f"invalid action {a} for agent {i}")

        # Movement, lowest agent index first; earlier moves free their cell.
        agent_pos = list(self._agent_pos)
        food_alive = list(self._food_alive)
        occupied = set(agent_pos)
        food_cells = {self._food_pos[k] for k in range(len(food_alive))
                      if food_alive[k]}
        for i, a in enumerate(acts):
            delta = _MOVES.get(a)
            if delta is None:
                continue
            r, c = agent_pos[i]
            target = (r + delta[0], c + delta[1])
            if not (0 <= target[0] < cfg.height and 0 <= target[1] < cfg.width):
                continue
            if target in occupied or target in food_cells:
                continue
            occupied.discard((r, c))
            occupied.add(target)
            agent_pos[i] = target

        # Joint loading against post-movement positions.
        reward = 0.0
        loaders = [i for i, a in enumerate(acts) if a == LOAD]
        for k, alive in enumerate(food_alive):
            if not alive:
                continue
            fr, fc = self._food_pos[k]
            strength = sum(cfg.agent_levels[i] for i in loaders
                           if abs(agent_pos[i][0] - fr)
                           + abs(agent_pos[i][1] - fc) == 1)
            if strength >= cfg.food_levels[k]:
                food_alive[k] = False
                reward += cfg.food_levels[k] / self._total_level

        self._agent_pos, self._food_alive = tuple(agent_pos), tuple(food_alive)
        edges = self._edges
        if edges is None:
            return StepResult(observations=self._observations(), reward=reward,
                              done=not any(food_alive))
        node = self._enter_node()
        # Every transition into a node shares its observations and done flag,
        # so results are shared per (node, reward).
        results = self._nodes[node].results
        result = results.get(reward)
        if result is None:
            result = results[reward] = StepResult(
                observations=self._nodes[node].observations, reward=reward,
                done=not any(food_alive))
        edges[acts] = (node, result)
        return result

    def _enter_node(self) -> int:
        """Make the current time-free state's memo node current, adding it if
        new, and return its index."""
        nodes = self._nodes
        node = self._memo.setdefault((self._agent_pos, self._food_pos, self._food_alive),
                                     len(nodes))
        if node == len(nodes):
            nodes.append(_MemoNode(self._agent_pos, self._food_alive, {}, {},
                                   self._observations()))
        self._agent_pos, self._food_alive, self._edges = nodes[node][:3]
        return node

    def __getstate__(self):
        # Copies and pickles start with an empty memo: it is a cache, and
        # copying it costs more than the planner's whole search on the fixture.
        state = self.__dict__.copy()
        if self._memo is not None:
            state.update(_memo={}, _nodes=[], _edges=None)
        return state

    def remaining_food_fraction(self) -> float:
        alive = sum(l for l, a in zip(self.config.food_levels, self._food_alive) if a)
        return alive / self._total_level

    def get_state(self):
        return (self._t, self._agent_pos, self._food_pos, self._food_alive)

    def set_state(self, state) -> None:
        """Jump to ``state`` and turn the transition memo off for good.

        Callers that set states, such as the planner, expand each (state,
        joint action) once, so a memo would only cost time and memory.
        """
        t, agent_pos, food_pos, alive = state
        self._t = t
        self._agent_pos = tuple(agent_pos)
        self._food_pos = tuple(food_pos)
        self._food_alive = tuple(alive)
        self._memo = self._nodes = self._edges = None

    def _observations(self) -> tuple[int, ...]:
        cfg = self.config
        w = cfg.width
        cells = w * cfg.height
        if cfg.view_radius is None:
            code = 0
            for r, c in self._agent_pos:
                code = code * cells + (r * w + c)
            for alive in self._food_alive:
                code = code * 2 + (1 if alive else 0)
            return (code,) * self.n

        radius = cfg.view_radius
        span = 2 * radius + 1
        invisible = span * span
        base = invisible + 1
        obs = []
        for i in range(self.n):
            ar, ac = self._agent_pos[i]
            code = ar * w + ac
            for j in range(self.n):
                if j == i:
                    continue
                code = code * base + self._relative_code(ar, ac, self._agent_pos[j],
                                                         radius, span, invisible)
            for k in range(len(self._food_alive)):
                if self._food_alive[k]:
                    rel = self._relative_code(ar, ac, self._food_pos[k],
                                              radius, span, invisible)
                else:
                    rel = invisible
                code = code * base + rel
            obs.append(code)
        return tuple(obs)

    @staticmethod
    def _relative_code(ar: int, ac: int, pos: tuple[int, int],
                       radius: int, span: int, invisible: int) -> int:
        dr = pos[0] - ar
        dc = pos[1] - ac
        if abs(dr) > radius or abs(dc) > radius:
            return invisible
        return (dr + radius) * span + (dc + radius)


def optimal_return(env, seed: int = 0, budget: int = 10_000_000) -> float:
    """Maximum achievable episode return, by finite-horizon backward induction.

    Works on a deep copy, so the passed environment is untouched. Both
    environments keep the step counter at index 0 of ``get_state()`` and
    use it only to end the episode at ``horizon``; the rest of the state
    is time-free. The time-free states reachable within the horizon are
    enumerated breadth-first from the reset state through the
    environment's own ``step``: each state first reached at a depth below
    the horizon has every joint action expanded once, from step counter
    0. A transition that ends the episode before the horizon leads to a
    terminal state, which is not expanded. Backward induction over the
    resulting table then does the arithmetic of a plain search
    (``reward + value``, then the max over joint actions), so the result
    is exact and no recursion depth grows with the horizon. Raises
    :class:`SearchBudgetError` once more than ``budget`` joint actions
    would be expanded.
    """
    sim = copy.deepcopy(env)
    sim.reset(seed)
    horizon = sim.horizon
    joint_actions = list(itertools.product(*(range(k) for k in sim.action_counts)))
    n_actions = len(joint_actions)
    set_state, step, get_state = sim.set_state, sim.step, sim.get_state

    # Expansions start at step counter 0, so every successor comes back with
    # counter 1: states are keyed by that full form, with no per-step slicing.
    start = (1,) + get_state()[1:]
    index = {start: 0}
    frontier = [start]
    # Flat (state, joint action) tables in index order; a done or last-depth
    # entry's successor is never read, so it points at state 0.
    nexts: list[int] = []
    rewards: list[float] = []
    dones: list[bool] = []
    no_next, all_done = [0] * n_actions, [True] * n_actions
    expansions = 0
    for depth in range(horizon):
        # A state first reached at the last depth is one step from the end of
        # the episode wherever it occurs, so only its rewards are used.
        last = depth == horizon - 1
        reached = []
        for state in frontier:
            expansions += n_actions
            if expansions > budget:
                raise SearchBudgetError(
                    f"plan search exceeded {budget} expansions; the environment "
                    f"is too large for exhaustive planning"
                )
            state = (0,) + state[1:]
            if last:
                for ja in joint_actions:
                    set_state(state)
                    rewards.append(step(ja).reward)
                nexts += no_next
                dones += all_done
                continue
            for ja in joint_actions:
                set_state(state)
                res = step(ja)
                rewards.append(res.reward)
                dones.append(res.done)
                if res.done:
                    nexts.append(0)
                    continue
                succ = get_state()
                size = len(index)
                i = index.setdefault(succ, size)
                if i == size:
                    reached.append(succ)
                nexts.append(i)
        frontier = reached

    reward = np.array(rewards).reshape(-1, n_actions)
    done = np.array(dones).reshape(-1, n_actions)
    succ_index = np.array(nexts).reshape(-1, n_actions)
    value = reward.max(axis=1)
    for _ in range(horizon - 1):
        value = np.where(done, reward, reward + value[succ_index]).max(axis=1)
    return float(value[0])


def env_from_config(cfg: dict):
    """Build an environment from its JSON description.

    ``{"kind": "matrix_game", "payoff": [...], "horizon": 1}`` or
    ``{"kind": "foraging", "grid": ["..."], "horizon": 50,
    "cooperative_only": false, "view_radius": null}``.
    """
    kind = cfg.get("kind")
    if kind == "matrix_game":
        game = make_game(cfg["payoff"])
        return MatrixGameEnv(game, horizon=int(cfg.get("horizon", 1)))
    if kind == "foraging":
        config = foraging_config_from_ascii(
            cfg["grid"],
            horizon=int(cfg.get("horizon", 50)),
            cooperative_only=bool(cfg.get("cooperative_only", False)),
            view_radius=cfg.get("view_radius"),
        )
        return ForagingEnv(config)
    raise ValueError(f"unknown environment kind {kind!r}")
