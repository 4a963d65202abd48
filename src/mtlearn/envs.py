"""Desk-scale cooperative environments with a shared episodic contract.

Both environments expose ``reset(seed) -> observations`` and
``step(joint_action) -> StepResult`` plus the per-agent action counts,
so learners can treat them uniformly. The matrix-game environment
replays a fixed team game for a set horizon; the foraging environment
is a small gridworld where agents must stand next to a food item and
load it together.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .games import TeamGame
from .schedule import parse_count, parse_object


class SearchBudgetError(RuntimeError):
    """Raised when enumerating an env's reachable states (for planning or
    training) would exceed its expansion budget."""


@dataclass(frozen=True)
class StepResult:
    observations: tuple[int, ...]
    reward: float
    done: bool


class MatrixGameEnv:
    """Repeated shared-payoff matrix game; all agents observe state id 0."""

    def __init__(self, game: TeamGame, horizon: int = 1):
        self.game = game
        self.horizon = parse_count(horizon, "horizon")
        self.n = game.n
        self._t = 0

    @property
    def action_counts(self) -> tuple[int, ...]:
        return self.game.action_counts

    @property
    def fixed_start(self) -> bool:
        """True: ``reset`` ignores its seed."""
        return True

    @property
    def state_radix(self) -> tuple[int, ...]:
        """The time-free state is empty: its rows have no columns."""
        return ()

    def reset(self, seed: int = 0) -> tuple[int, ...]:
        self._t = 0
        return self._observations()

    def step(self, joint_action: Sequence[int]) -> StepResult:
        acts = tuple(int(a) for a in joint_action)
        if len(acts) != self.n:
            raise ValueError(f"expected {self.n} actions, got {len(acts)}")
        for i, a in enumerate(acts):
            if not 0 <= a < self.game.action_counts[i]:
                raise ValueError(f"invalid action {a} for agent {i}")
        reward = float(self.game.payoff[acts])
        self._t += 1
        return StepResult(observations=self._observations(), reward=reward,
                          done=self._t >= self.horizon)

    def transitions(self, states: np.ndarray,
                    joints: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``step`` from counter 0 for each row: a payoff lookup per joint
        action (see :meth:`ForagingEnv.transitions`)."""
        reward = self.game.payoff[tuple(np.asarray(joints).T)]
        return states, reward, np.full(len(reward), self.horizon <= 1)

    def get_state(self):
        """``(t, ())``: the step counter and the empty time-free row."""
        return (self._t, ())

    def set_state(self, state) -> None:
        """Jump to ``state``, a ``get_state()`` value."""
        self._t = state[0]

    def _observations(self) -> tuple[int, ...]:
        return (0,) * self.n


# Action ids for the foraging gridworld.
UP, DOWN, LEFT, RIGHT, STAY, LOAD = range(6)
_MOVES = {UP: (-1, 0), DOWN: (1, 0), LEFT: (0, -1), RIGHT: (0, 1)}


@dataclass(frozen=True)
class ForagingConfig:
    """Layout and rules for the foraging gridworld.

    Positions are (row, col) pairs. ``agent_positions`` / ``food_positions``
    may be None, in which case the reset seed draws distinct free cells.
    ``view_radius`` of None means full observability (every agent sees
    the complete state id); otherwise an agent only resolves entities
    within the given Chebyshev radius. With ``cooperative_only`` set,
    every food must be too heavy for any single agent. ``width``, ``height``,
    ``horizon``, ``view_radius``, each level and each coordinate are counts
    (:func:`schedule.parse_count`), stored as ints.
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
        for name, minimum in (("width", 0), ("height", 0), ("horizon", 1)):
            object.__setattr__(self, name, parse_count(getattr(self, name), name, minimum))
        if self.width < 1 or self.height < 1:
            raise ValueError("grid must be at least 1x1")
        if self.view_radius is not None:
            object.__setattr__(self, "view_radius",
                               parse_count(self.view_radius, "view_radius", minimum=0))
        for name in ("agent_levels", "food_levels"):
            levels = tuple(parse_count(level, name) for level in getattr(self, name))
            if not levels:
                raise ValueError(f"{name.replace('_', ' ')} must be positive integers")
            object.__setattr__(self, name, levels)
        if max(self.food_levels) > sum(self.agent_levels):
            raise ValueError("unsolvable layout: a food exceeds the combined agent level")
        if self.cooperative_only and min(self.food_levels) <= max(self.agent_levels):
            raise ValueError("cooperative_only requires every food to need more than one agent")
        for name, count in (("agent_positions", len(self.agent_levels)),
                            ("food_positions", len(self.food_levels))):
            positions, label = getattr(self, name), name.split("_")[0]
            if positions is None:
                continue
            if len(positions) != count:
                raise ValueError(f"{label} positions do not match {label} count")
            if not all(isinstance(pos, (tuple, list)) and len(pos) == 2 for pos in positions):
                raise ValueError(f"{name} must hold (row, col) pairs, got {positions!r}")
            positions = tuple((parse_count(r, name, minimum=0), parse_count(c, name, minimum=0))
                              for r, c in positions)
            for r, c in positions:
                if not (r < self.height and c < self.width):
                    raise ValueError(f"{label} position ({r}, {c}) outside the grid")
            object.__setattr__(self, name, positions)
        fixed = list(self.agent_positions or ()) + list(self.food_positions or ())
        if len(set(fixed)) != len(fixed):
            raise ValueError("fixed positions overlap")
        total_cells = self.width * self.height
        if len(self.agent_levels) + len(self.food_levels) > total_cells:
            raise ValueError("more entities than grid cells")

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


class ForagingEnv:
    """Cooperative level-based foraging on a small grid.

    Actions per agent: 0 up, 1 down, 2 left, 3 right, 4 stay, 5 load.
    Moves are resolved in agent-index order; a move onto a wall, another
    agent, or an uncollected food is ignored. A food is collected when
    the agents adjacent to it (4-neighborhood) that chose LOAD have a
    combined level at least the food's level; the reward is the food
    level divided by the total food level, so clearing everything in
    one episode yields exactly 1.0.

    The state is one row of ints: the agents' cells, the foods' cells and
    the foods' alive flags (0 or 1), a cell being ``row * width + col``.
    ``get_state()`` is ``(t, row)`` with ``t`` the step counter; training,
    evaluation and planning all key on that row.
    """

    def __init__(self, config: ForagingConfig):
        self.config = config
        self.n = config.n
        self._total_level = float(sum(config.food_levels))

        def cells(positions):
            return None if positions is None else tuple(r * config.width + c for r, c in positions)

        # The config's fixed (row, col) positions as cells, or None where
        # the reset seed draws them.
        self._agent_cells = cells(config.agent_positions)
        self._food_cells = cells(config.food_positions)
        self._row: tuple[int, ...] = ()
        self._alive_at = self.n + len(config.food_levels)  # where the row's alive flags start
        self._t = 0
        self._grid_tables: tuple[np.ndarray, np.ndarray] | None = None  # see transitions

    @property
    def horizon(self) -> int:
        return self.config.horizon

    @property
    def action_counts(self) -> tuple[int, ...]:
        return (6,) * self.n

    @property
    def fixed_start(self) -> bool:
        """True when every position is fixed, so ``reset`` ignores its seed."""
        return self._agent_cells is not None and self._food_cells is not None

    def reset(self, seed: int = 0) -> tuple[int, ...]:
        agents, foods = self._agent_cells, self._food_cells
        if agents is None or foods is None:
            agents, foods = self._draw_cells(seed)
        self._row = agents + foods + (1,) * len(foods)
        self._t = 0
        return self._observations()

    def _draw_cells(self, seed: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Cells for a reset; cells left to the seed are distinct free cells."""
        rng = random.Random(seed)
        taken = set(self._agent_cells or ()) | set(self._food_cells or ())

        def draw(count: int) -> tuple[int, ...]:
            # Free cells in reading order: the seeded layouts depend on it.
            free = [cell for cell in range(self.config.width * self.config.height)
                    if cell not in taken]
            chosen = rng.sample(free, count)
            taken.update(chosen)
            return tuple(chosen)

        agents = self._agent_cells if self._agent_cells is not None else draw(self.n)
        foods = (self._food_cells if self._food_cells is not None
                 else draw(len(self.config.food_levels)))
        return agents, foods

    def step(self, joint_action: Sequence[int]) -> StepResult:
        """Apply one joint action from the current state and advance the step
        counter. Each call recomputes the transition; callers that revisit
        steps read them from a :class:`TransitionTable` instead. Moves and
        adjacency are worked out from each cell's (row, col) here, not from
        the tables :meth:`transitions` builds, so each checks the other."""
        cfg = self.config
        acts = tuple(map(int, joint_action))
        if len(acts) != self.n:
            raise ValueError(f"expected {self.n} actions, got {len(acts)}")
        for i, a in enumerate(acts):
            if not 0 <= a < 6:
                raise ValueError(f"invalid action {a} for agent {i}")

        # Movement, lowest agent index first; earlier moves free their cell.
        n, w, h = self.n, cfg.width, cfg.height
        row, alive_at = self._row, self._alive_at
        agents = list(row[:n])
        foods = row[n:alive_at]
        alive = list(row[alive_at:])
        occupied = set(agents)
        food_cells = set(itertools.compress(foods, alive))
        for i, a in enumerate(acts):
            delta = _MOVES.get(a)
            if delta is None:
                continue
            r, c = divmod(agents[i], w)
            r, c = r + delta[0], c + delta[1]
            if not (0 <= r < h and 0 <= c < w):
                continue
            target = r * w + c
            if target in occupied or target in food_cells:
                continue
            occupied.discard(agents[i])
            occupied.add(target)
            agents[i] = target

        # Joint loading against post-movement positions, food by food.
        reward = 0.0
        if LOAD in acts:  # without a loader no food (level >= 1) is collected
            for k, food in enumerate(foods):
                if not alive[k]:
                    continue
                fr, fc = divmod(food, w)
                strength = 0
                for i, a in enumerate(acts):
                    if a == LOAD and abs(agents[i] // w - fr) + abs(agents[i] % w - fc) == 1:
                        strength += cfg.agent_levels[i]
                if strength >= cfg.food_levels[k]:
                    alive[k] = 0
                    reward += cfg.food_levels[k] / self._total_level

        self._row = tuple(agents) + foods + tuple(alive)
        self._t += 1
        return StepResult(observations=self._observations(), reward=reward,
                          done=not any(alive) or self._t >= cfg.horizon)

    def transitions(self, states: np.ndarray,
                    joints: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``step`` from step counter 0, for a batch of B states at once.

        ``states`` holds B state rows, each a ``get_state()[1]``: the
        agents' cells, the foods' cells and the foods' alive flags. ``joints``
        holds B joint actions, one column per agent. Returns the successor
        rows, the rewards and the ``done`` flags ``step`` gives from step
        counter 0: no food left, or a horizon of 1. Moves are resolved
        agent by agent in index order and rewards are summed food by food,
        as ``step`` does, so every value is bit-identical to it. Actions
        are not checked.
        """
        if self._grid_tables is None:
            self._grid_tables = self._build_grid_tables()
        move_target, adjacent = self._grid_tables
        cfg = self.config
        n, m, cells = self.n, len(cfg.food_levels), cfg.width * cfg.height
        columns, acts = list(states.T), list(joints.T)  # one column per agent, food, flag
        agents, foods = columns[:n], columns[n:n + m]
        alive = [flag != 0 for flag in columns[n + m:]]
        blocking = [np.where(flag, food, -1) for flag, food in zip(alive, foods)]  # uncollected

        # Movement, lowest agent index first, against the cells the agents
        # hold after the earlier agents' moves.
        for i in range(n):
            here = agents[i]
            target = move_target.take(here * 6 + acts[i])
            free = target != here
            for other in agents[:i] + agents[i + 1:] + blocking:
                free &= target != other
            agents[i] = np.where(free, target, here)

        # Joint loading against post-movement positions, food by food.
        loading = [act == LOAD for act in acts]
        reward = np.zeros(len(states))
        for k in range(m):
            strength = 0
            for i, level in enumerate(cfg.agent_levels):
                strength += level * (loading[i] & adjacent.take(agents[i] * cells + foods[k]))
            collected = alive[k] & (strength >= cfg.food_levels[k])
            alive[k] = alive[k] & ~collected
            reward += np.where(collected, cfg.food_levels[k] / self._total_level, 0.0)
        succ = np.stack(agents + foods + alive, axis=1, dtype=states.dtype)
        return succ, reward, ~np.logical_or.reduce(alive) | (cfg.horizon <= 1)

    def _build_grid_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat tables: ``move_target[cell * 6 + action]``, the cell a move
        leads to (the cell itself for STAY, LOAD and moves off the grid), and
        ``adjacent[cell * cells + other]``, whether two cells share an edge."""
        h, w = self.config.height, self.config.width
        rows, cols = np.divmod(np.arange(h * w), w)
        move_target = np.repeat(np.arange(h * w)[:, None], 6, axis=1)
        for action, (dr, dc) in _MOVES.items():
            r, c = rows + dr, cols + dc
            on_grid = (0 <= r) & (r < h) & (0 <= c) & (c < w)
            move_target[on_grid, action] = r[on_grid] * w + c[on_grid]
        adjacent = (np.abs(rows[:, None] - rows) + np.abs(cols[:, None] - cols)) == 1
        return move_target.ravel(), adjacent.ravel()

    @property
    def state_radix(self) -> tuple[int, ...]:
        """Each column of a state row (``get_state()[1]``) lies in ``range(radix)``."""
        cells = self.config.width * self.config.height
        m = len(self.config.food_levels)
        return (cells,) * (self.n + m) + (2,) * m

    def get_state(self):
        """``(t, row)``: the step counter and the state row."""
        return (self._t, self._row)

    def set_state(self, state) -> None:
        """Jump to ``state``, a ``get_state()`` value: ``(t, row)``."""
        t, row = state
        self._t = t
        self._row = tuple(row)

    def _observations(self) -> tuple[int, ...]:
        cfg = self.config
        n, w, row = self.n, cfg.width, self._row
        if cfg.view_radius is None:
            cells = w * cfg.height
            code = 0
            for cell in row[:n]:
                code = code * cells + cell
            for flag in row[self._alive_at:]:
                code = code * 2 + flag
            return (code,) * n

        agents, foods, alive = row[:n], row[n:self._alive_at], row[self._alive_at:]
        radius = cfg.view_radius
        span = 2 * radius + 1
        invisible = span * span
        base = invisible + 1
        obs = []
        for i in range(n):
            ar, ac = divmod(agents[i], w)
            code = agents[i]
            for j in range(n):
                if j == i:
                    continue
                code = code * base + self._relative_code(ar, ac, divmod(agents[j], w),
                                                         radius, span, invisible)
            for k in range(len(foods)):
                if alive[k]:
                    rel = self._relative_code(ar, ac, divmod(foods[k], w),
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


# The most (state, joint action) pairs TransitionTable.expand passes to one
# ``transitions`` call.
EXPAND_BLOCK = 1 << 15

# The most joint actions TransitionTable.expand_reachable expands (about 170 MB
# of table at 17 bytes an entry, before any doubling slack), and the largest code
# space a table indexes densely, at 8 bytes a code (80 MB, from its first expand).
SEARCH_BUDGET = 10_000_000


class TransitionTable:
    """An environment's transitions as arrays.

    This is the one cache of an env's deterministic transition function:
    scalar training and evaluation (``learners.train``), lockstep sweeps
    and the planner all step through it. States get dense ids in the order
    they are first seen. Joint action ``j`` is the index of the joint action
    in ``itertools.product`` order, ``sum(a_i * strides[i])``. For state ``s``:

    - ``next[s, j]`` is the successor's id, or -1 while the entry is not filled;
    - ``reward[s, j]`` is the step's reward;
    - ``term[s, j]`` is the step's ``done`` taken from step counter 0;
    - ``obs[s][i]`` is agent ``i``'s observation as a dense per-agent id,
      numbered in state-id order; ``_obs_ids[i]`` maps the env's own
      observations to these ids. ``obs`` is one list, appended in place as
      states are encoded: on first read (of ``obs`` or ``obs_count``), so the
      planner, which reads neither, encodes none.

    Flattened, ``s * len(joint_actions) + j`` is the entry's offset; an
    entry not filled holds reward 0 and ``term`` False. States are keyed by
    the env's time-free state row, ``get_state()[1]``, and ``_keys[s]`` is
    the row of state ``s``. :meth:`step` fills an entry on first use through
    the env's ``set_state`` and ``step``. The planner, and both training loops
    where the env has a fixed start, first fill every entry an episode steps
    through with :meth:`expand_reachable`. A fixed-start table is then complete
    and frozen: ``next``, ``reward`` and ``term`` keep one row a state and are
    read-only, ``flat`` (None before) is their flat memoryviews, and the state
    index is gone. A step taken at counter ``t`` ends the episode when ``term``
    is set or ``t + 1 >= horizon``, so one table serves any number of runs.
    """

    def __init__(self, env):
        self.env = env
        self.n = env.n
        self.horizon = env.horizon
        self.action_counts = tuple(env.action_counts)
        self.fixed_start = env.fixed_start
        self.joint_actions = list(itertools.product(*(range(k) for k in self.action_counts)))
        self._joint_array = np.array(self.joint_actions, dtype=np.intp).reshape(-1, self.n)
        self.strides = np.array([int(np.prod(self.action_counts[i + 1:]))
                                 for i in range(self.n)], dtype=np.intp)
        self._keys: list[tuple[int, ...]] = []  # each state's row
        # The one state index: row -> id, or code -> id (-1: unseen); see _intern_rows.
        radix, space = env.state_radix, math.prod(env.state_radix)
        self._weights = tuple(math.prod(radix[c + 1:]) for c in range(len(radix)))
        self._code_type = np.int64 if space <= 2 ** 63 else object  # object: Python ints
        self._index = {}  # None once complete
        self._dense_space = space if space <= SEARCH_BUDGET else 0  # 0: the dict stays
        self._obs_ids: list[dict[int, int]] = [{} for _ in range(self.n)]
        self._obs: list[tuple[int, ...]] = []  # states 0, 1, ...; the rest are pending
        self._start: int | None = None
        shape = (64, len(self.joint_actions))  # rows double as states are seen
        self.next = np.full(shape, -1, dtype=np.intp)
        self.reward = np.zeros(shape)
        self.term = np.zeros(shape, dtype=bool)
        self.flat = None

    @property
    def obs(self) -> list[tuple[int, ...]]:
        """Each state's dense per-agent observation ids, by state id."""
        self._encode_pending()
        return self._obs

    @property
    def obs_count(self) -> int:
        """The most distinct observations any one agent has been given."""
        self._encode_pending()
        return max(len(ids) for ids in self._obs_ids)

    def reset(self, seed: int) -> int:
        """Id of the state ``env.reset(seed)`` starts in."""
        if self._start is not None:
            return self._start
        observations = self.env.reset(seed)
        state = self._intern(self.env.get_state()[1], observations)
        if self.fixed_start:
            self._start = state
        return state

    def step(self, state: int, joint: int) -> tuple[int, float, bool]:
        """Successor, reward and ``term`` of one entry as Python values, filling
        the entry first if it is not filled yet (a complete table raises LookupError)."""
        succ = self.next.item(state, joint)
        if succ < 0:
            if self._index is None:
                raise LookupError(f"entry ({state}, {joint}) is not in the complete table")
            env = self.env
            env.set_state((0, self._keys[state]))
            res = env.step(self.joint_actions[joint])
            succ = self._intern(env.get_state()[1], res.observations)
            # One entry: scalar writes cost far less than the batched path.
            self.next[state, joint] = succ
            self.reward[state, joint] = res.reward
            self.term[state, joint] = res.done
        return succ, self.reward.item(state, joint), self.term.item(state, joint)

    def expand(self, states: Sequence[int]) -> None:
        """Fill every joint action of ``states`` with the env's batched ``transitions``,
        :data:`EXPAND_BLOCK` (state, joint action) pairs at a time at most, so memory
        follows the block and not the number of states. Successors are interned in the
        order first seen, as :meth:`step` would intern them entry by entry in the same
        order; their observations are encoded on first read. A complete table raises
        ``LookupError``."""
        if self._index is None:
            raise LookupError("the table is complete: it fills no entry")
        states = list(dict.fromkeys(states))
        n_joint = len(self.joint_actions)
        per_block = max(1, EXPAND_BLOCK // n_joint)
        for lo in range(0, len(states), per_block):
            block = states[lo:lo + per_block]
            rows = np.array([self._keys[s] for s in block], dtype=np.int64)
            succ_rows, reward, term = self.env.transitions(
                np.repeat(rows, n_joint, axis=0), np.tile(self._joint_array, (len(block), 1)))
            succ = self._intern_rows(succ_rows).reshape(len(block), n_joint)
            self.next[block] = succ
            self.reward[block] = reward.reshape(len(block), n_joint)
            self.term[block] = term.reshape(len(block), n_joint)

    def expand_reachable(self, start: int, budget: int) -> None:
        """Fill every joint action of each state an episode from ``start``
        can step from, breadth-first, with one :meth:`expand` per depth.

        The states first reached at a depth below the horizon are expanded;
        a transition that ends the episode before the horizon leads to a
        terminal state, which is not. New states get ids in breadth-first
        order. Raises :class:`SearchBudgetError` once more than ``budget``
        joint actions would be expanded. A fixed-start table is then complete.
        """
        frontier, expanded, expansions = [start], {start}, 0
        for _ in range(self.horizon):
            if not frontier:
                break
            expansions += len(frontier) * len(self.joint_actions)
            if expansions > budget:
                raise SearchBudgetError(f"reachable-state search exceeded {budget} "
                                        f"expansions; the environment has too many states")
            self.expand(frontier)
            going = self.next[frontier][~self.term[frontier]]
            first = np.full(len(self._keys), len(going))  # each state's first index
            np.minimum.at(first, going, np.arange(len(going)))
            seen = np.argsort(first)[:np.count_nonzero(first < len(going))]
            frontier = [s for s in seen.tolist() if s not in expanded]
            expanded.update(frontier)
        if self.fixed_start:  # no reset reaches another state: freeze
            arrays = [a[:len(self._keys)].copy() for a in (self.next, self.reward, self.term)]
            for a in arrays:
                a.flags.writeable = False
            self._index, self.flat = None, tuple(memoryview(a.reshape(-1)) for a in arrays)
            self.next, self.reward, self.term = arrays

    def _intern_rows(self, rows: np.ndarray) -> np.ndarray:
        """Ids of the states in ``rows``, interning new ones (observations pending)
        in the order first seen. Rows are told apart by their codes, their
        ``state_radix`` digits weighted by ``_weights``: int64 where every code
        fits, else Python ints. A dense ``_index``, built from the dict at the first
        call where the code space is within the budget, is read with one gather of
        the codes, and unseen codes are numbered by their first positions, which
        ``np.minimum.at`` leaves in their entries. A dict ``_index`` is read once
        per distinct row, found by ``np.unique`` on the codes."""
        index, size = self._index, len(self._keys)
        weights = np.array(self._weights, dtype=self._code_type)
        if isinstance(index, dict) and self._dense_space:
            index = self._index = np.full(self._dense_space, -1, dtype=np.intp)
            index[np.array(self._keys, dtype=np.int64) @ weights] = np.arange(size)
        codes = rows @ weights
        if isinstance(index, dict):
            _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
            keys = list(map(tuple, rows[first].tolist()))
            new = [keys[u] for u in np.argsort(first).tolist() if keys[u] not in index]
            index.update(zip(new, itertools.count(size)))
            self._add(new)
            return np.array([index[key] for key in keys], dtype=np.intp)[inverse]
        ids = index[codes]
        unseen = np.flatnonzero(ids < 0)
        fresh, rank = codes[unseen], np.arange(len(unseen))
        index[fresh] = len(unseen)
        np.minimum.at(index, fresh, rank)
        firsts = unseen[index[fresh] == rank]
        index[codes[firsts]] = np.arange(size, size + len(firsts))
        self._add(list(map(tuple, rows[firsts].tolist())))
        ids[unseen] = index[fresh]
        return ids

    def _intern(self, row: tuple[int, ...], observations: Sequence[int]) -> int:
        """Id of ``row``; a new state is encoded at once, after those before it."""
        index = self._index
        key = row if isinstance(index, dict) else sum(map(operator.mul, row, self._weights))
        state = index.get(key, -1) if isinstance(index, dict) else index.item(key)
        if state < 0:
            self._encode_pending()
            state = index[key] = len(self._keys)
            self._add([row])
            self._encode(observations)
        return state

    def _add(self, rows: list[tuple[int, ...]]) -> None:
        """Store new states' rows, observations pending; the arrays double to fit."""
        self._keys.extend(rows)
        while len(self._keys) > len(self.next):
            self.next = np.concatenate([self.next, np.full_like(self.next, -1)])
            self.reward = np.concatenate([self.reward, np.zeros_like(self.reward)])
            self.term = np.concatenate([self.term, np.zeros_like(self.term)])

    def _encode_pending(self) -> None:
        """Encode every pending state in state-id order, from the env itself."""
        env = self.env
        for row in self._keys[len(self._obs):]:
            env.set_state((0, row))
            self._encode(env._observations())

    def _encode(self, observations: Sequence[int]) -> None:
        """Encode the next state; an agent's new observation takes its next id."""
        self._obs.append(tuple([ids.setdefault(o, len(ids))
                                for ids, o in zip(self._obs_ids, observations)]))


def optimal_return(env, seed: int = 0, budget: int = SEARCH_BUDGET) -> float:
    """Maximum achievable episode return, by finite-horizon backward induction.

    The time-free states reachable within the horizon from
    ``env.reset(seed)`` are enumerated into a :class:`TransitionTable` of
    ``env`` by :meth:`TransitionTable.expand_reachable`, one batched
    ``env.transitions`` pass per depth, which encodes no observation: only
    ``env.reset`` does. Backward induction over the table's ``reward``,
    ``term`` and ``next`` arrays then does the arithmetic of a plain search
    (``reward + value``, then the max over joint actions), so the result is
    exact and no recursion depth grows with the horizon. A state first
    reached at the last depth is one step from the end wherever it occurs,
    so only its rewards reach the result. The env is put back in the state
    it was passed in. Raises :class:`SearchBudgetError` once more than
    ``budget`` joint actions would be expanded, and ``ValueError`` before
    any work if ``seed`` is not an integer >= 0 or ``budget`` one >= 1.
    """
    seed, budget = parse_count(seed, "seed", minimum=0), parse_count(budget, "budget")
    saved = env.get_state()
    try:
        table = TransitionTable(env)
        start = table.reset(seed)
        table.expand_reachable(start, budget)
    finally:
        env.set_state(saved)

    # By joint action, then state; a seeded env's table keeps rows past its states,
    # which no state leads to. Terminal and unfilled (-1) entries lead to the sink
    # value[size], -0.0: ``reward + -0.0`` is ``reward`` bit for bit.
    size = len(table.next)
    reward = table.reward.T.copy()
    succ = np.where(table.term, size, table.next).T.copy()
    value = np.append(reward.max(axis=0), -0.0)
    step = np.empty_like(reward)  # reward + value, one buffer for every depth
    for _ in range(table.horizon - 1):
        np.add(reward, value.take(succ, out=step), out=step)
        step.max(axis=0, out=value[:size])
    return float(value[start])


# Keys of the env block per kind; the second is required.
_ENV_KEYS = {"matrix_game": ("kind", "payoff", "horizon"),
             "foraging": ("kind", "grid", "horizon", "cooperative_only", "view_radius")}


def env_from_config(cfg: dict):
    """Build an environment from its JSON description, a config's ``env`` block:
    ``{"kind": "matrix_game", "payoff": [...], "horizon": 1}`` or ``{"kind": "foraging",
    "grid": ["..."], "horizon": 50, "cooperative_only": false, "view_radius": null}``.
    ``payoff`` and ``grid`` are required; a key the kind does not have, a ``grid``
    that is not a non-empty list of strings, a ``cooperative_only`` that is not a
    bool and a value that breaks its count or number rule are rejected."""
    kind = cfg.get("kind") if isinstance(cfg, dict) else None
    keys = _ENV_KEYS.get(kind, ()) if isinstance(kind, str) else ()
    if isinstance(cfg, dict) and not keys:
        raise ValueError(f"unknown environment kind {kind!r}")
    parse_object(cfg, "env", keys, required=keys[1:2])
    if kind == "matrix_game":
        return MatrixGameEnv(TeamGame(cfg["payoff"]), horizon=cfg.get("horizon", 1))
    grid = cfg["grid"]
    if not (isinstance(grid, (list, tuple)) and grid and all(isinstance(row, str) for row in grid)):
        raise ValueError(f"env.grid must be a non-empty list of strings, got {grid!r}")
    cooperative_only = cfg.get("cooperative_only", False)
    if not isinstance(cooperative_only, bool):
        raise ValueError(f"cooperative_only must be true or false, got {cooperative_only!r}")
    return ForagingEnv(foraging_config_from_ascii(
        grid, horizon=cfg.get("horizon", 50), cooperative_only=cooperative_only,
        view_radius=cfg.get("view_radius")))
