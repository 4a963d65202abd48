import copy
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlearn.envs import (
    DOWN,
    LEFT,
    LOAD,
    RIGHT,
    STAY,
    UP,
    ForagingConfig,
    ForagingEnv,
    MatrixGameEnv,
    SEARCH_BUDGET,
    SearchBudgetError,
    TransitionTable,
    env_from_config,
    foraging_config_from_ascii,
    optimal_return,
)

from mtlearn.games import make_game

from conftest import CLIMBING_PAYOFF, FIXTURE_ROWS, MATCH_PAYOFF, ascii_layouts, fixture_env_factory
from planner_reference import reference_optimal_return


class TestMatrixGameEnv:
    def test_single_shared_observation(self, match_game):
        env = MatrixGameEnv(match_game, horizon=4)
        assert env.reset(123) == (0, 0)
        assert env.action_counts == (2, 2)

    def test_reward_is_payoff_lookup(self, match_game):
        env = MatrixGameEnv(match_game, horizon=2)
        env.reset(0)
        res = env.step((0, 0))
        assert res.reward == 1.0
        assert not res.done
        assert env.step((0, 1)).done

    def test_invalid_action(self, match_game):
        env = MatrixGameEnv(match_game, horizon=2)
        env.reset(0)
        with pytest.raises(ValueError):
            env.step((0, 2))


def cell(r, c, width=5):
    """The cell of grid position (r, c), as foraging state rows hold it."""
    return r * width + c


def two_agent_config(**overrides):
    base = dict(width=5, height=5, agent_levels=(1, 1), food_levels=(2,),
                agent_positions=((1, 2), (3, 2)), food_positions=((2, 2),),
                horizon=16, cooperative_only=True)
    base.update(overrides)
    return ForagingConfig(**base)


class TestForagingConfig:
    def test_ascii_parse_round_trip(self):
        cfg = foraging_config_from_ascii(
            [".....", "..1..", "..b..", "..1..", "....."],
            horizon=16, cooperative_only=True)
        assert cfg == two_agent_config()

    def test_ascii_rejects_unknown_characters(self):
        with pytest.raises(ValueError):
            foraging_config_from_ascii(["..x.."])

    def test_ascii_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            foraging_config_from_ascii(["...", "....."])

    @pytest.mark.parametrize("overrides", [
        dict(food_levels=(3,)),                     # unsolvable
        dict(cooperative_only=True, food_levels=(1,)),
        dict(agent_positions=((1, 2), (1, 2))),     # overlap
        dict(food_positions=((9, 9),)),             # off grid
        dict(horizon=0),
    ])
    def test_invalid_configs(self, overrides):
        with pytest.raises(ValueError):
            two_agent_config(**overrides)


class TestForagingMechanics:
    def test_fixed_positions_ignore_seed(self):
        env = ForagingEnv(two_agent_config())
        assert env.reset(0) == env.reset(981)

    def test_seeded_positions_are_deterministic_and_distinct(self):
        cfg = two_agent_config(agent_positions=None, food_positions=None)
        env_a, env_b = ForagingEnv(cfg), ForagingEnv(cfg)
        assert env_a.reset(7) == env_b.reset(7)
        _, row = env_a.get_state()
        cells = row[:3]  # two agents, one food
        assert len(set(cells)) == len(cells)

    def test_wall_blocks_movement(self):
        env = ForagingEnv(two_agent_config(agent_positions=((0, 0), (4, 4))))
        env.reset(0)
        res = env.step((UP, DOWN))
        assert res.reward == 0.0
        assert env.get_state()[1][:2] == (cell(0, 0), cell(4, 4))

    def test_food_cell_blocks_movement(self):
        env = ForagingEnv(two_agent_config())
        env.reset(0)
        env.step((DOWN, STAY))  # agent 0 at (1,2) tries to enter the food cell (2,2)
        assert env.get_state()[1][0] == cell(1, 2)

    def test_move_conflict_lowest_index_first(self):
        cfg = two_agent_config(agent_positions=((0, 0), (0, 2)), food_positions=((4, 4),))
        env = ForagingEnv(cfg)
        env.reset(0)
        env.step((RIGHT, LEFT))  # both target (0, 1)
        assert env.get_state()[1][:2] == (cell(0, 1), cell(0, 2))

    def test_vacated_cell_can_be_entered_same_step(self):
        cfg = two_agent_config(agent_positions=((0, 1), (0, 2)), food_positions=((4, 4),))
        env = ForagingEnv(cfg)
        env.reset(0)
        env.step((LEFT, LEFT))  # agent 0 frees (0,1); agent 1 may enter it
        assert env.get_state()[1][:2] == (cell(0, 0), cell(0, 1))

    def test_joint_load_collects_and_finishes(self):
        env = ForagingEnv(two_agent_config())
        env.reset(0)
        res = env.step((LOAD, LOAD))
        assert res.reward == 1.0
        assert res.done

    def test_single_loader_is_too_weak(self):
        env = ForagingEnv(two_agent_config())
        env.reset(0)
        res = env.step((LOAD, STAY))
        assert res.reward == 0.0
        assert not res.done

    def test_non_adjacent_loader_does_not_count(self):
        cfg = two_agent_config(agent_positions=((1, 2), (4, 4)))
        env = ForagingEnv(cfg)
        env.reset(0)
        assert env.step((LOAD, LOAD)).reward == 0.0

    def test_horizon_terminates_episode(self):
        env = ForagingEnv(two_agent_config(horizon=3))
        env.reset(0)
        assert not env.step((STAY, STAY)).done
        assert not env.step((STAY, STAY)).done
        assert env.step((STAY, STAY)).done

    def test_invalid_action_rejected(self):
        env = ForagingEnv(two_agent_config())
        env.reset(0)
        with pytest.raises(ValueError):
            env.step((6, STAY))

    def test_reward_conservation(self):
        # Two foods: total collected reward always equals 1 - remaining mass.
        cfg = ForagingConfig(width=5, height=5, agent_levels=(2, 2), food_levels=(2, 2),
                             agent_positions=((1, 2), (3, 2)),
                             food_positions=((2, 2), (0, 0)), horizon=12)
        env = ForagingEnv(cfg)
        rng = np.random.default_rng(0)
        for episode in range(10):
            env.reset(episode)
            collected = 0.0
            done = False
            while not done:
                res = env.step(tuple(int(a) for a in rng.integers(0, 6, size=2)))
                collected += res.reward
                done = res.done
                alive = env.get_state()[1][-2:]
                remaining = (sum(level for level, a in zip(cfg.food_levels, alive) if a)
                             / sum(cfg.food_levels))
                assert collected == pytest.approx(1.0 - remaining)
            assert 0.0 <= collected <= 1.0

    def test_matrix_return_bounded_by_horizon_times_max_payoff(self):
        rng = np.random.default_rng(6)
        payoff = rng.normal(size=(3, 2)) * 5.0
        env = MatrixGameEnv(make_game(payoff), horizon=7)
        bound = 7 * float(np.max(np.abs(payoff)))
        for episode in range(5):
            env.reset(episode)
            total = 0.0
            done = False
            while not done:
                res = env.step((int(rng.integers(3)), int(rng.integers(2))))
                total += res.reward
                done = res.done
            assert abs(total) <= bound

    def test_determinism_bit_identical_step_sequences(self):
        cfg = two_agent_config(agent_positions=None, food_positions=None,
                               cooperative_only=False, food_levels=(1,))
        rng = np.random.default_rng(3)
        actions = [tuple(int(a) for a in rng.integers(0, 6, size=2)) for _ in range(40)]
        results = []
        for _ in range(2):
            env = ForagingEnv(cfg)
            obs = env.reset(13)
            trace = [obs]
            for act in actions:
                res = env.step(act)
                trace.append(res)
                if res.done:
                    trace.append(env.reset(14))
            results.append(trace)
        assert results[0] == results[1]


class TestObservations:
    def test_full_observability_is_shared_and_in_range(self):
        env = ForagingEnv(two_agent_config())
        obs = env.reset(0)
        assert obs[0] == obs[1]

    def test_observation_changes_with_food_state(self):
        env = ForagingEnv(two_agent_config())
        before = env.reset(0)
        after = env.step((LOAD, LOAD)).observations
        assert before != after

    def test_partial_view_locality(self):
        cfg = ForagingConfig(width=7, height=7, agent_levels=(1, 1), food_levels=(1,),
                             agent_positions=((0, 0), (6, 6)), food_positions=((0, 1),),
                             horizon=10, view_radius=1)
        env = ForagingEnv(cfg)
        env.reset(0)
        base_state = env.get_state()
        base_obs = env._observations()
        # Move the far agent somewhere else far away: out-of-view change.
        t, row = base_state
        env.set_state((t, (cell(0, 0, 7), cell(6, 5, 7)) + row[2:]))
        assert env._observations()[0] == base_obs[0]
        # Move it next door: in-view change.
        env.set_state((t, (cell(0, 0, 7), cell(1, 1, 7)) + row[2:]))
        assert env._observations()[0] != base_obs[0]


class TestOptimalReturn:
    def test_match_game_horizon_one(self, match_game):
        assert optimal_return(MatrixGameEnv(match_game, horizon=1)) == 1.0

    def test_climbing_game_horizon_one(self, climbing_game):
        # Exhaustive oracle over the nine joint actions.
        assert max(max(row) for row in CLIMBING_PAYOFF) == 11.0
        assert optimal_return(MatrixGameEnv(climbing_game, horizon=1)) == 11.0

    def test_match_game_accumulates_over_horizon(self, match_game):
        assert optimal_return(MatrixGameEnv(match_game, horizon=3)) == 3.0

    def test_solvable_foraging_is_one(self):
        assert optimal_return(ForagingEnv(two_agent_config())) == 1.0

    def test_leaves_environment_untouched(self):
        env = ForagingEnv(two_agent_config())
        env.reset(5)
        state = env.get_state()
        optimal_return(env)
        assert env.get_state() == state

    def test_budget_exhaustion(self):
        env = ForagingEnv(two_agent_config())
        with pytest.raises(SearchBudgetError):
            optimal_return(env, budget=10)

    def test_fractional_optimum(self):
        # A level-2 agent between a level-1 food (adjacent) and a level-2
        # food (one move away): one step collects a third, two steps two
        # thirds (move, then load the heavier food), three steps both.
        for horizon, expected in ((1, 1 / 3), (2, 2 / 3), (3, 1.0)):
            env = ForagingEnv(foraging_config_from_ascii(["a2.b"], horizon=horizon))
            assert optimal_return(env) == expected
            assert reference_optimal_return(env) == expected

    def test_long_horizon_has_no_recursion_limit(self, match_game):
        assert optimal_return(MatrixGameEnv(match_game, horizon=1200)) == 1200.0

    def test_budget_counts_time_free_state_expansions(self, match_game):
        # One time-free state with four joint actions, whatever the horizon.
        env = MatrixGameEnv(match_game, horizon=50)
        assert optimal_return(env, budget=4) == 50.0
        with pytest.raises(SearchBudgetError):
            optimal_return(env, budget=3)

    def test_fixture_budget_is_its_live_state_table(self, monkeypatch):
        # 552 placements of two agents beside the uncollected food, times 36
        # joint actions; states after the collection end the episode.
        env = ForagingEnv(foraging_config_from_ascii(list(FIXTURE_ROWS), horizon=16,
                                                     cooperative_only=True))
        rows = []
        transitions = ForagingEnv.transitions

        def counted(self, states, joints):
            rows.extend(zip(map(tuple, states.tolist()), map(tuple, joints.tolist())))
            return transitions(self, states, joints)

        monkeypatch.setattr(ForagingEnv, "transitions", counted)
        assert optimal_return(env, budget=552 * 36) == 1.0
        # Every expansion is one batched row, none repeated.
        assert len(rows) == len(set(rows)) == 552 * 36
        with pytest.raises(SearchBudgetError):
            optimal_return(env, budget=552 * 36 - 1)

    def test_fixture_plan_encodes_no_observation_and_no_empty_frontier(self, monkeypatch):
        # The reset encodes the start's observations; the search reads none,
        # and it stops at depth 7, where no new state is reached.
        encoded, frontiers = [], []
        observations, expand = ForagingEnv._observations, TransitionTable.expand

        def counted_observations(self):
            encoded.append(self.get_state())
            return observations(self)

        def counted_expand(self, states):
            frontiers.append(len(states))
            return expand(self, states)

        monkeypatch.setattr(ForagingEnv, "_observations", counted_observations)
        monkeypatch.setattr(TransitionTable, "expand", counted_expand)
        assert optimal_return(fixture_env_factory()) == 1.0
        assert len(encoded) <= 1
        assert len(frontiers) == 7 and min(frontiers) > 0
        assert sum(frontiers) == 552

    @pytest.mark.parametrize("top, horizon, expected", [
        ("c3...", 1, 0.9999999999999999),  # three foods at once, summed in food order
        ("3...c", 2, 0.5),
    ])
    def test_rows_whose_code_would_overflow_int64(self, top, horizon, expected):
        # 3 agents and 3 foods on 34 x 34 cells: 1156 ** 6 * 2 ** 3 distinct
        # rows, more than int64 holds, so successors are compared row-wise.
        rows = [top, "1b2a."] + ["." * 5] * 3
        env = ForagingEnv(foraging_config_from_ascii(
            [row + "." * 29 for row in rows] + ["." * 34] * 29, horizon=horizon))
        assert math.prod(env.state_radix) > 2 ** 63
        assert optimal_return(env) == reference_optimal_return(env) == expected


@st.composite
def small_foraging_envs(draw, max_agents=2, max_foods=2):
    """Small layouts, fixed or seeded, with one to ``max_agents`` agents and
    one to ``max_foods`` foods."""
    width = draw(st.integers(2, 4))
    height = draw(st.integers(2, 3))
    agent_levels = tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=max_agents)))
    food_levels = tuple(draw(st.lists(st.integers(1, sum(agent_levels)), min_size=1,
                                      max_size=min(max_foods, width * height - len(agent_levels)))))
    agent_positions = food_positions = None
    if draw(st.booleans()):
        cells = [(r, c) for r in range(height) for c in range(width)]
        placed = draw(st.permutations(cells))
        agent_positions = tuple(placed[:len(agent_levels)])
        food_positions = tuple(placed[len(agent_levels):len(agent_levels) + len(food_levels)])
    config = ForagingConfig(
        width=width, height=height, agent_levels=agent_levels, food_levels=food_levels,
        agent_positions=agent_positions, food_positions=food_positions,
        horizon=draw(st.integers(1, 8)), view_radius=draw(st.sampled_from([None, 0, 1])))
    return ForagingEnv(config)


@st.composite
def small_matrix_game_envs(draw):
    n = draw(st.integers(1, 3))
    counts = tuple(draw(st.integers(1, 3)) for _ in range(n))
    payoff = draw(st.lists(st.floats(-10.0, 10.0), min_size=int(np.prod(counts)),
                           max_size=int(np.prod(counts))))
    game = make_game(np.array(payoff).reshape(counts))
    return MatrixGameEnv(game, horizon=draw(st.integers(1, 5)))


class TestPlannerMatchesReferenceSearch:
    """Backward induction returns exactly the recursive search's value."""

    @settings(max_examples=100, deadline=None)
    @given(env=small_foraging_envs(), seed=st.integers(0, 2 ** 16))
    def test_foraging_layouts(self, env, seed):
        assert optimal_return(env, seed) == reference_optimal_return(env, seed)

    @settings(max_examples=60, deadline=None)
    @given(env=small_matrix_game_envs())
    def test_matrix_games(self, env):
        assert optimal_return(env) == reference_optimal_return(env)


class TestBatchedTransitions:
    """``transitions`` is ``step`` from step counter 0, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(env=small_foraging_envs(max_agents=3, max_foods=3), seed=st.integers(0, 2 ** 16),
           data=st.data())
    def test_foraging_matches_step(self, env, seed, data):
        # States from the reset's food cells, with agents anywhere (edge cells
        # included), any food collected, and agents standing on collected food.
        env.reset(seed)
        n, m = env.n, len(env.config.food_levels)
        foods = env.get_state()[1][n:n + m]
        cells = range(env.config.width * env.config.height)
        rows, joints = [], []
        for _ in range(data.draw(st.integers(1, 8))):
            agents = tuple(data.draw(st.permutations(cells))[:n])
            alive = tuple(int(data.draw(st.booleans()) and food not in agents) for food in foods)
            rows.append(agents + foods + alive)
            joints.append(data.draw(st.tuples(*[st.integers(0, 5)] * n)))
        succ, reward, done = env.transitions(np.array(rows), np.array(joints))
        for row, joint, succ_row, r, d in zip(rows, joints, succ.tolist(), reward, done):
            env.set_state((0, row))
            res = env.step(joint)
            assert env.get_state() == (1, tuple(succ_row))
            assert r == res.reward
            assert d == res.done

    @settings(max_examples=40, deadline=None)
    @given(env=small_matrix_game_envs(), data=st.data())
    def test_matrix_game_matches_step(self, env, data):
        joints = data.draw(st.lists(st.tuples(*[st.integers(0, k - 1)
                                                for k in env.action_counts]),
                                    min_size=1, max_size=8))
        succ, reward, done = env.transitions(np.zeros((len(joints), 0), dtype=np.int64),
                                             np.array(joints))
        assert succ.shape == (len(joints), 0)
        for joint, r, d in zip(joints, reward, done):
            env.set_state((0, ()))
            res = env.step(joint)
            assert r == res.reward
            assert d == res.done

    @settings(max_examples=40, deadline=None)
    @given(env=st.one_of(small_foraging_envs(), small_matrix_game_envs()), data=st.data())
    def test_expand_fills_as_step_does(self, env, data):
        # Breadth-first, as the planner expands, after a few scalar steps; the
        # second table steps the same entries one by one, in the same order.
        tables = TransitionTable(env), TransitionTable(copy.deepcopy(env))
        n_joint = len(tables[0].joint_actions)
        start = tables[0].reset(0)
        assert tables[1].reset(0) == start
        for joint in data.draw(st.lists(st.integers(0, n_joint - 1), max_size=3)):
            assert tables[0].step(start, joint) == tables[1].step(start, joint)
        frontier, seen = [start], {start}
        while frontier:
            tables[0].expand(frontier)
            for state in frontier:
                for joint in range(n_joint):
                    tables[1].step(state, joint)
            rows = np.array(frontier)
            frontier = [s for s in dict.fromkeys(tables[0].next[rows].ravel().tolist())
                        if s not in seen]
            seen.update(frontier)
        assert_same_tables(*tables)


class TestTransitionTable:
    def test_matrix_game_has_one_state(self):
        table = TransitionTable(MatrixGameEnv(make_game(CLIMBING_PAYOFF), horizon=4))
        start = table.reset(123)
        assert table.reset(456) == start
        for joint in range(9):
            table.step(start, joint)
        assert (table.next[:1] == start).all()
        assert table.reward[start].tolist() == [float(v) for v in np.ravel(CLIMBING_PAYOFF)]
        assert not table.term[start].any()  # only the horizon ends an episode

    def test_filled_entries_match_env_steps(self):
        env = fixture_env_factory()
        table = TransitionTable(fixture_env_factory())
        rng = random.Random(0)
        state = table.reset(0)
        env.reset(0)
        for _ in range(400):
            joint = rng.randrange(36)
            table.step(state, joint)
            res = env.step(table.joint_actions[joint])
            assert table.reward[state, joint] == res.reward
            succ = int(table.next[state, joint])
            if res.done:
                state = table.reset(0)
                env.reset(0)
            else:
                state = succ
        unfilled = int((table.next[:len(table._keys)] < 0).sum())
        assert 0 < unfilled < len(table.joint_actions) * len(table._keys)

    @settings(max_examples=100, deadline=None)
    @given(env=st.one_of(
        st.builds(lambda layout, horizon, radius: ForagingEnv(foraging_config_from_ascii(
            layout, horizon=horizon, view_radius=radius)),
            ascii_layouts(), st.integers(1, 8), st.sampled_from([None, 0, 1])),
        small_matrix_game_envs()), seed=st.integers(0, 2 ** 16))
    def test_expand_reachable_fills_every_step_from_the_start(self, env, seed):
        # A walk from the start, reset when its episode ends, never meets an
        # entry left unfilled, so it never interns a state either.
        table = TransitionTable(env)
        start = table.reset(0)
        table.expand_reachable(start, SEARCH_BUDGET)
        size = len(table._keys)
        rng = random.Random(seed)
        state, steps = start, 0
        for _ in range(300):
            joint = rng.randrange(len(table.joint_actions))
            assert table.next[state, joint] >= 0
            state, _, term = table.step(state, joint)
            steps += 1
            if term or steps >= table.horizon:
                state, steps = start, 0
        assert len(table._keys) == size

    @settings(max_examples=100, deadline=None)
    @given(env=st.one_of(
        st.builds(lambda layout, horizon, radius: ForagingEnv(foraging_config_from_ascii(
            layout, horizon=horizon, view_radius=radius)),
            ascii_layouts(), st.integers(1, 8), st.sampled_from([None, 0, 1])),
        small_matrix_game_envs()))
    def test_observations_read_after_expanding_match_step_fills(self, env):
        # Expanded states are encoded on the first read, as the same entries
        # stepped one by one, in the same order, encode them as they come.
        tables = TransitionTable(env), TransitionTable(copy.deepcopy(env))
        tables[0].expand_reachable(tables[0].reset(0), SEARCH_BUDGET)
        step_reachable(tables[1], tables[1].reset(0))
        assert_same_tables(*tables)

    @settings(max_examples=100, deadline=None)
    @given(env=st.builds(
        lambda width, height, levels, horizon, radius: ForagingEnv(ForagingConfig(
            width=width, height=height, agent_levels=levels, food_levels=(1,),
            horizon=horizon, view_radius=radius)),
        st.integers(2, 4), st.integers(2, 3), st.sampled_from([(1,), (1, 1), (1, 2)]),
        st.integers(1, 5), st.sampled_from([None, 0, 1])),
        seeds=st.lists(st.integers(0, 2 ** 16), min_size=1, max_size=4),
        joints=st.lists(st.integers(0, 35), min_size=1, max_size=6))
    def test_seeded_resets_after_expanding_keep_observation_ids_in_state_order(
            self, env, seeds, joints):
        # A seeded env expanded from one start, then reset to other seeds and
        # stepped into new states: each scalar fill encodes the expanded
        # states first, so ids stay those of a table filled only by step.
        tables = TransitionTable(env), TransitionTable(copy.deepcopy(env))
        for table in tables:
            start = table.reset(7)
            if table is tables[0]:
                table.expand_reachable(start, SEARCH_BUDGET)
            else:
                step_reachable(table, start)
            for seed in seeds:
                state = table.reset(seed)
                for joint in joints:
                    state, _, term = table.step(state, joint % len(table.joint_actions))
                    if term:
                        break
        assert_same_tables(*tables)


def step_reachable(table, start):
    """``expand_reachable``'s search from ``start``, one ``step`` per entry."""
    frontier, seen = [start], {start}
    for _ in range(table.horizon):
        going = []
        for state in frontier:
            for joint in range(len(table.joint_actions)):
                succ, _, term = table.step(state, joint)
                if not term:
                    going.append(succ)
        frontier = [s for s in dict.fromkeys(going) if s not in seen]
        seen.update(frontier)


def assert_same_tables(a, b):
    """``a`` and ``b`` hold the same states, entries and observation ids."""
    size = len(a._keys)
    assert a._keys == b._keys
    assert a.obs == b.obs and len(a.obs) == size
    assert a._obs_ids == b._obs_ids
    assert a.obs_count == b.obs_count
    for name in ("next", "reward", "term"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for i in range(a.n):  # each agent's ids first appear in state order: 0, 1, 2, ...
        firsts = list(dict.fromkeys(ids[i] for ids in a.obs))
        assert firsts == list(range(len(firsts)))


class TestTransitionMemo:
    """The transition table is the one memo of env transitions: stepping it
    matches stepping a live env exactly."""

    @settings(max_examples=150, deadline=None)
    @given(env=st.one_of(small_foraging_envs(), small_matrix_game_envs()), data=st.data())
    def test_table_matches_live_env(self, env, data):
        table = TransitionTable(env)
        live = copy.deepcopy(env)
        actions = data.draw(st.lists(st.tuples(*[st.integers(0, k - 1)
                                                 for k in env.action_counts]),
                                     min_size=1, max_size=6))
        seeds = data.draw(st.lists(st.integers(0, 3), min_size=2, max_size=5))
        seeds.append(seeds[0])
        dense = [{} for _ in range(env.n)]  # each agent's env observation -> dense id

        def check_observations(state, observations):
            assert table._keys[state] == live.get_state()[1]  # keyed by the env's own row
            ids = table.obs[state]
            assert ids == tuple(table._obs_ids[i][o] for i, o in enumerate(observations))
            for i, o in enumerate(observations):
                assert dense[i].setdefault(o, ids[i]) == ids[i]

        for seed in seeds:
            state = table.reset(seed)
            check_observations(state, live.reset(seed))
            for k in range(env.horizon):
                ja = actions[k % len(actions)]
                res = live.step(ja)
                state, reward, term = table.step(state, int(np.dot(ja, table.strides)))
                assert reward == res.reward
                assert (term or k + 1 >= env.horizon) == res.done
                check_observations(state, res.observations)
                if res.done:
                    break
        for i in range(env.n):  # dense ids are one-to-one
            assert len(set(dense[i].values())) == len(dense[i])

    def test_obs_grows_in_place(self):
        # A seeded env's table grows as it is stepped: the list read before
        # a step into a new state holds that state's ids after it.
        config = ForagingConfig(width=5, height=5, agent_levels=(1, 1), food_levels=(1, 2),
                                view_radius=1)
        table, live = TransitionTable(ForagingEnv(config)), ForagingEnv(config)
        assert not table.fixed_start
        state = table.reset(0)
        obs = table.obs
        assert obs == [tuple(ids[o] for ids, o in zip(table._obs_ids, live.reset(0)))]
        joint = next(j for j in range(len(table.joint_actions))
                     if table.step(state, j)[0] != state)
        res = live.step(table.joint_actions[joint])
        assert table.obs is obs and len(obs) == 2
        assert obs[1] == tuple(ids[o] for ids, o in zip(table._obs_ids, res.observations))

    def test_invalid_actions_raise_after_state_is_memoised(self):
        env = ForagingEnv(two_agent_config())
        env.reset(0)
        env.step((STAY, STAY))
        env.reset(0)
        for bad in ((6, STAY), (-1, STAY), (STAY,), (STAY, STAY, STAY)):
            with pytest.raises(ValueError):
                env.step(bad)

    def test_seeded_reset_positions_are_unchanged(self):
        # Positions the reset seed has always drawn.
        env = ForagingEnv(ForagingConfig(width=5, height=5, agent_levels=(1, 1),
                                         food_levels=(1, 2), view_radius=1))
        expected = {
            0: (((2, 2), (4, 4)), ((2, 4), (0, 1)), (12999, 24999)),
            7: (((2, 0), (0, 4)), ((2, 4), (4, 2)), (10999, 4999)),
            2 ** 32 - 1: (((4, 0), (3, 4)), ((1, 1), (4, 1)), (20995, 19999)),
        }
        for seed, (agents, foods, obs) in expected.items():
            assert env.reset(seed) == obs
            assert env.get_state() == (0, tuple(cell(*p) for p in agents + foods) + (1, 1))
        partly_seeded = ForagingEnv(two_agent_config(
            width=4, height=3, agent_positions=((0, 0), (2, 3)), food_positions=None))
        partly_seeded.reset(0)
        assert partly_seeded.get_state()[1][2] == cell(1, 3, 4)
        partly_seeded.reset(7)
        assert partly_seeded.get_state()[1][2] == cell(1, 2, 4)

    def test_planner_leaves_env_state_untouched(self):
        env = ForagingEnv(two_agent_config())
        env.reset(0)
        for ja in ((UP, DOWN), (STAY, STAY), (DOWN, UP), (LOAD, LOAD)):
            env.step(ja)
        state = env.get_state()
        assert optimal_return(env) == 1.0
        assert env.get_state() == state


class TestEnvFromConfig:
    def test_matrix_game_config(self):
        env = env_from_config({"kind": "matrix_game", "payoff": MATCH_PAYOFF, "horizon": 2})
        assert isinstance(env, MatrixGameEnv)
        assert env.horizon == 2

    def test_foraging_config(self):
        env = env_from_config({"kind": "foraging",
                               "grid": [".....", "..1..", "..b..", "..1..", "....."],
                               "horizon": 16, "cooperative_only": True})
        assert isinstance(env, ForagingEnv)
        assert env.config.horizon == 16

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            env_from_config({"kind": "pendulum"})

    @pytest.mark.parametrize("cfg, key", [
        ({"kind": "foraging", "grid": list(FIXTURE_ROWS), "veiw_radius": 1}, "veiw_radius"),
        ({"kind": "foraging", "grid": list(FIXTURE_ROWS), "payoff": MATCH_PAYOFF}, "payoff"),
        ({"kind": "matrix_game", "payoff": MATCH_PAYOFF, "view_radius": 1}, "view_radius"),
    ])
    def test_key_unknown_for_the_kind_is_rejected(self, cfg, key):
        with pytest.raises(ValueError, match=f"unknown key 'env.{key}'"):
            env_from_config(cfg)

    @pytest.mark.parametrize("kind, extra", [("matrix_game", {"payoff": MATCH_PAYOFF}),
                                             ("foraging", {"grid": list(FIXTURE_ROWS)})])
    @pytest.mark.parametrize("horizon", [2.5, 16.9, 0, True, "16"])
    def test_horizon_follows_the_count_rule(self, kind, extra, horizon):
        with pytest.raises(ValueError, match="horizon must be an integer >= 1"):
            env_from_config({"kind": kind, "horizon": horizon, **extra})

    def test_integral_float_horizon_is_the_integer(self):
        env = env_from_config({"kind": "foraging", "grid": list(FIXTURE_ROWS),
                               "horizon": 16.0})
        assert env.horizon == 16 and isinstance(env.horizon, int)

    @pytest.mark.parametrize("flag", ["no", 0, 1, None])
    def test_cooperative_only_must_be_a_bool(self, flag):
        with pytest.raises(ValueError, match="cooperative_only must be true or false"):
            env_from_config({"kind": "foraging", "grid": list(FIXTURE_ROWS),
                             "cooperative_only": flag})

    @pytest.mark.parametrize("radius", [1.5, -1, True, "1"])
    def test_view_radius_must_be_null_or_an_integer_at_least_zero(self, radius):
        with pytest.raises(ValueError, match="view_radius must be an integer >= 0"):
            env_from_config({"kind": "foraging", "grid": list(FIXTURE_ROWS),
                             "view_radius": radius})

    @pytest.mark.parametrize("radius, expected", [(None, None), (0, 0), (1, 1), (1.0, 1)])
    def test_valid_view_radius(self, radius, expected):
        env = env_from_config({"kind": "foraging", "grid": list(FIXTURE_ROWS),
                               "view_radius": radius})
        assert env.config.view_radius == expected
        assert all(isinstance(o, int) for o in env.reset(0))

    @pytest.mark.parametrize("grid", [".1b1.", [], [5], ["..1", 7]])
    def test_grid_must_be_a_non_empty_list_of_strings(self, grid):
        with pytest.raises(ValueError, match="env.grid must be a non-empty list of strings"):
            env_from_config({"kind": "foraging", "grid": grid})

    @pytest.mark.parametrize("cfg", [{"kind": "foraging"}, {"kind": "matrix_game"}])
    def test_missing_layout_is_named(self, cfg):
        with pytest.raises(ValueError, match="missing required key 'env."):
            env_from_config(cfg)
