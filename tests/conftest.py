import numpy as np
import pytest
from hypothesis import strategies as st

import mtlearn as mt

# Frozen desk-scale foraging fixture: two level-1 agents start adjacent to a
# level-2 food on a 5x5 grid, so collecting it requires a simultaneous load.
FIXTURE_ROWS = (".....", "..1..", "..b..", "..1..", ".....")
FIXTURE_HORIZON = 16
FIXTURE_LEVELS = (0.3, 0.05)
FIXTURE_SWITCH = 500
FIXTURE_EPSILON = (1.0, 0.01, 30000)
FIXTURE_DISCOUNT = 0.95
FIXTURE_TOTAL_STEPS = 50000
FIXTURE_EVAL_EVERY = 2500
FIXTURE_EVAL_EPISODES = 5

MATCH_PAYOFF = [[1.0, 0.0], [0.0, 1.0]]
CLIMBING_PAYOFF = [[11.0, -30.0, 0.0], [-30.0, 7.0, 6.0], [0.0, 0.0, 5.0]]


def fixture_env_factory():
    return mt.ForagingEnv(
        mt.foraging_config_from_ascii(list(FIXTURE_ROWS), horizon=FIXTURE_HORIZON,
                                      cooperative_only=True))


@st.composite
def ascii_layouts(draw):
    """ASCII layouts: one or two agents and foods on a grid of at most 4x3."""
    width, height = draw(st.integers(2, 4)), draw(st.integers(2, 3))
    agents = draw(st.lists(st.sampled_from("12"), min_size=1, max_size=2))
    total = sum(int(a) for a in agents)
    foods = draw(st.lists(st.sampled_from("ab"[:total]), min_size=1, max_size=2))
    cells = ["."] * (width * height)
    placed = draw(st.permutations(range(width * height)))
    for cell, ch in zip(placed, agents + foods):
        cells[cell] = ch
    return ["".join(cells[r * width:(r + 1) * width]) for r in range(height)]


@pytest.fixture
def coupled_problem():
    return mt.build_problem(1.0, 1.0, 0.5, 3)


@pytest.fixture
def match_game():
    return mt.make_game(MATCH_PAYOFF)


@pytest.fixture
def climbing_game():
    return mt.make_game(CLIMBING_PAYOFF)


def random_team_game(rng: np.random.Generator) -> mt.TeamGame:
    n = int(rng.integers(2, 5))
    counts = tuple(int(rng.integers(2, 4)) for _ in range(n))
    return mt.make_game(rng.uniform(0.0, 1.0, size=counts))
