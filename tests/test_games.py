import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlearn import games
from mtlearn.estimation import Mode
from mtlearn.games import (
    TeamGame,
    TieBreak,
    best_response,
    iibr_step,
    is_agent_by_agent_optimal,
    make_game,
    run_dynamics,
    sibr_step,
    team_payoff,
)

import dynamics_reference
from conftest import random_team_game



class TestTeamGameChecksItself:
    def test_fields_are_derived_from_the_payoff(self):
        game = TeamGame([[1, 0, 2], [0, 1, 3]])
        assert game.n == 2 and game.action_counts == (2, 3)
        assert game.payoff.dtype == float and not game.payoff.flags.writeable
        again = dataclasses.replace(game, payoff=np.ones((2, 2, 4)))
        assert again.n == 3 and again.action_counts == (2, 2, 4)

    @pytest.mark.parametrize("payoff, message", [
        ({}, "payoff must be a tensor of numbers, got {}"),
        ([{}], "payoff must be a tensor of numbers"),
        ([[1.0, 0.0], [0.0]], "payoff must be a tensor of numbers"),
        ("high", "payoff must be a tensor of numbers"),
        (5.0, "need at least one agent, got n=0"),
        ([[], []], "every agent needs at least one action"),
        ([[1.0, np.nan]], "payoff entries must be finite"),
    ])
    def test_bad_payoffs_raise_value_error(self, payoff, message):
        with pytest.raises(ValueError, match=message):
            TeamGame(payoff)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(TeamGame([[1.0]]), payoff=payoff)

    @pytest.mark.parametrize("entry", ["1", True, False, np.True_, None, 1j, 10 ** 400],
                             ids=["string", "true", "false", "numpy bool", "none", "complex",
                                  "10**400"])
    def test_an_entry_that_is_not_a_number_is_rejected(self, entry):
        # Each entry follows the number rule: numpy would read "1" and True as 1.0.
        for payoff in ([[entry, 0.0], [0.0, 1.0]], np.array([[entry, 0], [0, 1]], dtype=object)):
            with pytest.raises(ValueError, match="payoff must be a tensor of numbers"):
                TeamGame(payoff)
        with pytest.raises(ValueError, match="payoff must be a tensor of numbers"):
            TeamGame(np.array([[True, False], [False, True]]))

    @pytest.mark.parametrize("payoff", [np.eye(2), np.eye(2, dtype=np.int64),
                                        np.eye(2, dtype=np.float32), [np.eye(2)[0], (0, 1)]],
                             ids=["float64", "int64", "float32", "rows"])
    def test_the_game_keeps_its_own_copy_of_the_payoff(self, payoff):
        # A numeric array is read entry by entry into a new read-only array: the caller's
        # own array stays writable, and writing to it does not change the game.
        game = TeamGame(payoff)
        assert game.payoff.dtype == float and not game.payoff.flags.writeable
        source = payoff if isinstance(payoff, np.ndarray) else payoff[0]
        assert source.flags.writeable
        source[0] = 7
        assert game.payoff.tolist() == [[1.0, 0.0], [0.0, 1.0]]


class TestTeamPayoff:
    def test_match_game_lookups(self, match_game):
        assert team_payoff(match_game, (0, 0)) == 1.0
        assert team_payoff(match_game, (0, 1)) == 0.0

    def test_constant_three_agent_game(self):
        game = make_game(np.ones((2, 2, 2)))
        for profile in np.ndindex(2, 2, 2):
            assert team_payoff(game, profile) == 1.0

    def test_out_of_range_action_raises(self, match_game):
        with pytest.raises(IndexError):
            team_payoff(match_game, (0, 2))
        with pytest.raises(IndexError):
            team_payoff(match_game, (-1, 0))
        with pytest.raises(IndexError):
            team_payoff(match_game, (0,))


class TestBestResponse:
    def test_match_game_enumeration(self, match_game):
        # Agent 0 against opponent action 1: payoffs (0, 1) over its actions.
        assert best_response(match_game, (0, 1), 0) == 1
        # Agent 1 against agent-0 action 0: payoffs (1, 0).
        assert best_response(match_game, (0, 1), 1) == 0

    def test_constant_game_keep_current(self):
        game = make_game(np.full((3, 3), 2.0))
        assert best_response(game, (2, 1), 0, TieBreak.KEEP_CURRENT) == 2
        assert best_response(game, (2, 1), 0, TieBreak.LOWEST_INDEX) == 0

    def test_agent_index_validation(self, match_game):
        with pytest.raises(IndexError):
            best_response(match_game, (0, 0), 2)


class TestSteps:
    def test_iibr_match_game_swap(self, match_game):
        assert iibr_step(match_game, (0, 1)) == (1, 0)
        assert iibr_step(match_game, (1, 0)) == (0, 1)

    def test_iibr_fixed_point_with_keep_current(self, match_game):
        assert iibr_step(match_game, (0, 0)) == (0, 0)

    def test_sibr_match_game(self, match_game):
        assert sibr_step(match_game, (0, 1), 0) == (1, 1)
        assert sibr_step(match_game, (0, 0), 0) == (0, 0)
        assert sibr_step(match_game, (0, 0), 1) == (0, 0)

    def test_sibr_climbing_game(self, climbing_game):
        # Against opponent action 2 the column payoffs are (0, 6, 5).
        assert sibr_step(climbing_game, (2, 2), 0) == (1, 2)


class TestRunDynamics:
    def test_iibr_match_game_cycles(self, match_game):
        trace = run_dynamics(match_game, Mode.IIBR, (0, 1), max_rounds=50)
        assert trace.status == "cycle"
        assert trace.period == 2
        assert trace.start == 0
        assert trace.profiles[0] == trace.profiles[2] == (0, 1)

    def test_sibr_match_game_converges(self, match_game):
        trace = run_dynamics(match_game, Mode.SIBR, (0, 1), max_rounds=50)
        assert trace.status == "converged"
        assert trace.round_ == 1
        assert trace.final_profile == (1, 1)
        assert trace.final_payoff == 1.0

    def test_start_at_optimum_converges_in_one_round(self, climbing_game):
        optimum = (0, 0)  # payoff 11, the global maximum
        assert is_agent_by_agent_optimal(climbing_game, optimum)
        for mode in Mode:
            trace = run_dynamics(climbing_game, mode, optimum, max_rounds=10)
            assert trace.status == "converged"
            assert trace.round_ == 1
            assert trace.final_profile == optimum

    def test_max_rounds_status(self, match_game):
        trace = run_dynamics(match_game, Mode.IIBR, (0, 1), max_rounds=1)
        assert trace.status == "max_rounds"

    def test_payoffs_track_profiles(self, climbing_game):
        trace = run_dynamics(climbing_game, Mode.SIBR, (2, 0), max_rounds=20)
        for prof, pay in zip(trace.profiles, trace.payoffs):
            assert pay == team_payoff(climbing_game, prof)

    def test_deterministic(self, climbing_game):
        a = run_dynamics(climbing_game, Mode.SIBR, (2, 1), max_rounds=30)
        b = run_dynamics(climbing_game, Mode.SIBR, (2, 1), max_rounds=30)
        assert a.profiles == b.profiles
        assert a.payoffs == b.payoffs
        assert a.status == b.status


class TestIsAgentByAgentOptimal:
    def test_match_game_profiles(self, match_game):
        assert is_agent_by_agent_optimal(match_game, (1, 1))
        assert not is_agent_by_agent_optimal(match_game, (0, 1))

    def test_global_maximum_is_always_optimal(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            game = random_team_game(rng)
            best = np.unravel_index(int(np.argmax(game.payoff)), game.payoff.shape)
            assert is_agent_by_agent_optimal(game, best)


class TestSequentialGuarantees:
    """Monotone improvement and termination of sequential updates."""

    def test_monotonicity_termination_and_fixed_points(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            game = random_team_game(rng)
            start = tuple(int(rng.integers(c)) for c in game.action_counts)
            bound = int(np.prod(game.action_counts))

            # Payoff never decreases along individual sequential updates.
            profile = start
            payoff = team_payoff(game, profile)
            for _ in range(bound * game.n + game.n):
                improved = False
                for agent in range(game.n):
                    nxt = sibr_step(game, profile, agent, TieBreak.KEEP_CURRENT)
                    nxt_payoff = team_payoff(game, nxt)
                    assert nxt_payoff >= payoff
                    improved = improved or nxt != profile
                    profile, payoff = nxt, nxt_payoff
                if not improved:
                    break

            trace = run_dynamics(game, Mode.SIBR, start, max_rounds=bound + 1)
            assert trace.status == "converged"
            assert trace.round_ <= bound
            assert is_agent_by_agent_optimal(game, trace.final_profile)

    def test_sibr_round_payoffs_non_decreasing(self):
        rng = np.random.default_rng(78)
        for _ in range(50):
            game = random_team_game(rng)
            start = tuple(int(rng.integers(c)) for c in game.action_counts)
            trace = run_dynamics(game, Mode.SIBR, start,
                                 max_rounds=int(np.prod(game.action_counts)) + 1)
            for earlier, later in zip(trace.payoffs, trace.payoffs[1:]):
                assert later >= earlier


def relabeled_game(game, rng):
    """Random agent permutation plus per-agent action permutations."""
    n = game.n
    sigma = rng.permutation(n)  # new agent j plays old agent sigma[j]
    action_perms = [rng.permutation(game.action_counts[sigma[j]]) for j in range(n)]
    new_counts = tuple(int(game.action_counts[sigma[j]]) for j in range(n))
    payoff = np.empty(new_counts)
    for new_prof in np.ndindex(*new_counts):
        old_prof = [0] * n
        for j in range(n):
            old_prof[sigma[j]] = int(action_perms[j][new_prof[j]])
        payoff[new_prof] = game.payoff[tuple(old_prof)]
    def to_new(old_prof):
        inv = [int(np.argwhere(action_perms[j] == old_prof[sigma[j]])[0, 0])
               for j in range(n)]
        return tuple(inv)
    return make_game(payoff), to_new


class TestRelabelingInvariance:
    def test_iibr_step_commutes_with_relabeling(self):
        rng = np.random.default_rng(101)
        for _ in range(40):
            game = random_team_game(rng)  # continuous payoffs: ties have measure zero
            new_game, to_new = relabeled_game(game, rng)
            profile = tuple(int(rng.integers(c)) for c in game.action_counts)
            # Sanity: the relabeling preserves payoffs.
            assert team_payoff(new_game, to_new(profile)) == team_payoff(game, profile)
            stepped = iibr_step(game, profile, TieBreak.LOWEST_INDEX)
            assert iibr_step(new_game, to_new(profile), TieBreak.LOWEST_INDEX) == to_new(stepped)


def deviation_payoffs(game, profile, agent):
    """The payoff of each of ``agent``'s actions, the others held at ``profile``."""
    values = []
    for a in range(game.action_counts[agent]):
        deviation = list(profile)
        deviation[agent] = a
        values.append(float(game.payoff[tuple(deviation)]))
    return values


def brute_best_response(game, profile, agent, tie_break):
    best_a, best_v = 0, -np.inf
    for a, v in enumerate(deviation_payoffs(game, profile, agent)):
        if v > best_v:
            best_a, best_v = a, v
    if tie_break is TieBreak.KEEP_CURRENT and game.payoff[tuple(profile)] == best_v:
        return profile[agent]
    return best_a


def brute_is_optimal(game, profile):
    base = float(game.payoff[tuple(profile)])
    return all(v <= base for agent in range(game.n)
               for v in deviation_payoffs(game, profile, agent))


@st.composite
def games_and_profiles(draw):
    # Few distinct payoffs, signed zeros among them, so ties are common.
    counts = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    values = draw(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]),
                           min_size=int(np.prod(counts)), max_size=int(np.prod(counts))))
    profile = tuple(draw(st.integers(0, c - 1)) for c in counts)
    return make_game(np.array(values).reshape(counts)), profile


@settings(max_examples=300, deadline=None)
@given(case=games_and_profiles())
def test_payoff_line_reads_match_the_action_loops(case):
    # One payoff-line read gives what a loop over each agent's actions does,
    # including which of equal payoffs (0.0 and -0.0 among them) is kept.
    game, profile = case
    for agent in range(game.n):
        for tie_break in TieBreak:
            got = best_response(game, profile, agent, tie_break)
            assert type(got) is int
            assert got == brute_best_response(game, profile, agent, tie_break)
    assert is_agent_by_agent_optimal(game, profile) == brute_is_optimal(game, profile)


@st.composite
def dynamics_cases(draw):
    game, initial = draw(games_and_profiles())
    return (game, initial, draw(st.sampled_from(list(Mode))),
            draw(st.sampled_from(list(TieBreak))), draw(st.integers(1, 6)))


def trace_fields(trace):
    return (trace.mode, trace.profiles, trace.payoffs, trace.status, trace.round_,
            trace.period, trace.start)


@settings(max_examples=300, deadline=None)
@given(case=dynamics_cases())
def test_dynamics_match_the_reference_rounds(case):
    # Taking the next round as the convergence test gives the trace of a
    # separate simultaneous-step test, ties, cycles and the budget included.
    game, initial, mode, tie_break, max_rounds = case
    got = run_dynamics(game, mode, initial, max_rounds=max_rounds, tie_break=tie_break)
    want = dynamics_reference.run_dynamics(game, mode, initial, max_rounds, tie_break)
    assert trace_fields(got) == trace_fields(want)


@pytest.mark.parametrize("mode", list(Mode))
def test_dynamics_compute_each_round_once(mode, monkeypatch):
    # One round of best responses per recorded round, plus the last one,
    # which found the profile unchanged or repeated.
    calls = []

    def counted(*args):
        calls.append(args)
        return best_response(*args)

    monkeypatch.setattr(games, "best_response", counted)
    rng = np.random.default_rng(5)
    rounds = []
    for _ in range(20):
        game = random_team_game(rng)
        initial = tuple(int(rng.integers(c)) for c in game.action_counts)
        calls.clear()
        trace = run_dynamics(game, mode, initial)
        assert trace.status != "max_rounds"
        assert len(calls) == len(trace.profiles) * game.n
        rounds.append(len(trace.profiles) - 1)
    assert max(rounds) >= 2
