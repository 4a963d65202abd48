import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import mtlearn as mt
from mtlearn import linalg
from mtlearn.estimation import (
    InvalidProblemError,
    Mode,
    TeamEstimationProblem,
    build_problem,
    iteration_matrix,
    run_br_iteration,
    solve_exact,
    spectral_radius,
    team_mse,
    team_mse_gradient,
)
from mtlearn.linalg import SingularMatrixError, eigvals


def random_problem(rng, n_max=6):
    while True:
        n = int(rng.integers(2, n_max + 1))
        p = float(rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0]))
        q = float(rng.uniform(-1.5, 1.5))
        s2 = float(rng.uniform(0.1, 2.0))
        if abs(p) * (1.0 + s2) < 1e-6:
            continue
        prob = build_problem(p, q, s2, n)
        try:
            solve_exact(prob)
        except SingularMatrixError:
            continue
        return prob


class TestBuildProblem:
    def test_coupled_instance(self, coupled_problem):
        assert np.allclose(coupled_problem.gamma,
                           [[1.5, 1.0, 1.0], [1.0, 1.5, 1.0], [1.0, 1.0, 1.5]])
        assert np.allclose(coupled_problem.eta, [3.0, 3.0, 3.0])

    def test_decoupled_instance(self):
        prob = build_problem(1.0, 0.0, 0.5, 2)
        assert np.allclose(prob.gamma, [[1.5, 0.0], [0.0, 1.5]])
        assert np.allclose(prob.eta, [1.0, 1.0])

    def test_direct_substitution(self):
        prob = build_problem(2.0, 0.5, 1.0, 2)
        assert np.allclose(prob.gamma, [[4.0, 0.5], [0.5, 4.0]])
        assert np.allclose(prob.eta, [2.5, 2.5])

    def test_gamma_symmetric_and_readonly(self, coupled_problem):
        assert np.array_equal(coupled_problem.gamma, coupled_problem.gamma.T)
        with pytest.raises(ValueError):
            coupled_problem.gamma[0, 0] = 9.0

    @pytest.mark.parametrize("p,q,s2,n", [
        (1.0, 1.0, 0.0, 3),      # zero variance
        (1.0, 1.0, -0.5, 3),     # negative variance
        (1.0, 1.0, 0.5, 1),      # single agent
        (0.0, 1.0, 0.5, 3),      # zero diagonal
        (1.0, 1.0, 0.5, 2.5),    # non-integer count
        (1e308, 1e308, 0.5, 3),  # right-hand side p + (n - 1) q overflows
        (1e308, 0.5, 1.0, 3),    # diagonal p (1 + sigma2) overflows
    ])
    def test_invalid_parameters(self, p, q, s2, n):
        with pytest.raises(InvalidProblemError):
            build_problem(p, q, s2, n)

    @pytest.mark.parametrize("value", ["1", True, np.True_, None, [1.0], 10 ** 400],
                             ids=["string", "true", "numpy bool", "none", "list", "10**400"])
    @pytest.mark.parametrize("name", ["p", "q", "sigma2"])
    def test_a_parameter_that_is_not_a_number_is_named(self, name, value):
        # The number rule, not a bare TypeError from the arithmetic.
        with pytest.raises(InvalidProblemError, match=f"^{name} must be a number, got "):
            build_problem(**{"p": 1.0, "q": 1.0, "sigma2": 0.5, "n": 3, name: value})


FIELDS = ("p", "q", "sigma2", "n")
# ``build_problem`` arguments with a nonzero diagonal weight, n as an int or an
# integral float. Some draws make gamma singular: every route must refuse those alike.
problem_args = st.fixed_dictionaries({
    "p": st.one_of(st.floats(-3.0, -0.01), st.floats(0.01, 3.0), st.sampled_from([1, -2])),
    "q": st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0, 1, 1.5])),
    "sigma2": st.one_of(st.floats(0.01, 3.0), st.just(0.5)),
    "n": st.one_of(st.integers(2, 6), st.integers(2, 6).map(float)),
})
# Values each field rejects whatever the others hold.
BAD_PROBLEM_FIELDS = {
    "p": [0.0, -0.0, math.nan, math.inf, -math.inf],
    "q": [math.nan, math.inf, -math.inf],
    "sigma2": [0.0, -0.5, math.nan, -math.inf, math.inf],
    "n": [1, 0, 2.5, True, "3", None],
}


def solution_or_error(problem):
    try:
        return problem.solution.tolist()
    except SingularMatrixError as err:
        return str(err)


def built(build):
    """The problem ``build`` returns, or the message of the InvalidProblemError it raises."""
    try:
        return build()
    except InvalidProblemError as err:
        return str(err)


def assert_same_problem(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert [getattr(got, f) for f in FIELDS] == [getattr(want, f) for f in FIELDS]
    assert type(got.n) is int and all(type(getattr(got, f)) is float for f in FIELDS[:3])
    assert np.array_equal(got.gamma, want.gamma) and np.array_equal(got.eta, want.eta)
    assert not got.gamma.flags.writeable and not got.eta.flags.writeable
    assert solution_or_error(got) == solution_or_error(want)


class TestProblemChecksItself:
    @given(args=problem_args, other=problem_args, data=st.data())
    def test_direct_construction_and_replace_equal_the_factory(self, args, other, data):
        problem = built(lambda: build_problem(**args))
        assert_same_problem(built(lambda: TeamEstimationProblem(**args)), problem)
        assert_same_problem(built(lambda: TeamEstimationProblem(*(args[f] for f in FIELDS))),
                            problem)
        assume(not isinstance(problem, str))
        # A replaced field rebuilds the system from the new values.
        name = data.draw(st.sampled_from(sorted(args)))
        changed = dict(args, **{name: other[name]})
        assert_same_problem(built(lambda: dataclasses.replace(problem, **{name: other[name]})),
                            built(lambda: build_problem(**changed)))

    @given(args=problem_args, data=st.data())
    def test_an_invalid_field_fails_with_the_factorys_message(self, args, data):
        problem = built(lambda: build_problem(**args))
        assume(not isinstance(problem, str))
        name = data.draw(st.sampled_from(sorted(BAD_PROBLEM_FIELDS)))
        bad = data.draw(st.sampled_from(BAD_PROBLEM_FIELDS[name]))
        with pytest.raises(InvalidProblemError) as factory:
            build_problem(**dict(args, **{name: bad}))
        for build in (lambda: TeamEstimationProblem(**dict(args, **{name: bad})),
                      lambda: dataclasses.replace(problem, **{name: bad})):
            with pytest.raises(InvalidProblemError) as direct:
                build()
            assert str(direct.value) == str(factory.value)

    def test_a_system_too_large_to_allocate_fails_naming_its_size(self):
        # numpy refuses 8e12 bytes at once; no size that could really be allocated is tried.
        with pytest.raises(InvalidProblemError,
                           match="^n = 1000000 too large: gamma needs 8000000000000 bytes$"):
            TeamEstimationProblem(p=1.0, q=0.5, sigma2=0.5, n=10 ** 6)

    def test_replace_solves_the_new_system(self, coupled_problem):
        # A problem that kept the old gamma and eta would solve the old system.
        problem = dataclasses.replace(coupled_problem, q=0.9)
        assert problem.gamma[0, 1] == 0.9 and problem.eta[0] == pytest.approx(2.8)
        assert solve_exact(problem) == pytest.approx([2.8 / 3.3] * 3, abs=1e-12)

class TestSolveExact:
    def test_solved_once_per_problem(self, monkeypatch):
        calls = []

        def counted(a, b, solve=linalg.solve_dense):
            calls.append(1)
            return solve(a, b)

        monkeypatch.setattr(linalg, "solve_dense", counted)
        prob = build_problem(1.0, 0.5, 0.5, 3)
        k = solve_exact(prob)
        for mode in Mode:
            run_br_iteration(prob, mode, [0.0] * 3)
        assert len(calls) == 1
        assert solve_exact(prob) is k and not k.flags.writeable

    def test_coupled_instance_six_sevenths(self, coupled_problem):
        # Independent derivation: by symmetry all gains are equal, so
        # (3/2) k + 2 k = 3, i.e. k = 6/7. Cross-checked with numpy below.
        k = solve_exact(coupled_problem)
        assert np.allclose(k, 6.0 / 7.0, atol=1e-12)
        assert np.allclose(k, np.linalg.solve(coupled_problem.gamma, coupled_problem.eta))

    def test_decoupled(self):
        k = solve_exact(build_problem(1.0, 0.0, 0.5, 2))
        assert np.allclose(k, 2.0 / 3.0, atol=1e-12)

    def test_residual_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            prob = random_problem(rng)
            k = solve_exact(prob)
            assert np.max(np.abs(prob.gamma @ k - prob.eta)) <= 1e-10

    def test_singular_system(self):
        # gamma = (d - q) I + q 11^T with d = p (1 + sigma2) is singular exactly when
        # d == q (here rank one) or d + (n - 1) q == 0; no such problem can be built,
        # so no solve meets one. The message prints plain floats.
        for args, zero in (((1.0, 1.5, 0.5, 3), "- q = 0.0,"),
                           ((-2.0, 1.5, 0.5, 3), "(n - 1) * q = 0.0")):
            with pytest.raises(InvalidProblemError, match="singular system") as err:
                build_problem(*args)
            assert zero in str(err.value) and "np." not in str(err.value)


class TestIterationMatrix:
    def test_coupled_iibr_matrix(self, coupled_problem):
        expected = np.full((3, 3), -2.0 / 3.0)
        np.fill_diagonal(expected, 0.0)
        assert np.allclose(iteration_matrix(coupled_problem, Mode.IIBR), expected, atol=1e-12)

    def test_coupled_sibr_matrix(self, coupled_problem):
        expected = np.array([
            [0.0, -2.0 / 3.0, -2.0 / 3.0],
            [0.0, 4.0 / 9.0, -2.0 / 9.0],
            [0.0, 4.0 / 27.0, 16.0 / 27.0],
        ])
        assert np.allclose(iteration_matrix(coupled_problem, Mode.SIBR), expected, atol=1e-12)

    def test_diagonal_problem_gives_zero_matrix(self):
        prob = build_problem(1.3, 0.0, 0.7, 4)
        for mode in Mode:
            assert np.allclose(iteration_matrix(prob, mode), 0.0)

    def test_splitting_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            prob = random_problem(rng)
            g = prob.gamma
            d = np.diag(np.diag(g))
            lower = np.tril(g, -1)
            upper = np.triu(g, 1)
            assert np.array_equal(d + lower + upper, g)

    def test_zero_diagonal_problem_cannot_be_built(self):
        # The splitting needs a nonzero diagonal; the problem itself refuses one,
        # so no problem reaches iteration_matrix or run_br_iteration without it.
        with pytest.raises(InvalidProblemError, match="zero diagonal"):
            mt.TeamEstimationProblem(p=0.0, q=1.0, sigma2=0.5, n=2)

    def test_matches_definition_on_random_problems(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            prob = random_problem(rng)
            g = prob.gamma
            d = np.diag(np.diag(g))
            lower = np.tril(g, -1)
            upper = np.triu(g, 1)
            assert np.allclose(iteration_matrix(prob, Mode.IIBR),
                               -np.linalg.solve(d, lower + upper), atol=1e-10)
            assert np.allclose(iteration_matrix(prob, Mode.SIBR),
                               -np.linalg.solve(d + lower, upper), atol=1e-10)


class TestSpectralRadius:
    def test_coupled_instance_radii(self, coupled_problem):
        rho_iibr = spectral_radius(iteration_matrix(coupled_problem, Mode.IIBR))
        rho_sibr = spectral_radius(iteration_matrix(coupled_problem, Mode.SIBR))
        assert rho_iibr == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert rho_sibr == pytest.approx(6.0 * np.sqrt(6.0) / 27.0, abs=1e-9)

    def test_coupled_eigenvalue_sets(self, coupled_problem):
        vals = sorted(eigvals(iteration_matrix(coupled_problem, Mode.IIBR)),
                      key=lambda v: v.real)
        assert abs(vals[0] - (-4.0 / 3.0)) <= 1e-9
        assert abs(vals[1] - 2.0 / 3.0) <= 1e-9
        assert abs(vals[2] - 2.0 / 3.0) <= 1e-9

        vals = sorted(eigvals(iteration_matrix(coupled_problem, Mode.SIBR)),
                      key=lambda v: (abs(v), v.imag))
        expected = sorted([0.0, (14 + np.sqrt(20) * 1j) / 27, (14 - np.sqrt(20) * 1j) / 27],
                          key=lambda v: (abs(v), np.imag(v)))
        for got, want in zip(vals, expected):
            assert abs(got - want) <= 1e-9


def positive_errors(trace):
    return np.array([e for e in trace.errors if e > 0.0])


class TestRunBrIteration:
    def test_sibr_converges_on_coupled_instance(self, coupled_problem):
        trace = run_br_iteration(coupled_problem, Mode.SIBR, np.zeros(3),
                                 max_sweeps=100, tol=1e-8)
        assert trace.converged
        assert trace.errors[-1] <= 1e-8
        assert np.allclose(trace.iterates[-1], 6.0 / 7.0, atol=1e-7)
        errs = positive_errors(trace)
        ratios = errs[1:] / errs[:-1]
        gm = float(np.exp(np.mean(np.log(ratios[-10:]))))
        assert gm == pytest.approx(6.0 * np.sqrt(6.0) / 27.0, rel=0.05)

    def test_iibr_diverges_on_coupled_instance(self, coupled_problem):
        trace = run_br_iteration(coupled_problem, Mode.IIBR, np.zeros(3),
                                 max_sweeps=500, tol=1e-8)
        assert trace.diverged
        errs = positive_errors(trace)
        ratios = errs[1:] / errs[:-1]
        gm = float(np.exp(np.mean(np.log(ratios[-10:]))))
        assert gm == pytest.approx(4.0 / 3.0, rel=0.05)

    def test_start_at_solution_converges_immediately(self, coupled_problem):
        k_star = solve_exact(coupled_problem)
        for mode in Mode:
            trace = run_br_iteration(coupled_problem, mode, k_star, max_sweeps=10, tol=1e-8)
            assert trace.converged
            assert trace.sweeps == 0
            assert trace.errors == (0.0,)

    def test_fixed_point_consistency(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            prob = random_problem(rng)
            k_star = solve_exact(prob)
            scale = max(1.0, float(np.max(np.abs(k_star))))
            for mode in Mode:
                trace = run_br_iteration(prob, mode, k_star, max_sweeps=1, tol=1e-30)
                assert trace.errors[-1] <= 1e-10 * scale

    def test_convergence_iff_spectral_radius_below_one(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 60:
            prob = random_problem(rng)
            mode = Mode.IIBR if checked % 2 == 0 else Mode.SIBR
            rho = spectral_radius(iteration_matrix(prob, mode))
            if abs(rho - 1.0) < 0.05:
                continue  # margin around the unit circle, per the boundary exclusion
            k0 = rng.normal(size=prob.n)
            trace = run_br_iteration(prob, mode, k0, max_sweeps=5000, tol=1e-9)
            assert trace.status in ("converged", "diverged")
            assert trace.converged == (rho < 1.0), (prob, mode, rho, trace.status)
            checked += 1

    def test_asymptotic_rate_matches_spectral_radius(self):
        # Measured deep in the asymptotic regime: a clearly dominant real
        # mode (second modulus <= 0.7 rho) and at least 30 sweeps.
        rng = np.random.default_rng(37)
        measured = 0
        attempts = 0
        while measured < 20 and attempts < 4000:
            attempts += 1
            prob = random_problem(rng)
            mode = Mode.IIBR if attempts % 2 == 0 else Mode.SIBR
            mags = sorted(abs(v) for v in eigvals(iteration_matrix(prob, mode)))
            rho = mags[-1]
            if not (0.55 < rho < 0.9) or mags[-2] > 0.7 * rho:
                continue
            trace = run_br_iteration(prob, mode, rng.normal(size=prob.n),
                                     max_sweeps=4000, tol=1e-10)
            if not trace.converged or trace.sweeps < 30:
                continue
            errs = positive_errors(trace)
            ratios = errs[1:] / errs[:-1]
            gm = float(np.exp(np.mean(np.log(ratios[-10:]))))
            assert gm == pytest.approx(rho, rel=0.05)
            measured += 1
        assert measured == 20

    def test_divergence_threshold_and_overflow(self, coupled_problem):
        trace = run_br_iteration(coupled_problem, Mode.IIBR, np.zeros(3),
                                 max_sweeps=10000, tol=1e-12)
        assert trace.diverged
        start_error = trace.errors[0]
        assert trace.errors[-1] > 1e6 * (1.0 + start_error) or not np.isfinite(trace.errors[-1])

    def test_max_sweeps_status(self, coupled_problem):
        trace = run_br_iteration(coupled_problem, Mode.SIBR, np.zeros(3),
                                 max_sweeps=2, tol=1e-12)
        assert trace.status == "max_sweeps"
        assert trace.sweeps == 2

    def test_input_validation(self, coupled_problem):
        with pytest.raises(ValueError):
            run_br_iteration(coupled_problem, Mode.SIBR, np.zeros(3), tol=0.0)
        with pytest.raises(ValueError):
            run_br_iteration(coupled_problem, Mode.SIBR, np.zeros(2))
        with pytest.raises(ValueError):
            run_br_iteration(coupled_problem, Mode.SIBR, np.array([np.inf, 0.0, 0.0]))


class TestTeamMse:
    def test_coupled_optimum_is_one_seventh(self, coupled_problem):
        k_star = solve_exact(coupled_problem)
        assert team_mse(coupled_problem, k_star) == pytest.approx(1.0 / 7.0, abs=1e-12)

    def test_monte_carlo_oracle(self, coupled_problem):
        # 10^7 draws of the averaged-estimate squared error, in chunks.
        k = solve_exact(coupled_problem)
        rng = np.random.default_rng(99)
        total = 0.0
        total_sq = 0.0
        n_samples = 10_000_000
        chunk = 1_000_000
        for _ in range(n_samples // chunk):
            x = rng.standard_normal(chunk)
            y = x[:, None] + np.sqrt(0.5) * rng.standard_normal((chunk, 3))
            err = (x - (y @ k) / 3.0) ** 2
            total += float(err.sum())
            total_sq += float((err ** 2).sum())
        mc_mean = total / n_samples
        mc_var = total_sq / n_samples - mc_mean ** 2
        stderr = np.sqrt(mc_var / n_samples)
        assert abs(team_mse(coupled_problem, k) - mc_mean) <= 3.0 * stderr

    def test_zero_gains_give_state_variance(self, coupled_problem):
        assert team_mse(coupled_problem, np.zeros(3)) == pytest.approx(1.0, abs=1e-12)

    def test_solution_beats_coordinate_perturbations(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            # Positive diagonal weight makes each coordinate slice convex.
            prob = build_problem(float(rng.uniform(0.2, 2.0)), float(rng.uniform(-1.5, 1.5)),
                                 float(rng.uniform(0.1, 2.0)), int(rng.integers(2, 7)))
            try:
                k_star = solve_exact(prob)
            except SingularMatrixError:
                continue
            base = team_mse(prob, k_star)
            for _ in range(5):
                i = int(rng.integers(prob.n))
                delta = float(rng.normal() or 0.1)
                perturbed = k_star.copy()
                perturbed[i] += delta
                assert team_mse(prob, perturbed) >= base - 1e-12

    def test_gradient_check_against_central_differences(self):
        rng = np.random.default_rng(43)
        h = 1e-5
        for _ in range(50):
            prob = random_problem(rng)
            k = rng.normal(scale=2.0, size=prob.n)
            numeric = np.empty(prob.n)
            for i in range(prob.n):
                up = k.copy()
                up[i] += h
                down = k.copy()
                down[i] -= h
                numeric[i] = (team_mse(prob, up) - team_mse(prob, down)) / (2.0 * h)
            analytic = team_mse_gradient(prob, k)
            denom = max(float(np.linalg.norm(analytic)), 1e-8)
            assert float(np.linalg.norm(numeric - analytic)) / denom <= 1e-4

    def test_rejects_bad_gains(self, coupled_problem):
        with pytest.raises(ValueError):
            team_mse(coupled_problem, np.zeros(2))
        with pytest.raises(ValueError):
            team_mse(coupled_problem, np.array([np.nan, 0.0, 0.0]))
