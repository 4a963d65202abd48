import re

import numpy as np
import pytest

from mtlearn.linalg import (
    EigenConvergenceError,
    SingularMatrixError,
    eigvals,
    hessenberg,
    solve_dense,
    spectral_radius,
)


def matched_eigen_deviation(mine, reference) -> float:
    """Greedy one-to-one matching distance between two eigenvalue sets."""
    ref = list(reference)
    worst = 0.0
    assert len(mine) == len(ref)
    for v in mine:
        j = int(np.argmin([abs(v - r) for r in ref]))
        worst = max(worst, abs(v - ref.pop(j)))
    return worst


class TestSolveDense:
    def test_random_systems_against_numpy(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 17))
            a = rng.normal(size=(n, n))
            b = rng.normal(size=n)
            x = solve_dense(a, b)
            assert np.allclose(x, np.linalg.solve(a, b), atol=1e-9)
            assert np.max(np.abs(a @ x - b)) <= 1e-9 * max(1.0, float(np.max(np.abs(b))))

    def test_singular_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            solve_dense(np.ones((3, 3)), np.ones(3))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            solve_dense(np.ones((2, 3)), np.ones(2))
        with pytest.raises(ValueError):
            solve_dense(np.eye(2), np.ones(3))

    def test_nonfinite_rejected(self):
        a = np.eye(2)
        a[0, 1] = np.inf
        with pytest.raises(ValueError):
            solve_dense(a, np.ones(2))


class TestHessenberg:
    def test_preserves_spectrum_and_shape(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 17))
            a = rng.normal(size=(n, n))
            h = hessenberg(a)
            assert np.allclose(np.tril(h, -2), 0.0)
            dev = matched_eigen_deviation(np.linalg.eigvals(h), np.linalg.eigvals(a))
            assert dev <= 1e-9 * max(1.0, float(np.max(np.abs(a))))


class TestEigvals:
    def test_against_numpy_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(200):
            n = int(rng.integers(1, 17))
            kind = trial % 5
            if kind == 0:
                a = rng.normal(size=(n, n))
            elif kind == 1:
                a = rng.normal(size=(n, n))
                a = (a + a.T) / 2.0
            elif kind == 2:
                a = np.triu(rng.normal(size=(n, n)), -1)
            elif kind == 3:
                a = np.eye(n)[rng.permutation(n)]
            else:
                a = np.diag(rng.normal(size=n))
            dev = matched_eigen_deviation(eigvals(a), np.linalg.eigvals(a))
            assert dev <= 1e-9 * max(1.0, float(np.max(np.abs(a))))

    def test_defective_matrix(self):
        vals = eigvals(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert np.allclose(sorted(v.real for v in vals), [1.0, 1.0])
        assert np.allclose([v.imag for v in vals], 0.0)

    def test_rotation_has_complex_pair(self):
        vals = eigvals(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert matched_eigen_deviation(vals, [1j, -1j]) <= 1e-12

    def test_trivial_sizes(self):
        assert eigvals(np.zeros((0, 0))).size == 0
        assert eigvals(np.array([[4.0]]))[0] == 4.0 + 0.0j

    def test_budget_exhaustion_raises_with_diagnostics(self):
        a = np.eye(8)[np.roll(np.arange(8), 1)]  # cyclic permutation
        with pytest.raises(EigenConvergenceError, match="subdiagonal"):
            eigvals(a, max_iter=1)

    def test_budget_diagnostics_print_plain_floats(self):
        a = np.eye(8)[np.roll(np.arange(8), 1)]
        with pytest.raises(EigenConvergenceError) as exc:
            eigvals(a, max_iter=1)
        magnitudes = str(exc.value).split("magnitudes: ")[1]
        assert "np." not in magnitudes
        assert all(float(v) >= 0.0 for v in magnitudes.strip("[]").split(", "))

    @pytest.mark.parametrize("max_iter", [-3, True, False, 2.5, "3", np.float64(4.0)])
    def test_bad_budget_is_rejected_before_any_step(self, max_iter):
        message = re.escape(f"max_iter must be an int >= 0, got {max_iter!r}")
        for fn in (eigvals, spectral_radius):
            with pytest.raises(ValueError, match=message):
                fn(np.eye(3), max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [0, 7, np.int64(7)])
    def test_int_budgets_are_accepted(self, max_iter):
        assert spectral_radius(np.diag([1.0, -2.0, 0.5]), max_iter=max_iter) == 2.0


class TestSpectralRadius:
    def test_known_values(self):
        assert spectral_radius(np.eye(5)) == pytest.approx(1.0, abs=1e-12)
        a = np.array([[0.0, -2 / 3, -2 / 3], [-2 / 3, 0.0, -2 / 3], [-2 / 3, -2 / 3, 0.0]])
        assert spectral_radius(a) == pytest.approx(4 / 3, abs=1e-9)

    def test_matches_numpy_on_random(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            n = int(rng.integers(1, 13))
            a = rng.normal(size=(n, n))
            expected = float(np.max(np.abs(np.linalg.eigvals(a))))
            assert spectral_radius(a) == pytest.approx(expected, abs=1e-9 * max(1.0, expected))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            spectral_radius(np.array([[np.nan, 0.0], [0.0, 1.0]]))
