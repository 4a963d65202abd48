"""The oracle's kernels against their reference versions, bit for bit.

Every result is compared through ``tobytes()``, so a NaN, an infinity or a
signed zero must come out exactly as the reference gives it. A call that
raises must raise the same error type with the same message.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle_reference as ref
from mtlearn import estimation, linalg
from mtlearn.estimation import Mode

SCALES = st.sampled_from([1.0, 1.0, 1.0, 1e-150, 1e150, 1e300, 1e307])


def outcome(fn, *args, **kwargs):
    """A call's result, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        return type(exc), str(exc)


def as_bytes(result):
    if isinstance(result, tuple):
        return result
    if isinstance(result, estimation.IterationTrace):
        return (result.mode, result.status, result.sweeps,
                np.array(result.errors).tobytes(), [k.tobytes() for k in result.iterates])
    return np.asarray(result).tobytes()


def assert_same(new, old):
    assert as_bytes(new) == as_bytes(old)


def signed_zeros(rng, a, share):
    """``a`` with about ``share`` of its entries set to 0.0 or -0.0."""
    zeros = rng.random(a.shape) < share
    a[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    return a


@st.composite
def matrices(draw, min_n=0, max_n=16):
    """Real n x n matrices: random ones with exact zeros and small integers,
    permutations, rotations, defective (Jordan) matrices and companion
    matrices with complex root pairs, at drawn scales."""
    n = draw(st.integers(min_n, max_n))
    if n == 0:
        return np.zeros((0, 0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["random", "permutation", "rotation", "defective",
                                 "companion"]))
    if kind == "random":
        a = signed_zeros(rng, rng.normal(size=(n, n)), draw(st.sampled_from([0.0, 0.3, 0.7])))
        if draw(st.booleans()):
            a = np.round(a * 2.0)
    elif kind == "permutation":
        a = np.eye(n)[draw(st.permutations(range(n)))]
    elif kind == "rotation":
        a = np.eye(n)
        for i in range(0, n - 1, 2):
            t = rng.uniform(-np.pi, np.pi)
            a[i:i + 2, i:i + 2] = [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]
    elif kind == "defective":
        a = np.diag(np.repeat(rng.integers(-2, 3, size=n // 3 + 1), 3)[:n].astype(float))
        a += np.diag(np.ones(max(n - 1, 0)), 1)
    else:
        pairs = rng.normal(size=n // 2) + 1j * rng.uniform(0.1, 2.0, size=n // 2)
        roots = np.concatenate([pairs, pairs.conj(), rng.normal(size=n % 2)])
        coeffs = np.poly(roots).real
        a = np.zeros((n, n))
        a[0, :] = -coeffs[1:]
        a[np.arange(1, n), np.arange(n - 1)] = 1.0
    perm = draw(st.permutations(range(n)))
    return a[perm][:, perm] * draw(SCALES)


@settings(max_examples=120, deadline=None)
@given(a=matrices(), max_iter=st.one_of(st.none(), st.integers(0, 40)))
def test_eigvals_match_reference(a, max_iter):
    new = outcome(linalg.eigvals, a, max_iter=max_iter)
    old = outcome(ref.eigvals, a, max_iter=max_iter)
    if isinstance(old, tuple):
        # The reference printed its subdiagonal magnitudes as np.float64 reprs.
        old = (old[0], re.sub(r"np\.float64\((.*?)\)", r"\1", old[1]))
    assert_same(new, old)


@settings(max_examples=60, deadline=None)
@given(a=matrices())
def test_hessenberg_matches_reference(a):
    assert_same(outcome(linalg.hessenberg, a), outcome(ref.hessenberg, a))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_qr_step_matches_reference(n, seed, data):
    rng = np.random.default_rng(seed)
    h = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), -1)
    m = data.draw(st.integers(2, n))
    mu = complex(rng.normal(), rng.normal())
    if data.draw(st.booleans()):
        # A zero first column makes the first rotation the r == 0 case.
        mu = complex(h[0, 0])
        h[1, 0] = 0.0
    new, old = h.copy(), h.copy()
    linalg._qr_step(new, m, mu)
    ref._qr_step(old, m, mu)
    assert new.tobytes() == old.tobytes()


@st.composite
def systems(draw):
    """Square systems, some singular: a repeated row, a zero column or a
    rank-one matrix."""
    a = draw(matrices(max_n=16))
    n = a.shape[0]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    singular = draw(st.sampled_from([None, None, "row", "column", "rank1"]))
    if n >= 2 and singular == "row":
        a[rng.integers(1, n)] = a[0]
    elif n >= 1 and singular == "column":
        a[:, rng.integers(n)] = 0.0
    elif n >= 1 and singular == "rank1":
        a = np.outer(rng.normal(size=n), rng.normal(size=n))
    return a, signed_zeros(rng, rng.normal(size=n), 0.3) * draw(SCALES)


@settings(max_examples=150, deadline=None)
@given(system=systems())
def test_solve_dense_matches_reference(system):
    a, b = system
    new = outcome(linalg.solve_dense, a, b)
    assert_same(new, outcome(ref.solve_dense, a, b))


def test_solve_dense_singular_raise_matches_reference():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    new = outcome(linalg.solve_dense, a, [1.0, 1.0])
    assert new[0] is linalg.SingularMatrixError
    assert new == outcome(ref.solve_dense, a, [1.0, 1.0])


def test_solve_dense_skips_a_zero_multiplier_after_overflow():
    # Row 1 overflows to inf in column 0; row 2's multiplier against it is
    # then 1e300 / inf = 0, and 0 * inf would be NaN had the row not been skipped.
    a = np.array([[1e300, -1.7e308, -1.7e308], [1e300, 1.7e308, 1.7e308], [0.0, 1e300, 1e300]])
    with np.errstate(all="ignore"):
        new, old = linalg.solve_dense(a, [1.0, 2.0, 3.0]), ref.solve_dense(a, [1.0, 2.0, 3.0])
    assert np.isfinite(old[2])
    assert_same(new, old)


@st.composite
def problems(draw):
    n = draw(st.integers(2, 16))
    p = draw(st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 1e-3))
    q = draw(st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0])))
    sigma2 = draw(st.floats(0.01, 2.0))
    d = p * (1.0 + sigma2)
    assume(d != q and d + (n - 1) * q != 0.0)  # a singular gamma cannot be built
    return estimation.build_problem(p, q, sigma2, n)


@settings(max_examples=60, deadline=None)
@given(problem=problems(), mode=st.sampled_from(Mode))
def test_iteration_matrix_matches_reference(problem, mode):
    assert_same(estimation.iteration_matrix(problem, mode), ref.iteration_matrix(problem, mode))


@settings(max_examples=150, deadline=None)
@given(problem=problems(), mode=st.sampled_from(Mode), data=st.data(),
       max_sweeps=st.integers(0, 80),
       tol=st.one_of(st.sampled_from([1e-10, 1e-3, 1.0, 1e300]), st.floats(1e-12, 10.0)))
def test_run_br_iteration_matches_reference(problem, mode, data, max_sweeps, tol):
    # Huge starting gains overflow to inf before they pass the blow-up bound.
    entry = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1e300, -1e303]))
    k0 = data.draw(st.lists(entry, min_size=problem.n, max_size=problem.n))
    new = outcome(estimation.run_br_iteration, problem, mode, k0, max_sweeps, tol)
    assert_same(new, outcome(ref.run_br_iteration, problem, mode, k0, max_sweeps, tol))


@pytest.mark.parametrize("mode", list(Mode))
def test_run_br_iteration_outcomes_are_all_reached(mode):
    """The drawn runs above cover every stop: converged, diverged by growth,
    diverged by overflow to inf and max_sweeps."""
    cases = {
        "converged": (estimation.build_problem(1.0, 0.1, 0.5, 4), [0.0] * 4, 200),
        "diverged": (estimation.build_problem(1.0, 1.0, 0.1, 16), [0.0] * 16, 200),
        "overflow": (estimation.build_problem(1.0, 1.0, 0.1, 16), [1e303] * 16, 200),
        "max_sweeps": (estimation.build_problem(1.0, 0.9, 0.1, 8), [0.0] * 8, 3),
    }
    seen = {}
    for name, (problem, k0, max_sweeps) in cases.items():
        new = estimation.run_br_iteration(problem, mode, k0, max_sweeps)
        assert_same(new, ref.run_br_iteration(problem, mode, k0, max_sweeps))
        seen[name] = (new.status, new.errors[-1])
    assert seen["converged"][0] == "converged"
    assert seen["max_sweeps"][0] == "max_sweeps"
    if mode is Mode.IIBR:
        assert seen["diverged"][0] == "diverged" and seen["diverged"][1] < np.inf
        assert seen["overflow"] == ("diverged", np.inf)
