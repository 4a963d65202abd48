"""Dense linear-algebra kernels for small systems.

Everything here is written for matrices of modest size (n up to ~16):
a direct solver based on Gaussian elimination with partial pivoting,
and an eigenvalue routine based on Householder reduction to Hessenberg
form followed by a shifted QR iteration carried out in complex
arithmetic. No LAPACK-backed routines are called; numpy is used only
as an array container. Every floating-point result is bit-identical to
``tests/oracle_reference.py``; row dots use ``np.vdot``, the dot loop ``@``
runs (``ndarray.dot`` can give -0.0 where ``@`` gives 0.0).
"""

from __future__ import annotations

import cmath

import numpy as np


_EPS = np.finfo(float).eps


class SingularMatrixError(ValueError):
    """Raised when a linear system has no unique solution."""


class EigenConvergenceError(RuntimeError):
    """Raised when the QR iteration fails to deflate within its budget."""


def _as_square_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def solve_dense(a, b) -> np.ndarray:
    """Solve the linear system a @ x = b by Gaussian elimination.

    Parameters
    ----------
    a : (n, n) array_like
        Coefficient matrix.
    b : (n,) array_like
        Right-hand side.

    Returns
    -------
    x : (n,) ndarray

    Raises
    ------
    SingularMatrixError
        If a pivot smaller than ~n * eps * max|a| is encountered.
    """
    a = _as_square_matrix(a).copy()
    b = np.asarray(b, dtype=float).copy()
    n = a.shape[0]
    if b.shape != (n,):
        raise ValueError(f"right-hand side must have shape ({n},), got {b.shape}")

    scale = max(np.max(np.abs(a)), 1.0)
    tiny = n * _EPS * scale

    for k in range(n):
        piv = k + int(abs(a[k:, k]).argmax())
        if abs(a[piv, k]) <= tiny:
            raise SingularMatrixError(f"singular system: pivot {a[piv, k]!r} in column {k}")
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            b[[k, piv]] = b[[piv, k]]
        # All rows below the pivot at once; a zero multiplier's row is masked out.
        m = a[k + 1:, k] / a[k, k]
        rows = m != 0.0
        rest, b_rest = a[k + 1:, k + 1:], b[k + 1:]
        np.subtract(rest, m[:, None] * a[k, k + 1:], out=rest, where=rows[:, None])
        np.subtract(b_rest, m * b[k], out=b_rest, where=rows)
        a[k + 1:, k] = 0.0

    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - np.vdot(a[i, i + 1:], x[i + 1:])) / a[i, i]
    return x


def hessenberg(a) -> np.ndarray:
    """Reduce a real square matrix to upper Hessenberg form.

    Uses Householder reflections applied as a similarity transform, so
    the result has the same eigenvalues as the input.
    """
    h = _as_square_matrix(a).copy()
    n = h.shape[0]
    for k in range(n - 2):
        x = h[k + 1:, k]
        norm_x = np.sqrt(x @ x)
        if norm_x == 0.0:
            continue
        v = x.copy()
        v[0] += np.copysign(norm_x, x[0] if x[0] != 0.0 else 1.0)
        v_norm = np.sqrt(v @ v)
        if v_norm == 0.0:
            continue
        v /= v_norm
        # H = I - 2 v v^T applied from both sides.
        h[k + 1:, k:] -= 2.0 * np.outer(v, v @ h[k + 1:, k:])
        h[:, k + 1:] -= 2.0 * np.outer(h[:, k + 1:] @ v, v)
        h[k + 2:, k] = 0.0
    return h


def _eig2(a: complex, b: complex, c: complex, d: complex) -> tuple[complex, complex]:
    """Eigenvalues of the 2x2 matrix [[a, b], [c, d]]."""
    tr = a + d
    disc = cmath.sqrt((a - d) * (a - d) + 4.0 * b * c)
    return (tr + disc) / 2.0, (tr - disc) / 2.0


def _wilkinson_shift(h: np.ndarray, m: int) -> complex:
    """Shift taken from the trailing 2x2 block of the active window."""
    lam1, lam2 = _eig2(h[m - 2, m - 2], h[m - 2, m - 1], h[m - 1, m - 2], h[m - 1, m - 1])
    corner = h[m - 1, m - 1]
    return lam1 if abs(lam1 - corner) <= abs(lam2 - corner) else lam2


def _qr_step(h: np.ndarray, m: int, mu: complex) -> None:
    """One shifted QR step, in place, on the leading m x m window of h.

    Factors h - mu*I = Q R with Givens rotations (cheap because h is
    Hessenberg) and overwrites the window with R Q + mu*I, a unitary
    similarity of the original window.
    """
    d = np.arange(m)
    h[d, d] -= mu
    rots = []
    for i in range(m - 1):
        a, b = h[i, i], h[i + 1, i]
        r = np.hypot(abs(a), abs(b))
        if r == 0.0:
            c, s = 1.0 + 0.0j, 0.0 + 0.0j
        else:
            c, s = a / r, b / r
        cc, cs = np.conj(c), np.conj(s)
        rots.append((c, s, cc, cs))
        row_i, row_j = h[i, i:m], h[i + 1, i:m]
        new_i = cc * row_i + cs * row_j
        row_j[:] = -s * row_i + c * row_j
        row_i[:] = new_i
        h[i + 1, i] = 0.0
    for i, (c, s, cc, cs) in enumerate(rots):
        col_i, col_j = h[:i + 2, i], h[:i + 2, i + 1]
        new_i = c * col_i + s * col_j
        col_j[:] = -cs * col_i + cc * col_j
        col_i[:] = new_i
    h[d, d] += mu


def _subdiag_negligible(h: np.ndarray, i: int) -> bool:
    local = abs(h[i, i]) + abs(h[i + 1, i + 1])
    if local == 0.0:
        local = float(np.max(np.abs(h))) or 1.0
    return abs(h[i + 1, i]) <= _EPS * local


def eigvals(a, max_iter: int | None = None) -> np.ndarray:
    """All eigenvalues of a real square matrix, as complex numbers.

    The matrix is reduced to Hessenberg form and eigenvalues are
    extracted by a Wilkinson-shifted QR iteration with deflation. An
    exceptional ad-hoc shift is injected every 12 stalled iterations,
    mirroring standard practice.

    Parameters
    ----------
    a : (n, n) array_like
        Real matrix with finite entries.
    max_iter : int, optional
        Total QR-step budget, an int >= 0 (ValueError otherwise). Defaults
        to ``60 * n + 120``.

    Returns
    -------
    (n,) ndarray of complex
        Eigenvalues in deflation order (trailing positions first).

    Raises
    ------
    EigenConvergenceError
        If the iteration budget is exhausted before full deflation.
    """
    if max_iter is not None and (not isinstance(max_iter, (int, np.integer))
                                 or isinstance(max_iter, bool) or max_iter < 0):
        raise ValueError(f"max_iter must be an int >= 0, got {max_iter!r}")
    a = _as_square_matrix(a)
    n = a.shape[0]
    if n == 0:
        return np.zeros(0, dtype=complex)
    if n == 1:
        return np.array([a[0, 0]], dtype=complex)

    h = hessenberg(a).astype(complex)
    budget = max_iter if max_iter is not None else 60 * n + 120
    out: list[complex] = []
    m = n
    stalled = 0
    used = 0

    while m > 0:
        # Deflate converged trailing eigenvalues.
        if m == 1:
            out.append(h[0, 0])
            m = 0
            continue
        if _subdiag_negligible(h, m - 2):
            out.append(h[m - 1, m - 1])
            m -= 1
            stalled = 0
            continue
        if m == 2 or (m > 2 and _subdiag_negligible(h, m - 3)):
            lam1, lam2 = _eig2(h[m - 2, m - 2], h[m - 2, m - 1],
                               h[m - 1, m - 2], h[m - 1, m - 1])
            out.extend([lam1, lam2])
            m -= 2
            stalled = 0
            continue
        if used >= budget:
            sub = [float(abs(h[i + 1, i])) for i in range(m - 1)]
            raise EigenConvergenceError(
                f"QR iteration did not deflate a {m}x{m} block within {budget} steps; "
                f"remaining subdiagonal magnitudes: {sub}"
            )
        if stalled > 0 and stalled % 12 == 0:
            # Exceptional shift to break rare limit cycles.
            mu = complex(abs(h[m - 1, m - 2]) + abs(h[m - 2, m - 3]) if m > 2
                         else abs(h[m - 1, m - 2]))
        else:
            mu = _wilkinson_shift(h, m)
        _qr_step(h, m, mu)
        used += 1
        stalled += 1

    return np.array(out[::-1], dtype=complex)


def spectral_radius(a, max_iter: int | None = None) -> float:
    """Largest eigenvalue modulus of a real square matrix."""
    vals = eigvals(a, max_iter=max_iter)
    if vals.size == 0:
        return 0.0
    return float(np.max(np.abs(vals)))
