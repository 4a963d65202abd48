"""Reference kernels of the exact oracle, kept as they were first written.

``mtlearn.linalg`` and ``mtlearn.estimation`` trim the interpreter and
numpy dispatch around their small BLAS and ufunc calls. Every
floating-point operation there keeps its operands, its order and the
routine that performs it, so every output is bit-identical to these
plain versions. The equivalence tests in ``tests/test_oracle_reference.py``
hold them to that. The exception types and the trace record are the
package's own, so raised errors compare by type.
"""

from __future__ import annotations

import cmath

import numpy as np

from mtlearn.estimation import IterationTrace, Mode, SplittingError, TeamEstimationProblem
from mtlearn.linalg import EigenConvergenceError, SingularMatrixError


def _as_square_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def solve_dense(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` by Gaussian elimination with partial pivoting."""
    a = _as_square_matrix(a).copy()
    b = np.asarray(b, dtype=float).copy()
    n = a.shape[0]
    if b.shape != (n,):
        raise ValueError(f"right-hand side must have shape ({n},), got {b.shape}")

    scale = max(np.max(np.abs(a)), 1.0)
    tiny = n * np.finfo(float).eps * scale

    for k in range(n):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[piv, k]) <= tiny:
            raise SingularMatrixError(f"singular system: pivot {a[piv, k]!r} in column {k}")
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            b[[k, piv]] = b[[piv, k]]
        for i in range(k + 1, n):
            m = a[i, k] / a[k, k]
            if m != 0.0:
                a[i, k + 1:] -= m * a[k, k + 1:]
                b[i] -= m * b[k]
            a[i, k] = 0.0

    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - a[i, i + 1:] @ x[i + 1:]) / a[i, i]
    return x


def hessenberg(a) -> np.ndarray:
    """Upper Hessenberg form by Householder similarity transforms."""
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
    """One shifted QR step, in place, on the leading m x m window of h."""
    for i in range(m):
        h[i, i] -= mu
    rots: list[tuple[complex, complex]] = []
    for i in range(m - 1):
        a, b = h[i, i], h[i + 1, i]
        r = np.hypot(abs(a), abs(b))
        if r == 0.0:
            c, s = 1.0 + 0.0j, 0.0 + 0.0j
        else:
            c, s = a / r, b / r
        rots.append((c, s))
        row_i = h[i, i:m].copy()
        row_j = h[i + 1, i:m].copy()
        h[i, i:m] = np.conj(c) * row_i + np.conj(s) * row_j
        h[i + 1, i:m] = -s * row_i + c * row_j
        h[i + 1, i] = 0.0
    for i, (c, s) in enumerate(rots):
        hi = min(i + 2, m)
        col_i = h[:hi, i].copy()
        col_j = h[:hi, i + 1].copy()
        h[:hi, i] = c * col_i + s * col_j
        h[:hi, i + 1] = -np.conj(s) * col_i + np.conj(c) * col_j
    for i in range(m):
        h[i, i] += mu


def _subdiag_negligible(h: np.ndarray, i: int) -> bool:
    local = abs(h[i, i]) + abs(h[i + 1, i + 1])
    if local == 0.0:
        local = float(np.max(np.abs(h))) or 1.0
    return abs(h[i + 1, i]) <= np.finfo(float).eps * local


def eigvals(a, max_iter: int | None = None) -> np.ndarray:
    """All eigenvalues of a real square matrix, by shifted QR iteration."""
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
            sub = [abs(h[i + 1, i]) for i in range(m - 1)]
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


def iteration_matrix(problem: TeamEstimationProblem, mode: Mode) -> np.ndarray:
    """Error-propagation matrix of one sweep: Jacobi or Gauss-Seidel."""
    gamma = problem.gamma
    d = np.diag(gamma)
    if np.any(d == 0.0):
        raise SplittingError("gamma has a zero diagonal entry; splitting undefined")
    n = problem.n
    lower = np.tril(gamma, -1)
    upper = np.triu(gamma, 1)
    if mode is Mode.IIBR:
        return -(lower + upper) / d[:, None]
    # Forward substitution column by column: (D + L) X = -U.
    dl = np.diag(d) + lower
    out = np.empty((n, n))
    for j in range(n):
        rhs = -upper[:, j]
        x = np.zeros(n)
        for i in range(n):
            x[i] = (rhs[i] - dl[i, :i] @ x[:i]) / dl[i, i]
        out[:, j] = x
    return out


def _sweep(problem: TeamEstimationProblem, mode: Mode, k: np.ndarray) -> np.ndarray:
    gamma, eta, n = problem.gamma, problem.eta, problem.n
    if mode is Mode.IIBR:
        new = np.empty(n)
        for i in range(n):
            new[i] = (eta[i] - gamma[i, :i] @ k[:i] - gamma[i, i + 1:] @ k[i + 1:]) / gamma[i, i]
        return new
    new = k.copy()
    for i in range(n):
        new[i] = (eta[i] - gamma[i, :i] @ new[:i] - gamma[i, i + 1:] @ new[i + 1:]) / gamma[i, i]
    return new


def run_br_iteration(problem: TeamEstimationProblem, mode: Mode, k0,
                     max_sweeps: int = 1000, tol: float = 1e-10) -> IterationTrace:
    """Iterate the best-response sweep from ``k0`` and trace the error."""
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if max_sweeps < 0:
        raise ValueError(f"max_sweeps must be nonnegative, got {max_sweeps}")
    k = np.asarray(k0, dtype=float).copy()
    if k.shape != (problem.n,):
        raise ValueError(f"initial gains must have shape ({problem.n},), got {k.shape}")
    if not np.all(np.isfinite(k)):
        raise ValueError("initial gains must be finite")
    if np.any(np.diag(problem.gamma) == 0.0):
        raise SplittingError("gamma has a zero diagonal entry; sweeps undefined")

    k_star = solve_dense(problem.gamma, problem.eta)
    err0 = float(np.max(np.abs(k - k_star)))
    blowup = 1e6 * (1.0 + err0)

    iterates = [k.copy()]
    errors = [err0]
    status = "max_sweeps"
    sweeps = 0
    if err0 <= tol:
        status = "converged"
    else:
        for t in range(1, max_sweeps + 1):
            k = _sweep(problem, mode, k)
            sweeps = t
            if not np.all(np.isfinite(k)):
                iterates.append(k.copy())
                errors.append(float("inf"))
                status = "diverged"
                break
            err = float(np.max(np.abs(k - k_star)))
            iterates.append(k.copy())
            errors.append(err)
            if err <= tol:
                status = "converged"
                break
            if err > blowup:
                status = "diverged"
                break

    return IterationTrace(mode=mode, iterates=tuple(iterates), errors=tuple(errors),
                          status=status, sweeps=sweeps)
