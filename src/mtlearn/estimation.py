"""Exact oracle for the cooperative linear estimation problem.

A team of n agents observes a common scalar state through private
noisy channels and each one reports a linear estimate ``K_i * y_i``.
The team objective is a weighted mean-squared error whose first-order
optimality conditions form the linear system ``gamma @ K = eta``.
Updating all gains at once is the Jacobi iteration on that system;
updating them one at a time in index order is Gauss-Seidel. The
module exposes both iterations, their iteration matrices, and the
spectral analysis that decides which of them converges.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .schedule import parse_count


class InvalidProblemError(ValueError):
    """Raised when problem parameters violate the model assumptions."""


class Mode(enum.Enum):
    """Update order of the best-response iteration.

    IIBR updates every coordinate simultaneously from the previous
    iterate (Jacobi); SIBR updates coordinates one at a time in index
    order, each seeing the freshest values (Gauss-Seidel).
    """

    IIBR = "iibr"
    SIBR = "sibr"


def check_member(value, enum_type: type[enum.Enum], name: str) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an ``enum_type`` member:
    an update order or tie rule given as a string would run the other branch."""
    if not isinstance(value, enum_type):
        raise ValueError(f"{name} must be a {enum_type.__name__} member, got {value!r}")


@dataclass(frozen=True, eq=False)
class TeamEstimationProblem:
    """Instance data for the n-agent estimation problem, checked whenever built.

    Attributes
    ----------
    p, q : float
        Diagonal and off-diagonal weights of the error-coupling matrix.
    sigma2 : float
        Common observation-noise variance, strictly positive.
    n : int
        Number of agents, at least 2.
    gamma : (n, n) ndarray
        System matrix: ``p * (1 + sigma2)`` on the diagonal, ``q`` off it.
    eta : (n,) ndarray
        Right-hand side, every entry ``p + (n - 1) * q``.

    Raises
    ------
    InvalidProblemError
        If ``sigma2 <= 0``, ``n`` is not an integer >= 2 (the
        :func:`schedule.parse_count` rule), a parameter is not finite, the
        diagonal weight ``p * (1 + sigma2)`` vanishes, or it or the
        right-hand side ``p + (n - 1) * q`` overflows.
    """

    p: float
    q: float
    sigma2: float
    n: int
    gamma: np.ndarray = field(init=False, repr=False)
    eta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        p, q, sigma2 = self.p, self.q, self.sigma2
        try:
            n = parse_count(self.n, "n", minimum=2)
        except ValueError as err:
            raise InvalidProblemError(str(err)) from None
        if not (sigma2 > 0):
            raise InvalidProblemError(f"noise variance must be positive, got {sigma2}")
        diag = p * (1.0 + sigma2)
        if diag == 0.0:
            raise InvalidProblemError("zero diagonal: p * (1 + sigma2) must be nonzero")
        if not np.all(np.isfinite([p, q, sigma2])):
            raise InvalidProblemError("parameters must be finite")
        rhs = float(p) + (n - 1) * float(q)
        if not np.isfinite([diag, rhs]).all():
            raise InvalidProblemError(f"system overflows: p * (1 + sigma2) = {diag}, "
                                      f"p + (n - 1) * q = {rhs}")
        gamma = np.full((n, n), float(q))
        np.fill_diagonal(gamma, diag)
        eta = np.full(n, rhs)
        gamma.setflags(write=False)
        eta.setflags(write=False)
        for name, value in (("p", float(p)), ("q", float(q)), ("sigma2", float(sigma2)),
                            ("n", n), ("gamma", gamma), ("eta", eta)):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def solution(self) -> np.ndarray:
        """The exact gains, solved once per problem and read-only."""
        k = linalg.solve_dense(self.gamma, self.eta)
        k.setflags(write=False)
        return k


build_problem = TeamEstimationProblem


@dataclass(frozen=True, eq=False)
class IterationTrace:
    """Record of one run of the best-response iteration.

    ``iterates[0]`` is the initial gain vector and each later entry is
    the result of one full sweep. ``errors[t]`` is the max-norm
    distance of ``iterates[t]`` from the exact solution. ``status`` is
    one of ``"converged"``, ``"diverged"``, ``"max_sweeps"`` and
    ``sweeps`` counts the full sweeps actually performed.
    """

    mode: Mode
    iterates: tuple[np.ndarray, ...]
    errors: tuple[float, ...]
    status: str
    sweeps: int

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def diverged(self) -> bool:
        return self.status == "diverged"


def solve_exact(problem: TeamEstimationProblem) -> np.ndarray:
    """Gain vector solving ``gamma @ K = eta``: the problem's read-only ``solution``.

    Raises
    ------
    linalg.SingularMatrixError
        If the system matrix is singular.
    """
    return problem.solution


def iteration_matrix(problem: TeamEstimationProblem, mode: Mode) -> np.ndarray:
    """Error-propagation matrix of one sweep.

    With ``gamma = D + L + U`` (diagonal / strict lower / strict upper),
    IIBR yields ``-D^{-1} (L + U)`` and SIBR yields ``-(D + L)^{-1} U``.
    """
    check_member(mode, Mode, "mode")
    gamma = problem.gamma
    d = np.diag(gamma)
    n = problem.n
    lower = np.tril(gamma, -1)
    upper = np.triu(gamma, 1)
    if mode is Mode.IIBR:
        return -(lower + upper) / d[:, None]
    # Forward substitution column by column: (D + L) X = -U. x is reused: row i reads x[:i].
    dl = np.diag(d) + lower
    out, x = np.empty((n, n)), np.empty(n)
    rows = [(dl[i, :i], x[:i], float(dl[i, i])) for i in range(n)]
    for j in range(n):
        rhs = (-upper[:, j]).tolist()
        for i, (dl_lo, x_lo, d_i) in enumerate(rows):
            x[i] = (rhs[i] - np.vdot(dl_lo, x_lo)) / d_i
        out[:, j] = x
    return out


def spectral_radius(a) -> float:
    """Largest eigenvalue modulus; see :func:`mtlearn.linalg.spectral_radius`."""
    return linalg.spectral_radius(a)


def _sweeps(problem: TeamEstimationProblem, mode: Mode, k: np.ndarray):
    """Each sweep's iterate from ``k``, as a new array. The row slices are taken once:
    IIBR reads a copy of the last iterate, SIBR the gains it is writing."""
    gamma = problem.gamma
    new = k.copy()
    old = new if mode is Mode.SIBR else k.copy()
    rows = [(float(problem.eta[i]), gamma[i, :i], old[:i], gamma[i, i + 1:], old[i + 1:],
             float(gamma[i, i]))
            for i in range(problem.n)]
    vdot = np.vdot
    while True:
        for i, (eta_i, g_lo, k_lo, g_hi, k_hi, d_i) in enumerate(rows):
            new[i] = (eta_i - vdot(g_lo, k_lo) - vdot(g_hi, k_hi)) / d_i
        if old is not new:
            old[:] = new
        yield new.copy()


def run_br_iteration(problem: TeamEstimationProblem, mode: Mode, k0,
                     max_sweeps: int = 1000, tol: float = 1e-10) -> IterationTrace:
    """Iterate the best-response sweep from ``k0`` and trace the error.

    The trace records the max-norm distance to the exact solution after
    every sweep (including sweep 0, the initial point). The run stops as
    soon as the error drops to ``tol`` (converged), grows past
    ``1e6 * (1 + initial error)`` or turns non-finite (diverged), or the
    sweep budget runs out.
    """
    check_member(mode, Mode, "mode")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    max_sweeps = parse_count(max_sweeps, "max_sweeps", minimum=0)
    k = np.asarray(k0, dtype=float).copy()
    if k.shape != (problem.n,):
        raise ValueError(f"initial gains must have shape ({problem.n},), got {k.shape}")
    if not np.all(np.isfinite(k)):
        raise ValueError("initial gains must be finite")

    k_star = solve_exact(problem)
    err0 = float(abs(k - k_star).max())
    blowup = 1e6 * (1.0 + err0)

    iterates = [k]
    errors = [err0]
    status = "max_sweeps"
    sweeps = 0
    if err0 <= tol:
        status = "converged"
    else:
        for sweeps, k in zip(range(1, max_sweeps + 1), _sweeps(problem, mode, k)):
            iterates.append(k)
            if not np.isfinite(k).all():
                errors.append(float("inf"))
                status = "diverged"
                break
            err = float(abs(k - k_star).max())
            errors.append(err)
            if err <= tol:
                status = "converged"
                break
            if err > blowup:
                status = "diverged"
                break

    return IterationTrace(mode=mode, iterates=tuple(iterates), errors=tuple(errors),
                          status=status, sweeps=sweeps)


def team_mse(problem: TeamEstimationProblem, k) -> float:
    """Expected weighted team estimation error at gains ``k``, in closed form.

    The per-agent errors ``e_i = x - K_i y_i`` are coupled through the
    (p, q) weight matrix and averaged with a ``1 / n**2`` factor, so for
    ``p = q = 1`` this equals the mean-squared error of the averaged
    estimate, ``E[(x - mean_i(K_i y_i))**2]``. Its gradient is
    ``(2 / n**2) * (gamma @ k - eta)``, so the exact solve is its
    stationary point for every parameter choice.
    """
    k = np.asarray(k, dtype=float)
    if k.shape != (problem.n,):
        raise ValueError(f"gains must have shape ({problem.n},), got {k.shape}")
    if not np.all(np.isfinite(k)):
        raise ValueError("gains must be finite")
    p, q, s2, n = problem.p, problem.q, problem.sigma2, problem.n
    one_minus = 1.0 - k
    # E[e_i e_j] = (1-K_i)(1-K_j) + sigma2 * K_i^2 * [i == j]
    diag_term = p * float(one_minus @ one_minus + s2 * (k @ k))
    sum_one_minus = float(np.sum(one_minus))
    cross_term = q * float(sum_one_minus * sum_one_minus - one_minus @ one_minus)
    return (diag_term + cross_term) / (n * n)


def team_mse_gradient(problem: TeamEstimationProblem, k) -> np.ndarray:
    """Analytic gradient of :func:`team_mse`: ``(2 / n**2) * (gamma @ k - eta)``."""
    k = np.asarray(k, dtype=float)
    n = problem.n
    return (2.0 / (n * n)) * (problem.gamma @ k - problem.eta)
