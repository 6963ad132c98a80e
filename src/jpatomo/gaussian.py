"""Gaussian states on quadrature phase space.

Conventions: annihilation operators are split as b = x + i*p, so the vacuum
variance of every quadrature is 1/4 and [x, p] = i/2.  Mean vectors and
covariance matrices are ordered (x1, p1, x2, p2, ...).  A two-mode squeezed
vacuum with parameter r has diagonal entries cosh(2r)/4, cross covariances
<x1 x2> = +sinh(2r)/4 and <p1 p2> = -sinh(2r)/4, and squeezed combinations
Var(x1 - x2) = Var(p1 + p2) = exp(-2r)/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import FloatOverflowError, InvalidCovarianceError, SingularCovarianceError

_SYMMETRY_RTOL = 1e-12
_CHOLESKY_JITTER = 1e-12


def symplectic_form(n_modes: int) -> NDArray[np.float64]:
    """Block-diagonal symplectic form Omega for (x1, p1, ..., xn, pn)."""
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = block
    return omega


@dataclass(frozen=True)
class GaussianState:
    """Zero- or finite-mean Gaussian state held as (mean, covariance).

    Parameters
    ----------
    n_modes:
        Number of bosonic modes (>= 1).
    mean:
        Quadrature mean vector of length 2 * n_modes.
    cov:
        Symmetric covariance matrix, shape (2 n, 2 n).  Symmetry is required
        within 1e-12 relative; the stored matrix is the symmetrized copy.
        Positive semi-definiteness is *not* enforced here: estimated
        covariances are allowed to be marginally indefinite, and the places
        that need a factorization (sampling, Wigner evaluation) check there.
    """

    n_modes: int
    mean: NDArray[np.float64]
    cov: NDArray[np.float64]

    def __post_init__(self) -> None:
        if self.n_modes < 1:
            raise ValueError(f"n_modes must be >= 1, got {self.n_modes}")
        dim = 2 * self.n_modes
        mean = np.asarray(self.mean, dtype=np.float64).reshape(-1).copy()
        cov = np.asarray(self.cov, dtype=np.float64).copy()
        if mean.shape != (dim,):
            raise ValueError(f"mean must have shape ({dim},), got {mean.shape}")
        if cov.shape != (dim, dim):
            raise ValueError(f"cov must have shape ({dim}, {dim}), got {cov.shape}")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("mean and cov must be finite")
        scale = max(1.0, float(np.max(np.abs(cov))))
        if np.max(np.abs(cov - cov.T)) > _SYMMETRY_RTOL * scale:
            raise ValueError("cov is not symmetric within 1e-12 relative")
        cov = 0.5 * (cov + cov.T)
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return 2 * self.n_modes


def vacuum_state(n_modes: int) -> GaussianState:
    """Vacuum: zero mean, covariance I/4."""
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    dim = 2 * n_modes
    return GaussianState(n_modes, np.zeros(dim), np.eye(dim) / 4.0)


def two_mode_squeeze_symplectic(r: float) -> NDArray[np.float64]:
    """Symplectic matrix of the two-mode squeezer on (x1, p1, x2, p2).

    Sign convention: positive r squeezes x1 - x2 and p1 + p2, i.e. the
    cross-covariance picked up on vacuum is positive in x and negative in p.
    Equals expm(r * K) with K the quadratic generator (K*K = identity).
    """
    c, s = np.cosh(r), np.sinh(r)
    return np.array(
        [
            [c, 0.0, s, 0.0],
            [0.0, c, 0.0, -s],
            [s, 0.0, c, 0.0],
            [0.0, -s, 0.0, c],
        ]
    )


def two_mode_squeeze(state: GaussianState, r: float) -> GaussianState:
    """Apply the two-mode squeezer: mean -> S mean, cov -> S cov S^T."""
    if state.n_modes != 2:
        raise ValueError("two_mode_squeeze requires a 2-mode state")
    if not np.isfinite(r):
        raise ValueError("r must be finite")
    s_mat = two_mode_squeeze_symplectic(r)
    cov = s_mat @ state.cov @ s_mat.T
    # the congruence of a symmetric matrix is symmetric; rounding breaks that
    # by ~eps * cosh(2r)^2 * |cov|, which the constructor would reject
    return GaussianState(2, s_mat @ state.mean, (cov + cov.T) / 2.0)


def symmetric_two_mode_state(var: float, xx: float, xp: float) -> GaussianState:
    """Zero-mean two-mode state: variance `var` in each quadrature, no
    correlation within a mode, <x1 x2> = -<p1 p2> = xx and <x1 p2> = <p1 x2>
    = xp, i.e. <b1 b2> = 2 (xx + i xp)."""
    cov = np.array(
        [
            [var, 0.0, xx, xp],
            [0.0, var, xp, -xx],
            [xx, xp, var, 0.0],
            [xp, -xx, 0.0, var],
        ]
    )
    return GaussianState(2, np.zeros(4), cov)


def tms_theory_covariance(r: float, n_add: float = 0.0) -> GaussianState:
    """Closed-form two-mode squeezed vacuum plus symmetric excess noise.

    Diagonal entries cosh(2r)/4 + n_add/2, cross terms <x1 x2> = sinh(2r)/4
    and <p1 p2> = -sinh(2r)/4, zero mean.  An entry beyond the float64
    range raises FloatOverflowError.
    """
    if not np.isfinite(r):
        raise ValueError("r must be finite")
    if n_add < 0:
        raise ValueError(f"n_add must be >= 0, got {n_add}")
    with np.errstate(over="ignore"):
        d = np.cosh(2 * r) / 4.0 + n_add / 2.0
        c = np.sinh(2 * r) / 4.0
    if not (np.isfinite(d) and np.isfinite(c)):
        raise FloatOverflowError(f"r = {r!r}, n_add = {n_add!r} overflow the covariance")
    return symmetric_two_mode_state(d, c, 0.0)


def wigner(state: GaussianState, points: NDArray[np.float64]) -> np.ndarray | float:
    """Wigner density W(alpha) = exp(-(a-m) V^-1 (a-m)/2) / ((2 pi)^n sqrt(det V)).

    Accepts a single phase-space point of length 2n or an array of points
    with shape (..., 2n); returns a float or an array of matching shape.
    """
    pts = np.asarray(points, dtype=np.float64)
    single = pts.ndim == 1
    if pts.shape[-1] != state.dim:
        raise ValueError(f"points must have trailing dimension {state.dim}")
    det = float(np.linalg.det(state.cov))
    if det <= 1e-300:
        raise SingularCovarianceError(f"covariance determinant {det} too small")
    diff = (pts - state.mean).reshape(-1, state.dim)
    quad = np.einsum("ni,ni->n", diff, np.linalg.solve(state.cov, diff.T).T)
    dens = np.exp(-0.5 * quad) / ((2.0 * np.pi) ** state.n_modes * np.sqrt(det))
    return float(dens[0]) if single else dens.reshape(pts.shape[:-1])


def marginal(state: GaussianState, indices: tuple[int, int]) -> GaussianState:
    """Marginal over two quadrature indices, returned as a 2D Gaussian."""
    i, j = indices
    if i == j:
        raise ValueError("marginal needs two distinct quadrature indices")
    for k in (i, j):
        if not 0 <= k < state.dim:
            raise ValueError(f"index {k} out of range for {state.dim} quadratures")
    sel = [i, j]
    return GaussianState(1, state.mean[sel], state.cov[np.ix_(sel, sel)])


def witness(state: GaussianState) -> float:
    """Squeezing witness D = Var(x1 - x2) + Var(p1 + p2); vacuum gives 1."""
    if state.n_modes != 2:
        raise ValueError("witness requires a 2-mode state")
    v = state.cov
    var_xm = v[0, 0] + v[2, 2] - 2.0 * v[0, 2]
    var_pp = v[1, 1] + v[3, 3] + 2.0 * v[1, 3]
    return float(var_xm + var_pp)


def physicality_margin(cov: NDArray[np.float64]) -> float:
    """min eig(cov + i Omega / 4) of a symmetric (2n, 2n) covariance: the
    uncertainty principle holds exactly when it is >= 0."""
    omega = symplectic_form(cov.shape[0] // 2)
    return float(np.linalg.eigvalsh(cov + 0.25j * omega)[0])


def is_physical(state: GaussianState, tol: float = 1e-10) -> bool:
    """Heisenberg check: physicality_margin(cov) >= -tol."""
    return physicality_margin(state.cov) >= -tol


def _cholesky_with_jitter(cov: NDArray[np.float64]) -> NDArray[np.float64]:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    try:
        return np.linalg.cholesky(cov + _CHOLESKY_JITTER * np.eye(cov.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise InvalidCovarianceError(
            "covariance is not positive semi-definite (jittered Cholesky failed)"
        ) from exc

