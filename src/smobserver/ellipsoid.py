"""Ellipsoid value type and the outer-approximation calculus built on it.

An ellipsoid is the set {x : (x-c)^T K^{-1} (x-c) <= 1} with center c and
symmetric positive definite shape matrix K.  All operations return new
values; nothing here mutates shared state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import (DegenerateInputError, InvalidEllipsoidError,
                     InvalidParameterError, SingularTransformError)
from .numerics import (default_rank_tol, min_eigval, spectral_norm, symmetrize,
                       unit_ball_volume)

#: slack on the unit quadratic form absorbed by membership tests
MEMBERSHIP_SLACK = 1e-9

#: relative symmetry tolerance for shape matrices
SYM_TOL = 1e-8


@dataclass(frozen=True)
class Ellipsoid:
    """Center vector plus SPD shape matrix.

    Set ``degenerate=True`` to admit a positive semidefinite shape; only
    :func:`axis_bounds` accepts such values.
    """

    center: np.ndarray
    shape: np.ndarray
    degenerate: bool = field(default=False, compare=False)

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float)).ravel()
        K = np.atleast_2d(np.asarray(self.shape, dtype=float))
        if K.shape[0] != K.shape[1] or K.shape[0] != c.shape[0]:
            raise InvalidEllipsoidError(
                f"dimension mismatch: center {c.shape[0]}, shape {K.shape}")
        scale = spectral_norm(K)
        if not np.allclose(K, K.T, atol=SYM_TOL * (1.0 + scale), rtol=0.0):
            raise InvalidEllipsoidError("shape matrix is not symmetric")
        K = symmetrize(K)
        lam_min = min_eigval(K)
        if self.degenerate:
            if lam_min < -1e-10 * (1.0 + scale):
                raise InvalidEllipsoidError("shape matrix is not PSD")
        elif lam_min <= 0.0:
            raise InvalidEllipsoidError(
                f"shape matrix is not positive definite (min eig {lam_min:g})")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "shape", K)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def quadratic_form(self, x: np.ndarray) -> float:
        """(x-c)^T K^{-1} (x-c), via a symmetric factorization of K."""
        x = np.asarray(x, dtype=float).ravel()
        if x.shape[0] != self.dim:
            raise InvalidParameterError(
                f"point dimension {x.shape[0]} != ellipsoid dimension {self.dim}")
        if self.degenerate:
            raise InvalidEllipsoidError("quadratic form of a degenerate shape")
        d = x - self.center
        cf = sla.cho_factor(self.shape, lower=True)
        return float(d @ sla.cho_solve(cf, d))

    def boundary_points(self, n_points: int = 50) -> np.ndarray:
        """Boundary polyline for 2-D ellipsoids (closed, n_points rows)."""
        if self.dim != 2:
            raise InvalidParameterError("boundary_points is 2-D only")
        phi = np.linspace(0.0, 2.0 * np.pi, n_points)
        L = sla.sqrtm(self.shape).real
        return self.center[None, :] + (L @ np.vstack([np.cos(phi), np.sin(phi)])).T

    def sample(self, rng: np.random.Generator, n: int = 1,
               boundary: bool = False) -> np.ndarray:
        """Uniform samples from the ellipsoid (rows); boundary samples if asked."""
        u = rng.standard_normal((n, self.dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        if not boundary:
            u *= rng.uniform(0.0, 1.0, size=(n, 1)) ** (1.0 / self.dim)
        L = np.linalg.cholesky(self.shape)
        return self.center[None, :] + u @ L.T


def contains(e: Ellipsoid, x: np.ndarray,
             slack: float = MEMBERSHIP_SLACK) -> bool:
    """Membership test with a small floating-point slack on the unit level."""
    return e.quadratic_form(x) <= 1.0 + slack


def affine_image(e: Ellipsoid, M: np.ndarray,
                 b: np.ndarray | None = None) -> Ellipsoid:
    """Exact image of an ellipsoid under an invertible affine map x -> Mx+b."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[0] != M.shape[1] or M.shape[0] != e.dim:
        raise InvalidParameterError("map must be square of matching dimension")
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[-1] <= default_rank_tol(M, s[0]):
        raise SingularTransformError("affine_image requires an invertible map")
    b = np.zeros(e.dim) if b is None else np.asarray(b, dtype=float).ravel()
    return Ellipsoid(M @ e.center + b, symmetrize(M @ e.shape @ M.T))


def optimal_product_gain(Q1: np.ndarray, Q2: np.ndarray) -> float:
    """Trace-minimizing g for the stacked product bound: sqrt(trQ2/trQ1)+1."""
    t1, t2 = float(np.trace(np.atleast_2d(Q1))), float(np.trace(np.atleast_2d(Q2)))
    if t1 <= 0.0 or t2 <= 0.0:
        raise DegenerateInputError("product gain needs positive traces")
    return float(np.sqrt(t2 / t1) + 1.0)


def stacking_gain(t2: float, eps1: float, n1: int) -> tuple[float, float]:
    """(g, g/(g-1)) for stacking E(., eps1^2 I_n1) with a block of trace t2.

    g = 1 + s with s = sqrt(t2 / n1) / eps1 minimizes the trace of the
    product bound.  Both factors are formed from s directly, so an enormous
    eps1 (s underflowing next to 1) still yields a finite, correct
    g/(g-1) = 1 + 1/s.
    """
    if eps1 <= 0.0:
        raise InvalidParameterError("eps1 must be positive")
    if t2 <= 0.0 or n1 <= 0:
        raise DegenerateInputError("stacking gain needs positive traces")
    s = float(np.sqrt(t2 / n1) / eps1)
    if s <= 0.0:
        raise DegenerateInputError("stacking ratio underflowed to zero")
    return 1.0 + s, 1.0 + 1.0 / s


def cartesian_product_bound(e1: Ellipsoid, e2: Ellipsoid,
                            g: float | None = None) -> tuple[Ellipsoid, float]:
    """Outer ellipsoid of the Cartesian product of two ellipsoids.

    The stacked vector col(x1, x2) lies in E(col(c1,c2), diag(g K1,
    g/(g-1) K2)) for any g > 1; with g omitted the trace-minimizing value is
    used.  Returns the bounding ellipsoid and the g actually applied.
    """
    if g is None:
        g = optimal_product_gain(e1.shape, e2.shape)
    else:
        g = float(g)
        if g <= 1.0:
            raise InvalidParameterError("product bound requires g > 1")
        if np.trace(e1.shape) <= 0.0 or np.trace(e2.shape) <= 0.0:
            raise DegenerateInputError("product bound needs positive traces")
    K = sla.block_diag(g * e1.shape, g / (g - 1.0) * e2.shape)
    return Ellipsoid(np.concatenate([e1.center, e2.center]), symmetrize(K)), g


def minkowski_outer(e1: Ellipsoid, e2: Ellipsoid, alpha: float) -> Ellipsoid:
    """Outer ellipsoid of the Minkowski sum {x1+x2}: K1/alpha + K2/(1-alpha)."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError("minkowski_outer requires alpha in (0,1)")
    if e1.dim != e2.dim:
        raise InvalidParameterError("minkowski_outer requires equal dimensions")
    K = e1.shape / alpha + e2.shape / (1.0 - alpha)
    return Ellipsoid(e1.center + e2.center, symmetrize(K))


def volume(e: Ellipsoid) -> float:
    sign, logdet = np.linalg.slogdet(e.shape)
    if sign <= 0:
        raise InvalidEllipsoidError("volume of a non-SPD shape")
    return unit_ball_volume(e.dim) * float(np.exp(0.5 * logdet))


def axis_bounds(e: Ellipsoid) -> tuple[np.ndarray, np.ndarray]:
    """Tight per-coordinate bounds c_i +/- sqrt(K_ii); PSD shapes allowed."""
    half = np.sqrt(np.maximum(np.diag(e.shape), 0.0))
    return e.center - half, e.center + half


def support(e: Ellipsoid, d: np.ndarray) -> float:
    """Support function value max_{x in e} d^T x."""
    d = np.asarray(d, dtype=float).ravel()
    return float(d @ e.center + np.sqrt(max(d @ e.shape @ d, 0.0)))
