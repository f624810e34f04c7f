"""Ellipsoid value type and the set queries the estimator reports.

An ellipsoid is the set {x : (x-c)^T K^{-1} (x-c) <= 1} with center c and
symmetric positive definite shape matrix K.  Besides validation, sampling
and plotting this module provides the membership measure
(:func:`quadratic_forms`, one inverse-factored shape against a batch of
points), the volume and the per-axis bounds.  Stacking two ellipsoids into
one is the estimator's job; see ``weak.stacking_gain`` and
``weak.build_Ku``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidEllipsoidError, InvalidParameterError
from .numerics import symmetrize, unit_ball_volume

#: slack on the unit quadratic form absorbed by membership tests
MEMBERSHIP_SLACK = 1e-9

#: relative symmetry tolerance for shape matrices
SYM_TOL = 1e-8


@dataclass(frozen=True)
class Ellipsoid:
    """Center vector plus SPD shape matrix."""

    center: np.ndarray
    shape: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float)).ravel()
        K = np.atleast_2d(np.asarray(self.shape, dtype=float))
        if K.shape[0] != K.shape[1] or K.shape[0] != c.shape[0]:
            raise InvalidEllipsoidError(
                f"dimension mismatch: center {c.shape[0]}, shape {K.shape}")
        K, _ = checked_shapes(K)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "shape", K)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def sample(self, rng: np.random.Generator, n: int = 1,
               boundary: bool = False) -> np.ndarray:
        """Uniform samples from the ellipsoid (rows); boundary samples if asked."""
        u = rng.standard_normal((n, self.dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        if not boundary:
            u *= rng.uniform(0.0, 1.0, size=(n, 1)) ** (1.0 / self.dim)
        L = np.linalg.cholesky(self.shape)
        return self.center[None, :] + u @ L.T


def checked_shapes(shapes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A shape matrix K, or each in a stack, symmetrized, and its
    eigenvalues in ascending order.  :class:`InvalidEllipsoidError` unless
    each K is finite, symmetric to SYM_TOL (1 + ||K||_2) and positive
    definite."""
    if not np.all(np.isfinite(shapes)):
        raise InvalidEllipsoidError("shape matrix is not finite")
    scale = np.linalg.norm(shapes, 2, axis=(-2, -1))[..., None, None]
    if not np.all(np.abs(shapes - shapes.swapaxes(-1, -2))
                  <= SYM_TOL * (1.0 + scale)):
        raise InvalidEllipsoidError("shape matrix is not symmetric")
    K = symmetrize(shapes)
    lam = np.linalg.eigvalsh(K)
    lam_min = np.min(lam, initial=np.inf)
    if lam_min <= 0.0:
        raise InvalidEllipsoidError(
            f"shape matrix is not positive definite (min eig {lam_min:g})")
    return K, lam


def boundary_polylines(centers: np.ndarray, shapes: np.ndarray,
                       n_points: int = 50) -> np.ndarray:
    """The closed boundary polylines c + sqrt(K) [cos phi; sin phi], phi on
    n_points equally spaced angles in [0, 2 pi], of each 2-D ellipsoid of
    a stack, centers (N, 2) and shapes (N, 2, 2), as (N, n_points, 2),
    after one batched :func:`checked_shapes`.  Each square root is closed
    form: with eigenvalues l0, l1 of K, sqrt(det K) = sqrt(l0) sqrt(l1)
    and sqrt(tr K + 2 sqrt(det K)) = sqrt(l0) + sqrt(l1), so
    sqrt(K) = (K + sqrt(det K) I) / sqrt(tr K + 2 sqrt(det K))."""
    if shapes.shape[1:] != (2, 2) or centers.shape != (len(shapes), 2):
        raise InvalidParameterError("boundary polylines are 2-D only")
    K, lam = checked_shapes(shapes)
    r = np.sqrt(lam)
    root = ((K + (r[:, :1] * r[:, 1:])[:, :, None] * np.eye(2))
            / (r[:, 0] + r[:, 1])[:, None, None])
    phi = np.linspace(0.0, 2.0 * np.pi, n_points)
    circle = np.vstack([np.cos(phi), np.sin(phi)])
    return centers[:, None, :] + (root @ circle).swapaxes(1, 2)


def inverse_factors(shapes: np.ndarray) -> np.ndarray:
    """L^{-1}, L the lower Cholesky factor of an SPD shape K, or of each
    shape in a stack, from one batched inversion.  The factorization is the
    shapes' definiteness check: :class:`InvalidEllipsoidError` if one is not
    positive definite."""
    try:
        return np.linalg.inv(np.linalg.cholesky(shapes))
    except np.linalg.LinAlgError:
        raise InvalidEllipsoidError("shape is not positive definite") from None


def quadratic_forms(inv_factor: np.ndarray, X: np.ndarray,
                    centers: np.ndarray) -> np.ndarray:
    """(x - c)^T K^{-1} (x - c) = ||L^{-1} (x - c)||^2 for every column x
    of ``X`` against the matching column c of ``centers`` (or one broadcast
    center), where ``inv_factor`` is :func:`inverse_factors` of the shape
    K; or of each matrix in a stack of ``X`` and ``centers`` against the
    matching shape of a stack of inverse factors."""
    r = inv_factor @ (X - centers)
    return np.sum(r ** 2, axis=max(r.ndim - 2, 0))


def volume(shape: np.ndarray):
    """Volume of an ellipsoid of SPD shape K: unit-ball volume * sqrt(det K),
    of one shape or of each shape in a stack."""
    sign, logdet = np.linalg.slogdet(shape)
    if np.any(sign <= 0):
        raise InvalidEllipsoidError("volume of a non-SPD shape")
    return unit_ball_volume(shape.shape[-1]) * np.exp(0.5 * logdet)


def axis_bounds(center: np.ndarray, shape: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Tight per-coordinate bounds c_i +/- sqrt(K_ii) of E(c, K), c (n,);
    or of each row of centers (N, n) against a stack of N shapes."""
    half = np.sqrt(np.maximum(np.diagonal(shape, axis1=-2, axis2=-1), 0.0))
    return center - half, center + half
