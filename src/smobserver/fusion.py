"""Fusion of the two subsystem set estimates into one ellipsoid over the
full state space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ellipsoid import Ellipsoid, stacking_gain
from .errors import InvalidParameterError
from .numerics import symmetrize
from .weak import WeakState


@dataclass(frozen=True)
class FusedEstimate:
    """Full-state bound: one shape for a batch of runs, the center of each
    run ((n,) or (n, runs)), and the stacking gain used."""

    center: np.ndarray
    shape: np.ndarray
    mu: float

    def __post_init__(self):
        # mu = 1 + s with s > 0; for extreme eps1 the float rounding of mu
        # can land exactly on 1, which is still a valid gain record
        if self.mu < 1.0:
            raise InvalidParameterError("fusion gain mu must exceed 1")

    @cached_property
    def ellipsoid(self) -> Ellipsoid:
        """E(center, shape) of a single run."""
        return Ellipsoid(self.center, self.shape)


def fuse(x1hat: np.ndarray, eps1_k: float, st2: WeakState, P1: np.ndarray,
         mu: float | None = None) -> FusedEstimate:
    """Combine E(x1hat, eps1^2 I) and E(x2hat, P2hat) into E(xhat, Phat).

    xhat = P1^{-1} col(x1hat, x2hat) and Phat = P1^{-1} diag(mu eps1^2 I,
    mu/(mu-1) P2hat) P1^{-T}; any mu > 1 preserves containment, the default
    is the trace-optimal :func:`stacking_gain`.  The centers may carry a
    trailing run axis; the shape is formed once for all of them.
    """
    x1hat = np.atleast_1d(np.asarray(x1hat, dtype=float))
    P1 = np.atleast_2d(np.asarray(P1, dtype=float))
    n1 = x1hat.shape[0]
    n2 = st2.x2hat.shape[0]
    if eps1_k <= 0.0:
        raise InvalidParameterError("eps1_k must be positive")
    if P1.shape != (n1 + n2, n1 + n2):
        raise InvalidParameterError("P1 dimension mismatch")
    Pinv = np.linalg.inv(P1)
    if n2 == 0:
        # nothing to stack: the x1 ellipsoid is already the full estimate
        K = symmetrize(Pinv @ (eps1_k ** 2 * np.eye(n1)) @ Pinv.T)
        return FusedEstimate(center=Pinv @ x1hat, shape=K, mu=np.inf)
    if mu is None:
        mu, mu2 = stacking_gain(float(np.trace(st2.P2hat)), eps1_k, n1)
    else:
        if mu <= 1.0:
            raise InvalidParameterError("fusion gain mu must exceed 1")
        mu2 = mu / (mu - 1.0)
    center = Pinv @ np.concatenate([x1hat, st2.x2hat])
    K = np.zeros((n1 + n2,) * 2)
    diag = np.arange(n1)
    K[diag, diag] = mu * eps1_k ** 2
    K[n1:, n1:] = mu2 * st2.P2hat
    shape = symmetrize(Pinv @ K @ Pinv.T)
    return FusedEstimate(center=center, shape=shape, mu=float(mu))
