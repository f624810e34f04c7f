"""Fusion of the two subsystem set estimates into one ellipsoid over the
full state space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .numerics import symmetrize
from .weak import NO_STACKING, WeakState, build_Ku, stacking_gain


@dataclass(frozen=True)
class FusedEstimate:
    """Full-state bound: one shape for a batch of runs, the center of each
    run ((n,) or (n, runs)), and the stacking gain used.  The estimator
    loop checks the shape once, by ``ellipsoid.quadratic_forms``."""

    center: np.ndarray
    shape: np.ndarray
    mu: float

    def __post_init__(self):
        # mu = 1 + s with s > 0; for extreme eps1 the float rounding of mu
        # can land exactly on 1, which is still a valid gain record
        if self.mu < 1.0:
            raise InvalidParameterError("fusion gain mu must exceed 1")


def fuse(x1hat: np.ndarray, eps1_k: float, st2: WeakState,
         P1: np.ndarray) -> FusedEstimate:
    """Combine E(x1hat, eps1^2 I) and E(x2hat, P2hat) into E(xhat, Phat).

    xhat = P1^{-1} col(x1hat, x2hat) and Phat = P1^{-1} D P1^{-T}, where D
    is the stacked block of :func:`build_Ku` at the trace-optimal
    :func:`stacking_gain` mu of tr P2hat against eps1.  An empty weak block
    stacks nothing: D = eps1^2 I and mu is recorded as inf.  The centers may
    carry a trailing run axis; the shape is formed once for all of them.
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
    gain = (stacking_gain(float(np.trace(st2.P2hat)), eps1_k, n1) if n2
            else NO_STACKING)
    center = Pinv @ np.concatenate([x1hat, st2.x2hat])
    shape = symmetrize(Pinv @ build_Ku(gain, eps1_k, st2.P2hat, n1) @ Pinv.T)
    return FusedEstimate(center=center, shape=shape,
                         mu=gain[0] if n2 else np.inf)
