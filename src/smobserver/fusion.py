"""Fusion of the two subsystem set estimates into one ellipsoid over the
full state space.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError
from .numerics import symmetrize
from .weak import NO_STACKING, build_Ku, stacking_gain


def fuse(eps1, P2: np.ndarray, P1inv: np.ndarray):
    """The shape Phat of E(xhat, Phat) that holds E(x1hat, eps1^2 I) and
    E(x2hat, P2) stacked, mapped back through the coordinate change P1.

    Returns (Phat, mu) with Phat = P1^{-1} D P1^{-T}, where D is the stacked
    block of :func:`build_Ku` at the trace-optimal :func:`stacking_gain` mu
    of tr P2 against eps1.  An empty weak block stacks nothing: D = eps1^2 I
    and mu is recorded as inf.  An (N,) array of eps1 with an (N, n2, n2)
    stack of P2 gives N shapes and N gains.  The center of each run is
    xhat = P1^{-1} col(x1hat, x2hat).
    """
    eps1 = np.asarray(eps1, dtype=float)
    if not np.all(eps1 > 0.0):
        raise InvalidParameterError("eps1 must be positive")
    n2 = P2.shape[-1]
    n1 = P1inv.shape[0] - n2
    gain = (stacking_gain(np.trace(P2, axis1=-2, axis2=-1), eps1, n1) if n2
            else NO_STACKING)
    shape = symmetrize(P1inv @ build_Ku(gain, eps1, P2, n1) @ P1inv.T)
    return shape, (gain[0] if n2 else np.full(eps1.shape, np.inf))
