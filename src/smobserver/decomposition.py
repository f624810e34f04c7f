"""Structural decomposition of an LTI system with unknown inputs.

Splits the state space into the strongly observable part (estimable by an
unknown-input observer from output derivatives) and the weakly unobservable
part (handled by a set-membership observer), via an orthonormal change of
coordinates built on the weakly unobservable subspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (InvalidBasisError, InvalidParameterError,
                     StrongObservabilityError)
from .numerics import (canonical_basis, null_basis, range_basis,
                       spectral_norm)
from .uio import GAIN_RESIDUAL_TOL, is_detectable, residual_pair


@dataclass(frozen=True)
class LtiSystem:
    """Continuous-time system dx = Ax + Bw, y = Cx + Dw with bounded w."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        D = np.atleast_2d(np.asarray(self.D, dtype=float))
        n = A.shape[0]
        if A.shape != (n, n):
            raise InvalidParameterError("A must be square")
        if B.shape[0] != n:
            raise InvalidParameterError("B row count must match A")
        if C.shape[1] != n:
            raise InvalidParameterError("C column count must match A")
        if D.shape != (C.shape[0], B.shape[1]):
            raise InvalidParameterError("D must be n_y x n_w")
        for name, M in (("A", A), ("B", B), ("C", C), ("D", D)):
            if not np.all(np.isfinite(M)):
                raise InvalidParameterError(f"{name} contains non-finite entries")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_w(self) -> int:
        return self.B.shape[1]

    @property
    def n_y(self) -> int:
        return self.C.shape[0]


def weakly_unobservable_subspace(sys: LtiSystem) -> np.ndarray:
    """Orthonormal basis (columns) of the weakly unobservable subspace V*.

    V* is the largest subspace whose states can be steered, by some input,
    so that the output stays identically zero.  Computed by the standard
    subspace recursion V^{k+1} = {x : exists w with Ax + Bw in V^k and
    Cx + Dw = 0}, which stabilizes in at most n steps.
    """
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    n = sys.n_x
    V = np.eye(n)
    for _ in range(n + 1):
        top = np.hstack([A, B, -V])
        bot = np.hstack([C, D, np.zeros((C.shape[0], V.shape[1]))])
        N = null_basis(np.vstack([top, bot]))
        # x-projection of the null space; N holds sub-rows of orthonormal
        # columns, so rank is judged against unit scale
        Vn = range_basis(N[:n, :], scale=1.0)
        if Vn.shape[1] == V.shape[1]:
            return canonical_basis(Vn)
        V = Vn
    return canonical_basis(V)


@dataclass(frozen=True)
class Decomposition:
    """Coordinate change and block data of the split system.

    P1 = [W V]^T is orthogonal (rows: strongly observable complement first,
    then the weakly unobservable basis).  In the new coordinates
    x' = P1 x = col(x1, x2):

        dx1 = A1 x1 + B1' col(x2, w)      y = C1 x1 + D1' col(x2, w)
        dx2 = A4 x2 + B2' col(x1, w)          = C2 x2 + D2' col(x1, w)
    """

    system: LtiSystem
    P1: np.ndarray
    n1: int
    A1: np.ndarray
    A2: np.ndarray
    A3: np.ndarray
    A4: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    C1: np.ndarray
    C2: np.ndarray

    def __post_init__(self):
        P1 = self.P1
        n = self.system.n_x
        if P1.shape != (n, n):
            raise InvalidBasisError("P1 must be square of state dimension")
        if not np.allclose(P1 @ P1.T, np.eye(n), atol=1e-10):
            raise InvalidBasisError("P1 must be orthogonal")

    @property
    def n2(self) -> int:
        return self.system.n_x - self.n1

    @property
    def B1p(self) -> np.ndarray:
        """Input matrix [A3 B1] of the x1 block, driving input col(x2, w)."""
        return np.hstack([self.A3, self.B1])

    @property
    def D1p(self) -> np.ndarray:
        """Feedthrough [C2 D] seen by the x1 block."""
        return np.hstack([self.C2, self.system.D])

    @property
    def B2p(self) -> np.ndarray:
        """Input matrix [A2 B2] of the x2 block, driving input col(x1, w)."""
        return np.hstack([self.A2, self.B2])

    @property
    def D2p(self) -> np.ndarray:
        """Feedthrough [C1 D] seen by the x2 block."""
        return np.hstack([self.C1, self.system.D])


def build_decomposition(sys: LtiSystem) -> Decomposition:
    """Construct the orthonormal split along the weakly unobservable subspace."""
    V = weakly_unobservable_subspace(sys)
    n = sys.n_x
    n2 = V.shape[1]
    n1 = n - n2
    if n2 == 0:
        W = np.eye(n)
    else:
        W = canonical_basis(null_basis(V.T))
    P1 = np.hstack([W, V]).T if n2 else W.T
    Ap = P1 @ sys.A @ P1.T
    Bp = P1 @ sys.B
    Cp = sys.C @ P1.T
    return Decomposition(
        system=sys, P1=P1, n1=n1,
        A1=Ap[:n1, :n1], A2=Ap[n1:, :n1], A3=Ap[:n1, n1:], A4=Ap[n1:, n1:],
        B1=Bp[:n1, :], B2=Bp[n1:, :],
        C1=Cp[:, :n1], C2=Cp[:, n1:])


@dataclass(frozen=True)
class DerivativeOrderReport:
    """Outcome of the derivative-order search: the chosen order, the
    gain-equation residual of every candidate tried, and the chosen order's
    :func:`~smobserver.uio.residual_pair`, which the gain synthesis
    reuses."""

    l: int
    residuals: dict[int, float]
    pair: tuple | None = field(default=None, compare=False, repr=False)


def select_derivative_order(dec: Decomposition, l_max: int | None = None
                            ) -> DerivativeOrderReport:
    """Smallest l for which a stable unknown-input observer gain exists.

    An order qualifies when the gain equation F G_l = [B1' 0 ... 0] is
    solvable (row-space residual below tolerance) and the residual pair left
    over after enforcing it is detectable.  Raises if no order up to l_max
    (default n1) qualifies.
    """
    n1 = dec.n1
    if n1 == 0:
        return DerivativeOrderReport(l=0, residuals={0: 0.0})
    if l_max is None:
        l_max = n1
    residuals: dict[int, float] = {}
    scale = 1.0 + spectral_norm(dec.B1p)
    for l in range(l_max + 1):
        pair = residual_pair(dec.A1, dec.C1, dec.B1p, dec.D1p, l)
        *_, A_res, C_res, res = pair
        residuals[l] = res
        if res <= GAIN_RESIDUAL_TOL * scale and is_detectable(A_res, C_res):
            return DerivativeOrderReport(l=l, residuals=residuals, pair=pair)
    raise StrongObservabilityError(
        f"no derivative order up to {l_max} admits a stable observer "
        f"(best residual {min(residuals.values()):.3e})")
