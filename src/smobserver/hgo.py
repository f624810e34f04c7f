"""High-gain observer bank estimating an output and its first l derivatives.

One observer per output channel; all channels share the same coefficient
vector, so the bank steps as a single (l+1) x n_y matrix recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .errors import InvalidDesignError, InvalidParameterError
from .numerics import GRID_SUP_SAFETY, compensated_sup, zoh

#: fraction of the slowest eigenvalue decay used as the envelope rate a
DECAY_RATE_SAFETY = 0.9


@dataclass(frozen=True)
class HgoConfig:
    """Derivative order, gain parameter and Hurwitz coefficients.

    ``theta`` holds (theta_0, ..., theta_l); the characteristic polynomial
    s^{l+1} + theta_0 s^l + ... + theta_l must be Hurwitz.
    """

    l: int
    eps: float
    theta: tuple[float, ...]
    n_y: int

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise InvalidParameterError("HGO gain eps must lie in (0,1)")
        if self.l < 0 or len(self.theta) != self.l + 1:
            raise InvalidParameterError("theta must have l+1 coefficients")
        roots = np.roots(np.concatenate([[1.0], self.theta]))
        if roots.size and np.max(roots.real) >= 0.0:
            raise InvalidDesignError("HGO characteristic polynomial not Hurwitz")

    @property
    def a_z(self) -> np.ndarray:
        """Companion-form state matrix with the 1/eps^j gain ladder."""
        m = self.l + 1
        A = np.zeros((m, m))
        for j in range(m):
            A[j, 0] = -self.theta[j] / self.eps ** (j + 1)
        A[:-1, 1:] = np.eye(m - 1)
        return A

    @property
    def b_z(self) -> np.ndarray:
        return np.array([self.theta[j] / self.eps ** (j + 1)
                         for j in range(self.l + 1)])

    @property
    def a_eta(self) -> np.ndarray:
        """Gain-free companion matrix whose decay rate sets the error envelope."""
        m = self.l + 1
        A = np.zeros((m, m))
        A[:, 0] = -np.asarray(self.theta)
        A[:-1, 1:] = np.eye(m - 1)
        return A


@dataclass
class HgoState:
    """Per-channel derivative estimates, stacked as columns of zhat."""

    zhat: np.ndarray  # (l+1, n_y)
    t: float = 0.0

    def __post_init__(self):
        self.zhat = np.atleast_2d(np.asarray(self.zhat, dtype=float))
        if not np.all(np.isfinite(self.zhat)):
            raise InvalidParameterError("HGO state must be finite")


def design_hgo(l: int, eps: float, pole: float, n_y: int = 1) -> HgoConfig:
    """All-poles-at ``-pole`` design: theta_j = C(l+1, j+1) pole^{j+1}."""
    if l < 0:
        raise InvalidParameterError("derivative order l must be >= 0")
    if pole <= 0.0:
        raise InvalidParameterError("pole must be positive")
    theta = tuple(comb(l + 1, j + 1) * pole ** (j + 1) for j in range(l + 1))
    return HgoConfig(l=l, eps=float(eps), theta=theta, n_y=n_y)


def initial_state(cfg: HgoConfig, y0: np.ndarray) -> HgoState:
    """Start with the measured output and zero higher derivatives."""
    z = np.zeros((cfg.l + 1, cfg.n_y))
    z[0, :] = np.asarray(y0, dtype=float).ravel()
    return HgoState(zhat=z, t=0.0)


@lru_cache(maxsize=64)
def _discretization(l: int, eps: float, theta: tuple[float, ...],
                    h: float) -> tuple[np.ndarray, np.ndarray]:
    cfg = HgoConfig(l=l, eps=eps, theta=theta, n_y=1)
    Ad, Bd = zoh(cfg.a_z, cfg.b_z[:, None], h)
    Ad.setflags(write=False)
    Bd.setflags(write=False)
    return Ad, Bd


def step_hgo(cfg: HgoConfig, st: HgoState, y_sample: np.ndarray,
             h: float) -> HgoState:
    """Advance the bank over step h with the output held at ``y_sample``.

    Uses the exact ZOH discretization of the bank dynamics, so the update is
    unconditionally stable regardless of how stiff 1/eps makes the system.
    The estimator folds the same discretization into the lifted center
    recurrence (``pipeline.CenterLift``); this one-step form is its
    reference.
    """
    if h <= 0.0:
        raise InvalidParameterError("step size must be positive")
    Ad, Bd = _discretization(cfg.l, cfg.eps, cfg.theta, float(h))
    y = np.asarray(y_sample, dtype=float).ravel()
    z = Ad @ st.zhat + Bd * y[None, :]
    return HgoState(zhat=z, t=st.t + h)


def assemble_z_hat(cfg: HgoConfig, st: HgoState) -> np.ndarray:
    """Stack estimates derivative-order-major: all channels' 0th, then 1st, ...

    This matches the row ordering of the output-derivative stack consumed by
    the unknown-input observer.
    """
    return st.zhat.reshape(-1).copy()


def decay_constants(cfg: HgoConfig) -> tuple[float, float]:
    """Fit (K, a) with ||e^{A_eta t}|| <= K e^{-a t}.

    a is the DECAY_RATE_SAFETY fraction of the slowest eigenvalue decay.  K
    is :func:`~smobserver.numerics.compensated_sup` of A_eta at shift -a on
    a grid that resolves A_eta's fastest mode, inflated by GRID_SUP_SAFETY
    so the (K, a) pair stays valid between grid samples; the walk ends at
    its certified tail, a few tens of seconds past the peak.
    """
    A = cfg.a_eta
    lam = np.linalg.eigvals(A)
    if np.max(lam.real) >= 0.0:
        raise InvalidDesignError("decay constants require a Hurwitz A_eta")
    a = DECAY_RATE_SAFETY * float(np.min(np.abs(lam.real)))
    h = min(0.01, 0.1 / float(np.max(np.abs(lam))))
    return GRID_SUP_SAFETY * compensated_sup(A, -a, h), a
