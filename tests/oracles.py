"""The two matrix forms of the weak-block measurement update, as oracles
of the eigenbasis form that ``weak.measurement_update`` implements."""

import numpy as np

from smobserver.numerics import symmetrize


def woodbury_shape(P2_pred, C2, Gk, beta):
    """The inverse-combination form of the updated shape,
    ((1 - beta) P2_pred^{-1} + beta C2^T Gk^{-1} C2)^{-1}."""
    X = symmetrize((1.0 - beta) * np.linalg.inv(P2_pred)
                   + beta * C2.T @ np.linalg.solve(Gk, C2))
    return symmetrize(np.linalg.inv(X))


def kalman_update(P2_pred, C2, Gk, beta):
    """The gain form (P2, O_k): S = C2 P C2^T / (1-b) + Gk / b,
    O_k = P C2^T S^{-1} / (1-b) and P2 = (I - O_k C2) P / (1-b).  Near
    beta = 1 its shape cancels about six digits in I - O_k C2."""
    S = C2 @ P2_pred @ C2.T / (1.0 - beta) + Gk / beta
    Ok = P2_pred @ C2.T @ np.linalg.inv(S) / (1.0 - beta)
    return (np.eye(P2_pred.shape[0]) - Ok @ C2) @ P2_pred / (1.0 - beta), Ok
