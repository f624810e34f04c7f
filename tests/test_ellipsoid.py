"""Property-based and oracle tests for the ellipsoid value type and its
set queries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smobserver.ellipsoid import (MEMBERSHIP_SLACK, Ellipsoid, axis_bounds,
                                  boundary_polylines, inverse_factors,
                                  quadratic_forms, volume)
from smobserver.errors import InvalidEllipsoidError
from smobserver.weak import stacking_gain
from oracles import sqrtm_polyline


def _random_spd(rng, n, scale=1.0):
    M = rng.standard_normal((n, n))
    return scale * (M @ M.T + 0.1 * np.eye(n))


seeds = st.integers(min_value=0, max_value=10_000)
dims = st.integers(min_value=1, max_value=4)


@given(seeds, dims)
@settings(max_examples=50, deadline=None)
def test_sample_points_are_members(seed, n):
    rng = np.random.default_rng(seed)
    e = Ellipsoid(rng.standard_normal(n), _random_spd(rng, n))
    pts = e.sample(rng, 20)
    q = quadratic_forms(inverse_factors(e.shape), pts.T, e.center[:, None])
    assert np.all(q <= 1.0 + MEMBERSHIP_SLACK)


@given(seeds, dims)
@settings(max_examples=50, deadline=None)
def test_boundary_samples_on_unit_level(seed, n):
    rng = np.random.default_rng(seed)
    e = Ellipsoid(rng.standard_normal(n), _random_spd(rng, n))
    pts = e.sample(rng, 10, boundary=True)
    q = quadratic_forms(inverse_factors(e.shape), pts.T, e.center[:, None])
    assert np.allclose(q, 1.0, rtol=0.0, atol=1e-8)


def test_optimal_product_gain_value():
    # sqrt(tr Q2 / tr Q1) + 1 with Q1 = eps1^2 I_2 = I_2 and Q2 = 4 I_2
    assert stacking_gain(8.0, 1.0, 2) == pytest.approx((3.0, 1.5))


def test_volume_sphere():
    # radius-2 ball
    assert volume(4.0 * np.eye(3)) == pytest.approx(4.0 / 3.0 * np.pi * 8.0,
                                                    rel=1e-12)
    with pytest.raises(InvalidEllipsoidError):
        volume(np.diag([1.0, -1.0]))


def test_axis_bounds_and_support_agree():
    """Each bound is the support function d^T c + sqrt(d^T K d) along +-e_i,
    and the boundary attains it."""
    rng = np.random.default_rng(7)
    e = Ellipsoid(rng.standard_normal(3), _random_spd(rng, 3))
    lo, hi = axis_bounds(e.center, e.shape)
    for i in range(3):
        d = np.zeros(3)
        d[i] = 1.0
        h = float(np.sqrt(d @ e.shape @ d))
        assert hi[i] == pytest.approx(d @ e.center + h, rel=1e-12)
        assert lo[i] == pytest.approx(d @ e.center - h, rel=1e-12)
        top = e.center + e.shape @ d / h
        assert quadratic_forms(inverse_factors(e.shape), top,
                               e.center) == pytest.approx(1.0)
        assert top[i] == pytest.approx(hi[i], rel=1e-12)


def test_quadratic_form_identity_shape():
    X = np.array([[1.0, 3.0], [0.5, 0.0]])
    q = quadratic_forms(inverse_factors(np.eye(2)), X,
                        np.array([[1.0], [0.0]]))
    assert q == pytest.approx([0.25, 4.0])


def test_quadratic_forms_rejects_indefinite_shape():
    """The Cholesky factorization the quadratic forms read is the fused
    shape's definiteness check; a failed one is an InvalidEllipsoidError,
    not a numpy LinAlgError."""
    with pytest.raises(InvalidEllipsoidError, match="positive definite"):
        quadratic_forms(inverse_factors(np.diag([1.0, -1e-3])),
                        np.zeros((2, 1)), np.zeros((2, 1)))


def test_invalid_shapes_raise():
    with pytest.raises(InvalidEllipsoidError):
        Ellipsoid(np.zeros(2), -np.eye(2))
    with pytest.raises(InvalidEllipsoidError):
        Ellipsoid(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(InvalidEllipsoidError):
        Ellipsoid(np.zeros(3), np.eye(2))
    with pytest.raises(InvalidEllipsoidError):
        Ellipsoid(np.zeros(2), np.diag([1.0, 0.0]))  # only PSD


def test_boundary_polylines_match_per_row_points():
    """The batched polylines (closed-form square roots) equal each row's
    ``sqrtm`` polyline (:func:`oracles.sqrtm_polyline`) to 1e-12 of the
    row's largest coordinate, from well-conditioned shapes to condition
    number 1e6 and scales from 1e-6 to 1e90 (a 2x2 shape of condition
    number c fixes its square root only to about 1e-16 sqrt(c) of its
    norm, whichever way it is taken); a non-symmetric or an indefinite
    shape anywhere in the stack raises the error ``Ellipsoid`` raises."""
    rng = np.random.default_rng(3)
    N = 200
    rot = np.linalg.qr(rng.standard_normal((N, 2, 2)))[0]
    lam = 10.0 ** rng.uniform(-6.0, 0.0, (N, 2))
    lam[:, 0] = 1.0
    scale = 10.0 ** rng.uniform(-6.0, 90.0, N)[:, None, None]
    shapes = scale * np.einsum("kij,kj,klj->kil", rot, lam, rot)
    centers = np.sqrt(scale[:, 0]) * rng.standard_normal((N, 2))
    got = boundary_polylines(centers, shapes, 17)
    assert got.shape == (N, 17, 2)
    for c, K, pts in zip(centers, shapes, got):
        ref = sqrtm_polyline(c, K, 17)
        assert np.max(np.abs(pts - ref)) <= 1e-12 * np.max(np.abs(ref))
    for bad, match in ((np.array([[1.0, 0.5], [0.0, 1.0]]), "symmetric"),
                       (np.diag([1.0, 0.0]), "positive definite"),
                       (-np.eye(2), "positive definite")):
        stack = np.concatenate([shapes[:5], bad[None], shapes[5:9]])
        with pytest.raises(InvalidEllipsoidError, match=match):
            boundary_polylines(centers[:10], stack)
        with pytest.raises(InvalidEllipsoidError, match=match):
            Ellipsoid(np.zeros(2), bad)


def test_boundary_points_closed_polyline():
    e = Ellipsoid(np.array([1.0, -1.0]), np.diag([4.0, 1.0]))
    pts = boundary_polylines(e.center[None], e.shape[None], 33)[0]
    assert pts.shape == (33, 2)
    assert np.allclose(pts[0], pts[-1], atol=1e-12)
    q = quadratic_forms(inverse_factors(e.shape), pts.T, e.center[:, None])
    assert np.allclose(q, 1.0, rtol=0.0, atol=1e-10)


def test_inverse_factor_forms_match_cho_solve(design_ex1, design_ex2,
                                              run_mixed):
    """On the worst-conditioned fused shapes of example1, example2 (cond
    up to 2.6e25) and the mixed run, ||L^-1 d||^2 agrees with scipy's
    cho_solve to 2e-15 relative, for d along every principal axis and along
    random directions."""
    import scipy.linalg as sla

    from smobserver.pipeline import shape_schedule
    rng = np.random.default_rng(3)
    for shapes in (shape_schedule(design_ex1).shape,
                   shape_schedule(design_ex2).shape, run_mixed.schedule.shape):
        for k in np.argsort(np.linalg.cond(shapes))[-3:]:
            K = shapes[k]
            lam, V = np.linalg.eigh(K)
            D = np.hstack([V * np.sqrt(lam), np.sqrt(lam[-1])
                           * rng.standard_normal((len(K), 8))])
            ref = np.sum(D * sla.cho_solve((np.linalg.cholesky(K), True), D),
                         axis=0)
            q = quadratic_forms(inverse_factors(K), D, 0.0)
            assert np.max(np.abs(q - ref) / ref) <= 2e-15
    # one batched inversion gives each shape's own inverse factor
    assert np.array_equal(inverse_factors(shapes)[k], inverse_factors(K))
