"""Oracle tests for the shared numerical kernels."""

import warnings

import numpy as np
import pytest
import scipy.linalg as sla

import smobserver.numerics as numerics
from smobserver.numerics import (canonical_basis, compensated_sup, expm,
                                 lyapunov_tail, norm_envelope_grid,
                                 null_basis, power_norms, range_basis,
                                 simpson, simpson_matrix, spectral_norm,
                                 unit_ball_volume, zoh)


def test_expm_matches_scalar_series():
    A = np.array([[-0.7]])
    assert expm(A) == pytest.approx(np.exp(-0.7), rel=1e-14)


def test_expm_matches_scipy_random():
    rng = np.random.default_rng(1)
    for _ in range(20):
        A = rng.standard_normal((4, 4))
        assert np.allclose(expm(A), sla.expm(A), rtol=1e-12, atol=1e-12)


def test_expm_empty():
    assert expm(np.zeros((0, 0))).shape == (0, 0)


def test_zoh_scalar_closed_form():
    # dx = a x + b u:  Ad = e^{ah}, Bd = b (e^{ah} - 1)/a
    a, b, h = -2.0, 3.0, 0.1
    Ad, Bd = zoh(np.array([[a]]), np.array([[b]]), h)
    assert Ad[0, 0] == pytest.approx(np.exp(a * h), rel=1e-13)
    assert Bd[0, 0] == pytest.approx(b * np.expm1(a * h) / a, rel=1e-13)


def test_zoh_integrator():
    # dx = u: Ad = 1, Bd = h
    Ad, Bd = zoh(np.zeros((1, 1)), np.ones((1, 1)), 0.25)
    assert Ad[0, 0] == pytest.approx(1.0)
    assert Bd[0, 0] == pytest.approx(0.25, rel=1e-13)


def test_spectral_norm_diag():
    assert spectral_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0)
    assert spectral_norm(np.zeros((0, 0))) == 0.0


def test_numerical_rank_and_null_range():
    M = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
    N = null_basis(M)
    assert N.shape == (2, 1)
    assert np.allclose(M @ N, 0.0, atol=1e-12)
    R = range_basis(M)
    assert R.shape == (2, 1)
    # range is spanned by [1, 2]
    v = np.array([1.0, 2.0]) / np.sqrt(5.0)
    assert abs(abs(R[:, 0] @ v) - 1.0) < 1e-12


def test_canonical_basis_coordinate_aligned():
    # span{e3, e1} in any presentation comes out as sorted unit vectors
    V = np.array([[0.0, 1.0], [0.0, 0.0], [-1.0, 0.0]])
    B = canonical_basis(V)
    assert np.allclose(B, np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))


def test_canonical_basis_deterministic():
    rng = np.random.default_rng(3)
    V = rng.standard_normal((5, 2))
    Q = np.linalg.qr(V)[0]
    B1 = canonical_basis(Q)
    # a different presentation of the same span yields the same basis
    B2 = canonical_basis(Q @ np.array([[0.6, -0.8], [0.8, 0.6]]))
    assert np.allclose(B1, B2, atol=1e-10)
    assert np.allclose(B1.T @ B1, np.eye(2), atol=1e-12)


def test_simpson_exact_on_cubic():
    # composite Simpson integrates cubics exactly
    xs = np.linspace(0.0, 2.0, 21)
    y = xs ** 3 - 2.0 * xs
    exact = 2.0 ** 4 / 4.0 - 2.0 ** 2
    assert simpson(y, xs[1] - xs[0]) == pytest.approx(exact, rel=1e-13)


def test_simpson_matrix_matches_scalar():
    xs = np.linspace(0.0, 1.0, 11)
    Y = np.stack([np.diag([x ** 2, np.sin(x)]) for x in xs])
    out = simpson_matrix(Y, xs[1] - xs[0])
    assert out[0, 0] == pytest.approx(simpson(xs ** 2, 0.1), rel=1e-13)
    assert out[1, 1] == pytest.approx(simpson(np.sin(xs), 0.1), rel=1e-13)


def test_unit_ball_volume_known_values():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(np.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * np.pi / 3.0)


def test_norm_envelope_grid_scalar_decay():
    ts, norms = norm_envelope_grid(np.array([[-1.0]]), 0.05)
    assert np.allclose(norms, np.exp(-ts), rtol=1e-10)


def test_compensated_sup_scalar():
    # ||e^{-t}|| e^{-0t} peaks at t = 0
    assert compensated_sup(np.array([[-1.0]]), 0.0) == pytest.approx(1.0)


# -- matrix-power norms against a 40-digit power ---------------------------

def _random_hurwitz(rng, n, skew):
    """Q (D + U) Q^T with eigenvalues in [-3, -0.5] and a strictly upper
    triangular U of scale ``skew``: Jordan-like and far from normal for a
    large skew, normal for skew = 0."""
    T = np.diag(-rng.uniform(0.5, 3.0, n))
    T += skew * np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return Q @ T @ Q.T


def _mp_power_norms(Eh, js, dps=40):
    """||Eh^j|| for j in js from 40-digit powers of the (exact) float Eh:
    binary powering, then sqrt of the largest eigenvalue of P^T P."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(dps):
        square, squares = mp.matrix(Eh.tolist()), []
        for _ in range(max(js).bit_length()):
            squares.append(square)
            square = square * square
        out = []
        for j in js:
            P = mp.eye(Eh.shape[0])
            for k, S in enumerate(squares):
                if j >> k & 1:
                    P = S * P
            out.append(float(mp.sqrt(max(mp.eigsy(P.T * P)[0]))))
    return np.array(out)


#: powers at which the kernel is checked: both ends, the table edges
#: (multiples of POWER_TABLE = 256) and points in between
_MP_POWERS = [0, 1, 2, 3, 127, 255, 256, 257, 511, 512, 700, 1023, 1024,
              1500, 1999, 2000]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("shift", [0.0, 3.5])
@pytest.mark.parametrize("skew", [0.0, 2.0, 8.0])
def test_power_norms_match_mpmath_powers(n, shift, skew):
    """Stable (shift 0) and unstable (shift 3.5: eigenvalues in [0.5, 3])
    systems, normal and far from normal: every norm within 1e-10 relative
    of a 40-digit power of the same Eh.  The table kernel's largest error
    over these cases is 1.3e-11 (n = 5, unstable, skew 8, j = 2000); a
    one-product-per-power loop's is 8.7e-13."""
    rng = np.random.default_rng(100 * n + 10 * int(shift) + int(skew))
    A = _random_hurwitz(rng, n, skew) + shift * np.eye(n)
    Eh = expm(A * 0.01)
    norms = power_norms(Eh, max(_MP_POWERS) + 1)
    ref = _mp_power_norms(Eh, _MP_POWERS)
    assert np.all(np.abs(norms[_MP_POWERS] / ref - 1.0) <= 1e-10)


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_power_norms_at_the_ends_of_the_float_range(scale):
    """Entries near 1e+-300: ||Eh|| agrees with np.linalg.norm (a scaling
    by the Frobenius norm would overflow here), and the next power
    overflows to inf or underflows to 0 without a warning."""
    rng = np.random.default_rng(7)
    for n in range(1, 6):
        Eh = scale * rng.uniform(-1.0, 1.0, (n, n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = power_norms(Eh, 3)
        assert norms[0] == 1.0
        assert norms[1] == pytest.approx(np.linalg.norm(Eh, 2), rel=1e-14)
        assert norms[2] == (np.inf if scale > 1.0 else 0.0)


def test_power_norms_of_a_non_finite_power_are_inf():
    Eh = np.array([[2.0, np.nan], [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(power_norms(Eh, 3), [1.0, np.inf, np.inf])


def _loop_power_norms(Eh, count):
    """Reference: one product per power, one np.linalg.norm(P, 2) each."""
    P, norms = np.eye(Eh.shape[0]), np.empty(count)
    for j in range(count):
        norms[j] = np.linalg.norm(P, 2)
        P = Eh @ P
    return norms


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("drift", [-1.5, 0.3])
def test_power_norms_equal_per_matrix_loop(n, drift):
    """Stable (drift < 0) and unstable random systems: within 1e-10
    relative of an SVD per power of a one-product-per-power walk (the
    kernels round differently, so not bit for bit)."""
    rng = np.random.default_rng(10 * n + (drift > 0))
    A = rng.normal(size=(n, n)) + drift * np.eye(n)
    Eh = expm(A * 0.02)
    ref = _loop_power_norms(Eh, 700)
    assert np.all(np.abs(power_norms(Eh, 700) / ref - 1.0) <= 1e-10)


def test_power_norms_across_chunks_and_extension(monkeypatch):
    """Power j's norm is bit-identical however the walk is split into calls
    (from a start index, inside and across table blocks) and into chunks."""
    rng = np.random.default_rng(3)
    walks = [expm((_random_hurwitz(rng, n, 2.0) + 0.5 * np.eye(n)) * 0.02)
             for n in (1, 3, 5)]
    wholes = [power_norms(Eh, 1100) for Eh in walks]
    bounds = [0, 23, 256, 257, 600, 1024, 1100]
    for chunk in (7, 256, 300):
        monkeypatch.setattr(numerics, "POWER_NORM_CHUNK", chunk)
        for Eh, whole in zip(walks, wholes):
            pieces = [power_norms(Eh, hi - lo, lo)
                      for lo, hi in zip(bounds[:-1], bounds[1:])]
            assert np.array_equal(np.concatenate(pieces), whole)
            assert np.array_equal(power_norms(Eh, 1100), whole)


def _fresh_norm_envelope_grid(A, h, decay_floor=1e-6, t_max=1e4):
    """Reference: one power_norms call over the whole grid at every
    doubling of T."""
    T = max(64 * h, 1.0)
    while True:
        ts = np.arange(0.0, T + 0.5 * h, h)
        norms = power_norms(expm(A * h), ts.shape[0])
        if norms[-1] <= decay_floor * norms.max() or T >= t_max:
            return ts, norms
        T *= 2.0


@pytest.mark.parametrize("A, h, t_max", [
    (np.array([[-1.0, 4.0], [0.0, -0.3]]), 0.05, 1e4),
    (np.array([[-0.2, 1.0], [-1.0, -0.2]]), 0.01, 1e4),
    (np.array([[0.4, 0.0], [1.0, -2.0]]), 0.05, 8.0),  # stops at t_max
])
def test_norm_envelope_grid_extension_equals_fresh_grid(A, h, t_max):
    ts, norms = norm_envelope_grid(A, h, t_max=t_max)
    ts_ref, norms_ref = _fresh_norm_envelope_grid(A, h, t_max=t_max)
    assert ts.shape[0] > 64
    assert np.array_equal(ts, ts_ref)
    assert np.array_equal(norms, norms_ref)


# -- the certified stop of compensated_sup ---------------------------------

def _envelope_cases(A):
    """(matrix, shift, h) as hgo.decay_constants picks them for A and as
    certificates.exponential_envelopes picks them for A and -A."""
    lam = np.linalg.eigvals(A)
    a = 0.9 * float(np.min(np.abs(lam.real)))
    cases = [(A, -a, min(0.01, 0.1 / float(np.max(np.abs(lam)))))]
    for M in (A, -A):
        rate = float(np.max(np.linalg.eigvals(M).real))
        cases.append((M, rate + 0.05 * (1.0 + abs(rate)), 0.01))
    return cases


@pytest.mark.parametrize("seed", range(10))
def test_compensated_sup_stops_at_certified_tail(seed, monkeypatch):
    """On random Hurwitz matrices, normal and far from normal, at the
    shifts the library uses: the walk's maximum equals, bit for bit, the
    maximum over a grid twice as long and more, and the Lyapunov bound
    dominates every sampled compensated norm, and the exact one at spot
    times."""
    rng = np.random.default_rng(200 + seed)
    A = _random_hurwitz(rng, 1 + seed % 5, (0.0, 2.0, 8.0)[seed % 3])
    walked = []

    def counting_power_norms(Eh, count, start=0):
        walked.append(count)
        return power_norms(Eh, count, start)

    monkeypatch.setattr(numerics, "power_norms", counting_power_norms)
    for M, shift, h in _envelope_cases(A):
        walked.clear()
        sup = compensated_sup(M, shift, h)
        length = 2 * sum(walked) + 1024
        norms = power_norms(expm(M * h), length)
        ts = h * np.arange(length)
        comp = norms * np.exp(-shift * ts)
        assert sup == np.max(comp)
        amp, c = lyapunov_tail(M, shift)
        assert np.isfinite(amp) and c > 0.0
        assert np.all(comp <= amp * np.exp(-c * ts))
        for t in ts[::length // 40]:
            assert (spectral_norm(expm(M * t)) * np.exp(-shift * t)
                    <= amp * np.exp(-c * t))


def test_lyapunov_tail_needs_a_shift_above_the_abscissa():
    A = np.array([[-1.0, 3.0], [0.0, -2.0]])
    assert lyapunov_tail(A, -1.0) == (np.inf, 0.0)
    assert lyapunov_tail(A, -1.5) == (np.inf, 0.0)
    # with no certified tail the walk runs to t_max
    assert compensated_sup(A, -1.0, h=0.1, t_max=5.0) == pytest.approx(
        np.max([spectral_norm(expm(A * t)) * np.exp(t)
                for t in 0.1 * np.arange(51)]), rel=1e-12)
