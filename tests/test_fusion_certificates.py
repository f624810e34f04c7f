"""Tests of the set fusion step and the boundedness certificates."""

import numpy as np
import pytest

from smobserver.certificates import (AssumptionConstants, CertificateReport,
                                     expm1_over_x, exponential_envelopes,
                                     gamma_bounds, grammian_kappa1,
                                     grammian_rho, theorem2_bounds)
from smobserver.ellipsoid import (MEMBERSHIP_SLACK, inverse_factors,
                                  quadratic_forms)
from smobserver.errors import InvalidParameterError
from smobserver.fusion import fuse
from smobserver.weak import (build_Ku, stacking_gain,
                             update_is_informative)


# -- fusion ----------------------------------------------------------------

def test_mu_terms_formula():
    """The fusion gain is the stacking gain of tr P2 against eps1."""
    P2 = np.diag([2.0, 2.0])
    mu1, mu2 = stacking_gain(float(np.trace(P2)), 0.5, 4)
    s = np.sqrt(4.0 / 4.0) / 0.5
    assert mu1 == pytest.approx(1.0 + s, rel=1e-14)
    assert mu2 == pytest.approx(1.0 + 1.0 / s, rel=1e-14)
    assert fuse(0.5, P2, np.eye(6))[1] == mu1


def test_mu_terms_stable_under_extreme_eps1():
    mu1, mu2 = stacking_gain(1.0, 1e44, 1)
    assert mu1 == 1.0  # rounded record, still a valid gain
    assert mu2 == pytest.approx(1.0 + 1e44, rel=1e-12)
    shape, mu = fuse(1e44, np.eye(1), np.eye(2))
    assert mu == 1.0
    assert np.isfinite(shape).all()


def test_fuse_contains_both_factors():
    """Every stack of a point of E(x1hat, eps1^2 I) and a point of
    E(x2hat, P2) lies in the stacked block of build_Ku, and fuse's shape
    is that block mapped through P1.  At eps1 = 1e40 the gain g rounds to 1
    and only g/(g-1) carries the stacking."""
    for eps1 in (0.7, 1e40):
        rng = np.random.default_rng(3)
        n1, n2 = 2, 2
        Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        Pm = rng.standard_normal((n2, n2))
        P2 = Pm @ Pm.T + 0.3 * np.eye(n2)
        gain = stacking_gain(float(np.trace(P2)), eps1, n1)
        assert (gain[0] == 1.0) == (eps1 > 1e20)
        block = build_Ku(gain, eps1, P2, n1)
        # deviations from the centers, inside and on both factors' boundaries
        U1 = rng.standard_normal((n1, 200))
        U1 *= rng.uniform(0, 1, 200) ** (1 / n1) / np.linalg.norm(U1, axis=0)
        U1[:, :50] /= np.linalg.norm(U1[:, :50], axis=0)
        U2 = rng.standard_normal((n2, 200))
        U2 /= np.linalg.norm(U2, axis=0)
        dev = np.vstack([eps1 * U1, np.linalg.cholesky(P2) @ U2])
        q = quadratic_forms(inverse_factors(block), dev,
                            np.zeros((n1 + n2, 1)))
        assert np.all(q <= 1.0 + MEMBERSHIP_SLACK)
        assert np.max(q) >= 0.5  # the bound is not vacuous

        Pinv = np.linalg.inv(Q)
        shape, mu = fuse(eps1, P2, Pinv)
        assert mu == gain[0]
        assert np.allclose(shape, Pinv @ block @ Pinv.T, rtol=1e-12, atol=0.0)


def test_fuse_stack_equals_single_calls():
    """A stack of eps1 values and P2 shapes fuses, bit for bit, as the
    per-entry calls do; an empty weak block records inf for every mu."""
    rng = np.random.default_rng(6)
    Pinv = np.linalg.inv(np.linalg.qr(rng.standard_normal((3, 3)))[0])
    eps1 = np.array([0.3, 1.7, 1e40])
    Pm = rng.standard_normal((3, 2, 2))
    P2 = Pm @ Pm.swapaxes(1, 2) + 0.2 * np.eye(2)
    shape, mu = fuse(eps1, P2, Pinv)
    for k in range(3):
        shape_k, mu_k = fuse(float(eps1[k]), P2[k], Pinv)
        assert np.array_equal(shape[k], shape_k) and mu[k] == mu_k
    shape, mu = fuse(eps1, np.zeros((3, 0, 0)), np.eye(2))
    assert np.array_equal(mu, np.full(3, np.inf))
    assert np.array_equal(shape[0], fuse(0.3, np.zeros((0, 0)), np.eye(2))[0])


def test_certify_walks_stop_at_certified_tail(cfg_mixed, monkeypatch):
    """The certificate's two envelope sups peak at t = 0 on the mixed
    fixture; each walk stops within 256 powers (a walk to a 1e-6 decay
    floor took 12,801)."""
    import smobserver.certificates as certificates
    import smobserver.numerics as numerics
    from smobserver.pipeline import build_design, certify_design, shape_schedule
    design = build_design(cfg_mixed.with_overrides(horizon=2.0))
    schedule = shape_schedule(design)
    walks = []
    compensated_sup, power_norms = (certificates.compensated_sup,
                                    numerics.power_norms)

    def counting_sup(*args, **kwargs):
        walks.append(0)
        return compensated_sup(*args, **kwargs)

    def counting_power_norms(Eh, count, start=0):
        walks[-1] += count
        return power_norms(Eh, count, start)

    monkeypatch.setattr(certificates, "compensated_sup", counting_sup)
    monkeypatch.setattr(numerics, "power_norms", counting_power_norms)
    assert certify_design(design, schedule).case == "lemma7"
    assert len(walks) == 2 and all(0 < w <= 256 for w in walks)


def test_fuse_empty_weak_block():
    shape, mu = fuse(0.5, np.zeros((0, 0)), np.eye(2))
    assert mu == np.inf
    assert np.allclose(shape, 0.25 * np.eye(2))


def test_product_gain_beats_grid():
    """Small version of the stacking-gain optimality check."""
    rng = np.random.default_rng(5)
    grid = 1.0 + np.logspace(-3, 3, 400)
    for _ in range(20):
        t1 = float(rng.uniform(0.1, 10.0))
        t2 = float(rng.uniform(0.1, 10.0))
        g_star = np.sqrt(t2 / t1) + 1.0
        J = lambda g: g * t1 + g / (g - 1.0) * t2
        assert J(g_star) <= np.min(J(grid)) * (1.0 + 1e-12)


# -- certificates ----------------------------------------------------------

def test_expm1_over_x_series_and_direct():
    assert expm1_over_x(1.0) == pytest.approx(np.e - 1.0, rel=1e-14)
    assert expm1_over_x(0.0) == 1.0
    # series branch agrees with the direct form just above the cutoff
    for x in (1e-5, 5e-5, 2e-4, -1e-5):
        assert expm1_over_x(x) == pytest.approx(np.expm1(x) / x, rel=1e-10)


def test_exponential_envelopes_normal_matrix():
    # A4 = -I: exact envelopes e^{-t} and e^{t}; margins land at the
    # documented offsets
    l_hi, a_hi, l_lo, a_lo = exponential_envelopes(-np.eye(2))
    assert l_hi == pytest.approx(-0.9)
    assert a_hi == pytest.approx(1.05, rel=1e-6)
    assert l_lo == pytest.approx(1.1)
    assert a_lo == pytest.approx(1.05, rel=1e-6)


def test_exponential_envelopes_dominate_samples():
    rng = np.random.default_rng(6)
    A4 = rng.standard_normal((3, 3))
    l_hi, a_hi, l_lo, a_lo = exponential_envelopes(A4)
    import scipy.linalg as sla
    for t in np.linspace(0.0, 3.0, 60):
        assert np.linalg.norm(sla.expm(A4 * t), 2) <= \
            a_hi * np.exp(l_hi * t) * (1.0 + 1e-9)
        assert np.linalg.norm(sla.expm(-A4 * t), 2) <= \
            a_lo * np.exp(l_lo * t) * (1.0 + 1e-9)


def test_grammian_kappa1_integrator():
    # A4 = 0: Grammian is dt * I
    val = grammian_kappa1(np.zeros((2, 2)), 0.3)
    assert val == pytest.approx(0.3, rel=1e-10)


def test_grammian_kappa1_scalar_closed_form():
    # A4 = [a]: int_0^dt e^{2 a s} ds = (e^{2 a dt} - 1) / (2a)
    a, dt = -1.5, 0.4
    ref = np.expm1(2.0 * a * dt) / (2.0 * a)
    assert grammian_kappa1(np.array([[a]]), dt) == pytest.approx(ref,
                                                                 rel=1e-8)


def test_gamma_bounds_order_and_consistency():
    const = AssumptionConstants(alpha_lo=0.1, alpha_hi=0.9, beta_lo=0.0,
                                beta_hi=0.0, w_lo=3.0, w_hi=5.0)
    g1l, g1h, g2l, g2h = gamma_bounds(const, 0.5, 2.0, 2, 2)
    assert 1.0 < g1l <= g1h
    assert 1.0 < g2l <= g2h
    # the pointwise gain for any (tr Kw, eps1) in range sits inside
    for tw, e1 in ((6.0, 0.5), (10.0, 2.0), (8.0, 1.0)):
        s = np.sqrt(tw / 2.0) / e1
        assert g1l - 1e-12 <= 1.0 + s <= g1h + 1e-12
    # the bounds are the stacking gains at the corners of the box
    g1l, g1h, g2l, g2h = gamma_bounds(const, 0.5, 2.0, 1, 2)
    assert (g1l, g2h) == stacking_gain(2 * 3.0, 2.0, 1)
    assert (g1h, g2l) == stacking_gain(2 * 5.0, 0.5, 1)


def test_theorem2_bounds_empty_weak_block():
    """With n2 = 0 nothing is stacked: P = P1^{-1} eps1^2 I P1^{-T}."""
    rep = CertificateReport(alpha_lo=0.1, alpha_hi=0.9, beta_lo=0.0,
                            beta_hi=0.0, w_lo=1.0, w_hi=2.0,
                            eps1_lo=0.5, eps1_hi=3.0)
    P1 = np.linalg.qr(np.random.default_rng(2).standard_normal((3, 3)))[0]
    P_lo, P_hi = theorem2_bounds(rep, P1, 3, 0)
    Pinv = np.linalg.inv(P1)
    assert np.allclose(P_lo, 0.25 * Pinv @ Pinv.T, rtol=1e-14, atol=1e-15)
    assert np.allclose(P_hi, 9.0 * Pinv @ Pinv.T, rtol=1e-14, atol=1e-14)
    assert np.isnan(rep.mu1_lo) and np.isnan(rep.mu1_hi)


def test_assumption_constants_validation():
    with pytest.raises(InvalidParameterError):
        AssumptionConstants(alpha_lo=0.0, alpha_hi=0.9, beta_lo=0.0,
                            beta_hi=0.0, w_lo=1.0, w_hi=2.0)
    with pytest.raises(InvalidParameterError):
        AssumptionConstants(alpha_lo=0.1, alpha_hi=0.9, beta_lo=0.5,
                            beta_hi=0.2, w_lo=1.0, w_hi=2.0)


def test_grammian_rho_hand_example():
    """A4 = 0, C2 = I, G_k = I: each window term is the identity, so the
    window of length r sums to (r+1) I and rho = r + 1."""
    class _Dec:
        n2 = 2
        A4 = np.zeros((2, 2))
        C2 = np.eye(2)
    Gk_seq = [np.eye(2)] * 6
    assert grammian_rho(_Dec(), Gk_seq, 2, 0.1) == pytest.approx(3.0)


def test_grammian_window_skips_what_the_update_gate_skips():
    """G_k = diag(1, 1e-11) fails the update gate (lambda_min <= 1e-10
    ||G_k||), so the estimator skips its update; every window of length 2
    holds it, so the certificate may count no window."""
    class _Dec:
        n2 = 2
        A4 = np.zeros((2, 2))
        C2 = np.eye(2)
    Gk_seq = [np.eye(2), np.eye(2), np.diag([1.0, 1e-11]), np.eye(2)]
    assert not update_is_informative(_Dec(), Gk_seq[2])
    with pytest.warns(UserWarning, match="excluded from Grammian window"):
        assert grammian_rho(_Dec(), Gk_seq, 2, 0.1) == 0.0


def test_certificate_report_ex2(run_ex2, design_ex2):
    """The declared-constant certificate for the benchmark must close via the
    stable case and actually bound the realized shape matrices."""
    rep = run_ex2.report
    assert rep.case == "lemma6"
    assert rep.f_bar < 1.0 - rep.beta_hi
    assert rep.p2_lo > 0.0
    assert np.isfinite(rep.p2_hi)
    for ws in run_ex2.weak_states:
        lam = np.linalg.eigvalsh(ws.P2hat)
        assert lam[0] >= rep.p2_lo * (1.0 - 1e-9)
        assert lam[-1] <= rep.p2_hi * (1.0 + 1e-9)


def test_certificate_matrix_bounds_ex2(run_ex2):
    rep = run_ex2.report
    assert rep.P_lo is not None and rep.P_hi is not None
    for K in run_ex2.schedule.shape[::25]:
        assert np.linalg.eigvalsh(K - rep.P_lo)[0] >= -1e-6 * np.trace(K)
        assert np.linalg.eigvalsh(rep.P_hi - K)[0] >= -1e-6 * np.trace(rep.P_hi)


def test_certificate_report_mixed(run_mixed):
    """With active updates the marginal (Grammian-window) case closes."""
    rep = run_mixed.report
    assert rep.case == "lemma7"
    assert rep.rho_lo > 0.0
    assert np.isfinite(rep.p2_hi)
    for ws in run_mixed.weak_states:
        lam = np.linalg.eigvalsh(ws.P2hat)
        assert lam[0] >= rep.p2_lo * (1.0 - 1e-9)
        assert lam[-1] <= rep.p2_hi * (1.0 + 1e-9)


@pytest.mark.parametrize("run_name", ["run_mixed", "run_ex2"])
def test_realized_gains_inside_certificate_bounds(run_name, request):
    """gamma_k, mu_k and the certificate's gain bounds come from the one
    stacking gain, so every realized gain lies in [gamma1_lo, gamma1_hi]
    and [mu1_lo, mu1_hi]."""
    run = request.getfixturevalue(run_name)
    rep = run.report
    gammas = np.array([row.gamma for row in run.traces[1:]])  # none at k=0
    mus = np.array([row.mu for row in run.traces])
    rel = 1e-12
    for vals, lo, hi in ((gammas, rep.gamma1_lo, rep.gamma1_hi),
                         (mus, rep.mu1_lo, rep.mu1_hi)):
        assert np.all(np.isfinite(vals))
        assert np.all(vals >= lo * (1.0 - rel))
        assert np.all(vals <= hi * (1.0 + rel))


def test_sandwich_lower_side_scales_with_the_shape():
    """A vacuous P_hi does not excuse a fused shape below P_lo: the lower
    side's tolerance is -1e-9 tr P_k, not -1e-9 tr P_hi."""
    rep = CertificateReport(alpha_lo=0.1, alpha_hi=0.9, beta_lo=0.0,
                            beta_hi=0.0, w_lo=0.0, w_hi=1.0, eps1_lo=1.0,
                            eps1_hi=1.0, P_lo=np.eye(2),
                            P_hi=1e150 * np.eye(2))
    P2 = np.empty((3, 0, 0))
    rounding = np.eye(2) - 1e-12 * np.eye(2)
    assert rep.shape_inconsistency(
        P2, np.stack([2.0 * np.eye(2), rounding, rounding])) is None
    below = np.stack([2.0 * np.eye(2), rounding, 0.5 * np.eye(2)])
    assert (rep.shape_inconsistency(P2, below)
            == "step 2: lambda_min(P_k - P_lo) -0.5 < -1e-09")


def test_certificate_serializes(run_ex2):
    d = run_ex2.report.to_dict()
    assert isinstance(d["P_lo"], list)
    assert isinstance(d["p2_hi_seq"], list)
    import yaml
    yaml.safe_dump(d)  # must be plain-type serializable
