"""End-to-end observer pipeline: plant simulation, the full estimation loop
(derivative bank + unknown-input observer + weak-block observer + fusion),
certificate evaluation, Monte Carlo containment suites, and trace emission.

The shape-matrix side of the estimator (error envelopes, predicted and
updated shape matrices, gains, mixing weights) is independent of the
realized input and initial state; the Monte Carlo driver exploits this by
computing shapes once and batching all run-dependent centers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from math import lcm

import numpy as np
import scipy.linalg as sla

from .certificates import (AssumptionConstants, CertificateReport, certify)
from .decomposition import (Decomposition, LtiSystem, build_decomposition,
                            select_derivative_order)
from .ellipsoid import MEMBERSHIP_SLACK, Ellipsoid, axis_bounds, volume
from .errors import InvalidDesignError, InvalidParameterError
from .fusion import fuse
from .hgo import (HgoConfig, assemble_z_hat, decay_constants,
                  design_hgo, initial_state, step_hgo)
from .numerics import spectral_norm, symmetrize
from .scenario import (ScenarioConfig, default_zbar0, input_bounds,
                       input_norm_bound, y_derivative_bound)
from .uio import (Epsilon1Evaluator, ErrorBoundParams, UioDesign,
                  solve_uio_gain, step_uio)
from .weak import (StepInputs, WeakState, build_Ku, gamma_k, gamma_terms,
                   gk_matrix, measurement_update, optimize_beta, propagate,
                   update_is_informative)


# -- plant simulation ------------------------------------------------------

def rk4_recurrence(A: np.ndarray, B: np.ndarray, h: float
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Classical fourth-order step for dx = Ax + Bw as a linear recurrence.

    x+ = R x + W1 w(t) + W2 w(t + h/2) + W3 w(t + h).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    A2, A3, A4 = A @ A, None, None
    A3 = A2 @ A
    A4 = A3 @ A
    n = A.shape[0]
    R = np.eye(n) + h * A + h ** 2 / 2 * A2 + h ** 3 / 6 * A3 + h ** 4 / 24 * A4
    W1 = h / 6 * (B + h * A @ B + h ** 2 / 2 * A2 @ B + h ** 3 / 4 * A3 @ B)
    W2 = h / 6 * (4 * B + 2 * h * A @ B + h ** 2 / 2 * A2 @ B)
    W3 = h / 6 * B
    return R, W1, W2, W3


def simulate_plant(sys: LtiSystem, x0: np.ndarray, w_fn, dt: float,
                   substeps: int, horizon: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 trajectory on the grid of spacing dt/substeps.

    Returns (ts, xs) with xs[j] = x(ts[j]); w_fn maps an array of times to
    an array of stacked input samples.
    """
    if substeps < 1:
        raise InvalidParameterError("substeps must be >= 1")
    h = dt / substeps
    n_nodes = int(round(horizon / h))
    ts = h * np.arange(n_nodes + 1)
    R, W1, W2, W3 = rk4_recurrence(sys.A, sys.B, h)
    w_nodes = np.asarray(w_fn(ts), dtype=float)
    w_half = np.asarray(w_fn(ts[:-1] + 0.5 * h), dtype=float)
    xs = np.empty((n_nodes + 1, sys.n_x))
    xs[0] = np.asarray(x0, dtype=float).ravel()
    for j in range(n_nodes):
        xs[j + 1] = (R @ xs[j] + W1 @ w_nodes[j] + W2 @ w_half[j]
                     + W3 @ w_nodes[j + 1])
    return ts, xs


# -- per-scenario design ---------------------------------------------------

@dataclass
class DesignArtifacts:
    """Run-independent synthesis products shared across Monte Carlo runs."""

    cfg: ScenarioConfig
    sys: LtiSystem
    dec: Decomposition
    l: int
    uio: UioDesign
    hgo_cfg: HgoConfig
    err: ErrorBoundParams
    eps1_ts: np.ndarray      # quad grid over [0, horizon]
    eps1_grid: np.ndarray    # eps1 at those times
    eps1_lo: float
    eps1_hi: float
    n_fine: int
    h_fine: float
    quad_stride: int         # fine nodes per quad node
    y_deriv_bound: float


def _default_poles(n1: int) -> tuple[float, ...]:
    return tuple(-2.0 - 0.5 * i for i in range(n1))


def build_design(cfg: ScenarioConfig) -> DesignArtifacts:
    """Decompose, pick the derivative order, synthesize both observers, and
    precompute the error-envelope grid."""
    sys = cfg.system
    dec = build_decomposition(sys)
    if dec.n1 == 0:
        raise InvalidDesignError(
            "the strongly observable part is empty; this pipeline requires "
            "a nontrivial strongly observable block")
    order_rep = select_derivative_order(dec)
    l = order_rep.l if cfg.hgo.l_override is None else int(cfg.hgo.l_override)
    poles = cfg.uio_poles if cfg.uio_poles else _default_poles(dec.n1)
    uio = solve_uio_gain(dec.A1, dec.C1, dec.B1p, dec.D1p, l, poles)
    hgo_cfg = design_hgo(l, cfg.hgo.eps, cfg.hgo.pole, n_y=sys.n_y)
    K, a = decay_constants(hgo_cfg)
    ybound = cfg.hgo.y_deriv_bound
    if ybound is None:
        ybound = y_derivative_bound(cfg, l)
    delta = ybound * K * cfg.hgo.eps / a
    zbar0 = cfg.hgo.zbar0
    if zbar0 is None:
        y0_norm = (float(np.linalg.norm(sys.C @ cfg.xhat0))
                   + spectral_norm(sys.C)
                   * float(np.sqrt(max(np.linalg.eigvalsh(cfg.K0)[-1], 0.0)))
                   + spectral_norm(sys.D) * input_norm_bound(cfg))
        zbar0 = default_zbar0(cfg, np.array([y0_norm]), ybound)
    init_norm = float(np.sqrt(
        spectral_norm(dec.P1 @ cfg.K0 @ dec.P1.T)))
    err = ErrorBoundParams(K=K, a=a, eps=cfg.hgo.eps, delta=delta,
                           zbar0=zbar0, l=l,
                           F_norm=spectral_norm(uio.F),
                           init_norm=init_norm, n_y=sys.n_y)
    quad_step = cfg.dt / cfg.quad_substeps
    ev = Epsilon1Evaluator(err, uio.E, quad_step, cfg.horizon)
    eps1_ts, eps1_grid = ev.grid(ev.ts[min(len(ev.ts) - 1,
                                           cfg.n_steps * cfg.quad_substeps)])
    eps1_lo, eps1_hi = ev.uniform_bounds(cfg.eps1_floor)
    n_fine = lcm(cfg.plant_substeps, lcm(cfg.hgo_substeps, cfg.quad_substeps))
    return DesignArtifacts(
        cfg=cfg, sys=sys, dec=dec, l=l, uio=uio, hgo_cfg=hgo_cfg, err=err,
        eps1_ts=eps1_ts, eps1_grid=eps1_grid,
        eps1_lo=eps1_lo, eps1_hi=eps1_hi,
        n_fine=n_fine, h_fine=cfg.dt / n_fine,
        quad_stride=n_fine // cfg.quad_substeps,
        y_deriv_bound=ybound)


# -- traces ----------------------------------------------------------------

@dataclass
class TraceRow:
    """One estimator sample: truth, estimate, per-axis bounds, diagnostics."""

    t: float
    x_true: np.ndarray
    xhat: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    trP: float
    vol: float
    eps1: float
    alpha: float
    beta: float
    gamma: float
    mu: float
    contained: bool
    skipped: bool


@dataclass
class RunResult:
    """Everything a single pipeline execution produces."""

    traces: list
    report: CertificateReport | None
    fused: list
    weak_states: list
    pred_shapes: list
    Gk_seq: list
    alphas: np.ndarray
    betas: np.ndarray
    step_log: list
    eps1_ok: bool
    containment_ok: bool
    eps1_margin: float   # min over checks of eps1 - ||e1||
    worst_q: float       # max over steps of the fused quadratic form

    @property
    def ok(self) -> bool:
        return self.eps1_ok and self.containment_ok


def _make_w_fn(cfg: ScenarioConfig):
    def w_fn(ts):
        return cfg.w_true(np.asarray(ts, dtype=float))
    return w_fn


def run_algorithm1(cfg: ScenarioConfig, design: DesignArtifacts | None = None,
                   x0: np.ndarray | None = None, w_fn=None,
                   with_certificate: bool = True,
                   step_log: list | None = None) -> RunResult:
    """Execute the full estimation loop over the scenario horizon.

    The per-step order follows the published pseudocode: advance the
    continuous blocks on the inner grid, then per sample time select the
    stacking gain and mixing weight, propagate, gate the measurement update
    on G_k, update or skip, and fuse.
    """
    if design is None:
        design = build_design(cfg)
    dec, uio, hgo_cfg = design.dec, design.uio, design.hgo_cfg
    n1, n2 = dec.n1, dec.n2
    sys = design.sys
    log = step_log if step_log is not None else []

    if x0 is None:
        x0 = cfg.x0_true if cfg.x0_true is not None else cfg.xhat0
    if w_fn is None:
        w_fn = _make_w_fn(cfg)

    ts_fine, xs_fine = simulate_plant(sys, x0, w_fn, cfg.dt, design.n_fine,
                                      cfg.horizon)
    w_fine = np.asarray(w_fn(ts_fine), dtype=float)
    ys_fine = xs_fine @ sys.C.T + w_fine @ sys.D.T

    # t = 0 setup: split the initial ellipsoid through the coordinate change
    log.append("setup")
    xp0 = dec.P1 @ cfg.xhat0
    Kp0 = symmetrize(dec.P1 @ cfg.K0 @ dec.P1.T)
    x1hat = xp0[:n1].copy()
    st2 = WeakState(x2hat=xp0[n1:], P2hat=Kp0[n1:, n1:], k=0, t_k=0.0)
    hgo_st = initial_state(hgo_cfg, ys_fine[0])

    quad_stride = design.quad_stride
    n_q = cfg.quad_substeps
    ts_q = design.eps1_ts
    cw_q = cfg.cw(ts_q)
    Kw_q = cfg.Kw(ts_q)

    traces: list[TraceRow] = []
    fused_list: list[FusedEstimate] = []
    weak_list: list[WeakState] = [st2]
    pred_shapes: list[np.ndarray] = []
    Gk_seq: list[np.ndarray] = []
    alphas, betas = [], []
    x1hat_q = np.empty((cfg.n_steps * n_q + 1, n1))
    x1hat_q[0] = x1hat
    eps1_margin = np.inf
    eps1_ok = True
    worst_q = 0.0
    containment_ok = True

    def emit_row(k, alpha, beta, gamma, skipped):
        nonlocal worst_q, containment_ok
        t_k = k * cfg.dt
        e1 = float(design.eps1_grid[k * n_q])
        fu = fuse(x1hat, e1, st2, dec.P1)
        fused_list.append(fu)
        x_true_k = xs_fine[k * design.n_fine]
        q = fu.ellipsoid.quadratic_form(x_true_k)
        worst_q = max(worst_q, q)
        contained = q <= 1.0 + MEMBERSHIP_SLACK
        containment_ok = containment_ok and contained
        lo, hi = axis_bounds(fu.ellipsoid)
        traces.append(TraceRow(
            t=t_k, x_true=x_true_k.copy(), xhat=fu.ellipsoid.center.copy(),
            lo=lo, hi=hi,
            trP=float(np.trace(fu.ellipsoid.shape)),
            vol=volume(fu.ellipsoid), eps1=e1,
            alpha=alpha, beta=beta, gamma=gamma, mu=fu.mu,
            contained=contained, skipped=skipped))

    log.append("fuse")
    emit_row(0, np.nan, np.nan, np.nan, skipped=True)

    h = design.h_fine
    for k in range(1, cfg.n_steps + 1):
        # continuous blocks on the inner grid
        log.append("continuous")
        base = (k - 1) * design.n_fine
        for j in range(design.n_fine):
            z = assemble_z_hat(hgo_cfg, hgo_st)
            x1hat = step_uio(uio, x1hat, z, h)
            hgo_st = step_hgo(hgo_cfg, hgo_st, ys_fine[base + j], h)
            if (j + 1) % quad_stride == 0:
                qi = (k - 1) * n_q + (j + 1) // quad_stride
                x1hat_q[qi] = x1hat
                # envelope validity on the inner grid
                x1_true = (dec.P1 @ xs_fine[base + j + 1])[:n1]
                gap = design.eps1_grid[qi] - np.linalg.norm(x1_true - x1hat)
                eps1_margin = min(eps1_margin, float(gap))
                if gap < -1e-9:
                    eps1_ok = False

        sl = slice((k - 1) * n_q, k * n_q + 1)
        inp = StepInputs(
            x1hat_samples=x1hat_q[sl],
            eps1_samples=design.eps1_grid[sl],
            cw_samples=cw_q[sl],
            Kw_samples=Kw_q[sl],
            y_k=ys_fine[k * design.n_fine])

        if n2 == 0:
            log.append("fuse")
            st2 = WeakState(x2hat=st2.x2hat, P2hat=st2.P2hat, k=k,
                            t_k=k * cfg.dt)
            weak_list.append(st2)
            pred_shapes.append(st2.P2hat)
            alphas.append(np.nan)
            betas.append(np.nan)
            emit_row(k, np.nan, np.nan, np.nan, skipped=True)
            continue

        log.append("gamma")
        gpair = gamma_terms(inp.Kw_samples[-1], float(inp.eps1_samples[-1]), n1)
        gam = gpair[0]
        log.append("propagate")
        x2_pred, P2_pred, alpha, _ = propagate(st2, dec, inp, cfg.dt, n_q)
        st_pred = WeakState(x2hat=x2_pred, P2hat=P2_pred, k=k, t_k=k * cfg.dt)
        pred_shapes.append(P2_pred)
        Ku_k = build_Ku(gpair, float(inp.eps1_samples[-1]),
                        inp.Kw_samples[-1], n1)
        Gk = gk_matrix(dec, Ku_k)
        Gk_seq.append(Gk)
        log.append("gate")
        if update_is_informative(dec, Gk):
            log.append("update")
            beta = optimize_beta(P2_pred, dec.C2, Gk)
            st2 = measurement_update(st_pred, dec, inp, beta)
            skipped = False
        else:
            st2 = st_pred
            beta = 0.0
            skipped = True
        weak_list.append(st2)
        alphas.append(alpha)
        betas.append(beta)
        log.append("fuse")
        emit_row(k, alpha, beta, gam, skipped)

    report = None
    if with_certificate:
        report = certify_design(design, np.asarray(alphas),
                                np.asarray(betas), Gk_seq)
    return RunResult(
        traces=traces, report=report, fused=fused_list,
        weak_states=weak_list, pred_shapes=pred_shapes, Gk_seq=Gk_seq,
        alphas=np.asarray(alphas), betas=np.asarray(betas),
        step_log=log, eps1_ok=eps1_ok, containment_ok=containment_ok,
        eps1_margin=float(eps1_margin), worst_q=float(worst_q))


# -- certificates ----------------------------------------------------------

def assumption_constants(cfg: ScenarioConfig, alphas: np.ndarray,
                         betas: np.ndarray) -> AssumptionConstants:
    """Build the Assumption-level parameter bounds, declared or harvested."""
    w_lo, w_hi = input_bounds(cfg)
    if cfg.cert.mode == "declared":
        return AssumptionConstants(
            alpha_lo=cfg.cert.alpha_lo, alpha_hi=cfg.cert.alpha_hi,
            beta_lo=cfg.cert.beta_lo, beta_hi=cfg.cert.beta_hi,
            w_lo=w_lo, w_hi=w_hi, source="declared")
    m = cfg.cert.harvest_margin
    a_real = alphas[np.isfinite(alphas)]
    if a_real.size:
        a_lo = max(float(np.min(a_real)) * (1.0 - m), 1e-12)
        a_hi = min(float(np.max(a_real)) * (1.0 + m), 1.0 - 1e-12)
    else:
        a_lo = a_hi = 0.5
    b_real = betas[np.isfinite(betas)]
    b_pos = b_real[b_real > 0.0]
    if b_pos.size:
        b_lo = float(np.min(b_pos)) * (1.0 - m)
        b_hi = min(float(np.max(b_real)) * (1.0 + m), 1.0 - 1e-12)
        if b_pos.size < b_real.size:
            b_lo = 0.0  # some steps skipped the update
    else:
        b_lo = b_hi = 0.0
    return AssumptionConstants(alpha_lo=a_lo, alpha_hi=a_hi,
                               beta_lo=b_lo, beta_hi=b_hi,
                               w_lo=w_lo, w_hi=w_hi, source="harvested")


def certify_design(design: DesignArtifacts, alphas: np.ndarray,
                   betas: np.ndarray, Gk_seq: list) -> CertificateReport:
    cfg = design.cfg
    const = assumption_constants(cfg, alphas, betas)
    P20_norm = spectral_norm(design.dec.P1 @ cfg.K0 @ design.dec.P1.T)
    r = cfg.cert.r if cfg.cert.r is not None else max(design.dec.n2, 1)
    return certify(design.dec, const, design.eps1_lo, design.eps1_hi,
                   cfg.dt, P20_norm, cfg.n_steps, Gk_seq=Gk_seq, r=r,
                   margin_scale=cfg.cert.margin_scale)


def certify_scenario(cfg: ScenarioConfig) -> tuple[CertificateReport, RunResult]:
    """Run the pipeline once (pilot for harvested constants and the Grammian
    window) and evaluate the certificate."""
    design = build_design(cfg)
    run = run_algorithm1(cfg, design=design, with_certificate=True)
    return run.report, run


# -- Monte Carlo -----------------------------------------------------------

def _sample_initial_states(rng: np.random.Generator, cfg: ScenarioConfig,
                           runs: int, boundary: bool) -> np.ndarray:
    ell = Ellipsoid(cfg.xhat0, cfg.K0)
    return ell.sample(rng, runs, boundary=boundary).T  # (n, runs)


@dataclass
class _InputFamily:
    """Batched admissible inputs c_w + L(t) sum_j a_j u_j sin(w_j t + p_j)."""

    cfg: ScenarioConfig
    amps: np.ndarray    # (terms, runs), sum over terms <= 1
    units: np.ndarray   # (terms, n_w, runs), unit columns
    freqs: np.ndarray   # (terms, runs)
    phases: np.ndarray  # (terms, runs)

    def __call__(self, ts) -> np.ndarray:
        """(len(ts), n_w, runs) admissible input samples."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        cfg = self.cfg
        s = self.amps[None, :, None, :] * np.sin(
            self.freqs[None, :, None, :] * ts[:, None, None, None]
            + self.phases[None, :, None, :]) * self.units[None, :, :, :]
        dev = s.sum(axis=1)  # (T, n_w, runs), ||dev|| <= 1 pointwise
        if cfg.Kw.kind == "const":
            L = np.linalg.cholesky(cfg.Kw.matrix)
            scaled = np.einsum("ab,tbr->tar", L, dev)
        else:
            diag = np.sqrt(np.stack([np.diag(M) for M in cfg.Kw(ts)]))
            scaled = diag[:, :, None] * dev
        return cfg.cw(ts)[:, :, None] + scaled


def _sample_input_family(rng: np.random.Generator, cfg: ScenarioConfig,
                         runs: int) -> _InputFamily:
    T = cfg.mc_n_terms
    raw = rng.uniform(0.0, 1.0, size=(T, runs))
    total = rng.uniform(0.0, 1.0, size=(1, runs))
    amps = raw / np.sum(raw, axis=0, keepdims=True) * total
    units = rng.standard_normal((T, cfg.system.n_w, runs))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    freqs = rng.uniform(0.0, cfg.mc_freq_max, size=(T, runs))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(T, runs))
    return _InputFamily(cfg=cfg, amps=amps, units=units, freqs=freqs,
                        phases=phases)


def monte_carlo_containment(cfg: ScenarioConfig, runs: int, seed: int,
                            boundary: bool = False,
                            x0s: np.ndarray | None = None,
                            w_family=None) -> dict:
    """Batched containment sweep over random admissible runs.

    Shapes, gains, and mixing weights are input-independent, so they are
    taken from one nominal pipeline execution; only the centers are
    recomputed per run, vectorized across the whole batch.

    ``x0s`` (n x runs) and ``w_family`` (times -> (len, n_w, runs) samples)
    override the random draws with explicit batches.
    """
    if runs == 0:
        return {"runs": 0, "containment_rate": None, "worst_q": None,
                "eps1_violations": 0, "seed": seed,
                "per_run_worst_q": []}
    design = build_design(cfg)
    nominal = run_algorithm1(cfg, design=design, with_certificate=False)
    dec, uio, hgo_cfg = design.dec, design.uio, design.hgo_cfg
    sys, n1, n2 = design.sys, design.dec.n1, design.dec.n2
    rng = np.random.default_rng(seed)
    X = (_sample_initial_states(rng, cfg, runs, boundary)
         if x0s is None else np.asarray(x0s, dtype=float))   # (n, runs)
    family = (_sample_input_family(rng, cfg, runs)
              if w_family is None else w_family)

    h = design.h_fine
    n_fine = design.n_fine
    n_nodes = cfg.n_steps * n_fine
    ts_fine = h * np.arange(n_nodes + 1)
    R, W1, W2, W3 = rk4_recurrence(sys.A, sys.B, h)
    from .hgo import _discretization
    from .numerics import zoh
    Ad, Bd = _discretization(hgo_cfg.l, hgo_cfg.eps, hgo_cfg.theta, float(h))
    Ed, Fd = zoh(uio.E, uio.F, h)

    # quadrature kernels for the weak-center propagation (shared per step)
    n_q = cfg.quad_substeps
    h_q = cfg.dt / n_q
    EhQ = sla.expm(dec.A4 * h_q) if n2 else np.eye(0)
    kernels = np.empty((n_q + 1, n2, n2))
    P = np.eye(n2)
    for j in range(n_q, -1, -1):
        kernels[j] = P
        P = EhQ @ P
    Em = kernels[0] if n2 else np.eye(0)
    # Simpson weights on the quad grid
    wts = np.ones(n_q + 1)
    wts[1:-1:2] = 4.0
    wts[2:-1:2] = 2.0
    wts *= h_q / 3.0
    KB = np.einsum("jab,bc->jac", kernels, dec.B2p)  # (n_q+1, n2, n1+n_w)

    ts_q = design.eps1_ts
    cw_q = cfg.cw(ts_q)

    # precompute inputs on the fine grid (and half nodes) per Delta-t block
    xp0 = dec.P1 @ cfg.xhat0
    x1h = np.tile(xp0[:n1][:, None], (1, runs))
    X2 = np.tile(xp0[n1:][:, None], (1, runs))
    w_nodes0 = family(np.array([0.0]))[0]                    # (n_w, runs)
    Y0 = sys.C @ X + sys.D @ w_nodes0
    Z = np.zeros((hgo_cfg.l + 1, sys.n_y, runs))
    Z[0] = Y0

    quad_stride = design.quad_stride
    contained = np.ones(runs, dtype=bool)
    per_run_worst = np.zeros(runs)
    eps1_violations = 0
    eps1_margin = np.inf

    x1h_q = np.empty((n_q + 1, n1, runs))
    x1h_q[0] = x1h
    # state at t=0 containment
    fu0 = nominal.fused[0]
    cf0 = sla.cho_factor(fu0.ellipsoid.shape, lower=True)
    d0 = X - fu0.ellipsoid.center[:, None]
    q0 = np.sum(d0 * sla.cho_solve(cf0, d0), axis=0)
    per_run_worst = np.maximum(per_run_worst, q0)
    contained &= q0 <= 1.0 + MEMBERSHIP_SLACK

    for k in range(1, cfg.n_steps + 1):
        base = (k - 1) * n_fine
        block_ts = ts_fine[base:base + n_fine + 1]
        w_nodes = family(block_ts)                 # (n_fine+1, n_w, runs)
        w_half = family(block_ts[:-1] + 0.5 * h)
        for j in range(n_fine):
            zflat = Z.reshape((hgo_cfg.l + 1) * sys.n_y, runs)
            x1h = Ed @ x1h + Fd @ zflat
            y_j = sys.C @ X + sys.D @ w_nodes[j]
            Z = np.einsum("ab,bcr->acr", Ad, Z) + Bd[:, :, None] * y_j[None]
            X = (R @ X + W1 @ w_nodes[j] + W2 @ w_half[j]
                 + W3 @ w_nodes[j + 1])
            if (j + 1) % quad_stride == 0:
                qi_local = (j + 1) // quad_stride
                x1h_q[qi_local] = x1h
                qi = (k - 1) * n_q + qi_local
                x1_true = (dec.P1 @ X)[:n1]
                errs = np.linalg.norm(x1_true - x1h, axis=0)
                gap = design.eps1_grid[qi] - errs
                eps1_margin = min(eps1_margin, float(np.min(gap)))
                eps1_violations += int(np.sum(gap < -1e-9))

        if n2:
            sl = slice((k - 1) * n_q, k * n_q + 1)
            u = np.concatenate(
                [x1h_q, np.tile(cw_q[sl][:, :, None], (1, 1, runs))],
                axis=1)                                  # (n_q+1, n1+nw, runs)
            drive = np.einsum("jam,jmr->jar", KB, u)
            X2_pred = Em @ X2 + np.einsum("j,jar->ar", wts, drive)
            row = nominal.traces[k]
            if not row.skipped:
                # replay the nominal gain on this run's innovation
                Ok = _nominal_gain(nominal, design, k)
                y_k = sys.C @ X + sys.D @ w_nodes[n_fine]
                u_k = u[-1]
                innov = y_k - dec.C2 @ X2_pred - dec.D2p @ u_k
                X2 = X2_pred + Ok @ innov
            else:
                X2 = X2_pred

        fu = nominal.fused[k]
        center = dec.P1.T @ np.concatenate([x1h, X2], axis=0)
        cf = sla.cho_factor(fu.ellipsoid.shape, lower=True)
        d = X - center
        q = np.sum(d * sla.cho_solve(cf, d), axis=0)
        per_run_worst = np.maximum(per_run_worst, q)
        contained &= q <= 1.0 + MEMBERSHIP_SLACK
        x1h_q[0] = x1h

    rate = float(np.mean(contained))
    return {
        "runs": runs,
        "seed": seed,
        "boundary": boundary,
        "containment_rate": rate,
        "worst_q": float(np.max(per_run_worst)),
        "min_margin": float(1.0 - np.max(per_run_worst)),
        "eps1_violations": int(eps1_violations),
        "eps1_margin": float(eps1_margin),
        "per_run_worst_q": [float(v) for v in per_run_worst],
    }


def _nominal_gain(nominal: RunResult, design: DesignArtifacts,
                  k: int) -> np.ndarray:
    """Reconstruct the measurement gain used at step k of the nominal run."""
    dec = design.dec
    beta = float(nominal.betas[k - 1])
    P_pred = nominal.pred_shapes[k - 1]
    Gk = nominal.Gk_seq[k - 1]
    S = symmetrize(dec.C2 @ P_pred @ dec.C2.T / (1.0 - beta) + Gk / beta)
    return P_pred @ dec.C2.T @ np.linalg.inv(S) / (1.0 - beta)


# -- emission --------------------------------------------------------------

def _fmt(v: float) -> str:
    return repr(float(v))


def trace_header(n: int) -> list:
    cols = ["t"]
    cols += [f"x_true{i}" for i in range(n)]
    cols += [f"xhat{i}" for i in range(n)]
    cols += [f"lo{i}" for i in range(n)]
    cols += [f"hi{i}" for i in range(n)]
    cols += ["trP", "vol", "eps1", "alpha", "beta", "gamma", "mu",
             "contained", "skipped"]
    return cols


def emit_traces(traces: list, path) -> None:
    """Fixed-layout CSV; float formatting is shortest-round-trip, so equal
    runs produce byte-identical files."""
    n = traces[0].x_true.shape[0] if traces else 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(trace_header(n))
        for row in traces:
            writer.writerow(
                [_fmt(row.t)]
                + [_fmt(v) for v in row.x_true]
                + [_fmt(v) for v in row.xhat]
                + [_fmt(v) for v in row.lo]
                + [_fmt(v) for v in row.hi]
                + [_fmt(row.trP), _fmt(row.vol), _fmt(row.eps1),
                   _fmt(row.alpha), _fmt(row.beta), _fmt(row.gamma),
                   _fmt(row.mu),
                   str(int(row.contained)), str(int(row.skipped))])


def parse_traces(path) -> list:
    """Inverse of :func:`emit_traces`."""
    out = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        n = sum(1 for c in header if c.startswith("x_true"))
        for rec in reader:
            vals = rec
            i = 1
            x_true = np.array([float(v) for v in vals[i:i + n]]); i += n
            xhat = np.array([float(v) for v in vals[i:i + n]]); i += n
            lo = np.array([float(v) for v in vals[i:i + n]]); i += n
            hi = np.array([float(v) for v in vals[i:i + n]]); i += n
            trP, vol, eps1, alpha, beta, gamma, mu = (
                float(v) for v in vals[i:i + 7])
            out.append(TraceRow(
                t=float(vals[0]), x_true=x_true, xhat=xhat, lo=lo, hi=hi,
                trP=trP, vol=vol, eps1=eps1, alpha=alpha, beta=beta,
                gamma=gamma, mu=mu,
                contained=bool(int(vals[i + 7])),
                skipped=bool(int(vals[i + 8]))))
    return out


def emit_plot_data(run: RunResult, out_dir, ellipse_axes: tuple | None = None,
                   ellipse_points: int = 50) -> list:
    """Per-figure CSV series: volume curve, per-axis bound bands, and
    (optionally) projected ellipse polylines for a chosen coordinate pair."""
    import os
    written = []
    n = run.traces[0].x_true.shape[0]

    path = os.path.join(out_dir, "plot_volume.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "vol", "trP"])
        for row in run.traces:
            w.writerow([_fmt(row.t), _fmt(row.vol), _fmt(row.trP)])
    written.append(path)

    path = os.path.join(out_dir, "plot_bounds.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        head = ["t"]
        for i in range(n):
            head += [f"x{i}", f"lo{i}", f"hi{i}"]
        w.writerow(head)
        for row in run.traces:
            rec = [_fmt(row.t)]
            for i in range(n):
                rec += [_fmt(row.x_true[i]), _fmt(row.lo[i]), _fmt(row.hi[i])]
            w.writerow(rec)
    written.append(path)

    if ellipse_axes is not None:
        i, j = ellipse_axes
        path = os.path.join(out_dir, f"plot_ellipses_x{i}x{j}.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "px", "py"])
            for row, fu in zip(run.traces, run.fused):
                K = fu.ellipsoid.shape
                sub = Ellipsoid(
                    np.array([fu.ellipsoid.center[i], fu.ellipsoid.center[j]]),
                    np.array([[K[i, i], K[i, j]], [K[j, i], K[j, j]]]))
                for p in sub.boundary_points(ellipse_points):
                    w.writerow([_fmt(row.t), _fmt(p[0]), _fmt(p[1])])
        written.append(path)
    return written
