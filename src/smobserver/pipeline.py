"""End-to-end observer pipeline: the estimator (derivative bank +
unknown-input observer + weak-block observer + fusion), certificate
evaluation, Monte Carlo containment suites, and trace emission.

Every shape quantity of the estimator (error envelopes, predicted and
updated shape matrices, gains, mixing weights, the fused shape) depends on
the system only; the realized input and initial state reach the centers
alone.  :func:`shape_schedule` runs the shape recursion once and checks
every weak-block shape once; :func:`estimate` is the one center pass, which
reads its shapes from that schedule and advances the centers of a whole
batch of runs.  The plant, the derivative bank and the unknown-input
observer form one linear time-invariant system, lifted once to the
quadrature grid (:class:`CenterLift`).  A single run
(:func:`run_algorithm1`) is the pass with one column; a Monte Carlo sweep
(:func:`monte_carlo_containment`) is the pass with one column per run.  The
certificate reads the schedule alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.recfunctions import structured_to_unstructured

from .certificates import (AssumptionConstants, CertificateReport, certify)
from .decomposition import (Decomposition, LtiSystem, build_decomposition,
                            select_derivative_order)
from .ellipsoid import (MEMBERSHIP_SLACK, Ellipsoid, axis_bounds,
                        boundary_polylines, inverse_factors, quadratic_forms,
                        volume)
from .errors import InvalidDesignError, InvalidParameterError
from .fusion import fuse
from .generators import SignalGenerator, SineBank
from .hgo import HgoConfig, _discretization, decay_constants, design_hgo
from .numerics import expm, spectral_norm, symmetrize, zoh
from .scenario import (ScenarioConfig, default_zbar0, input_bounds,
                       input_norm_bound, y_derivative_bound)
from .uio import (Epsilon1Evaluator, ErrorBoundParams, UioDesign,
                  solve_uio_gain)
from .weak import (build_Ku, center_drive, check_shape,
                   gamma_terms, gk_matrix, measurement_update, optimize_beta,
                   predict_shape, propagate, quad_kernels,
                   update_information, update_is_informative)


# -- plant simulation ------------------------------------------------------

def rk4_recurrence(A: np.ndarray, B: np.ndarray, h: float
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Classical fourth-order step for dx = Ax + Bw as a linear recurrence.

    x+ = R x + W1 w(t) + W2 w(t + h/2) + W3 w(t + h).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    A2 = A @ A
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
    an array of stacked input samples.  The estimator advances its plant
    states by the lifted recurrence of :class:`CenterLift`; this
    node-by-node loop is the reference it is tested against.
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


# -- lifted center recurrence ----------------------------------------------

@dataclass(frozen=True)
class CenterLift:
    """The plant, the derivative bank and the unknown-input observer as one
    linear recurrence, lifted to the quadrature grid.

    Over one fine step h the augmented state s = [x; vec(Z); x1hat] (the
    bank state Z stacked derivative-order major, as ``assemble_z_hat``
    does) advances as

        s+ = M s + G0 w(t) + Gh w(t + h/2) + G1 w(t + h),

    with the plant's RK4 recurrence and the exact ZOH steps of the bank and
    of the observer: ``step_hgo`` and ``step_uio`` read the bank state and
    the output at the start of the step.  Over one quad stride of p fine
    steps this lifts to

        s(t + p h) = Mp s(t) + W u,

    where Mp = M^p and u stacks the p + 1 node samples of w, then its p
    half-node samples.  Over a whole sample interval of n_q strides the
    states at the stride ends are

        s(t + (q + 1) p h) = Mp^{q+1} s(t) + F_q,    q = 0..n_q - 1,

    the free response Phi s(t), Phi = [Mp; Mp^2; ..; Mp^{n_q}], plus the
    input's forced response F_q = sum_{j <= q} Mp^{q-j} W u_j.  Only the
    states at the sample times depend on each other, s(t_k) = Mp^{n_q}
    s(t_{k-1}) + F_{n_q - 1}: :func:`estimate` advances a chunk of sample
    intervals by that recurrence alone, then takes the chunk's other quad
    nodes in one product with Phi.  For a sine bank whose interval table
    fits :data:`FOLD_BUDGET`, F comes from that table; otherwise the pass
    steps stride by stride through Mp.
    """

    Mp: np.ndarray       # (ds, ds)
    Phi: np.ndarray      # (n_q ds, ds): Mp, Mp^2, .., Mp^{n_q} stacked
    W: np.ndarray        # (ds, (2p + 1) n_w)
    n_x: int
    n_z: int             # (l + 1) n_y bank states
    stride: int          # p fine steps per quad stride
    n_q: int             # quad strides per sample interval

    @property
    def x1(self) -> slice:
        return slice(self.n_x + self.n_z, None)


def build_center_lift(sys: LtiSystem, hgo_cfg: HgoConfig, uio: UioDesign,
                      h: float, stride: int, n_q: int) -> CenterLift:
    """Lift the fine-step recurrence of :class:`CenterLift` to ``stride``
    fine steps, for ``n_q`` strides per sample interval."""
    n, n_y, n_w = sys.n_x, sys.n_y, sys.n_w
    R, W1, W2, W3 = rk4_recurrence(sys.A, sys.B, h)
    Ad, Bd = _discretization(hgo_cfg.l, hgo_cfg.eps, hgo_cfg.theta, float(h))
    Ed, Fd = zoh(uio.E, uio.F, h)
    n_z = Ad.shape[0] * n_y
    ds = n + n_z + Ed.shape[0]
    z, x1 = slice(n, n + n_z), slice(n + n_z, ds)
    Bz = np.kron(Bd, np.eye(n_y))          # output -> vec(Z)
    M = np.zeros((ds, ds))
    M[:n, :n] = R
    M[z, :n] = Bz @ sys.C
    M[z, z] = np.kron(Ad, np.eye(n_y))
    M[x1, z] = Fd
    M[x1, x1] = Ed
    G0, Gh, G1 = (np.zeros((ds, n_w)) for _ in range(3))
    G0[:n], G0[z] = W1, Bz @ sys.D
    Gh[:n] = W2
    G1[:n] = W3
    powers = [np.eye(ds)]
    for _ in range(stride):
        powers.append(M @ powers[-1])
    nodes = np.zeros((stride + 1, ds, n_w))
    half = np.empty((stride, ds, n_w))
    for m in range(stride):
        P = powers[stride - 1 - m]
        nodes[m] += P @ G0
        nodes[m + 1] += P @ G1
        half[m] = P @ Gh
    W = np.concatenate([nodes, half]).transpose(1, 0, 2).reshape(ds, -1)
    Mp = powers[stride]
    Phi = [Mp]
    for _ in range(n_q - 1):
        Phi.append(Mp @ Phi[-1])
    return CenterLift(Mp=Mp, Phi=np.concatenate(Phi), W=W, n_x=n, n_z=n_z,
                      stride=stride, n_q=n_q)


# -- per-scenario design ---------------------------------------------------

@dataclass
class DesignArtifacts:
    """Run-independent synthesis products shared across Monte Carlo runs."""

    cfg: ScenarioConfig
    dec: Decomposition
    uio: UioDesign
    hgo_cfg: HgoConfig
    err: ErrorBoundParams
    eps1_ts: np.ndarray      # quad grid over [0, horizon]
    eps1_grid: np.ndarray    # eps1 at those times
    eps1_lo: float
    eps1_hi: float
    y_deriv_bound: float
    lift: CenterLift


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
    l = order_rep.l if cfg.hgo.l_override is None else cfg.hgo.l_override
    poles = cfg.uio_poles if cfg.uio_poles else _default_poles(dec.n1)
    uio = solve_uio_gain(dec.A1, dec.C1, dec.B1p, dec.D1p, l, poles,
                         order_rep.pair if l == order_rep.l else None)
    hgo_cfg = design_hgo(l, cfg.hgo.eps, cfg.hgo.pole, n_y=sys.n_y)
    K, a = decay_constants(hgo_cfg)
    ybound = cfg.hgo.y_deriv_bound
    if ybound is None:
        ybound = y_derivative_bound(cfg, l)
    if not np.isfinite(ybound):
        raise InvalidDesignError(f"the output derivative bound is {ybound}")
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
    if not eps1_hi < np.sqrt(np.finfo(float).max):  # eps1^2 must be finite
        raise InvalidDesignError(f"the eps1 envelope reaches {eps1_hi:.3g}, "
                                 "whose square overflows")
    stride = cfg.n_fine // cfg.quad_substeps
    return DesignArtifacts(
        cfg=cfg, dec=dec, uio=uio, hgo_cfg=hgo_cfg, err=err,
        eps1_ts=eps1_ts, eps1_grid=eps1_grid,
        eps1_lo=eps1_lo, eps1_hi=eps1_hi, y_deriv_bound=ybound,
        lift=build_center_lift(sys, hgo_cfg, uio, cfg.h_fine, stride,
                               cfg.quad_substeps))


# -- traces ----------------------------------------------------------------

def trace_dtype(n: int) -> np.dtype:
    """One sample of a run of an n-state plant, one field per ``traces.csv``
    column in file order: time, true state, fused center, per-axis bounds,
    the shape diagnostics, then the containment and update-skip flags."""
    vec = (float, (n,))
    return np.dtype(
        [("t", float), ("x_true", *vec), ("xhat", *vec), ("lo", *vec),
         ("hi", *vec)]
        + [(name, float) for name in ("trP", "vol", "eps1", "alpha", "beta",
                                      "gamma", "mu")]
        + [("contained", bool), ("skipped", bool)])


@dataclass
class RunResult:
    """Everything a single pipeline execution produces.

    ``traces`` is one record with a row per sample time t_k and the fields
    of :func:`trace_dtype`: ``traces.trP`` is a column, ``traces[k].xhat``
    the fused center of step k.  ``weak_states`` is the weak block's record
    on the same rows, with fields ``x2hat`` (n2,) and ``P2hat`` (n2, n2).
    Every other shape-side quantity is in ``schedule``.
    """

    traces: np.recarray
    report: CertificateReport | None
    weak_states: np.recarray
    schedule: ShapeSchedule
    step_log: list
    eps1_ok: bool
    containment_ok: bool
    eps1_margin: float   # min over checks of eps1 - ||e1||
    worst_q: float       # max over steps of the fused quadratic form

    @property
    def ok(self) -> bool:
        return self.eps1_ok and self.containment_ok

    @property
    def alphas(self) -> np.ndarray:
        """alpha_k for k = 1..n_steps."""
        return self.schedule.alpha[1:]


# -- the shape schedule ----------------------------------------------------

@dataclass(frozen=True)
class ShapeSchedule:
    """Every shape-side quantity of the estimator; entry k of each array
    belongs to sample time t_k, k = 0..n_steps.  Where no gain, weight or
    update gate ran (k = 0, or an empty weak block) the entries are nan
    and ``skipped``.  ``P1inv``, the step's
    :func:`~smobserver.weak.quad_kernels` and ``inv_factor`` serve the
    centers."""

    eps1: np.ndarray       # (N+1,)
    gamma: np.ndarray      # (N+1,)
    alpha: np.ndarray      # (N+1,)
    beta: np.ndarray       # (N+1,), 0 where the update was skipped
    skipped: np.ndarray    # (N+1,) bool
    P2_pred: np.ndarray    # (N+1, n2, n2) predicted weak-block shape
    P2: np.ndarray         # (N+1, n2, n2) updated, or predicted if skipped
    Gk: np.ndarray         # (N+1, n_y, n_y)
    O: np.ndarray          # (N+1, n2, n_y) update gain, 0 where skipped
    mu: np.ndarray         # (N+1,) fusion gain
    shape: np.ndarray      # (N+1, n, n) fused full-state shape
    inv_factor: np.ndarray  # (N+1, n, n) inverse_factors of ``shape``
    P1inv: np.ndarray      # (n, n)
    kernels: np.ndarray    # (n_q + 1, n2, n2)


def shape_schedule(design: DesignArtifacts) -> ShapeSchedule:
    """Run the shape recursion of the estimator once over the horizon, in
    three phases.  First, for all steps at once, what depends on eps1 and
    K_w alone: the stacking gains, M2k, G_k, the update gate and, where the
    update runs, the information C2^T G_k^{-1} C2.  Then the recursion
    proper, per step: alpha_k and the predicted shape, then the update or
    its skip.  Last, the fused shapes and their inverse factors, in one
    batch.  :func:`~smobserver.weak.check_shape` checks each weak-block
    shape once, and ``inverse_factors`` every fused one."""
    cfg, dec = design.cfg, design.dec
    n1, n2, n_q, N = dec.n1, dec.n2, cfg.quad_substeps, cfg.n_steps
    n_y = dec.system.n_y
    eps1 = design.eps1_grid[::n_q]
    gamma, alpha, beta = (np.full(N + 1, np.nan) for _ in range(3))
    skipped = np.ones(N + 1, dtype=bool)
    Gk = np.full((N + 1, n_y, n_y), np.nan)
    O = np.zeros((N + 1, n2, n_y))
    P1inv = np.linalg.inv(dec.P1)
    kernels = quad_kernels(dec.A4, cfg.dt / n_q, n_q)

    # t = 0: split the initial ellipsoid through the coordinate change
    P2 = symmetrize(dec.P1 @ cfg.K0 @ dec.P1.T)[n1:, n1:]
    check_shape(P2)
    P2_pred, P2s = np.empty((2, N + 1, n2, n2))
    P2_pred[:], P2s[:] = P2, P2
    if n2:
        Kw_q = cfg.Kw(design.eps1_ts)
        Kw_k = Kw_q[n_q::n_q]          # K_w at t_1 .. t_N
        gain = gamma_terms(Kw_k, eps1[1:], n1)
        gamma[1:], beta[1:] = gain[0], 0.0
        nodes = n_q * np.arange(N)[:, None] + np.arange(n_q + 1)
        M2k = propagate(dec, design.eps1_grid[nodes], Kw_q[nodes], cfg.dt,
                        gain, kernels)
        Gk[1:] = gk_matrix(dec, build_Ku(gain, eps1[1:], Kw_k, n1))
        informative = update_is_informative(dec, Gk[1:])
        info = np.zeros((N, n2, n2))
        info[informative] = update_information(dec.C2, Gk[1:][informative])
        Ed = expm(dec.A4 * cfg.dt)
        for k in range(1, N + 1):
            P2, alpha[k] = predict_shape(P2, M2k[k - 1], cfg.dt, kernels, Ed)
            P2_pred[k] = P2
            factor = check_shape(P2)
            if informative[k - 1]:
                beta[k] = optimize_beta(factor, info[k - 1])
                P2, O[k] = measurement_update(P2_pred[k], dec.C2, beta[k],
                                              Gk[k])
                check_shape(P2)
                skipped[k] = False
            P2s[k] = P2
    shape, mu = fuse(eps1, P2s, P1inv)
    return ShapeSchedule(
        eps1=eps1, gamma=gamma, alpha=alpha, beta=beta, skipped=skipped,
        P2_pred=P2_pred, P2=P2s, Gk=Gk, O=O, mu=mu, shape=shape,
        inv_factor=inverse_factors(shape), P1inv=P1inv, kernels=kernels)


# -- the estimator loop ----------------------------------------------------

#: how far ||x1 - x1hat|| may exceed eps1 before the envelope counts as broken
EPS1_SLACK = 1e-9


@dataclass
class EstimateChunk:
    """Steps ``k`` (a slice) of :func:`estimate`: the centers of each run,
    each with a leading step axis of length b.  The shapes of step k are
    entry k of the :class:`ShapeSchedule`."""

    k: slice
    x: np.ndarray            # (b, n, runs) plant state at t_k
    y: np.ndarray            # (b, n_y, runs) output at t_k
    #: (b, n_q + 1, n1, runs) observer on the quad nodes of [t_{k-1}, t_k];
    #: (1, 1, n1, runs) at k = 0
    x1hat_q: np.ndarray
    #: (b, n_q, runs) eps1 - ||x1 - x1hat|| on the quad nodes after t_{k-1};
    #: (1, 0, runs) at k = 0
    eps1_gap: np.ndarray
    x2hat: np.ndarray        # (b, n2, runs) weak-block center after the update
    xhat: np.ndarray         # (b, n, runs) fused center
    q: np.ndarray            # (b, runs) fused quadratic form of x


#: byte budget of the center pass.  It is the largest interval table that
#: :func:`_fold_bank` folds: per chunk the folded drive reads the whole
#: table once, so a large one is memory-bound and the stride loop is faster
#: (crossover measured on example1, one BLAS thread: see CHANGES.md).  It
#: also sizes the chunks of :func:`estimate`: as many sample intervals as
#: keep the states of all runs on the chunk's quad nodes within it.
FOLD_BUDGET = 1 << 20


def _fold_bank(lift: CenterLift, bank: SineBank, h: float
               ) -> tuple[np.ndarray, np.ndarray | None]:
    """The input table of a sine bank, built once per :func:`estimate`.

    Every quad stride samples its input at the same 2p + 1 offsets tau from
    its anchor a: the p + 1 nodes, then the p half-nodes.  With c + i s =
    e^{i (w a + p)}, sin(w (a + tau) + p) = c sin(w tau) + s cos(w tau), so
    the stride's lifted drive W u is Z [c; s] with
    Z = sum_tau W_tau [g sin(w tau) | g cos(w tau)]; the anchor of stride q
    is the interval's anchor e turned by rot_q = e^{i w q p h}.  Since rot_q
    is geometric, the interval's forced response at the stride ends,
    F_q = sum_{j <= q} Mp^{q-j} Z [e rot_j], is linear in e too: F = Y e
    with Y_q = Mp Y_{q-1} + rot_q Z.

    Returns (Y, None), Y (runs, 2 terms, n_q ds), when Y fits
    :data:`FOLD_BUDGET`; else the stride table (Z, rot), Z (runs, 2 terms,
    ds) and rot (runs, n_q, terms).  Each term's pair of rows is adjacent
    as in the float view of a complex array.
    """
    n_q, stride = lift.n_q, lift.stride
    tau = h * np.concatenate([np.arange(stride + 1), np.arange(stride) + 0.5])
    freqs = np.ascontiguousarray(bank.freqs.T)           # (runs, terms)
    rot = np.exp(1j * freqs * tau[:, None, None])        # (2p+1, runs, terms)
    samples = (bank.gains.transpose(0, 2, 1)[None, :, :, :, None]
               * np.stack([rot.imag, rot.real], axis=-1)[:, None])
    runs, terms = freqs.shape
    Z = lift.W @ samples.reshape(lift.W.shape[1], 2 * runs * terms)
    Z = np.ascontiguousarray(Z.reshape(len(Z), runs, 2 * terms)
                             .transpose(1, 2, 0))
    rot = np.exp(1j * (stride * h * np.arange(n_q))[:, None]
                 * freqs[:, None, :])
    if Z.nbytes * n_q > FOLD_BUDGET:
        return Z, rot
    # the complex row Zc = Z_re - i Z_im gives Z [c; s] = Re(Zc (c + i s))
    Zc = Z[:, 0::2] - 1j * Z[:, 1::2]                    # (runs, terms, ds)
    Y = np.empty((runs, terms, 2, n_q, Z.shape[-1]))
    Yq = Zc
    for q in range(n_q):
        if q:
            Yq = Yq @ lift.Mp.T + rot[:, q, :, None] * Zc
        Y[:, :, 0, q], Y[:, :, 1, q] = Yq.real, -Yq.imag
    return Y.reshape(runs, 2 * terms, n_q * Z.shape[-1]), None


def _chunks(n_steps: int, steps: int):
    """(k0, b): the chunks of ``steps`` sample intervals that cover
    [t_0, t_{n_steps}], the last one possibly shorter."""
    for k0 in range(0, n_steps, steps):
        yield k0, min(steps, n_steps - k0)


def _bank_drive(design: DesignArtifacts, bank: SineBank, table: np.ndarray,
                rot: np.ndarray | None, steps: int):
    """(U, w) per chunk of :func:`_chunks`, from the exact anchors
    e^{i (w t_k + p)} of the sample times k0..k0 + b.  w (b + 1, runs, n_w)
    samples the bank at those times.  With the interval table of
    :func:`_fold_bank`, U (runs, b, n_q, ds) is each interval's forced
    response at its stride ends (see :class:`CenterLift`), one product
    with the anchors.  With the stride table, U (n_q, b, runs, ds) is the
    lifted drive of each quad stride: the anchors turned to the stride
    anchors by the rotations, multiplied by Z.  U is a view of one buffer,
    which the next chunk overwrites."""
    cfg, lift = design.cfg, design.lift
    h, n_fine, n_q, ds = cfg.h_fine, cfg.n_fine, lift.n_q, lift.Mp.shape[0]
    terms, runs = bank.freqs.shape
    buf = np.empty(runs * steps * n_q * ds)
    if rot is not None:
        coef = np.empty((runs, n_q, steps, terms), dtype=complex)
    e = np.exp(1j * bank.phases)[None]                    # t = 0
    for k0, b in _chunks(cfg.n_steps, steps):
        t = h * (n_fine * np.arange(k0 + 1, k0 + b + 1))
        e = np.concatenate([e[-1:], np.exp(1j * (bank.freqs * t[:, None, None]
                                                 + bank.phases))])
        anchors = e[:b].transpose(2, 0, 1)                # (runs, b, terms)
        if rot is None:
            U = buf[:runs * b * n_q * ds].reshape(runs, b, n_q, ds)
            np.matmul(np.ascontiguousarray(anchors).view(float), table,
                      out=U.reshape(runs, b, -1))
        else:
            U = buf[:runs * b * n_q * ds].reshape(n_q, b, runs, ds)
            turned = np.multiply(anchors[:, None], rot[:, :, None],
                                 out=coef[:, :, :b])
            np.matmul(turned.view(float).reshape(runs, n_q * b, -1), table,
                      out=U.reshape(n_q * b, runs, ds).transpose(1, 0, 2))
        yield U, np.einsum("ajr,bjr->bra", bank.gains, e.imag)


def _sampled_drive(design: DesignArtifacts, w_family, steps: int, runs: int):
    """What :func:`_bank_drive` yields with its stride table, for a
    callable of times: each chunk's samples on its fine nodes and
    half-nodes, from one call, gathered per quad stride and multiplied by
    the lifted map."""
    cfg, lift = design.cfg, design.lift
    n_fine, h, p, n_q = cfg.n_fine, cfg.h_fine, lift.stride, lift.n_q
    ds = lift.Mp.shape[0]
    buf = np.empty(runs * steps * n_q * ds)
    for k0, b in _chunks(cfg.n_steps, steps):
        nodes = h * (k0 * n_fine + np.arange(b * n_fine + 1))
        w = np.asarray(w_family(np.concatenate([nodes, nodes[:-1] + 0.5 * h])))
        # stride q of interval j starts at fine node (j n_q + q) p
        first = p * (n_q * np.arange(b) + np.arange(n_q)[:, None])[..., None]
        gather = np.concatenate([first + np.arange(p + 1),
                                 nodes.size + first + np.arange(p)], axis=-1)
        U = buf[:runs * b * n_q * ds].reshape(n_q, b, runs, ds)
        u = w[gather].transpose(0, 1, 4, 2, 3)    # (n_q, b, runs, 2p+1, n_w)
        np.matmul(u.reshape(n_q * b * runs, -1), lift.W.T,
                  out=U.reshape(-1, ds))
        yield U, w[:nodes.size:n_fine].transpose(0, 2, 1)


def estimate(design: DesignArtifacts, X0: np.ndarray, w_family,
             schedule: ShapeSchedule, log: list | None = None):
    """Run the estimator on a batch of runs, yielding one
    :class:`EstimateChunk` for k = 0, then one per chunk of sample
    intervals up to k = n_steps.

    ``X0`` (n x runs) holds the initial states.  ``w_family`` is the input
    of each run: a :class:`~smobserver.generators.SineBank` with one column
    per run, whose lifted drive is folded once (:func:`_fold_bank`), or any
    callable mapping an array of times to (len, n_w, runs) samples, called
    once per chunk on its fine nodes followed by its half-nodes.
    ``schedule`` is :func:`shape_schedule` of ``design``.  Every run starts
    the observer at the split of ``xhat0`` and the bank at its output at
    t = 0.  A chunk holds as many sample intervals as keep the lifted states
    of all runs on its quad nodes within :data:`FOLD_BUDGET`; its buffers
    are allocated once per call.

    The pass only advances centers.  Per chunk it advances the continuous
    blocks (plant, derivative bank, unknown-input observer) by the lifted
    map of :class:`CenterLift`: for a folded bank, a loop of one product
    with Mp^{n_q} per interval takes the states at the sample times, then
    one product with Phi plus the forced responses takes every other quad
    node; for a bank over :data:`FOLD_BUDGET` and for a callable, a loop of
    one product with Mp per quad stride.  The rest is taken for the whole
    chunk at once: the outputs, the eps1 gaps, the x2 block's quadrature
    drive and innovation terms, the fused centers and each run's quadratic
    form; only the x2 recursion (e^{A4 dt} and, on update steps, O_k times
    the innovation) stays a loop over the chunk's steps.  ``log`` receives
    the stage names of each step in the order of the published pseudocode
    (select the stacking gain, propagate, gate the update, update or skip,
    fuse).
    """
    cfg, dec, lift = design.cfg, design.dec, design.lift
    sys, n, x1, n1, n2 = dec.system, lift.n_x, lift.x1, dec.n1, dec.n2
    n_q, N, ds = lift.n_q, cfg.n_steps, lift.Mp.shape[0]
    X0 = np.asarray(X0, dtype=float)
    runs = X0.shape[1]
    stack = (n_q + 1) * ds * max(runs, 1) * 8    # bytes per interval
    steps = int(max(1, min(N, FOLD_BUDGET // stack)))
    if isinstance(w_family, SineBank):
        table, rot = _fold_bank(lift, w_family, cfg.h_fine)
        folded = rot is None
        drive = _bank_drive(design, w_family, table, rot, steps)
    else:
        folded, drive = False, _sampled_drive(design, w_family, steps, runs)
    # (n_q, N) eps1 on the quad nodes after the start of each interval
    eps1_q = design.eps1_grid[1:N * n_q + 1].reshape(N, n_q).T[:, :, None]
    P1invT = schedule.P1inv.T
    T1 = dec.P1[:n1]                    # x1 = T1 x
    MpT = np.ascontiguousarray(lift.Mp.T)
    PhiT = lift.Phi.reshape(n_q, ds, ds).transpose(0, 2, 1)
    MpnT = np.ascontiguousarray(PhiT[-1])
    if n2:
        # x2's quadrature drive from x1hat on an interval's quad nodes; the
        # drive of c_w and the update's feedthrough of it are the same in
        # every run: take them for all N steps at once
        Dq = center_drive(dec.B2p, cfg.dt, schedule.kernels)
        D0, Dn = Dq[0, :, :n1].T, Dq[1:, :, :n1].transpose(0, 2, 1)
        cw_q = cfg.cw(design.eps1_ts)[n_q * np.arange(N)[:, None]
                                      + np.arange(n_q + 1)]
        cw_drive = (cw_q.reshape(N, -1) @ Dq[:, :, n1:].transpose(0, 2, 1)
                    .reshape(-1, n2))[:, None]
        cw_feed = (cw_q[:, -1] @ dec.D2p[:, n1:].T)[:, None]
        K0T, C2T, D2T = schedule.kernels[0].T, dec.C2.T, dec.D2p[:, :n1].T
        OT = schedule.O.transpose(0, 2, 1)
    stages = ["continuous"] + (["gamma", "propagate", "gate"] if n2 else [])
    stages = (stages + ["fuse"], stages + ["update", "fuse"])

    if log is not None:
        log += ["setup", "fuse"]
    s = np.zeros((runs, ds))
    s[:, :n] = X0.T
    xp0 = dec.P1 @ cfg.xhat0
    s[:, x1] = xp0[:n1]
    x2 = np.tile(xp0[n1:], (runs, 1))
    U, w = next(drive)
    s[:, n:n + sys.n_y] = X0.T @ sys.C.T + w[0] @ sys.D.T
    xhat = np.concatenate([s[:, x1], x2], axis=1) @ P1invT
    yield EstimateChunk(
        k=slice(0, 1), x=X0[None].copy(), y=s[:, n:n + sys.n_y].T[None].copy(),
        x1hat_q=s[:, x1].T[None, None].copy(), eps1_gap=np.empty((1, 0, runs)),
        x2hat=x2.T[None].copy(), xhat=xhat.T[None],
        q=quadratic_forms(schedule.inv_factor[0], X0, xhat.T)[None])

    chain_buf = np.empty((steps + 1) * runs * ds)
    node_buf = np.empty(n_q * steps * runs * ds if folded else 0)
    tmp = np.empty((runs, ds))
    for k0, b in _chunks(N, steps):
        if k0:
            U, w = next(drive)
        # chain: the states at t_{k0} .. t_{k0+b}; S: every quad node of the
        # chunk's intervals after their start, so S[-1] = chain[1:]
        chain = chain_buf[:(b + 1) * runs * ds].reshape(b + 1, runs, ds)
        chain[0] = s
        if folded:
            S = node_buf[:n_q * b * runs * ds].reshape(n_q, b, runs, ds)
            for j in range(b):
                np.matmul(chain[j], MpnT, out=tmp)
                np.add(tmp, U[:, j, -1], out=chain[j + 1])
            np.matmul(chain[:b].reshape(-1, ds), PhiT[:-1],
                      out=S[:-1].reshape(n_q - 1, -1, ds))
            S[:-1] += U.transpose(2, 1, 0, 3)[:-1]
            S[-1] = chain[1:]
        else:   # each stride's drive turns into its end state in place
            S, prev = U, s
            for j in range(b):
                for q in range(n_q):
                    np.matmul(prev, MpT, out=tmp)
                    prev = S[q, j]
                    prev += tmp
            chain[1:] = S[-1]
        s = chain[b].copy()

        nodes, ends = S.reshape(-1, ds), S[-1].reshape(-1, ds)
        x, x1hat = ends[:, :n], ends[:, x1]
        y = ((x @ sys.C.T).reshape(b, runs, -1)
             + (w.reshape(-1, w.shape[-1]) @ sys.D.T).reshape(b + 1, runs, -1)
             [1:])
        err = T1 @ nodes[:, :n].T
        err -= nodes[:, x1].T
        err = np.sqrt(np.einsum("ij,ij->j", err, err))
        gap = eps1_q[:, k0:k0 + b] - err.reshape(n_q, b, runs)
        X2 = np.empty((b, runs, n2))
        if n2:
            pre = (np.einsum("qbri,qia->bra", S[..., x1], Dn)
                   + (chain[:b, :, x1].reshape(-1, n1) @ D0).reshape(b, runs,
                                                                     n2)
                   + cw_drive[k0:k0 + b])
            innov = (y - cw_feed[k0:k0 + b]
                     - (x1hat @ D2T).reshape(b, runs, -1))
            for j in range(b):
                x2 = x2 @ K0T + pre[j]
                if not schedule.skipped[k0 + 1 + j]:
                    x2 = x2 + (innov[j] - x2 @ C2T) @ OT[k0 + 1 + j]
                X2[j] = x2
        xhat = (np.concatenate([x1hat, X2.reshape(b * runs, n2)], axis=1)
                @ P1invT).reshape(b, runs, n).transpose(0, 2, 1)
        x = x.reshape(b, runs, n).transpose(0, 2, 1).copy()
        x1hat_q = np.empty((b, n_q + 1, n1, runs))
        x1hat_q[:, 0] = chain[:b, :, x1].transpose(0, 2, 1)
        x1hat_q[:, 1:] = S[..., x1].transpose(1, 0, 3, 2)
        if log is not None:
            for k in range(k0 + 1, k0 + b + 1):
                log += stages[not schedule.skipped[k]]
        yield EstimateChunk(
            k=slice(k0 + 1, k0 + b + 1), x=x, y=y.transpose(0, 2, 1),
            x1hat_q=x1hat_q, eps1_gap=gap.transpose(1, 0, 2),
            x2hat=X2.transpose(0, 2, 1), xhat=xhat,
            q=quadratic_forms(schedule.inv_factor[k0 + 1:k0 + b + 1], x,
                              xhat))


def run_algorithm1(cfg: ScenarioConfig, design: DesignArtifacts | None = None,
                   x0: np.ndarray | None = None, w_fn=None,
                   with_certificate: bool = True,
                   step_log: list | None = None) -> RunResult:
    """Execute the full estimation loop over the scenario horizon.

    The run is :func:`shape_schedule` and :func:`estimate` with one column:
    this function gathers the trace and weak-block records and adds the
    certificate.  ``w_fn`` is a :class:`~smobserver.generators.SignalGenerator`
    (``w_true`` by default), which the pass folds as a sine bank, or a
    callable mapping an array of times to (len, n_w) samples.  ``step_log``
    receives the stage names in the published order.
    """
    if design is None:
        design = build_design(cfg)
    if x0 is None:
        x0 = cfg.x0_true if cfg.x0_true is not None else cfg.xhat0
    w_fn = cfg.w_true if w_fn is None else w_fn
    x0 = np.asarray(x0, dtype=float).ravel()
    if isinstance(w_fn, SignalGenerator):
        w_one = w_fn.sine_bank()
    else:
        def w_one(ts):
            return np.asarray(w_fn(ts), dtype=float)[:, :, None]

    sched = shape_schedule(design)
    n2 = design.dec.n2
    traces = np.recarray(cfg.n_steps + 1, dtype=trace_dtype(x0.size))
    weak = np.recarray(len(traces), dtype=[("x2hat", float, (n2,)),
                                           ("P2hat", float, (n2, n2))])
    qs = np.empty(len(traces))
    eps1_margin = np.inf
    log = step_log if step_log is not None else []
    for chunk in estimate(design, x0[:, None], w_one, sched, log):
        traces.x_true[chunk.k] = chunk.x[:, :, 0]
        traces.xhat[chunk.k] = chunk.xhat[:, :, 0]
        weak.x2hat[chunk.k] = chunk.x2hat[:, :, 0]
        qs[chunk.k] = chunk.q[:, 0]
        eps1_margin = min(eps1_margin, np.min(chunk.eps1_gap, initial=np.inf))

    # the shape columns, one batch each
    traces.t = np.arange(len(traces)) * cfg.dt
    traces.lo, traces.hi = axis_bounds(traces.xhat, sched.shape)
    traces.trP = np.trace(sched.shape, axis1=-2, axis2=-1)
    traces.vol = volume(sched.shape)
    for name in ("eps1", "alpha", "beta", "gamma", "mu", "skipped"):
        traces[name] = getattr(sched, name)
    traces.contained = qs <= 1.0 + MEMBERSHIP_SLACK
    weak.P2hat = sched.P2

    report = certify_design(design, sched) if with_certificate else None
    return RunResult(
        traces=traces, report=report, weak_states=weak, schedule=sched,
        step_log=log, eps1_ok=bool(eps1_margin >= -EPS1_SLACK),
        containment_ok=bool(traces.contained.all()),
        eps1_margin=float(eps1_margin), worst_q=max(0.0, float(qs.max())))


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


def certify_design(design: DesignArtifacts,
                   schedule: ShapeSchedule) -> CertificateReport:
    """The certificate of ``design``, with harvested constants and the
    Grammian window taken from its shape schedule."""
    cfg = design.cfg
    const = assumption_constants(cfg, schedule.alpha[1:], schedule.beta[1:])
    P20_norm = spectral_norm(design.dec.P1 @ cfg.K0 @ design.dec.P1.T)
    r = cfg.cert.r if cfg.cert.r is not None else max(design.dec.n2, 1)
    return certify(design.dec, const, design.eps1_lo, design.eps1_hi,
                   cfg.dt, P20_norm, cfg.n_steps, Gk_seq=schedule.Gk[1:],
                   r=r, margin_scale=cfg.cert.margin_scale)


def certify_scenario(cfg: ScenarioConfig
                     ) -> tuple[CertificateReport, ShapeSchedule]:
    """Evaluate the certificate from the scenario's shape schedule, which
    also holds the realized weak-block shapes to cross-check it against;
    no center is simulated."""
    design = build_design(cfg)
    schedule = shape_schedule(design)
    return certify_design(design, schedule), schedule


# -- Monte Carlo -----------------------------------------------------------

def _sample_initial_states(rng: np.random.Generator, cfg: ScenarioConfig,
                           runs: int, boundary: bool) -> np.ndarray:
    ell = Ellipsoid(cfg.xhat0, cfg.K0)
    return ell.sample(rng, runs, boundary=boundary).T  # (n, runs)


def _draw_sines(rng: np.random.Generator, cfg: ScenarioConfig,
                runs: int) -> SineBank:
    """``mc_n_terms`` random sines a_j u_j sin(w_j t + p_j) per run: the
    amplitudes a_j sum to at most 1, the u_j are unit vectors and the
    frequencies w_j are at most ``mc_freq_max``."""
    T = cfg.mc_n_terms
    raw = rng.uniform(0.0, 1.0, size=(T, runs))
    total = rng.uniform(0.0, 1.0, size=(1, runs))
    amps = raw / np.sum(raw, axis=0, keepdims=True) * total
    units = rng.standard_normal((T, cfg.system.n_w, runs))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    freqs = rng.uniform(0.0, cfg.mc_freq_max, size=(T, runs))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(T, runs))
    return SineBank(gains=(amps[:, None, :] * units).swapaxes(0, 1),
                    freqs=freqs, phases=phases)


def _sample_input_family(rng: np.random.Generator, cfg: ScenarioConfig,
                         runs: int):
    """Random admissible inputs c_w + L(t) sum_j a_j u_j sin(w_j t + p_j),
    L(t) L(t)^T = K_w(t), one per run (:func:`_draw_sines`).  With a
    constant K_w the family is a :class:`~smobserver.generators.SineBank`
    (L = chol K_w); a diagonal K_w(t) scales each sample by the square roots
    of its entries, which is no sum of sines, so that family is a callable
    of times."""
    sines = _draw_sines(rng, cfg, runs)
    Kw = cfg.Kw
    if Kw.kind == "const":
        L = np.linalg.cholesky(Kw.matrix)
        return cfg.cw.sine_bank(runs) + SineBank(
            np.einsum("ab,bjr->ajr", L, sines.gains), sines.freqs,
            sines.phases)

    def family(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return (cfg.cw(ts)[:, :, None]
                + np.sqrt(Kw.entries(ts))[:, :, None] * sines(ts))
    return family


def monte_carlo_containment(cfg: ScenarioConfig, runs: int, seed: int,
                            boundary: bool = False,
                            x0s: np.ndarray | None = None,
                            w_family=None) -> dict:
    """Batched containment sweep over random admissible runs.

    The sweep is :func:`estimate` with one column per run: every shape,
    gain and weight comes from one :func:`shape_schedule` and is shared,
    and only the centers differ between columns.  It streams one chunk of
    sample intervals at a time, each within :data:`FOLD_BUDGET`, so memory
    does not grow with the horizon.

    ``x0s`` (n x runs) and ``w_family`` (a sine bank or a callable of times,
    as :func:`estimate` takes it) override the random draws with explicit
    batches.
    """
    if runs < 0:
        raise InvalidParameterError(f"runs must be nonnegative, got {runs}")
    if runs == 0:
        return {"runs": 0, "containment_rate": None, "worst_q": None,
                "eps1_violations": 0, "seed": seed,
                "per_run_worst_q": []}
    design = build_design(cfg)
    schedule = shape_schedule(design)
    rng = np.random.default_rng(seed)
    X = (_sample_initial_states(rng, cfg, runs, boundary)
         if x0s is None else np.asarray(x0s, dtype=float))   # (n, runs)
    family = (_sample_input_family(rng, cfg, runs)
              if w_family is None else w_family)

    per_run_worst = np.zeros(runs)
    contained = np.ones(runs, dtype=bool)
    eps1_violations = 0
    eps1_margin = np.inf
    for chunk in estimate(design, X, family, schedule):
        eps1_margin = min(eps1_margin, np.min(chunk.eps1_gap, initial=np.inf))
        eps1_violations += int(np.sum(chunk.eps1_gap < -EPS1_SLACK))
        worst = np.max(chunk.q, axis=0)
        per_run_worst = np.maximum(per_run_worst, worst)
        contained &= worst <= 1.0 + MEMBERSHIP_SLACK

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


# -- emission --------------------------------------------------------------

def _write_csv(path, header: list, values: np.ndarray,
               flags: np.ndarray | None = None) -> None:
    """A CSV file of ``header`` and one line per row of the float table
    ``values``, followed by that row of the integer table ``flags``.  Floats
    are written shortest-round-trip, so equal runs give byte-identical
    files; lines end in CRLF, as :mod:`csv` writes them."""
    rows = values.tolist()
    if flags is not None:
        for row, extra in zip(rows, flags.tolist()):
            row += extra
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def trace_header(n: int) -> list:
    """The ``traces.csv`` column names: one per scalar field of
    :func:`trace_dtype`, and name0 .. name{n-1} per vector field."""
    dtype = trace_dtype(n)
    cols = []
    for name in dtype.names:
        cols += ([f"{name}{i}" for i in range(n)] if dtype[name].shape
                 else [name])
    return cols


def emit_traces(traces: np.recarray, path) -> None:
    """``traces.csv``: every field of the :func:`trace_dtype` record
    ``traces`` in column order, the two flags as 0 or 1."""
    names = traces.dtype.names
    flags = [name for name in names if traces.dtype[name] == bool]
    floats = [name for name in names if name not in flags]
    _write_csv(path, trace_header(traces.dtype["x_true"].shape[0]),
               structured_to_unstructured(traces[floats], dtype=float),
               structured_to_unstructured(traces[flags], dtype=int))


def parse_traces(path) -> np.recarray:
    """Inverse of :func:`emit_traces`."""
    with open(path, encoding="utf-8") as fh:
        n = sum(c.startswith("x_true") for c in fh.readline().split(","))
    return np.loadtxt(path, dtype=trace_dtype(n), delimiter=",", skiprows=1,
                      ndmin=1, encoding="utf-8").view(np.recarray)


def emit_plot_data(run: RunResult, out_dir, ellipse_axes: tuple | None = None,
                   ellipse_points: int = 50) -> list:
    """Per-figure CSV series: volume curve, per-axis bound bands, and
    (optionally) projected ellipse polylines for a chosen coordinate pair."""
    import os
    tr = run.traces
    n = tr.dtype["x_true"].shape[0]
    written = [os.path.join(out_dir, name)
               for name in ("plot_volume.csv", "plot_bounds.csv")]
    _write_csv(written[0], ["t", "vol", "trP"],
               np.column_stack([tr.t, tr.vol, tr.trP]))
    bands = np.stack([tr.x_true, tr.lo, tr.hi], axis=-1).reshape(len(tr), -1)
    _write_csv(written[1], ["t"] + [f"{c}{i}" for i in range(n)
                                    for c in ("x", "lo", "hi")],
               np.column_stack([tr.t, bands]))
    if ellipse_axes is not None:
        ij = list(ellipse_axes)
        path = os.path.join(out_dir, "plot_ellipses_x{}x{}.csv".format(*ij))
        points = boundary_polylines(tr.xhat[:, ij],
                                    run.schedule.shape[:, ij][:, :, ij],
                                    ellipse_points)
        _write_csv(path, ["t", "px", "py"], np.column_stack(
            [np.repeat(tr.t, ellipse_points), points.reshape(-1, 2)]))
        written.append(path)
    return written
