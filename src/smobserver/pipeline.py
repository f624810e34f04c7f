"""End-to-end observer pipeline: the estimator (derivative bank +
unknown-input observer + weak-block observer + fusion), certificate
evaluation, Monte Carlo containment suites, and trace emission.

Every shape quantity of the estimator (error envelopes, predicted and
updated shape matrices, gains, mixing weights, the fused shape) depends on
the system only; the realized input and initial state reach the centers
alone.  :func:`shape_schedule` runs the shape recursion once, checks
every weak-block shape once and records each step's update gate once, in
``skipped``; :func:`estimate` is the one center pass, which reads its
shapes from that schedule and advances the centers of a whole batch of
runs.  The plant, the derivative bank, the unknown-input observer and the
weak block's predictor form one linear time-invariant system, lifted once
to the quadrature grid (:class:`CenterLift`).  A single run
(:func:`run_algorithm1`) is the pass with one column; a Monte Carlo sweep
(:func:`monte_carlo_containment`) is the pass with one column per run.
The certificate reads the schedule alone, its gate and information terms
C2^T G_k^{-1} C2 included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

from .certificates import (AssumptionConstants, CertificateReport, certify)
from .decomposition import (Decomposition, LtiSystem, build_decomposition,
                            select_derivative_order)
from .ellipsoid import (MEMBERSHIP_SLACK, Ellipsoid, axis_bounds,
                        boundary_polylines, inverse_factors, quadratic_forms,
                        volume)
from .errors import InvalidDesignError, InvalidParameterError
from .fusion import fuse
from .generators import SignalGenerator, SineBank
from .hgo import HgoConfig, decay_constants, design_hgo
from .numerics import quadratic_hold, spectral_norm, symmetrize
from .scenario import ScenarioConfig, input_norm_bound, y_derivative_bound
from .uio import (Epsilon1Evaluator, ErrorBoundParams, UioDesign,
                  solve_uio_gain)
from .weak import (build_Ku, check_shape, gamma_terms, gk_matrix, propagate,
                   quad_kernels, shape_recursion, update_information,
                   update_is_informative)


# -- plant simulation ------------------------------------------------------

def simulate_plant(sys: LtiSystem, x0: np.ndarray, w_fn, dt: float,
                   substeps: int, horizon: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The plant's trajectory on the grid of spacing dt/substeps.

    Returns (ts, xs) with xs[j] = x(ts[j]); w_fn maps an array of times to
    an array of stacked input samples.  Each step is exact for the input
    quadratic through its node, half-node and next-node samples
    (:func:`~smobserver.numerics.quadratic_hold`, as in :class:`CenterLift`).
    """
    if substeps < 1:
        raise InvalidParameterError("substeps must be >= 1")
    h = dt / substeps
    n_nodes = int(round(horizon / h))
    ts = h * np.arange(n_nodes + 1)
    Ad, G0, Gh, G1 = quadratic_hold(sys.A, sys.B, h)
    w_nodes = np.asarray(w_fn(ts), dtype=float)
    w_half = np.asarray(w_fn(ts[:-1] + 0.5 * h), dtype=float)
    xs = np.empty((n_nodes + 1, sys.n_x))
    xs[0] = np.asarray(x0, dtype=float).ravel()
    for j in range(n_nodes):
        xs[j + 1] = (Ad @ xs[j] + G0 @ w_nodes[j] + Gh @ w_half[j]
                     + G1 @ w_nodes[j + 1])
    return ts, xs


# -- lifted center recurrence ----------------------------------------------

@dataclass(frozen=True)
class CenterLift:
    """The continuous system of every center as one linear recurrence,
    lifted to the quadrature grid.

    The augmented state s = [x; vec(Z); x1hat; x2hat] (the bank state Z
    stacked derivative-order major, as ``assemble_z_hat`` does) obeys s' =
    A_s s + B_s w with A_s = [[A, 0, 0, 0], [B_z C, A_z (x) I, 0, 0],
    [0, F, E, 0], [0, 0, A2, A4]] and B_s = [B; B_z D; 0; 0]: the bank
    reads y = C x + D w, the observer reads the bank and x2hat reads x1hat
    as they evolve, so x1hat is the observer that eps1 bounds and x2hat
    integrates e^{A4 (t_k - tau)} A2 x1hat(tau) exactly.  Over one fine
    step h, for w quadratic through its samples at t, t + h/2 and t + h,
    its exact step (:func:`~smobserver.numerics.quadratic_hold`) is

        s+ = M s + G0 w(t) + Gh w(t + h/2) + G1 w(t + h).

    Over one quad stride of p fine steps this lifts to

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
    steps stride by stride through Mp.  ``Wc`` lifts ``quadratic_hold(A4,
    B2, h)`` likewise to a whole sample interval: x2hat(t_k) gains Wc u, u
    the p n_q + 1 node samples of the input center c_w, then its p n_q
    half-node samples, the same in every run.
    """

    Mp: np.ndarray       # (ds, ds)
    Phi: np.ndarray      # (n_q ds, ds): Mp, Mp^2, .., Mp^{n_q} stacked
    W: np.ndarray        # (ds, (2p + 1) n_w)
    Wc: np.ndarray       # (n2, (2 p n_q + 1) n_w)
    n_x: int
    n_z: int             # (l + 1) n_y bank states
    x1: slice            # x1hat's rows of s
    x2: slice            # x2hat's rows of s
    stride: int          # p fine steps per quad stride
    n_q: int             # quad strides per sample interval


def _hold_lift(M: np.ndarray, G0: np.ndarray, Gh: np.ndarray,
               G1: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(M^steps, W): ``steps`` exact fine steps s+ = M s + G0 w(t) + Gh
    w(t + h/2) + G1 w(t + h) as s(t + steps h) = M^steps s(t) + W u, with u
    the steps + 1 node samples of w, then its steps half-node samples."""
    d, n_w = G0.shape
    powers = [np.eye(d)]
    for _ in range(steps):
        powers.append(M @ powers[-1])
    P = np.array(powers[steps - 1::-1])     # M^(steps-1-m), m = 0..steps-1
    nodes = np.zeros((steps + 1, d, n_w))
    nodes[:-1] += P @ G0
    nodes[1:] += P @ G1
    W = np.concatenate([nodes, P @ Gh]).transpose(1, 0, 2)
    return powers[steps], W.reshape(d, (2 * steps + 1) * n_w)


def build_center_lift(dec: Decomposition, hgo_cfg: HgoConfig,
                      uio: UioDesign, h: float, stride: int,
                      n_q: int) -> CenterLift:
    """Lift the exact fine step of :class:`CenterLift`'s continuous system
    to ``stride`` fine steps, for ``n_q`` strides per sample interval, and
    c_w's drive of x2hat to a whole sample interval."""
    sys = dec.system
    n, n_y, n_w, n1 = sys.n_x, sys.n_y, sys.n_w, dec.n1
    n_z = (hgo_cfg.l + 1) * n_y
    Bz = np.kron(hgo_cfg.b_z[:, None], np.eye(n_y))    # output -> vec(Z)
    A_s = block_diag(sys.A, np.kron(hgo_cfg.a_z, np.eye(n_y)), uio.E, dec.A4)
    z, x1, ds = slice(n, n + n_z), slice(n + n_z, n + n_z + n1), A_s.shape[0]
    A_s[z, :n], A_s[x1, z], A_s[x1.stop:, x1] = Bz @ sys.C, uio.F, dec.A2
    B_s = np.zeros((ds, n_w))
    B_s[:n], B_s[z] = sys.B, Bz @ sys.D
    Mp, W = _hold_lift(*quadratic_hold(A_s, B_s, h), stride)
    _, Wc = _hold_lift(*quadratic_hold(dec.A4, dec.B2, h), stride * n_q)
    Phi = [Mp]
    for _ in range(n_q - 1):
        Phi.append(Mp @ Phi[-1])
    return CenterLift(Mp=Mp, Phi=np.concatenate(Phi), W=W, Wc=Wc, n_x=n,
                      n_z=n_z, x1=x1, x2=slice(x1.stop, ds), stride=stride,
                      n_q=n_q)


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
    if zbar0 is None:  # a bound on ||y(0)||, plus ybound
        zbar0 = (float(np.linalg.norm(sys.C @ cfg.xhat0))
                 + spectral_norm(sys.C)
                 * float(np.sqrt(max(np.linalg.eigvalsh(cfg.K0)[-1], 0.0)))
                 + spectral_norm(sys.D) * input_norm_bound(cfg) + ybound)
    init_norm = float(np.sqrt(
        spectral_norm(dec.P1 @ cfg.K0 @ dec.P1.T)))
    err = ErrorBoundParams(K=K, a=a, eps=cfg.hgo.eps, delta=delta,
                           zbar0=zbar0, l=l,
                           F_norm=spectral_norm(uio.F),
                           init_norm=init_norm, n_y=sys.n_y)
    quad_step = cfg.dt / cfg.quad_substeps
    ev = Epsilon1Evaluator(err, uio.E, quad_step, cfg.horizon)
    eps1_ts, eps1_grid = ev.grid(ev.ts[cfg.n_steps * cfg.quad_substeps])
    eps1_lo, eps1_hi = ev.uniform_bounds(cfg.eps1_floor)
    if not eps1_hi < np.sqrt(np.finfo(float).max):  # eps1^2 must be finite
        raise InvalidDesignError(f"the eps1 envelope reaches {eps1_hi:.3g}, "
                                 "whose square overflows")
    stride = cfg.n_fine // cfg.quad_substeps
    return DesignArtifacts(
        cfg=cfg, dec=dec, uio=uio, hgo_cfg=hgo_cfg, err=err,
        eps1_ts=eps1_ts, eps1_grid=eps1_grid,
        eps1_lo=eps1_lo, eps1_hi=eps1_hi,
        lift=build_center_lift(dec, hgo_cfg, uio, cfg.h_fine, stride,
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
    and ``skipped``, the one record of the update gate.  ``P1inv``, ``O``
    and ``inv_factor`` serve the centers."""

    eps1: np.ndarray       # (N+1,)
    gamma: np.ndarray      # (N+1,)
    alpha: np.ndarray      # (N+1,)
    beta: np.ndarray       # (N+1,), 0 where the update was skipped
    skipped: np.ndarray    # (N+1,) bool
    P2_pred: np.ndarray    # (N+1, n2, n2) predicted weak-block shape
    P2: np.ndarray         # (N+1, n2, n2) updated, or predicted if skipped
    info: np.ndarray       # (N+1, n2, n2) C2^T G_k^-1 C2, 0 where skipped
    O: np.ndarray          # (N+1, n2, n_y) update gain, 0 where skipped
    mu: np.ndarray         # (N+1,) fusion gain
    shape: np.ndarray      # (N+1, n, n) fused full-state shape
    inv_factor: np.ndarray  # (N+1, n, n) inverse_factors of ``shape``
    P1inv: np.ndarray      # (n, n)


def shape_schedule(design: DesignArtifacts) -> ShapeSchedule:
    """Run the shape recursion of the estimator once over the horizon, in
    three phases.  First, for all steps at once, what depends on eps1 and
    K_w alone: the stacking gains, M2k, G_k, the update gate and, where the
    update runs, C2^T G_k^{-1} C2 and G_k^{-1} C2.  Then the recursion on
    P2 (:func:`~smobserver.weak.shape_recursion`), which checks every
    weak-block shape.  Last, the fused shapes and their inverse factors,
    in one batch."""
    cfg, dec = design.cfg, design.dec
    n1, n2, n_q, N = dec.n1, dec.n2, cfg.quad_substeps, cfg.n_steps
    n_y = dec.system.n_y
    eps1 = design.eps1_grid[::n_q]
    gamma, alpha, beta = (np.full(N + 1, np.nan) for _ in range(3))
    skipped = np.ones(N + 1, dtype=bool)
    info = np.zeros((N + 1, n2, n2))
    O = np.zeros((N + 1, n2, n_y))
    P1inv = np.linalg.inv(dec.P1)
    kernels = quad_kernels(dec.A4, cfg.dt / n_q, n_q)

    # t = 0: split the initial ellipsoid through the coordinate change
    P2 = symmetrize(dec.P1 @ cfg.K0 @ dec.P1.T)[n1:, n1:]
    check_shape(P2)
    P2_pred = P2s = np.broadcast_to(P2, (N + 1, n2, n2))
    if n2:
        Kw_q = cfg.Kw(design.eps1_ts)
        Kw_k = Kw_q[n_q::n_q]          # K_w at t_1 .. t_N
        gain = gamma_terms(Kw_k, eps1[1:], n1)
        gamma[1:] = gain[0]
        nodes = n_q * np.arange(N)[:, None] + np.arange(n_q + 1)
        M2k = propagate(dec, design.eps1_grid[nodes], Kw_q[nodes], cfg.dt,
                        gain, kernels)
        Gk = gk_matrix(dec, build_Ku(gain, eps1[1:], Kw_k, n1))
        informative = update_is_informative(dec, Gk)
        GiC = np.zeros((N, n_y, n2))
        info[1:][informative], GiC[informative] = update_information(
            dec, Gk[informative])
        skipped[1:] = ~informative
        alpha[1:], beta[1:], P2_pred, P2s, O[1:] = shape_recursion(
            P2, kernels[0], cfg.dt * M2k, informative, info[1:], GiC)
    shape, mu = fuse(eps1, P2s, P1inv)
    return ShapeSchedule(
        eps1=eps1, gamma=gamma, alpha=alpha, beta=beta, skipped=skipped,
        P2_pred=P2_pred, P2=P2s, info=info, O=O, mu=mu, shape=shape,
        inv_factor=inverse_factors(shape), P1inv=P1inv)


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


def _offset_table(W: np.ndarray, bank: SineBank, h: float, steps: int):
    """Z (runs, 2 terms, rows of W) with W u = Z [c; s] for a sine bank
    sampled at the 2 steps + 1 offsets tau = h (0, 1, .., steps, 1/2, ..,
    steps - 1/2) from an anchor a, as W's columns take them: with c + i s =
    e^{i (w a + p)}, sin(w (a + tau) + p) = c sin(w tau) + s cos(w tau), so
    Z = sum_tau W_tau [g sin(w tau) | g cos(w tau)].  Each term's pair of
    rows is adjacent as in the float view of a complex array."""
    tau = h * np.concatenate([np.arange(steps + 1), np.arange(steps) + 0.5])
    freqs = np.ascontiguousarray(bank.freqs.T)           # (runs, terms)
    rot = np.exp(1j * freqs * tau[:, None, None])        # (2p+1, runs, terms)
    samples = (bank.gains.transpose(0, 2, 1)[None, :, :, :, None]
               * np.stack([rot.imag, rot.real], axis=-1)[:, None])
    runs, terms = freqs.shape
    Z = W @ samples.reshape(W.shape[1], 2 * runs * terms)
    return np.ascontiguousarray(Z.reshape(len(Z), runs, 2 * terms)
                                .transpose(1, 2, 0))


def _fold_bank(lift: CenterLift, bank: SineBank, h: float
               ) -> tuple[np.ndarray, np.ndarray | None]:
    """The input table of a sine bank, built once per :func:`estimate`.

    Every quad stride samples its input at the same 2p + 1 offsets from its
    anchor: its lifted drive is W u = Z [c; s] (:func:`_offset_table`), and
    the anchor of stride q is the interval's anchor e turned by rot_q =
    e^{i w q p h}.  Since rot_q is geometric, the interval's forced
    response at the stride ends, F_q = sum_{j <= q} Mp^{q-j} Z [e rot_j],
    is linear in e too: F = Y e with Y_q = Mp Y_{q-1} + rot_q Z.

    Returns (Y, None), Y (runs, 2 terms, n_q ds), when Y fits
    :data:`FOLD_BUDGET`; else the stride table (Z, rot), Z (runs, 2 terms,
    ds) and rot (runs, n_q, terms).
    """
    n_q, stride = lift.n_q, lift.stride
    Z = _offset_table(lift.W, bank, h, stride)
    runs, terms = Z.shape[0], Z.shape[1] // 2
    rot = np.exp(1j * (stride * h * np.arange(n_q))[:, None]
                 * bank.freqs.T[:, None, :])
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


def _center_input(design: DesignArtifacts) -> tuple[np.ndarray, np.ndarray]:
    """(drive, feed), the same in every run: the input center c_w's drive
    of x2hat over each sample interval, (N, n2), the lift's ``Wc`` folded
    with c_w's sine bank (:func:`_offset_table`) at each interval's anchor;
    and D c_w(t_k) at the sample times, (N + 1, n_y)."""
    cfg, bank = design.cfg, design.cfg.cw.sine_bank()
    Z = _offset_table(design.lift.Wc, bank, cfg.h_fine, cfg.n_fine)[0]
    t = cfg.h_fine * (cfg.n_fine * np.arange(cfg.n_steps + 1))
    e = np.exp(1j * (bank.freqs[:, 0] * t[:, None] + bank.phases[:, 0]))
    return (e[:-1].view(float) @ Z,
            e.imag @ (cfg.system.D @ bank.gains[:, :, 0]).T)


def estimate(design: DesignArtifacts, X0: np.ndarray, w_family,
             schedule: ShapeSchedule):
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

    The pass only advances centers, all by the lifted map of
    :class:`CenterLift`: for a folded bank, a loop of one product with
    Mp^{n_q} per interval takes the states at the sample times, then one
    product with Phi plus the forced responses takes every other quad node;
    for a bank over :data:`FOLD_BUDGET` and for a callable, a loop of one
    product with Mp per quad stride.  At each t_k either loop adds c_w's
    drive of x2hat (:func:`_center_input`) and, where the schedule's gate
    is open, O_k (y_k - C1 x1hat - D c_w(t_k) - C2 x2hat): one map of the
    state and one product with the gain.  x2hat is exact at the sample
    times only.  The eps1 gaps, the fused centers and each run's quadratic
    form are taken for the whole chunk at once.
    """
    cfg, dec, lift = design.cfg, design.dec, design.lift
    sys, n, x1, x2, n2 = dec.system, lift.n_x, lift.x1, lift.x2, dec.n2
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
    T1 = dec.P1[:dec.n1]                # x1 = T1 x
    MpT = np.ascontiguousarray(lift.Mp.T)
    PhiT = lift.Phi.reshape(n_q, ds, ds).transpose(0, 2, 1)
    MpnT = np.ascontiguousarray(PhiT[-1])
    gate = (~schedule.skipped).tolist()
    if n2:  # an empty weak block has no x2hat work to do
        cw_drive, cw_feed = _center_input(design)
        # the state's part of the innovation y_k - C1 x1hat - C2 x2hat
        H = np.zeros((ds, sys.n_y))
        H[:n], H[x1], H[x2] = sys.C.T, -dec.C1.T, -dec.C2.T
        OT = schedule.O.transpose(0, 2, 1)

    s = np.zeros((runs, ds))
    s[:, :n] = X0.T
    s[:, x1.start:] = dec.P1 @ cfg.xhat0
    U, w = next(drive)
    s[:, n:n + sys.n_y] = X0.T @ sys.C.T + w[0] @ sys.D.T
    xhat = s[:, x1.start:] @ P1invT
    yield EstimateChunk(
        k=slice(0, 1), x=X0[None].copy(),
        x1hat_q=s[:, x1].T[None, None].copy(), eps1_gap=np.empty((1, 0, runs)),
        x2hat=s[:, x2].T[None].copy(), xhat=xhat.T[None],
        q=quadratic_forms(schedule.inv_factor[0], X0, xhat.T)[None])

    chain_buf = np.empty((steps + 1) * runs * ds)
    node_buf = np.empty(n_q * steps * runs * ds if folded else 0)
    tmp = np.empty((runs, ds))
    for k0, b in _chunks(N, steps):
        if k0:
            U, w = next(drive)
        # the interval ends' forced responses gain c_w's drive of x2hat
        if n2:
            last = U[:, :, -1] if folded else U[-1].swapaxes(0, 1)
            last[..., x2] += cw_drive[k0:k0 + b]
            feed = (w[1:] @ sys.D.T) - cw_feed[k0 + 1:k0 + b + 1, None]
        # chain: the states at t_{k0} .. t_{k0+b}; S: every quad node of the
        # chunk's intervals after their start, so S[-1] = chain[1:]
        chain = chain_buf[:(b + 1) * runs * ds].reshape(b + 1, runs, ds)
        chain[0] = s
        if folded:
            S = node_buf[:n_q * b * runs * ds].reshape(n_q, b, runs, ds)
            for j in range(b):
                np.matmul(chain[j], MpnT, out=tmp)
                s = np.add(tmp, U[:, j, -1], out=chain[j + 1])
                if gate[k0 + 1 + j]:
                    s[:, x2] += (s @ H + feed[j]) @ OT[k0 + 1 + j]
            np.matmul(chain[:b].reshape(-1, ds), PhiT[:-1],
                      out=S[:-1].reshape(n_q - 1, -1, ds))
            S[:-1] += U.transpose(2, 1, 0, 3)[:-1]
            S[-1] = chain[1:]
        else:   # each stride's drive turns into its end state in place
            S = U
            for j in range(b):
                for q in range(n_q):
                    np.matmul(s, MpT, out=tmp)
                    s = S[q, j]
                    s += tmp
                if gate[k0 + 1 + j]:
                    s[:, x2] += (s @ H + feed[j]) @ OT[k0 + 1 + j]
            chain[1:] = S[-1]
        s = chain[b].copy()

        nodes, ends = S.reshape(-1, ds), S[-1].reshape(-1, ds)
        err = T1 @ nodes[:, :n].T
        err -= nodes[:, x1].T
        err = np.sqrt(np.einsum("ij,ij->j", err, err))
        gap = eps1_q[:, k0:k0 + b] - err.reshape(n_q, b, runs)
        xhat = ((ends[:, x1.start:] @ P1invT).reshape(b, runs, n)
                .transpose(0, 2, 1))
        x = ends[:, :n].reshape(b, runs, n).transpose(0, 2, 1).copy()
        x1hat_q = np.empty((b, n_q + 1, dec.n1, runs))
        x1hat_q[:, 0] = chain[:b, :, x1].transpose(0, 2, 1)
        x1hat_q[:, 1:] = S[..., x1].transpose(1, 0, 3, 2)
        yield EstimateChunk(
            k=slice(k0 + 1, k0 + b + 1), x=x, x1hat_q=x1hat_q,
            eps1_gap=gap.transpose(1, 0, 2),
            x2hat=ends[:, x2].reshape(b, runs, n2).transpose(0, 2, 1).copy(),
            xhat=xhat,
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
    callable mapping an array of times to (len, n_w) samples.  A ``step_log``
    list, where one is passed, receives the stage names in the published
    order (stacking gain, propagate, gate, update where the schedule's gate
    opened, fuse).
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
    for chunk in estimate(design, x0[:, None], w_one, sched):
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
    if step_log is not None:
        stages = ["continuous"] + (["gamma", "propagate", "gate"] if n2
                                   else [])
        step_log += ["setup", "fuse"]
        for skipped in sched.skipped[1:].tolist():
            step_log += stages + ([] if skipped else ["update"]) + ["fuse"]

    report = certify_design(design, sched) if with_certificate else None
    return RunResult(
        traces=traces, report=report, weak_states=weak, schedule=sched,
        eps1_ok=bool(eps1_margin >= -EPS1_SLACK),
        containment_ok=bool(traces.contained.all()),
        eps1_margin=float(eps1_margin), worst_q=max(0.0, float(qs.max())))


# -- certificates ----------------------------------------------------------

def assumption_constants(cfg: ScenarioConfig,
                         schedule: ShapeSchedule) -> AssumptionConstants:
    """Build the Assumption-level parameter bounds, declared or harvested
    from ``schedule``; beta_lo is 0 where it skipped an update."""
    w_lo, w_hi = cfg.Kw.eig_bounds()
    if cfg.cert.mode == "declared":
        return AssumptionConstants(
            alpha_lo=cfg.cert.alpha_lo, alpha_hi=cfg.cert.alpha_hi,
            beta_lo=cfg.cert.beta_lo, beta_hi=cfg.cert.beta_hi,
            w_lo=w_lo, w_hi=w_hi)
    m = cfg.cert.harvest_margin
    alphas, skipped = schedule.alpha[1:], schedule.skipped[1:]
    a_real = alphas[np.isfinite(alphas)]
    if a_real.size:
        a_lo = max(float(np.min(a_real)) * (1.0 - m), 1e-12)
        a_hi = min(float(np.max(a_real)) * (1.0 + m), 1.0 - 1e-12)
    else:
        a_lo = a_hi = 0.5
    ran = schedule.beta[1:][~skipped]
    if ran.size:
        b_lo = 0.0 if skipped.any() else float(np.min(ran)) * (1.0 - m)
        b_hi = min(float(np.max(ran)) * (1.0 + m), 1.0 - 1e-12)
    else:
        b_lo = b_hi = 0.0
    return AssumptionConstants(alpha_lo=a_lo, alpha_hi=a_hi,
                               beta_lo=b_lo, beta_hi=b_hi,
                               w_lo=w_lo, w_hi=w_hi)


def certify_design(design: DesignArtifacts,
                   schedule: ShapeSchedule) -> CertificateReport:
    """The certificate of ``design``, with harvested constants and the
    Grammian window taken from its shape schedule."""
    cfg = design.cfg
    const = assumption_constants(cfg, schedule)
    P20_norm = spectral_norm(design.dec.P1 @ cfg.K0 @ design.dec.P1.T)
    return certify(design.dec, const, design.eps1_lo, design.eps1_hi,
                   cfg.dt, P20_norm, cfg.n_steps, schedule.info[1:],
                   schedule.skipped[1:], r=cfg.cert.r,
                   margin_scale=cfg.cert.margin_scale)


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
    if runs == 0:   # the keys of a sweep, in its order
        return {"runs": 0, "seed": seed, "boundary": boundary,
                "containment_rate": None, "worst_q": None, "min_margin": None,
                "eps1_violations": 0, "eps1_margin": None,
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

def _format_column(col: np.ndarray) -> list:
    """``repr`` of every value of the 1-D float64 or int64 column ``col``,
    called once per distinct bit pattern: 0.0 and -0.0 stay apart, and
    every NaN prints as ``nan``."""
    bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
    text = np.array(list(map(repr, bits.view(col.dtype).tolist())),
                    dtype=object)
    return text[inverse].tolist()


def _write_csv(path, header: list, columns: list,
               known: dict | None = None) -> dict:
    """A CSV file of ``header`` and one line per row of the 1-D float64 or
    int64 ``columns``.  Every value is written as its shortest round-trip
    ``repr``, so equal runs give byte-identical files, and each column
    calls ``repr`` once per distinct value.  A column whose dtype and bytes
    are a key of ``known`` takes its strings from there.  Lines end in
    CRLF, as :mod:`csv` writes them.  Returns ``known`` joined by the
    strings of every column, keyed the same way."""
    text, cells = dict(known or {}), []
    for col in columns:
        col = np.ascontiguousarray(col)
        key = (col.dtype.str, col.tobytes())
        if key not in text:
            text[key] = _format_column(col)
        cells.append(text[key])
    lines = [",".join(header), *map(",".join, zip(*cells))]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join(lines) + "\r\n")
    return text


# The column strings of the last ``traces.csv`` written, from _write_csv,
# until emit_plot_data takes them.  Keyed by value, so the plot files reuse
# exactly the columns they repeat; let go after, so no run's strings outlive
# its writing.
_traces_text: dict = {}


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
    ``traces`` in column order, the two flags as 0 or 1.  Its column
    strings stay until :func:`emit_plot_data` takes them."""
    global _traces_text
    columns = []
    for name in traces.dtype.names:
        col = traces[name]
        columns += (list(col.T) if col.ndim == 2 else
                    [col.astype(np.int64) if col.dtype == bool else col])
    _traces_text = _write_csv(
        path, trace_header(traces.dtype["x_true"].shape[0]), columns)


def parse_traces(path) -> np.recarray:
    """Inverse of :func:`emit_traces`."""
    with open(path, encoding="utf-8") as fh:
        n = sum(c.startswith("x_true") for c in fh.readline().split(","))
    return np.loadtxt(path, dtype=trace_dtype(n), delimiter=",", skiprows=1,
                      ndmin=1, encoding="utf-8").view(np.recarray)


def emit_plot_data(run: RunResult, out_dir,
                   ellipse_axes: tuple | None = None) -> list:
    """Per-figure CSV series: volume curve, per-axis bound bands, and
    (optionally) projected ellipse polylines for a chosen coordinate pair.
    Each column that repeats one of the ``traces.csv`` just written takes
    that column's strings, which are then let go."""
    import os
    global _traces_text
    known, _traces_text = _traces_text, {}
    tr = run.traces
    n = tr.dtype["x_true"].shape[0]
    written = [os.path.join(out_dir, name)
               for name in ("plot_volume.csv", "plot_bounds.csv")]
    _write_csv(written[0], ["t", "vol", "trP"], [tr.t, tr.vol, tr.trP],
               known)
    _write_csv(written[1], ["t"] + [f"{c}{i}" for i in range(n)
                                    for c in ("x", "lo", "hi")],
               [tr.t] + [col[:, i] for i in range(n)
                         for col in (tr.x_true, tr.lo, tr.hi)], known)
    if ellipse_axes is not None:
        ij = list(ellipse_axes)
        path = os.path.join(out_dir, "plot_ellipses_x{}x{}.csv".format(*ij))
        points = boundary_polylines(tr.xhat[:, ij],
                                    run.schedule.shape[:, ij][:, :, ij])
        _write_csv(path, ["t", "px", "py"],
                   [np.repeat(tr.t, points.shape[1]),
                    *points.reshape(-1, 2).T])
        written.append(path)
    return written
