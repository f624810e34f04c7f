"""Scenario configuration: everything needed to reproduce a run byte-exactly,
including the built-in benchmark systems, YAML round-tripping, and the
analytic output-derivative bound used by the error envelope.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from math import lcm

import numpy as np
import yaml

from .decomposition import LtiSystem
from .ellipsoid import (MEMBERSHIP_SLACK, checked_shapes, inverse_factors,
                        quadratic_forms)
from .errors import InvalidEllipsoidError, ScenarioFormatError
from .generators import ShapeGenerator, SignalGenerator, check_keys
from .numerics import expm, power_norms, spectral_norm

FORMAT_TAG = "smobserver-scenario/1"

#: fine nodes per batch when the true input is checked against its bound;
#: a fixed batch keeps the check's memory independent of the horizon
INPUT_CHECK_CHUNK = 4096


@dataclass(frozen=True)
class HgoSettings:
    """Derivative-bank design knobs; unset bounds are derived analytically."""

    eps: float = 0.01
    pole: float = 1.0
    l_override: int | None = None
    zbar0: float | None = None
    y_deriv_bound: float | None = None


@dataclass(frozen=True)
class CertOptions:
    """Certificate configuration: window length, envelope margin, and how the
    per-step parameter bounds are obtained ("declared" or "harvested")."""

    mode: str = "harvested"
    r: int | None = None
    margin_scale: float = 0.05
    harvest_margin: float = 0.05
    alpha_lo: float | None = None
    alpha_hi: float | None = None
    beta_lo: float | None = None
    beta_hi: float | None = None

    def __post_init__(self):
        if self.mode not in ("declared", "harvested"):
            raise ScenarioFormatError("cert mode must be declared|harvested")
        if self.r is not None and self.r < 1:
            raise ScenarioFormatError(f"cert.r must be >= 1, got {self.r}")
        if not (np.isfinite(self.margin_scale) and self.margin_scale > 0.0):
            raise ScenarioFormatError("cert.margin_scale must be finite and "
                                      f"positive, got {self.margin_scale}")
        if not (np.isfinite(self.harvest_margin)
                and 0.0 <= self.harvest_margin <= 1.0):
            raise ScenarioFormatError("cert.harvest_margin must be finite and "
                                      f"in [0, 1], got {self.harvest_margin}")
        if self.mode == "declared":
            vals = (self.alpha_lo, self.alpha_hi, self.beta_lo, self.beta_hi)
            if any(v is None for v in vals):
                raise ScenarioFormatError(
                    "declared cert mode needs all four alpha/beta bounds")


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete, serializable description of one simulation scenario."""

    name: str
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    xhat0: np.ndarray
    K0: np.ndarray
    cw: SignalGenerator
    Kw: ShapeGenerator
    w_true: SignalGenerator
    dt: float = 0.1
    horizon: float = 30.0
    uio_poles: tuple[float, ...] = ()
    hgo: HgoSettings = field(default_factory=HgoSettings)
    cert: CertOptions = field(default_factory=CertOptions)
    plant_substeps: int = 10
    hgo_substeps: int = 100
    quad_substeps: int = 20
    seed: int = 0
    mc_freq_max: float = 2.0
    mc_n_terms: int = 3
    eps1_floor: float = 1e-6
    x0_true: np.ndarray | None = None

    def __post_init__(self):
        for name in ("A", "B", "C", "D", "xhat0", "K0"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))
        sys = self.system  # validates dimensions
        n = sys.n_x
        if self.xhat0.shape != (n,) or not np.all(np.isfinite(self.xhat0)):
            raise ScenarioFormatError("xhat0 must be a finite n-vector")
        if self.K0.shape != (n, n):
            raise ScenarioFormatError("K0 dimension mismatch")
        try:
            checked_shapes(self.K0)
        except InvalidEllipsoidError:
            raise ScenarioFormatError(
                "K0 must be symmetric positive definite") from None
        for key in ("dt", "horizon"):
            if not (np.isfinite(getattr(self, key)) and getattr(self, key) > 0):
                raise ScenarioFormatError(f"{key} must be finite and positive")
        steps = self.horizon / self.dt
        if not (np.isfinite(steps)
                and abs(steps - round(steps)) <= 1e-9 * max(1.0, steps)):
            raise ScenarioFormatError("horizon is not a whole number of dt")
        if self.cw.dim != sys.n_w or self.w_true.dim != sys.n_w \
                or self.Kw.dim != sys.n_w:
            raise ScenarioFormatError("input generator dimension mismatch")
        for s in (self.plant_substeps, self.hgo_substeps, self.quad_substeps):
            if s < 1:
                raise ScenarioFormatError("substep counts must be >= 1")
        if self.quad_substeps % 2:
            raise ScenarioFormatError("quad_substeps must be even (Simpson)")
        if not (np.isfinite(self.mc_freq_max) and self.mc_freq_max >= 0.0):
            raise ScenarioFormatError(
                "mc_freq_max must be finite and nonnegative")
        if self.mc_n_terms < 0:
            raise ScenarioFormatError("mc_n_terms must be nonnegative")
        if self.x0_true is not None:
            object.__setattr__(self, "x0_true",
                               np.asarray(self.x0_true, dtype=float))
            if self.x0_true.shape != (n,) \
                    or not np.all(np.isfinite(self.x0_true)):
                raise ScenarioFormatError("x0_true must be a finite n-vector")
            if not quadratic_forms(inverse_factors(self.K0),
                                   self.x0_true[:, None],
                                   self.xhat0[:, None])[0] \
                    <= 1.0 + MEMBERSHIP_SLACK:
                raise ScenarioFormatError("x0_true lies outside E(xhat0, K0)")
        self._check_true_input()

    def _check_true_input(self) -> None:
        """The simulated true input must respect its own declared bound at
        every fine node and half-node, where the plant consumes it.  The
        grid is checked in time order, INPUT_CHECK_CHUNK nodes at a time."""
        h, n_nodes = self.h_fine, self.n_steps * self.n_fine
        L = (inverse_factors(self.Kw.matrix) if self.Kw.kind == "const"
             else None)
        for lo in range(0, n_nodes + 1, INPUT_CHECK_CHUNK):
            nodes = h * np.arange(lo, min(lo + INPUT_CHECK_CHUNK, n_nodes + 1))
            ts = np.concatenate([nodes, nodes[:n_nodes - lo] + 0.5 * h])
            dev = self.w_true(ts) - self.cw(ts)
            q = (quadratic_forms(L, dev.T, 0.0) if L is not None
                 else np.sum(dev ** 2 / self.Kw.entries(ts), axis=1))
            out = ts[~(q <= 1.0 + 1e-9)]
            if out.size:
                raise ScenarioFormatError(
                    f"w_true leaves its bounding ellipsoid at t={out.min():.4f}")

    @property
    def system(self) -> LtiSystem:
        return LtiSystem(self.A, self.B, self.C, self.D)

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))

    @property
    def n_fine(self) -> int:
        """Fine nodes per sample interval, where the input is sampled: a
        common refinement of the three substep grids."""
        return lcm(self.plant_substeps, self.hgo_substeps, self.quad_substeps)

    @property
    def h_fine(self) -> float:
        return self.dt / self.n_fine

    def with_overrides(self, **kwargs) -> "ScenarioConfig":
        return replace(self, **kwargs)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """Plain data, one entry per key of the loader table, in its order."""
        def plain(value):
            if isinstance(value, np.ndarray):
                return value.tolist()
            if isinstance(value, (HgoSettings, CertOptions)):
                return asdict(value)
            if isinstance(value, tuple):
                return list(value)
            return value.to_dict() if hasattr(value, "to_dict") else value
        return {"format": FORMAT_TAG,
                **{key: plain(getattr(self, key)) for key in _LOADERS}}

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        if d.get("format") != FORMAT_TAG:
            raise ScenarioFormatError(
                f"unsupported scenario format {d.get('format')!r}")
        check_keys(d, ("format", *_LOADERS))
        try:
            return cls(**{key: _read_key(d, key, *how)
                          for key, how in _LOADERS.items()})
        except KeyError as exc:
            raise ScenarioFormatError(
                f"scenario is missing required key {exc}") from exc

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(self.to_dict(), fh, sort_keys=False)

    @classmethod
    def load(cls, path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = yaml.safe_load(fh)
            except yaml.YAMLError as exc:
                raise ScenarioFormatError(
                    f"scenario file is not valid YAML: {exc}") from exc
        if not isinstance(data, dict):
            raise ScenarioFormatError("scenario file is not a mapping")
        return cls.from_dict(data)


def _array(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _optional(convert):
    """``convert`` for a key whose value may be null."""
    return lambda value: None if value is None else convert(value)


def _section(cls, section: str, loaders: dict):
    """Loader of a nested ``section`` whose keys convert as in the table
    ``loaders``; errors, also for an unknown key, name it ``section.key``."""
    def load(d: dict):
        check_keys(d, loaders, prefix=f"{section}.")
        return cls(**{key: _read_key(d, key, *how, name=f"{section}.{key}")
                      for key, how in loaders.items()})
    return load


#: each scenario key's converter, and its default where the key is optional
_LOADERS = {
    "name": (str,), "A": (_array,), "B": (_array,), "C": (_array,),
    "D": (_array,), "xhat0": (_array,), "K0": (_array,),
    "cw": (SignalGenerator.from_dict,), "Kw": (ShapeGenerator.from_dict,),
    "w_true": (SignalGenerator.from_dict,), "dt": (float,),
    "horizon": (float,),
    "uio_poles": (lambda poles: tuple(float(p) for p in poles), []),
    "hgo": (_section(HgoSettings, "hgo", {
        "eps": (float, 0.01), "pole": (float, 1.0),
        "l_override": (_optional(int), None),
        "zbar0": (_optional(float), None),
        "y_deriv_bound": (_optional(float), None)}), {}),
    "cert": (_section(CertOptions, "cert", {
        "mode": (str, "harvested"), "r": (_optional(int), None),
        "margin_scale": (float, 0.05), "harvest_margin": (float, 0.05),
        **{key: (_optional(float), None)
           for key in ("alpha_lo", "alpha_hi", "beta_lo", "beta_hi")}}), {}),
    "plant_substeps": (int, 10), "hgo_substeps": (int, 100),
    "quad_substeps": (int, 20), "seed": (int, 0),
    "mc_freq_max": (float, 2.0), "mc_n_terms": (int, 3),
    "eps1_floor": (float, 1e-6),
    "x0_true": (_optional(_array), None),
}


def _read_key(d: dict, key: str, convert, *default, name: str | None = None):
    """``convert`` applied to ``d[key]`` (or to ``default`` where the key
    is absent); a value it cannot convert is a :class:`ScenarioFormatError`
    naming the key (as ``name``, where given)."""
    value = d.get(key, *default) if default else d[key]
    try:
        return convert(value)
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ScenarioFormatError(
            f"scenario key {name or key!r} has a malformed value: {exc}"
        ) from exc


# -- analytic signal bounds ------------------------------------------------

def input_norm_bound(cfg: ScenarioConfig) -> float:
    """sup over time of ||w|| for any admissible input."""
    center = float(np.linalg.norm(cfg.cw.deriv_bound(0)))
    _, w_hi = cfg.Kw.eig_bounds()
    return center + np.sqrt(w_hi)


def input_deriv_bound(cfg: ScenarioConfig, order: int) -> float:
    """sup over time of ||w^(order)|| for any admissible smooth input.

    Covers both the scenario's declared w_true and the Monte-Carlo family
    c_w + L sum a_j u_j sin(omega_j t + phi_j) with sum |a_j| <= 1 and
    omega_j <= mc_freq_max.
    """
    center = float(np.linalg.norm(cfg.cw.deriv_bound(order)))
    _, w_hi = cfg.Kw.eig_bounds()
    family = np.sqrt(w_hi) * cfg.mc_freq_max ** order
    declared = float(np.linalg.norm(cfg.w_true.deriv_bound(order)))
    return center + max(family, declared - center)


def state_norm_bound(cfg: ScenarioConfig) -> float:
    """sup over [0, horizon] of ||x(t)|| for any admissible run (0.01 grid).

    ||x(t)|| <= ||e^{At}|| (||xhat0|| + sqrt(lam_max K0))
               + int_0^t ||e^{As}|| ds * ||B|| * sup||w||.
    """
    h = 0.01
    n_steps = int(np.ceil(cfg.horizon / h)) + 1
    norms = power_norms(expm(cfg.A * h), n_steps + 1)
    x0_norm = float(np.linalg.norm(cfg.xhat0)) \
        + float(np.sqrt(max(np.linalg.eigvalsh(cfg.K0)[-1], 0.0)))
    w_max = input_norm_bound(cfg)
    b_norm = spectral_norm(cfg.B)
    # running integral of the norm envelope (trapezoid is fine: it is an
    # upper-bound ingredient, and the envelope is smooth); an envelope that
    # overflows gives inf (or nan), which build_design rejects
    with np.errstate(over="ignore", invalid="ignore"):
        integral = np.concatenate([[0.0], np.cumsum(
            0.5 * (norms[1:] + norms[:-1]) * h)])
        env = norms * x0_norm + integral * b_norm * w_max
    return float(np.max(env))


def y_derivative_bound(cfg: ScenarioConfig, l: int) -> float:
    """Bound on sup_t ||y^(m)(t)|| over both m = l and m = l + 1.

    y^(m) = C A^m x + sum_{j=0}^{m-1} C A^{m-1-j} B w^(j) + D w^(m);
    each factor is replaced by its scenario-level supremum.
    """
    x_max = state_norm_bound(cfg)
    d_norm = spectral_norm(cfg.D)
    totals = []
    for m in (l, l + 1):
        Am = np.linalg.matrix_power(cfg.A, m)
        total = spectral_norm(cfg.C @ Am) * x_max
        for j in range(m):
            total += spectral_norm(
                cfg.C @ np.linalg.matrix_power(cfg.A, m - 1 - j) @ cfg.B) \
                * input_deriv_bound(cfg, j)
        totals.append(total + d_norm * input_deriv_bound(cfg, m))
    return float(np.max(totals))  # nan propagates


# -- built-in scenarios ----------------------------------------------------

def _shared_inputs() -> tuple[SignalGenerator, ShapeGenerator, SignalGenerator]:
    from .generators import Term
    cw = SignalGenerator(components=(
        (Term(kind="sin", amp=0.5, freq=1.0),),
        (Term(kind="sin", amp=0.4, freq=1.0, phase=np.pi / 2.0),),
    ))
    Kw = ShapeGenerator(kind="const", matrix=np.diag([3.0, 5.0]))
    w_true = SignalGenerator(components=(
        (Term(kind="sin", amp=0.8, freq=1.0),),
        (Term(kind="sin", amp=0.7, freq=1.0, phase=np.pi / 2.0),),
    ))
    return cw, Kw, w_true


def example1() -> ScenarioConfig:
    """Fifth-order lateral-axis aircraft model with full unknown-input
    feedthrough; the weakly unobservable part is trivial."""
    cw, Kw, w_true = _shared_inputs()
    A = np.array([
        [0.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, -0.154, -0.0042, 1.54, 0.0],
        [0.0, 0.2490, -1.0, -5.2, 0.0],
        [0.0386, -0.996, -0.003, -0.117, 0.0],
        [0.0, 0.5000, 0.0, 0.0, -0.5],
    ])
    B = np.array([
        [0.0, 0.0],
        [-0.7440, -0.0320],
        [0.3370, -1.1200],
        [0.0200, 0.0],
        [0.0, 0.0],
    ])
    C = np.array([
        [0.0, 1.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
    ])
    D = np.ones((4, 2))
    return ScenarioConfig(
        name="example1",
        A=A, B=B, C=C, D=D,
        xhat0=np.array([0.342, 0.32, 0.0178, -0.287, -0.9497]),
        K0=0.001 * np.eye(5),
        cw=cw, Kw=Kw, w_true=w_true,
        dt=0.1, horizon=30.0,
        uio_poles=(-2.0, -2.5, -3.0, -3.5, -4.0),
        hgo=HgoSettings(eps=0.01, pole=1.0),
        cert=CertOptions(mode="harvested"))


def example2() -> ScenarioConfig:
    """Third-order unstable system whose weakly unobservable part is stable;
    the output carries no information about that part, so the measurement
    update never engages."""
    cw, Kw, w_true = _shared_inputs()
    return ScenarioConfig(
        name="example2",
        A=np.array([[2.0, 1.0, 1.0], [0.0, -17.0, 0.0], [0.0, 0.0, -20.0]]),
        B=np.array([[1.0, 1.0], [0.0, 1.0], [1.0, 1.0]]),
        C=np.array([[1.0, 0.0, 0.0]]),
        D=np.zeros((1, 2)),
        xhat0=np.array([0.03, 0.03, 0.03]),
        K0=0.01 * np.eye(3),
        cw=cw, Kw=Kw, w_true=w_true,
        dt=0.1, horizon=50.0,
        uio_poles=(-3.0,),
        hgo=HgoSettings(eps=0.01, pole=1.0),
        cert=CertOptions(mode="declared", alpha_lo=0.1, alpha_hi=0.9,
                         beta_lo=0.0, beta_hi=0.0))


BUILTIN_SCENARIOS = {"example1": example1, "example2": example2}
