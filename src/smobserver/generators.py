"""Typed signal generators for scenario files: per-component sums of
constants and sinusoids, with analytic derivative bounds.

Every generator round-trips through plain dictionaries so scenarios stay
byte-exact on disk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, ScenarioFormatError


@dataclass(frozen=True)
class Term:
    """One additive term of a scalar signal: a constant or a sinusoid."""

    kind: str  # "const" | "sin"
    value: float = 0.0   # const only
    amp: float = 0.0     # sin only
    freq: float = 0.0    # rad/s
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in ("const", "sin"):
            raise ScenarioFormatError(f"unknown term kind {self.kind!r}")

    def __call__(self, t):
        if self.kind == "const":
            return self.value * np.ones_like(np.asarray(t, dtype=float))
        return self.amp * np.sin(self.freq * np.asarray(t, dtype=float)
                                 + self.phase)

    def deriv_bound(self, order: int) -> float:
        """sup over t of the order-th derivative's magnitude."""
        if self.kind == "const":
            return abs(self.value) if order == 0 else 0.0
        return abs(self.amp) * abs(self.freq) ** order

    def to_dict(self) -> dict:
        if self.kind == "const":
            return {"kind": "const", "value": float(self.value)}
        return {"kind": "sin", "amp": float(self.amp),
                "freq": float(self.freq), "phase": float(self.phase)}

    @classmethod
    def from_dict(cls, d: dict) -> "Term":
        kind = d.get("kind")
        if kind == "const":
            return cls(kind="const", value=float(d["value"]))
        if kind == "sin":
            return cls(kind="sin", amp=float(d["amp"]),
                       freq=float(d["freq"]), phase=float(d.get("phase", 0.0)))
        raise ScenarioFormatError(f"unknown term kind {kind!r}")


@dataclass(frozen=True)
class SignalGenerator:
    """Vector-valued signal: one term list per component."""

    components: tuple[tuple[Term, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.components)

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.stack([sum((term(t) for term in comp),
                            np.zeros_like(t, dtype=float))
                        for comp in self.components], axis=-1)
        return out

    def deriv_bound(self, order: int) -> np.ndarray:
        """Per-component bound on the order-th derivative magnitude."""
        return np.array([sum(term.deriv_bound(order) for term in comp)
                         for comp in self.components])

    def sine_bank(self, runs: int = 1) -> "SineBank":
        """This signal as a :class:`SineBank`, the same in each of ``runs``
        columns; a constant is the sine of frequency 0 and phase pi/2."""
        terms = [(i, t) for i, comp in enumerate(self.components)
                 for t in comp]
        gains = np.zeros((self.dim, len(terms), runs))
        freqs, phases = np.zeros((2, len(terms), runs))
        for j, (i, t) in enumerate(terms):
            const = t.kind == "const"
            gains[i, j] = t.value if const else t.amp
            freqs[j] = 0.0 if const else t.freq
            phases[j] = np.pi / 2.0 if const else t.phase
        return SineBank(gains=gains, freqs=freqs, phases=phases)

    def to_dict(self) -> list:
        return [[term.to_dict() for term in comp] for comp in self.components]

    @classmethod
    def from_dict(cls, data: list) -> "SignalGenerator":
        return cls(components=tuple(
            tuple(Term.from_dict(t) for t in comp) for comp in data))


@dataclass(frozen=True)
class SineBank:
    """A batch of vector sums of sinusoids, one per run (column):
    w(t) = sum_j g_j sin(w_j t + p_j).  The estimator folds a bank through
    its lifted map instead of sampling it."""

    gains: np.ndarray   # (n_w, terms, runs)
    freqs: np.ndarray   # (terms, runs), rad/s
    phases: np.ndarray  # (terms, runs)

    def __call__(self, t) -> np.ndarray:
        """(len(t), n_w, runs) samples."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.einsum("ajr,tjr->tar", self.gains,
                         np.sin(self.freqs * t[:, None, None] + self.phases))

    def __add__(self, other: "SineBank") -> "SineBank":
        """The bank of the summed signals: both term lists."""
        return SineBank(
            gains=np.concatenate([self.gains, other.gains], axis=1),
            freqs=np.concatenate([self.freqs, other.freqs]),
            phases=np.concatenate([self.phases, other.phases]))


@dataclass(frozen=True)
class ShapeGenerator:
    """Time-varying SPD bound shape, either a constant matrix or a diagonal
    of scalar signal components (kept positive by validation)."""

    kind: str  # "const" | "diag"
    matrix: np.ndarray | None = None
    entries: SignalGenerator | None = None

    def __post_init__(self):
        if self.kind == "const":
            if self.matrix is None:
                raise ScenarioFormatError("const shape generator needs a matrix")
            M = np.atleast_2d(np.asarray(self.matrix, dtype=float))
            if np.linalg.eigvalsh(0.5 * (M + M.T))[0] <= 0.0:
                raise InvalidParameterError("shape generator must be SPD")
            object.__setattr__(self, "matrix", 0.5 * (M + M.T))
        elif self.kind == "diag":
            if self.entries is None:
                raise ScenarioFormatError("diag shape generator needs entries")
            if self.eig_bounds()[0] <= 0.0:
                raise InvalidParameterError(
                    "diag shape generator may lose positivity")
        else:
            raise ScenarioFormatError(f"unknown shape kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0] if self.kind == "const" else self.entries.dim

    def __call__(self, t) -> np.ndarray:
        if self.kind == "const":
            t = np.asarray(t, dtype=float)
            if t.ndim == 0:
                return self.matrix.copy()
            return np.tile(self.matrix, (t.shape[0], 1, 1))
        vals = self.entries(t)
        if vals.ndim == 1:
            return np.diag(vals)
        return np.stack([np.diag(v) for v in vals])

    def eig_bounds(self) -> tuple[float, float]:
        """(inf, sup) over time of the shape's eigenvalues."""
        if self.kind == "const":
            lam = np.linalg.eigvalsh(self.matrix)
            return float(lam[0]), float(lam[-1])
        lo = np.inf
        hi = -np.inf
        for comp in self.entries.components:
            center = sum(t.value for t in comp if t.kind == "const")
            sway = sum(abs(t.amp) for t in comp if t.kind == "sin")
            lo = min(lo, center - sway)
            hi = max(hi, center + sway)
        return float(lo), float(hi)

    def to_dict(self) -> dict:
        if self.kind == "const":
            return {"kind": "const", "matrix": self.matrix.tolist()}
        return {"kind": "diag", "entries": self.entries.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "ShapeGenerator":
        if d.get("kind") == "const":
            return cls(kind="const", matrix=np.asarray(d["matrix"], dtype=float))
        if d.get("kind") == "diag":
            return cls(kind="diag",
                       entries=SignalGenerator.from_dict(d["entries"]))
        raise ScenarioFormatError(f"unknown shape kind {d.get('kind')!r}")
