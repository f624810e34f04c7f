"""Guaranteed set-membership state estimation for LTI systems driven by
unknown-but-bounded inputs.

The estimator decomposes the state space into a strongly observable part,
reconstructed by an unknown-input observer fed from a high-gain derivative
bank with an analytic error envelope, and a weakly unobservable part,
tracked by a discrete ellipsoidal set-membership observer; the two set
estimates are fused into one bounding ellipsoid with certified size bounds.
"""

from .certificates import AssumptionConstants, CertificateReport, certify
from .decomposition import (Decomposition, LtiSystem, build_decomposition,
                            select_derivative_order,
                            weakly_unobservable_subspace)
from .ellipsoid import (Ellipsoid, axis_bounds, inverse_factors,
                        quadratic_forms, volume)
from .errors import ObserverError
from .fusion import fuse
from .generators import ShapeGenerator, SignalGenerator, Term
from .hgo import HgoConfig, decay_constants, design_hgo
from .pipeline import (DesignArtifacts, RunResult, build_design,
                       certify_scenario, emit_plot_data, emit_traces,
                       monte_carlo_containment, parse_traces, run_algorithm1)
from .scenario import (BUILTIN_SCENARIOS, CertOptions, HgoSettings,
                       ScenarioConfig, example1, example2)
from .uio import (Epsilon1Evaluator, ErrorBoundParams, UioDesign,
                  solve_uio_gain)
from .weak import measurement_update, optimize_beta, propagate, stacking_gain

__version__ = "0.1.0"

__all__ = [
    "AssumptionConstants", "CertificateReport", "certify",
    "Decomposition", "LtiSystem", "build_decomposition",
    "select_derivative_order", "weakly_unobservable_subspace",
    "Ellipsoid", "axis_bounds", "inverse_factors", "quadratic_forms",
    "volume",
    "ObserverError",
    "fuse",
    "ShapeGenerator", "SignalGenerator", "Term",
    "HgoConfig", "decay_constants", "design_hgo",
    "DesignArtifacts", "RunResult", "build_design",
    "certify_scenario", "emit_plot_data", "emit_traces",
    "monte_carlo_containment", "parse_traces", "run_algorithm1",
    "BUILTIN_SCENARIOS", "CertOptions", "HgoSettings", "ScenarioConfig",
    "example1", "example2",
    "Epsilon1Evaluator", "ErrorBoundParams", "UioDesign", "solve_uio_gain",
    "measurement_update", "optimize_beta", "propagate", "stacking_gain",
    "__version__",
]
