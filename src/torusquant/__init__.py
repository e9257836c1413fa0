"""Numerical star products and Toeplitz quantization on the torus R^2n / Z^2n.

The package has three layers: exact symbol algebra on trigonometric
polynomials (``trigpoly``, ``funcexpr``, ``starprod``), finite-dimensional
quantization at level k (``quantize``), and convergence experiments with
reporting (``analysis``, ``config``, ``reporting``, ``checks``, ``cli``).
"""

from .analysis import (
    ConvergenceReport,
    L2Reading,
    L2RouteError,
    NormKind,
    PowerIterationWarning,
    SlopeFit,
    SweepPoint,
    TooFewPointsError,
    certified_l2_norm,
    error_intertwine,
    error_product,
    fit_slope,
    lattice_mean,
    operator_norm,
    riemann_sum_error,
    run_experiment,
    spectral_norm,
    superpoly_decay_ok,
    torus_relation_defects,
    trace_error,
)
from .config import ConfigError, ExperimentConfig, FunctionSpec, config_hash, parse_config
from .funcexpr import ExpressionError, ProjectionSpec, parse, project
from .quantize import (
    DiagonalOperator,
    HilbertSpec,
    Polarization,
    PolarizationError,
    QuantumOperator,
    assemble_toeplitz,
    intertwine,
    quantum_torus_generators,
    toeplitz_diagonals,
)
from .starprod import (
    HbarSeries,
    HbarValue,
    Orientation,
    berezin_exact,
    berezin_truncated,
    bidifferential,
    equivalence_map,
    star_exact,
    star_trace,
    star_truncated,
)
from .trigpoly import (
    DimensionMismatchError,
    TrigPoly,
    poisson_bracket,
    random_trig_poly,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConvergenceReport",
    "DiagonalOperator",
    "DimensionMismatchError",
    "ExperimentConfig",
    "ExpressionError",
    "FunctionSpec",
    "HbarSeries",
    "HbarValue",
    "HilbertSpec",
    "L2Reading",
    "L2RouteError",
    "NormKind",
    "Orientation",
    "Polarization",
    "PolarizationError",
    "PowerIterationWarning",
    "ProjectionSpec",
    "QuantumOperator",
    "SlopeFit",
    "SweepPoint",
    "TooFewPointsError",
    "TrigPoly",
    "assemble_toeplitz",
    "berezin_exact",
    "berezin_truncated",
    "bidifferential",
    "certified_l2_norm",
    "config_hash",
    "equivalence_map",
    "error_intertwine",
    "error_product",
    "fit_slope",
    "intertwine",
    "lattice_mean",
    "operator_norm",
    "parse",
    "parse_config",
    "poisson_bracket",
    "project",
    "quantum_torus_generators",
    "random_trig_poly",
    "riemann_sum_error",
    "run_experiment",
    "spectral_norm",
    "star_exact",
    "star_trace",
    "star_truncated",
    "superpoly_decay_ok",
    "toeplitz_diagonals",
    "torus_relation_defects",
    "trace_error",
]
