"""Secant-plane derivative estimation and differentiability probing.

Estimate the total derivative of a scalar function of two variables from
three-point samples, enforce the uniform angle condition that makes the
limit of secant planes meaningful, and probe functions for
(non-)differentiability by driving secant planes toward a base point along
configurable point sequences.
"""

from .errors import (
    DegenerateBasis,
    EvaluationError,
    InvalidSpec,
    ParseError,
    RadiusUnderflow,
    ZeroVector,
)
from .expr import as_function as expression_function
from .expr import parse as parse_expression
from .geometry import (
    DEFAULT_DEGENERACY_FLOOR,
    BasisQuality,
    PlaneCoeffs,
    Point2,
    SecantSample,
    Vec2,
    angle_between,
    field_value,
    normalized_inverse_entry_bound,
    orthogonal_companion,
    plane_eval,
    residual_ratio,
    sample_function,
    secant_coefficients,
)
from .probe import (
    CoefficientTrajectory,
    ProbeConfig,
    ProbeReport,
    TrajectoryStep,
    Verdict,
    default_sequence_specs,
    probe,
    run_trajectory,
)
from .sequences import (
    MIN_RADIUS,
    SequenceKind,
    SequenceSpec,
    counterexample_points,
    generate,
)

__version__ = "0.1.0"

__all__ = [
    "BasisQuality",
    "CoefficientTrajectory",
    "DEFAULT_DEGENERACY_FLOOR",
    "DegenerateBasis",
    "EvaluationError",
    "InvalidSpec",
    "MIN_RADIUS",
    "ParseError",
    "PlaneCoeffs",
    "Point2",
    "ProbeConfig",
    "ProbeReport",
    "RadiusUnderflow",
    "SecantSample",
    "SequenceKind",
    "SequenceSpec",
    "TrajectoryStep",
    "Vec2",
    "Verdict",
    "ZeroVector",
    "angle_between",
    "counterexample_points",
    "default_sequence_specs",
    "expression_function",
    "field_value",
    "generate",
    "normalized_inverse_entry_bound",
    "orthogonal_companion",
    "parse_expression",
    "plane_eval",
    "probe",
    "residual_ratio",
    "run_trajectory",
    "sample_function",
    "secant_coefficients",
]
