"""Secant-plane derivative estimation and differentiability probing.

Estimate the total derivative of a scalar function of two variables from
three-point samples, enforce the uniform angle condition that makes the
limit of secant planes meaningful, and probe functions for
(non-)differentiability by driving secant planes toward a base point along
configurable point sequences.
"""

from types import ModuleType as _ModuleType

from . import expr
from .errors import (
    DegenerateBasis,
    EvaluationError,
    InvalidSpec,
    ParseError,
    RadiusUnderflow,
    ZeroVector,
)
from .geometry import (
    DEFAULT_DEGENERACY_FLOOR,
    BasisQuality,
    PlaneCoeffs,
    Point2,
    SecantSample,
    Vec2,
    angle_between,
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

# The public names bound above: the imported objects, not the submodules.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
