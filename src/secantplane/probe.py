"""Differentiability probing via limits of secant-plane coefficients.

For a function differentiable at P, the secant coefficients along *any*
admissible pair of point sequences converge to the same row (the total
derivative), provided the basis angle stays uniformly bounded away from
collapse (sin(theta_k) >= p > 0). The probe samples finitely many sequences,
so a positive result is reported as ``CONSISTENT_WITH_DIFFERENTIABLE``, never
as a proof; disagreement between converged limits, however, is an honest
witness against differentiability.

Convergence of one trajectory is declared when every pair of the last
``tail_window`` coefficient vectors agrees within ``cauchy_tol`` in max-norm.
The limit is then the final coefficient vector. Because the minimum usable
radius is ~1e-7 and the coefficient error of a twice-differentiable function
shrinks linearly with the radius, trajectory limits carry an irreducible
error of order 1e-7 times the curvature scale; the default tolerances sit an
order of magnitude above that.

No step is ever skipped as degenerate. A spec that is not floor-exempt must
meet the angle floor p at every step or the probe raises. The floor-exempt
(counterexample) kinds have a basis angle of exactly 1/k and stop once
sin(1/k) falls below the minimum radius 1e-7, so every step they take has
sin(theta) above the library's degeneracy floor 1e-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .errors import DegenerateBasis, InvalidSpec, RadiusUnderflow
from .geometry import (
    DEFAULT_DEGENERACY_FLOOR,
    PlaneCoeffs,
    Point2,
    ScalarField,
    SecantSample,
    Vec2,
    _det_normalized,
    field_value,
    residual_ratio,
    secant_coefficients,
)
from .sequences import FLOOR_EXEMPT_KINDS, SequenceKind, SequenceSpec, generate


class Verdict(Enum):
    CONSISTENT_WITH_DIFFERENTIABLE = "consistent-with-differentiable"
    CONTRADICTED = "contradicted"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ProbeConfig:
    """Probe parameters.

    ``angle_floor`` is the uniform linear-independence floor p: every
    non-counterexample spec must guarantee sin(theta) >= p by construction
    (radial specs have sin(theta) = 1; random specs must carry a floor at
    least this large). Counterexample kinds are exempt so the collapsing
    trajectories stay computable; their floor violations are flagged
    per step instead.
    """

    sequence_specs: tuple[SequenceSpec, ...]
    angle_floor: float = 0.1
    max_steps: int = 40
    tail_window: int = 5
    cauchy_tol: float = 1e-4
    agree_tol: float = 5e-6

    def __post_init__(self):
        object.__setattr__(self, "sequence_specs", tuple(self.sequence_specs))
        if len(self.sequence_specs) < 2:
            raise InvalidSpec("probing needs at least 2 sequence specs")
        if not (0.0 < self.angle_floor < 1.0):
            raise InvalidSpec(f"angle_floor must be in (0, 1), got {self.angle_floor!r}")
        if self.max_steps < 8:
            raise InvalidSpec(f"max_steps must be >= 8, got {self.max_steps!r}")
        if self.tail_window < 2:
            raise InvalidSpec(f"tail_window must be >= 2, got {self.tail_window!r}")
        if self.tail_window > self.max_steps / 2:
            raise InvalidSpec("tail_window must not exceed max_steps/2")
        for name in ("cauchy_tol", "agree_tol"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise InvalidSpec(f"{name} must be positive and finite, got {value!r}")
        for spec in self.sequence_specs:
            if (spec.kind is SequenceKind.RANDOM_ANGLE_FLOOR
                    and spec.angle_floor < self.angle_floor):
                raise InvalidSpec(
                    "random sequence spec must guarantee the probe's angle floor "
                    f"({spec.angle_floor} < {self.angle_floor})")


@dataclass(frozen=True)
class TrajectoryStep:
    k: int
    alpha: float
    beta: float
    sin_theta: float
    radius: float
    meets_floor: bool


@dataclass(frozen=True)
class CoefficientTrajectory:
    """Per-step coefficient records along one sequence spec.

    ``limit`` is present exactly when ``converged`` is true.
    ``degenerate_steps`` is always empty: no step can fall below the library
    degeneracy floor (see the module docstring). The field stays because
    the report schema only ever gains fields.
    """

    spec: SequenceSpec
    steps: tuple[TrajectoryStep, ...]
    converged: bool
    limit: Optional[PlaneCoeffs]
    degenerate_steps: tuple[int, ...]
    floor_exempt: bool
    radius_exhausted: bool


@dataclass(frozen=True)
class ProbeReport:
    verdict: Verdict
    jacobian_estimate: Optional[tuple[float, float]]
    trajectories: tuple[CoefficientTrajectory, ...]
    max_disagreement: float
    residual_checks: tuple[tuple[float, float], ...]


def random_spec_floor(angle_floor: float) -> float:
    """The floor of a random spec that sets none: keeping its conditioning
    1/sin(theta) near 1 keeps its limit error near the radial trajectories'."""
    return max(0.7, angle_floor)


def default_sequence_specs(base: Point2, angle_floor: float = ProbeConfig.angle_floor,
                           seed: int = 0) -> tuple[SequenceSpec, ...]:
    """Two orthogonal radial approaches plus one random-direction approach."""
    diag = math.sqrt(0.5)
    return (
        SequenceSpec(SequenceKind.RADIAL_ORTHOGONAL, base=base,
                     direction=Vec2(1.0, 0.0)),
        SequenceSpec(SequenceKind.RADIAL_ORTHOGONAL, base=base,
                     direction=Vec2(diag, diag)),
        SequenceSpec(SequenceKind.RANDOM_ANGLE_FLOOR, base=base,
                     angle_floor=random_spec_floor(angle_floor), seed=seed),
    )


def _max_pairwise(vectors: Sequence[tuple[float, float]]) -> float:
    worst = 0.0
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            da = abs(vectors[i][0] - vectors[j][0])
            db = abs(vectors[i][1] - vectors[j][1])
            worst = max(worst, da, db)
    return worst


def run_trajectory(f: ScalarField, base: Point2, spec: SequenceSpec,
                   cfg: ProbeConfig) -> CoefficientTrajectory:
    """Drive one sequence toward ``base`` and record the coefficient path.

    Floor-exempt (counterexample) kinds keep stepping past angle-floor
    violations, flagging them per step; any other kind violating the floor is
    a broken precondition and raises. A radius underflow ends the trajectory
    early with whatever was collected.

    Raises:
        InvalidSpec: if ``spec.base`` differs from ``base``.
        EvaluationError: if ``f`` returns a non-finite value.
    """
    if spec.base.x != base.x or spec.base.y != base.y:
        raise InvalidSpec(
            f"sequence spec base ({spec.base.x}, {spec.base.y}) does not match "
            f"the probed base ({base.x}, {base.y})")
    exempt = spec.kind in FLOOR_EXEMPT_KINDS
    z_base = field_value(f, base)

    steps: list[TrajectoryStep] = []
    exhausted = False
    for k in range(1, cfg.max_steps + 1):
        try:
            pair = generate(spec, k)
        except RadiusUnderflow:
            exhausted = True
            break
        ux, uy = pair.a.x - base.x, pair.a.y - base.y
        sin_theta = abs(_det_normalized(ux, uy, pair.b.x - base.x, pair.b.y - base.y)[0])
        meets = sin_theta >= cfg.angle_floor
        if not meets and not exempt:
            raise DegenerateBasis(
                f"spec {spec.kind.value} violated the angle floor at step {k}",
                sin_theta)
        sample = SecantSample(base, pair.a, pair.b, z_base,
                              field_value(f, pair.a), field_value(f, pair.b))
        coeffs = secant_coefficients(sample, DEFAULT_DEGENERACY_FLOOR)
        steps.append(TrajectoryStep(
            k=k, alpha=coeffs.alpha, beta=coeffs.beta,
            sin_theta=sin_theta, radius=math.hypot(ux, uy),
            meets_floor=meets))

    converged = False
    limit: Optional[PlaneCoeffs] = None
    if len(steps) >= cfg.tail_window:
        tail = [(s.alpha, s.beta) for s in steps[-cfg.tail_window:]]
        converged = _max_pairwise(tail) < cfg.cauchy_tol
        if converged:
            limit = PlaneCoeffs(base.x, base.y, z_base,
                                steps[-1].alpha, steps[-1].beta)
    return CoefficientTrajectory(
        spec=spec, steps=tuple(steps), converged=converged, limit=limit,
        degenerate_steps=(), floor_exempt=exempt,
        radius_exhausted=exhausted)


def probe(f: ScalarField, base: Point2, cfg: ProbeConfig) -> ProbeReport:
    """Probe ``f`` at ``base`` along every configured sequence.

    Verdict rules:

    * ``CONSISTENT_WITH_DIFFERENTIABLE`` -- at least two trajectories
      converged and all converged limits agree within ``agree_tol``
      (max-norm, pairwise). The estimate is the component-wise mean of the
      converged limits, and residual ratios are reported at the retained
      radii of the first converged trajectory, probing along (1, 0).
    * ``CONTRADICTED`` -- at least two trajectories converged and some pair
      of limits disagrees by more than ``agree_tol``.
    * ``INCONCLUSIVE`` -- fewer than two trajectories converged; there is
      nothing to corroborate or contradict.

    Trajectories run as a deterministic fold in spec order; the whole report
    is bitwise reproducible for an identical configuration.
    """
    trajectories = tuple(run_trajectory(f, base, spec, cfg)
                         for spec in cfg.sequence_specs)
    converged = [t for t in trajectories if t.converged]
    limits = [(t.limit.alpha, t.limit.beta) for t in converged]

    max_disagreement = _max_pairwise(limits)
    estimate: Optional[tuple[float, float]] = None
    residual_checks: tuple[tuple[float, float], ...] = ()

    if len(limits) < 2:
        verdict = Verdict.INCONCLUSIVE
    elif max_disagreement <= cfg.agree_tol:
        verdict = Verdict.CONSISTENT_WITH_DIFFERENTIABLE
        estimate = (sum(l[0] for l in limits) / len(limits),
                    sum(l[1] for l in limits) / len(limits))
        plane = PlaneCoeffs(base.x, base.y, converged[0].limit.z0, *estimate)
        checks = []
        for step in converged[0].steps:
            r = step.radius
            z_delta = field_value(f, Point2(base.x + r, base.y)) - plane.z0
            checks.append((r, residual_ratio(z_delta, plane, Vec2(r, 0.0))))
        residual_checks = tuple(checks)
    else:
        verdict = Verdict.CONTRADICTED

    return ProbeReport(
        verdict=verdict, jacobian_estimate=estimate, trajectories=trajectories,
        max_disagreement=max_disagreement, residual_checks=residual_checks)
