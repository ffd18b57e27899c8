"""Differentiability probing via limits of secant-plane coefficients.

For a function differentiable at P, the secant coefficients along *any*
admissible pair of point sequences converge to the same row (the total
derivative), provided the basis angle stays uniformly bounded away from
collapse (sin(theta_k) >= p > 0). The probe samples finitely many sequences,
so a positive result is reported as ``CONSISTENT_WITH_DIFFERENTIABLE``, never
as a proof; disagreement between converged limits, however, is an honest
witness against differentiability.

Convergence of one trajectory is declared when every pair of the last
``TAIL_WINDOW`` coefficient vectors agrees within ``CAUCHY_TOL`` in max-norm.
The limit is then the final coefficient vector, and converged limits agree
when they lie within ``AGREE_TOL`` of each other. These three are module
constants, not settings: the theorem's only parameter is the angle floor p.
Because the minimum usable radius is ~1e-7 and the coefficient error of a
twice-differentiable function shrinks linearly with the radius, trajectory
limits carry an irreducible error of order 1e-7 times the curvature scale;
the tolerances sit an order of magnitude above that.

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
    PlaneCoeffs,
    Point2,
    ScalarField,
    SecantSample,
    Vec2,
    _det_normalized,
    _solve,
    field_value,
    secant_coefficients,
)
from .sequences import FLOOR_EXEMPT_KINDS, SequenceKind, SequenceSpec, _integer, generate


TAIL_WINDOW = 5     # trailing steps whose coefficients must agree
CAUCHY_TOL = 1e-4   # max-norm spread of that tail for a trajectory to converge
AGREE_TOL = 5e-6    # max-norm gap allowed between converged limits


class Verdict(Enum):
    CONSISTENT_WITH_DIFFERENTIABLE = "consistent-with-differentiable"
    CONTRADICTED = "contradicted"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ProbeConfig:
    """Probe parameters: the sequences, the angle floor and the step limit.

    ``angle_floor`` is the uniform linear-independence floor p: every
    non-counterexample spec must guarantee sin(theta) >= p by construction
    (radial specs have sin(theta) = 1; random specs must carry a floor at
    least this large). Counterexample kinds are exempt so the collapsing
    trajectories stay computable; their floor violations are flagged
    per step instead. ``max_steps`` must be an integer that leaves room for
    two tail windows.
    The stopping policy is fixed by the module constants ``TAIL_WINDOW``,
    ``CAUCHY_TOL`` and ``AGREE_TOL``.
    """

    sequence_specs: tuple[SequenceSpec, ...]
    angle_floor: float = 0.1
    max_steps: int = 40

    def __post_init__(self):
        object.__setattr__(self, "sequence_specs", tuple(self.sequence_specs))
        if len(self.sequence_specs) < 2:
            raise InvalidSpec("probing needs at least 2 sequence specs")
        if not (0.0 < self.angle_floor < 1.0):
            raise InvalidSpec(f"angle_floor must be in (0, 1), got {self.angle_floor!r}")
        object.__setattr__(self, "max_steps", _integer("max_steps", self.max_steps))
        if self.max_steps < 2 * TAIL_WINDOW:
            raise InvalidSpec("max_steps must be at least 2*tail_window = "
                              f"{2 * TAIL_WINDOW}, got {self.max_steps!r}")
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

    ``limit`` is present exactly when ``converged`` is true, and it is then
    the plane of the last step. No step is ever skipped as degenerate (see
    the module docstring), so ``steps`` holds every step taken, and
    ``radius_exhausted`` is true exactly when the minimum radius ended the
    trajectory before ``max_steps``, which leaves it fewer steps than that.
    """

    spec: SequenceSpec
    steps: tuple[TrajectoryStep, ...]
    converged: bool
    limit: Optional[PlaneCoeffs]
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
    1/sin(theta) near 1 keeps its limit error near the radial trajectories'.

    Applied by :func:`default_sequence_specs` and the CLI's ``--seqs`` only; a
    ``SequenceSpec(RANDOM_ANGLE_FLOOR)`` built without ``angle_floor`` keeps
    that field's default, 0.5."""
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
    """The largest max-norm distance between two of ``vectors`` (0.0 for
    fewer than two), computed as the largest component range.

    For finite inputs this equals the largest ``abs(u_i - v_i)`` over all
    pairs bit for bit: rounded subtraction is monotone, so no pair's gap in a
    component exceeds ``max - min`` of that component, and the (max, min)
    pair attains it. Where all of a component's values are equal, ``max``
    and ``min`` return the same element, so the range is ``+0.0``, never
    ``-0.0``. Every caller passes finite values: step coefficients and limits
    pass ``PlaneCoeffs`` validation.
    """
    return max((max(c) - min(c) for c in zip(*vectors)), default=0.0)


def _mean(values: Sequence[float]) -> float:
    """The mean of finite ``values``, finite even where their sum overflows."""
    total = sum(values)
    return total / len(values) if math.isfinite(total) else sum(v / len(values) for v in values)


def run_trajectory(f: ScalarField, base: Point2, spec: SequenceSpec,
                   cfg: ProbeConfig) -> CoefficientTrajectory:
    """Drive one sequence toward ``base`` and record the coefficient path.

    Floor-exempt (counterexample) kinds keep stepping past angle-floor
    violations, flagging them per step; any other kind violating the floor is
    a broken precondition and raises. A radius underflow ends the trajectory
    early with whatever was collected; that is the only way it ends before
    ``cfg.max_steps``. The trajectory converges when its last ``TAIL_WINDOW``
    coefficient vectors lie within ``CAUCHY_TOL`` of each other, and its limit
    is then the secant plane of the last step.

    Each step is one pass over plain floats: the pair from ``generate``, its
    displacements from ``base``, one basis angle, the floor test, ``f`` at
    ``a`` and then at ``b``, and the adjugate solve that
    ``secant_coefficients`` shares. The limit is ``secant_coefficients`` of
    the last step's sample, which gives the step's coefficients bit for bit.

    Raises:
        InvalidSpec: if ``spec.base`` differs from ``base``.
        DegenerateBasis: if a spec that is not floor-exempt violates the
            angle floor.
        EvaluationError: if ``f`` returns a non-finite value.
        ValueError: if a coefficient overflows, named as ``alpha`` or ``beta``.
    """
    if spec.base.x != base.x or spec.base.y != base.y:
        raise InvalidSpec(
            f"sequence spec base ({spec.base.x}, {spec.base.y}) does not match "
            f"the probed base ({base.x}, {base.y})")
    exempt = spec.kind in FLOOR_EXEMPT_KINDS
    x0, y0 = base.x, base.y
    z_base = field_value(f, base)

    steps: list[TrajectoryStep] = []
    for k in range(1, cfg.max_steps + 1):
        try:
            a, b = generate(spec, k)
        except RadiusUnderflow:
            break
        ux, uy, vx, vy = a.x - x0, a.y - y0, b.x - x0, b.y - y0
        sin_theta = abs(_det_normalized(ux, uy, vx, vy)[0])
        meets = sin_theta >= cfg.angle_floor
        if not meets and not exempt:
            raise DegenerateBasis(
                f"spec {spec.kind.value} violated the angle floor at step {k}",
                sin_theta)
        z_a, z_b = field_value(f, a), field_value(f, b)
        alpha, beta = _solve(ux, uy, vx, vy, sin_theta, z_a - z_base, z_b - z_base)
        # Positional: keyword construction costs about a quarter of the record.
        steps.append(TrajectoryStep(k, alpha, beta, sin_theta, math.hypot(ux, uy), meets))

    # The tail is full: max_steps is at least 2*TAIL_WINDOW, and no kind's
    # radius falls below MIN_RADIUS before step 21, so every trajectory has
    # at least that many steps.
    converged = _max_pairwise([(s.alpha, s.beta) for s in steps[-TAIL_WINDOW:]]) < CAUCHY_TOL
    # The last step's plane, by the solve that gave its coefficients.
    limit = secant_coefficients(SecantSample(base, a, b, z_base, z_a, z_b)) if converged else None
    return CoefficientTrajectory(
        spec=spec, steps=tuple(steps), converged=converged, limit=limit,
        floor_exempt=exempt, radius_exhausted=len(steps) < cfg.max_steps)


def probe(f: ScalarField, base: Point2, cfg: ProbeConfig) -> ProbeReport:
    """Probe ``f`` at ``base`` along every configured sequence.

    Verdict rules:

    * ``CONSISTENT_WITH_DIFFERENTIABLE`` -- at least two trajectories
      converged and all converged limits agree within ``AGREE_TOL``
      (max-norm, pairwise). The estimate is the component-wise mean of the
      converged limits, and residual ratios are reported at the retained
      radii of the first converged trajectory, probing along (1, 0).
    * ``CONTRADICTED`` -- at least two trajectories converged and some pair
      of limits disagrees by more than ``AGREE_TOL``.
    * ``INCONCLUSIVE`` -- fewer than two trajectories converged; there is
      nothing to corroborate or contradict.

    ``f`` is evaluated at most once per distinct point in one call, with
    coordinates compared bit for bit (0.0 and -0.0 differ), so it must return
    the same value at the same point. A default probe makes 121 calls:
    ``f(P)`` and two companions at each of 20 steps of three trajectories.
    The residual points are then the companions ``a_k`` of the radial (1, 0)
    trajectory and cost nothing more, except at a base with ``y = -0.0``,
    whose companions have ``y = +0.0``. The two collapsing-angle pairings
    share ``A_k``, so ``k`` steps of both make ``1 + 3k`` calls.

    Trajectories run as a deterministic fold in spec order; the whole report
    is bitwise reproducible for an identical configuration.
    """
    values: dict = {}

    def f_once(x, y):
        # A tuple compares 0.0 equal to -0.0, so a zero coordinate adds its sign.
        key = (x, y) if x and y else (x, y, math.copysign(1.0, x) < 0, math.copysign(1.0, y) < 0)
        value = values.get(key)
        if value is None:
            value = values[key] = f(x, y)
        return value

    trajectories = tuple(run_trajectory(f_once, base, spec, cfg)
                         for spec in cfg.sequence_specs)
    converged = [t for t in trajectories if t.converged]
    limits = [(t.limit.alpha, t.limit.beta) for t in converged]

    max_disagreement = _max_pairwise(limits)
    estimate: Optional[tuple[float, float]] = None
    residual_checks: tuple[tuple[float, float], ...] = ()

    if len(limits) < 2:
        verdict = Verdict.INCONCLUSIVE
    elif max_disagreement <= AGREE_TOL:
        verdict = Verdict.CONSISTENT_WITH_DIFFERENTIABLE
        estimate = (_mean([l[0] for l in limits]), _mean([l[1] for l in limits]))
        # residual_ratio along (r, 0): its beta*0.0 term and hypot(r, 0.0) = r
        # drop out exactly.
        z0, alpha = converged[0].limit.z0, estimate[0]
        residual_checks = tuple(
            (r, abs(field_value(f_once, Point2(base.x + r, base.y)) - z0 - alpha * r) / r)
            for r in (step.radius for step in converged[0].steps))
    else:
        verdict = Verdict.CONTRADICTED

    return ProbeReport(
        verdict=verdict, jacobian_estimate=estimate, trajectories=trajectories,
        max_disagreement=max_disagreement, residual_checks=residual_checks)
