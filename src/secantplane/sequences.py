"""Generators of point-pair sequences converging to a base point.

Four families are provided:

* ``COUNTEREXAMPLE_AB`` / ``COUNTEREXAMPLE_AC`` -- the classic family around
  the origin, built from A_k = (sin(1/k), 0) together with
  B_k = 2 sin(1/k) (cos(1/k), sin(1/k)) or C_k = 1.5 B_k. The angle between
  the two displacements is exactly 1/k, so the basis collapses as the points
  converge; on z = x^2 + y^2 the secant-plane coefficients approach (0, 1)
  and (0, 2) even though the tangent plane at the origin is z = 0.
* ``RADIAL_ORTHOGONAL`` -- walks in from a fixed unit direction with
  geometrically decaying radius; the companion point is the exact +90 degree
  rotation, so the basis angle is pi/2 at every step.
* ``RANDOM_ANGLE_FLOOR`` -- two fresh uniformly random unit directions per
  step at the same geometric radius, resampled until the pair's sin(theta)
  clears the configured floor. Draws come from ``random.Random`` seeded with
  the string ``"secantplane:<seed>:<k>"`` (version-stable seeding), so each
  step is reproducible in isolation and across processes.

Generation refuses radii below :data:`MIN_RADIUS`: beneath ~1e-8 the
function-value differences f(P + d) - f(P) lose most significant bits in
binary64 and coefficient estimates turn into noise.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidSpec, RadiusUnderflow
from .geometry import Point2, Vec2, _det_normalized, orthogonal_companion

#: Generators refuse steps whose radius would fall below this.
MIN_RADIUS = 1e-7

_RESAMPLE_CAP = 10_000

ORIGIN = Point2(0.0, 0.0)


class SequenceKind(Enum):
    COUNTEREXAMPLE_AB = "counterexample-ab"
    COUNTEREXAMPLE_AC = "counterexample-ac"
    RADIAL_ORTHOGONAL = "radial"
    RANDOM_ANGLE_FLOOR = "random"


#: The collapsing-angle kinds: pinned to the origin, exempt from the probe's floor.
FLOOR_EXEMPT_KINDS = (SequenceKind.COUNTEREXAMPLE_AB, SequenceKind.COUNTEREXAMPLE_AC)


@dataclass(frozen=True)
class SequenceSpec:
    """A rule producing point pairs (a_k, b_k) -> base.

    ``direction`` is used by RADIAL_ORTHOGONAL and must be unit length;
    ``angle_floor`` and ``seed`` are used by RANDOM_ANGLE_FLOOR;
    the counterexample kinds are pinned to the origin and ignore the decay
    parameters (their radii are sin(1/k) and 2 sin(1/k) by construction).
    """

    kind: SequenceKind
    base: Point2 = ORIGIN
    angle_floor: float = 0.5
    direction: Vec2 = Vec2(1.0, 0.0)
    decay: float = 0.5
    initial_radius: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.kind, SequenceKind):
            raise InvalidSpec(f"unknown sequence kind {self.kind!r}")
        if not (0.0 < self.decay < 1.0):
            raise InvalidSpec(f"decay must be in (0, 1), got {self.decay!r}")
        if not (self.initial_radius > 0.0 and math.isfinite(self.initial_radius)):
            raise InvalidSpec(f"initial_radius must be positive, got {self.initial_radius!r}")
        if not (0.0 < self.angle_floor < 1.0):
            raise InvalidSpec(f"angle_floor must be in (0, 1), got {self.angle_floor!r}")
        if abs(self.direction.norm() - 1.0) > 1e-12:
            raise InvalidSpec(f"direction must be unit length, |d|={self.direction.norm()!r}")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be non-negative, got {self.seed!r}")
        if self.kind in FLOOR_EXEMPT_KINDS and (self.base.x != 0.0 or self.base.y != 0.0):
            raise InvalidSpec("counterexample sequences are defined around the origin")


@dataclass(frozen=True)
class PointPair:
    a: Point2
    b: Point2
    k: int


def counterexample_points(k: int) -> tuple[Point2, Point2, Point2]:
    """The k-th triple (A_k, B_k, C_k) of the collapsing-angle family.

    A_k = (sin(1/k), 0),
    B_k = (2 sin(1/k) cos(1/k), 2 sin^2(1/k)),
    C_k = (3 sin(1/k) cos(1/k), 3 sin^2(1/k)).

    All three tend to the origin as k grows, while the angle between
    A_k and B_k (or C_k) is exactly 1/k.
    """
    if k < 1:
        raise InvalidSpec(f"step index must be >= 1, got {k!r}")
    s = math.sin(1.0 / k)
    c = math.cos(1.0 / k)
    return (
        Point2(s, 0.0),
        Point2(2.0 * s * c, 2.0 * s * s),
        Point2(3.0 * s * c, 3.0 * s * s),
    )


def generate(spec: SequenceSpec, k: int) -> PointPair:
    """The k-th point pair of the sequence described by ``spec``.

    Deterministic: identical spec (including seed) and k give bitwise
    identical points, regardless of query order.

    Raises:
        InvalidSpec: for k < 1 or an exhausted resample loop.
        RadiusUnderflow: if the step's radius would fall below MIN_RADIUS.
    """
    if k < 1:
        raise InvalidSpec(f"step index must be >= 1, got {k!r}")

    if spec.kind in FLOOR_EXEMPT_KINDS:
        a, b, c = counterexample_points(k)
        if a.x < MIN_RADIUS:
            raise RadiusUnderflow(
                f"counterexample radius sin(1/{k}) is below {MIN_RADIUS:g}")
        other = b if spec.kind is SequenceKind.COUNTEREXAMPLE_AB else c
        return PointPair(a, other, k)

    radius = spec.initial_radius * spec.decay ** (k - 1)
    if radius < MIN_RADIUS:
        raise RadiusUnderflow(
            f"radius {radius:.3e} at step {k} is below {MIN_RADIUS:g}")

    if spec.kind is SequenceKind.RADIAL_ORTHOGONAL:
        a = spec.base.translate(spec.direction.scaled(radius))
        b = orthogonal_companion(spec.base, a)
        return PointPair(a, b, k)

    # RANDOM_ANGLE_FLOOR: per-step stream so steps are independent of each
    # other and of how many earlier steps were generated.
    # Candidates stay floats; they get the checks that Point2 and angle_between make.
    rng = random.Random(f"secantplane:{spec.seed}:{k}")
    x0, y0 = spec.base.x, spec.base.y
    for _ in range(_RESAMPLE_CAP):
        phi_a = rng.uniform(0.0, math.tau)
        phi_b = rng.uniform(0.0, math.tau)
        ax, ay = x0 + math.cos(phi_a) * radius, y0 + math.sin(phi_a) * radius
        bx, by = x0 + math.cos(phi_b) * radius, y0 + math.sin(phi_b) * radius
        if not math.isfinite(ax + ay + bx + by):
            Point2(ax, ay)   # each raises for its first non-finite coordinate
            Point2(bx, by)
        if abs(_det_normalized(ax - x0, ay - y0, bx - x0, by - y0)[0]) >= spec.angle_floor:
            return PointPair(Point2(ax, ay), Point2(bx, by), k)
    raise InvalidSpec(
        f"could not draw a pair with sin(theta) >= {spec.angle_floor} "
        f"in {_RESAMPLE_CAP} attempts")
