"""Generators of point-pair sequences converging to a base point.

Four families are provided:

* ``COUNTEREXAMPLE_AB`` / ``COUNTEREXAMPLE_AC`` -- the classic family around
  the origin, built from A_k = (sin(1/k), 0) together with
  B_k = 2 sin(1/k) (cos(1/k), sin(1/k)) or C_k = 1.5 B_k. The angle between
  the two displacements is exactly 1/k, so the basis collapses as the points
  converge; on z = x^2 + y^2 the secant-plane coefficients approach (0, 1)
  and (0, 2) even though the tangent plane at the origin is z = 0.
* ``RADIAL_ORTHOGONAL`` -- walks in from a fixed unit direction with the
  geometric radius ``INITIAL_RADIUS * RADIUS_DECAY**(k - 1)``; the companion
  point is the exact +90 degree rotation, so the basis angle is pi/2 at every
  step.
* ``RANDOM_ANGLE_FLOOR`` -- two fresh uniformly random unit directions per
  step at the same geometric radius, resampled until the pair's sin(theta)
  clears the configured floor. Draws come from ``random.Random`` seeded with
  the string ``"secantplane:<seed>:<k>"`` (version-stable seeding), so each
  step is reproducible in isolation and across processes.

Generation refuses radii below :data:`MIN_RADIUS`: beneath ~1e-8 the
function-value differences f(P + d) - f(P) lose most significant bits in
binary64 and coefficient estimates turn into noise. The radial and random
kinds therefore stop at step 20, whose radius 0.1 * 0.5**19 is about 1.9e-7,
and the collapsing kinds at k = 9,999,999: sin(1/10**7) is below 1e-7.
"""

from __future__ import annotations

import math
import operator
import random
from collections import namedtuple
from enum import Enum

from .errors import InvalidSpec, RadiusUnderflow
from .geometry import Point2, Vec2, _det_normalized, _Validated, orthogonal_companion

#: Generators refuse steps whose radius would fall below this.
MIN_RADIUS = 1e-7
#: The radius of the first step of the radial and random kinds, and the ratio
#: of each step's radius to the one before.
INITIAL_RADIUS = 0.1
RADIUS_DECAY = 0.5

_RESAMPLE_CAP = 10_000

ORIGIN = Point2(0.0, 0.0)


def _integer(name: str, value) -> int:
    """``value`` as an ``int``: ints, bools and NumPy integers pass through
    ``operator.index``, and anything else, a whole float too, is rejected."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidSpec(f"{name} must be an integer, got {value!r}") from None


class SequenceKind(Enum):
    COUNTEREXAMPLE_AB = "counterexample-ab"
    COUNTEREXAMPLE_AC = "counterexample-ac"
    RADIAL_ORTHOGONAL = "radial"
    RANDOM_ANGLE_FLOOR = "random"


#: The collapsing-angle kinds and the scale of each one's companion: 2 for
#: B_k = 2 sin(1/k) (cos(1/k), sin(1/k)), and 3 for C_k = 1.5 B_k.
COMPANION_SCALES = {SequenceKind.COUNTEREXAMPLE_AB: 2.0, SequenceKind.COUNTEREXAMPLE_AC: 3.0}
#: The collapsing-angle kinds: pinned to the origin, exempt from the probe's floor.
FLOOR_EXEMPT_KINDS = tuple(COMPANION_SCALES)


class SequenceSpec(_Validated, namedtuple("SequenceSpec", "kind base angle_floor direction seed")):
    """A rule producing point pairs (a_k, b_k) -> base.

    ``direction`` is used by RADIAL_ORTHOGONAL and must be unit length;
    ``angle_floor`` and ``seed`` are used by RANDOM_ANGLE_FLOOR. ``seed`` must
    be an integer (``True`` is stored as 1), so equal specs draw equal
    streams. Both kinds step at the radii of :data:`INITIAL_RADIUS` and
    :data:`RADIUS_DECAY`. A random spec built without ``angle_floor`` keeps
    0.5: only ``probe.default_sequence_specs`` and the CLI's ``--seqs``
    apply ``probe.random_spec_floor``.
    The counterexample kinds are pinned to the origin; their radii are
    sin(1/k) and its :data:`COMPANION_SCALES` multiple by construction.
    """

    __slots__ = ()

    def __new__(cls, kind: SequenceKind, base: Point2 = ORIGIN, angle_floor: float = 0.5,
                direction: Vec2 = Vec2(1.0, 0.0), seed: int = 0):
        if not isinstance(kind, SequenceKind):
            raise InvalidSpec(f"unknown sequence kind {kind!r}")
        if not (0.0 < angle_floor < 1.0):
            raise InvalidSpec(f"angle_floor must be in (0, 1), got {angle_floor!r}")
        if abs(direction.norm() - 1.0) > 1e-12:
            raise InvalidSpec(f"direction must be unit length, |d|={direction.norm()!r}")
        seed = _integer("seed", seed)
        if seed < 0:
            raise InvalidSpec(f"seed must be non-negative, got {seed!r}")
        if kind in FLOOR_EXEMPT_KINDS and (base.x != 0.0 or base.y != 0.0):
            raise InvalidSpec("counterexample sequences are defined around the origin")
        return tuple.__new__(cls, (kind, base, angle_floor, direction, seed))


#: The two collapsing-angle pairings as specs, in COMPANION_SCALES order.
_PAIRING_SPECS = tuple(map(SequenceSpec, COMPANION_SCALES))


def counterexample_points(k: int) -> tuple[Point2, Point2, Point2]:
    """The k-th triple (A_k, B_k, C_k) of the collapsing-angle family.

    A_k = (sin(1/k), 0),
    B_k = (2 sin(1/k) cos(1/k), 2 sin^2(1/k)),
    C_k = (3 sin(1/k) cos(1/k), 3 sin^2(1/k)).

    All three tend to the origin as k grows, while the angle between
    A_k and B_k (or C_k) is exactly 1/k. The triple is built by
    :func:`generate` of the two pairings, so it stops where they do:
    k = 9,999,999 is the last step, and from k = 10**7 on sin(1/k) is below
    :data:`MIN_RADIUS` and ``RadiusUnderflow`` is raised.
    """
    ab, ac = _PAIRING_SPECS
    return (*generate(ab, k), generate(ac, k)[1])


def generate(spec: SequenceSpec, k: int) -> tuple[Point2, Point2]:
    """The k-th point pair ``(a_k, b_k)`` of the sequence described by ``spec``.

    Deterministic: identical spec (including seed) and k give bitwise
    identical points, regardless of query order.

    Raises:
        InvalidSpec: for a k that is not an integer (``True`` is step 1, as
            ``seed`` takes it), for k < 1, or for an exhausted resample loop.
        RadiusUnderflow: if the step's radius would fall below MIN_RADIUS.
    """
    if type(k) is not int:
        k = _integer("step index", k)
    if k < 1:
        raise InvalidSpec(f"step index must be >= 1, got {k!r}")

    if spec.kind in FLOOR_EXEMPT_KINDS:
        s = math.sin(1.0 / k)
        if s < MIN_RADIUS:
            raise RadiusUnderflow(
                f"counterexample radius sin(1/{k}) is below {MIN_RADIUS:g}")
        scale, c = COMPANION_SCALES[spec.kind], math.cos(1.0 / k)
        return Point2(s, 0.0), Point2(scale * s * c, scale * s * s)

    radius = INITIAL_RADIUS * RADIUS_DECAY ** (k - 1)
    if radius < MIN_RADIUS:
        raise RadiusUnderflow(
            f"radius {radius:.3e} at step {k} is below {MIN_RADIUS:g}")

    if spec.kind is SequenceKind.RADIAL_ORTHOGONAL:
        # The step needs no check of its own: a unit direction times at most
        # INITIAL_RADIUS is finite, and Point2 checks the sums.
        base, d = spec.base, spec.direction
        a = Point2(base.x + d.dx * radius, base.y + d.dy * radius)
        return a, orthogonal_companion(base, a)

    # RANDOM_ANGLE_FLOOR: per-step stream so steps are independent of each
    # other and of how many earlier steps were generated.
    # Candidates stay floats; _det_normalized checks them as angle_between
    # would. They are finite whenever the base is: a step of at most
    # INITIAL_RADIUS cannot round a finite coordinate past the largest double,
    # half of whose ulp is 2**970.
    rng = random.Random(f"secantplane:{spec.seed}:{k}")
    x0, y0 = spec.base.x, spec.base.y
    for _ in range(_RESAMPLE_CAP):
        phi_a = rng.uniform(0.0, math.tau)
        phi_b = rng.uniform(0.0, math.tau)
        ax, ay = x0 + math.cos(phi_a) * radius, y0 + math.sin(phi_a) * radius
        bx, by = x0 + math.cos(phi_b) * radius, y0 + math.sin(phi_b) * radius
        if abs(_det_normalized(ax - x0, ay - y0, bx - x0, by - y0)[0]) >= spec.angle_floor:
            return Point2(ax, ay), Point2(bx, by)
    raise InvalidSpec(
        f"could not draw a pair with sin(theta) >= {spec.angle_floor} "
        f"in {_RESAMPLE_CAP} attempts")
