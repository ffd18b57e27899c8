"""Exact 2D geometry and the secant-plane coefficient solve.

A secant sample is a base point P together with two companion points A, B and
the function values at all three. The secant plane is the unique affine plane
through the three graph points; its non-constant coefficients come from the
row-times-inverse solve

    [alpha, beta] = [f(A)-f(P), f(B)-f(P)] * M^-1,   M = [A-P | B-P]

where M is the 2x2 basis matrix with the displacements as columns. The solve
is written with the explicit adjugate/determinant formula so every
intermediate is inspectable and the conditioning story is transparent: the
inverse of the column-normalized basis has every entry bounded by
1/sin(theta), where theta is the angle between the displacements.

All reals are IEEE-754 binary64. Everything here is a pure function of its
inputs; values are immutable and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import DegenerateBasis, EvaluationError, ZeroVector

#: Reject bases with sin(theta) below this unless the caller overrides.
#: This is a numerical-safety floor (near-parallel columns), far below any
#: angle floor used to enforce the uniform linear independence condition.
DEFAULT_DEGENERACY_FLOOR = 1e-8

ScalarField = Callable[[float, float], float]


def _require_finite(**fields: float) -> None:
    for name, value in fields.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Vec2:
    """A displacement in the domain plane."""

    dx: float
    dy: float

    def __post_init__(self):
        _require_finite(dx=self.dx, dy=self.dy)

    def norm(self) -> float:
        return math.hypot(self.dx, self.dy)

    def dot(self, other: "Vec2") -> float:
        return self.dx * other.dx + self.dy * other.dy

    def scaled(self, s: float) -> "Vec2":
        return Vec2(self.dx * s, self.dy * s)

    def is_zero(self) -> bool:
        return self.dx == 0.0 and self.dy == 0.0


@dataclass(frozen=True)
class Point2:
    """A point in the domain plane. Coordinates must be finite."""

    x: float
    y: float

    def __post_init__(self):
        _require_finite(x=self.x, y=self.y)

    def __sub__(self, other: "Point2") -> Vec2:
        return Vec2(self.x - other.x, self.y - other.y)

    def translate(self, v: Vec2) -> "Point2":
        return Point2(self.x + v.dx, self.y + v.dy)


@dataclass(frozen=True)
class SecantSample:
    """Base point plus two companions with their function values.

    The companions must differ from the base as exact coordinate pairs;
    duplicates are rejected as :class:`ZeroVector` because they make the
    basis meaningless before any question of conditioning arises.
    """

    base: Point2
    a: Point2
    b: Point2
    z_base: float
    z_a: float
    z_b: float

    def __post_init__(self):
        _require_finite(z_base=self.z_base, z_a=self.z_a, z_b=self.z_b)
        if self.a.x == self.base.x and self.a.y == self.base.y:
            raise ZeroVector("companion a coincides with the base point")
        if self.b.x == self.base.x and self.b.y == self.base.y:
            raise ZeroVector("companion b coincides with the base point")

    def basis(self) -> tuple[Vec2, Vec2]:
        return (self.a - self.base, self.b - self.base)


@dataclass(frozen=True)
class PlaneCoeffs:
    """The affine plane z = z0 + alpha*(x - x0) + beta*(y - y0)."""

    x0: float
    y0: float
    z0: float
    alpha: float
    beta: float

    def __post_init__(self):
        _require_finite(x0=self.x0, y0=self.y0, z0=self.z0,
                        alpha=self.alpha, beta=self.beta)


@dataclass(frozen=True)
class BasisQuality:
    """Angle diagnostics for a pair of directions.

    ``sin_theta`` equals ``abs(det_normalized)`` by construction, and
    ``sin(theta)`` tracks it to better than 1e-12 absolute for all inputs,
    including nearly parallel ones.
    """

    sin_theta: float
    theta: float
    det_normalized: float


def field_value(f: ScalarField, p: Point2) -> float:
    """Evaluate a scalar field at a point, requiring a finite result."""
    value = float(f(p.x, p.y))
    if not math.isfinite(value):
        raise EvaluationError(
            f"function returned non-finite value {value!r} at ({p.x}, {p.y})",
            point=p,
        )
    return value


def sample_function(f: ScalarField, base: Point2, a: Point2, b: Point2) -> SecantSample:
    """Build a :class:`SecantSample` by evaluating ``f`` at the three points."""
    return SecantSample(base, a, b,
                        field_value(f, base), field_value(f, a), field_value(f, b))


def _unit(v: Vec2) -> tuple[float, float]:
    """The components of ``v / |v|`` for a nonzero ``v``."""
    n = v.norm()
    if n < 2.0 ** -1022:
        # A subnormal norm is too coarse for a unit v / n; this scaling is exact.
        return _unit(v.scaled(2.0 ** 1000))
    return v.dx / n, v.dy / n


def angle_between(u: Vec2, v: Vec2) -> BasisQuality:
    """Angle diagnostics between two nonzero directions.

    Raises:
        ZeroVector: if either direction has zero length.
    """
    if u.is_zero():
        raise ZeroVector("first direction has zero length")
    if v.is_zero():
        raise ZeroVector("second direction has zero length")
    ux, uy = _unit(u)
    vx, vy = _unit(v)
    det = ux * vy - uy * vx
    cos_theta = min(1.0, max(-1.0, ux * vx + uy * vy))
    # sin(theta) must track |det| to <= 1e-12 for all inputs, including
    # near-parallel directions where acos(cos_theta) alone loses half the
    # significant digits.
    theta = math.atan2(abs(det), cos_theta)
    return BasisQuality(sin_theta=abs(det), theta=theta, det_normalized=det)


def secant_coefficients(s: SecantSample,
                        degeneracy_floor: float = DEFAULT_DEGENERACY_FLOOR) -> PlaneCoeffs:
    """Coefficients of the plane through the three sample points.

    Solves the 2x2 system with the explicit adjugate formula. The returned
    plane reproduces all three sample values up to rounding at the scale of
    the largest intermediate product.

    Raises:
        DegenerateBasis: if sin(theta) of the basis falls below
            ``degeneracy_floor``; the exception carries the computed value.
    """
    if not (degeneracy_floor > 0.0 and math.isfinite(degeneracy_floor)):
        raise ValueError("degeneracy_floor must be positive and finite")
    u, v = s.basis()
    quality = angle_between(u, v)
    if quality.sin_theta < degeneracy_floor:
        raise DegenerateBasis(
            f"secant basis sin(theta)={quality.sin_theta:.6e} is below "
            f"the floor {degeneracy_floor:.6e}",
            quality.sin_theta,
        )
    det = u.dx * v.dy - u.dy * v.dx
    dz_a = s.z_a - s.z_base
    dz_b = s.z_b - s.z_base
    alpha = (dz_a * v.dy - dz_b * u.dy) / det
    beta = (dz_b * u.dx - dz_a * v.dx) / det
    return PlaneCoeffs(s.base.x, s.base.y, s.z_base, alpha, beta)


def plane_eval(c: PlaneCoeffs, q: Point2) -> float:
    """Height of the plane above ``q``."""
    return c.z0 + c.alpha * (q.x - c.x0) + c.beta * (q.y - c.y0)


def orthogonal_companion(base: Point2, a: Point2) -> Point2:
    """The companion point obtained by rotating ``a - base`` by +90 degrees.

    The construction guarantees, in exact arithmetic, a right angle and an
    equal radius: (B-base).(a-base) = 0 and |B-base| = |a-base|.

    Raises:
        ZeroVector: if ``a`` coincides with ``base``.
    """
    d = a - base
    if d.is_zero():
        raise ZeroVector("cannot build a companion for a zero displacement")
    return Point2(base.x - d.dy, base.y + d.dx)


def normalized_inverse_entry_bound(s: SecantSample) -> float:
    """Largest absolute entry of the inverse of the column-normalized basis.

    The normalized basis has unit columns, so its inverse is the adjugate
    divided by the determinant whose magnitude is sin(theta); the returned
    value never exceeds 1/sin(theta) (up to a few ulp of rounding).

    Raises:
        DegenerateBasis: if the directions are exactly parallel.
    """
    u, v = s.basis()
    ux, uy = _unit(u)
    vx, vy = _unit(v)
    det = ux * vy - uy * vx
    if det == 0.0:
        raise DegenerateBasis("parallel directions: normalized basis is singular", 0.0)
    return max(abs(vy), abs(vx), abs(uy), abs(ux)) / abs(det)


def residual_ratio(z_delta: float, j: PlaneCoeffs, delta: Vec2) -> float:
    """|z_delta - (alpha*dx + beta*dy)| / |delta|.

    This is the quantity whose vanishing (as |delta| -> 0) defines total
    differentiability with gradient part (alpha, beta).

    Raises:
        ZeroVector: if ``delta`` is the zero displacement.
    """
    n = delta.norm()
    if n == 0.0:
        raise ZeroVector("residual ratio is undefined for a zero increment")
    return abs(z_delta - (j.alpha * delta.dx + j.beta * delta.dy)) / n
