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
from math import inf, isfinite
from typing import Callable

from .errors import DegenerateBasis, EvaluationError, ZeroVector

#: Reject bases with sin(theta) below this unless the caller overrides.
#: This is a numerical-safety floor (near-parallel columns), far below any
#: angle floor used to enforce the uniform linear independence condition.
DEFAULT_DEGENERACY_FLOOR = 1e-8

ScalarField = Callable[[float, float], float]


def _require_finite(**fields: float) -> None:
    # Called only once a fast check has failed, to name the offending field.
    for name, value in fields.items():
        if not isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Vec2:
    """A displacement in the domain plane."""

    dx: float
    dy: float

    def __post_init__(self):
        if not (isfinite(self.dx) and isfinite(self.dy)):
            _require_finite(dx=self.dx, dy=self.dy)

    def norm(self) -> float:
        return math.hypot(self.dx, self.dy)

    def is_zero(self) -> bool:
        return self.dx == 0.0 and self.dy == 0.0


@dataclass(frozen=True)
class Point2:
    """A point in the domain plane. Coordinates must be finite."""

    x: float
    y: float

    def __post_init__(self):
        if not (isfinite(self.x) and isfinite(self.y)):
            _require_finite(x=self.x, y=self.y)

    def __sub__(self, other: "Point2") -> Vec2:
        return Vec2(self.x - other.x, self.y - other.y)


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
        if not (isfinite(self.z_base) and isfinite(self.z_a) and isfinite(self.z_b)):
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
        if not (isfinite(self.x0) and isfinite(self.y0) and isfinite(self.z0)
                and isfinite(self.alpha) and isfinite(self.beta)):
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
    if not isfinite(value):
        raise EvaluationError(
            f"function returned non-finite value {value!r} at ({p.x}, {p.y})",
            point=p,
        )
    return value


def sample_function(f: ScalarField, base: Point2, a: Point2, b: Point2) -> SecantSample:
    """Build a :class:`SecantSample` by evaluating ``f`` at the three points."""
    return SecantSample(base, a, b,
                        field_value(f, base), field_value(f, a), field_value(f, b))


def _unit(dx: float, dy: float) -> tuple[float, float]:
    """The components of ``(dx, dy) / |(dx, dy)|`` for a nonzero vector."""
    n = math.hypot(dx, dy)
    if n < 2.0 ** -1022:
        # A subnormal norm is too coarse for a unit v / n; this scaling is exact.
        return _unit(dx * 2.0 ** 1000, dy * 2.0 ** 1000)
    if n == inf and isfinite(dx) and isfinite(dy):
        # Finite components whose norm overflows. Halved, their norm is below
        # 1.3e308, so this recurses once; halving is exact for every component
        # that does not round to 0 in the unit vector anyway.
        return _unit(dx * 0.5, dy * 0.5)
    return dx / n, dy / n


def _det_normalized(ux: float, uy: float, vx: float,
                    vy: float) -> tuple[float, float, float, float, float]:
    """The determinant of ``[u/|u| | v/|v|]``, then the components of both units.

    Validates the displacements as ``Vec2`` would, then as ``angle_between``
    would, with the same messages.

    Raises:
        ValueError: if a component is not finite.
        ZeroVector: if either displacement has zero length.
    """
    # A sum of finite values may overflow; the named check then finds nothing.
    if not isfinite(ux + uy + vx + vy):
        _require_finite(dx=ux, dy=uy)
        _require_finite(dx=vx, dy=vy)
    if ux == 0.0 and uy == 0.0:
        raise ZeroVector("first direction has zero length")
    if vx == 0.0 and vy == 0.0:
        raise ZeroVector("second direction has zero length")
    ux, uy = _unit(ux, uy)
    vx, vy = _unit(vx, vy)
    return ux * vy - uy * vx, ux, uy, vx, vy


def angle_between(u: Vec2, v: Vec2) -> BasisQuality:
    """Angle diagnostics between two nonzero directions.

    Raises:
        ZeroVector: if either direction has zero length.
    """
    det, ux, uy, vx, vy = _det_normalized(u.dx, u.dy, v.dx, v.dy)
    cos_theta = min(1.0, max(-1.0, ux * vx + uy * vy))
    # sin(theta) must track |det| to <= 1e-12 for all inputs, including
    # near-parallel directions where acos(cos_theta) alone loses half the
    # significant digits.
    theta = math.atan2(abs(det), cos_theta)
    return BasisQuality(sin_theta=abs(det), theta=theta, det_normalized=det)


def _solve(ux: float, uy: float, vx: float, vy: float, sin_theta: float, dz_a: float,
           dz_b: float, degeneracy_floor: float = DEFAULT_DEGENERACY_FLOOR) -> tuple[float, float]:
    """``(alpha, beta)`` of the plane through a base point and its companions.

    ``(ux, uy)`` and ``(vx, vy)`` are the displacements ``a - base`` and
    ``b - base``, ``sin_theta`` the basis angle ``_det_normalized`` gives for
    them, and ``dz_a``, ``dz_b`` the z-differences ``z_a - z_base`` and
    ``z_b - z_base``; the 2x2 system is solved with the adjugate formula.

    Raises:
        DegenerateBasis: if ``sin_theta`` falls below ``degeneracy_floor``.
        ValueError: if a coefficient overflows, named ``alpha`` or ``beta``
            as ``PlaneCoeffs`` would name it.
    """
    if sin_theta < degeneracy_floor:
        raise DegenerateBasis(
            f"secant basis sin(theta)={sin_theta:.6e} is below "
            f"the floor {degeneracy_floor:.6e}",
            sin_theta,
        )
    det = ux * vy - uy * vx
    unscale = 1.0
    if abs(dz_a) < 2.0 ** -960 and abs(dz_b) < 2.0 ** -960:
        # Their products would lose digits as subnormals; power-of-two scaling is exact.
        dz_a, dz_b, unscale = dz_a * 2.0 ** 1000, dz_b * 2.0 ** 1000, 2.0 ** -1000
    alpha = (dz_a * vy - dz_b * uy) / det * unscale
    beta = (dz_b * ux - dz_a * vx) / det * unscale
    if not (isfinite(alpha) and isfinite(beta)):
        _require_finite(alpha=alpha, beta=beta)
    return alpha, beta


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
    if not (degeneracy_floor > 0.0 and isfinite(degeneracy_floor)):
        raise ValueError("degeneracy_floor must be positive and finite")
    x0, y0 = s.base.x, s.base.y
    ux, uy, vx, vy = s.a.x - x0, s.a.y - y0, s.b.x - x0, s.b.y - y0
    sin_theta = abs(_det_normalized(ux, uy, vx, vy)[0])
    return PlaneCoeffs(x0, y0, s.z_base,
                       *_solve(ux, uy, vx, vy, sin_theta, s.z_a - s.z_base,
                               s.z_b - s.z_base, degeneracy_floor))


def plane_eval(c: PlaneCoeffs, q: Point2) -> float:
    """Height of the plane above ``q``."""
    return c.z0 + c.alpha * (q.x - c.x0) + c.beta * (q.y - c.y0)


def orthogonal_companion(base: Point2, a: Point2) -> Point2:
    """The companion point obtained by rotating ``a - base`` by +90 degrees.

    The construction guarantees, in exact arithmetic, a right angle and an
    equal radius: (B-base).(a-base) = 0 and |B-base| = |a-base|.

    Raises:
        ValueError: if a component of ``a - base`` overflows, named as the
            ``Vec2`` field ``dx`` or ``dy``.
        ZeroVector: if ``a`` coincides with ``base``.
    """
    dx, dy = a.x - base.x, a.y - base.y
    if not (isfinite(dx) and isfinite(dy)):
        _require_finite(dx=dx, dy=dy)
    if dx == 0.0 and dy == 0.0:
        raise ZeroVector("cannot build a companion for a zero displacement")
    return Point2(base.x - dy, base.y + dx)


def normalized_inverse_entry_bound(s: SecantSample) -> float:
    """Largest absolute entry of the inverse of the column-normalized basis.

    The normalized basis has unit columns, so its inverse is the adjugate
    divided by the determinant whose magnitude is sin(theta); the returned
    value never exceeds 1/sin(theta) (up to a few ulp of rounding).

    Raises:
        DegenerateBasis: if the directions are exactly parallel.
    """
    x0, y0 = s.base.x, s.base.y
    det, ux, uy, vx, vy = _det_normalized(s.a.x - x0, s.a.y - y0, s.b.x - x0, s.b.y - y0)
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
