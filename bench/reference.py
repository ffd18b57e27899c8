"""Results computed apart from the library, and the error bounds the checks use.

Gradients and Hessians of the smooth expressions are written out by hand.
The error of a secant-plane limit taken at radius ``r`` with basis angle
``theta`` is at most ``r * |H| / sin(theta)`` from curvature (second-order
Taylor term through the adjugate solve, whose normalised inverse has entries
of at most ``1/sin(theta)``) plus a rounding term ``16 eps |f| / (r sin(theta))``.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

EPS = sys.float_info.epsilon

# Probe parameters at the time the benchmark was defined.  Inputs are drawn
# with these constants, never with values read from the program, so every
# commit is measured on the same inputs.
R_LAST = 0.1 * 0.5 ** 19    # last radius of a default trajectory
AGREE_TOL = 5e-6            # default agree_tol
SIN_MIN = 0.7               # angle floor of the default random spec


def _quadratic(scale: float = 1.0, shift: float = 0.0):
    return (lambda x, y: scale * (x * x + y * y) + shift,
            lambda x, y: (2 * scale * x, 2 * scale * y),
            lambda x, y: (2 * scale, 0.0, 2 * scale))


def _exp_mix():
    def value(x, y):
        return math.sin(x) * math.cos(y) + math.exp(x - 2 * y)

    def grad(x, y):
        e = math.exp(x - 2 * y)
        return (math.cos(x) * math.cos(y) + e, -math.sin(x) * math.sin(y) - 2 * e)

    def hess(x, y):
        e = math.exp(x - 2 * y)
        sc = math.sin(x) * math.cos(y)
        return (-sc + e, -math.cos(x) * math.sin(y) - 2 * e, -sc + 4 * e)

    return value, grad, hess


def _log_sqrt():
    def parts(x, y):
        q = 1 + x * x + y * y
        s = math.sqrt(4 + x * y)
        return q, math.log(q), s

    def value(x, y):
        _, lg, s = parts(x, y)
        return lg * s

    def grad(x, y):
        q, lg, s = parts(x, y)
        return (2 * x / q * s + lg * y / (2 * s), 2 * y / q * s + lg * x / (2 * s))

    def hess(x, y):
        q, lg, s = parts(x, y)
        lx, ly = 2 * x / q, 2 * y / q
        sx, sy = y / (2 * s), x / (2 * s)
        lxx = 2 / q - 4 * x * x / q ** 2
        lyy = 2 / q - 4 * y * y / q ** 2
        lxy = -4 * x * y / q ** 2
        sxx = -y * y / (4 * s ** 3)
        syy = -x * x / (4 * s ** 3)
        sxy = 1 / (2 * s) - x * y / (4 * s ** 3)
        return (lxx * s + 2 * lx * sx + lg * sxx,
                lxy * s + lx * sy + ly * sx + lg * sxy,
                lyy * s + 2 * ly * sy + lg * syy)

    return value, grad, hess


def _cubic_tan():
    # abs(x+2) is x+2 on the whole sampling square, where x >= -1.
    def value(x, y):
        return x ** 3 * y - math.tan(0.3 * y) + abs(x + 2)

    def grad(x, y):
        return (3 * x * x * y + 1.0, x ** 3 - 0.3 / math.cos(0.3 * y) ** 2)

    def hess(x, y):
        t = math.tan(0.3 * y)
        return (6 * x * y, 3 * x * x, -0.18 * t / math.cos(0.3 * y) ** 2)

    return value, grad, hess


def _one_d(value, d1, d2):
    return (lambda x, y: value(x),
            lambda x, y: (d1(x), 0.0),
            lambda x, y: (d2(x), 0.0, 0.0))


#: Smooth expressions: source -> (value, gradient, Hessian (fxx, fxy, fyy)).
SMOOTH = {
    "sin(x)*cos(y)+exp(x-2*y)": _exp_mix(),
    "x^2+y^2": _quadratic(),
    "log(1+x^2+y^2)*sqrt(4+x*y)": _log_sqrt(),
    "x^3*y-tan(0.3*y)+abs(x+2)": _cubic_tan(),
    "x^2+y^2+2e4": _quadratic(shift=2e4),
    "x^2+y^2+5e4": _quadratic(shift=5e4),
    "x^2+y^2+1e5": _quadratic(shift=1e5),
    "1e3*(x^2+y^2)": _quadratic(scale=1e3),
    "exp(5*x)": _one_d(lambda x: math.exp(5 * x), lambda x: 5 * math.exp(5 * x),
                       lambda x: 25 * math.exp(5 * x)),
    "sin(100*x)": _one_d(lambda x: math.sin(100 * x), lambda x: 100 * math.cos(100 * x),
                         lambda x: -1e4 * math.sin(100 * x)),
}

#: The four expressions probed at seeded points.
SEEDED_EXPRESSIONS = ("sin(x)*cos(y)+exp(x-2*y)", "x^2+y^2",
                      "log(1+x^2+y^2)*sqrt(4+x*y)", "x^3*y-tan(0.3*y)+abs(x+2)")

#: Cases that fail every time with absolute cauchy_tol/agree_tol and limits
#: taken at the last radius; probed with the default specs, random seed 0.
KNOWN_FAULTS = (
    ("x^2+y^2+2e4", 1.0, 2.0),
    ("x^2+y^2+5e4", 1.0, 2.0),
    ("x^2+y^2+1e5", 1.0, 2.0),
    ("1e3*(x^2+y^2)", 1.0, 2.0),
    ("exp(5*x)", 1.0, 0.0),
    ("sin(100*x)", 0.3, 0.0),
    ("x^2+y^2", 1e6, 0.0),
    ("sin(x)*cos(y)+exp(x-2*y)", 0.75, -0.75),
    ("sin(x)*cos(y)+exp(x-2*y)", 1.0, -1.0),
)


def spectral_norm(h) -> float:
    fxx, fxy, fyy = h
    return abs(fxx + fyy) / 2 + math.hypot((fxx - fyy) / 2, fxy)


def limit_error_bound(source: str, x: float, y: float, r: float) -> float:
    """Largest error of one trajectory's limit taken at radius ``r``."""
    value, _, hess = SMOOTH[source]
    return (r * spectral_norm(hess(x, y))
            + 16 * EPS * (abs(value(x, y)) + 1) / r) / SIN_MIN


def within_promise(source: str, x: float, y: float) -> bool:
    """True where two default trajectories provably agree within agree_tol.

    Outside this region the verdict of the absolute tolerance depends on the
    random spec's seed, so a seeded point there could fail on some seeds only.
    """
    return 2 * limit_error_bound(source, x, y, R_LAST) < AGREE_TOL


def check_gradient(source, x, y, estimate, r_last):
    """None if ``estimate`` is the gradient within the bound at ``r_last``."""
    if estimate is None:
        return "no estimate"
    gx, gy = SMOOTH[source][1](x, y)
    tol = limit_error_bound(source, x, y, r_last)
    err = max(abs(estimate[0] - gx), abs(estimate[1] - gy))
    if not err <= tol:
        return f"estimate {estimate} is {err:.3g} from the gradient ({gx}, {gy}), tolerance {tol:.3g}"
    return None


# -- piecewise-linear functions ----------------------------------------

def _d_abs(c: float, u: float) -> float:
    """One-sided derivative of |t| at c in direction u."""
    return u if c > 0 else -u if c < 0 else abs(u)


#: Kinked functions: source -> one-sided directional derivative at (x, y).
KINKED = {
    "abs(x)-abs(y)": lambda x, y, u: _d_abs(x, u[0]) - _d_abs(y, u[1]),
    "abs(x)+y": lambda x, y, u: _d_abs(x, u[0]) + u[1],
    "sqrt(x^2+y^2)": lambda x, y, u: math.hypot(*u) if x == 0 == y else (x * u[0] + y * u[1]) / math.hypot(x, y),
}


def radial_limit(source: str, x: float, y: float, direction) -> tuple[float, float]:
    """Limit of the radial trajectory with its +90 degree companion.

    On a piecewise-linear function every step solves the same system, whose
    right-hand side is the pair of one-sided directional derivatives.
    """
    n = math.hypot(*direction)
    u = (direction[0] / n, direction[1] / n)
    v = (-u[1], u[0])
    du = KINKED[source](x, y, u)
    dv = KINKED[source](x, y, v)
    det = u[0] * v[1] - u[1] * v[0]
    return ((du * v[1] - dv * u[1]) / det, (dv * u[0] - du * v[0]) / det)


def kink_noise_bound(r_last: float) -> float:
    # |f| <= 2 on the grid square; no curvature term on linear pieces.
    return 16 * EPS * 3 / (r_last * SIN_MIN)


# -- estimate on a quadratic -------------------------------------------

QUADRATIC = "3*x^2-2*x*y+0.5*y^2+x-4*y"


def _quadratic_exact(x: Fraction, y: Fraction) -> Fraction:
    return 3 * x * x - 2 * x * y + Fraction(1, 2) * y * y + x - 4 * y


def exact_plane(p, a, b) -> tuple[float, float, float]:
    """(alpha, beta, sin_theta) of the plane through three graph points.

    Computed in rational arithmetic from the binary64 inputs, so the only
    error left is the final rounding.
    """
    P, A, B = ([Fraction(c) for c in pt] for pt in (p, a, b))
    zp, za, zb = (_quadratic_exact(*pt) for pt in (P, A, B))
    ux, uy = A[0] - P[0], A[1] - P[1]
    vx, vy = B[0] - P[0], B[1] - P[1]
    det = ux * vy - uy * vx
    alpha = ((za - zp) * vy - (zb - zp) * uy) / det
    beta = ((zb - zp) * ux - (za - zp) * vx) / det
    sin_theta = abs(float(det)) / (math.hypot(float(ux), float(uy)) * math.hypot(float(vx), float(vy)))
    return float(alpha), float(beta), sin_theta


def estimate_tolerance(p, a, b, sin_theta) -> float:
    r = min(math.hypot(a[0] - p[0], a[1] - p[1]), math.hypot(b[0] - p[0], b[1] - p[1]))
    scale = max(abs(c) for pt in (p, a, b) for c in pt) + 1
    return 16 * EPS * 10 * scale * scale / (r * sin_theta)


# -- collapsing-angle family -------------------------------------------

def counterexample_row(pairing: str, k: int) -> tuple[float, float]:
    """Closed-form secant coefficients of x^2+y^2 on (A_k, B_k) or (A_k, C_k)."""
    return math.sin(1.0 / k), (2.0 if pairing == "ab" else 3.0) - math.cos(1.0 / k)


def counterexample_tolerance(k: int) -> float:
    return 16 * EPS * k
