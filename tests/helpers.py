"""Shared test fixtures: ulp tolerances, a stack-depth count and the smooth
function battery."""

import math
import sys

from secantplane import Point2


class RecordingField:
    """A scalar field that logs each point it is evaluated at, as the
    ``float.hex`` of both coordinates, so that 0.0 and -0.0 stay apart."""

    def __init__(self, f):
        self.f = f
        self.points: list[tuple[str, str]] = []

    def __call__(self, x, y):
        self.points.append((x.hex(), y.hex()))
        return self.f(x, y)


def frames_in_use() -> int:
    """The number of frames on the stack, this function's own included."""
    frame, n = sys._getframe(), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


def ulps(scale: float, count: float) -> float:
    """Absolute tolerance of ``count`` ulp at magnitude ``scale``."""
    return count * math.ulp(abs(scale))


# Twice-differentiable battery: (name, f, analytic gradient, base points).
# Points are chosen with moderate curvature (the minimum usable radius of
# ~1e-7 puts a floor of curvature * 1e-7 on trajectory-limit error) and with
# a nonzero second derivative along (1, 0) so residual ratios stay
# first-order along the probing direction.
SMOOTH_BATTERY = [
    (
        "x^2+y^2",
        lambda x, y: x * x + y * y,
        lambda x, y: (2.0 * x, 2.0 * y),
        [(0.0, 0.0), (1.0, 2.0), (-0.5, 0.75), (0.3, -0.4), (-1.0, -1.0)],
    ),
    (
        "sin(x)*cos(y)",
        lambda x, y: math.sin(x) * math.cos(y),
        lambda x, y: (math.cos(x) * math.cos(y), -math.sin(x) * math.sin(y)),
        [(0.5, 0.2), (1.0, -0.3), (-0.7, 0.4), (0.9, 1.1), (-1.2, -0.5)],
    ),
    (
        "exp(x-2*y)",
        lambda x, y: math.exp(x - 2.0 * y),
        lambda x, y: (math.exp(x - 2.0 * y), -2.0 * math.exp(x - 2.0 * y)),
        [(0.0, 0.5), (0.2, 0.6), (-0.4, 0.35), (0.3, 0.7), (-0.2, 0.45)],
    ),
    (
        "x^3-3*x*y",
        lambda x, y: x ** 3 - 3.0 * x * y,
        lambda x, y: (3.0 * x * x - 3.0 * y, -3.0 * x),
        [(0.2, 0.1), (0.25, -0.2), (-0.2, 0.3), (0.15, 0.25), (0.1, -0.1)],
    ),
]


def battery_cases():
    for name, f, grad, points in SMOOTH_BATTERY:
        for px, py in points:
            yield name, f, grad, Point2(px, py)
