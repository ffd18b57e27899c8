import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from secantplane import (
    BasisQuality,
    DegenerateBasis,
    PlaneCoeffs,
    Point2,
    SecantSample,
    Vec2,
    ZeroVector,
    angle_between,
    normalized_inverse_entry_bound,
    orthogonal_companion,
    plane_eval,
    residual_ratio,
    sample_function,
    secant_coefficients,
)
from helpers import ulps

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)
angles = st.floats(min_value=0.0, max_value=math.tau, allow_nan=False)
radii = st.floats(min_value=1e-3, max_value=1.0)
zvals = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def polar_vec(radius, angle):
    return Vec2(radius * math.cos(angle), radius * math.sin(angle))


def make_sample(base, ra, pa, rb, pb, z0, za, zb):
    a = base.translate(polar_vec(ra, pa))
    b = base.translate(polar_vec(rb, pb))
    return SecantSample(base, a, b, z0, za, zb)


class TestConstruction:
    def test_point_rejects_nan(self):
        with pytest.raises(ValueError):
            Point2(float("nan"), 0.0)

    def test_point_rejects_infinity(self):
        with pytest.raises(ValueError):
            Point2(0.0, math.inf)

    def test_vec_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Vec2(math.inf, 0.0)

    def test_sample_rejects_duplicate_a(self):
        with pytest.raises(ZeroVector):
            SecantSample(Point2(1.0, 2.0), Point2(1.0, 2.0), Point2(0.0, 0.0),
                         0.0, 0.0, 0.0)

    def test_sample_rejects_duplicate_b(self):
        with pytest.raises(ZeroVector):
            SecantSample(Point2(1.0, 2.0), Point2(0.0, 0.0), Point2(1.0, 2.0),
                         0.0, 0.0, 0.0)

    def test_sample_rejects_non_finite_value(self):
        with pytest.raises(ValueError):
            SecantSample(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.0, 1.0),
                         0.0, math.nan, 0.0)

    def test_plane_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PlaneCoeffs(0.0, 0.0, 0.0, math.nan, 0.0)


class TestAngleBetween:
    def test_orthonormal(self):
        bq = angle_between(Vec2(1.0, 0.0), Vec2(0.0, 1.0))
        assert bq.theta == math.pi / 2
        assert bq.sin_theta == 1.0

    def test_unit_angle_pair(self):
        bq = angle_between(Vec2(1.0, 0.0), Vec2(math.cos(1.0), math.sin(1.0)))
        assert abs(bq.theta - 1.0) <= 1e-14
        assert abs(bq.sin_theta - math.sin(1.0)) <= 1e-14
        assert abs(bq.sin_theta - 0.8414709848) <= 1e-9

    def test_parallel_is_exactly_zero(self):
        bq = angle_between(Vec2(2.0, 2.0), Vec2(3.0, 3.0))
        assert bq.sin_theta == 0.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            angle_between(Vec2(0.0, 0.0), Vec2(1.0, 0.0))
        with pytest.raises(ZeroVector):
            angle_between(Vec2(1.0, 0.0), Vec2(0.0, 0.0))

    @given(finite, finite, finite, finite)
    @example(0.0, 1.0, 5e-324, 5e-324)
    @example(0.0, 1.0, 2.2250738585e-313, 2.2250738585e-313)
    def test_quality_invariants_hold_for_all_inputs(self, ux, uy, vx, vy):
        assume((ux, uy) != (0.0, 0.0) and (vx, vy) != (0.0, 0.0))
        u, v = Vec2(ux, uy), Vec2(vx, vy)
        assume(u.norm() > 0.0 and v.norm() > 0.0)
        bq = angle_between(u, v)
        assert 0.0 <= bq.sin_theta <= 1.0 + ulps(1.0, 4)
        assert 0.0 <= bq.theta <= math.pi
        assert abs(bq.sin_theta - abs(bq.det_normalized)) <= ulps(bq.sin_theta, 4)
        assert abs(math.sin(bq.theta) - bq.sin_theta) <= 1e-12

    @given(angles, angles, radii, radii)
    def test_determinant_angle_identity(self, pa, pb, ra, rb):
        u, v = polar_vec(ra, pa), polar_vec(rb, pb)
        bq = angle_between(u, v)
        # sin(acos(.)) loses meaning within ~1e-4 of exact collapse; the
        # identity is asserted on the non-degenerate range.
        assume(bq.sin_theta >= 1e-3)
        nu, nv = u.norm(), v.norm()
        cos_theta = min(1.0, max(-1.0, u.dot(v) / (nu * nv)))
        assert abs(bq.sin_theta - math.sin(math.acos(cos_theta))) <= 1e-12


class TestSecantCoefficients:
    def test_counterexample_closed_form_first_step(self):
        s, c = math.sin(1.0), math.cos(1.0)
        sample = SecantSample(
            Point2(0.0, 0.0),
            Point2(s, 0.0),
            Point2(2 * s * c, 2 * s * s),
            0.0, s * s, 4 * s * s)
        coeffs = secant_coefficients(sample)
        assert abs(coeffs.alpha - s) <= 1e-13
        assert abs(coeffs.beta - (2.0 - c)) <= 1e-13
        assert abs(coeffs.alpha - 0.8414709848) <= 1e-9
        assert abs(coeffs.beta - 1.4596976941) <= 1e-9

    def test_affine_graph_is_recovered_exactly(self):
        sample = SecantSample(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.0, 1.0),
                              5.0, 8.0, 3.0)
        coeffs = secant_coefficients(sample)
        assert coeffs.alpha == 3.0
        assert coeffs.beta == -2.0

    def test_quadratic_sample_matches_three_point_solve(self):
        f = lambda x, y: x * x + y * y
        base, a, b = Point2(1.0, 2.0), Point2(1.1, 2.0), Point2(1.0, 2.1)
        coeffs = secant_coefficients(sample_function(f, base, a, b))
        # independent oracle: Gaussian elimination on the full 3x3
        # interpolation system [1, x-x0, y-y0] [z0, alpha, beta]^T = z
        expect = solve_plane_3x3(
            [(base.x, base.y, f(base.x, base.y)),
             (a.x, a.y, f(a.x, a.y)),
             (b.x, b.y, f(b.x, b.y))], base)
        assert abs(coeffs.alpha - expect[0]) <= 1e-12
        assert abs(coeffs.beta - expect[1]) <= 1e-12
        assert abs(coeffs.alpha - 2.1) <= 1e-12
        assert abs(coeffs.beta - 4.1) <= 1e-12

    def test_degenerate_basis_carries_sin_theta(self):
        sample = SecantSample(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(2.0, 0.0),
                              0.0, 1.0, 2.0)
        with pytest.raises(DegenerateBasis) as exc_info:
            secant_coefficients(sample)
        assert exc_info.value.sin_theta == 0.0

    def test_floor_must_be_positive(self):
        sample = SecantSample(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.0, 1.0),
                              0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            secant_coefficients(sample, degeneracy_floor=0.0)

    @given(finite, finite, radii, radii, angles, angles, zvals, zvals, zvals)
    @settings(max_examples=300)
    def test_interpolation_within_8_ulp_of_largest_intermediate(
            self, bx, by, ra, rb, pa, pb, z0, za, zb):
        base = Point2(bx % 4.0 - 2.0, by % 4.0 - 2.0)
        sample = make_sample(base, ra, pa, rb, pb, z0, za, zb)
        u, v = sample.basis()
        bq = angle_between(u, v)
        assume(bq.sin_theta >= 1e-8)
        coeffs = secant_coefficients(sample)
        assert_interpolates(coeffs, sample)

    @given(finite, finite, radii, radii, angles, angles, zvals, zvals, zvals)
    @settings(max_examples=200)
    def test_label_symmetry(self, bx, by, ra, rb, pa, pb, z0, za, zb):
        base = Point2(bx % 4.0 - 2.0, by % 4.0 - 2.0)
        sample = make_sample(base, ra, pa, rb, pb, z0, za, zb)
        u, v = sample.basis()
        assume(angle_between(u, v).sin_theta >= 1e-8)
        swapped = SecantSample(sample.base, sample.b, sample.a,
                               sample.z_base, sample.z_b, sample.z_a)
        c1 = secant_coefficients(sample)
        c2 = secant_coefficients(swapped)
        assert abs(c1.alpha - c2.alpha) <= ulps(c1.alpha, 4)
        assert abs(c1.beta - c2.beta) <= ulps(c1.beta, 4)

    @given(st.floats(min_value=-10, max_value=10), st.floats(min_value=-10, max_value=10),
           st.floats(min_value=-10, max_value=10),
           finite, finite, radii, radii, angles, angles)
    @settings(max_examples=300)
    def test_affine_recovery(self, fa, fb, fc, bx, by, ra, rb, pa, pb):
        base = Point2(bx % 2.0 - 1.0, by % 2.0 - 1.0)
        f = lambda x, y: fa * x + fb * y + fc
        a = base.translate(polar_vec(ra, pa))
        b = base.translate(polar_vec(rb, pb))
        assume(angle_between(a - base, b - base).sin_theta >= 0.01)
        coeffs = secant_coefficients(sample_function(f, base, a, b))
        assert abs(coeffs.alpha - fa) <= 1e-9 * max(1.0, abs(fa))
        assert abs(coeffs.beta - fb) <= 1e-9 * max(1.0, abs(fb))

    @pytest.mark.parametrize("phi", [math.pi / 6, math.pi / 4, math.pi / 2])
    @pytest.mark.parametrize("f", [
        lambda x, y: x * x + y * y,
        lambda x, y: math.sin(x) * math.cos(y),
    ])
    def test_rotation_equivariance(self, phi, f):
        cos_p, sin_p = math.cos(phi), math.sin(phi)

        def rotate(x, y):  # R: counterclockwise by phi
            return (cos_p * x - sin_p * y, sin_p * x + cos_p * y)

        def rotate_back(x, y):
            return (cos_p * x + sin_p * y, -sin_p * x + cos_p * y)

        base, a, b = Point2(0.4, -0.3), Point2(0.45, -0.28), Point2(0.38, -0.25)
        coeffs = secant_coefficients(sample_function(f, base, a, b))

        g = lambda x, y: f(*rotate(x, y))
        base_r = Point2(*rotate_back(base.x, base.y))
        a_r = Point2(*rotate_back(a.x, a.y))
        b_r = Point2(*rotate_back(b.x, b.y))
        coeffs_r = secant_coefficients(sample_function(g, base_r, a_r, b_r))

        # gradient row transforms as [alpha beta] . R
        expect_alpha = coeffs.alpha * cos_p + coeffs.beta * sin_p
        expect_beta = -coeffs.alpha * sin_p + coeffs.beta * cos_p
        assert abs(coeffs_r.alpha - expect_alpha) <= 1e-10
        assert abs(coeffs_r.beta - expect_beta) <= 1e-10


def solve_plane_3x3(points, base):
    """Plane interpolation via dense elimination; independent of the adjugate path."""
    rows = [[1.0, x - base.x, y - base.y, z] for x, y, z in points]
    for col in range(3):
        pivot = max(range(col, 3), key=lambda r: abs(rows[r][col]))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(3):
            if r != col and rows[r][col] != 0.0:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [rv - factor * cv for rv, cv in zip(rows[r], rows[col])]
    z0, alpha, beta = (rows[i][3] / rows[i][i] for i in range(3))
    return alpha, beta


def assert_interpolates(coeffs, sample):
    det = None
    u, v = sample.basis()
    det = u.dx * v.dy - u.dy * v.dx
    dz_a, dz_b = sample.z_a - sample.z_base, sample.z_b - sample.z_base
    for point, z_expect in ((sample.base, sample.z_base), (sample.a, sample.z_a),
                            (sample.b, sample.z_b)):
        dx, dy = point.x - sample.base.x, point.y - sample.base.y
        value = plane_eval(coeffs, point)
        scale = max(abs(sample.z_base), abs(sample.z_a), abs(sample.z_b),
                    abs(coeffs.alpha * dx), abs(coeffs.beta * dy),
                    abs(dz_a * v.dy / det * dx), abs(dz_b * u.dy / det * dx),
                    abs(dz_b * u.dx / det * dy), abs(dz_a * v.dx / det * dy))
        assert abs(value - z_expect) <= ulps(scale, 8)


class TestPlaneEval:
    def test_plane_z_equals_y(self):
        assert plane_eval(PlaneCoeffs(0, 0, 0, 0.0, 1.0), Point2(5.0, 3.0)) == 3.0

    def test_plane_z_equals_2y(self):
        assert plane_eval(PlaneCoeffs(0, 0, 0, 0.0, 2.0), Point2(5.0, 3.0)) == 6.0

    def test_consistency_with_quadratic_sample(self):
        value = plane_eval(PlaneCoeffs(1.0, 2.0, 5.0, 2.1, 4.1), Point2(1.1, 2.0))
        assert abs(value - 5.21) <= 1e-12


class TestOrthogonalCompanion:
    def test_3_4_rotates_to_minus4_3(self):
        assert orthogonal_companion(Point2(0.0, 0.0), Point2(3.0, 4.0)) == Point2(-4.0, 3.0)

    def test_unit_step(self):
        assert orthogonal_companion(Point2(1.0, 1.0), Point2(2.0, 1.0)) == Point2(1.0, 2.0)

    def test_axis_aligned_small_step(self):
        x0, y0, h = 1.0, 2.0, 1e-6
        companion = orthogonal_companion(Point2(x0, y0), Point2(x0 + h, y0))
        assert companion.x == x0
        assert abs(companion.y - (y0 + h)) <= ulps(y0, 4)

    def test_zero_displacement_rejected(self):
        with pytest.raises(ZeroVector):
            orthogonal_companion(Point2(1.0, 1.0), Point2(1.0, 1.0))

    @given(finite, finite)
    def test_exact_orthogonality_and_radius_at_origin(self, ax, ay):
        assume((ax, ay) != (0.0, 0.0))
        base = Point2(0.0, 0.0)
        a = Point2(ax, ay)
        b = orthogonal_companion(base, a)
        u, v = a - base, b - base
        assert u.dot(v) == 0.0
        assert u.norm() == v.norm()
        assert angle_between(u, v).theta == math.pi / 2


class TestInverseEntryBound:
    def test_orthonormal_basis(self):
        sample = SecantSample(Point2(0, 0), Point2(0.5, 0.0), Point2(0.0, 0.5),
                              0.0, 0.0, 0.0)
        assert normalized_inverse_entry_bound(sample) == 1.0

    def test_unit_angle_directions(self):
        sample = SecantSample(Point2(0, 0), Point2(1.0, 0.0),
                              Point2(math.cos(1.0), math.sin(1.0)), 0.0, 0.0, 0.0)
        bound = normalized_inverse_entry_bound(sample)
        limit = 1.0 / math.sin(1.0)
        assert abs(bound - limit) <= ulps(limit, 4)
        assert abs(bound - 1.1883951058) <= 1e-9
        assert bound <= limit + ulps(limit, 4)

    def test_parallel_rejected(self):
        sample = SecantSample(Point2(0, 0), Point2(1.0, 1.0), Point2(2.0, 2.0),
                              0.0, 0.0, 0.0)
        with pytest.raises(DegenerateBasis):
            normalized_inverse_entry_bound(sample)

    @given(angles, angles, radii, radii)
    @settings(max_examples=500)
    def test_bound_never_exceeds_reciprocal_sin(self, pa, pb, ra, rb):
        base = Point2(0.0, 0.0)
        sample = make_sample(base, ra, pa, rb, pb, 0.0, 0.0, 0.0)
        bq = angle_between(*sample.basis())
        assume(bq.sin_theta >= 0.01)
        bound = normalized_inverse_entry_bound(sample)
        limit = 1.0 / bq.sin_theta
        assert bound <= limit + ulps(limit, 4)


class TestResidualRatio:
    def test_matching_affine_jacobian_gives_zero(self):
        j = PlaneCoeffs(0, 0, 0, 3.0, -2.0)
        delta = Vec2(0.25, -0.125)
        z_delta = 3.0 * delta.dx - 2.0 * delta.dy
        assert residual_ratio(z_delta, j, delta) == 0.0

    def test_quadratic_with_true_gradient(self):
        j = PlaneCoeffs(0, 0, 0, 0.0, 0.0)
        delta = Vec2(0.01, 0.0)
        z_delta = delta.dx ** 2
        assert abs(residual_ratio(z_delta, j, delta) - 0.01) <= 1e-14

    def test_wrong_jacobian_keeps_ratio_large(self):
        j = PlaneCoeffs(0, 0, 0, 0.0, 1.0)
        delta = Vec2(0.0, 0.01)
        z_delta = delta.dy ** 2
        assert abs(residual_ratio(z_delta, j, delta) - 0.99) <= 1e-12

    def test_zero_increment_rejected(self):
        with pytest.raises(ZeroVector):
            residual_ratio(0.0, PlaneCoeffs(0, 0, 0, 0.0, 0.0), Vec2(0.0, 0.0))
