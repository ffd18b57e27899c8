import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secantplane import (
    DEFAULT_DEGENERACY_FLOOR,
    InvalidSpec,
    Point2,
    RadiusUnderflow,
    SequenceKind,
    SequenceSpec,
    Vec2,
    angle_between,
    counterexample_points,
    generate,
)
from secantplane.sequences import FLOOR_EXEMPT_KINDS
from helpers import ulps

mpmath.mp.dps = 50


def test_counterexample_first_triple_matches_high_precision_trig():
    a, b, c = counterexample_points(1)
    s1 = float(mpmath.sin(1))
    assert a == Point2(s1, 0.0)
    # 2 sin(1) cos(1) = sin(2), 2 sin^2(1) = 1 - cos(2)
    assert abs(b.x - float(mpmath.sin(2))) <= ulps(b.x, 4)
    assert abs(b.y - float(1 - mpmath.cos(2))) <= ulps(b.y, 4)
    assert abs(c.x - float(1.5 * mpmath.sin(2))) <= ulps(c.x, 4)
    assert abs(c.y - float(1.5 * (1 - mpmath.cos(2)))) <= ulps(c.y, 4)
    # the quoted 10-digit decimals
    assert abs(a.x - 0.8414709848) <= 1e-9
    assert abs(b.x - 0.9092974268) <= 1e-9
    assert abs(b.y - 1.4161468365) <= 1e-9
    assert abs(c.x - 1.3639461402) <= 1e-9
    assert abs(c.y - 2.1242202549) <= 1e-9


def test_counterexample_triples_shrink_to_origin():
    previous = None
    for k in (1, 10, 100, 1000, 10**4, 10**5, 10**6):
        a, b, c = counterexample_points(k)
        largest = max(math.hypot(p.x, p.y) for p in (a, b, c))
        if previous is not None:
            assert largest < previous
        previous = largest
    assert previous < 4e-6


@pytest.mark.parametrize("k", [1, 2, 5, 10, 11, 100, 12345, 10**6])
def test_counterexample_basis_angle_is_exactly_one_over_k(k):
    a, b, _ = counterexample_points(k)
    origin = Point2(0.0, 0.0)
    bq = angle_between(a - origin, b - origin)
    assert abs(bq.sin_theta - math.sin(1.0 / k)) <= 1e-14
    assert abs(bq.theta - 1.0 / k) <= 1e-12


def test_counterexample_rejects_bad_index():
    with pytest.raises(InvalidSpec):
        counterexample_points(0)


class TestRadialOrthogonal:
    def test_axis_aligned_third_step(self):
        spec = SequenceSpec(SequenceKind.RADIAL_ORTHOGONAL,
                            base=Point2(0.0, 0.0), direction=Vec2(1.0, 0.0),
                            initial_radius=0.1, decay=0.5)
        pair = generate(spec, 3)
        assert pair.a == Point2(0.025, 0.0)
        assert pair.b == Point2(0.0, 0.025)

    def test_right_angle_is_exact_at_origin(self):
        diag = math.sqrt(0.5)
        base = Point2(0.0, 0.0)
        spec = SequenceSpec(SequenceKind.RADIAL_ORTHOGONAL, base=base,
                            direction=Vec2(diag, diag))
        for k in range(1, 21):
            pair = generate(spec, k)
            bq = angle_between(pair.a - base, pair.b - base)
            assert bq.theta == math.pi / 2

    @pytest.mark.parametrize("base", [Point2(1.0, 1.0), Point2(-0.5, 2.0)])
    def test_right_angle_at_general_bases(self, base):
        # companion coordinates round once through base +/- displacement, so
        # away from the origin the angle deviates from pi/2 by at most
        # ~ulp(base scale) / radius
        diag = math.sqrt(0.5)
        scale = max(abs(base.x), abs(base.y))
        spec = SequenceSpec(SequenceKind.RADIAL_ORTHOGONAL, base=base,
                            direction=Vec2(diag, diag))
        for k in range(1, 21):
            pair = generate(spec, k)
            radius = (pair.a - base).norm()
            bq = angle_between(pair.a - base, pair.b - base)
            assert abs(bq.theta - math.pi / 2) <= 8 * math.ulp(scale) / radius

    def test_geometric_radius_within_2_ulp(self):
        diag = math.sqrt(0.5)
        for direction in (Vec2(1.0, 0.0), Vec2(0.0, 1.0), Vec2(-1.0, 0.0),
                          Vec2(diag, diag), Vec2(-diag, diag)):
            spec = SequenceSpec(SequenceKind.RADIAL_ORTHOGONAL,
                                base=Point2(0.0, 0.0), direction=direction)
            for k in range(1, 21):
                expected = 0.1 * 0.5 ** (k - 1)
                pair = generate(spec, k)
                assert abs((pair.a - spec.base).norm() - expected) <= ulps(expected, 2)
                assert abs((pair.b - spec.base).norm() - expected) <= ulps(expected, 2)

    def test_radii_strictly_decreasing(self):
        spec = SequenceSpec(SequenceKind.RADIAL_ORTHOGONAL, base=Point2(0.0, 0.0))
        radii = [(generate(spec, k).a - spec.base).norm() for k in range(1, 21)]
        assert all(r1 > r2 for r1, r2 in zip(radii, radii[1:]))

    def test_underflow_guard(self):
        spec = SequenceSpec(SequenceKind.RADIAL_ORTHOGONAL, base=Point2(0.0, 0.0))
        generate(spec, 20)  # 0.1 * 0.5^19 ~ 1.9e-7, still fine
        with pytest.raises(RadiusUnderflow):
            generate(spec, 21)


class TestRandomAngleFloor:
    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=20))
    @settings(max_examples=200)
    def test_pair_meets_floor(self, seed, k):
        spec = SequenceSpec(SequenceKind.RANDOM_ANGLE_FLOOR, base=Point2(0.0, 0.0),
                            angle_floor=0.5, seed=seed)
        pair = generate(spec, k)
        bq = angle_between(pair.a - spec.base, pair.b - spec.base)
        assert bq.sin_theta >= 0.5

    def test_thousand_draws_meet_floor(self):
        spec = SequenceSpec(SequenceKind.RANDOM_ANGLE_FLOOR, base=Point2(0.0, 0.0),
                            angle_floor=0.5, seed=123, initial_radius=0.1,
                            decay=0.999)
        for k in range(1, 1001):
            pair = generate(spec, k)
            bq = angle_between(pair.a - spec.base, pair.b - spec.base)
            assert bq.sin_theta >= 0.5

    def test_geometric_radius_within_2_ulp(self):
        spec = SequenceSpec(SequenceKind.RANDOM_ANGLE_FLOOR, base=Point2(0.0, 0.0),
                            angle_floor=0.5, seed=7)
        for k in range(1, 21):
            expected = 0.1 * 0.5 ** (k - 1)
            pair = generate(spec, k)
            assert abs((pair.a - spec.base).norm() - expected) <= ulps(expected, 2)
            assert abs((pair.b - spec.base).norm() - expected) <= ulps(expected, 2)

    def test_deterministic_and_order_independent(self):
        spec = SequenceSpec(SequenceKind.RANDOM_ANGLE_FLOOR, base=Point2(0.0, 0.0),
                            angle_floor=0.3, seed=99)
        forward = [generate(spec, k) for k in range(1, 11)]
        backward = [generate(spec, k) for k in range(10, 0, -1)][::-1]
        assert forward == backward
        again = [generate(SequenceSpec(SequenceKind.RANDOM_ANGLE_FLOOR,
                                       base=Point2(0.0, 0.0), angle_floor=0.3,
                                       seed=99), k) for k in range(1, 11)]
        assert forward == again

    def test_different_seeds_differ(self):
        make = lambda seed: generate(
            SequenceSpec(SequenceKind.RANDOM_ANGLE_FLOOR, base=Point2(0.0, 0.0),
                         seed=seed), 1)
        assert make(0) != make(1)


class TestCounterexampleGeneration:
    def test_ab_pairing_at_k10_violates_floor_point_one(self):
        spec = SequenceSpec(SequenceKind.COUNTEREXAMPLE_AB)
        pair = generate(spec, 10)
        bq = angle_between(pair.a - spec.base, pair.b - spec.base)
        assert abs(bq.sin_theta - math.sin(0.1)) <= 1e-14
        assert bq.sin_theta < 0.1

    def test_ac_pairing_selects_third_point(self):
        spec = SequenceSpec(SequenceKind.COUNTEREXAMPLE_AC)
        pair = generate(spec, 4)
        _, _, c = counterexample_points(4)
        assert pair.b == c

    @pytest.mark.parametrize("kind", FLOOR_EXEMPT_KINDS)
    def test_every_step_clears_the_degeneracy_floor(self, kind):
        # Why a probe never meets a degenerate basis on these kinds: the basis
        # angle is 1/k, and generation stops before sin(1/k) reaches 1e-8.
        spec = SequenceSpec(kind)
        for k in (1, 10, 10**3, 10**5, 9_999_999):
            pair = generate(spec, k)
            sin_theta = angle_between(pair.a - spec.base, pair.b - spec.base).sin_theta
            assert sin_theta >= 0.99 * math.sin(1.0 / k) > DEFAULT_DEGENERACY_FLOOR
        with pytest.raises(RadiusUnderflow):
            generate(spec, 10_000_000)

    def test_underflow_guard(self):
        spec = SequenceSpec(SequenceKind.COUNTEREXAMPLE_AB)
        generate(spec, 10**6)
        with pytest.raises(RadiusUnderflow):
            generate(spec, 2 * 10**7)


class TestSpecValidation:
    def test_decay_bounds(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(InvalidSpec):
                SequenceSpec(SequenceKind.RADIAL_ORTHOGONAL, decay=bad)

    def test_radius_positive(self):
        with pytest.raises(InvalidSpec):
            SequenceSpec(SequenceKind.RADIAL_ORTHOGONAL, initial_radius=0.0)

    def test_angle_floor_bounds(self):
        for bad in (0.0, 1.0):
            with pytest.raises(InvalidSpec):
                SequenceSpec(SequenceKind.RANDOM_ANGLE_FLOOR, angle_floor=bad)

    def test_direction_must_be_unit(self):
        with pytest.raises(InvalidSpec):
            SequenceSpec(SequenceKind.RADIAL_ORTHOGONAL, direction=Vec2(1.0, 1.0))

    def test_counterexample_base_pinned_to_origin(self):
        with pytest.raises(InvalidSpec):
            SequenceSpec(SequenceKind.COUNTEREXAMPLE_AB, base=Point2(1.0, 0.0))

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidSpec):
            SequenceSpec(SequenceKind.RANDOM_ANGLE_FLOOR, seed=-1)

    def test_step_index_must_be_positive(self):
        spec = SequenceSpec(SequenceKind.RADIAL_ORTHOGONAL)
        with pytest.raises(InvalidSpec):
            generate(spec, 0)
