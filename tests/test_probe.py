import math
import struct
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secantplane import (
    DegenerateBasis,
    EvaluationError,
    InvalidSpec,
    PlaneCoeffs,
    Point2,
    ProbeConfig,
    RadiusUnderflow,
    SequenceKind,
    SequenceSpec,
    TrajectoryStep,
    Vec2,
    Verdict,
    angle_between,
    default_sequence_specs,
    generate,
    probe,
    run_trajectory,
    sample_function,
    secant_coefficients,
)
from secantplane.probe import AGREE_TOL, _max_pairwise
from helpers import RecordingField, battery_cases, ulps

ORIGIN = Point2(0.0, 0.0)
SQUARE = lambda x, y: x * x + y * y


def radial(base, dx, dy):
    n = math.hypot(dx, dy)
    return SequenceSpec(SequenceKind.RADIAL_ORTHOGONAL, base=base,
                        direction=Vec2(dx / n, dy / n))


def default_cfg(base, **overrides):
    return ProbeConfig(sequence_specs=default_sequence_specs(base), **overrides)


class TestRunTrajectory:
    @pytest.mark.parametrize("kind,max_steps,want_steps,want_exhausted", [
        (SequenceKind.RADIAL_ORTHOGONAL, 19, 19, False),
        (SequenceKind.RADIAL_ORTHOGONAL, 20, 20, False),
        (SequenceKind.RADIAL_ORTHOGONAL, 21, 20, True),
        (SequenceKind.COUNTEREXAMPLE_AC, 40, 40, False)])
    def test_radius_guard_boundary(self, kind, max_steps, want_steps, want_exhausted):
        # A radial step 20's radius 0.1*0.5**19 is above MIN_RADIUS and step
        # 21's is below; a counterexample radius sin(1/k) stays above to k ~ 1e7.
        spec = SequenceSpec(kind)
        cfg = ProbeConfig(sequence_specs=(spec, spec), max_steps=max_steps)
        traj = run_trajectory(SQUARE, ORIGIN, spec, cfg)
        assert (len(traj.steps), traj.radius_exhausted) == (want_steps, want_exhausted)

    @pytest.mark.parametrize("spec_index", [0, 1, 2])
    def test_limit_is_the_plane_of_the_last_step(self, spec_index):
        base = Point2(1.0, 2.0)
        cfg = default_cfg(base)
        traj = run_trajectory(SQUARE, base, cfg.sequence_specs[spec_index], cfg)
        assert traj.converged
        last = traj.steps[-1]
        assert traj.limit == PlaneCoeffs(base.x, base.y, SQUARE(base.x, base.y),
                                         last.alpha, last.beta)

    def test_square_at_origin_converges_to_zero(self):
        cfg = default_cfg(ORIGIN)
        traj = run_trajectory(SQUARE, ORIGIN, radial(ORIGIN, 1.0, 0.0), cfg)
        assert traj.converged
        assert traj.radius_exhausted  # radius guard fires before 40 steps
        assert len(traj.steps) == 20
        assert abs(traj.limit.alpha) <= 1e-6
        assert abs(traj.limit.beta) <= 1e-6

    def test_counterexample_ab_follows_closed_form(self):
        spec = SequenceSpec(SequenceKind.COUNTEREXAMPLE_AB)
        cfg = ProbeConfig(sequence_specs=(spec, radial(ORIGIN, 1.0, 0.0)),
                          max_steps=100)
        traj = run_trajectory(SQUARE, ORIGIN, spec, cfg)
        assert traj.floor_exempt
        assert len(traj.steps) == 100
        for step in traj.steps:
            assert abs(step.alpha - math.sin(1.0 / step.k)) <= 1e-12
            assert abs(step.beta - (2.0 - math.cos(1.0 / step.k))) <= 1e-12

    def test_counterexample_ac_follows_closed_form(self):
        spec = SequenceSpec(SequenceKind.COUNTEREXAMPLE_AC)
        cfg = ProbeConfig(sequence_specs=(spec, radial(ORIGIN, 1.0, 0.0)),
                          max_steps=50)
        traj = run_trajectory(SQUARE, ORIGIN, spec, cfg)
        for step in traj.steps:
            assert abs(step.beta - (3.0 - math.cos(1.0 / step.k))) <= 1e-12

    def test_floor_violations_flagged_from_k_10(self):
        spec = SequenceSpec(SequenceKind.COUNTEREXAMPLE_AB)
        cfg = ProbeConfig(sequence_specs=(spec, radial(ORIGIN, 1.0, 0.0)),
                          angle_floor=0.1, max_steps=200)
        traj = run_trajectory(SQUARE, ORIGIN, spec, cfg)
        for step in traj.steps:
            if step.k >= 11:
                assert not step.meets_floor
            if step.k <= 9:
                assert step.meets_floor
        # sin(0.1) < 0.1, so k = 10 violates as well
        assert not traj.steps[9].meets_floor

    def test_base_mismatch_rejected(self):
        cfg = default_cfg(ORIGIN)
        with pytest.raises(InvalidSpec):
            run_trajectory(SQUARE, Point2(1.0, 0.0), cfg.sequence_specs[0], cfg)

    def test_non_finite_function_value(self):
        cfg = default_cfg(ORIGIN)
        bad = lambda x, y: math.nan if x > 0.05 else 0.0
        with pytest.raises(EvaluationError):
            run_trajectory(bad, ORIGIN, cfg.sequence_specs[0], cfg)

    def test_non_exempt_floor_violation_aborts(self):
        # a custom spec that breaks its own promise: random floor below the
        # probe floor is rejected at config time instead
        with pytest.raises(InvalidSpec):
            ProbeConfig(
                sequence_specs=(
                    SequenceSpec(SequenceKind.RANDOM_ANGLE_FLOOR, base=ORIGIN,
                                 angle_floor=0.05),
                    radial(ORIGIN, 1.0, 0.0),
                ),
                angle_floor=0.1)


class TestProbeVerdicts:
    def test_square_two_radials_consistent(self):
        cfg = ProbeConfig(
            sequence_specs=(radial(ORIGIN, 1.0, 0.0), radial(ORIGIN, 1.0, 1.0)),
            angle_floor=0.5)
        report = probe(SQUARE, ORIGIN, cfg)
        assert report.verdict is Verdict.CONSISTENT_WITH_DIFFERENTIABLE
        assert abs(report.jacobian_estimate[0]) <= 1e-6
        assert abs(report.jacobian_estimate[1]) <= 1e-6
        # ratio = radius exactly for this function: halve per step
        ratios = report.residual_checks
        assert len(ratios) == 20
        for (r1, v1), (r2, v2) in zip(ratios, ratios[1:]):
            assert 0.3 <= v2 / v1 <= 0.7

    def test_counterexample_pairings_contradict(self):
        cfg = ProbeConfig(
            sequence_specs=(SequenceSpec(SequenceKind.COUNTEREXAMPLE_AB),
                            SequenceSpec(SequenceKind.COUNTEREXAMPLE_AC)),
            max_steps=2000)
        report = probe(SQUARE, ORIGIN, cfg)
        assert report.verdict is Verdict.CONTRADICTED
        assert abs(report.max_disagreement - 1.0) <= 1e-3
        limits = [t.limit for t in report.trajectories]
        assert abs(limits[0].alpha) <= 1e-3 and abs(limits[0].beta - 1.0) <= 1e-3
        assert abs(limits[1].alpha) <= 1e-3 and abs(limits[1].beta - 2.0) <= 1e-3
        assert report.jacobian_estimate is None

    def test_absolute_value_contradicted_with_opposite_radials(self):
        f = lambda x, y: abs(x)
        cfg = ProbeConfig(sequence_specs=(radial(ORIGIN, 1.0, 0.0),
                                          radial(ORIGIN, -1.0, 0.0)))
        report = probe(f, ORIGIN, cfg)
        assert report.verdict is Verdict.CONTRADICTED
        limits = [(t.limit.alpha, t.limit.beta) for t in report.trajectories]
        assert limits[0] == (1.0, 0.0)
        assert limits[1] == (-1.0, 0.0)
        assert report.max_disagreement == 2.0

    def test_counterexamples_inconclusive_at_default_steps(self):
        # at 40 steps the collapsing trajectories are still drifting by
        # ~1/k^2 per step, far above the Cauchy tolerance
        cfg = ProbeConfig(
            sequence_specs=(SequenceSpec(SequenceKind.COUNTEREXAMPLE_AB),
                            SequenceSpec(SequenceKind.COUNTEREXAMPLE_AC)))
        report = probe(SQUARE, ORIGIN, cfg)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.jacobian_estimate is None
        assert not any(t.converged for t in report.trajectories)

    def test_single_converged_trajectory_is_inconclusive(self):
        cfg = ProbeConfig(
            sequence_specs=(radial(ORIGIN, 1.0, 0.0),
                            SequenceSpec(SequenceKind.COUNTEREXAMPLE_AB)))
        report = probe(SQUARE, ORIGIN, cfg)
        assert [t.converged for t in report.trajectories] == [True, False]
        assert report.verdict is Verdict.INCONCLUSIVE

    def test_estimate_of_limits_whose_sum_overflows(self):
        # Both radial limits are exactly (1e308, 0), so their plain sum is inf.
        f = lambda x, y: 1e308 * x
        report = probe(f, ORIGIN, default_cfg(ORIGIN))
        limits = [(t.limit.alpha, t.limit.beta) for t in report.trajectories if t.converged]
        assert limits == [(1e308, 0.0), (1e308, 0.0)]
        assert report.verdict is Verdict.CONSISTENT_WITH_DIFFERENTIABLE
        assert report.jacobian_estimate == (1e308, 0.0)
        assert [ratio for _, ratio in report.residual_checks] == [0.0] * 20

    def test_report_is_bitwise_reproducible(self):
        base = Point2(0.7, -0.2)
        cfg = default_cfg(base)
        f = lambda x, y: math.sin(x) * math.cos(y)
        assert probe(f, base, cfg) == probe(f, base, cfg)


def expected_points(report, base):
    """The distinct points a probe needs, rebuilt from ``generate`` and the
    report's residual radii, as ``RecordingField`` logs them."""
    points = [(base.x, base.y)]
    for t in report.trajectories:
        for k in range(1, len(t.steps) + 1):
            points.extend((p.x, p.y) for p in generate(t.spec, k))
    points.extend((base.x + r, base.y) for r, _ in report.residual_checks)
    # Keyed by hex, since a set of floats would merge 0.0 with -0.0.
    return {(x.hex(), y.hex()) for x, y in points}


class TestEvaluationCount:
    def test_default_probe_at_a_smooth_point(self):
        base = Point2(1.0, 2.0)
        f = RecordingField(SQUARE)
        report = probe(f, base, default_cfg(base))
        assert report.verdict is Verdict.CONSISTENT_WITH_DIFFERENTIABLE
        assert [len(t.steps) for t in report.trajectories] == [20, 20, 20]
        assert len(report.residual_checks) == 20
        # f runs once per distinct point: f(P) once for all three
        # trajectories, two companions at each of 20 steps, and no call for
        # the residual checks, whose points (P.x + r_k, P.y) are the
        # companions a_k of the radial (1, 0) trajectory.
        assert len(f.points) == 1 + 3 * 2 * 20
        assert len(set(f.points)) == len(f.points)
        assert set(f.points) == expected_points(report, base)

    @pytest.mark.parametrize("case", [
        (Point2(0.3, -0.4), 0),
        (Point2(-0.7, 0.0), 5),
        (Point2(1e6, 0.0), 0),      # inconclusive: no residual checks
        (Point2(0.25, -0.0), 9),    # residual points differ from a_k by the sign of y
    ], ids=["smooth", "y=0", "far", "y=-0"])
    def test_each_point_once_and_no_other(self, case):
        base, seed = case
        f = RecordingField(lambda x, y: math.sin(x) * math.cos(y) + x * x * y)
        report = probe(f, base, ProbeConfig(
            sequence_specs=default_sequence_specs(base, seed=seed)))
        assert len(set(f.points)) == len(f.points)
        assert set(f.points) == expected_points(report, base)

    def test_signed_zero_x_is_its_own_point(self):
        # From x = -0.0, radial (1, 0) has companions b_k = (-0.0, y + r_k),
        # and radial (0, 1) has a_k = (+0.0, y + r_k): different points.
        base = Point2(-0.0, 0.5)
        f = RecordingField(SQUARE)
        report = probe(f, base, ProbeConfig(
            sequence_specs=(radial(base, 1.0, 0.0), radial(base, 0.0, 1.0))))
        assert report.verdict is Verdict.CONSISTENT_WITH_DIFFERENTIABLE
        assert len(f.points) == 1 + 2 * 2 * 20
        assert set(f.points) == expected_points(report, base)

    def test_shared_points_of_two_equal_radials(self):
        base = Point2(1.0, 2.0)
        f = RecordingField(SQUARE)
        report = probe(f, base, ProbeConfig(
            sequence_specs=(radial(base, 1.0, 0.0), radial(base, 1.0, 0.0))))
        assert report.verdict is Verdict.CONSISTENT_WITH_DIFFERENTIABLE
        assert len(f.points) == 1 + 2 * 20

    def test_collapsing_pairings_share_a_k(self):
        f = RecordingField(SQUARE)
        report = probe(f, ORIGIN, ProbeConfig(
            sequence_specs=(SequenceSpec(SequenceKind.COUNTEREXAMPLE_AB),
                            SequenceSpec(SequenceKind.COUNTEREXAMPLE_AC)),
            max_steps=2000))
        assert report.verdict is Verdict.CONTRADICTED
        # A_k, B_k and C_k at each of 2000 steps, and the origin.
        assert len(f.points) == 1 + 3 * 2000
        assert set(f.points) == expected_points(report, ORIGIN)

    def test_no_value_outlives_its_probe(self):
        base = Point2(1.0, 2.0)
        cfg = default_cfg(base)
        f = RecordingField(SQUARE)
        first = probe(f, base, cfg)
        assert len(f.points) == 121
        assert probe(f, base, cfg) == first
        assert len(f.points) == 2 * 121

    def test_signed_zero_is_its_own_point(self):
        # At y = -0.0 this function is 1e-13 higher than at y = +0.0. The
        # radial (1, 0) companions a_k have y = -0.0 + 0.0 = +0.0, while the
        # residual points keep the base's -0.0: a memo that compared plain
        # coordinates would hand them f at +0.0.
        def f(x, y):
            return x * x + y * y + (1e-13 if math.copysign(1.0, y) < 0 else 0.0)

        base = Point2(1.0, -0.0)
        report = probe(f, base, default_cfg(base))
        assert report.verdict is Verdict.CONSISTENT_WITH_DIFFERENTIABLE
        alpha, beta = report.jacobian_estimate
        z0 = f(1.0, -0.0)
        radii = [s.radius for s in report.trajectories[0].steps]
        want = tuple((r, abs((f(1.0 + r, -0.0) - z0) - (alpha * r + beta * 0.0)) / r)
                     for r in radii)
        assert report.residual_checks == want

    @pytest.mark.parametrize("spec", [
        radial(ORIGIN, 1.0, 0.0),
        SequenceSpec(SequenceKind.RANDOM_ANGLE_FLOOR, seed=7),
        SequenceSpec(SequenceKind.COUNTEREXAMPLE_AB),
    ], ids=lambda s: s.kind.value)
    def test_trajectory_evaluates_base_once(self, spec):
        cfg = ProbeConfig(sequence_specs=(spec, radial(ORIGIN, 0.0, 1.0)), max_steps=50)
        # run_trajectory itself keeps no memo: one call per point it visits.
        f = RecordingField(SQUARE)
        traj = run_trajectory(f, ORIGIN, spec, cfg)
        assert len(traj.steps) == (50 if traj.floor_exempt else 20)
        assert len(f.points) == 1 + 2 * len(traj.steps)


class TestTrajectorySteps:
    @given(st.sampled_from(SequenceKind),
           st.floats(min_value=-2.0, max_value=2.0), st.floats(min_value=-2.0, max_value=2.0),
           st.floats(min_value=0.0, max_value=math.tau), st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_steps_match_the_public_api_bit_for_bit(self, kind, bx, by, phi, seed):
        smooth = lambda x, y: math.sin(3.0 * x) * math.cos(y) + math.exp(x - 2.0 * y)
        # Scaled by 1e-300, every z-difference is below 2^-960, so the solve
        # takes its 2^1000 scaling branch.
        for f in (smooth, lambda x, y: 1e-300 * smooth(x, y)):
            self.check_steps(f, kind, bx, by, phi, seed)

    @staticmethod
    def check_steps(f, kind, bx, by, phi, seed):
        base = Point2(bx, by)
        if kind is SequenceKind.RADIAL_ORTHOGONAL:
            spec = radial(base, math.cos(phi), math.sin(phi))
        elif kind is SequenceKind.RANDOM_ANGLE_FLOOR:
            spec = SequenceSpec(kind, base=base, angle_floor=0.7, seed=seed)
        else:
            base = ORIGIN  # the collapsing-angle pairings are defined at the origin only
            spec = SequenceSpec(kind)
        cfg = ProbeConfig(sequence_specs=(spec, radial(base, 1.0, 0.0)), max_steps=40)
        traj = run_trajectory(f, base, spec, cfg)

        expected = []
        for k in range(1, cfg.max_steps + 1):
            try:
                a, b = generate(spec, k)
            except RadiusUnderflow:
                break
            sin_theta = angle_between(a - base, b - base).sin_theta
            plane = secant_coefficients(sample_function(f, base, a, b))
            expected.append((k, plane.alpha, plane.beta, sin_theta,
                             (a - base).norm(), sin_theta >= cfg.angle_floor))
        got = [(s.k, s.alpha, s.beta, s.sin_theta, s.radius, s.meets_floor)
               for s in traj.steps]
        # Tuples of floats compare with ==, so -0.0 and 0.0 would pass as equal;
        # repr tells them apart.
        assert repr(got) == repr(expected)

    # A step is a named tuple: read-only, equal to the plain tuple of its
    # fields in their fixed order, and printed with their names.
    def test_step_is_a_read_only_named_tuple(self):
        base = Point2(1.0, 2.0)
        step = run_trajectory(SQUARE, base, radial(base, 1.0, 0.0), default_cfg(base)).steps[0]
        with pytest.raises(AttributeError):
            step.alpha = 0.0
        assert type(step)._fields == ("k", "alpha", "beta", "sin_theta", "radius", "meets_floor")
        assert step == tuple(step) == (1, step.alpha, step.beta, 1.0, step.radius, True)
        assert step._replace(k=2).k == 2 and step.k == 1

    def test_step_repr_names_its_fields(self):
        step = TrajectoryStep(1, 2.0, -0.5, 1.0, 0.1, True)
        assert repr(step) == ("TrajectoryStep(k=1, alpha=2.0, beta=-0.5, sin_theta=1.0, "
                              "radius=0.1, meets_floor=True)")


class TestTraceContract:
    """The benchmark's tracer (``bench/tracing.py``) times the probe's layers
    by replacing the module globals ``generate`` and ``secant_coefficients`` of
    ``secantplane.probe`` with wrappers, and its self-test needs both on the
    path of every probe. A single-pass step that stopped calling
    ``secant_coefficients`` was once reverted because the self-test's traced
    cli-mix check then crashed (CHANGES.md, "One secant plane per probe step:
    not landed"); this test fails first, with a reason.
    """

    @pytest.mark.parametrize("f,cfg,converged", [
        (SQUARE, default_cfg(ORIGIN), 3),
        (lambda x, y: abs(x) - abs(y), default_cfg(ORIGIN), 2),
        (lambda x, y: math.sqrt(abs(x)), default_cfg(ORIGIN), 0),
        (SQUARE, ProbeConfig(sequence_specs=(SequenceSpec(SequenceKind.COUNTEREXAMPLE_AB),
                                             SequenceSpec(SequenceKind.COUNTEREXAMPLE_AC))), 0),
    ], ids=["smooth", "kink", "cusp", "collapsing"])
    def test_probe_calls_the_traced_globals(self, monkeypatch, f, cfg, converged):
        module = sys.modules["secantplane.probe"]
        calls = {"generate": 0, "secant_coefficients": 0}

        def counting(name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(module, name, counting(name))
        report = probe(f, ORIGIN, cfg)
        # One generate per step, plus the one that raised RadiusUnderflow.
        assert calls["generate"] == sum(len(t.steps) + t.radius_exhausted
                                        for t in report.trajectories), \
            "probe must call generate through secantplane.probe's global once per step"
        # One secant_coefficients per converged trajectory: the plane of its limit.
        assert sum(t.converged for t in report.trajectories) == converged
        assert calls["secant_coefficients"] == converged, \
            "probe must call secant_coefficients through secantplane.probe's global " \
            "once per converged trajectory"


class TestGradientCoherence:
    @pytest.mark.parametrize("name,f,grad,base", list(battery_cases()),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_smooth_battery_trajectories_converge_to_gradient(self, name, f, grad, base):
        cfg = default_cfg(base)
        report = probe(f, base, cfg)
        gx, gy = grad(base.x, base.y)
        assert report.verdict is Verdict.CONSISTENT_WITH_DIFFERENTIABLE
        for traj in report.trajectories:
            assert traj.converged
            assert abs(traj.limit.alpha - gx) <= AGREE_TOL
            assert abs(traj.limit.beta - gy) <= AGREE_TOL

    @pytest.mark.parametrize("name,f,grad,base", list(battery_cases()),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_first_order_convergence_of_coefficient_error(self, name, f, grad, base):
        cfg = default_cfg(base)
        traj = run_trajectory(f, base, cfg.sequence_specs[1], cfg)
        gx, gy = grad(base.x, base.y)
        errors = [max(abs(s.alpha - gx), abs(s.beta - gy)) for s in traj.steps]
        noise_floor = 100 * math.ulp(max(1.0, abs(gx), abs(gy)))
        checked = 0
        for e1, e2 in zip(errors[3:13], errors[4:14]):
            if min(e1, e2) > noise_floor:
                assert 0.3 <= e2 / e1 <= 0.7, f"{name} at ({base.x}, {base.y})"
                checked += 1
        assert checked >= 5

    @pytest.mark.parametrize("name,f,grad,base", list(battery_cases()),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_consistent_verdict_implies_vanishing_residual(self, name, f, grad, base):
        report = probe(f, base, default_cfg(base))
        assert report.verdict is Verdict.CONSISTENT_WITH_DIFFERENTIABLE
        checks = report.residual_checks
        r_init, ratio_init = checks[0]
        r_min, ratio_min = min(checks, key=lambda c: c[0])
        assert ratio_min < 10.0 * (r_min / r_init) * ratio_init, \
            f"{name} at ({base.x}, {base.y})"

    def test_residuals_shrink_with_radius(self):
        base = Point2(0.5, 0.2)
        f = lambda x, y: math.sin(x) * math.cos(y)
        report = probe(f, base, default_cfg(base))
        checks = report.residual_checks
        # mid-window radii: first-order signal dominates the limit-error floor
        for (r1, v1), (r2, v2) in zip(checks[4:12], checks[5:13]):
            assert 0.3 <= v2 / v1 <= 0.7


class TestProbeConfigValidation:
    def test_fields_are_the_specs_the_angle_floor_and_the_step_limit(self):
        # The stopping policy is the module constants TAIL_WINDOW, CAUCHY_TOL
        # and AGREE_TOL, not settings.
        assert ProbeConfig._fields == ("sequence_specs", "angle_floor", "max_steps")

    def test_needs_two_specs(self):
        with pytest.raises(InvalidSpec):
            ProbeConfig(sequence_specs=(radial(ORIGIN, 1.0, 0.0),))

    def test_angle_floor_range(self):
        specs = default_sequence_specs(ORIGIN)
        with pytest.raises(InvalidSpec):
            ProbeConfig(sequence_specs=specs, angle_floor=1.0)

    def test_max_steps_is_stored_as_an_int(self):
        class Index:
            """An integer type that is not ``int``, as NumPy's are."""

            def __index__(self):
                return 12

        cfg = ProbeConfig(sequence_specs=default_sequence_specs(ORIGIN), max_steps=Index())
        assert type(cfg.max_steps) is int and cfg.max_steps == 12
        traj = run_trajectory(SQUARE, ORIGIN, cfg.sequence_specs[0], cfg)
        assert len(traj.steps) == 12


def _pairwise_loop(vectors):
    """The largest max-norm gap found by comparing every pair, as the probe
    computed it before it took component ranges."""
    worst = 0.0
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            da = abs(vectors[i][0] - vectors[j][0])
            db = abs(vectors[i][1] - vectors[j][1])
            worst = max(worst, da, db)
    return worst


MIN_NORMAL = 2.2250738585072014e-308
coefficients = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-MIN_NORMAL, max_value=MIN_NORMAL),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308]))


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.tuples(coefficients, coefficients), max_size=8))
@example([])
@example([(-0.0, 0.0)])
@example([(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)])
@example([(1e308, 5e-324), (-1e308, -5e-324)])
def test_max_pairwise_is_the_pairwise_loop_bit_for_bit(vectors):
    # Inputs are finite, as step coefficients and limits always are; the
    # 1e308 gaps overflow to inf in both.
    assert struct.pack("<d", _max_pairwise(vectors)) == struct.pack("<d", _pairwise_loop(vectors))
