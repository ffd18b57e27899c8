import math

import pytest

from secantplane import (
    DegenerateBasis,
    EvaluationError,
    InvalidSpec,
    Point2,
    ProbeConfig,
    SequenceKind,
    SequenceSpec,
    Vec2,
    Verdict,
    default_sequence_specs,
    probe,
    run_trajectory,
)
from helpers import battery_cases, ulps

ORIGIN = Point2(0.0, 0.0)
SQUARE = lambda x, y: x * x + y * y


def radial(base, dx, dy):
    n = math.hypot(dx, dy)
    return SequenceSpec(SequenceKind.RADIAL_ORTHOGONAL, base=base,
                        direction=Vec2(dx / n, dy / n))


def default_cfg(base, **overrides):
    return ProbeConfig(sequence_specs=default_sequence_specs(base), **overrides)


class TestRunTrajectory:
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

    def test_report_is_bitwise_reproducible(self):
        base = Point2(0.7, -0.2)
        cfg = default_cfg(base)
        f = lambda x, y: math.sin(x) * math.cos(y)
        assert probe(f, base, cfg) == probe(f, base, cfg)


class CountingField:
    """A scalar field that counts its evaluations."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, x, y):
        self.calls += 1
        return self.f(x, y)


class TestEvaluationCount:
    def test_default_probe_at_a_smooth_point(self):
        base = Point2(1.0, 2.0)
        f = CountingField(SQUARE)
        report = probe(f, base, default_cfg(base))
        assert report.verdict is Verdict.CONSISTENT_WITH_DIFFERENTIABLE
        # Three trajectories of f(P) plus two companions at each of 20 steps,
        # then one residual check per retained radius.
        assert [len(t.steps) for t in report.trajectories] == [20, 20, 20]
        assert len(report.residual_checks) == 20
        assert f.calls == 3 * (1 + 2 * 20) + 20

    @pytest.mark.parametrize("spec", [
        radial(ORIGIN, 1.0, 0.0),
        SequenceSpec(SequenceKind.RANDOM_ANGLE_FLOOR, seed=7),
        SequenceSpec(SequenceKind.COUNTEREXAMPLE_AB),
    ], ids=lambda s: s.kind.value)
    def test_trajectory_evaluates_base_once(self, spec):
        cfg = ProbeConfig(sequence_specs=(spec, radial(ORIGIN, 0.0, 1.0)), max_steps=50)
        f = CountingField(SQUARE)
        traj = run_trajectory(f, ORIGIN, spec, cfg)
        pairs = len(traj.steps) + len(traj.degenerate_steps)
        assert pairs == (50 if traj.floor_exempt else 20)
        assert f.calls == 1 + 2 * pairs


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
            assert abs(traj.limit.alpha - gx) <= cfg.agree_tol
            assert abs(traj.limit.beta - gy) <= cfg.agree_tol

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
    def test_needs_two_specs(self):
        with pytest.raises(InvalidSpec):
            ProbeConfig(sequence_specs=(radial(ORIGIN, 1.0, 0.0),))

    def test_tail_window_cap(self):
        specs = default_sequence_specs(ORIGIN)
        with pytest.raises(InvalidSpec):
            ProbeConfig(sequence_specs=specs, max_steps=8, tail_window=5)

    def test_positive_tolerances(self):
        specs = default_sequence_specs(ORIGIN)
        with pytest.raises(InvalidSpec):
            ProbeConfig(sequence_specs=specs, cauchy_tol=0.0)
        with pytest.raises(InvalidSpec):
            ProbeConfig(sequence_specs=specs, agree_tol=-1.0)

    def test_angle_floor_range(self):
        specs = default_sequence_specs(ORIGIN)
        with pytest.raises(InvalidSpec):
            ProbeConfig(sequence_specs=specs, angle_floor=1.0)

    def test_min_steps(self):
        specs = default_sequence_specs(ORIGIN)
        with pytest.raises(InvalidSpec):
            ProbeConfig(sequence_specs=specs, max_steps=7, tail_window=2)
