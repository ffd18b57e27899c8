"""The CLI's JSON writer against ``json.dumps(indent=2)`` of reference dicts.

Reports, counterexample rows and estimate fields are drawn directly, not
probed, so that the text is checked on values a probe rarely or never
produces: non-finite and subnormal floats, -0.0, the ends of the float range,
empty lists and absent limits.
"""

import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from json_reference import counterexample_document, probe_document
from secantplane import (
    CoefficientTrajectory,
    PlaneCoeffs,
    Point2,
    ProbeConfig,
    ProbeReport,
    SequenceKind,
    SequenceSpec,
    TrajectoryStep,
    Vec2,
    Verdict,
)
from secantplane.cli import _CE_COLUMNS, _counterexample_json, _json_block, _probe_json

NAN, INF = math.nan, math.inf
EDGES = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
         1.7976931348623157e308]

finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGES))
any_float = st.one_of(st.floats(), st.sampled_from(EDGES + [NAN, INF, -INF]))
unit_interval = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


@st.composite
def specs(draw):
    kind = draw(st.sampled_from(list(SequenceKind)))
    if kind in (SequenceKind.COUNTEREXAMPLE_AB, SequenceKind.COUNTEREXAMPLE_AC):
        base = Point2(draw(st.sampled_from([0.0, -0.0])), 0.0)
    else:
        base = Point2(draw(finite), draw(finite))
    turn = draw(st.floats(min_value=-math.pi, max_value=math.pi))
    return SequenceSpec(kind, base=base, angle_floor=draw(unit_interval),
                        direction=Vec2(math.cos(turn), math.sin(turn)),
                        seed=draw(st.integers(min_value=0, max_value=2**64)))


@st.composite
def configs(draw):
    chosen = draw(st.lists(specs(), min_size=2, max_size=4))
    floor = min((s.angle_floor for s in chosen
                 if s.kind is SequenceKind.RANDOM_ANGLE_FLOOR), default=0.5)
    return ProbeConfig(
        sequence_specs=tuple(chosen),
        angle_floor=draw(st.floats(min_value=0.0, max_value=floor, exclude_min=True)),
        max_steps=draw(st.integers(min_value=10, max_value=10**6)))


steps = st.builds(TrajectoryStep, k=st.integers(min_value=0, max_value=10**9),
                  alpha=any_float, beta=any_float, sin_theta=any_float,
                  radius=any_float, meets_floor=st.booleans())
limits = st.none() | st.builds(PlaneCoeffs, finite, finite, finite, finite, finite)


@st.composite
def trajectories(draw, spec):
    return CoefficientTrajectory(
        spec=spec, steps=tuple(draw(st.lists(steps, max_size=4))),
        converged=draw(st.booleans()), limit=draw(limits),
        floor_exempt=draw(st.booleans()), radius_exhausted=draw(st.booleans()))


@st.composite
def probe_cases(draw):
    cfg = draw(configs())
    report = ProbeReport(
        verdict=draw(st.sampled_from(list(Verdict))),
        jacobian_estimate=draw(st.none() | st.tuples(finite, finite)),
        trajectories=tuple(draw(trajectories(s)) for s in cfg.sequence_specs
                           if draw(st.booleans())),
        max_disagreement=draw(any_float),
        residual_checks=tuple(draw(st.lists(st.tuples(any_float, any_float), max_size=3))))
    return report, cfg, Point2(draw(finite), draw(finite))


def _every_listed_case():
    """One report holding each case the writer must spell as json does."""
    random_spec = SequenceSpec(SequenceKind.RANDOM_ANGLE_FLOOR, base=Point2(-0.0, 1e308),
                               angle_floor=0.7, seed=3)
    collapsing = SequenceSpec(SequenceKind.COUNTEREXAMPLE_AB)
    cfg = ProbeConfig(sequence_specs=(random_spec, collapsing))
    unusual = (TrajectoryStep(1, -0.0, 5e-324, 1e308, -1e308, False),
               TrajectoryStep(2, NAN, INF, -INF, 2.2250738585072014e-308, True))
    report = ProbeReport(
        verdict=Verdict.INCONCLUSIVE,
        jacobian_estimate=None,
        trajectories=(
            CoefficientTrajectory(random_spec, unusual, False, None, False, True),
            CoefficientTrajectory(collapsing, (), True,
                                  PlaneCoeffs(0.0, 0.0, 0.0, -0.0, -1e308), True, False)),
        max_disagreement=NAN,
        residual_checks=((INF, -INF), (NAN, 5e-324), (-0.0, 1e308)))
    return report, cfg, Point2(-0.0, 5e-324)


@settings(max_examples=300, deadline=None)
@given(probe_cases())
@example(_every_listed_case())
def test_probe_json_is_json_dumps_indent_2(case):
    report, cfg, base = case
    expected = json.dumps(probe_document(report, cfg, base), indent=2) + "\n"
    assert _probe_json(report, cfg, base) == expected


# Tuples in _CE_COLUMNS order, as the CLI builds its rows.
rows = st.tuples(st.sampled_from(["ab", "ac"]), st.integers(min_value=1, max_value=10**9),
                 any_float, any_float, any_float, any_float)


@settings(max_examples=300, deadline=None)
@given(st.lists(rows, max_size=5))
@example([])
@example([("ab", 1, -0.0, 5e-324, NAN, INF),
          ("ac", 2, 1e308, -1e308, -INF, -5e-324)])
def test_counterexample_json_is_json_dumps_indent_2(drawn_rows):
    # The reference dumps dicts, keyed by the column names in column order.
    document = counterexample_document([dict(zip(_CE_COLUMNS, row)) for row in drawn_rows])
    assert _counterexample_json(drawn_rows) == json.dumps(document, indent=2) + "\n"


ESTIMATE_KEYS = ("alpha", "beta", "x0", "y0", "z0", "sin_theta")


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[any_float] * len(ESTIMATE_KEYS)))
@example((-0.0, 5e-324, -5e-324, 1e308, -1e308, 2.2250738585072014e-308))
@example((NAN, INF, -INF, 1.7976931348623157e308, 0.0, 1.0))
def test_estimate_json_is_json_dumps_indent_2(values):
    # cmd_estimate writes its fields as _json_block(fields, 0) + "\n".
    fields = dict(zip(ESTIMATE_KEYS, values))
    assert _json_block(fields, 0) + "\n" == json.dumps(fields, indent=2) + "\n"
