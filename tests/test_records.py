"""The package's records: named tuples, read-only, printed and copied as before.

Every record is a ``tuple`` subclass made with ``collections.namedtuple``,
except ``ProbeReport`` (see ``test_probe_report_is_the_only_dataclass``). A
record has a ``class`` statement of its own only where the class adds a
docstring, a check in ``__new__`` or a method; otherwise it is the bare named
tuple. A record that checks its fields does so in ``__new__``, which ``_make``
and ``_replace`` go through too (``test_error_paths.py``).
"""

import copy
import dataclasses
import importlib
import pickle
from types import FunctionType

import pytest

from secantplane import (
    BasisQuality,
    CoefficientTrajectory,
    PlaneCoeffs,
    Point2,
    ProbeConfig,
    ProbeReport,
    SecantSample,
    SequenceKind,
    SequenceSpec,
    TrajectoryStep,
    Vec2,
    angle_between,
    default_sequence_specs,
    run_trajectory,
)
from secantplane.expr import BinOp, Call, Const, Neg, Num, Var, parse

ORIGIN = Point2(0.0, 0.0)
CONFIG = ProbeConfig(default_sequence_specs(ORIGIN))
# "-sin(x)*pi+2.5" holds one node of every type.
TREE = parse("-sin(x)*pi+2.5")

RECORDS = {
    Vec2: Vec2(1.0, -0.5),
    Point2: Point2(1.0, 2.0),
    SecantSample: SecantSample(ORIGIN, Point2(1.0, 0.0), Point2(0.0, 1.0), 0.0, 1.0, 1.0),
    PlaneCoeffs: PlaneCoeffs(0.0, 0.0, 0.0, 1.0, 2.0),
    BasisQuality: angle_between(Vec2(1.0, 0.0), Vec2(0.0, 1.0)),
    SequenceSpec: SequenceSpec(SequenceKind.RANDOM_ANGLE_FLOOR, seed=3),
    ProbeConfig: CONFIG,
    CoefficientTrajectory: run_trajectory(lambda x, y: x * x + y * y, ORIGIN,
                                          CONFIG.sequence_specs[0], CONFIG),
    BinOp: TREE,
    Neg: TREE.left.left,
    Call: TREE.left.left.operand,
    Var: TREE.left.left.operand.arg,
    Const: TREE.left.right,
    Num: TREE.right,
}
RECORDS[TrajectoryStep] = RECORDS[CoefficientTrajectory].steps[0]


def test_every_record_type_is_listed_once():
    assert len(RECORDS) == 15
    assert all(type(value) is cls for cls, value in RECORDS.items())


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_a_read_only_tuple_without_a_dict(cls):
    value = RECORDS[cls]
    assert isinstance(value, tuple)
    assert cls.__slots__ == () and not hasattr(value, "__dict__")
    assert value == tuple(value) and len(value) == len(cls._fields)
    with pytest.raises(AttributeError):
        setattr(value, cls._fields[0], None)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_class_exists_only_to_add_something(cls):
    # A bare named tuple, or a subclass whose own body gives a docstring,
    # __new__ (stored as a staticmethod) or a method: never one whose whole
    # body is __slots__ = ().
    if cls.__bases__ == (tuple,):
        return
    own = vars(cls)
    assert own.get("__doc__") or any(
        isinstance(value, (FunctionType, staticmethod, classmethod)) for value in own.values())


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_survives_pickle_and_deepcopy(cls):
    value = RECORDS[cls]
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(copied) is cls and copied == value


@pytest.mark.parametrize("value, text", [
    (Point2(1.0, 2.0), "Point2(x=1.0, y=2.0)"),
    (Vec2(1.0, -0.5), "Vec2(dx=1.0, dy=-0.5)"),
    (PlaneCoeffs(0.0, 0.0, 0.0, 1.0, 2.0), "PlaneCoeffs(x0=0.0, y0=0.0, z0=0.0, alpha=1.0, beta=2.0)"),
    (TREE, "BinOp(op='+', left=BinOp(op='*', left=Neg(operand=Call(func='sin', "
           "arg=Var(name='x'))), right=Const(name='pi')), right=Num(value=2.5))"),
    (SequenceSpec(SequenceKind.RADIAL_ORTHOGONAL),
     "SequenceSpec(kind=<SequenceKind.RADIAL_ORTHOGONAL: 'radial'>, base=Point2(x=0.0, y=0.0), "
     "angle_floor=0.5, direction=Vec2(dx=1.0, dy=0.0), seed=0)"),
])
def test_repr_names_the_fields(value, text):
    assert repr(value) == text


def test_keyword_construction_normalises_as_positional():
    kind = SequenceKind.RANDOM_ANGLE_FLOOR
    spec = SequenceSpec(kind=kind, seed=True)
    assert spec == SequenceSpec(kind=kind, seed=1) == SequenceSpec(kind, ORIGIN, 0.5, Vec2(1.0, 0.0), 1)
    assert type(spec.seed) is int
    config = ProbeConfig(sequence_specs=list(CONFIG.sequence_specs))
    assert config == CONFIG and type(config.sequence_specs) is tuple
    assert Point2(y=2.0, x=1.0) == Point2(1.0, 2.0)


def test_replace_keeps_the_type_and_normalises():
    spec = RECORDS[SequenceSpec]._replace(seed=True)
    assert type(spec) is SequenceSpec and type(spec.seed) is int and spec.seed == 1
    config = CONFIG._replace(sequence_specs=list(CONFIG.sequence_specs))
    assert type(config.sequence_specs) is tuple and config == CONFIG
    assert Point2._make([1.0, 2.0]) == Point2(1.0, 2.0)


def test_probe_report_is_the_only_dataclass():
    # ProbeReport stays a dataclass while bench/selftest.py copies reports
    # with dataclasses.replace; once it accepts _replace, ProbeReport can
    # become a named tuple too and this test lose its one name.
    found = set()
    for name in ("errors", "expr", "geometry", "probe", "sequences", "cli"):
        module = importlib.import_module(f"secantplane.{name}")
        found |= {value for value in vars(module).values()
                  if isinstance(value, type) and dataclasses.is_dataclass(value)}
    assert found == {ProbeReport}
