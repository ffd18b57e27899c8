"""Command-line interface.

Subcommands:

* ``estimate`` -- secant-plane coefficients for one three-point sample.
* ``probe`` -- drive sequences toward a point and report a verdict.
* ``counterexample`` -- reproduce the collapsing-angle family on
  z = x^2 + y^2: the rows are the ``run_trajectory`` steps of both pairings,
  with check columns against the closed forms, for k up to ``--kmax``, which
  must lie in 1..9,999,999 (the pairings' last step).

Exit codes: 0 success (probe: consistent), 2 bad flags / expression /
validation / unwritable ``--out``, 3 degenerate basis (estimate),
4 probe contradicted, 5 probe inconclusive.

Each ``cmd_*`` function returns ``(exit code, text)`` and writes nothing. The
text is a ``str``, except for ``counterexample``, whose rows are rendered in
chunks of ``_CHUNK_ROWS`` as they are written, so that the whole text is never
held. ``main`` alone writes the text, to stdout or to ``--out``, and only once
the command has returned, by when every check of its arguments has run. It is
also the only place that maps errors to exit codes: every library error (a
``ValueError``) and every ``OSError`` becomes one ``error: …`` line on stderr
and exit 2, or the subcommand's ``degenerate_exit`` for a
``DegenerateBasis``.

The argument parser is built on the first call of ``build_parser`` and
shared by every later call in the process; ``build_parser()`` returns that
shared parser, which callers must not change.

Numeric fields are serialized with 17 significant digits in CSV so that
parsing the output recovers every binary64 value bit-exactly; JSON uses
Python's shortest round-trip float rendering, which is also bit-exact. JSON
and CSV are both written by this module's own writers, without the ``json``
and ``csv`` modules. A CSV field is a ``.17g`` number, an int, ``""``, a fixed
column name, an enum value or a pairing or summary name: none holds a comma, a
double quote or a line break, so no field needs quoting, and each row is its
fields joined by commas and ended by CRLF, as ``csv.writer`` ends it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from itertools import islice
from typing import Iterator, Optional

from . import expr
from .errors import DegenerateBasis, InvalidSpec
from .geometry import (DEFAULT_DEGENERACY_FLOOR, Point2, Vec2, _unit, angle_between,
                       sample_function, secant_coefficients)
from .probe import (
    AGREE_TOL,
    CAUCHY_TOL,
    DEFAULT_ANGLE_FLOOR,
    DEFAULT_MAX_STEPS,
    TAIL_WINDOW,
    CoefficientTrajectory,
    ProbeConfig,
    ProbeReport,
    TrajectoryStep,
    Verdict,
    default_sequence_specs,
    probe,
    random_spec_floor,
    run_trajectory,
)
from .sequences import (_PAIRING_SPECS, COMPANION_SCALES, INITIAL_RADIUS, ORIGIN, RADIUS_DECAY,
                        SequenceKind, SequenceSpec, generate)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_CONTRADICTED = 4
EXIT_INCONCLUSIVE = 5

_VERDICT_EXIT = {
    Verdict.CONSISTENT_WITH_DIFFERENTIABLE: EXIT_OK,
    Verdict.CONTRADICTED: EXIT_CONTRADICTED,
    Verdict.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


def _g17(x: float) -> str:
    return format(x, ".17g")


def _parse_point(text: str) -> Point2:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'x,y', got {text!r}")
    try:
        return Point2(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


#: Each collapsing-angle pairing by its name, the suffix of its kind's value.
_PAIRINGS = {kind.value.rpartition("-")[2]: kind for kind in COMPANION_SCALES}
#: The parameters of a 'random' entry: each one's conversion and what it needs.
_RANDOM_PARAMETERS = {"seed": (int, "an integer"), "floor": (float, "a number")}


def _parse_seq_entry(entry: str, base: Point2, angle_floor: float) -> SequenceSpec:
    kind, _, args = entry.strip().partition(":")
    kind = kind.strip()
    if kind == "radial":
        try:
            dx_text, dy_text = args.split(",")
            d = Vec2(float(dx_text), float(dy_text))
        except ValueError:
            raise InvalidSpec(f"radial entry needs a direction 'radial:DX,DY', got {entry!r}")
        if d.is_zero():
            raise InvalidSpec("radial direction must be nonzero")
        return SequenceSpec(SequenceKind.RADIAL_ORTHOGONAL, base=base,
                            direction=Vec2(*_unit(d.dx, d.dy)))
    if kind == "random":
        given = {}
        for item in filter(None, (s.strip() for s in args.split(","))):
            key, _, value = item.partition("=")
            if key not in _RANDOM_PARAMETERS:
                raise InvalidSpec(f"unknown random parameter {key!r} in {entry!r}")
            if key in given:
                raise InvalidSpec(f"random parameter {key!r} given twice in {entry!r}")
            convert, needs = _RANDOM_PARAMETERS[key]
            try:
                given[key] = convert(value)
            except ValueError:
                raise InvalidSpec(f"random parameter {key!r} needs {needs}, "
                                  f"got {value!r} in {entry!r}") from None
        return SequenceSpec(SequenceKind.RANDOM_ANGLE_FLOOR, base=base, seed=given.get("seed", 0),
                            angle_floor=given.get("floor", random_spec_floor(angle_floor)))
    if kind == "counterexample":
        pairing = _PAIRINGS.get(args.strip().lower())
        if pairing is None:
            names = " or ".join(repr(":" + name) for name in _PAIRINGS)
            raise InvalidSpec(f"counterexample entry needs {names}, got {entry!r}")
        return SequenceSpec(pairing, base=base)
    raise InvalidSpec(f"unknown sequence kind {kind!r} in {entry!r}")


def _parse_seqs(raw: Optional[list[str]], base: Point2, angle_floor: float,
                ) -> tuple[SequenceSpec, ...]:
    if not raw:
        return default_sequence_specs(base, angle_floor=angle_floor)
    entries = []
    for chunk in raw:
        entries.extend(e for e in chunk.split(";") if e.strip())
    return tuple(_parse_seq_entry(e, base, angle_floor) for e in entries)


# JSON documents are written byte for byte as the json module writes them with
# indent=2, but without it: CPython's indenting encoder is pure Python and pays
# for its set-up on every call. The long lists (probe steps, counterexample
# rows) are rendered through one %-template per record, and the small blocks
# through _json_block. The only strings written are fixed keys, enum values
# and _CE_SUMMARY names, which need no escaping.

_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _json_float(x: float) -> str:
    """``x`` spelled as ``json`` spells a float."""
    text = repr(x)
    return _NON_FINITE.get(text, text)


def _json_block(obj, depth: int) -> str:
    """``obj`` (dict, list, float, int, bool, None or a plain string) as the
    json module writes it with indent=2, ``depth`` levels deep."""
    if isinstance(obj, dict):
        return _json_object([(key, _json_block(value, depth + 1))
                             for key, value in obj.items()], depth) if obj else "{}"
    if isinstance(obj, list):
        return _json_array([_json_block(value, depth + 1) for value in obj], depth)
    if isinstance(obj, float):
        return _json_float(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    return '"%s"' % obj


def _json_object(items, depth: int) -> str:
    """A non-empty JSON object of (key, rendered value) pairs, ``depth`` levels deep."""
    pad = "\n" + "  " * (depth + 1)
    return "{%s\n%s}" % (",".join('%s"%s": %s' % (pad, key, value) for key, value in items),
                         "  " * depth)


def _json_array(rendered: list[str], depth: int) -> str:
    """A JSON array of rendered values, ``depth`` levels deep."""
    if not rendered:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[%s%s\n%s]" % (pad, ("," + pad).join(rendered), "  " * depth)


_STEP_COLUMNS = ("k", "radius", "sin_theta", "alpha", "beta", "meets_floor")
_STEP_JSON = _json_object([(key, "%s") for key in _STEP_COLUMNS], 4)
_CE_COLUMNS = ("pairing", "k", "alpha", "beta", "alpha_check", "beta_check")
_CE_ROW_JSON = _json_object([("pairing", '"%s"'), *((key, "%s") for key in _CE_COLUMNS[1:])], 2)


def _spec_dict(spec: SequenceSpec) -> dict:
    return {
        "kind": spec.kind.value,
        "base": [spec.base.x, spec.base.y],
        "direction": [spec.direction.dx, spec.direction.dy],
        "angle_floor": spec.angle_floor,
        "decay": RADIUS_DECAY,
        "initial_radius": INITIAL_RADIUS,
        "seed": spec.seed,
    }


def _trajectory_json(index: int, t: CoefficientTrajectory) -> str:
    head = {
        "spec_index": index,
        "kind": t.spec.kind.value,
        "converged": t.converged,
        "floor_exempt": t.floor_exempt,
        "radius_exhausted": t.radius_exhausted,
        "degenerate_steps": [],
        "limit": None if t.limit is None else {"alpha": t.limit.alpha,
                                               "beta": t.limit.beta},
    }
    steps = [_STEP_JSON % (s.k, _json_float(s.radius), _json_float(s.sin_theta),
                           _json_float(s.alpha), _json_float(s.beta),
                           "true" if s.meets_floor else "false")
             for s in t.steps]
    items = [(key, _json_block(value, 3)) for key, value in head.items()]
    items.append(("steps", _json_array(steps, 3)))
    return _json_object(items, 2)


def _probe_json(report: ProbeReport, cfg: ProbeConfig, base: Point2) -> str:
    config = {
        "angle_floor": cfg.angle_floor,
        "max_steps": cfg.max_steps,
        "tail_window": TAIL_WINDOW,
        "cauchy_tol": CAUCHY_TOL,
        "agree_tol": AGREE_TOL,
        "sequence_specs": [_spec_dict(s) for s in cfg.sequence_specs],
    }
    summary = {
        "base": [base.x, base.y],
        "verdict": report.verdict.value,
        "jacobian_estimate": (None if report.jacobian_estimate is None
                              else list(report.jacobian_estimate)),
        "max_disagreement": report.max_disagreement,
        "residual_checks": [[r, ratio] for r, ratio in report.residual_checks],
    }
    trajectories = [_trajectory_json(i, t) for i, t in enumerate(report.trajectories)]
    return _json_object([("config", _json_block(config, 1)),
                         ("trajectories", _json_array(trajectories, 1)),
                         ("summary", _json_block(summary, 1))], 0) + "\n"


def _csv(header, rows) -> str:
    """CSV text of a header row, unless it is empty, and data rows, as
    ``csv.writer`` writes them when no field needs quoting (see the module
    docstring)."""
    return "".join(",".join(map(str, row)) + "\r\n" for row in ((header, *rows) if header else rows))


def cmd_estimate(args) -> tuple[int, str]:
    f = expr.as_function(expr.parse(args.function))
    sample = sample_function(f, args.point, args.a, args.b)
    quality = angle_between(*sample.basis())
    coeffs = secant_coefficients(sample, args.floor)
    fields = {
        "alpha": coeffs.alpha, "beta": coeffs.beta,
        "x0": coeffs.x0, "y0": coeffs.y0, "z0": coeffs.z0,
        "sin_theta": quality.sin_theta,
    }
    if args.format == "json":
        return EXIT_OK, _json_block(fields, 0) + "\n"
    if args.format == "csv":
        return EXIT_OK, _csv(fields, [[_g17(v) for v in fields.values()]])
    return EXIT_OK, (f"plane through ({_g17(coeffs.x0)}, {_g17(coeffs.y0)}, {_g17(coeffs.z0)}):\n"
                     f"  alpha     = {_g17(coeffs.alpha)}\n"
                     f"  beta      = {_g17(coeffs.beta)}\n"
                     f"  sin_theta = {_g17(quality.sin_theta)}\n")


def _probe_csv(report: ProbeReport) -> str:
    est = report.jacobian_estimate
    summary = [report.verdict.value,
               "" if est is None else _g17(est[0]),
               "" if est is None else _g17(est[1]),
               _g17(report.max_disagreement)]
    return _csv(["spec_index", "kind", *_STEP_COLUMNS, "verdict", "estimate_alpha",
                 "estimate_beta", "max_disagreement"],
                ([i, t.spec.kind.value, s.k, _g17(s.radius), _g17(s.sin_theta),
                  _g17(s.alpha), _g17(s.beta), int(s.meets_floor), *summary]
                 for i, t in enumerate(report.trajectories) for s in t.steps))


def _probe_table(report: ProbeReport) -> str:
    lines = []
    for i, t in enumerate(report.trajectories):
        status = "converged" if t.converged else "not converged"
        lines.append(f"trajectory {i} [{t.spec.kind.value}] ({status})")
        lines.append(f"  {'k':>4} {'radius':>13} {'sin_theta':>13} "
                     f"{'alpha':>24} {'beta':>24} floor")
        for s in t.steps:
            lines.append(f"  {s.k:>4} {s.radius:>13.6e} {s.sin_theta:>13.6e} "
                         f"{s.alpha:>24.17g} {s.beta:>24.17g} "
                         f"{'ok' if s.meets_floor else 'VIOLATED'}")
        if t.limit is not None:
            lines.append(f"  limit: alpha={_g17(t.limit.alpha)} beta={_g17(t.limit.beta)}")
    lines.append(f"verdict: {report.verdict.value}")
    if report.jacobian_estimate is not None:
        a, b = report.jacobian_estimate
        lines.append(f"jacobian estimate: ({_g17(a)}, {_g17(b)})")
    lines.append(f"max disagreement: {_g17(report.max_disagreement)}")
    if report.residual_checks:
        lines.append("residual checks (radius, ratio):")
        for r, ratio in report.residual_checks:
            lines.append(f"  {r:>13.6e} {ratio:>13.6e}")
    return "\n".join(lines) + "\n"


def cmd_probe(args) -> tuple[int, str]:
    f = expr.as_function(expr.parse(args.function))
    specs = _parse_seqs(args.seqs, args.point, args.p)
    cfg = ProbeConfig(sequence_specs=specs, angle_floor=args.p, max_steps=args.steps)
    report = probe(f, args.point, cfg)
    if args.format == "json":
        text = _probe_json(report, cfg, args.point)
    else:
        text = (_probe_csv if args.format == "csv" else _probe_table)(report)
    return _VERDICT_EXIT[report.verdict], text


def _counterexample_rows(trajectories: list[tuple[TrajectoryStep, ...]]) -> Iterator[tuple]:
    """One tuple per step and pairing, k-major with ab first, in ``_CE_COLUMNS``
    order, from each pairing's steps in ``_PAIRINGS`` order, with check columns
    against the closed forms sin(1/k) and scale - cos(1/k)."""
    pairings = tuple(zip(_PAIRINGS, COMPANION_SCALES.values()))
    for steps in zip(*trajectories):
        for (pairing, scale), s in zip(pairings, steps):
            yield (pairing, s.k, s.alpha, s.beta, s.alpha - math.sin(1.0 / s.k),
                   s.beta - (scale - math.cos(1.0 / s.k)))


# Each pairing's limit plane z = (scale - 1) y, then the tangent plane z = 0.
_CE_SUMMARY = (*((f"{pairing}-limit", 0.0, scale - 1.0)
                 for pairing, scale in zip(_PAIRINGS, COMPANION_SCALES.values())),
               ("tangent", 0.0, 0.0))
#: Rows per chunk of the counterexample output, which main writes as it comes.
_CHUNK_ROWS = 1000


def _batches(rows: Iterator[tuple]) -> Iterator[list[tuple]]:
    """``rows`` in lists of at most ``_CHUNK_ROWS``."""
    while batch := list(islice(rows, _CHUNK_ROWS)):
        yield batch


def _counterexample_text(rows: Iterator[tuple], fmt: str) -> Iterator[str]:
    """The ``counterexample`` output of ``rows`` in ``fmt``, one chunk per batch
    of rows. The JSON is laid out as ``_json_object`` and ``_json_array`` lay
    it out."""
    if fmt == "json":
        yield '{\n  "rows": ['
        lead = ""
        for batch in _batches(rows):
            yield lead + ",".join("\n    " + _CE_ROW_JSON % (pairing, k, *map(_json_float, values))
                                  for pairing, k, *values in batch)
            lead = ","
        summary = [{"plane": name, "alpha": a, "beta": b} for name, a, b in _CE_SUMMARY]
        yield ("\n  ]" if lead else "]") + ',\n  "summary": ' + _json_block(summary, 1) + "\n}\n"
    elif fmt == "csv":
        yield _csv(_CE_COLUMNS, ())
        for batch in _batches(rows):
            yield _csv((), ([pairing, k, *map(_g17, values)] for pairing, k, *values in batch))
        yield _csv((), ([name, "", _g17(a), _g17(b), "", ""] for name, a, b in _CE_SUMMARY))
    else:
        yield (f"{'pair':>4} {'k':>6} {'alpha':>24} {'beta':>24} "
               f"{'alpha_check':>13} {'beta_check':>13}\n")
        for batch in _batches(rows):
            yield "".join(f"{pairing:>4} {k:>6} {alpha:>24.17g} {beta:>24.17g} "
                          f"{alpha_check:>13.3e} {beta_check:>13.3e}\n"
                          for pairing, k, alpha, beta, alpha_check, beta_check in batch)
        yield "limits: ab -> z = y; ac -> z = 2y; tangent plane -> z = 0\n"


def cmd_counterexample(args) -> tuple[int, Iterator[str]]:
    """The first ``--kmax`` steps of each pairing's trajectory on x^2 + y^2, run
    here, so that every error is raised before ``main`` writes, and rendered
    as ``main`` writes them.

    Raises:
        InvalidSpec: for ``--kmax`` below 1.
        RadiusUnderflow: past the pairings' last step, k = 9,999,999, before
            any step is taken.
    """
    kmax = args.kmax
    if kmax < 1:
        raise InvalidSpec("--kmax must be >= 1")
    generate(_PAIRING_SPECS[0], kmax)  # the check of kmax against the last step
    f = lambda x, y: x * x + y * y
    cfg = ProbeConfig(_PAIRING_SPECS, max_steps=max(kmax, 2 * TAIL_WINDOW))
    trajectories = [run_trajectory(f, ORIGIN, spec, cfg).steps[:kmax] for spec in _PAIRING_SPECS]
    return EXIT_OK, _counterexample_text(_counterexample_rows(trajectories), args.format)


_parser: Optional[argparse.ArgumentParser] = None


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser: built on the first call, then shared by every call.

    Parsing does not change the parser and fills a fresh namespace each time,
    so one parser serves every ``main`` call; callers must not change it.
    """
    global _parser
    if _parser is not None:
        return _parser
    parser = argparse.ArgumentParser(
        prog="secantplane",
        description="Secant-plane derivative estimation and differentiability probing "
                    "for scalar functions of two variables.")
    parser.set_defaults(out=None, degenerate_exit=EXIT_USAGE)
    sub = parser.add_subparsers(dest="command", required=True)
    est = sub.add_parser("estimate", help="coefficients for one secant sample")
    prb = sub.add_parser("probe", help="probe differentiability at a point")
    ce = sub.add_parser("counterexample",
                        help="reproduce the collapsing-angle family on x^2+y^2")
    for command in (est, prb):
        command.add_argument("--function", required=True, help="expression in x and y")
        command.add_argument("--point", required=True, type=_parse_point,
                             help="base point 'x,y'")

    est.add_argument("--a", required=True, type=_parse_point, help="first companion 'x,y'")
    est.add_argument("--b", required=True, type=_parse_point, help="second companion 'x,y'")
    est.add_argument("--floor", type=float, default=DEFAULT_DEGENERACY_FLOOR,
                     help="degeneracy floor on sin(theta) (default %(default)g)")
    est.set_defaults(degenerate_exit=EXIT_DEGENERATE)

    prb.add_argument("--p", type=float, default=DEFAULT_ANGLE_FLOOR,
                     help="uniform angle floor p in (0,1) (default %(default)g)")
    prb.add_argument("--steps", type=int, default=DEFAULT_MAX_STEPS,
                     help="max steps per sequence (default %(default)g), at least "
                          f"{2 * TAIL_WINDOW}; radial and random specs stop at step 20 "
                          "(1e-7 radius), so more steps only lengthen counterexample specs")
    prb.add_argument("--seqs", action="append", default=None, metavar="SPEC",
                     help="sequence specs, ';'-separated or repeated: 'radial:DX,DY', "
                          "'random:seed=N,floor=P', "
                          + ", ".join(f"'counterexample:{name}'" for name in _PAIRINGS)
                          + " (default: two orthogonal radial + one random)")
    prb.add_argument("--out", default=None, help="write output to a file instead of stdout")

    ce.add_argument("--kmax", type=int, default=10, help="largest step index")
    for command in (est, prb, ce):
        command.add_argument("--format", choices=("table", "csv", "json"), default="table")
    _parser = parser
    return parser


def _write(handle, text) -> None:
    """Write a command's text: one ``str``, or its chunks as they come."""
    for chunk in (text,) if isinstance(text, str) else text:
        handle.write(chunk)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        # An --out that cannot be written is reported before any work is done;
        # the file is opened only once the command has returned.
        if args.out is not None:
            directory = os.path.dirname(args.out) or os.curdir
            if not args.out:
                raise OSError(f"cannot write {args.out!r}: the path is empty")
            if os.path.isdir(args.out):
                raise OSError(f"cannot write {args.out!r}: it is a directory")
            if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
                raise OSError(f"cannot write {args.out!r}: its directory is missing "
                              "or not writable")
        # Looked up by name on every call, so that the shared parser holds no
        # function of this module and a rebinding of cmd_* takes effect.
        code, text = globals()["cmd_" + args.command](args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                _write(handle, text)
        else:
            _write(sys.stdout, text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return args.degenerate_exit if isinstance(exc, DegenerateBasis) else EXIT_USAGE
    return code
