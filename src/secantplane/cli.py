"""Command-line interface.

Subcommands:

* ``estimate`` -- secant-plane coefficients for one three-point sample.
* ``probe`` -- drive sequences toward a point and report a verdict.
* ``counterexample`` -- reproduce the collapsing-angle family on
  z = x^2 + y^2, with closed-form check columns.

Exit codes: 0 success (probe: consistent), 2 bad flags / expression /
validation / unwritable ``--out``, 3 degenerate basis (estimate),
4 probe contradicted, 5 probe inconclusive.

Each ``cmd_*`` function returns ``(exit code, text)`` and writes nothing.
``main`` alone writes the text, to stdout or to ``--out``, and only once the
command has returned. It is also the only place that maps errors to exit
codes: every library error (a ``ValueError``) and every ``OSError`` becomes
one ``error: …`` line on stderr and exit 2, or the subcommand's
``degenerate_exit`` for a ``DegenerateBasis``.

The argument parser is built on the first call of ``build_parser`` and
shared by every later call in the process; ``build_parser()`` returns that
shared parser, which callers must not change.

Numeric fields are serialized with 17 significant digits in CSV so that
parsing the output recovers every binary64 value bit-exactly; JSON uses
Python's shortest round-trip float rendering, which is also bit-exact. JSON
is written by this module's own writer, without the ``json`` module.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from typing import Optional

from . import expr
from .errors import DegenerateBasis, InvalidSpec
from .geometry import (DEFAULT_DEGENERACY_FLOOR, Point2, Vec2, _unit, angle_between,
                       sample_function, secant_coefficients)
from .probe import (
    CoefficientTrajectory,
    ProbeConfig,
    ProbeReport,
    Verdict,
    default_sequence_specs,
    probe,
    random_spec_floor,
)
from .sequences import ORIGIN, SequenceKind, SequenceSpec, counterexample_points

# csv is imported inside the function that writes it, and json is not used at
# all, so that importing this module does not pay for them (a tenth of its
# import time). The parser is built on the first call, not at import.

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
        seed = 0
        floor = random_spec_floor(angle_floor)
        for item in filter(None, (s.strip() for s in args.split(","))):
            key, _, value = item.partition("=")
            if key not in ("seed", "floor"):
                raise InvalidSpec(f"unknown random parameter {key!r} in {entry!r}")
            try:
                if key == "seed":
                    seed = int(value)
                else:
                    floor = float(value)
            except ValueError:
                raise InvalidSpec(f"random parameter {key!r} needs "
                                  f"{'an integer' if key == 'seed' else 'a number'}, "
                                  f"got {value!r} in {entry!r}") from None
        return SequenceSpec(SequenceKind.RANDOM_ANGLE_FLOOR, base=base,
                            angle_floor=floor, seed=seed)
    if kind == "counterexample":
        pairing = args.strip().lower()
        if pairing == "ab":
            return SequenceSpec(SequenceKind.COUNTEREXAMPLE_AB, base=base)
        if pairing == "ac":
            return SequenceSpec(SequenceKind.COUNTEREXAMPLE_AC, base=base)
        raise InvalidSpec(f"counterexample entry needs ':ab' or ':ac', got {entry!r}")
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
        "decay": spec.decay,
        "initial_radius": spec.initial_radius,
        "seed": spec.seed,
    }


def _trajectory_json(index: int, t: CoefficientTrajectory) -> str:
    head = {
        "spec_index": index,
        "kind": t.spec.kind.value,
        "converged": t.converged,
        "floor_exempt": t.floor_exempt,
        "radius_exhausted": t.radius_exhausted,
        "degenerate_steps": list(t.degenerate_steps),
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
        "tail_window": cfg.tail_window,
        "cauchy_tol": cfg.cauchy_tol,
        "agree_tol": cfg.agree_tol,
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
    """CSV text of a header row and data rows, as ``csv.writer`` writes them."""
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


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


def _counterexample_rows(kmax: int) -> list[dict]:
    f = lambda x, y: x * x + y * y
    rows = []
    for k in range(1, kmax + 1):
        a, b, c = counterexample_points(k)
        cos_k = math.cos(1.0 / k)
        for pairing, companion, beta_target in (("ab", b, 2.0 - cos_k),
                                                ("ac", c, 3.0 - cos_k)):
            coeffs = secant_coefficients(sample_function(f, ORIGIN, a, companion))
            rows.append({
                "pairing": pairing, "k": k,
                "alpha": coeffs.alpha, "beta": coeffs.beta,
                "alpha_check": coeffs.alpha - a.x,
                "beta_check": coeffs.beta - beta_target,
            })
    return rows


_CE_SUMMARY = (
    ("ab-limit", 0.0, 1.0),
    ("ac-limit", 0.0, 2.0),
    ("tangent", 0.0, 0.0),
)


def _counterexample_json(rows: list[dict]) -> str:
    rendered = [_CE_ROW_JSON % (row["pairing"], row["k"],
                                *(_json_float(row[key]) for key in _CE_COLUMNS[2:]))
                for row in rows]
    summary = [{"plane": name, "alpha": a, "beta": b} for name, a, b in _CE_SUMMARY]
    return _json_object([("rows", _json_array(rendered, 1)),
                         ("summary", _json_block(summary, 1))], 0) + "\n"


def cmd_counterexample(args) -> tuple[int, str]:
    if args.kmax < 1:
        raise InvalidSpec("--kmax must be >= 1")
    rows = _counterexample_rows(args.kmax)
    if args.format == "json":
        return EXIT_OK, _counterexample_json(rows)
    if args.format == "csv":
        body = [[row["pairing"], row["k"], *(_g17(row[key]) for key in _CE_COLUMNS[2:])]
                for row in rows]
        body += ([name, "", _g17(a), _g17(b), "", ""] for name, a, b in _CE_SUMMARY)
        return EXIT_OK, _csv(_CE_COLUMNS, body)
    lines = [f"{'pair':>4} {'k':>6} {'alpha':>24} {'beta':>24} "
             f"{'alpha_check':>13} {'beta_check':>13}"]
    lines.extend(f"{row['pairing']:>4} {row['k']:>6} {row['alpha']:>24.17g} "
                 f"{row['beta']:>24.17g} {row['alpha_check']:>13.3e} "
                 f"{row['beta_check']:>13.3e}" for row in rows)
    lines.append("limits: ab -> z = y; ac -> z = 2y; tangent plane -> z = 0")
    return EXIT_OK, "\n".join(lines) + "\n"


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

    prb.add_argument("--p", type=float, default=ProbeConfig.angle_floor,
                     help="uniform angle floor p in (0,1) (default %(default)g)")
    prb.add_argument("--steps", type=int, default=ProbeConfig.max_steps,
                     help="max steps per sequence (default %(default)g); radial and random "
                          "specs stop at step 20 (1e-7 radius), so more steps only "
                          "lengthen counterexample specs")
    prb.add_argument("--seqs", action="append", default=None, metavar="SPEC",
                     help="sequence specs, ';'-separated or repeated: "
                          "'radial:DX,DY', 'random:seed=N,floor=P', "
                          "'counterexample:ab', 'counterexample:ac' "
                          "(default: two orthogonal radial + one random)")
    prb.add_argument("--out", default=None, help="write output to a file instead of stdout")

    ce.add_argument("--kmax", type=int, default=10, help="largest step index")
    for command in (est, prb, ce):
        command.add_argument("--format", choices=("table", "csv", "json"), default="table")
    _parser = parser
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        # An --out that cannot be written is reported before any work is done;
        # the file is opened only once the command has its text.
        if args.out:
            directory = os.path.dirname(args.out) or os.curdir
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
                handle.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return args.degenerate_exit if isinstance(exc, DegenerateBasis) else EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
