"""Command-line interface.

Subcommands:

* ``estimate`` -- secant-plane coefficients for one three-point sample.
* ``probe`` -- drive sequences toward a point and report a verdict.
* ``counterexample`` -- reproduce the collapsing-angle family on
  z = x^2 + y^2, with closed-form check columns.

Exit codes: 0 success (probe: consistent), 2 bad flags / expression /
validation, 3 degenerate basis (estimate), 4 probe contradicted,
5 probe inconclusive.

Numeric fields are serialized with 17 significant digits in CSV so that
parsing the output recovers every binary64 value bit-exactly; JSON uses
Python's shortest round-trip float rendering, which is also bit-exact.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Optional

from . import expr
from .errors import DegenerateBasis, EvaluationError, InvalidSpec, ParseError, ZeroVector
from .geometry import Point2, Vec2, _unit, angle_between, sample_function, secant_coefficients
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
                            direction=Vec2(*_unit(d)))
    if kind == "random":
        seed = 0
        floor = random_spec_floor(angle_floor)
        for item in filter(None, (s.strip() for s in args.split(","))):
            key, _, value = item.partition("=")
            if key == "seed":
                seed = int(value)
            elif key == "floor":
                floor = float(value)
            else:
                raise InvalidSpec(f"unknown random parameter {key!r} in {entry!r}")
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


def _trajectory_dict(index: int, t: CoefficientTrajectory) -> dict:
    return {
        "spec_index": index,
        "kind": t.spec.kind.value,
        "converged": t.converged,
        "floor_exempt": t.floor_exempt,
        "radius_exhausted": t.radius_exhausted,
        "degenerate_steps": list(t.degenerate_steps),
        "limit": None if t.limit is None else {"alpha": t.limit.alpha,
                                               "beta": t.limit.beta},
        "steps": [
            {"k": s.k, "radius": s.radius, "sin_theta": s.sin_theta,
             "alpha": s.alpha, "beta": s.beta, "meets_floor": s.meets_floor}
            for s in t.steps
        ],
    }


def _report_json(report: ProbeReport, cfg: ProbeConfig, base: Point2) -> dict:
    return {
        "config": {
            "angle_floor": cfg.angle_floor,
            "max_steps": cfg.max_steps,
            "tail_window": cfg.tail_window,
            "cauchy_tol": cfg.cauchy_tol,
            "agree_tol": cfg.agree_tol,
            "sequence_specs": [_spec_dict(s) for s in cfg.sequence_specs],
        },
        "trajectories": [_trajectory_dict(i, t)
                         for i, t in enumerate(report.trajectories)],
        "summary": {
            "base": [base.x, base.y],
            "verdict": report.verdict.value,
            "jacobian_estimate": (None if report.jacobian_estimate is None
                                  else list(report.jacobian_estimate)),
            "max_disagreement": report.max_disagreement,
            "residual_checks": [[r, ratio] for r, ratio in report.residual_checks],
        },
    }


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_estimate(args) -> int:
    try:
        tree = expr.parse(args.function)
        f = expr.as_function(tree)
        sample = sample_function(f, args.point, args.a, args.b)
        quality = angle_between(*sample.basis())
        coeffs = secant_coefficients(sample, args.floor)
    except DegenerateBasis as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ParseError, EvaluationError, ZeroVector, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    fields = {
        "alpha": coeffs.alpha, "beta": coeffs.beta,
        "x0": coeffs.x0, "y0": coeffs.y0, "z0": coeffs.z0,
        "sin_theta": quality.sin_theta,
    }
    if args.format == "json":
        print(json.dumps(fields, indent=2))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(fields)
        writer.writerow([_g17(v) for v in fields.values()])
    else:
        print(f"plane through ({_g17(coeffs.x0)}, {_g17(coeffs.y0)}, {_g17(coeffs.z0)}):")
        print(f"  alpha     = {_g17(coeffs.alpha)}")
        print(f"  beta      = {_g17(coeffs.beta)}")
        print(f"  sin_theta = {_g17(quality.sin_theta)}")
    return EXIT_OK


def _probe_csv(report: ProbeReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["spec_index", "kind", "k", "radius", "sin_theta", "alpha",
                     "beta", "meets_floor", "verdict", "estimate_alpha",
                     "estimate_beta", "max_disagreement"])
    est = report.jacobian_estimate
    for i, t in enumerate(report.trajectories):
        for s in t.steps:
            writer.writerow([
                i, t.spec.kind.value, s.k, _g17(s.radius), _g17(s.sin_theta),
                _g17(s.alpha), _g17(s.beta), int(s.meets_floor),
                report.verdict.value,
                "" if est is None else _g17(est[0]),
                "" if est is None else _g17(est[1]),
                _g17(report.max_disagreement),
            ])
    return buf.getvalue()


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


def cmd_probe(args) -> int:
    try:
        tree = expr.parse(args.function)
        f = expr.as_function(tree)
        specs = _parse_seqs(args.seqs, args.point, args.p)
        cfg = ProbeConfig(sequence_specs=specs, angle_floor=args.p,
                          max_steps=args.steps)
        report = probe(f, args.point, cfg)
    except (ParseError, EvaluationError, InvalidSpec, ZeroVector, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.format == "json":
        text = json.dumps(_report_json(report, cfg, args.point), indent=2) + "\n"
    else:
        text = (_probe_csv if args.format == "csv" else _probe_table)(report)
    _emit(text, args.out)
    return _VERDICT_EXIT[report.verdict]


def _counterexample_rows(kmax: int) -> list[dict]:
    f = lambda x, y: x * x + y * y
    rows = []
    for k in range(1, kmax + 1):
        a, b, c = counterexample_points(k)
        s = math.sin(1.0 / k)
        cos_k = math.cos(1.0 / k)
        for pairing, companion, beta_target in (("ab", b, 2.0 - cos_k),
                                                ("ac", c, 3.0 - cos_k)):
            coeffs = secant_coefficients(sample_function(f, ORIGIN, a, companion))
            rows.append({
                "pairing": pairing, "k": k,
                "alpha": coeffs.alpha, "beta": coeffs.beta,
                "alpha_check": coeffs.alpha - s,
                "beta_check": coeffs.beta - beta_target,
            })
    return rows


_CE_SUMMARY = (
    ("ab-limit", 0.0, 1.0),
    ("ac-limit", 0.0, 2.0),
    ("tangent", 0.0, 0.0),
)


def cmd_counterexample(args) -> int:
    if args.kmax < 1:
        print("error: --kmax must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    rows = _counterexample_rows(args.kmax)
    if args.format == "json":
        payload = {
            "rows": rows,
            "summary": [{"plane": name, "alpha": a, "beta": b}
                        for name, a, b in _CE_SUMMARY],
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["pairing", "k", "alpha", "beta", "alpha_check", "beta_check"])
        for row in rows:
            writer.writerow([row["pairing"], row["k"], _g17(row["alpha"]),
                             _g17(row["beta"]), _g17(row["alpha_check"]),
                             _g17(row["beta_check"])])
        for name, a, b in _CE_SUMMARY:
            writer.writerow([name, "", _g17(a), _g17(b), "", ""])
    else:
        print(f"{'pair':>4} {'k':>6} {'alpha':>24} {'beta':>24} "
              f"{'alpha_check':>13} {'beta_check':>13}")
        for row in rows:
            print(f"{row['pairing']:>4} {row['k']:>6} {row['alpha']:>24.17g} "
                  f"{row['beta']:>24.17g} {row['alpha_check']:>13.3e} "
                  f"{row['beta_check']:>13.3e}")
        print("limits: ab -> z = y; ac -> z = 2y; tangent plane -> z = 0")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secantplane",
        description="Secant-plane derivative estimation and differentiability probing "
                    "for scalar functions of two variables.")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="coefficients for one secant sample")
    est.add_argument("--function", required=True, help="expression in x and y")
    est.add_argument("--point", required=True, type=_parse_point, help="base point 'x,y'")
    est.add_argument("--a", required=True, type=_parse_point, help="first companion 'x,y'")
    est.add_argument("--b", required=True, type=_parse_point, help="second companion 'x,y'")
    est.add_argument("--floor", type=float, default=1e-8,
                     help="degeneracy floor on sin(theta) (default 1e-8)")
    est.add_argument("--format", choices=("table", "csv", "json"), default="table")
    est.set_defaults(func=cmd_estimate)

    prb = sub.add_parser("probe", help="probe differentiability at a point")
    prb.add_argument("--function", required=True, help="expression in x and y")
    prb.add_argument("--point", required=True, type=_parse_point, help="base point 'x,y'")
    prb.add_argument("--p", type=float, default=0.1,
                     help="uniform angle floor p in (0,1) (default 0.1)")
    prb.add_argument("--steps", type=int, default=40,
                     help="max steps per sequence; radial and random specs stop at step 20 "
                          "(1e-7 radius), so more steps only lengthen counterexample specs")
    prb.add_argument("--seqs", action="append", default=None, metavar="SPEC",
                     help="sequence specs, ';'-separated or repeated: "
                          "'radial:DX,DY', 'random:seed=N,floor=P', "
                          "'counterexample:ab', 'counterexample:ac' "
                          "(default: two orthogonal radial + one random)")
    prb.add_argument("--format", choices=("table", "csv", "json"), default="table")
    prb.add_argument("--out", default=None, help="write output to a file instead of stdout")
    prb.set_defaults(func=cmd_probe)

    ce = sub.add_parser("counterexample",
                        help="reproduce the collapsing-angle family on x^2+y^2")
    ce.add_argument("--kmax", type=int, default=10, help="largest step index")
    ce.add_argument("--format", choices=("table", "csv", "json"), default="table")
    ce.set_defaults(func=cmd_counterexample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
