"""Reference JSON documents of the CLI, built as dicts for ``json.dumps``.

``secantplane.cli`` writes its probe and counterexample JSON text directly;
the text must equal ``json.dumps(document, indent=2) + "\\n"`` of the
documents built here, byte for byte.
"""

from secantplane.cli import _CE_SUMMARY
from secantplane.probe import AGREE_TOL, CAUCHY_TOL, TAIL_WINDOW
from secantplane.sequences import INITIAL_RADIUS, RADIUS_DECAY


def _spec_dict(spec) -> dict:
    return {
        "kind": spec.kind.value,
        "base": [spec.base.x, spec.base.y],
        "direction": [spec.direction.dx, spec.direction.dy],
        "angle_floor": spec.angle_floor,
        "decay": RADIUS_DECAY,
        "initial_radius": INITIAL_RADIUS,
        "seed": spec.seed,
    }


def _trajectory_dict(index: int, t) -> dict:
    return {
        "spec_index": index,
        "kind": t.spec.kind.value,
        "converged": t.converged,
        "floor_exempt": t.floor_exempt,
        "radius_exhausted": t.radius_exhausted,
        "degenerate_steps": [],
        "limit": None if t.limit is None else {"alpha": t.limit.alpha,
                                               "beta": t.limit.beta},
        "steps": [
            {"k": s.k, "radius": s.radius, "sin_theta": s.sin_theta,
             "alpha": s.alpha, "beta": s.beta, "meets_floor": s.meets_floor}
            for s in t.steps
        ],
    }


def probe_document(report, cfg, base) -> dict:
    return {
        "config": {
            "angle_floor": cfg.angle_floor,
            "max_steps": cfg.max_steps,
            "tail_window": TAIL_WINDOW,
            "cauchy_tol": CAUCHY_TOL,
            "agree_tol": AGREE_TOL,
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


def counterexample_document(rows: list[dict]) -> dict:
    return {
        "rows": rows,
        "summary": [{"plane": name, "alpha": a, "beta": b}
                    for name, a, b in _CE_SUMMARY],
    }
