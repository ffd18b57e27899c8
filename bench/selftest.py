"""Self-test of the benchmark: ``python3 bench/run.py --selftest``.

1. The hand-written gradients and Hessians agree with central differences.
2. Every workload runs a few operations; the right outputs pass their checks.
3. Every checker rejects a deliberately wrong output: a perturbed estimate,
   a swapped verdict, a wrong exit code, a float changed in its last bit, a
   wrong collapsing-angle coefficient, a call count of zero.
4. A short traced run defines every per-layer metric on every workload.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import random

import reference as ref
import run
from workloads import CliMix, KinkGrid, SmoothExpr


class Failures:
    def __init__(self):
        self.count = 0

    def expect(self, ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            self.count += 1

    def rejects(self, check, out, what: str, f_calls: int = 200) -> None:
        err = check(out, f_calls)
        self.expect(err is not None, f"rejects {what}" + (f": {err}" if err else ""))


def _check_references(fails: Failures) -> None:
    rng = random.Random(7)
    h = 1e-5
    for source, (value, grad, hess) in ref.SMOOTH.items():
        worst = 0.0
        for _ in range(5):
            x, y = rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)
            if source == "sin(100*x)":
                x, y = x / 100, y / 100
            gx, gy = grad(x, y)
            cx = (value(x + h, y) - value(x - h, y)) / (2 * h)
            cy = (value(x, y + h) - value(x, y - h)) / (2 * h)
            hxx, hxy, hyy = hess(x, y)
            dxx = (grad(x + h, y)[0] - grad(x - h, y)[0]) / (2 * h)
            dxy = (grad(x, y + h)[0] - grad(x, y - h)[0]) / (2 * h)
            dyy = (grad(x, y + h)[1] - grad(x, y - h)[1]) / (2 * h)
            scale = 1 + abs(value(x, y)) + abs(gx) + abs(gy) + abs(hxx) + abs(hyy)
            worst = max(worst, max(abs(gx - cx), abs(gy - cy), abs(hxx - dxx),
                                   abs(hxy - dxy), abs(hyy - dyy)) / scale)
        fails.expect(worst < 1e-4, f"hand-written derivatives of {source} (worst {worst:.1e})")


def _run_ops(wl, ops):
    """Run ``ops`` once, in order; return their outputs and call counts."""
    results = []
    for op in ops:
        calls = wl.counters.f_calls
        out = op.call()
        results.append((op, out, wl.counters.f_calls - calls))
    return results


def _passes(fails: Failures, results) -> None:
    for op, out, calls in results:
        err = op.check(out, calls)
        if op.known_fault:
            print(f"     known fault {op.label}: {err or 'passes now'}")
        else:
            fails.expect(err is None, f"{op.label}" + (f": {err}" if err else ""))


def _smooth(fails: Failures) -> None:
    wl = SmoothExpr(1, run.SRC)
    wl.setup()
    results = _run_ops(wl, wl.ops[:4] + wl.ops[-3:])
    _passes(fails, results)
    op, report, calls = results[0]
    est = report.jacobian_estimate
    fails.rejects(op.check, dataclasses.replace(report, jacobian_estimate=(est[0] + 1e-3, est[1])),
                  "a perturbed smooth estimate")
    fails.rejects(op.check, dataclasses.replace(report, verdict=wl.sp.Verdict.CONTRADICTED),
                  "a swapped smooth verdict")


def _kink(fails: Failures) -> None:
    wl = KinkGrid(1, run.SRC)
    wl.setup()
    on_axis = [op for op in wl.ops if "(0.0," in op.label][:2]
    off_axis = wl.ops[:2]
    results = _run_ops(wl, on_axis + off_axis)
    _passes(fails, results)
    op, report, _ = results[0]
    fails.rejects(op.check, dataclasses.replace(
        report, verdict=wl.sp.Verdict.CONSISTENT_WITH_DIFFERENTIABLE), "a swapped kink verdict")
    op, report, _ = results[-1]
    est = report.jacobian_estimate
    fails.rejects(op.check, dataclasses.replace(report, jacobian_estimate=(est[0], est[1] + 1e-4)),
                  "a perturbed off-kink estimate")


def _last_bit(text: str, column: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index(column)
    rows[1][col] = format(math.nextafter(float(rows[1][col]), math.inf), ".17g")
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _cli(fails: Failures) -> None:
    wl = CliMix(1, run.SRC)
    wl.setup()
    results = _run_ops(wl, wl.ops)
    _passes(fails, results)
    by_label = {op.label: (op, out) for op, out, _ in results}

    op, (rc, text, err) = by_label["smooth A json"]
    fails.rejects(op.check, (4, text, err), "a wrong exit code on a smooth probe")
    op, (rc, text, err) = by_label["smooth A csv"]
    fails.rejects(op.check, (rc, _last_bit(text, "alpha"), err), "a csv float off by one bit")
    op, (rc, text, err) = by_label["kink cone table"]
    fails.rejects(op.check, (0, text.replace("verdict: contradicted",
                                             "verdict: consistent-with-differentiable"), err),
                  "a swapped kink verdict and exit code")
    op, (rc, text, err) = by_label["estimate json"]
    d = json.loads(text)
    d["alpha"] *= 1 + 1e-9
    fails.rejects(op.check, (rc, json.dumps(d), err), "a perturbed estimate plane")
    op, (rc, text, err) = by_label["estimate csv"]
    fails.rejects(op.check, (rc, text, err), "a correct output with no counted call", f_calls=0)
    op, (rc, text, err) = by_label["collapsing json"]
    d = json.loads(text)
    d["trajectories"][1]["steps"][500]["beta"] += 1e-9
    fails.rejects(op.check, (rc, json.dumps(d), err), "a wrong collapsing-angle coefficient")
    op, (rc, text, err) = by_label["smooth B json"]
    d = json.loads(text)
    d["summary"]["jacobian_estimate"][1] += 1e-4
    fails.rejects(op.check, (rc, json.dumps(d), err), "a perturbed estimate in probe json")


def _traced(fails: Failures) -> None:
    for cls, keep in ((SmoothExpr, 3), (KinkGrid, 3), (CliMix, 5)):
        wl = cls(2, run.SRC)
        wl.setup()
        wl.ops = wl.ops[:keep]
        outcome, metrics, _, _ = run.traced_run(wl, 0, min_ops=1)
        missing = [name for name, (value, _) in metrics.items() if value is None]
        fails.expect(not missing and outcome.correct,
                     f"traced {cls.name}: {len(metrics)} per-layer metrics"
                     + (f", missing {missing}" if missing else ""))


def selftest() -> int:
    fails = Failures()
    _check_references(fails)
    _smooth(fails)
    _kink(fails)
    _cli(fails)
    _traced(fails)
    print(f"self-test: {fails.count} failure(s)")
    return 1 if fails.count else 0
