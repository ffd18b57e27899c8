"""Benchmark of the secantplane library and CLI, stdlib only.

Run from the root of a checkout:

    python3 bench/run.py --workload smooth-expr --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --selftest

The package is imported from the checkout's ``src/``; the run refuses to go
on if it resolves anywhere else.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run.  Both write a
fuller record, with the interpreter version, under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from tracing import Totals, Tracer
from workloads import WORKLOADS, CheckoutError, CliMix, import_profile_ms

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 9      # set-ups timed across a run; their median is reported
IMPORT_PROFILES = 5
MIN_OPS = 100          # at least ten latencies beyond the 90th percentile
WINDOW_S = 1.0         # least op time in one throughput window
MIN_WINDOWS = 3
MAX_ERRORS_KEPT = 10


class Outcome:
    """Attempted and failed operations; the first round's results per op."""

    def __init__(self, ops):
        self.ops = ops
        self.first = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors: list[str] = []

    def record(self, i, out, f_calls) -> None:
        op = self.ops[i]
        if isinstance(out, Exception):
            fingerprint, err = repr(out), f"raised {type(out).__name__}: {out}"
        else:
            fingerprint = op.fingerprint(out)
            err = None
        key = (fingerprint, f_calls)
        if self.first[i] is None:
            if err is None:
                try:
                    err = op.check(out, f_calls)
                except Exception as exc:   # a malformed output is a wrong output
                    err = f"unreadable output: {type(exc).__name__}: {exc}"
            self.first[i] = (key, err)
        elif key != self.first[i][0]:
            err = "output or call count differs from the first round"
            self.correct = False
        else:
            err = self.first[i][1]
        self.attempted += 1
        if err is not None:
            self.failed += 1
            if not op.known_fault:
                self.correct = False
            if len(self.errors) < MAX_ERRORS_KEPT:
                self.errors.append(f"{op.label}: {err}")


def run_round(ops, counters, outcome, latencies, tracer=None) -> None:
    for i, op in enumerate(ops):
        calls = counters.f_calls
        if tracer is not None:
            tracer.begin()
        t0 = perf_counter()
        try:
            out = op.call()
        except Exception as exc:   # counted as a failed operation
            out = exc
        latencies.append(perf_counter() - t0)
        if tracer is not None:
            tracer.end(op.label)
        outcome.record(i, out, counters.f_calls - calls)


def timed_run(wl, seconds, setup_times, min_ops=MIN_OPS):
    """Whole rounds until ``seconds`` have passed; set-up is sampled across the run.

    The machine's speed drifts on a scale of tens of seconds, so set-up is
    timed again at even intervals between rounds rather than only at start.
    """
    outcome = Outcome(wl.ops)
    latencies: list[float] = []
    start = perf_counter()
    due = [start + seconds * k / SETUP_REPEATS for k in range(1, SETUP_REPEATS)]
    while True:
        run_round(wl.ops, wl.counters, outcome, latencies)
        if due and perf_counter() >= due[0]:
            due.pop(0)
            setup_times.append(wl.setup_sample())
        if (perf_counter() - start >= seconds and len(latencies) >= min_ops
                and len(window_rates(latencies, len(wl.ops))) >= MIN_WINDOWS):
            break
    return outcome, latencies


def window_rates(latencies, round_size, window_s=WINDOW_S) -> list[float]:
    """Throughput in consecutive windows of whole rounds, each of at least
    ``window_s`` of op time (a partial last window is dropped)."""
    rates, n, t = [], 0, 0.0
    for start in range(0, len(latencies), round_size):
        chunk = latencies[start:start + round_size]
        n += len(chunk)
        t += sum(chunk)
        if t >= window_s:
            rates.append(n / t)
            n, t = 0, 0.0
    return rates


def end_to_end(wl, setup_times, outcome, latencies) -> dict:
    """The end-to-end metrics of an untraced run.

    Throughput is the median over windows, not the mean over the run: the
    machine has bursts of about 1.5x speed lasting tens of seconds, and a
    mean follows them where a median does not.
    """
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (statistics.median(window_rates(latencies, len(wl.ops))), "1/s"),
        "op_p50_ms": (1e3 * deciles[4], "ms"),
        "op_p90_ms": (1e3 * deciles[8], "ms"),
        "f_evals_per_op": (wl.counters.f_calls / outcome.attempted, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def layer_metrics(t: Totals, counters) -> dict:
    """Per-layer figures from span totals; None where the layer saw no call."""
    def per(num, den, scale=1.0):
        return None if not den else scale * num / den

    return {
        "expr.eval_us": (t.mean_us("expr.eval"), "us"),
        "expr.parse_us": (t.mean_us("expr.parse"), "us"),
        "sequences.generate_random_us": (
            t.mean_us("sequences.generate[random]", ok_only=True), "us"),
        "sequences.generate_radial_us": (
            t.mean_us("sequences.generate[radial]", ok_only=True), "us"),
        "sequences.generate_counterexample_us": (
            t.mean_us("sequences.generate[counterexample-ab]",
                      "sequences.generate[counterexample-ac]", ok_only=True), "us"),
        "geometry.secant_coefficients_us": (t.mean_us("geometry.secant_coefficients"), "us"),
        "geometry.angle_between_calls_per_op": (
            per(t.count.get("geometry.angle_between", 0), t.ops), "count"),
        "probe.run_trajectory_self_us_per_step": (per(t.trajectory_self, t.steps, 1e6), "us"),
        "probe.verdict_self_us": (per(t.probe_self, t.probe_calls, 1e6), "us"),
        "probe.steps_per_op": (per(t.steps, t.ops), "count"),
        "cli.main_self_ms": (per(t.main_self, t.main_calls, 1e3), "ms"),
        "cli.build_parser_us": (t.mean_us("cli.build_parser"), "us"),
        "cli.output_kb_per_op": (per(counters.out_bytes, counters.cli_calls, 1 / 1024), "kB"),
    }


@contextlib.contextmanager
def tracing(tracer, counters):
    """Spans on: the package's functions and the benchmark's f wrappers."""
    tracer.install()
    counters.tracer = tracer
    try:
        yield
    finally:
        tracer.uninstall()
        counters.tracer = None


def traced_run(wl, seconds, min_ops=MIN_OPS):
    """Untraced and traced rounds in turn, then the per-layer figures.

    Alternating rounds puts both kinds under the same drift of the machine,
    so the ratio of their median latencies is the tracing overhead.
    """
    tracer = Tracer()
    with tracing(tracer, wl.counters):
        wl.traced_setup(tracer)

    outcome = Outcome(wl.ops)
    plain: list[float] = []
    traced: list[float] = []
    start = perf_counter()
    rounds = 0
    while True:
        if rounds % 2:
            with tracing(tracer, wl.counters):
                run_round(wl.ops, wl.counters, outcome, traced, tracer)
        else:
            run_round(wl.ops, wl.counters, outcome, plain)
        rounds += 1
        if rounds % 2 == 0 and perf_counter() - start >= seconds and len(traced) >= min_ops:
            break

    metrics = layer_metrics(tracer.totals, wl.counters)
    from_reference = [name for name, (value, _) in metrics.items() if value is None]
    reference_summary = None
    if from_reference:
        # Layers this workload bypasses are timed on one round of cli-mix
        # (seed 0) after the workload, so that every figure is defined.
        ref_wl = CliMix(0, SRC)
        ref_ops = ref_wl.prepare(wl.sp)
        ref_tracer = Tracer(keep_spans=0)
        with tracing(ref_tracer, ref_wl.counters):
            run_round(ref_ops, ref_wl.counters, Outcome(ref_ops), [], ref_tracer)
        ref_metrics = layer_metrics(ref_tracer.totals, ref_wl.counters)
        for name in from_reference:
            metrics[name] = ref_metrics[name]
        reference_summary = ref_tracer.totals.summary()

    import_ms = [import_profile_ms(SRC) for _ in range(IMPORT_PROFILES)]
    metrics["cli.import_ms"] = (statistics.median(ms for ms, _ in import_ms), "ms")
    overhead = 100 * (statistics.median(traced) / statistics.median(plain) - 1)
    metrics["trace.overhead_pct"] = (overhead, "%")
    detail = {
        "untraced_ops": len(plain), "traced_ops": len(traced),
        "untraced_p50_ms": 1e3 * statistics.median(plain),
        "traced_p50_ms": 1e3 * statistics.median(traced),
        "from_reference_round": from_reference,
        "span_totals": tracer.totals.summary(),
        "reference_span_totals": reference_summary,
        "import_profile": import_ms[-1][1],
    }
    return outcome, metrics, detail, tracer.kept


def run(args) -> int:
    wl = WORKLOADS[args.workload](args.seed, SRC)
    setup_times = [wl.setup()]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        outcome, metrics, detail, spans = traced_run(wl, args.seconds)
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    else:
        outcome, latencies = timed_run(wl, args.seconds, setup_times)
        metrics = end_to_end(wl, setup_times, outcome, latencies)
        size = len(wl.ops)
        rates = window_rates(latencies, size)
        detail = {"ops": len(latencies), "rounds": len(latencies) // size, "round_size": size,
                  "latency_ms_deciles": [1e3 * q for q in statistics.quantiles(latencies, n=10)],
                  "window_rates_deciles": statistics.quantiles(rates, n=10),
                  "per_op_ms": {wl.ops[i].label: [1e3 * q for q in statistics.quantiles(
                      latencies[i::size], n=10)] for i in range(size)}
                  if size < 50 else None}
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    python = f"{platform.python_implementation()} {platform.python_version()}"
    record = {"python": python, "platform": platform.platform(), "workload": args.workload,
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "setup_s_samples": setup_times, "errors": outcome.errors,
              "result": result, "detail": detail}
    out_file = OUT / f"{stem}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"interpreter: {python}")
    print(f"workload {args.workload}, seed {args.seed}: attempted {outcome.attempted}, "
          f"failed {outcome.failed}, correct {outcome.correct}")
    for err in outcome.errors:
        print(f"  failed: {err}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"record: {out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run each workload for a few operations and show that "
                             "every checker rejects a wrong output")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    try:
        if args.selftest:
            from selftest import selftest
            return selftest()
        return run(args)
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
