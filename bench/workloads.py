"""The benchmark's workloads: inputs from a seed, set-up, operations, checks.

Every workload is a closed loop in one thread: the next operation starts when
the previous one has returned.  A round is a fixed list of operations made
from the seed; a run repeats whole rounds.  The first round's outputs are
checked against results computed apart from the library (``reference``);
every later round must reproduce them exactly.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import reference as ref

PACKAGE = "secantplane"


class CheckoutError(RuntimeError):
    """The package would be imported from somewhere other than the checkout."""


def import_package(src: Path):
    """Import ``secantplane`` afresh from ``src`` and return the package."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    try:
        sp = importlib.import_module(PACKAGE)
    except ImportError as exc:
        raise CheckoutError(f"cannot import {PACKAGE} from {src}: {exc}") from None
    where = Path(sp.__file__).resolve()
    if not where.is_relative_to(src.resolve()):
        raise CheckoutError(f"{PACKAGE} resolves to {where}, outside {src}")
    return sp


class Counters:
    """Calls to the function under test and CLI output, counted from outside."""

    def __init__(self):
        self.f_calls = 0
        self.cli_calls = 0
        self.out_bytes = 0
        self.tracer = None

    def counted(self, f, span=None):
        def call(x, y):
            self.f_calls += 1
            tracer = self.tracer
            if tracer is None or span is None:
                return f(x, y)
            return tracer.call(span, f, x, y)
        return call


class Op:
    """One operation: ``call()`` runs it, ``check(out, f_calls)`` judges it.

    ``check`` returns None for a right output and a message otherwise.
    ``known_fault`` marks an operation that fails every time because of a
    named fault in the program; its failure is counted, not treated as a
    wrong result of the benchmark.
    """

    __slots__ = ("label", "call", "check", "fingerprint", "known_fault")

    def __init__(self, label, call, check, fingerprint, known_fault=False):
        self.label = label
        self.call = call
        self.check = check
        self.fingerprint = fingerprint
        self.known_fault = known_fault


def _report_fingerprint(report):
    return (report.verdict.value, report.jacobian_estimate, report.max_disagreement,
            tuple(None if t.limit is None else (t.limit.alpha, t.limit.beta)
                  for t in report.trajectories))


def _last_radius(report) -> float:
    return max(t.steps[-1].radius for t in report.trajectories if t.steps)


class LibraryWorkload:
    """Direct ``probe()`` calls; set-up is import + parsing + configs."""

    def __init__(self, src: Path):
        self.src = src
        self.counters = Counters()
        self.sp = None
        self.ops: list[Op] = []

    def setup(self) -> float:
        """Import, parse and build the configs; the time it took."""
        t0 = perf_counter()
        self.sp = import_package(self.src)
        self.ops = self.prepare(self.sp)
        return perf_counter() - t0

    def setup_sample(self) -> float:
        """One more timed set-up, whose result is dropped.

        The operations keep the package objects of the first set-up; the
        import here only re-executes the modules into fresh objects.
        """
        t0 = perf_counter()
        self.prepare(import_package(self.src))
        return perf_counter() - t0

    def traced_setup(self, tracer) -> None:
        tracer.begin()
        self.prepare(self.sp)
        tracer.end("set-up", is_op=False)

    @staticmethod
    def _probe_op(sp, label, f, base, cfg, check, known_fault=False):
        return Op(label, lambda: sp.probe(f, base, cfg), check, _report_fingerprint,
                  known_fault)


class SmoothExpr(LibraryWorkload):
    """Parsed smooth expressions at seeded points, plus the known-fault cases.

    Seeded points are drawn uniformly in [-1, 1]^2 from the region where the
    method's own error bound guarantees agreement (``within_promise``).
    Outside it the verdict depends on the random spec's seed; the fault shows
    instead in the fixed ``KNOWN_FAULTS`` cases, which fail on every seed.
    """

    name = "smooth-expr"
    PER_EXPRESSION = 25

    def __init__(self, seed: int, src: Path):
        super().__init__(src)
        rng = random.Random(seed)
        cases = []
        for _ in range(self.PER_EXPRESSION):
            for source in ref.SEEDED_EXPRESSIONS:
                while True:
                    x, y = rng.uniform(-1, 1), rng.uniform(-1, 1)
                    if ref.within_promise(source, x, y):
                        break
                cases.append((source, x, y, rng.randrange(1 << 30), False))
        cases.extend((source, x, y, 0, True) for source, x, y in ref.KNOWN_FAULTS)
        self.cases = cases

    def prepare(self, sp) -> list[Op]:
        functions = {}
        for source in dict.fromkeys(c[0] for c in self.cases):
            functions[source] = self.counters.counted(
                sp.expr.as_function(sp.expr.parse(source)), "expr.eval")
        ops = []
        for source, x, y, spec_seed, known_fault in self.cases:
            base = sp.Point2(x, y)
            cfg = sp.ProbeConfig(sequence_specs=sp.default_sequence_specs(base, seed=spec_seed))
            ops.append(self._probe_op(sp, f"{source} at ({x!r}, {y!r})", functions[source],
                                      base, cfg, self._checker(source, x, y), known_fault))
        return ops

    @staticmethod
    def _checker(source, x, y):
        def check(report, f_calls):
            if report.verdict.value != "consistent-with-differentiable":
                return f"verdict {report.verdict.value} on a smooth function"
            return ref.check_gradient(source, x, y, report.jacobian_estimate,
                                      _last_radius(report))
        return check


class KinkGrid(LibraryWorkload):
    """|x|-|y| as a Python callable on a 32x32 grid that contains both axes.

    The specs approach from both sides of the x axis, radial (1,0) and
    (-1,0), plus one seeded random spec, so a kink on either axis is seen.
    """

    name = "kink-grid"
    GRID = tuple(-1 + i / 16 for i in range(32))   # holds 0 exactly

    def __init__(self, seed: int, src: Path):
        super().__init__(src)
        rng = random.Random(seed)
        self.cases = [(x, y, rng.randrange(1 << 30)) for y in self.GRID for x in self.GRID]

    def prepare(self, sp) -> list[Op]:
        f = self.counters.counted(lambda x, y: abs(x) - abs(y))
        kind = sp.SequenceKind
        ops = []
        for x, y, spec_seed in self.cases:
            base = sp.Point2(x, y)
            specs = (sp.SequenceSpec(kind.RADIAL_ORTHOGONAL, base=base, direction=sp.Vec2(1.0, 0.0)),
                     sp.SequenceSpec(kind.RADIAL_ORTHOGONAL, base=base, direction=sp.Vec2(-1.0, 0.0)),
                     sp.SequenceSpec(kind.RANDOM_ANGLE_FLOOR, base=base, angle_floor=ref.SIN_MIN,
                                     seed=spec_seed))
            ops.append(self._probe_op(sp, f"|x|-|y| at ({x!r}, {y!r})", f, base,
                                      sp.ProbeConfig(sequence_specs=specs), self._checker(x, y)))
        return ops

    @staticmethod
    def _checker(x, y):
        def check(report, f_calls):
            tol = ref.kink_noise_bound(_last_radius(report))
            for t, direction in zip(report.trajectories[:2], ((1.0, 0.0), (-1.0, 0.0))):
                want = ref.radial_limit("abs(x)-abs(y)", x, y, direction)
                if t.limit is None or max(abs(t.limit.alpha - want[0]),
                                          abs(t.limit.beta - want[1])) > tol:
                    return f"radial {direction} limit {t.limit} is not {want}"
            if x == 0 or y == 0:
                if report.verdict.value != "contradicted":
                    return f"verdict {report.verdict.value} on the kink"
                return None
            if report.verdict.value != "consistent-with-differentiable":
                return f"verdict {report.verdict.value} off the kink"
            want = (math.copysign(1.0, x), -math.copysign(1.0, y))
            est = report.jacobian_estimate
            if max(abs(est[0] - want[0]), abs(est[1] - want[1])) > tol:
                return f"estimate {est} is not {want}"
            return None
        return check


# -- cli-mix -------------------------------------------------------------

COLD_IMPORT = r"""
import sys, time
sys.path.insert(0, sys.argv[1])
if any(m in sys.modules for m in ("json", "csv", "argparse")):
    sys.exit("json, csv or argparse is loaded before the import")
t0 = time.perf_counter()
import secantplane.cli
dt = time.perf_counter() - t0
import os.path
if not os.path.realpath(secantplane.cli.__file__).startswith(os.path.realpath(sys.argv[1]) + os.sep):
    sys.exit(f"secantplane.cli resolves to {secantplane.cli.__file__}")
print(repr(dt))
"""

CHILD_TIMEOUT_S = 60

COLLAPSING = ["probe", "--function", "x^2+y^2", "--point", "0,0",
              "--seqs", "counterexample:ab;counterexample:ac", "--steps", "2000",
              "--format", "json"]


def cold_import_seconds(src: Path) -> float:
    """Import time of secantplane.cli in a fresh interpreter (-I: no site dirs of the user)."""
    done = subprocess.run([sys.executable, "-I", "-c", COLD_IMPORT, str(src)],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise CheckoutError(f"cold import failed with exit {done.returncode}: {done.stderr.strip()}")
    return float(done.stdout)


def import_profile_ms(src: Path) -> tuple[float, list[str]]:
    """Cumulative import time of secantplane.cli from ``-X importtime``, and its lines."""
    done = subprocess.run([sys.executable, "-I", "-X", "importtime", "-c",
                           "import sys; sys.path.insert(0, sys.argv[1]); import secantplane.cli",
                           str(src)], capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise CheckoutError(f"import profile failed: {done.stderr.strip()}")
    lines = [l for l in done.stderr.splitlines() if l.startswith("import time:")]
    for line in lines:
        _self_us, cumulative, name = line[len("import time:"):].split("|")
        if name.strip() == "secantplane.cli":
            return int(cumulative) / 1000.0, lines
    raise CheckoutError("secantplane.cli missing from the import profile")


def _floats_equal(a, b) -> bool:
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))


class CliMix:
    """In-process ``secantplane.cli.main(argv)`` over a fixed rotation of calls.

    A round holds 20 calls: two smooth probes in json, csv and table; three
    kinked probes; ``estimate`` on a quadratic in three formats; and, after
    every three of those, two collapsing-angle probes, which render about
    1 MB of JSON each.  With 8 collapsing probes in 20 calls, the median is
    the 83rd percentile of the light calls and the 90th percentile is the
    75th of the collapsing probes: both sit in the upper part of a
    distribution, which the machine's bursts of speed move least.
    """

    name = "cli-mix"
    # Fixed, so that the cost of a round does not depend on the seed.
    SMOOTH_SOURCES = ("sin(x)*cos(y)+exp(x-2*y)", "log(1+x^2+y^2)*sqrt(4+x*y)")

    def __init__(self, seed: int, src: Path):
        self.src = src
        self.counters = Counters()
        self.seen: dict[str, dict] = {}
        rng = random.Random(seed)
        self.smooth = []
        for source in self.SMOOTH_SOURCES:
            while True:
                x, y = rng.uniform(-1, 1), rng.uniform(-1, 1)
                if ref.within_promise(source, x, y):
                    break
            self.smooth.append((source, x, y))
        self.kink_y = rng.uniform(-1, 1)
        self.kink_x = rng.uniform(-1, 1)
        self.kink_seed = rng.randrange(1 << 30)
        while True:
            p = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            r1, r2 = rng.uniform(0.05, 0.5), rng.uniform(0.05, 0.5)
            phi1, phi2 = rng.uniform(0, math.tau), rng.uniform(0, math.tau)
            if abs(math.sin(phi2 - phi1)) >= 0.3:
                break
        self.est_points = (p, (p[0] + r1 * math.cos(phi1), p[1] + r1 * math.sin(phi1)),
                           (p[0] + r2 * math.cos(phi2), p[1] + r2 * math.sin(phi2)))
        self.cli = None
        self.ops: list[Op] = []

    def setup(self) -> float:
        """The cold import of the CLI in a fresh interpreter; the in-process
        import that the calls use is not timed."""
        cold_import_seconds(self.src)   # compiles bytecode once, untimed
        self.ops = self.prepare(import_package(self.src))
        return cold_import_seconds(self.src)

    def setup_sample(self) -> float:
        return cold_import_seconds(self.src)

    def traced_setup(self, tracer) -> None:
        """Parsing happens inside each call here, so set-up holds no library work."""

    def prepare(self, sp) -> list[Op]:
        self.cli = importlib.import_module(PACKAGE + ".cli")
        as_function = getattr(sp.expr.as_function, "counted_from", sp.expr.as_function)
        counters = self.counters

        def counted_as_function(tree):
            # The count covers every callable the CLI builds from an expression.
            return counters.counted(as_function(tree), "expr.eval")

        counted_as_function.counted_from = as_function
        sp.expr.as_function = counted_as_function
        light = []
        for group, (source, x, y) in zip("AB", self.smooth):
            point = f"--point={x!r},{y!r}"
            for fmt in ("json", "csv", "table"):
                argv = ["probe", "--function", source, point, "--format", fmt]
                light.append(self._op(f"smooth {group} {fmt}", argv,
                                    self._smooth_checker(group, fmt, source, x, y)))
        light.append(self._op("kink |x|+y json",
                            ["probe", "--function", "abs(x)+y", f"--point=0,{self.kink_y!r}",
                             "--format", "json"], self._check_kink_json))
        light.append(self._op("kink |x|-|y| csv",
                            ["probe", "--function", "abs(x)-abs(y)", f"--point={self.kink_x!r},0",
                             "--seqs", f"radial:1,0;radial:-1,0;random:seed={self.kink_seed}",
                             "--format", "csv"], self._check_kink_csv))
        light.append(self._op("kink cone table",
                            ["probe", "--function", "sqrt(x^2+y^2)", "--point", "0,0",
                             "--format", "table"], self._check_kink_table))
        p, a, b = self.est_points
        for fmt in ("json", "csv", "table"):
            argv = ["estimate", "--function", ref.QUADRATIC, f"--point={p[0]!r},{p[1]!r}",
                    f"--a={a[0]!r},{a[1]!r}", f"--b={b[0]!r},{b[1]!r}", "--format", fmt]
            light.append(self._op(f"estimate {fmt}", argv, self._estimate_checker(fmt)))
        heavy = self._op("collapsing json", COLLAPSING, self._check_collapsing)
        ops = []
        for i in range(0, len(light), 3):
            ops += light[i:i + 3] + [heavy] * 2
        return ops

    def _op(self, label, argv, check):
        counters = self.counters
        workload = self

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = workload.cli.main(argv)
            text = out.getvalue()
            counters.cli_calls += 1
            counters.out_bytes += len(text)
            return rc, text, err.getvalue()

        def checked(out, f_calls):
            if f_calls == 0:
                return "no call to the function under test was counted"
            return check(*out)

        return Op(label, call, checked, lambda out: out)

    # -- checks ----------------------------------------------------------
    def _smooth_checker(self, group, fmt, source, x, y):
        def check(rc, text, err):
            if rc != 0:
                return f"exit {rc} on a smooth function: {err.strip()}"
            if fmt == "json":
                d = json.loads(text)
                if d["summary"]["verdict"] != "consistent-with-differentiable":
                    return f"verdict {d['summary']['verdict']}"
                est = d["summary"]["jacobian_estimate"]
                r_last = max(t["steps"][-1]["radius"] for t in d["trajectories"] if t["steps"])
                steps = [(t["spec_index"], s["k"], s["alpha"], s["beta"])
                         for t in d["trajectories"] for s in t["steps"]]
                self.seen[group] = {"estimate": est, "steps": steps}
                return ref.check_gradient(source, x, y, est, r_last)
            seen = self.seen[group]
            if fmt == "csv":
                rows = list(csv.reader(io.StringIO(text)))
                header, body = rows[0], rows[1:]
                col = {name: i for i, name in enumerate(header)}
                steps = []
                for row in body:
                    if row[col["verdict"]] != "consistent-with-differentiable":
                        return f"csv verdict {row[col['verdict']]}"
                    est = [float(row[col["estimate_alpha"]]), float(row[col["estimate_beta"]])]
                    if not _floats_equal(est, seen["estimate"]):
                        return f"csv estimate {est} differs from json {seen['estimate']}"
                    steps.append((int(row[col["spec_index"]]), int(row[col["k"]]),
                                  float(row[col["alpha"]]), float(row[col["beta"]])))
                if steps != seen["steps"]:
                    return "csv steps do not re-parse to the json values"
                return None
            if "verdict: consistent-with-differentiable" not in text.splitlines():
                return "table verdict is not consistent"
            line = next(l for l in text.splitlines() if l.startswith("jacobian estimate: "))
            est = [float(v) for v in line.split(": ", 1)[1].strip("()").split(", ")]
            if not _floats_equal(est, seen["estimate"]):
                return f"table estimate {est} differs from json {seen['estimate']}"
            return None
        return check

    def _check_limits(self, limits, source, x, y, directions, r_last):
        tol = ref.kink_noise_bound(r_last)
        for limit, direction in zip(limits, directions):
            want = ref.radial_limit(source, x, y, direction)
            if limit is None or max(abs(limit[0] - want[0]), abs(limit[1] - want[1])) > tol:
                return f"radial {direction} limit {limit} is not {want}"
        return None

    def _check_kink_json(self, rc, text, err):
        if rc != 4:
            return f"exit {rc} on a kink, want 4"
        d = json.loads(text)
        if d["summary"]["verdict"] != "contradicted":
            return f"verdict {d['summary']['verdict']}"
        specs = d["config"]["sequence_specs"]
        radial = [(t, specs[t["spec_index"]]["direction"]) for t in d["trajectories"]
                  if t["kind"] == "radial"]
        limits = [None if t["limit"] is None else (t["limit"]["alpha"], t["limit"]["beta"])
                  for t, _ in radial]
        r_last = max(t["steps"][-1]["radius"] for t, _ in radial)
        return self._check_limits(limits, "abs(x)+y", 0.0, self.kink_y,
                                  [dirn for _, dirn in radial], r_last)

    def _check_kink_csv(self, rc, text, err):
        if rc != 4:
            return f"exit {rc} on a kink, want 4"
        rows = list(csv.reader(io.StringIO(text)))
        col = {name: i for i, name in enumerate(rows[0])}
        last = {}
        for row in rows[1:]:
            if row[col["verdict"]] != "contradicted" or row[col["estimate_alpha"]] != "":
                return "csv rows do not all say contradicted without an estimate"
            last[int(row[col["spec_index"]])] = row
        limits = [(float(last[i][col["alpha"]]), float(last[i][col["beta"]])) for i in (0, 1)]
        r_last = max(float(last[i][col["radius"]]) for i in (0, 1))
        return self._check_limits(limits, "abs(x)-abs(y)", self.kink_x, 0.0,
                                  [(1.0, 0.0), (-1.0, 0.0)], r_last)

    def _check_kink_table(self, rc, text, err):
        if rc != 4:
            return f"exit {rc} on a kink, want 4"
        lines = text.splitlines()
        if "verdict: contradicted" not in lines:
            return "table verdict is not contradicted"
        limits = {}
        radius = {}
        current = None
        for line in lines:
            if line.startswith("trajectory "):
                current = int(line.split()[1])
            elif line.strip().startswith("limit: "):
                a, b = line.strip()[len("limit: "):].split()
                limits[current] = (float(a.split("=")[1]), float(b.split("=")[1]))
            elif current is not None and line.strip() and line.split()[0].isdigit():
                radius[current] = float(line.split()[1])
        diag = math.sqrt(0.5)
        return self._check_limits([limits.get(0), limits.get(1)], "sqrt(x^2+y^2)", 0.0, 0.0,
                                  [(1.0, 0.0), (diag, diag)], max(radius[0], radius[1]))

    def _estimate_checker(self, fmt):
        p, a, b = self.est_points
        alpha, beta, sin_theta = ref.exact_plane(p, a, b)
        tol = ref.estimate_tolerance(p, a, b, sin_theta)

        def check(rc, text, err):
            if rc != 0:
                return f"exit {rc} from estimate: {err.strip()}"
            if fmt == "json":
                d = json.loads(text)
                got = [d["alpha"], d["beta"], d["sin_theta"]]
            elif fmt == "csv":
                header, row = list(csv.reader(io.StringIO(text)))
                d = dict(zip(header, row))
                got = [float(d["alpha"]), float(d["beta"]), float(d["sin_theta"])]
            else:
                d = {k.strip(): v for k, v in (l.split(" = ") for l in text.splitlines()
                                               if " = " in l)}
                got = [float(d["alpha"]), float(d["beta"]), float(d["sin_theta"])]
            if max(abs(got[0] - alpha), abs(got[1] - beta)) > tol:
                return f"plane ({got[0]}, {got[1]}) is not the exact ({alpha}, {beta}), tolerance {tol:.3g}"
            if abs(got[2] - sin_theta) > 1e-12:
                return f"sin_theta {got[2]} is not {sin_theta}"
            if fmt == "json":
                self.seen["estimate"] = got
            elif not _floats_equal(got, self.seen["estimate"]):
                return f"{fmt} values {got} differ from json {self.seen['estimate']}"
            return None
        return check

    def _check_collapsing(self, rc, text, err):
        if rc != 4:
            return f"exit {rc} from the collapsing-angle probe, want 4"
        d = json.loads(text)
        if d["summary"]["verdict"] != "contradicted":
            return f"verdict {d['summary']['verdict']}"
        for t, pairing in zip(d["trajectories"], ("ab", "ac")):
            if not t["converged"]:
                return f"{pairing} trajectory did not converge"
            for s in t["steps"]:
                want = ref.counterexample_row(pairing, s["k"])
                tol = ref.counterexample_tolerance(s["k"])
                if abs(s["alpha"] - want[0]) > tol or abs(s["beta"] - want[1]) > tol:
                    return f"{pairing} step {s['k']}: ({s['alpha']}, {s['beta']}) is not {want}"
            k_last = t["steps"][-1]["k"]
            want = ref.counterexample_row(pairing, k_last)
            got = (t["limit"]["alpha"], t["limit"]["beta"])
            if max(abs(got[0] - want[0]), abs(got[1] - want[1])) > ref.counterexample_tolerance(k_last):
                return f"{pairing} limit {got} is not {want}"
        return None


WORKLOADS = {w.name: w for w in (SmoothExpr, KinkGrid, CliMix)}
