"""Spans around calls into the library's public functions, taken from outside.

``Tracer.install`` replaces every public module-level function of the
``secantplane`` package, in every ``secantplane`` module namespace that holds
it, by a wrapper that records a span.  A function imported into several
modules (``cli`` does ``from .probe import probe``) is wrapped in each of them,
so calls through any binding are seen.  Modules are taken from
``sys.modules``: ``import secantplane.probe as m`` would give the ``probe``
function, because the package ``__init__`` rebinds that name.

``expr.evaluate`` is left alone: it recurses through its own global name, so
wrapping it would put a span on every tree node.  Expression evaluation is
timed instead by the benchmark's wrapper around each callable that
``expr.as_function`` returns (span name ``expr.eval``).

Spans are kept in memory.  Each operation's spans are folded into running
totals when the operation ends; the first operations' spans, up to
``keep_spans`` of them, are also kept whole and written out when the run ends.
"""

from __future__ import annotations

import sys
import types
from time import perf_counter

PACKAGE = "secantplane"

# Functions not wrapped, with the reason in the module docstring.
SKIP = {("expr", "evaluate")}

# Children of ``run_trajectory`` subtracted from its duration for
# ``probe.run_trajectory_self_us_per_step``: generation, sampling, solve.
TRAJECTORY_PARTS = ("sequences.generate", "geometry.sample_function",
                    "geometry.secant_coefficients")


def _short(module_name: str) -> str:
    return module_name[len(PACKAGE) + 1:] if module_name.startswith(PACKAGE + ".") else module_name


def _span_name(fn, args) -> str:
    name = f"{_short(fn.__module__)}.{fn.__name__}"
    if name == "sequences.generate" and args:
        # One figure per sequence kind: random draws cost far more than radial.
        return f"{name}[{args[0].kind.value}]"
    return name


class Totals:
    """Running sums over the spans of many operations."""

    def __init__(self):
        self.ops = 0
        self.count: dict[str, int] = {}
        self.ok_count: dict[str, int] = {}
        self.ok_time: dict[str, float] = {}
        self.time: dict[str, float] = {}
        self.steps = 0
        self.trajectory_self = 0.0
        self.probe_self = 0.0
        self.probe_calls = 0
        self.main_self = 0.0
        self.main_calls = 0

    def add(self, spans: list, is_op: bool) -> None:
        if is_op:
            self.ops += 1
        part_time = [0.0] * len(spans)
        for i, (name, t0, t1, parent, raised) in enumerate(spans):
            d = t1 - t0
            self.count[name] = self.count.get(name, 0) + 1
            self.time[name] = self.time.get(name, 0.0) + d
            if not raised:
                self.ok_count[name] = self.ok_count.get(name, 0) + 1
                self.ok_time[name] = self.ok_time.get(name, 0.0) + d
            if parent >= 0:
                pname = spans[parent][0]
                if pname == "probe.run_trajectory" and name.startswith(TRAJECTORY_PARTS):
                    part_time[parent] += d
                    if name.startswith("sequences.generate") and not raised:
                        self.steps += 1
                elif pname == "probe.probe" and name == "probe.run_trajectory":
                    part_time[parent] += d
            if name == "probe.probe":
                # cli.main self time excludes the probe, wherever below main it ran.
                up = parent
                while up >= 0 and spans[up][0] != "cli.main":
                    up = spans[up][3]
                if up >= 0:
                    part_time[up] += d
        for i, (name, t0, t1, _parent, _raised) in enumerate(spans):
            if name == "probe.run_trajectory":
                self.trajectory_self += (t1 - t0) - part_time[i]
            elif name == "probe.probe":
                self.probe_self += (t1 - t0) - part_time[i]
                self.probe_calls += 1
            elif name == "cli.main":
                self.main_self += (t1 - t0) - part_time[i]
                self.main_calls += 1

    def mean_us(self, *names: str, ok_only: bool = False):
        """Mean duration of the spans with these names; None if there are none."""
        count, time = (self.ok_count, self.ok_time) if ok_only else (self.count, self.time)
        n = sum(count.get(name, 0) for name in names)
        if not n:
            return None
        return 1e6 * sum(time.get(name, 0.0) for name in names) / n

    def summary(self) -> dict:
        return {name: {"calls": self.count[name],
                       "mean_us": 1e6 * self.time[name] / self.count[name]}
                for name in sorted(self.count)}


class Tracer:
    """Wraps the package's public functions and records spans per operation."""

    def __init__(self, keep_spans: int = 20_000):
        self.keep_spans = keep_spans
        self.kept_spans = 0
        self.kept: list[dict] = []
        self.totals = Totals()
        self._spans: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self._op_id = 0

    # -- installation -------------------------------------------------
    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                        or not value.__module__.startswith(PACKAGE)
                        or (_short(value.__module__), value.__name__) in SKIP):
                    continue
                wrapper = wrappers.get(id(value))
                if wrapper is None:
                    wrapper = wrappers[id(value)] = self._wrap(value)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, fn):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(_span_name(fn, args), fn, *args, **kwargs)

        return traced

    # -- spans ----------------------------------------------------------
    def call(self, name: str, fn, *args, **kwargs):
        spans = self._spans
        stack = self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, False]
        stack.append(len(spans))
        spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            rec[4] = True
            raise
        finally:
            rec[2] = perf_counter()
            stack.pop()

    def begin(self) -> None:
        self._spans = []
        self._stack = []

    def end(self, label: str, is_op: bool = True) -> None:
        spans = self._spans
        self.totals.add(spans, is_op)
        if self.kept_spans + len(spans) <= self.keep_spans:
            self.kept_spans += len(spans)
            self.kept.append({"op": self._op_id, "label": label, "spans": [
                {"name": n, "start": t0, "end": t1, "parent": p, "raised": r}
                for n, t0, t1, p, r in spans]})
        self._op_id += 1
        self._spans = []
