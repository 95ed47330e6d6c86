"""Span tracing for the benchmark's traced run.

The traced run wraps rigiform's public functions from outside the package:
each wrapper replaces a module attribute in the namespace where the caller
looks the name up (``rigiform.cli.integrate``, ``rigiform.rigidity.numeric_rank``
and so on), so no file under ``src/`` changes.  A span records its name, start,
end, parent span and a few attributes; spans stay in memory until the run
writes them out.  Functions that callers inline, such as the control law
inside ``sim._closed_loop``, have no span and count toward their caller.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple


def _load_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _csv_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _integrate_counts(args, kwargs, result):
    scenario = args[0]
    if result.diverged:
        steps = (result.sample_count - 1) * scenario.output_every
    else:
        steps = int(round(scenario.t_end / scenario.dt))
    return {"steps": steps, "samples": result.sample_count}


# (module, attribute, span name, attribute hook).  The span name is the
# defining module and function; the module is where the caller looks it up.
WRAPPED = (
    ("rigiform.cli", "load_scenario", "scenario.load_scenario", _load_bytes),
    ("rigiform.cli", "generate_scenario", "scenario.generate_scenario", None),
    ("rigiform.cli", "save_scenario", "scenario.save_scenario", None),
    ("rigiform.cli", "is_infinitesimally_rigid", "rigidity.is_infinitesimally_rigid", None),
    ("rigiform.cli", "is_minimally_rigid", "rigidity.is_minimally_rigid", None),
    ("rigiform.cli", "stability_matrix", "analysis.stability_matrix", None),
    ("rigiform.cli", "is_hurwitz", "analysis.is_hurwitz", None),
    ("rigiform.cli", "integrate", "sim.integrate", _integrate_counts),
    ("rigiform.cli", "run_verdict", "sim.run_verdict", None),
    ("rigiform.cli", "write_csv", "sim.write_csv", _csv_bytes),
    ("rigiform.scenario", "random_trace", "rigidity.random_trace", None),
    ("rigiform.scenario", "is_infinitesimally_rigid", "rigidity.is_infinitesimally_rigid", None),
    ("rigiform.scenario", "stability_matrix", "analysis.stability_matrix", None),
    ("rigiform.scenario", "is_hurwitz", "analysis.is_hurwitz", None),
    ("rigiform.analysis", "is_infinitesimally_rigid", "rigidity.is_infinitesimally_rigid", None),
    ("rigiform.sim", "is_infinitesimally_rigid", "rigidity.is_infinitesimally_rigid", None),
    ("rigiform.rigidity", "is_infinitesimally_rigid", "rigidity.is_infinitesimally_rigid", None),
    ("rigiform.rigidity", "numeric_rank", "rigidity.numeric_rank", None),
    # check_observability reaches numeric_rank through rigiform.disturbance,
    # which is not wrapped: that tiny rank counts toward scenario loading.
)

# Counted, not timed: each call leaves a zero-length span, so its time stays
# in the caller's self time (cmd_check calls eigvals directly).
COUNTED = (("numpy.linalg", "eigvals", "analysis.eigvals"),)


class Tracer:
    """In-memory span recorder.  Each span is
    [name, start, end, parent index (-1 for a root), attributes]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def _begin(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), None, parent, {}])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index):
        self._open.pop()
        self.spans[index][2] = perf_counter()

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            if hook is not None:
                self.spans[index][4].update(hook(args, kwargs, result))
            return result

        return traced

    def _count(self, fn, name):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            now = perf_counter()
            self.spans.append([name, now, now, self._open[-1] if self._open else -1, {}])
            return fn(*args, **kwargs)

        return counted

    def install(self):
        for module_name, attr, name, hook in WRAPPED:
            self._replace(module_name, attr, lambda fn: self._wrap(fn, name, hook))
        for module_name, attr, name in COUNTED:
            self._replace(module_name, attr, lambda fn: self._count(fn, name))

    def _replace(self, module_name, attr, make):
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def export(self) -> list[dict]:
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {"id": i, "name": name, "start": start - origin, "end": end - origin,
             "parent": parent, **attrs}
            for i, (name, start, end, parent, attrs) in enumerate(self.spans)
        ]


class Summary(NamedTuple):
    """Spans of one cycle by span name."""

    inclusive: dict  # name -> seconds
    own: dict  # name -> self seconds: duration minus direct children's
    calls: dict  # name -> count
    attrs: dict  # (name, attribute) -> summed value
    under_check: dict  # name -> count inside `check` commands
    checks: int  # `check` commands


def _summarize(spans, lo, hi) -> Summary:
    inclusive, own, calls, attrs, under_check = {}, {}, {}, {}, {}
    checks = 0
    root_of = {}
    child_time = [0.0] * (hi - lo)
    for i in range(lo, hi):
        name, start, end, parent, extra = spans[i]
        if parent >= lo:
            child_time[parent - lo] += end - start
            root_of[i] = root_of[parent]
        else:
            root_of[i] = i
    for i in range(lo, hi):
        name, start, end, parent, extra = spans[i]
        duration = end - start
        inclusive[name] = inclusive.get(name, 0.0) + duration
        own[name] = own.get(name, 0.0) + duration - child_time[i - lo]
        calls[name] = calls.get(name, 0) + 1
        for key, value in extra.items():
            attrs[(name, key)] = attrs.get((name, key), 0) + value
        if spans[root_of[i]][0] == "cli.check":
            if i == root_of[i]:
                checks += 1
            else:
                under_check[name] = under_check.get(name, 0) + 1
    return Summary(inclusive, own, calls, attrs, under_check, checks)


def layer_metrics(tracer: Tracer, cycles: list[tuple[int, int]]) -> dict[str, float]:
    """Per-layer metrics from traced cycles given as span index ranges.

    Times are seconds per cycle, the median over cycles.  Counts, bytes and
    ratios come from the first traced cycle, whose inputs are fixed by the
    seed, so they repeat exactly for a seed.
    """
    per_cycle = [_summarize(tracer.spans, lo, hi) for lo, hi in cycles]

    def seconds(name, own=False):
        return statistics.median(
            (c.own if own else c.inclusive).get(name, 0.0) for c in per_cycle
        )

    def cli_self(c):
        return sum(t for name, t in c.own.items() if name.startswith("cli."))

    def us_per_step(c):
        steps = c.attrs.get(("sim.integrate", "steps"), 0)
        return c.own.get("sim.integrate", 0.0) / steps * 1e6 if steps else 0.0

    _, _, calls, attrs, under_check, checks = per_cycle[0]
    draws = calls.get("rigidity.random_trace", 0)
    return {
        "scenario.load_s": seconds("scenario.load_scenario"),
        "scenario.json_bytes": attrs.get(("scenario.load_scenario", "bytes"), 0),
        "scenario.generate_s": seconds("scenario.generate_scenario"),
        "scenario.save_s": seconds("scenario.save_scenario"),
        "scenario.generate_draws": draws,
        "scenario.certified_per_draw": (
            calls.get("scenario.generate_scenario", 0) / draws if draws else 0.0
        ),
        "rigidity.random_trace_s": seconds("rigidity.random_trace"),
        "rigidity.rank_s": seconds("rigidity.numeric_rank"),
        "rigidity.rank_calls": calls.get("rigidity.numeric_rank", 0),
        "rigidity.rank_calls_per_check": (
            under_check.get("rigidity.numeric_rank", 0) / checks if checks else 0.0
        ),
        "analysis.stability_matrix_s": seconds("analysis.stability_matrix"),
        "analysis.hurwitz_s": seconds("analysis.is_hurwitz"),
        "analysis.eig_calls": calls.get("analysis.eigvals", 0),
        "analysis.eig_calls_per_check": (
            under_check.get("analysis.eigvals", 0) / checks if checks else 0.0
        ),
        "cli.self_s": statistics.median(cli_self(c) for c in per_cycle),
        "sim.integrate_s": seconds("sim.integrate"),
        "sim.integrate_self_s": seconds("sim.integrate", own=True),
        "sim.steps": attrs.get(("sim.integrate", "steps"), 0),
        "sim.samples": attrs.get(("sim.integrate", "samples"), 0),
        "sim.us_per_step": statistics.median(us_per_step(c) for c in per_cycle),
        "sim.write_csv_s": seconds("sim.write_csv"),
        "sim.csv_bytes": attrs.get(("sim.write_csv", "bytes"), 0),
        "sim.verdict_s": seconds("sim.run_verdict"),
    }


def self_times(tracer: Tracer, cycles: list[tuple[int, int]]) -> dict[str, float]:
    """Median self time per cycle for every span name seen."""
    per_cycle = [_summarize(tracer.spans, lo, hi).own for lo, hi in cycles]
    names = sorted({name for c in per_cycle for name in c})
    return {name: statistics.median(c.get(name, 0.0) for c in per_cycle) for name in names}
