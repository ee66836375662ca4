"""Outside-in tracer: spans around calls into jetsym's public layer functions.

The jetsym modules import one another by name (``from .algebra import
normalize``), so a function is reachable through several module attributes.
``Tracer.install`` rebinds every ``jetsym.*`` attribute that *is* a traced
function, and ``uninstall`` puts the originals back.  Nothing inside ``src/``
is changed.

Spans are kept in memory as (name, start, end, parent, job) and written out
as JSONL on request.  The tracer's own bookkeeping after a call (counters,
span records) runs on a paused clock, so it is not charged to the enclosing
spans' self time; ``trace.overhead_s`` in the report measures what remains.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

import sympy as sp

TRACED = (
    "grammar.parse", "problem.load_problem",
    "algebra.normalize", "algebra.zero_verdict", "algebra.evaluate_at",
    "algebra.substitute",
    "families.collect_family",
    "jets.total_derivative", "jets.prolong", "jets.section_derivative",
    "jets.restrict_to_section", "jets.restrict_routes",
    "geometry.lie_bracket", "geometry.generic_rank", "geometry.is_involutive",
    "geometry.rectify",
    "condsym.characteristic_system", "condsym.determining_system",
    "condsym.verify_conditional_symmetry", "condsym.verify_solution",
    "liesys.vg_closure", "liesys.solve_solvable_q1",
)

ZERO_CLASSES = ("structural", "probabilistic", "opaque", "sampling-blocked")
ROUTES = ("A", "B", "A_B")        # route "A+B" is reported as A_B


def _count_normalize(counts, args, result):
    counts["algebra.normalize.noop"] += int(sp.sympify(args[0]) == result)


def _count_evaluate_at(counts, args, result):
    counts["algebra.evaluate_at.accepted"] += 1


def _count_zero_verdict(counts, args, result):
    counts[f"algebra.zero_verdict.class.{result.confidence}"] += 1


def _count_route(counts, args, result):
    route = result.route.replace("+", "_")
    counts[f"condsym.verify_conditional_symmetry.route.{route}"] += 1


def _count_routes(counts, args, result):
    counts["jets.restrict_routes.routes"] += len(result)


# Counters taken from a call's arguments and result, outside its timing.
_COUNTERS = {
    "algebra.normalize": _count_normalize,
    "algebra.evaluate_at": _count_evaluate_at,
    "algebra.zero_verdict": _count_zero_verdict,
    "condsym.verify_conditional_symmetry": _count_route,
    "jets.restrict_routes": _count_routes,
}


class Tracer:
    def __init__(self):
        self.spans = []              # (name, start, end, parent index, job)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()
        self.job = None
        self._stack = []             # [span index, name, start, child time]
        self._paused = 0.0
        self._patched = []           # (module, attribute, original)

    def _now(self):
        return time.perf_counter() - self._paused

    def _wrap(self, name, fn):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][0] if stack else None
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, name, self._now(), 0.0]
            stack.append(frame)
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = self._now()
                pause_start = time.perf_counter()
                stack.pop()
                duration = end - frame[2]
                self.spans[index] = (name, frame[2], end, parent, self.job)
                self.calls[name] += 1
                self.self_s[name] += duration - frame[3]
                if stack:
                    stack[-1][3] += duration
                if all(f[1] != name for f in stack):   # outermost call of name
                    self.total_s[name] += duration
                if count is not None and returned:
                    count(self.counts, args, result)
                self._paused += time.perf_counter() - pause_start

        return traced

    def install(self):
        """Rebind every jetsym.* attribute that is one of the traced functions."""
        wrappers = {}
        for dotted in TRACED:
            module_name, attr = dotted.split(".")
            module = importlib.import_module(f"jetsym.{module_name}")
            original = getattr(module, attr)
            wrappers[id(original)] = (original, self._wrap(dotted, original))
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not (module_name == "jetsym"
                                      or module_name.startswith("jetsym.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))
        return self

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def metrics(self):
        """Per-function calls/self_s/total_s plus the ratio and count metrics."""
        out = {}
        for name in TRACED:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
            out[f"{name}.total_s"] = (self.total_s[name], "s")
        c = self.counts
        n = self.calls["algebra.normalize"]
        out["algebra.normalize.noop_share"] = (
            c["algebra.normalize.noop"] / n if n else 0.0, "share")
        n = self.calls["algebra.evaluate_at"]
        out["algebra.evaluate_at.reject_share"] = (
            (n - c["algebra.evaluate_at.accepted"]) / n if n else 0.0, "share")
        for cls in ZERO_CLASSES:
            key = f"algebra.zero_verdict.class.{cls}"
            out[key] = (c[key], "count")
        for route in ROUTES:
            key = f"condsym.verify_conditional_symmetry.route.{route}"
            out[key] = (c[key], "count")
        out["jets.restrict_routes.routes"] = (c["jets.restrict_routes.routes"], "count")
        return out

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
