"""Span and counter wrappers installed around hopfchar's public functions.

The wrappers live in the benchmark, not in the package: `install()` imports
hopfchar, replaces each target below with a wrapper, and rebinds every
module-level name in the package that referred to the original, so callers
that imported a function by name go through the wrapper too.  A target that
no longer exists is recorded as missing and its metrics are left out.

Spans are kept in memory (name, start, end, parent) and written out once by
`dump()`.  `summarize()` turns one or more dumps into per-layer metrics:
`self_s` is a span's duration minus the part its child spans cover, `calls`
counts entries, and `hit_ratio` is 1 - distinct (instance, argument) keys /
calls, the share of calls a per-instance cache keyed on that argument could
have served.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# (metric prefix, module, attribute, stats).  An attribute "*.name" means
# every class defined in the module that defines `name` itself.
TARGETS = (
    ("core.Monomial", "core", "Monomial.__init__", ("calls",)),
    ("core.GradedVector.add", "core", "GradedVector.__add__", ("calls",)),
    ("core.tensor_product", "core", "tensor_product", ("self_s",)),
    ("core.vector_product", "core", "vector_product", ("self_s",)),
    ("hopf.coproduct_monomial", "hopf", "HopfAlgebra.coproduct_monomial",
     ("self_s", "calls", "hit_ratio")),
    ("hopf.antipode_monomial", "hopf", "HopfAlgebra.antipode_monomial",
     ("self_s", "calls", "hit_ratio")),
    ("hopf.antipode_recursive", "hopf", "HopfAlgebra.antipode_recursive",
     ("self_s", "calls")),
    ("hopf.product", "hopf", "HopfAlgebra.product", ("self_s", "calls")),
    ("hopf.check_hopf_axioms", "hopf", "check_hopf_axioms", ("self_s",)),
    ("hopf.basis", "hopf", "HopfAlgebra.basis", ("self_s",)),
    ("instances.coproduct_generator", "instances", "*.coproduct_generator",
     ("self_s",)),
    ("instances.antipode_generator_explicit", "instances",
     "*.antipode_generator_explicit", ("self_s",)),
    ("instances.bell_partial", "instances", "bell_partial", ("calls",)),
    ("trees.root_cuts", "trees", "root_cuts", ("self_s",)),
    ("trees.edge_cuts", "trees", "edge_cuts", ("self_s",)),
    ("trees.trees_of_order", "trees", "trees_of_order", ("self_s",)),
    ("words.shuffle_words", "words", "shuffle_words", ("self_s",)),
    ("words.lyndon_rewrite_word", "words", "lyndon_rewrite_word", ("self_s",)),
    ("growth.GrowthFamily.eval", "growth", "GrowthFamily.eval", ("calls",)),
    ("control.coproduct_ratio", "control", "coproduct_ratio", ("self_s",)),
    ("control.antipode_ratio", "control", "antipode_ratio", ("self_s",)),
    ("control.rlb_check", "control", "rlb_check", ("self_s",)),
    ("characters.exp_infchar", "characters", "exp_infchar", ("self_s",)),
    ("characters.log_character", "characters", "log_character", ("self_s",)),
    ("characters.convolve", "characters", "convolve", ("self_s",)),
    ("characters.inverse", "characters", "inverse", ("self_s",)),
    ("characters.bracket", "characters", "bracket", ("self_s",)),
    ("characters.linf_norm", "characters", "linf_norm", ("self_s",)),
    ("characters.evaluate", "characters", "*.evaluate", ("calls", "hit_ratio")),
    ("evolution.evolve", "evolution", "evolve", ("self_s",)),
    ("evolution.TimePoly.mul", "evolution", "TimePoly.__mul__", ("calls",)),
    ("fields.Poly.mul", "fields", "Poly.__mul__", ("calls",)),
    ("fields.PolyMap.deriv_apply", "fields", "PolyMap.deriv_apply", ("self_s",)),
    ("fields.PolyMap.jacobian_times", "fields", "PolyMap.jacobian_times",
     ("self_s",)),
    ("series.bseries_order_terms", "series", "bseries_order_terms", ("self_s",)),
    ("series.pseries_order_terms", "series", "pseries_order_terms", ("self_s",)),
    ("series.wordseries_order_terms", "series", "wordseries_order_terms",
     ("self_s",)),
    ("series.exact_flow_character", "series", "exact_flow_character",
     ("self_s",)),
    ("reports.render_report", "reports", "render_report", ("self_s",)),
    ("reports.character_from_json", "reports", "character_from_json",
     ("self_s",)),
)


def metric_names() -> list[str]:
    """Every per-layer metric the wrappers can report, in table order."""
    return [f"{prefix}.{stat}" for prefix, _, _, stats in TARGETS for stat in stats]


class Tracer:
    """Spans and counters for one process, kept in memory until `dump`."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.name_ids = array("i")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.keys: dict[str, set] = {}
        # keeps every keyed instance alive so that id() stays unique
        self.alive: dict[int, object] = {}
        self.missing: list[str] = []

    def _span(self, fn, prefix: str):
        nid = len(self.names)
        self.names.append(prefix)
        starts, ends, parents, name_ids = self.starts, self.ends, self.parents, self.name_ids
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            name_ids.append(nid)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _count(self, fn, prefix: str, keyed: bool):
        counts = self.counts
        counts[prefix] = 0
        if not keyed:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[prefix] += 1
                return fn(*args, **kwargs)

            return wrapper
        seen = self.keys.setdefault(prefix, set())
        alive = self.alive

        @functools.wraps(fn)
        def keyed_wrapper(obj, arg, *args, **kwargs):
            counts[prefix] += 1
            alive[id(obj)] = obj
            seen.add((id(obj), arg))
            return fn(obj, arg, *args, **kwargs)

        return keyed_wrapper

    def wrap(self, fn, prefix: str, stats: tuple[str, ...]):
        keyed = "hit_ratio" in stats
        if keyed:
            # keys are counted outside the span, so the key set's cost is
            # charged to the caller rather than to the wrapped function
            inner = self._span(fn, prefix) if "self_s" in stats else fn
            return self._count(inner, prefix, True)
        if "self_s" in stats:
            return self._span(fn, prefix)
        return self._count(fn, prefix, False)

    def install(self) -> "Tracer":
        """Import hopfchar and its CLI and wrap every target found."""
        importlib.import_module("hopfchar.cli")
        package = {name: mod for name, mod in sys.modules.items()
                   if name == "hopfchar" or name.startswith("hopfchar.")}
        for prefix, module, attribute, stats in TARGETS:
            sites = _resolve(package.get(f"hopfchar.{module}"), attribute)
            if not sites:
                self.missing.extend(f"{prefix}.{stat}" for stat in stats)
                continue
            for owner, name, original in sites:
                wrapped = self.wrap(original, prefix, stats)
                setattr(owner, name, wrapped)
                if isinstance(owner, type):
                    continue
                for mod in package.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
        return self

    def dump(self, path: str) -> None:
        """Write the spans and counters: `path`.json header, `path`.bin arrays."""
        header = {
            "names": self.names,
            "spans": len(self.starts),
            "counts": self.counts,
            "distinct": {k: len(v) for k, v in self.keys.items()},
            "missing": self.missing,
        }
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)
        with open(path + ".bin", "wb") as fh:
            for arr in (self.starts, self.ends, self.parents, self.name_ids):
                arr.tofile(fh)


def _resolve(mod, attribute: str) -> list[tuple[object, str, object]]:
    """(owner, name, original) for each place the target is defined."""
    if mod is None:
        return []
    owner_name, _, name = attribute.rpartition(".")
    if owner_name == "*":
        owners = [cls for cls in vars(mod).values()
                  if isinstance(cls, type) and cls.__module__ == mod.__name__
                  and name in vars(cls)]
    elif owner_name:
        cls = vars(mod).get(owner_name)
        owners = [cls] if isinstance(cls, type) and name in vars(cls) else []
    else:
        owners = [mod] if callable(vars(mod).get(name)) else []
    return [(owner, name, vars(owner)[name]) for owner in owners]


def summarize(paths: list[str]) -> dict[str, float]:
    """Per-layer metrics summed over the dumps at `paths`."""
    self_s: dict[str, float] = {}
    span_calls: dict[str, int] = {}
    calls: dict[str, int] = {}
    distinct: dict[str, int] = {}
    missing: set[str] = set()
    for path in paths:
        with open(path + ".json", encoding="utf-8") as fh:
            header = json.load(fh)
        n = header["spans"]
        starts, ends, parents, name_ids = (array("d"), array("d"),
                                           array("i"), array("i"))
        with open(path + ".bin", "rb") as fh:
            for arr in (starts, ends, parents, name_ids):
                arr.fromfile(fh, n)
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        names = header["names"]
        for i in range(n):
            name = names[name_ids[i]]
            self_s[name] = self_s.get(name, 0.0) + (ends[i] - starts[i] - child[i])
            span_calls[name] = span_calls.get(name, 0) + 1
        for name, c in header["counts"].items():
            calls[name] = calls.get(name, 0) + c
        for name, d in header["distinct"].items():
            distinct[name] = distinct.get(name, 0) + d
        missing.update(header["missing"])
    for name, c in span_calls.items():
        calls.setdefault(name, c)
    out: dict[str, float] = {}
    for prefix, _, _, stats in TARGETS:
        for stat in stats:
            metric = f"{prefix}.{stat}"
            if metric in missing:
                continue
            if stat == "self_s":
                out[metric] = self_s.get(prefix, 0.0)
            elif stat == "calls":
                out[metric] = calls.get(prefix, 0)
            else:
                c = calls.get(prefix, 0)
                out[metric] = 1 - distinct.get(prefix, 0) / c if c else 0.0
    return out
