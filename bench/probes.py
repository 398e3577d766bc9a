"""Tracing for the benchmark's traced run, installed from outside the program.

`Tracer.install()` wraps the public functions and methods of each bdsweyl
module (plus a few named private entry points) so that every call records a
span (name, start, end, parent span, query id) and exact counters.  Self time
is accumulated on the fly: a span's duration minus the time covered by its
child spans.  HPoly arithmetic is counted but not timed, so polynomial work
stays in the self time of the Garland function that asked for it.

`LAYERS` maps each per-layer metric to the spans and counters behind it.  A
target that no longer exists in the program is skipped, and the metrics that
need it are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from functools import cached_property

MODULES = ("rootsys", "bdspair", "srring", "weylcrit", "garland", "verify", "cli")

# Private or dunder targets that carry a named layer metric.
EXTRA_TARGETS = (
    "rootsys.RootSystem.__init__",
    "bdspair.BdsPair.__init__",
    "srring.SimplicialComplex.__post_init__",
    "srring.SRPresentation._closed_form",
)
# Arithmetic primitives: counted, never timed as spans of their own.
COUNT_ONLY = ("garland.HPoly.__mul__",)
SKIP_CLASSES = ("garland.HPoly",)

# Per-layer metrics: name -> (kind, target).  "calls" and "self_s" sum over
# a list of span names, or over every span of a module for "module.*";
# "count" sums result sizes and "count_calls" counts calls of a counted
# target; "hit_ratio" and "cache_size" read an lru_cache.
LAYERS = {
    "srring.facets.calls": ("calls", ["srring.SRPresentation.facets"]),
    "srring.facets.self_s": ("self_s", ["srring.SRPresentation.facets"]),
    "srring.facets.count": ("count", "srring.SRPresentation.facets"),
    "srring.complex.self_s": ("self_s", ["srring.SimplicialComplex.__post_init__"]),
    "srring.generators.self_s": ("self_s", ["srring.SRPresentation.generators"]),
    "srring.generators.count": ("count", "srring.SRPresentation.generators"),
    "srring.variables.count": ("count", "srring.SRPresentation.variables"),
    "srring.hilbert_series.calls": ("calls", ["srring.SRPresentation.hilbert_series"]),
    "srring.hilbert_series.self_s": ("self_s", ["srring.SRPresentation.hilbert_series"]),
    "srring.closed_form.self_s": ("self_s", ["srring.SRPresentation._closed_form"]),
    "srring.canonical_shelling.self_s": ("self_s", ["srring.SRPresentation.canonical_shelling"]),
    "srring.flags.self_s": ("self_s", ["srring.SRPresentation.flags"]),
    "srring.krull_dim.self_s": ("self_s", ["srring.SRPresentation.krull_dim"]),
    "srring.find_shelling.calls": ("calls", ["srring.find_shelling"]),
    "srring.bruteforce.self_s": ("self_s", ["srring.hilbert_series_bruteforce"]),
    "garland.p_element.calls": ("calls", ["garland.p_element"]),
    "garland.p_element.hit_ratio": ("hit_ratio", "garland.p_element"),
    "garland.p_element.cache_size": ("cache_size", "garland.p_element"),
    "garland.exp_series.self_s": ("self_s", ["garland.exp_series"]),
    "garland.product_formula.self_s": ("self_s", ["garland.product_formula_diff",
                                                  "garland.product_formula_check"]),
    "garland.grouplike.self_s": ("self_s", ["garland.grouplike_diff", "garland.grouplike_check"]),
    "garland.newton.self_s": ("self_s", ["garland.newton_identity_holds"]),
    "garland.hpoly_mul.calls": ("count_calls", "garland.HPoly.__mul__"),
    "garland.terms": ("count", "garland.HPoly.__mul__"),
    "rootsys.build.calls": ("calls", ["rootsys.build"]),
    "rootsys.build.hit_ratio": ("hit_ratio", "rootsys.build"),
    "rootsys.init.self_s": ("self_s", ["rootsys.RootSystem.__init__"]),
    "rootsys.inner.calls": ("calls", ["rootsys.RootSystem.inner"]),
    "rootsys.inner.self_s": ("self_s", ["rootsys.RootSystem.inner"]),
    "bdspair.init.calls": ("calls", ["bdspair.BdsPair.__init__"]),
    "bdspair.init.self_s": ("self_s", ["bdspair.BdsPair.__init__"]),
    "bdspair.theta_k.self_s": ("self_s", ["bdspair.BdsPair.theta_k"]),
    "bdspair.reflection_chain.self_s": ("self_s", ["bdspair.BdsPair.reflection_chain"]),
    "bdspair.g0_weyl_dim.self_s": ("self_s", ["bdspair.BdsPair.g0_weyl_dim"]),
    "bdspair.all_pairs.self_s": ("self_s", ["bdspair.all_pairs"]),
    "weylcrit.criteria.self_s": ("self_s", ["weylcrit.is_alambda_trivial",
                                            "weylcrit.is_global_weyl_irreducible"]),
    "weylcrit.ideal_point.self_s": ("self_s", ["weylcrit.ideal_point_from_params",
                                               "weylcrit.verify_ideal_point"]),
    "weylcrit.local_dim.self_s": ("self_s", ["weylcrit.local_weyl_dim_report",
                                             "weylcrit.local_weyl_dim_bn",
                                             "weylcrit.displayed_sum_dim",
                                             "weylcrit.spin_module_dim",
                                             "weylcrit.untwisted_fundamental_local_dim"]),
    "cli.main.calls": ("calls", ["cli.main"]),
    # argparse, payload building and json.dumps: the self time of every cli function
    "cli.main.self_s": ("self_s", "cli.*"),
    "verify.pair_structure.self_s": ("self_s", ["verify.check_pair_structure"]),
    "verify.comark_bound.self_s": ("self_s", ["verify.check_comark_bound"]),
    "verify.reflection_chains.self_s": ("self_s", ["verify.check_reflection_chains"]),
    "verify.graded_pieces.self_s": ("self_s", ["verify.check_graded_pieces"]),
    "verify.criteria.self_s": ("self_s", ["verify.check_criteria_consistency"]),
    "verify.krull.self_s": ("self_s", ["verify.check_krull"]),
    "verify.hilbert_oracle.self_s": ("self_s", ["verify.check_hilbert_oracle"]),
    "verify.shellings.self_s": ("self_s", ["verify.check_shellings"]),
    "verify.ideal_points.self_s": ("self_s", ["verify.check_ideal_points"]),
    "verify.garland.self_s": ("self_s", ["verify.check_garland"]),
}

# Spans kept per traced process; later ones are only counted in `dropped`.
SPAN_CAP = 200_000

# Kinds whose values must repeat exactly across two traced runs of one stream.
DETERMINISTIC_KINDS = ("calls", "count", "count_calls", "hit_ratio", "cache_size")


def _size(result) -> int:
    """Size of a result for the `count` counters (facets, generators, variables, terms)."""
    if hasattr(result, "facets"):
        return len(result.facets)
    if hasattr(result, "terms"):
        return len(result.terms)
    return len(result)


class Tracer:
    """In-memory span recorder and exact counters for one traced process."""

    def __init__(self):
        self.spans: list = []
        self.dropped = 0
        self.stack: list[list] = []
        self.qid = -1
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.sizes: Counter = Counter()
        self.caches: dict = {}
        self.installed: set[str] = set()
        self.missing: list[str] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, sized: bool):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][1] if stack else -1
            if len(tracer.spans) < SPAN_CAP:
                idx = len(tracer.spans)
                tracer.spans.append(None)
            else:
                idx = -1
                tracer.dropped += 1
            frame = [0.0, idx]  # time covered by child spans, span index
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += end - start - frame[0]
                if stack:
                    stack[-1][0] += end - start
                if idx >= 0:
                    tracer.spans[idx] = (name, start, end, parent, tracer.qid)
            if sized:
                tracer.sizes[name] += _size(result)
            return result
        return wrapper

    def _counter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.calls[name] += 1
            tracer.sizes[name] += _size(result)
            return result
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target found; record the ones that are gone."""
        mods = {m: importlib.import_module(f"bdsweyl.{m}") for m in MODULES}
        sized = {target for kind, target in LAYERS.values() if kind == "count"}
        rebind: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for m, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{m}.{attr}"
                if inspect.isclass(obj):
                    if name not in SKIP_CLASSES:
                        self._wrap_class(name, obj, sized)
                elif callable(obj):
                    if hasattr(obj, "cache_info"):
                        self.caches[name] = (obj, obj.cache_info())
                    wrapped = self._span(name, obj, name in sized)
                    rebind[id(obj)] = (obj, wrapped)
                    self.installed.add(name)
        for target in EXTRA_TARGETS + COUNT_ONLY:
            m, cls_name, attr = target.split(".")
            cls = getattr(mods[m], cls_name, None)
            fn = None if cls is None else cls.__dict__.get(attr)
            if fn is None:
                self.missing.append(target)
                continue
            wrap = self._counter(target, fn) if target in COUNT_ONLY else self._span(target, fn, False)
            setattr(cls, attr, wrap)
            self.installed.add(target)
        # Functions imported by name into other modules (and the package) are
        # rebound wherever they appear, so every caller goes through the wrapper.
        for mod in list(mods.values()) + [importlib.import_module("bdsweyl")]:
            for attr, obj in list(vars(mod).items()):
                hit = rebind.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _wrap_class(self, prefix: str, cls, sized: set[str]) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(member, cached_property):
                member.func = self._span(name, member.func, name in sized)
            elif isinstance(member, (classmethod, staticmethod)):
                setattr(cls, attr, type(member)(self._span(name, member.__func__, name in sized)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self._span(name, member, name in sized))
            else:
                continue
            self.installed.add(name)

    # -- results ------------------------------------------------------------

    def _names(self, ref) -> list[str]:
        if isinstance(ref, str):  # "module.*"
            return [n for n in self.installed if n.startswith(ref[:-1])]
        return [n for n in ref if n in self.installed]

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer metric values, and the names of metrics whose target is gone."""
        out: dict[str, float] = {}
        absent: list[str] = []
        for metric, (kind, ref) in LAYERS.items():
            if kind in ("calls", "self_s"):
                names = self._names(ref)
                if not names:
                    absent.append(metric)
                    continue
                table = self.calls if kind == "calls" else self.self_s
                out[metric] = sum(table[n] for n in names)
            elif kind in ("hit_ratio", "cache_size"):
                if ref not in self.caches:
                    absent.append(metric)
                    continue
                fn, before = self.caches[ref]
                now = fn.cache_info()
                if kind == "cache_size":
                    out[metric] = now.currsize
                else:
                    hits, misses = now.hits - before.hits, now.misses - before.misses
                    out[metric] = hits / (hits + misses) if hits + misses else 0.0
            elif ref not in self.installed:
                absent.append(metric)
            else:
                out[metric] = self.calls[ref] if kind == "count_calls" else self.sizes[ref]
        return out, absent

    def dump(self, path) -> None:
        """Write the spans and the per-function table as one JSON document."""
        table = {n: {"calls": self.calls[n], "self_s": self.self_s.get(n, 0.0)}
                 for n in sorted(self.installed)}
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "query"],
                       "spans": self.spans,
                       "dropped": self.dropped, "functions": table,
                       "missing": self.missing}, fh)
