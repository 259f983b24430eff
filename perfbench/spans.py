"""Spans around the boundaries between `bangles` modules, installed from outside.

The tracer never edits the program's source.  It replaces, in each module's
namespace, every function that module imports from another `bangles` module
with a wrapper that records one span per call, so a call from `harness` into
`poly.lp_substitute` becomes a `poly.lp_substitute` span.  Calls inside one
module stay unwrapped, except for a few hooks named in `_HOOKS` that count
work no import boundary shows (graph builds and transfer scans).  The two
term kernels are wrapped on `poly._kernel`, the module `poly` calls them
through.

A span is (name, parent, start, end).  Spans are kept in flat arrays while the
campaign runs and are summarised and written out only after it ends.  A
layer is the module that defines the called function; its self time is the
sum over its spans of the span's duration minus the durations of its child
spans.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import defaultdict
from types import ModuleType
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter_ns

# In-module hooks: (module, function) wrapped in the defining module's own
# namespace so that its internal callers are counted too.
_HOOKS = (
    ("bangles.snakegraph", "build_band_graph"),
    ("bangles.snakegraph", "build_snake_graph"),
    ("bangles.snakegraph", "_scan"),
)

# Per-call counters: span name -> function(counts, args, result).
_Counter = Callable[[Dict[str, int], tuple, object], None]


def _count_mul(counts, args, result):
    counts["polypure.mul_pairs"] += len(args[0]) * len(args[1])


def _count_substitute(counts, args, result):
    counts["poly.substitute_terms"] += len(result.num) + len(result.den)


def _count_build(counts, args, result):
    counts["snakegraph.tiles"] += result.d


def _count_scan(counts, args, result):
    # a weight dict maps exponents to matching counts; collect=True gives a list
    counts["snakegraph.matchings"] += sum(result.values()) if isinstance(result, dict) else len(result)


def _count_run_corpus(counts, args, result):
    counts["harness.checks"] += len(result)


_COUNTERS: Dict[str, _Counter] = {
    "_polypure.mul_accum": _count_mul,
    "poly.lp_substitute": _count_substitute,
    "snakegraph.build_band_graph": _count_build,
    "snakegraph.build_snake_graph": _count_build,
    "snakegraph._scan": _count_scan,
    "harness.run_corpus": _count_run_corpus,
}


def layer_of(span_name: str) -> str:
    """`_polypure.mul_accum` -> `polypure`: metric names start with a letter."""
    return span_name.split(".", 1)[0].lstrip("_")


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._patched: List[Tuple[object, str, object]] = []
        self.on = False

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        count = _COUNTERS.get(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(_clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = _clock()
                stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, span_name: str) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(span_name, original))

    def install(self) -> List[str]:
        """Wrap every cross-module import, the in-module hooks and the kernel.

        Returns the hooks and kernel functions that were not found; their
        metrics read 0 until the benchmark follows the rename.
        """
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name.startswith("bangles.") and isinstance(mod, ModuleType)
        }
        for mod_name, mod in sorted(modules.items()):
            for attr, obj in sorted(vars(mod).items()):
                home = getattr(obj, "__module__", None)
                if (
                    callable(obj)
                    and not inspect.isclass(obj)
                    and home in modules
                    and home != mod_name
                ):
                    self._patch(mod, attr, f"{home[len('bangles.'):]}.{obj.__name__}")
        missing = []
        kernel = getattr(modules.get("bangles.poly"), "_kernel", None)
        kernel_name = getattr(kernel, "__name__", "bangles.poly._kernel")
        for mod, mod_name, attr in [(modules.get(m), m, a) for m, a in _HOOKS] + [
            (kernel, kernel_name, "add_merge"),
            (kernel, kernel_name, "mul_accum"),
        ]:
            if hasattr(mod, attr):
                self._patch(mod, attr, f"{mod_name[len('bangles.'):]}.{attr}")
            else:
                missing.append(f"{mod_name}.{attr}")
        return missing

    def uninstall(self) -> None:
        self.on = False
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def api(self, fns: Dict[str, Callable]) -> Dict[str, Callable]:
        """Root spans: the benchmark's own calls into the program."""
        return {key: self.wrap(f"{fn.__module__[len('bangles.'):]}.{fn.__name__}", fn) for key, fn in fns.items()}

    # -- after the campaign ------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        n = len(self.span_name)
        child = [0] * n
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names
        }
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            row["calls"] += 1
            row["total_s"] += dur[i] / 1e9
            row["self_s"] += (dur[i] - child[i]) / 1e9
        return out

    def write(self, path: str, origin_ns: int) -> None:
        """Every span as one tab-separated line: id, name, parent, start, end (ns)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tparent\tstart_ns\tend_ns\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                    f"{self.span_start[i] - origin_ns}\t{self.span_end[i] - origin_ns}\n"
                )


def layer_split(spans: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Self seconds per layer, every module that had a span."""
    out: Dict[str, float] = defaultdict(float)
    for name, row in spans.items():
        out[layer_of(name)] += row["self_s"]
    return dict(out)


def layer_metrics(
    spans: Dict[str, Dict[str, float]], counts: Dict[str, int], cache_entries: Optional[int]
) -> Dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced campaign."""

    def calls(*names: str) -> int:
        return sum(spans.get(n, {}).get("calls", 0) for n in names)

    def total(*names: str) -> float:
        return sum(spans.get(n, {}).get("total_s", 0.0) for n in names)

    def layer_calls(layer: str) -> int:
        return sum(row["calls"] for name, row in spans.items() if layer_of(name) == layer)

    split = layer_split(spans)
    mul_s = total("_polypure.mul_accum")
    return {
        "poly.substitute_calls": calls("poly.lp_substitute"),
        "poly.substitute_s": total("poly.lp_substitute"),
        "poly.substitute_terms": counts["poly.substitute_terms"],
        "poly.format_calls": calls("poly.lp_format"),
        "poly.format_s": total("poly.lp_format"),
        "poly.self_s": split.get("poly", 0.0),
        "polypure.mul_calls": calls("_polypure.mul_accum"),
        "polypure.mul_pairs": counts["polypure.mul_pairs"],
        "polypure.mul_s": mul_s,
        "polypure.pairs_per_s": counts["polypure.mul_pairs"] / mul_s if mul_s else 0.0,
        "polypure.add_calls": calls("_polypure.add_merge"),
        "polypure.add_s": total("_polypure.add_merge"),
        "curve.transport_calls": calls("curve.transport_curve"),
        "curve.transport_s": total("curve.transport_curve"),
        "curve.normalize_calls": calls("curve.normalize_curve"),
        "curve.self_s": split.get("curve", 0.0),
        "mutation.calls": layer_calls("mutation"),
        "mutation.self_s": split.get("mutation", 0.0),
        "surface.flip_calls": calls("surface.flip"),
        "surface.self_s": split.get("surface", 0.0),
        "snakegraph.build_calls": calls("snakegraph.build_band_graph", "snakegraph.build_snake_graph"),
        "snakegraph.tiles": counts["snakegraph.tiles"],
        "snakegraph.scans": calls("snakegraph._scan"),
        "snakegraph.cache_entries": cache_entries if cache_entries is not None else 0,
        "snakegraph.matchings": counts["snakegraph.matchings"],
        "snakegraph.self_s": split.get("snakegraph", 0.0),
        "shear.calls": layer_calls("shear"),
        "shear.self_s": split.get("shear", 0.0),
        "harness.checks": counts["harness.checks"],
        "harness.self_s": split.get("harness", 0.0),
        "harness.report_s": total("harness.report_text"),
    }
