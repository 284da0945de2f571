"""Spans around the package's public functions, for the traced run only.

``Tracer.install`` replaces every public function of the traced modules -
in its defining module and in every package module that imported it - with
a wrapper that records a span (name, start, end, parent) in memory, so calls
the package makes to itself get spans of their own.  Work counts are derived
from each call's arguments and result.  ``per_layer`` turns the spans of the
traced rounds into per-round metrics; self time is a span's duration minus
the time its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("graphs", "quasistable", "spin_locus", "numerics")


def _scan_size(graph) -> int:
    return (1 << graph.n) - 1


def _pair_space(graph) -> int:
    size = 1
    for _, _, k in graph.pairs():
        size *= k + 1
    return size


def _config_space(graph) -> int:
    size = _pair_space(graph)
    for v in graph.vertices:
        size *= v.self_nodes + 1
    return size


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


#: name -> function(args, kwargs, result) -> {count name: amount}
WORK = {
    "graphs.basic_inequality": lambda a, k, r: {
        "subcurves": _scan_size(_first(a, k, "graph"))
    },
    "graphs.enumerate_multidegrees": lambda a, k, r: {"outputs": len(r)},
    "quasistable.orbit_closed_check": lambda a, k, r: {
        "subcurves": _scan_size(_first(a, k, "q"))
    },
    "quasistable.git_stable_exhaustive": lambda a, k, r: {
        "subcurves": _scan_size(_first(a, k, "q")) - 1
    },
    "spin_locus.decide_spin_component": lambda a, k, r: {
        "met": r is not None,
        "s_table_space": _pair_space(_first(a, k, "graph")),
    },
    "spin_locus.enumerate_spin_multidegrees": lambda a, k, r: {"outputs": len(r)},
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.stack = [-1]
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.work: Counter = Counter()
        self.swaps: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, error_type):
        nid = len(self.names)
        self.names.append(name)
        work = WORK.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # A generator's body runs interleaved with its consumer, so it
            # gets no span of its own; its calls and yields are counted.
            def wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                if name == "quasistable.iter_blowup_configs":
                    tracer.work[name + ".configs"] += _config_space(_first(args, kwargs, "graph"))
                try:
                    for item in fn(*args, **kwargs):
                        tracer.work[name + ".yielded"] += 1
                        yield item
                except error_type:
                    tracer.errors[name] += 1
                    raise

        else:
            def wrapper(*args, **kwargs):
                idx = len(tracer.span_start)
                tracer.span_name.append(nid)
                tracer.span_parent.append(tracer.stack[-1])
                tracer.span_end.append(0.0)
                tracer.stack.append(idx)
                tracer.calls[name] += 1
                start = perf_counter()
                tracer.span_start.append(start)
                try:
                    result = fn(*args, **kwargs)
                except error_type:
                    tracer.errors[name] += 1
                    raise
                finally:
                    tracer.span_end[idx] = perf_counter()
                    tracer.stack.pop()
                if work is not None:
                    for key, amount in work(args, kwargs, result).items():
                        tracer.work[f"{name}.{key}"] += amount
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _find(self, package: str) -> None:
        """Build one wrapper per traced function and list every module
        attribute that holds the original."""
        errors = importlib.import_module(package + ".errors").SpinPicardError
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn, errors)
        cli_main = importlib.import_module(package + ".cli").main
        wrappers[cli_main] = self._wrap("cli.main", cli_main, errors)
        for modname, module in list(sys.modules.items()):
            if modname == package or modname.startswith(package + "."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        self.swaps.append((module, attr, value, wrappers[value]))

    def install(self, package: str = "spinpicard") -> None:
        """Put the wrappers in place wherever the package holds a traced function."""
        if not self.swaps:
            self._find(package)
        for module, attr, _, wrapper in self.swaps:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self.swaps:
            setattr(module, attr, original)

    # -- metrics -----------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter, int]:
        """Per name, summed self time and summed inclusive time; and the
        number of basic-inequality calls made directly inside enumerations."""
        candidates = 0
        inclusive: Counter = Counter()
        own: Counter = Counter()
        child = [0.0] * len(self.span_start)
        bi = self.names.index("graphs.basic_inequality")
        enum = self.names.index("graphs.enumerate_multidegrees")
        for idx in range(len(self.span_start) - 1, -1, -1):
            dur = self.span_end[idx] - self.span_start[idx]
            name = self.names[self.span_name[idx]]
            inclusive[name] += dur
            own[name] += dur - child[idx]
            parent = self.span_parent[idx]
            if parent >= 0:
                child[parent] += dur
                if self.span_name[idx] == bi and self.span_name[parent] == enum:
                    candidates += 1
        return own, inclusive, candidates


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-round layer metrics, keyed by the names in BENCHMARK.json."""
    own, inclusive, candidates = tracer.totals()
    calls, errors, work = tracer.calls, tracer.errors, tracer.work
    work["graphs.enumerate_multidegrees.candidates"] = candidates
    out: dict[str, float] = {}
    for name in tracer.names:
        out[f"{name}.calls"] = calls[name] / rounds
        out[f"{name}.self_s"] = own[name] / rounds
        out[f"{name}.errors"] = errors[name] / rounds
    for key, amount in work.items():
        out[key] = amount / rounds

    bi = "graphs.basic_inequality"
    out[f"{bi}.ns_per_subcurve"] = 1e9 * _ratio(inclusive[bi], work[f"{bi}.subcurves"])
    en = "graphs.enumerate_multidegrees"
    out[f"{en}.yield"] = _ratio(work[f"{en}.outputs"], work[f"{en}.candidates"])
    out[f"{en}.us_per_output"] = 1e6 * _ratio(inclusive[en], work[f"{en}.outputs"])
    bc = "quasistable.boundary_case"
    out[f"{bc}.us_per_call"] = 1e6 * _ratio(inclusive[bc], calls[bc])
    oc = "quasistable.orbit_closed_check"
    out[f"{oc}.ns_per_subcurve"] = 1e9 * _ratio(inclusive[oc], work[f"{oc}.subcurves"])
    ib = "quasistable.iter_blowup_configs"
    out[f"{ib}.spin_ratio"] = _ratio(work[f"{ib}.yielded"], work[f"{ib}.configs"])
    dc = "spin_locus.decide_spin_component"
    out[f"{dc}.met_ratio"] = _ratio(work[f"{dc}.met"], calls[dc] - errors[dc])
    es = "spin_locus.enumerate_spin_multidegrees"
    out[f"{es}.us_per_output"] = 1e6 * _ratio(inclusive[es], work[f"{es}.outputs"])
    numerics = [n for n in tracer.names if n.startswith("numerics.")]
    out["numerics.calls"] = sum(calls[n] for n in numerics) / rounds
    out["numerics.self_s"] = sum(own[n] for n in numerics) / rounds
    out["numerics.errors"] = sum(errors[n] for n in numerics) / rounds
    return out
