"""Per-layer tracing of shiftmetrics from outside the package.

``Tracer.install`` wraps every public function of each layer module, plus
the few private ones a per-layer metric names, and swaps the wrapper in at
every import site: ``cli``, ``estimators`` and the package ``__init__`` bind
names with ``from ... import``, so patching the defining module alone would
miss their calls.  ``uninstall`` restores the originals.

Calls are aggregated per (layer, function, calling layer) rather than kept
as one span each; a default ``frink`` run makes about half a million ``rho``
calls.  For each key the tracer keeps the call count, the busy time (wall
time inside the outermost activation) and the self time (busy time minus
the time of wrapped calls made from inside it).  Hooks add the work counts
and the per-operation distinct-input sets behind the ``dup_ratio`` metrics.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "shiftmetrics"
LAYERS = ("shiftspace", "metrics", "cylinders", "measures", "estimators", "cli")
#: private functions that a per-layer metric names
PRIVATE = {"measures": ("_pq_cover_log_count",)}
#: classmethods wrapped on their class
CLASSMETHODS = {"metrics": ("FiniteSample", ("from_points",))}
#: the window arithmetic functions summed into ``cylinders.window``
WINDOW_FUNCTIONS = ("ball_window", "bowen_window", "neutralized_window", "alpha_window")
#: calling layer recorded for calls made by the benchmark itself
OUTSIDE = "bench"
#: marker attribute set on every wrapper
MARK = "_perfbench_wrapper"


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _hook_count_words(t, args, kwargs, result, caller):
    t.see("shiftspace.count_words", (_arg(args, kwargs, 0, "space"), _arg(args, kwargs, 1, "length")))


def _hook_sample_point(t, args, kwargs, result, caller):
    t.counters["shiftspace.sample_point.symbols"] += len(result.symbols)
    key = tuple(_arg(args, kwargs, i, n) for i, n in enumerate(("space", "horizon", "seed")))
    t.see("shiftspace.sample_point", key)


def _hook_sample_typical(t, args, kwargs, result, caller):
    t.counters["measures.sample_typical.symbols"] += len(result.symbols)
    names = ("mu", "horizon", "seed", "space")
    t.see("measures.sample_typical", tuple(_arg(args, kwargs, i, n) for i, n in enumerate(names)))


def _hook_cover(t, args, kwargs, result, caller):
    names = ("mu", "length", "delta", "node_budget")
    t.see("measures.cover", tuple(_arg(args, kwargs, i, n) for i, n in enumerate(names)))


def _hook_spectrum(t, args, kwargs, result, caller):
    if caller == "minimal_cover_log_count" and result is not None:
        t.counters["measures.cover.spectrum"] += 1
        t.counters["measures.cover.spectrum_classes"] += len(result[0])


def _hook_enumeration(t, args, kwargs, result, caller):
    if caller == "minimal_cover_log_count":
        t.counters["measures.cover.enumeration"] += 1
        t.counters["measures.cover.enumerated_words"] += len(result)


def _hook_prefix(t, args, kwargs, result, caller):
    t.counters["measures.cover.prefix"] += 1


def _hook_from_points(t, args, kwargs, result, caller):
    n = len(result)
    t.counters["metrics.from_points.pairs"] += n * (n - 1) // 2


def _hook_frink(t, args, kwargs, result, caller):
    t.counters["metrics.frink_metrize.n3"] += len(result) ** 3


def _hook_hyperbolicity(t, args, kwargs, result, caller):
    t.counters["metrics.verify_hyperbolicity.pairs"] += result.pairs_checked


def _hook_average(t, args, kwargs, result, caller):
    t.counters["estimators.average_over_typical.points"] += _arg(args, kwargs, 3, "n_points", 100)


def _hook_per_point(t, args, kwargs, result, caller):
    t.counters["estimators.per_point.calls"] += 1


def _hook_alpha(t, args, kwargs, result, caller):
    if _arg(args, kwargs, 5, "x") is not None:
        t.counters["estimators.per_point.calls"] += 1


def _hook_emit(t, args, kwargs, result, caller):
    t.counters["cli.report_bytes"] += len(result.encode("utf-8"))


HOOKS = {
    ("shiftspace", "count_words"): _hook_count_words,
    ("shiftspace", "sample_point"): _hook_sample_point,
    ("measures", "sample_typical"): _hook_sample_typical,
    ("measures", "minimal_cover_log_count"): _hook_cover,
    ("measures", "log_mass_spectrum"): _hook_spectrum,
    ("measures", "enumerate_log_masses"): _hook_enumeration,
    ("measures", "_pq_cover_log_count"): _hook_prefix,
    ("metrics", "from_points"): _hook_from_points,
    ("metrics", "frink_metrize"): _hook_frink,
    ("metrics", "verify_hyperbolicity"): _hook_hyperbolicity,
    ("estimators", "average_over_typical"): _hook_average,
    ("estimators", "pointwise_dimension"): _hook_per_point,
    ("estimators", "brin_katok_local"): _hook_per_point,
    ("estimators", "neutralized_brin_katok"): _hook_per_point,
    ("estimators", "alpha_estimation_entropy"): _hook_alpha,
    ("cli", "emit_table"): _hook_emit,
}


def _package_modules():
    return [
        (name, mod)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def wrapped_functions() -> list[str]:
    """Where a tracer wrapper is currently bound in the package (empty when off)."""
    found = set()
    for mod_name, mod in _package_modules():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and getattr(obj, MARK, False):
                found.add(f"{mod_name}.{attr}")
            elif inspect.isclass(obj):
                for meth, raw in vars(obj).items():
                    if isinstance(raw, classmethod) and getattr(raw.__func__, MARK, False):
                        found.add(f"{obj.__module__}.{obj.__qualname__}.{meth}")
    return sorted(found)


class Tracer:
    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [function name, layer, child seconds]
        #: (layer, function, calling layer) -> [calls, busy seconds, self seconds]
        self.stats: dict[tuple[str, str, str], list] = {}
        self.counters: dict[str, float] = defaultdict(float)
        #: calls and distinct inputs per hooked function, summed over operations
        self.dup_calls: dict[str, int] = defaultdict(int)
        self.dup_distinct: dict[str, int] = defaultdict(int)
        self._seen: dict[str, set] = defaultdict(set)

    # -- recording ---------------------------------------------------------

    def see(self, name: str, key) -> None:
        self.dup_calls[name] += 1
        self._seen[name].add(key)

    def end_op(self) -> None:
        """Close the distinct-input window of one operation."""
        for name, keys in self._seen.items():
            self.dup_distinct[name] += len(keys)
        self._seen.clear()

    def _wrap(self, layer: str, name: str, fn):
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter
        hook = HOOKS.get((layer, name))
        active = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller_layer, caller = (stack[-1][1], stack[-1][0]) if stack else (OUTSIDE, None)
            frame = [name, layer, 0.0]
            stack.append(frame)
            active[0] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                active[0] -= 1
                stack.pop()
                if stack:
                    stack[-1][2] += dt
                key = (layer, name, caller_layer)
                st = stats.get(key)
                if st is None:
                    st = stats[key] = [0, 0.0, 0.0]
                st[0] += 1
                if not active[0]:
                    st[1] += dt
                st[2] += dt - frame[2]
            if hook is not None:
                hook(self, args, kwargs, result, caller)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id(original function) -> its wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            extra = PRIVATE.get(layer, ())
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and (not name.startswith("_") or name in extra)
                ):
                    wrappers[id(obj)] = self._wrap(layer, name, obj)
            if layer in CLASSMETHODS:
                cls_name, methods = CLASSMETHODS[layer]
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    setattr(cls, meth, classmethod(self._wrap(layer, meth, raw.__func__)))
                    self._patches.append((cls, meth, raw))
        for _, mod in _package_modules():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, obj))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def _sum(self, layer: str, functions, column: int) -> float:
        return float(
            sum(st[column] for (ly, fn, _), st in self.stats.items() if ly == layer and fn in functions)
        )

    def _layer_self(self, layer: str) -> float:
        return float(sum(st[2] for (ly, _, _), st in self.stats.items() if ly == layer))

    def _dup_ratio(self, name: str) -> float:
        distinct = self.dup_distinct.get(name, 0)
        return self.dup_calls[name] / distinct if distinct else 0.0

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics named ``<layer>.<function>.<stat>``."""
        calls = lambda layer, *fns: self._sum(layer, fns, 0)
        busy = lambda layer, *fns: self._sum(layer, fns, 1)
        c = self.counters
        return {
            "shiftspace.count_words.calls": calls("shiftspace", "count_words"),
            "shiftspace.count_words.busy_s": busy("shiftspace", "count_words"),
            "shiftspace.count_words.dup_ratio": self._dup_ratio("shiftspace.count_words"),
            "shiftspace.sample_point.calls": calls("shiftspace", "sample_point"),
            "shiftspace.sample_point.symbols": c["shiftspace.sample_point.symbols"],
            "shiftspace.sample_point.busy_s": busy("shiftspace", "sample_point"),
            "shiftspace.sample_point.dup_ratio": self._dup_ratio("shiftspace.sample_point"),
            "shiftspace.self_s": self._layer_self("shiftspace"),
            "metrics.rho.calls": calls("metrics", "rho"),
            "metrics.rho.busy_s": busy("metrics", "rho"),
            "metrics.from_points.pairs": c["metrics.from_points.pairs"],
            "metrics.from_points.busy_s": busy("metrics", "from_points"),
            "metrics.check_quasi_metric.busy_s": busy("metrics", "check_quasi_metric"),
            "metrics.frink_metrize.busy_s": busy("metrics", "frink_metrize"),
            "metrics.frink_metrize.n3": c["metrics.frink_metrize.n3"],
            "metrics.verify_hyperbolicity.pairs": c["metrics.verify_hyperbolicity.pairs"],
            "metrics.verify_hyperbolicity.busy_s": busy("metrics", "verify_hyperbolicity"),
            "metrics.self_s": self._layer_self("metrics"),
            "cylinders.window.calls": calls("cylinders", *WINDOW_FUNCTIONS),
            "cylinders.window.busy_s": busy("cylinders", *WINDOW_FUNCTIONS),
            "cylinders.alpha_window.busy_s": busy("cylinders", "alpha_window"),
            "cylinders.self_s": self._layer_self("cylinders"),
            "measures.sample_typical.calls": calls("measures", "sample_typical"),
            "measures.sample_typical.symbols": c["measures.sample_typical.symbols"],
            "measures.sample_typical.busy_s": busy("measures", "sample_typical"),
            "measures.sample_typical.dup_ratio": self._dup_ratio("measures.sample_typical"),
            "measures.log_word_mass.calls": calls("measures", "log_word_mass"),
            "measures.log_word_mass.busy_s": busy("measures", "log_word_mass"),
            "measures.cover.calls": calls("measures", "minimal_cover_log_count"),
            "measures.cover.busy_s": busy("measures", "minimal_cover_log_count"),
            "measures.cover.dup_ratio": self._dup_ratio("measures.cover"),
            "measures.cover.spectrum": c["measures.cover.spectrum"],
            "measures.cover.enumeration": c["measures.cover.enumeration"],
            "measures.cover.prefix": c["measures.cover.prefix"],
            "measures.cover.spectrum_classes": c["measures.cover.spectrum_classes"],
            "measures.cover.enumerated_words": c["measures.cover.enumerated_words"],
            "measures.self_s": self._layer_self("measures"),
            "estimators.per_point.calls": c["estimators.per_point.calls"],
            "estimators.average_over_typical.points": c["estimators.average_over_typical.points"],
            "estimators.average_over_typical.busy_s": busy("estimators", "average_over_typical"),
            "estimators.self_s": self._layer_self("estimators"),
            "cli.run.self_s": self._sum("cli", ("run",), 2),
            "cli.emit_table.busy_s": busy("cli", "emit_table"),
            "cli.report_bytes": c["cli.report_bytes"],
            "cli.self_s": self._layer_self("cli"),
        }

    def table(self) -> list[dict]:
        """The raw aggregate, one row per (layer, function, calling layer)."""
        return [
            {"layer": ly, "function": fn, "caller": caller, "calls": st[0], "busy_s": st[1], "self_s": st[2]}
            for (ly, fn, caller), st in sorted(self.stats.items())
        ]
