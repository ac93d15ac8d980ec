"""Outside-in layer tracer for the kk6 benchmark.

The tracer wraps the public functions of every ``kk6`` module (and
``Metric6.upper``) from outside the package, then rebinds every ``kk6.*``
module attribute, and every module-level dict value, that still holds one of
the original function objects.  Modules such as ``verify``, ``curvature``
and ``ansatz`` import ``simplify``, ``diff`` and ``mul`` by name, so
patching ``kk6.expr`` alone would silently miss their calls;
``stale_references`` proves after installation that no original is left.

Each call through a wrapper pushes a frame on one stack.  When it returns,
its duration minus the time covered by its child frames is its self time.
Calls into ``kk6.expr`` (the kernel, about a million calls per claim suite)
are aggregated into per-function counts and times; calls into every other
layer are also stored as spans ``(name, start, end, parent, op)``, kept in
memory and written out once at the end.  Cyclic garbage collections that
run inside a kk6 call are a layer of their own (``gc.collect``, through
``gc.callbacks``), so their pauses are not charged to whichever kk6
function happened to trigger them.
"""
from __future__ import annotations

import functools
import gc
import inspect
import json
import sys
import time

# modules whose public (``__all__``) functions are layer boundaries
LAYERS = ("expr", "parse", "tensor", "curvature", "ansatz", "zeros",
          "oracle", "dynamics", "verify", "report", "cli")
# expression constructors: ``expr.built`` is the sum of their calls
CONSTRUCTORS = ("add", "mul", "power", "exp", "sqrt", "conj")
_MISSING = object()


def _kk6_namespaces():
    """``(qualified name, mapping)`` for every kk6 module namespace and every
    module-level dict in one (``cli._RUNNERS``, ``parse._FUNCTIONS``...)."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "kk6" or modname.startswith("kk6.")):
            continue
        ns = vars(mod)
        yield modname, ns
        for attr, value in list(ns.items()):
            if isinstance(value, dict) and not attr.startswith("__"):
                yield f"{modname}.{attr}", value


class Tracer:
    """Span recorder and aggregator; one per traced process."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stack: list[list] = []     # [child_time, span index or -1]
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.depth: dict[str, int] = {}
        self.spans: list[list] = []     # [name, start, end, parent, op]
        self.op: str | None = None
        self.covered = 0.0              # summed time of outermost frames
        self.built_distinct: set = set()
        self.exp_distinct: set = set()
        self.simplify_terms = 0
        self.simplify_zero = 0
        self.zero_nonzero = 0
        self._gc_frame: list | None = None
        self._patched: list[tuple] = []   # (owner, attribute, original)
        self._originals: dict[int, object] = {}

    # -- recording ---------------------------------------------------------
    def _wrap(self, name: str, fn, span: bool, observe=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        self.depth.setdefault(name, 0)
        stack, depth, spans, clock = self.stack, self.depth, self.spans, \
            self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span:
                idx = len(spans)
                parent = next((f[1] for f in reversed(stack) if f[1] >= 0),
                              -1)
                spans.append([name, 0.0, 0.0, parent, self.op])
            else:
                idx = -1
            frame = [0.0, idx]
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[name] -= 1
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur - frame[0]
                if depth[name] == 0:
                    stats[2] += dur
                if stack:
                    stack[-1][0] += dur
                else:
                    self.covered += dur
                if span:
                    spans[idx][1] = t0
                    spans[idx][2] = t1
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _observer(self, layer: str, fname: str):
        if layer != "expr" and not (layer == "zeros" and fname == "is_zero"):
            return None
        if fname in CONSTRUCTORS:
            seen = self.built_distinct
            if fname == "exp":
                exp_seen = self.exp_distinct

                def observe(r):
                    seen.add(r)
                    exp_seen.add(r)
                return observe
            return seen.add
        if fname == "simplify":
            from kk6.expr import Add, ZERO

            def observe(r):
                if isinstance(r, Add):
                    self.simplify_terms += len(r.terms)
                elif r == ZERO:
                    self.simplify_zero += 1
                else:
                    self.simplify_terms += 1
            return observe
        if fname == "is_zero":
            def observe(r):
                if r.verdict == "nonzero":
                    self.zero_nonzero += 1
            return observe
        return None

    def _on_gc(self, phase: str, info: dict) -> None:
        # only collections inside a kk6 call: the rest is the benchmark's
        if phase == "start":
            self._gc_frame = [0.0, -1, self.clock()] if self.stack else None
            if self._gc_frame is not None:
                self.stack.append(self._gc_frame)
            return
        frame, self._gc_frame = self._gc_frame, None
        if frame is None:
            return
        self.stack.pop()
        dur = self.clock() - frame[2]
        st = self.stats.setdefault("gc.collect", [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dur - frame[0]
        st[2] += dur
        self.stack[-1][0] += dur

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        from kk6.tensor import Metric6
        gc.callbacks.append(self._on_gc)
        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"kk6.{layer}"]
            for fname in mod.__all__:
                fn = getattr(mod, fname)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                w = self._wrap(f"{layer}.{fname}", fn, span=layer != "expr",
                               observe=self._observer(layer, fname))
                replace[id(fn)] = w
                self._originals[id(fn)] = fn
        up = Metric6.upper
        replace[id(up)] = self._wrap("tensor.upper", up, span=True)
        self._originals[id(up)] = up
        self._patched.append((Metric6, "upper", up))
        Metric6.upper = replace[id(up)]

        for _, ns in _kk6_namespaces():
            for key, value in list(ns.items()):
                if self._originals.get(id(value), _MISSING) is value:
                    self._patched.append((ns, key, value))
                    ns[key] = replace[id(value)]

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, key, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()

    def stale_references(self) -> list[str]:
        """Names in kk6 namespaces still bound to an unwrapped original."""
        return [f"{where}[{key!r}]" for where, ns in _kk6_namespaces()
                for key, value in ns.items()
                if self._originals.get(id(value), _MISSING) is value]

    # -- results -----------------------------------------------------------
    def self_time_total(self) -> float:
        return sum(s[1] for s in self.stats.values())

    def dump(self, path: str, wall: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"wall_s": wall, "stats": self.stats,
                       "fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


# -- per-layer metrics ---------------------------------------------------------

# deterministic counts: equal across repetitions at one seed
COUNTS = ("expr.simplify.out_terms", "expr.simplify.zero_out",
          "expr.exp.distinct", "expr.built", "expr.distinct_ratio",
          "zeros.samples", "zeros.nonzero")


def is_count(name: str) -> bool:
    return name.endswith(".calls") or name in COUNTS


def layer_metrics(t: Tracer, wall: float) -> dict[str, list]:
    """``{name: [value, unit]}`` for every per-layer metric of one pass."""
    out: dict[str, list] = {}

    def stat(name):
        return t.stats.get(name, [0, 0.0, 0.0])

    def put(name, fields):
        calls, self_s, total_s = stat(name)
        for f in fields:
            out[f"{name}.{f}"] = {"calls": [calls, "count"],
                                  "self_s": [self_s, "s"],
                                  "total_s": [total_s, "s"]}[f]

    put("expr.simplify", ("calls", "self_s"))
    out["expr.simplify.out_terms"] = [t.simplify_terms, "count"]
    out["expr.simplify.zero_out"] = [t.simplify_zero, "count"]
    for f in ("add", "mul", "diff"):
        put(f"expr.{f}", ("calls", "self_s"))
    put("expr.exp", ("calls",))
    out["expr.exp.distinct"] = [len(t.exp_distinct), "count"]
    built = sum(stat(f"expr.{c}")[0] for c in CONSTRUCTORS)
    out["expr.built"] = [built, "count"]
    out["expr.distinct_ratio"] = [len(t.built_distinct) / built if built
                                  else 0.0, "ratio"]
    for f in ("stress_tensor", "fsq", "field_strength", "dirac_metric",
              "gravity_metric"):
        put(f"ansatz.{f}", ("total_s",))
    put("tensor.upper", ("calls", "total_s"))
    put("tensor.adjugate", ("self_s",))
    put("tensor.determinant", ("self_s",))
    put("tensor.identity_residual", ("total_s",))
    put("tensor.verify_claimed_inverse", ("total_s",))
    for f in ("christoffel", "ricci", "ricci_scalar", "einstein"):
        put(f"curvature.{f}", ("calls", "total_s", "self_s"))
    put("zeros.is_zero", ("calls", "self_s"))
    out["zeros.samples"] = [stat("zeros.scaled_eval")[0], "count"]
    out["zeros.nonzero"] = [t.zero_nonzero, "count"]
    put("oracle.einstein_fd", ("calls", "self_s"))
    put("oracle.compile_expr", ("calls",))
    for f in ("integrate", "two_path_fringes", "interval_along"):
        put(f"dynamics.{f}", ("self_s",))
    put("dynamics.connection_evaluator", ("total_s",))
    put("report.to_json", ("self_s",))
    out["gc.collections"] = [stat("gc.collect")[0], "count"]
    put("gc.collect", ("self_s",))
    out["trace.outside_s"] = [wall - t.covered, "s"]
    return out
