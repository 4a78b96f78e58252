"""In-process layer tracer for the wres modules.

The tracer wraps the public functions and methods of each engine module
from outside: it never edits `src/`.  Every wrapped name is replaced
wherever it is bound, so a function that another module imported by
name (`boundary.py` imports `integrate_real_line`, `cli.py` imports
`boundary_phi`, the package re-exports nearly everything) is traced on
every path.

Each call is charged to one key (`<layer>.<qualname>`, or the declared
alias in NAMED) and one layer, the module it was defined in.  Per key
the tracer keeps a call count and the inclusive time of outermost calls;
per layer it keeps inclusive time and self time, the time spent in the
layer's own calls minus the time of their traced children.  Cheap, hot
callables (the `Poly` operators are called about a million times on the
largest workload) are counters only; coarse ones also record a span
with its parent span and the command it belongs to.  Spans stay in
memory until `spans()` is read at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types

LAYERS = (
    "exact",
    "clifford",
    "rational",
    "jets",
    "interior",
    "boundary",
    "baselines",
    "numcheck",
    "cli",
)

# Declared metric keys: alias -> qualified name inside the layer's module.
NAMED = {
    "exact.poly_mul": "Poly.__mul__",
    "exact.poly_add": "Poly.__add__",
    "exact.sphere_normal_form": "sphere_normal_form",
    "clifford.matmul": "CliffordOp.__matmul__",
    "interior.curvature_term": "curvature_term",
    "rational.canon": "RationalXi.__init__",
    "rational.matmul": "MatrixSymbol.__matmul__",
    "rational.pi_plus": "pi_plus",
    "rational.line_integral": "integrate_real_line",
    "rational.sphere_integrate": "sphere_integrate",
    "jets.inverse_symbols": "inverse_symbols",
    "boundary.evaluate_case": "evaluate_case",
    "numcheck.fiber_build": "NumericFiber.__init__",
    "numcheck.pole_expansion": "PoleExpansion.__init__",
    "numcheck.line_quad": "line_quad",
    "cli.emit": "emit_report",
}

# Quadrature integrand evaluations, counted through the `quad` that
# numcheck looks up (see Tracer._hook_quad).
POLE_EVAL = "numcheck.pole_eval"

# Keys whose argument tuples are remembered to measure memo usefulness.
REPEAT_TRACKED = ("jets.inverse_symbols",)

# Never wrapped: exact scalars and trivial constructors or accessors that
# run hundreds of thousands of times.  Their time shows as the caller's
# self time.
SKIP = {
    "exact": {
        "GaussianRational",
        "Poly.of",
        "Poly.zero",
        "Poly.const",
        "Poly.gen",
        "Poly.constant_part",
        "Poly.__init__",
    },
    "rational": {"RationalXi.zero", "RationalXi.const"},
}

# Methods with a leading underscore that are still traced.
DUNDERS = {
    "__init__",
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__neg__",
    "__mul__",
    "__rmul__",
    "__matmul__",
    "__pow__",
}

# Keys called often enough that a span per call would cost more than the
# work; they are aggregated as counters only.
COUNTER_ONLY_LAYERS = {"exact"}
COUNTER_ONLY_KEYS = {
    "rational.canon",
    "rational.pi_plus",
    "rational.RationalXi.__add__",
    "rational.RationalXi.__sub__",
    "rational.RationalXi.__neg__",
    "rational.RationalXi.__mul__",
    "rational.RationalXi.scale",
    "rational.RationalXi.d_xi_n",
    "rational.RationalXi.map_coeffs",
    "rational.pi_minus",
    "clifford.CliffordOp.__init__",
    "clifford.CliffordOp.__add__",
    "clifford.CliffordOp.__sub__",
    "clifford.CliffordOp.__neg__",
    "clifford.CliffordOp.scale",
    "clifford.build_generator",
    "numcheck.NumericFiber.p1",
    "numcheck.NumericFiber.p1_dxn",
    "numcheck.NumericFiber.p1_dxi",
    "numcheck.PoleExpansion.eval",
    "numcheck.PoleExpansion.eval_plus",
    POLE_EVAL,
}


_FUNCTIONS = (types.FunctionType, functools._lru_cache_wrapper)


def _engine_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "wres" or name.startswith("wres."))
    ]


class Tracer:
    """Wraps the engine once; counts and times every traced call."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._origin = clock()
        self.keys: list[str] = []
        self._key_index: dict[str, int] = {}
        self.calls: list[int] = []
        self.incl: list[float] = []
        self._depth: list[int] = []
        self.layer_self = [0.0] * len(LAYERS)
        self.layer_incl = [0.0] * len(LAYERS)
        self._layer_depth = [0] * len(LAYERS)
        self._stack = [0.0]  # child time of each open traced call; [0] is the root
        self._span_stack = [None]
        self._spans: list[tuple] = []
        self._command: int | None = None
        self._seen: dict[str, tuple[set, list]] = {}

    # -- bookkeeping --------------------------------------------------

    def _key(self, name: str) -> int:
        idx = self._key_index.get(name)
        if idx is None:
            idx = len(self.keys)
            self._key_index[name] = idx
            self.keys.append(name)
            self.calls.append(0)
            self.incl.append(0.0)
            self._depth.append(0)
        return idx

    def set_command(self, command_id: int | None) -> None:
        """Tag the spans recorded from now on with this command id."""
        self._command = command_id

    def _wrap(self, fn, key: str, layer: str):
        kid = self._key(key)
        lid = LAYERS.index(layer)
        calls, incl, depth = self.calls, self.incl, self._depth
        lself, lincl, ldepth = self.layer_self, self.layer_incl, self._layer_depth
        stack = self._stack
        clock = self._clock
        span = key.split(".", 1)[0] not in COUNTER_ONLY_LAYERS and (
            key not in COUNTER_ONLY_KEYS
        )
        repeats = None
        if key in REPEAT_TRACKED:
            repeats = self._seen.setdefault(key, (set(), [0]))
            signature = inspect.signature(fn)
        spans, span_stack = self._spans, self._span_stack
        tracer = self

        def wrapper(*args, **kwargs):
            calls[kid] += 1
            if repeats is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arg_key = tuple(bound.arguments.items())
                if arg_key in repeats[0]:
                    repeats[1][0] += 1
                else:
                    repeats[0].add(arg_key)
            d = depth[kid]
            depth[kid] = d + 1
            ld = ldepth[lid]
            ldepth[lid] = ld + 1
            if span:
                sid = len(spans)
                spans.append(None)
                parent = span_stack[-1]
                span_stack.append(sid)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                lself[lid] += dt - child
                depth[kid] = d
                ldepth[lid] = ld
                if not d:
                    incl[kid] += dt
                if not ld:
                    lincl[lid] += dt
                if span:
                    span_stack.pop()
                    spans[sid] = (kid, parent, tracer._command, t0, dt, child)

        functools.update_wrapper(wrapper, fn)
        return wrapper

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every traced callable of every loaded wres module."""
        modules = _engine_modules()
        aliases = {(alias.split(".")[0], qual): alias for alias, qual in NAMED.items()}
        replaced: dict[int, object] = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            skip = SKIP.get(layer, set())
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or name in skip:
                    continue
                if isinstance(obj, _FUNCTIONS) and _defined_in(obj, mod):
                    key = aliases.get((layer, name), f"{layer}.{name}")
                    replaced[id(obj)] = (obj, self._wrap(obj, key, layer))
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    if issubclass(obj, BaseException):
                        continue
                    self._wrap_class(obj, layer, skip, aliases)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
        self._hook_quad()
        self._hook_cli_json()
        missing = [key for key in NAMED if key not in self._key_index]
        if missing:
            raise RuntimeError(f"declared spans not bound: {missing}")

    def _wrap_class(self, cls, layer: str, skip: set, aliases: dict) -> None:
        generated_init = hasattr(cls, "__dataclass_fields__")
        wrapped: dict[int, object] = {}
        for name, raw in list(vars(cls).items()):
            qual = f"{cls.__name__}.{name}"
            if qual in skip:
                continue
            if name.startswith("_") and name not in DUNDERS:
                continue
            if name == "__init__" and generated_init:
                continue
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            if not isinstance(fn, types.FunctionType):
                continue
            if id(fn) not in wrapped:
                key = aliases.get((layer, qual), f"{layer}.{qual}")
                wrapped[id(fn)] = self._wrap(fn, key, layer)
            new = wrapped[id(fn)]
            setattr(cls, name, staticmethod(new) if static else new)

    def _hook_quad(self) -> None:
        """Count integrand evaluations of every quadrature numcheck runs."""
        numcheck = sys.modules.get("wres.numcheck")
        if numcheck is None:
            return
        real_quad = numcheck.quad
        wrap = self._wrap

        def quad(func, *args, **kwargs):
            return real_quad(wrap(func, POLE_EVAL, "numcheck"), *args, **kwargs)

        numcheck.quad = quad

    def _hook_cli_json(self) -> None:
        """Count the JSON that cli serializes inline as emission time."""
        cli = sys.modules.get("wres.cli")
        if cli is None:
            return
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(json))
        proxy.dumps = self._wrap(json.dumps, "cli.emit", "cli")
        cli.json = proxy

    # -- results ------------------------------------------------------

    def repeat_ratio(self, key: str) -> float:
        """Share of calls to key whose arguments were seen before."""
        seen = self._seen.get(key)
        if seen is None or not self.calls[self._key_index[key]]:
            return 0.0
        return seen[1][0] / self.calls[self._key_index[key]]

    def spans(self) -> list[dict]:
        """Every recorded span, in start order, with parent and command."""
        out = []
        for sid, (kid, parent, command, t0, dt, child) in enumerate(self._spans):
            out.append(
                {
                    "id": sid,
                    "name": self.keys[kid],
                    "parent": parent,
                    "command": command,
                    "start": t0 - self._origin,
                    "dur_s": dt,
                    "self_s": dt - child,
                }
            )
        return out

    def summary(self) -> dict:
        """Per-key and per-layer aggregates, as plain JSON data."""
        return {
            "keys": {
                key: {"calls": self.calls[i], "s": self.incl[i]}
                for i, key in enumerate(self.keys)
            },
            "layers": {
                layer: {"s": self.layer_incl[i], "self_s": self.layer_self[i]}
                for i, layer in enumerate(LAYERS)
            },
            "repeat_ratio": {key: self.repeat_ratio(key) for key in REPEAT_TRACKED},
        }


def _defined_in(obj, mod) -> bool:
    target = getattr(obj, "__wrapped__", obj)
    return getattr(target, "__module__", None) == mod.__name__
