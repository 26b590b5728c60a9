"""Layer tracing from outside the program.

``Tracer`` wraps the public functions of each ``qmoments`` layer module by
replacing module attributes at run time, and restores them afterwards.  A
name that another module imported directly (``suites.sample_points``,
``qmoments.run_suite``) is rebound too, and so is a module's own global, so
calls inside a module (``qbinom`` -> ``pochhammer``) are seen as well.

Every wrapped call is one span: the function, its parent span, the time it
entered, the time its work ended, and the time the wrapper finished its own
bookkeeping.  Spans are kept in flat in-memory arrays and written out by
``write_spans``.  A layer's self time is the sum over its spans of the span's
duration minus the wrapper-to-wrapper intervals of its child spans, so the
tracer's own bookkeeping is charged to no layer.

Counters are exact functions of the inputs: call counts per layer and per
function, distinct argument keys for ``qbinom`` and the recurrence
coefficients, moment-table rows built against rows needed, and the largest
numerator-plus-denominator bit length among a layer's results.
"""

from __future__ import annotations

import dataclasses
import gzip
import inspect
import sys
import time
from array import array
from fractions import Fraction

OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__")
# (layer, module, {class name: methods wrapped besides the module's functions})
LAYERS = (
    ("qseries", "qmoments.qseries", {}),
    ("recurrence", "qmoments.recurrence", {}),
    ("moments", "qmoments.moments", {}),
    ("hankel", "qmoments.hankel", {}),
    ("expansion", "qmoments.expansion", {}),
    (
        "polynomials",
        "qmoments.polynomials",
        {"Polynomial": OPERATORS, "LaurentPolynomial": OPERATORS},
    ),
    ("qhermite", "qmoments.qhermite", {}),
    ("degrees", "qmoments.degrees", {}),
    ("sampling", "qmoments.sampling", {"SplitMix64": ("next_u64", "randint")}),
    ("suites", "qmoments.suites", {}),
)
BITS_LAYERS = ("qseries", "recurrence", "moments", "hankel")


def bits(value) -> int:
    """Largest numerator + denominator bit length found in a result."""
    if isinstance(value, Fraction):
        return value.numerator.bit_length() + value.denominator.bit_length()
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, (tuple, list)):
        return max(map(bits, value), default=0)
    if isinstance(value, dict):
        return max(map(bits, value.values()), default=0)
    coeffs = getattr(value, "coeffs", None)
    if coeffs is not None:
        return bits(coeffs)
    if dataclasses.is_dataclass(value):
        return max(
            (bits(getattr(value, f.name)) for f in dataclasses.fields(value)),
            default=0,
        )
    return 0


def _layer_functions(module, classes):
    """(owner, attribute name, function) for every function the layer exposes."""
    out = []
    for name, obj in sorted(vars(module).items()):
        if (
            not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
        ):
            out.append((module, name, obj))
    for cls_name, methods in classes.items():
        cls = getattr(module, cls_name)
        for method in methods:
            if method in vars(cls):
                out.append((cls, method, vars(cls)[method]))
    return out


class Tracer:
    """Spans and counters for one traced pass; install with ``with tracer:``."""

    def __init__(self) -> None:
        self.fn_names: list[str] = []
        self.fn_layers: list[str] = []
        self.parents = array("l")
        self.fns = array("H")
        self.t0 = array("d")
        self.t1 = array("d")
        self.tb = array("d")
        self.qbinom_keys: set = set()
        self.coeff_keys: set = set()
        self.coeff_calls = 0
        self.rows_built = 0
        self.rows_needed: dict = {}
        self.max_bits = {layer: 0 for layer in BITS_LAYERS}
        self._stack = [-1]
        self._saved: list = []

    # -- observers: called after a span's work has ended ---------------------

    def _observer(self, layer: str, qualname: str):
        track_bits = layer in BITS_LAYERS
        max_bits = self.max_bits

        def record_bits(result):
            b = bits(result)
            if b > max_bits[layer]:
                max_bits[layer] = b

        if qualname == "qseries.qbinom":
            keys = self.qbinom_keys

            def observe(args, kwargs, result):
                keys.add((args, tuple(sorted(kwargs.items()))))
                record_bits(result)

            return observe
        if qualname in ("recurrence.coeff_b", "recurrence.coeff_lambda"):
            keys = self.coeff_keys

            def observe(args, kwargs, result):
                self.coeff_calls += 1
                keys.add((qualname, args, tuple(sorted(kwargs.items()))))
                record_bits(result)

            return observe
        if qualname == "moments.moment_table":
            needed = self.rows_needed

            def observe(args, kwargs, result):
                rows = result.upto + 1
                self.rows_built += rows
                point = args[1] if len(args) > 1 else kwargs["point"]
                needed[point] = max(needed.get(point, 0), rows)
                record_bits(result)

            return observe
        if track_bits:
            return lambda args, kwargs, result: record_bits(result)
        return None

    def _wrap(self, fn, fn_id: int, observe):
        parents, fns, t0s, t1s, tbs = self.parents, self.fns, self.t0, self.t1, self.tb
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(fns)
            parents.append(stack[-1])
            fns.append(fn_id)
            stack.append(idx)
            t0s.append(0.0)
            t1s.append(0.0)
            tbs.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                t0s[idx] = t0
                t1s[idx] = t1
                tbs[idx] = t1
            if observe is not None:
                observe(args, kwargs, result)
                tbs[idx] = clock()
            return result

        return wrapper

    # -- install / restore ----------------------------------------------------

    def __enter__(self) -> "Tracer":
        originals: dict[int, object] = {}
        for layer, module_name, classes in LAYERS:
            module = sys.modules[module_name]
            for owner, name, fn in _layer_functions(module, classes):
                if owner is module:
                    qualname = f"{layer}.{name}"
                else:
                    qualname = f"{layer}.{owner.__name__}.{name}"
                fn_id = len(self.fn_names)
                self.fn_names.append(qualname)
                self.fn_layers.append(layer)
                wrapper = self._wrap(fn, fn_id, self._observer(layer, qualname))
                self._saved.append((owner, name, fn))
                setattr(owner, name, wrapper)
                originals[id(fn)] = wrapper
        # Rebind names other modules imported directly.
        for module_name, module in list(sys.modules.items()):
            if module_name != "qmoments" and not module_name.startswith("qmoments."):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._saved.append((module, name, obj))
                    setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()

    # -- results --------------------------------------------------------------

    def layer_times(self) -> dict[str, float]:
        """Self time per layer, from the parent links of the spans."""
        n = len(self.fns)
        child = [0.0] * n
        parents, t0s, t1s, tbs = self.parents, self.t0, self.t1, self.tb
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += tbs[i] - t0s[i]
        own = {layer: 0.0 for layer, _, _ in LAYERS}
        layer_of = self.fn_layers
        fns = self.fns
        for i in range(n):
            own[layer_of[fns[i]]] += t1s[i] - t0s[i] - child[i]
        return own

    def counters(self) -> dict[str, int]:
        """Exact counts; each ratio appears with its numerator and denominator."""
        per_fn = [0] * len(self.fn_names)
        for f in self.fns:
            per_fn[f] += 1
        calls = {layer: 0 for layer, _, _ in LAYERS}
        by_name = {}
        for fn_id, count in enumerate(per_fn):
            calls[self.fn_layers[fn_id]] += count
            by_name[self.fn_names[fn_id]] = count
        out = {f"{layer}.calls": count for layer, count in calls.items()}
        out["qseries.qbinom.calls"] = by_name["qseries.qbinom"]
        out["qseries.qbinom.distinct"] = len(self.qbinom_keys)
        out["qseries.pochhammer.calls"] = by_name["qseries.pochhammer"]
        out["recurrence.coeff.calls"] = self.coeff_calls
        out["recurrence.coeff.distinct"] = len(self.coeff_keys)
        out["moments.moment_table.rows"] = self.rows_built
        out["moments.moment_table.useful_rows"] = sum(self.rows_needed.values())
        out["hankel.exact_determinant.calls"] = by_name["hankel.exact_determinant"]
        for layer, value in self.max_bits.items():
            out[f"{layer}.max_bits"] = value
        return out

    def write_spans(self, path) -> None:
        """One line per span: id, parent, function, start, end, wrapper end (us)."""
        base = self.t0[0] if len(self.t0) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tfunction\tstart_us\tend_us\twrapper_end_us\n")
            names = self.fn_names
            for i in range(len(self.fns)):
                out.write(
                    f"{i}\t{self.parents[i]}\t{names[self.fns[i]]}\t"
                    f"{(self.t0[i] - base) * 1e6:.1f}\t{(self.t1[i] - base) * 1e6:.1f}\t"
                    f"{(self.tb[i] - base) * 1e6:.1f}\n"
                )
