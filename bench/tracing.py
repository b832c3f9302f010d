"""Per-layer tracing from outside the program.

The tracer replaces each traced public function, at every ``weilzeta.*``
module binding of that function object, with a wrapper that records a
span (name, start, end, parent span, request id).  Spans stay in memory
and are written out when the run ends; self time, totals, counts and
ratios are derived from them afterwards.  Hot helpers (``kronecker``,
``_poly_mulmod``, the ``FiniteField`` methods) are deliberately not
wrapped.  A traced function that a later commit renames or removes is
reported as absent, not as an error.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types

# module -> traced functions; None means every public function of the module
TRACED = {
    "ff_zeta": ("count_points", "make_field", "zeta_curve", "verify_ff", "prime_power", "is_prime"),
    "lfunc": ("l_at_0", "l_prime_at_0", "dedekind_leading_at_0"),
    "number_field": (
        "quad_invariants", "class_number_real", "class_number_imaginary",
        "fundamental_unit_real", "is_fundamental",
    ),
    "cli": ("run",),
    "reports": ("emit_report", "load_report"),
    "weil_tables": None,
    "motivic_rank": None,
    "fgab": ("smith_normal_form",),
}
# functions whose arguments (and, for l_at_0, result) the derived stats need
KEEP_ARGS = {"ff_zeta.count_points", "ff_zeta.make_field", "lfunc.l_at_0",
             "lfunc.l_prime_at_0", "number_field.fundamental_unit_real"}

# (name, unit, better): every per-layer metric a traced run reports
PER_LAYER = (
    ("ff_zeta.count_points.calls", "count", "lower"),
    ("ff_zeta.count_points.s", "s", "lower"),
    ("ff_zeta.count_points.cold_s", "s", "lower"),
    ("ff_zeta.count_points.warm_s", "s", "lower"),
    ("ff_zeta.count_points.unique_ratio", "ratio", "higher"),
    ("ff_zeta.count_points.ns_per_element", "ns", "lower"),
    ("ff_zeta.make_field.s", "s", "lower"),
    ("ff_zeta.make_field.distinct_ratio", "ratio", "higher"),
    ("ff_zeta.zeta_curve.self_s", "s", "lower"),
    ("ff_zeta.verify_ff.self_s", "s", "lower"),
    ("ff_zeta.prime_power.s", "s", "lower"),
    ("ff_zeta.is_prime.calls", "count", "lower"),
    ("ff_zeta.is_prime.s", "s", "lower"),
    ("lfunc.l_at_0.s", "s", "lower"),
    ("lfunc.l_at_0.us_per_term", "us", "lower"),
    ("lfunc.l_at_0.useful_ratio", "ratio", "higher"),
    ("lfunc.l_prime_at_0.s", "s", "lower"),
    ("lfunc.l_prime_at_0.us_per_term", "us", "lower"),
    ("lfunc.dedekind_leading_at_0.self_s", "s", "lower"),
    ("number_field.quad_invariants.s", "s", "lower"),
    ("number_field.class_number_real.self_s", "s", "lower"),
    ("number_field.class_number_imaginary.self_s", "s", "lower"),
    ("number_field.fundamental_unit_real.s", "s", "lower"),
    ("number_field.fundamental_unit_real.calls_per_real_field", "count", "lower"),
    ("number_field.is_fundamental.calls", "count", "lower"),
    ("number_field.is_fundamental.s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("reports.emit_report.s", "s", "lower"),
    ("reports.load_report.s", "s", "lower"),
    ("weil_tables.s", "s", "lower"),
    ("motivic_rank.s", "s", "lower"),
    ("fgab.smith_normal_form.calls", "count", "lower"),
    ("fgab.smith_normal_form.s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class Tracer:
    """Install with ``with Tracer() as t:``; leaving the block restores
    every binding the tracer replaced."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, request, args, result]
        self.request = None  # id stamped on new spans; None during set-up
        self.traced = set()  # "module.function" names that were found
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def __enter__(self):
        modules = {n: m for n, m in sys.modules.items()
                   if n == "weilzeta" or n.startswith("weilzeta.")}
        for short, names in TRACED.items():
            mod = modules.get(f"weilzeta.{short}")
            if mod is None:
                continue
            if names is None:
                names = [n for n, f in vars(mod).items()
                         if isinstance(f, types.FunctionType) and not n.startswith("_")
                         and f.__module__ == mod.__name__]
            for name in names:
                fn = getattr(mod, name, None)
                if not isinstance(fn, types.FunctionType):
                    continue
                wrapper = self._wrap(f"{short}.{name}", fn)
                self.traced.add(f"{short}.{name}")
                for m in modules.values():
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._patched.append((m, attr, fn))
                            setattr(m, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        keep = name in KEEP_ARGS
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request,
                    (fn, args, kwargs) if keep else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if keep:
                span[6] = result
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request, _, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, request]) + "\n")


def _bound_args(span) -> dict:
    fn, args, kwargs = span[5]
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _derived_stats(spans, total) -> dict:
    """Stats that need the arguments or results of the calls."""
    derived = {}
    seen_fields = set()
    cold = warm = elements = 0.0
    curves, cp_calls = set(), 0
    for span in spans:
        if span[0] != "ff_zeta.count_points":
            continue
        a = _bound_args(span)
        variety, m = a["variety"], a["m"]
        p = getattr(variety, "p", None) or variety.q
        key = (p, m)
        if span[4] is not None:
            cp_calls += 1
            dur = span[2] - span[1]
            if key in seen_fields:
                warm += dur
            else:
                cold += dur
            curves.add((p, getattr(variety, "f", None), m))
            elements += p**m
        seen_fields.add(key)
    derived["ff_zeta.count_points.cold_s"] = cold
    derived["ff_zeta.count_points.warm_s"] = warm
    derived["ff_zeta.count_points.unique_ratio"] = _ratio(len(curves), cp_calls)
    derived["ff_zeta.count_points.ns_per_element"] = _ratio(
        total.get("ff_zeta.count_points", 0.0) * 1e9, elements)

    timed = [s for s in spans if s[4] is not None]
    fields = [tuple(_bound_args(s).values())[:2] for s in timed if s[0] == "ff_zeta.make_field"]
    derived["ff_zeta.make_field.distinct_ratio"] = _ratio(len(set(fields)), len(fields))
    l0 = [s for s in timed if s[0] == "lfunc.l_at_0"]
    terms = sum(abs(_bound_args(s)["D"]) - 1 for s in l0)
    derived["lfunc.l_at_0.us_per_term"] = _ratio(total.get("lfunc.l_at_0", 0.0) * 1e6, terms)
    derived["lfunc.l_at_0.useful_ratio"] = _ratio(sum(1 for s in l0 if s[6] != 0), len(l0))
    lp = [s for s in timed if s[0] == "lfunc.l_prime_at_0"]
    terms = sum(_bound_args(s)["D"] - 1 for s in lp)
    derived["lfunc.l_prime_at_0.us_per_term"] = _ratio(total.get("lfunc.l_prime_at_0", 0.0) * 1e6, terms)
    units = [(s[4], _bound_args(s)["D"]) for s in timed if s[0] == "number_field.fundamental_unit_real"]
    derived["number_field.fundamental_unit_real.calls_per_real_field"] = _ratio(len(units), len(set(units)))

    return derived


def per_layer_metrics(tracer: Tracer) -> dict:
    """name -> {"value", "unit"} for every PER_LAYER metric except the
    overhead ratio, which needs an untraced run.  Only spans stamped with a
    request id count; set-up spans only mark fields as already built."""
    spans = tracer.spans
    children = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent] += end - start
    calls, total, self_s, module_s = {}, {}, {}, {}
    for i, (name, start, end, parent, request, *_) in enumerate(spans):
        if request is None:
            continue
        # outermost span of its function and of its module: count once in totals
        outer_fn = outer_mod = True
        module = name.split(".")[0]
        j = parent
        while j >= 0:
            outer_fn &= spans[j][0] != name
            outer_mod &= spans[j][0].split(".")[0] != module
            j = spans[j][3]
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - children[i]
        if outer_fn:
            total[name] = total.get(name, 0.0) + dur
        if outer_mod:
            module_s[module] = module_s.get(module, 0.0) + dur

    try:
        derived = _derived_stats(spans, total)
    except (KeyError, TypeError, AttributeError):  # a traced signature changed
        derived = {}
        broken = True
    else:
        broken = False

    out = {}
    for metric, unit, _ in PER_LAYER:
        if metric == "trace.overhead_ratio":
            continue
        parts = metric.split(".")
        fn_name = ".".join(parts[:-1])
        if len(parts) == 2:  # module total
            present = any(t.startswith(parts[0] + ".") for t in tracer.traced)
            value = module_s.get(parts[0], 0.0)
        else:
            present = fn_name in tracer.traced
            stat = parts[-1]
            if stat in ("calls", "s", "self_s"):
                value = {"calls": calls, "s": total, "self_s": self_s}[stat].get(fn_name, 0)
            else:
                present = present and not broken
                value = derived.get(metric, 0.0)
        out[metric] = {"value": value, "unit": unit}
        if not present:
            out[metric] = {"value": 0.0, "unit": unit, "absent": True}
    return out
