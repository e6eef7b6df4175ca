"""Per-layer tracing from outside the program.

Each layer is a twistgate module; ``install`` wraps the public functions
named in ``LAYERS`` at every import site (the defining module and every
module that bound the function by name, as ``lseries`` does with
``classify``).  A wrapper records a span per call, and a layer's self time
is its span minus the time covered by the spans it caused.  Spans are
aggregated in memory per function rather than stored one by one, because
``count_points`` alone runs thousands of times per operation.

Counters are taken from the arguments and results at the same boundary,
so ratios are measured where the work happens.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _count_points(stats, args, kwargs, result):
    stats["field_elements"] += args[1] if len(args) > 1 else kwargs["p"]


def _dirichlet(stats, args, kwargs, result):
    stats["terms"] += args[1] if len(args) > 1 else kwargs["M"]


def _l_value(stats, args, kwargs, result):
    stats["terms"] += result.terms_used
    stats["nonzero"] += result.verdict == "NonzeroEvidence"


def _search(stats, args, kwargs, result):
    stats["tuples"] += len(result)


def _check_hypothesis(stats, args, kwargs, result):
    seen = stats.setdefault("_seen", set())
    for c in result.per_character:
        key = (result.p, c.discriminant)
        stats["characters"] += 1
        stats["retried"] += c.retried
        stats["repeats"] += key in seen
        seen.add(key)


def _lemma_sum(stats, args, kwargs, result):
    stats["elements"] += args[0].size


def _quad_points(stats, args, kwargs, result):
    height = args[2] if len(args) > 2 else kwargs["height"]
    stats["x_scanned"] += height * (2 * height + 1)


# "module.function" -> counter hook, or None.  METRICS.md says which
# end-to-end metric each layer should move, on which workload.
LAYERS = {
    "reduction.count_points": _count_points,
    "reduction.classify": None,
    "reduction.conductor": None,
    "lseries.dirichlet_coefficients": _dirichlet,
    "lseries.l_value_at_1": _l_value,
    "fieldsearch.check_hypothesis": _check_hypothesis,
    "fieldsearch.search": _search,
    "rootnum.global_root_number": None,
    "rootnum.twist_root_number_formula": None,
    "numtheory.factor": None,
    "numtheory.is_prime": None,
    "numtheory.jacobi": None,
    "curve.invariants": None,
    "curve.minimalize_at": None,
    "curve.quadratic_twist": None,
    "galois.serre_check": None,
    "descent.lemma_sum_check": _lemma_sum,
    "descent.quad_point_search": _quad_points,
    "cli.run": None,
}

# Metrics the traced run reports: every layer's calls and self time, except
# where only the count is asked for, plus the counters and ratios above.
_CALLS_ONLY = {"numtheory.is_prime", "numtheory.jacobi"}
_SELF_ONLY = {"cli.run"}
_EXTRA = {
    "reduction.count_points": ("field_elements",),
    "lseries.dirichlet_coefficients": ("terms",),
    "lseries.l_value_at_1": ("terms",),
    "fieldsearch.search": ("tuples",),
    "descent.lemma_sum_check": ("elements",),
    "descent.quad_point_search": ("x_scanned",),
}


class Tracer:
    """Wraps the LAYERS functions of an imported twistgate and aggregates spans."""

    def __init__(self):
        self.stats: dict[str, defaultdict] = {
            name: defaultdict(int, calls=0, self_s=0.0) for name in LAYERS
        }
        self._stack: list[float] = []  # child time of each open span

    def _wrap(self, name, fn, hook):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                child = stack.pop()
                stats["calls"] += 1
                stats["self_s"] += span - child
                if stack:
                    stack[-1] += span
            if hook is not None:
                hook(stats, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "twistgate" or n.startswith("twistgate.")]
        for name, hook in LAYERS.items():
            module_name, func_name = name.split(".")
            original = getattr(sys.modules[f"twistgate.{module_name}"], func_name)
            wrapper = self._wrap(name, original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, st in self.stats.items():
            if name not in _SELF_ONLY:
                out[f"{name}.calls"] = st["calls"]
            if name not in _CALLS_ONLY:
                out[f"{name}.self_s"] = st["self_s"]
            for extra in _EXTRA.get(name, ()):
                out[f"{name}.{extra}"] = st[extra]
        lv = self.stats["lseries.l_value_at_1"]
        out["lseries.nonzero_share"] = lv["nonzero"] / lv["calls"] if lv["calls"] else 0.0
        ch = self.stats["fieldsearch.check_hypothesis"]
        chars = ch["characters"]
        out["fieldsearch.retry_share"] = ch["retried"] / chars if chars else 0.0
        out["fieldsearch.repeat_share"] = ch["repeats"] / chars if chars else 0.0
        return out


def metric_names() -> list[str]:
    """Names ``Tracer.metrics`` reports, in order."""
    return list(Tracer().metrics())
