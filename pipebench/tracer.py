"""Span tracer for the traced benchmark run.

It wraps the public functions of each layer of the program from outside,
records one span per call (name, start, end, parent span) and counts the
work each call did. A layer's self time is its span durations minus the
time covered by its child spans, so nested calls such as
is_crooked -> is_apn -> differential_spectrum or
compare -> function_invariants -> gamma_rank -> rank_packed are not counted
twice.

Functions are found by name in every loaded `crooked` module, and every
module attribute bound to the same function object is patched. That covers
names imported with `from ... import ...` (for example
`invariants.differential_spectrum` and `families.linearized_is_bijective`),
which patching the defining module alone would miss.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


def _one(metric: str) -> Dict[str, Callable]:
    return {metric: lambda args, result: 1}


# function name -> (self-time metric, {count metric: increment(args, result)}).
# A binding without a time metric is counted only and opens no span, so its
# time stays in the caller's self time.
BINDINGS: Dict[str, Tuple[Optional[str], Dict[str, Callable]]] = {
    "cmd_construct": ("cli.construct_s", _one("cli.calls")),
    "cmd_verify": ("cli.verify_s", _one("cli.calls")),
    "cmd_invariants": ("cli.invariants_s", _one("cli.calls")),
    "FieldCtx.__init__": ("field.build_s", _one("field.builds")),
    "parse": ("funcfile.io_s", {"funcfile.bytes": lambda args, result: len(args[0])}),
    "serialize": ("funcfile.io_s", {"funcfile.bytes": lambda args, result: len(result)}),
    "linearized_is_bijective": ("polyops.bijective_s", _one("polyops.bijective_calls")),
    "search_params": ("families.search_s", _one("families.calls")),
    "proof_identity_check": ("families.identity_s", _one("families.calls")),
    "from_multinomial": ("vbf.eval_s", {"vbf.points_evaluated": lambda args, result: args[0].ctx.order}),
    "differential_spectrum": ("vbf.diff_s", _one("vbf.diff_sweeps")),
    "is_crooked": ("vbf.crooked_self_s", {}),
    "hyperplane_of": (None, _one("vbf.hyperplane_calls")),
    "walsh_spectrum": ("spectral.walsh_s", {"spectral.components": lambda args, result: args[0].ctx.order - 1}),
    "compare": ("invariants.compare_s", {}),
    "function_invariants": ("invariants.compare_s", _one("invariants.function_invariants")),
    "gamma_rank": ("invariants.gamma_rank_s", {}),
    "delta_rank": ("invariants.delta_rank_s", {}),
    "difference_points": ("invariants.difference_points_s", {}),
    "rank_packed": ("gf2mat.rank_s", {
        "gf2mat.rank_calls": lambda args, result: 1,
        "gf2mat.pivots": lambda args, result: result,
        "gf2mat.matrix_mb": lambda args, result: args[0].nbytes / 1e6,
    }),
}

TIME_METRICS = sorted({t for t, _ in BINDINGS.values() if t})
COUNT_METRICS = sorted({c for _, counts in BINDINGS.values() for c in counts})


class Tracer:
    def __init__(self):
        # Each span: [name, parent index or -1, start, end].
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self.patched: List[str] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        metric, increments = BINDINGS[name]
        counts, spans, stack = self.counts, self.spans, self._stack

        def count(args, result):
            for key, inc in increments.items():
                counts[key] += inc(args, result)

        if metric is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(args, result)
                return result

            return counted

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([metric, stack[-1] if stack else -1, time.perf_counter(), 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = time.perf_counter()
            count(args, result)
            return result

        return traced

    def install(self, package: str = "crooked") -> None:
        """Patch every binding site of every function in BINDINGS."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        wrappers: Dict[int, Tuple[Callable, Callable]] = {}  # id(original) -> (original, wrapper)
        for name in BINDINGS:
            owner, _, attr = name.rpartition(".")
            for mod in modules:
                if owner:
                    cls = vars(mod).get(owner)
                    if isinstance(cls, type) and cls.__module__ == mod.__name__ and attr in vars(cls):
                        setattr(cls, attr, self._wrap(name, vars(cls)[attr]))
                        self.patched.append(f"{mod.__name__}.{name}")
                    continue
                fn = vars(mod).get(attr)
                if callable(fn) and getattr(fn, "__module__", "").startswith(package) \
                        and getattr(fn, "__name__", None) == attr and id(fn) not in wrappers:
                    wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])
                    self.patched.append(f"{mod.__name__}.{key}")

    def layer_totals(self) -> Dict[str, float]:
        """Self time per time metric and the counts, over all spans so far."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {m: 0.0 for m in TIME_METRICS + COUNT_METRICS}
        for (name, _, start, end), inner in zip(self.spans, child):
            out[name] += (end - start) - inner
        out.update(self.counts)
        return out
