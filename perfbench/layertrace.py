"""Timing spans around the calls into each sfpe layer, installed from outside.

`install()` replaces every public function named in LAYERS with a wrapper
that records a span: the layer function, the span that was open when it was
called, start and end times, the number of elements passed in, and the
process's minor page faults and system CPU time before and after.  The
function is replaced in every sfpe namespace that binds it (`engine` binds
`draw_coeffs` and `apply_map`, `tailstats` binds `smoothed_tail`, `cli` binds
`elton_precheck`, `f_plus` and `f_minus`), and `quantile`, `survival` and
`alpha_moment` are replaced on every `dist` class that defines them.  Spans
stay in memory until `dump()` writes them as JSON.

Spans opened inside process-pool workers stay in the workers and are lost;
with `workers = 1` every call runs in the traced process.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time

import numpy as np

# layer module -> public functions to wrap
LAYERS = {
    "maps": ("draw_coeffs", "apply_map", "elton_precheck", "f_plus", "f_minus"),
    "engine": (
        "sample_stationary_chain", "sample_perpetuity", "conditional_tail",
        "smoothed_tail", "save_batch", "load_batch",
    ),
    "tailstats": (
        "default_grid", "smoothed_survival", "ecdf_survival", "ratio_curve",
        "plugin_moment",
    ),
    "theory": (
        "predict", "ifs_constants", "convolution_tail", "convolution_limit_check",
        "appendix_smallint_diagnostic", "product_convolution_check",
        "rv_uniformity_check", "salpha_check_dom",
    ),
}
DIST_METHODS = ("quantile", "survival", "alpha_moment")
MODULES = ("dist", "maps", "engine", "tailstats", "theory", "cli")


def _elements(name, args):
    """Number of elements a call works on: the array argument, or the
    sample count for the samplers."""
    if name in ("dist.quantile", "dist.survival"):
        return int(np.size(args[1]))
    if name == "engine.conditional_tail":
        return int(np.size(args[3]))
    if name in ("engine.sample_stationary_chain", "engine.sample_perpetuity"):
        return int(args[1].n_samples)
    if name == "engine.save_batch":
        return int(np.asarray(args[0].values).nbytes)
    return 0


class Tracer:
    """In-memory span list; each span is
    [name, parent index, start, end, elements, minflt0, minflt1, sys0, sys1]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0,
                    _elements(name, args), 0, 0, 0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            ru = resource.getrusage(resource.RUSAGE_SELF)
            span[5], span[7] = ru.ru_minflt, ru.ru_stime
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                ru = resource.getrusage(resource.RUSAGE_SELF)
                span[6], span[8] = ru.ru_minflt, ru.ru_stime
                stack.pop()

        return traced

    def install(self):
        """Wrap the layer functions in every sfpe namespace that binds them."""
        import sfpe.cli  # noqa: F401  (loads every layer module)
        from sfpe import dist

        replace = {}
        for mod, names in LAYERS.items():
            module = sys.modules[f"sfpe.{mod}"]
            for fn_name in names:
                fn = getattr(module, fn_name)
                replace[id(fn)] = self.wrap(f"{mod}.{fn_name}", fn)
        for mod in MODULES:
            ns = vars(sys.modules[f"sfpe.{mod}"])
            for key, value in list(ns.items()):
                if id(value) in replace:
                    ns[key] = replace[id(value)]
        for cls in vars(dist).values():
            if isinstance(cls, type) and cls.__module__ == dist.__name__:
                for meth in DIST_METHODS:
                    if meth in vars(cls):
                        setattr(cls, meth, self.wrap(f"dist.{meth}", vars(cls)[meth]))

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def summarize(spans):
    """Per layer function: inclusive time `s` (outermost calls only), `self_s`
    (inclusive time minus that of direct child spans), `calls`, elements `n`,
    and the `minflt` and `sys_s` deltas of its outermost calls."""
    out = {}
    child_time = [0.0] * len(spans)
    for name, parent, t0, t1, *_ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    for i, (name, parent, t0, t1, n, f0, f1, s0, s1) in enumerate(spans):
        rec = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "n": 0,
                                    "minflt": 0, "sys_s": 0.0})
        rec["calls"] += 1
        rec["n"] += n
        rec["self_s"] += (t1 - t0) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:  # not nested in a call of the same function
            rec["s"] += t1 - t0
            rec["minflt"] += f1 - f0
            rec["sys_s"] += s1 - s0
    return out
