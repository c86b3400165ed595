"""In-memory span tracer for the traced benchmark run.

Tracer.install() wraps, from outside the program, the public functions
of the tbdkit modules and the numpy/scipy kernels they call. A function
that another module imported by name is rebound at every binding, so a
call through operators, scalar_product, currents or cli is seen wherever
it is made. Each call records a span: name, start, end, parent span,
certificate id and a few call-specific counts. uninstall() puts every
original back, so untraced certificates run the unmodified program.

layer_metrics() turns the spans into the per-layer metrics named in
BENCHMARK.json. A layer's time (".s") counts only the outermost span of
that name, its self time (".self_s") subtracts the time its child spans
cover, and kernels (fft, einsum, eigvalsh, svd) are attributed to the
innermost open span.
"""

import functools
import importlib
import inspect
import math
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

_FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)
# span name -> (module, function names) of the kernels it covers; both
# numpy and scipy entry points, so a change of library keeps counting.
KERNELS = {
    "fft": (("numpy.fft", _FFT_NAMES), ("scipy.fft", _FFT_NAMES)),
    "einsum": (("numpy", ("einsum",)),),
    "eigvalsh": (("numpy.linalg", ("eigvalsh",)), ("scipy.linalg", ("eigvalsh",))),
    "svd": (("numpy.linalg", ("svd",)), ("scipy.linalg", ("svd",))),
}
TRACED_MODULES = (
    "operators", "potentials", "spinor_algebra", "scalar_product",
    "positivity", "currents", "toy_model", "serialize",
)
# Units of the metrics that count work; they must repeat exactly.
COUNT_UNITS = ("count", "calls/mode", "calls/root", "flop", "B")

# Span record fields.
NAME, START, END, PARENT, CERT, ATTRS, OUTER = range(7)


def _prod(values):
    out = 1
    for v in values:
        out *= int(v)
    return out


def _fft_work(fn):
    """Computed flops (5 N log2 N per transform) and bytes (complex128
    read plus write) of one call, from the argument shapes."""
    sig = inspect.signature(fn)
    first = next(iter(sig.parameters))
    one_d = "axis" in sig.parameters

    def describe(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        shape = np.shape(a[first])
        if one_d:
            axes = [a["axis"]]
            lengths = [a["n"] or shape[a["axis"]]]
        else:
            s = a.get("s")
            axes = a.get("axes")
            if axes is None:
                axes = range(-len(s), 0) if s is not None else range(len(shape))
            axes = list(axes)
            lengths = list(s) if s is not None else [shape[ax] for ax in axes]
        n = _prod(lengths)
        batch = _prod(shape) // max(1, _prod(shape[ax] for ax in axes))
        flops = 5.0 * n * math.log2(n) * batch if n > 1 else 0.0
        return {"flops": flops, "bytes": 2 * 16 * n * batch}

    return describe


def _bound(fn, names):
    sig = inspect.signature(fn)

    def args_of(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return [bound.arguments[n] for n in names]

    return args_of


def _describers(fn, span):
    """Counts recorded with a span, keyed by span name."""
    if span == "operators.compatibility_residual":
        args_of = _bound(fn, ("fld", "commutator_realization"))

        def describe(args, kwargs, result):
            fld, realization = args_of(args, kwargs)
            return {"n": fld.grid.n, "modes": len(fld.modes), "realization": realization}

        return describe
    if span == "operators.plane_wave_solutions":
        return lambda args, kwargs, result: {"roots": len(result)}
    if span == "positivity.scan":
        args_of = _bound(fn, ("grid",))

        def describe(args, kwargs, result):
            (grid,) = args_of(args, kwargs)
            return {
                "points": grid.n**3 * len(result.P2_values),
                "violations": result.violation_count,
            }

        return describe
    if span == "toy_model.positivity_breakdown_search":
        return lambda args, kwargs, result: {"samples": result.n_samples}
    if span in ("serialize.write_json", "serialize.write_csv"):
        args_of = _bound(fn, ("path",))
        return lambda args, kwargs, result: {"bytes": os.path.getsize(args_of(args, kwargs)[0])}
    if span == "eigvalsh":
        return lambda args, kwargs, result: {"matrices": _prod(np.shape(args[0])[:-2])}
    if span == "fft":
        return _fft_work(fn)
    return None


class Tracer:
    """Records spans while installed. One tracer per traced pass."""

    def __init__(self):
        self.spans = []
        self.cert = None
        self._stack = []
        self._open = Counter()
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack, open_names = self.spans, self._stack, self._open
        describe = _describers(fn, name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.cert, None, open_names[name] == 0]
            stack.append(len(spans))
            spans.append(rec)
            open_names[name] += 1
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                open_names[name] -= 1
                stack.pop()
            if describe is not None:
                rec[ATTRS] = describe(args, kwargs, result)
            return result

        return wrapper

    def _set(self, namespace, key, value):
        self._patches.append((namespace, key, namespace[key]))
        namespace[key] = value

    def install(self):
        wrappers = {}  # id(original) -> (original, wrapper)
        for span, sources in KERNELS.items():
            for modname, names in sources:
                mod = importlib.import_module(modname)
                for fname in names:
                    fn = mod.__dict__.get(fname)
                    if fn is None:
                        continue
                    wrappers[id(fn)] = (fn, self._wrap(span, fn))
                    self._set(mod.__dict__, fname, wrappers[id(fn)][1])
        for short in TRACED_MODULES:
            mod = sys.modules[f"tbdkit.{short}"]
            for fname, fn in list(vars(mod).items()):
                if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{fname}", fn))
        cli = sys.modules["tbdkit.cli"]
        for fname, fn in list(vars(cli).items()):
            if not inspect.isfunction(fn) or fn.__module__ != cli.__name__:
                continue
            if fname in ("main", "load_config"):
                wrappers[id(fn)] = (fn, self._wrap(f"cli.{fname}", fn))
            elif fname.startswith("run_"):
                wrappers[id(fn)] = (fn, self._wrap("cli.run", fn))
        # Rebind every name that holds an original, including the
        # subcommand table through which cli.main dispatches.
        for modname, mod in list(sys.modules.items()):
            if modname != "tbdkit" and not modname.startswith("tbdkit."):
                continue
            namespace = mod.__dict__
            for key, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(namespace, key, hit[1])
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        hit = wrappers.get(id(v))
                        if hit is not None and hit[0] is v:
                            self._set(value, k, hit[1])

    def uninstall(self):
        while self._patches:
            namespace, key, original = self._patches.pop()
            namespace[key] = original


def _outermost_owner(spans, name):
    """Index of the nearest enclosing span called name, or -1, per span.
    Parents are recorded before their children, so one pass suffices."""
    owner = [-1] * len(spans)
    for i, rec in enumerate(spans):
        if rec[NAME] == name:
            owner[i] = i
        elif rec[PARENT] >= 0:
            owner[i] = owner[rec[PARENT]]
    return owner


def layer_metrics(spans, aliasing_warnings):
    """Per-layer metrics from one traced pass: name -> (value, unit)."""
    n = len(spans)
    child = [0.0] * n
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    calls = Counter()
    total = defaultdict(float)
    self_s = defaultdict(float)
    attr_sum = defaultdict(int)
    per_n = defaultdict(float)
    for i, rec in enumerate(spans):
        name, dur = rec[NAME], rec[END] - rec[START]
        calls[name] += 1
        self_s[name] += dur - child[i]
        if rec[OUTER]:
            total[name] += dur
        if rec[ATTRS]:
            for key, value in rec[ATTRS].items():
                if isinstance(value, (int, float)):
                    attr_sum[f"{name}.{key}"] += value
            if name == "operators.compatibility_residual" and rec[OUTER]:
                per_n[rec[ATTRS]["n"]] += dur

    # FFTs per relative-energy mode inside compatibility_residual, by
    # realization; SVDs per returned root inside plane_wave_solutions.
    owner = _outermost_owner(spans, "operators.compatibility_residual")
    fft_in = Counter()
    modes_in = Counter()
    for i, rec in enumerate(spans):
        if rec[NAME] == "operators.compatibility_residual" and rec[OUTER]:
            modes_in[rec[ATTRS]["realization"]] += rec[ATTRS]["modes"]
        elif rec[NAME] == "fft" and owner[i] >= 0:
            fft_in[spans[owner[i]][ATTRS]["realization"]] += 1
    owner = _outermost_owner(spans, "operators.plane_wave_solutions")
    svd_in = sum(1 for i, rec in enumerate(spans) if rec[NAME] == "svd" and owner[i] >= 0)
    roots = attr_sum["operators.plane_wave_solutions.roots"]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in (
        "operators.compatibility_residual", "operators.apply_D1", "operators.apply_D2",
        "operators.plane_wave_solutions", "fft", "einsum", "eigvalsh", "svd",
        "potentials.eval_V", "potentials.eval_dV_dxperp_sq", "potentials.eval_dV_dP2",
        "potentials.eval_ddelta_dP2", "scalar_product.build_kernel",
        "scalar_product.interacting_inner_product", "positivity.scan",
        "serialize.write_json", "serialize.write_csv",
    ):
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.s"] = (total[name], "s")
    for name in ("operators.compatibility_residual", "positivity.scan"):
        m[f"{name}.self_s"] = (self_s[name], "s")
    for n_grid in (16, 24, 32):
        m[f"operators.compatibility_residual.n{n_grid}.s"] = (per_n[n_grid], "s")
    for name in (
        "operators.random_band_limited_field", "positivity.min_eigenvalue_map",
        "positivity.violation_radius", "positivity.flavor_boundary_radius",
        "positivity.empirical_boundary_consistent", "currents.j_free_current",
        "currents.surviving_divergence_term", "currents.conservation_sweep",
        "currents.gauge_check", "toy_model.positivity_breakdown_search",
        "cli.main", "cli.load_config", "cli.run",
    ):
        m[f"{name}.s"] = (total[name], "s")
    m["operators.fft_per_mode"] = (ratio(fft_in["analytic"], modes_in["analytic"]), "calls/mode")
    m["operators.fft_per_mode.composed"] = (ratio(fft_in["composed"], modes_in["composed"]), "calls/mode")
    m["operators.plane_wave_solutions.svd_per_root"] = (ratio(svd_in, roots), "calls/root")
    m["operators.aliasing_warnings"] = (aliasing_warnings, "count")
    m["fft.flops_computed"] = (attr_sum["fft.flops"], "flop")
    m["fft.bytes_computed"] = (attr_sum["fft.bytes"], "B")
    m["eigvalsh.matrices"] = (attr_sum["eigvalsh.matrices"], "count")
    m["spinor_algebra.slash.calls"] = (calls["spinor_algebra.slash1"] + calls["spinor_algebra.slash2"], "count")
    m["spinor_algebra.build_gammas.calls"] = (calls["spinor_algebra.build_gammas"], "count")
    m["positivity.scan.points"] = (attr_sum["positivity.scan.points"], "count")
    m["positivity.violation_points"] = (attr_sum["positivity.scan.violations"], "count")
    m["toy_model.positivity_breakdown_search.samples"] = (
        attr_sum["toy_model.positivity_breakdown_search.samples"], "count")
    m["serialize.write_json.bytes"] = (attr_sum["serialize.write_json.bytes"], "B")
    m["serialize.write_csv.bytes"] = (attr_sum["serialize.write_csv.bytes"], "B")
    return m
