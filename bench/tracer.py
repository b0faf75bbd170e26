"""In-memory span tracer that wraps polyspace's public functions from outside.

``Tracer.install()`` replaces each traced function with a wrapper in every
``polyspace`` module that bound it, so ``experiments.space_norm`` and
``polyspace.evaluate`` are traced as well as ``norms.space_norm``.  Methods
(``PowerSeries.__call__``, ``SpaceSpec.__post_init__``) are patched on their
class.  Nothing under ``src/`` is edited.

A span is ``[layer, start, end, parent_index, info]``; ``info`` holds the
counts read from the call's arguments and result.  Self time is a span's
duration minus the durations of its direct children.
"""

import functools
import sys
import time

import numpy as np

_clock = time.perf_counter


def _eval_info(args, kwargs, out, pre):
    obj, z = args[0], args[1]
    comps = obj.components if hasattr(obj, "components") else (obj,)
    return {"nodes": int(np.size(z)), "terms": sum(h.coeffs.size for h in comps)}


def _grid_info(args, kwargs, out, pre):
    fn, misses_before = pre
    built = fn.cache_info().misses > misses_before
    return {"builds": int(built), "nodes": out.size if built else 0}


def _grid_pre(fn):
    return fn, fn.cache_info().misses


def _integrate_info(args, kwargs, out, pre):
    return {"nodes": args[1].size}


def _refine_info(args, kwargs, out, pre):
    return {"levels": out.level, "unconverged": int(not out.converged)}


def _density_info(args, kwargs, out, pre):
    return {"nodes": int(np.size(args[1]))}


def _targets(ps):
    """``(owner, attribute, layer, info, pre)`` for every traced callable."""
    pf, quad, norms, weights, exp = (ps.polyfun, ps.quadrature, ps.norms,
                                     ps.weights, ps.experiments)
    out = [
        (pf, "evaluate", "polyfun.evaluate", _eval_info, None),
        (pf.PowerSeries, "__call__", "polyfun.evaluate", _eval_info, None),
        (quad, "integrate", "quadrature.integrate", _integrate_info, None),
        (quad, "refine_until", "quadrature.refine", _refine_info, None),
        (quad, "halfplane_mc_check", "quadrature.mc_check", None, None),
        (norms, "_measure_density", "norms.density", _density_info, None),
        (norms, "space_norm", "norms.space_norm", None, None),
        (norms, "weighted_p_integral", "norms.weighted_p_integral", None, None),
        (norms.SpaceSpec, "__post_init__", "norms.spec_init", None, None),
        (weights, "eval_weight", "weights.eval_weight", None, None),
        (weights, "check_condition", "weights.check_condition", None, None),
        (weights, "find_min_k", "weights.check_condition", None, None),
    ]
    for name in ("d_z", "d_zbar", "dilate", "sub", "truncate"):
        out.append((pf, name, "polyfun.calculus", None, None))
    for name in ("disk_grid", "halfplane_grid"):
        fn = getattr(quad, name)
        out.append((quad, name, "quadrature.grid", _grid_info,
                    functools.partial(_grid_pre, fn)))
    for name in ("dilatation_convergence", "limsup_check", "poly_approx",
                 "run_theorem_suite", "default_matrix", "standard_functions"):
        out.append((exp, name, "experiments", None, None))
    cli = sys.modules.get("polyspace.cli")
    if cli is not None:
        out.append((cli, "main", "cli", None, None))
        out.append((cli, "parse_args", "cli.parse_args", None, None))
        out.append((cli, "load_function", "cli.load_function", None, None))
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, fn, layer, info, pre):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            state = pre() if pre is not None else None
            rec[1] = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = _clock()
                stack.pop()
            if info is not None:
                rec[4] = info(args, kwargs, out, state)
            return out

        return traced

    def install(self):
        """Patch every traced callable of the imported polyspace modules."""
        import polyspace as ps

        modules = [m for n, m in sys.modules.items()
                   if n == "polyspace" or n.startswith("polyspace.")]
        for owner, attr, layer, info, pre in _targets(ps):
            original = getattr(owner, attr)
            wrapper = self._wrap(original, layer, info, pre)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

    def layers(self):
        """Per-layer ``calls``, ``self_s``, ``total_s`` and summed counts.

        ``calls`` and the counts include only a layer's outermost spans, so
        ``evaluate`` calling ``PowerSeries.__call__`` counts once.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for layer, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (layer, start, end, parent, info) in enumerate(spans):
            agg = out.setdefault(layer, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            agg["self_s"] += (end - start) - child_time[i]
            if parent >= 0 and spans[parent][0] == layer:
                continue
            agg["calls"] += 1
            agg["total_s"] += end - start
            for key, value in (info or {}).items():
                agg[key] = agg.get(key, 0) + value
        return out


def merge_layers(into, layers):
    for layer, agg in layers.items():
        dst = into.setdefault(layer, {})
        for key, value in agg.items():
            dst[key] = dst.get(key, 0) + value
    return into
