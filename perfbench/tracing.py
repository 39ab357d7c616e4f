"""Spans around the public functions of each relconf module, from outside.

The program binds most of these functions by value at import
(``conformal`` imports ``fit_ols``, ``fit_lasso``, ``fit_kernel`` and
``kernel_weights``; ``runner`` imports ``conformal_interval``, ``select``,
``simulate_controls``, ``score``, ``summary_table`` and ``load_csv``), so a
wrapper replaces the function object under every name that holds it in
every loaded ``relconf`` module, and in ``dgp.SUITES`` for the built-in
suites. ``Dataset`` validations are counted through the class's
``__post_init__``, which ``subset`` runs too.

All spans are kept in memory as per-key call counts and summed seconds;
the run_grid span itself is timed by the caller.
"""

from __future__ import annotations

import functools
import sys
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter


def _first(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


class Tracer:
    """Install with ``install()``; always undo with ``uninstall()``.

    With ``track_alloc`` the tracer also records the largest tracemalloc
    peak over one ``conformal_interval`` call; tracemalloc slows every
    Python allocation, so times from such a pass are not reported.
    """

    def __init__(self, track_alloc: bool = False):
        self.track_alloc = track_alloc
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.cell_ms: list[float] = []
        self.peak_alloc_bytes = 0
        self._regress_depth = 0
        self._regress_seconds = 0.0  # time inside outermost regress spans
        self._undo: list = []

    # -- span bookkeeping --------------------------------------------------

    def _span(self, fn, key_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = key_of(args, kwargs)
            regress = key.startswith("regress.")
            conformal = key.startswith("conformal.")
            if regress:
                tracer._regress_depth += 1
            if conformal:
                regress_before = tracer._regress_seconds
                if tracer.track_alloc:
                    tracemalloc.reset_peak()
                    alloc_base = tracemalloc.get_traced_memory()[0]
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer.calls[key] += 1
                tracer.seconds[key] += dt
                if regress:
                    tracer._regress_depth -= 1
                    if tracer._regress_depth == 0:
                        tracer._regress_seconds += dt
                if conformal:
                    tracer.seconds["conformal.self"] += dt - (
                        tracer._regress_seconds - regress_before
                    )
                    if tracer.track_alloc:
                        peak = tracemalloc.get_traced_memory()[1] - alloc_base
                        tracer.peak_alloc_bytes = max(tracer.peak_alloc_bytes, peak)
                if key == "runner.cell":
                    tracer.cell_ms.append(dt * 1e3)

        return wrapper

    def _replace_everywhere(self, fn, key_of) -> None:
        wrapper = self._span(fn, key_of)
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "relconf" or name.startswith("relconf.")
        ]
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, name, wrapper)
                    self._undo.append((setattr, mod, name, fn))

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        from relconf import conformal, core, dgp, evaluate, individualize, regress, runner

        def fixed(key):
            return lambda args, kwargs: key

        def lasso_key(args, kwargs):
            lam = _first(args, kwargs, 2, "lam")
            return "regress.lasso_cv" if lam is None else "regress.lasso_fixed"

        def conformal_key(args, kwargs):
            reg = core.Regressor(_first(args, kwargs, 1, "reg")).value
            spec = _first(args, kwargs, 3, "spec")
            return f"conformal.{spec.method.value}.{reg}"

        self._replace_everywhere(regress.fit_ols, fixed("regress.ols"))
        self._replace_everywhere(regress.fit_lasso, lasso_key)
        self._replace_everywhere(regress.fit_kernel, fixed("regress.kernel_fit"))
        self._replace_everywhere(regress.kernel_weights, fixed("regress.kernel_weights"))
        self._replace_everywhere(conformal.conformal_interval, conformal_key)
        self._replace_everywhere(individualize.select, fixed("individualize.select"))
        self._replace_everywhere(
            individualize.simulate_controls, fixed("individualize.controls")
        )
        self._replace_everywhere(evaluate.score, fixed("evaluate.score"))
        self._replace_everywhere(evaluate.summary_table, fixed("evaluate.summary"))
        self._replace_everywhere(core.load_csv, fixed("core.load_csv"))
        self._replace_everywhere(runner.run_algorithm1, fixed("runner.cell"))

        for name, gen in list(dgp.SUITES.items()):
            dgp.SUITES[name] = self._span(gen, fixed("dgp.suite"))
            self._undo.append((dict.__setitem__, dgp.SUITES, name, gen))

        post_init = core.Dataset.__post_init__
        core.Dataset.__post_init__ = self._span(post_init, fixed("core.dataset"))
        self._undo.append((setattr, core.Dataset, "__post_init__", post_init))
        if self.track_alloc:
            tracemalloc.start()

    def uninstall(self) -> None:
        if self.track_alloc and tracemalloc.is_tracing():
            tracemalloc.stop()
        for restore, owner, name, original in reversed(self._undo):
            restore(owner, name, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def counts(self) -> dict:
        return dict(sorted(self.calls.items()))

    def metrics(self, grid_seconds: float, untraced_seconds: float, grids: int) -> dict:
        """Per-layer metrics, as totals over the traced batch of ``grids`` calls."""
        c, s = self.calls, self.seconds
        out = {}
        for engine in ("lasso_cv", "lasso_fixed", "kernel_fit", "kernel_weights", "ols"):
            out[f"regress.{engine}_calls"] = (c[f"regress.{engine}"], "count")
            out[f"regress.{engine}_s"] = (s[f"regress.{engine}"], "s")
        for method in ("split", "full", "jackknife"):
            for engine in ("ols", "lasso", "kernel"):
                out[f"conformal.{method}.{engine}_s"] = (s[f"conformal.{method}.{engine}"], "s")
        out["conformal.self_s"] = (s["conformal.self"], "s")
        out["core.dataset_calls"] = (c["core.dataset"], "count")
        out["core.dataset_s"] = (s["core.dataset"], "s")
        out["core.load_csv_s"] = (s["core.load_csv"], "s")
        for part in ("select", "controls"):
            out[f"individualize.{part}_calls"] = (c[f"individualize.{part}"], "count")
            out[f"individualize.{part}_s"] = (s[f"individualize.{part}"], "s")
        out["dgp.suite_s"] = (s["dgp.suite"], "s")
        out["evaluate.score_s"] = (s["evaluate.score"], "s")
        out["evaluate.summary_s"] = (s["evaluate.summary"], "s")
        ms = sorted(self.cell_ms)
        out["runner.grid_calls"] = (grids, "count")
        out["runner.cells"] = (c["runner.cell"], "count")
        out["runner.cell_ms_p50"] = (_percentile(ms, 0.5), "ms")
        out["runner.cell_ms_p90"] = (_percentile(ms, 0.9), "ms")
        out["runner.outside_cells_s"] = (grid_seconds - s["runner.cell"], "s")
        out["trace.overhead_s"] = (grid_seconds - untraced_seconds, "s")
        return out


def _percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation percentile of an already sorted list."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)
