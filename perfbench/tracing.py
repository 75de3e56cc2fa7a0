"""Span tracing of reliakit from outside the library.

:meth:`Tracer.install` wraps every public function of each reliakit
module and a few class methods, and rebinds each wrapper under every name
a caller can resolve: the defining module, each ``from .x import y`` copy
in a sibling module and the package namespace.  Each call records a span
(name, start, end, parent span, estimate id) in memory; :meth:`Tracer.save`
writes them when the run ends.  Some wrappers also count work at the
boundary: rows predicted, points sampled, sampler target evaluations, and
the numerical fallbacks recorded on fitted surrogates.

The layer of a span is the module that defines the wrapped function, so a
layer's self time is the time its own code ran, net of the calls it made
into any traced function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = (
    "probmodel",
    "limitstate",
    "estimators",
    "response_surface",
    "pce",
    "kriging",
    "mcmc",
    "metais",
    "cli",
)

# Methods traced besides the module-level public functions.
METHODS = {
    "probmodel": {"RandomVector": ("sample", "from_standard", "to_standard", "joint_pdf")},
    "response_surface": {"QuadraticSurface": ("predict",)},
    "pce": {"PceModel": ("predict",)},
}

# Private cli steps that the cli metrics split the command into.
CLI_STEPS = ("_load_config", "_build_problem", "_apply_overrides", "_run_method", "_result_csv_rows")


class TraceCoverageError(RuntimeError):
    """An original function is still reachable after the wrappers went in."""


def _rows(x) -> int:
    shape = np.shape(x)
    return shape[0] if len(shape) == 2 else 1


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """In-memory span store plus the counters the wrappers update."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.est: list[int] = []
        self._stack: list[int] = []
        self.estimate = -1
        self.counts: Counter = Counter()
        self.fit_design_size_max = 0
        self.fitted: list = []
        self._installed: list[tuple[object, str, object]] = []
        self.originals: dict[int, str] = {}

    # -- spans -------------------------------------------------------------

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, nid: int, fn, args, kwargs):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.est.append(self.estimate)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()

    def end_estimate(self):
        """Tally the fallbacks recorded on the surrogates fitted so far.

        Variance clamps are written onto a model while it predicts, so the
        tally waits until the estimate that used the models is over.
        """
        from reliakit import kriging

        for model in self.fitted:
            diag = model.diagnostics
            self.counts["kriging.at_bounds_fits"] += bool(diag.get("at_bounds"))
            self.counts["kriging.variance_clamps"] += "variance_clamp" in diag
            self.counts["kriging.nugget_escalations"] += model.nugget > kriging._NUGGET_START
        self.fitted.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int32),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "estimate": np.asarray(self.est, dtype=np.int32),
        }

    def save(self, path) -> None:
        """Write every span, with the name table, as one ``.npz`` file."""
        np.savez(path, names=np.asarray(self.names), **self.arrays())

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, layer: str, qualname: str, fn):
        """Span wrapper for ``fn``, with the counters its boundary carries."""
        base = f"{layer}.{qualname}"
        nid = self.intern(base)
        call = self.call
        counts = self.counts

        if base in ("kriging.krig_predict_batch", "kriging.krig_predict"):
            point = self.intern("kriging.predict_point")
            bulk = self.intern("kriging.predict_bulk")

            def wrapper(*args, **kwargs):
                rows = _rows(_arg(args, kwargs, 1, "xs" if base.endswith("batch") else "x"))
                if rows > 1:
                    counts["kriging.predict_bulk_points"] += rows
                    return call(bulk, fn, args, kwargs)
                return call(point, fn, args, kwargs)

        elif base == "probmodel.RandomVector.from_standard":
            point = self.intern(base + ":point")
            bulk = self.intern(base + ":bulk")

            def wrapper(*args, **kwargs):
                return call(point if _rows(_arg(args, kwargs, 1, "u")) == 1 else bulk, fn, args, kwargs)

        elif base == "limitstate.evaluate_batch":
            scalar = self.intern(base + ":scalar")

            def wrapper(*args, **kwargs):
                rows = _rows(_arg(args, kwargs, 1, "xs"))
                counts["limitstate.evaluate_points"] += rows
                if _arg(args, kwargs, 0, "ls").vector_evaluator is None:
                    counts["limitstate.evaluate_scalar_points"] += rows
                    return call(scalar, fn, args, kwargs)
                return call(nid, fn, args, kwargs)

        elif base in ("probmodel.RandomVector.sample", "pce.PceModel.predict"):
            sized = base.endswith(".sample")
            counter = "probmodel.sample_points" if sized else "pce.predict_points"

            def wrapper(*args, **kwargs):
                arg = _arg(args, kwargs, 1, "n" if sized else "x")
                counts[counter] += int(arg) if sized else _rows(arg)
                return call(nid, fn, args, kwargs)

        elif base == "mcmc.slice_sample":

            def wrapper(log_target, *args, **kwargs):
                def counted(pt):
                    counts["mcmc.target_evals"] += 1
                    return log_target(pt)

                counts["mcmc.draws"] += int(_arg(args, kwargs, 1, "n_samples"))
                return call(nid, fn, (counted,) + args, kwargs)

        elif base == "kriging.krig_fit":

            def wrapper(*args, **kwargs):
                self.fit_design_size_max = max(self.fit_design_size_max, _arg(args, kwargs, 0, "design").size)
                model = call(nid, fn, args, kwargs)
                self.fitted.append(model)
                return model

        elif base in ("kriging.ak_mcs", "kriging.adaptive_margin_design", "estimators.form",
                      "metais.metais_estimate"):

            def wrapper(*args, **kwargs):
                res = call(nid, fn, args, kwargs)
                if base == "kriging.ak_mcs":
                    counts["kriging.ak_iterations"] += len(res.trace)
                elif base == "kriging.adaptive_margin_design":
                    counts["kriging.margin_iterations"] += len(res.trace)
                elif base == "estimators.form":
                    counts["estimators.form_calls"] += res.n_calls
                else:
                    counts["metais.doe_calls"] += res.n_model_calls_doe
                    counts["metais.corr_calls"] += res.n_model_calls_corr
                return res

        elif base == "cli._run_method":
            by_method: dict[str, int] = {}

            def wrapper(*args, **kwargs):
                name = _arg(args, kwargs, 2, "method")["name"]
                if name not in by_method:
                    by_method[name] = self.intern(f"{base}:{name}")
                return call(by_method[name], fn, args, kwargs)

        else:

            def wrapper(*args, **kwargs):
                return call(nid, fn, args, kwargs)

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Wrap and rebind every traced callable, then verify coverage."""
        layers = {layer: importlib.import_module(f"reliakit.{layer}") for layer in LAYERS}
        modules = [m for n, m in list(sys.modules.items()) if n == "reliakit" or n.startswith("reliakit.")]
        wrappers: dict[int, object] = {}
        for layer, mod in layers.items():
            names = list(getattr(mod, "__all__", ()))
            if layer == "cli":
                names += CLI_STEPS
            for name in names:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(layer, name, fn)
                    self.originals[id(fn)] = f"{mod.__name__}.{name}"
            for cls_name, meths in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in meths:
                    fn = cls.__dict__[meth]
                    self._installed.append((cls, meth, fn))
                    setattr(cls, meth, self._wrap(layer, f"{cls_name}.{meth}", fn))
                    self.originals[id(fn)] = f"{mod.__name__}.{cls_name}.{meth}"
        for mod in modules:
            for name, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    self._installed.append((mod, name, val))
                    setattr(mod, name, wrappers[id(val)])
        self.check_coverage(modules)

    def check_coverage(self, modules) -> None:
        """Raise if any reliakit namespace or class still holds an original."""
        left = []
        for mod in modules:
            for name, val in vars(mod).items():
                if id(val) in self.originals:
                    left.append(f"{mod.__name__}.{name}")
                if inspect.isclass(val) and val.__module__.startswith("reliakit"):
                    for attr, member in vars(val).items():
                        member = getattr(member, "__func__", member)
                        if id(member) in self.originals:
                            left.append(f"{mod.__name__}.{name}.{attr}")
        if left:
            raise TraceCoverageError("untraced references remain: " + ", ".join(sorted(set(left))))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()


def _percentile_us(durations: np.ndarray, q: float) -> float:
    return float(np.percentile(durations, q) * 1e6) if durations.size else 0.0


def layer_metrics(tracer: Tracer, n_estimates: int, wall_s: float) -> dict[str, float]:
    """Per-layer metrics, per traced estimate, from the spans and counters.

    ``wall_s`` is the traced estimates' total wall time; the part of it no
    root span covers is time spent outside every traced function.
    """
    a = tracer.arrays()
    nid = a["name_id"]
    dur = a["end"] - a["start"]
    parent = a["parent"]
    has_parent = parent >= 0
    child = np.zeros_like(dur)
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    parent_nid = np.where(has_parent, nid[np.maximum(parent, 0)], -1)
    layer_of = np.asarray([n.split(".", 1)[0] for n in tracer.names] + [""])
    layer = layer_of[nid]
    per = 1.0 / max(n_estimates, 1)

    def ids(spans):
        return [tracer._ids[s] for s in spans if s in tracer._ids]

    def mask(*spans):
        return np.isin(nid, ids(spans))

    def incl(*spans) -> float:
        # a span nested in another of the same set is already inside it
        m = mask(*spans) & ~np.isin(parent_nid, ids(spans))
        return float(dur[m].sum()) * per

    def calls(*spans) -> float:
        return float(mask(*spans).sum()) * per

    def count(key) -> float:
        return tracer.counts[key] * per

    point = dur[mask("kriging.predict_point")]
    fs_point = dur[mask("probmodel.RandomVector.from_standard:point")]
    fit_calls = calls("kriging.krig_fit")
    fit_s = incl("kriging.krig_fit")
    bulk_points = count("kriging.predict_bulk_points")
    bulk_s = incl("kriging.predict_bulk")
    eval_points = count("limitstate.evaluate_points")
    eval_s = incl("limitstate.evaluate_batch", "limitstate.evaluate_batch:scalar")
    scalar_points = count("limitstate.evaluate_scalar_points")
    scalar_s = incl("limitstate.evaluate_batch:scalar")
    draws = tracer.counts["mcmc.draws"]

    out = {
        "metais.doe_s": incl("kriging.adaptive_margin_design"),
        "metais.pf_epsilon_s": incl("metais.estimate_pf_epsilon"),
        "metais.instrumental_s": incl("metais.sample_instrumental"),
        "metais.alpha_corr_s": incl("metais.estimate_alpha_corr"),
        "metais.doe_calls": count("metais.doe_calls"),
        "metais.corr_calls": count("metais.corr_calls"),
        "mcmc.slice_calls": calls("mcmc.slice_sample"),
        "mcmc.target_evals": count("mcmc.target_evals"),
        "mcmc.evals_per_draw": tracer.counts["mcmc.target_evals"] / draws if draws else 0.0,
        "kriging.fit_calls": fit_calls,
        "kriging.fit_s": fit_s,
        "kriging.fit_ms_per_call": 1e3 * fit_s / fit_calls if fit_calls else 0.0,
        "kriging.fit_design_size_max": float(tracer.fit_design_size_max),
        "kriging.predict_point_calls": calls("kriging.predict_point"),
        "kriging.predict_point_s": incl("kriging.predict_point"),
        "kriging.predict_point_p50_us": _percentile_us(point, 50),
        "kriging.predict_point_p99_us": _percentile_us(point, 99),
        "kriging.predict_bulk_points": bulk_points,
        "kriging.predict_bulk_s": bulk_s,
        "kriging.predict_bulk_us_per_point": 1e6 * bulk_s / bulk_points if bulk_points else 0.0,
        "kriging.pf_bounds_s": incl("kriging.krig_pf_bounds"),
        "kriging.enrich_margin_self_s": float(self_time[mask("kriging.enrich_margin")].sum()) * per,
        "kriging.ak_iterations": count("kriging.ak_iterations"),
        "kriging.margin_iterations": count("kriging.margin_iterations"),
        "kriging.nugget_escalations": count("kriging.nugget_escalations"),
        "kriging.at_bounds_fits": count("kriging.at_bounds_fits"),
        "kriging.variance_clamps": count("kriging.variance_clamps"),
        "probmodel.sample_points": count("probmodel.sample_points"),
        "probmodel.sample_s": incl("probmodel.RandomVector.sample"),
        "probmodel.from_standard_point_calls": calls("probmodel.RandomVector.from_standard:point"),
        "probmodel.from_standard_point_p50_us": _percentile_us(fs_point, 50),
        "probmodel.from_standard_bulk_s": incl("probmodel.RandomVector.from_standard:bulk"),
        "probmodel.to_standard_s": incl("probmodel.RandomVector.to_standard"),
        "probmodel.joint_pdf_s": incl("probmodel.RandomVector.joint_pdf"),
        "limitstate.evaluate_batches": calls("limitstate.evaluate_batch", "limitstate.evaluate_batch:scalar"),
        "limitstate.evaluate_points": eval_points,
        "limitstate.evaluate_s": eval_s,
        "limitstate.evaluate_us_per_point": 1e6 * eval_s / eval_points if eval_points else 0.0,
        "limitstate.evaluate_scalar_points": scalar_points,
        "limitstate.evaluate_scalar_us_per_point": 1e6 * scalar_s / scalar_points if scalar_points else 0.0,
        "estimators.mc_s": incl("estimators.estimate_mc"),
        "estimators.form_s": incl("estimators.form"),
        "estimators.form_calls": count("estimators.form_calls"),
        "response_surface.fit_s": incl("response_surface.qrs_fit"),
        "response_surface.predict_s": incl("response_surface.QuadraticSurface.predict"),
        "pce.fit_s": incl("pce.pce_fit_regression", "pce.pce_fit_projection", "pce.pce_adaptive"),
        "pce.predict_points": count("pce.predict_points"),
        "pce.predict_s": incl("pce.PceModel.predict"),
        "pce.pf_s": incl("pce.pce_pf"),
        "cli.load_s": incl("cli._load_config") + incl("cli._build_problem"),
        "cli.method_mc_s": incl("cli._run_method:mc"),
        "cli.method_form_s": incl("cli._run_method:form"),
        "cli.method_qrs_s": incl("cli._run_method:qrs"),
        "cli.method_pce_s": incl("cli._run_method:pce"),
        "cli.output_s": incl("cli._result_csv_rows"),
    }
    for name in LAYERS:
        out[f"{name}.self_s"] = float(self_time[layer == name].sum()) * per
    out["trace.unattributed_s"] = (wall_s - float(dur[~has_parent].sum())) * per
    return out
