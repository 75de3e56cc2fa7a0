"""Print a JSON fingerprint of seeded reliakit outputs, every float in hex.

Usage, from the root of a checkout::

    python3 tools/fingerprint.py > fingerprint.json
    python3 tools/fingerprint.py --compare A.json B.json

The package is imported from the checkout's own ``src/``, so running the
script in two trees and comparing the outputs shows exactly which seeded
numbers a change moves.  Floats are printed with ``float.hex`` so that a
last-bit difference shows up.  ``--compare`` prints one line per top-level
entry: ``identical``, or how many floats differ with the largest relative
change and where it is, and the paths of any other values that differ
(counts, stop reasons, sampler names, lists of another length).  It exits
0 when every entry is identical and 1 otherwise.  Covered:

* meta-IS on four-branch at the benchmark settings (n_corr 200, budget 48,
  8 clusters, tol 0) for two seeds, and on a fixed surrogate passed as
  ``model`` (constant trend, lengthscales 1.5, 30 space-filling points),
  which skips the DoE; each result carries its sampler record;
* AK-MCS on four-branch with a 2e4 pool, and two surrogate sweeps on its
  model that span several sampling blocks: the pf band at n = 1e6 and
  pf_epsilon at n = 2.5e5;
* the ``reliakit compare`` CSV on ``perfbench/compare_physical.json`` at
  seed 0;
* the ``reliakit run`` JSON of every method, with the ``pce``
  ``target_error`` path and the ``is`` ``gaussian_centered`` instrumental,
  on the 3-D linear benchmark (beta 2.5) at seed 1 and small sizes, each
  with its exit code and its summary line;
* the shared Monte Carlo sweep at n = 250,001 (three blocks, the last one
  partial): pf and CoV of crude MC on four-branch, and of ``pce_pf`` on a
  degree-3 PCE of the compare problem;
* FORM and FOSM on the compare problem and on four-branch;
* FORM's stalled line search: on ``3 - x1 if x1 < 0.001 else 10`` in 2-D
  every merit trial from the origin fails, so the search takes its 1/128
  step; no start converges, and the ``IterationError``'s last iterate and
  the ledger count are kept;
* ``kernel_cross`` alone on seeded blocks of 48 by 20,000 rows (2-D at
  power 2, 6-D at power 1.5, 1-D at power 1): the sum, the first and the
  last entry, so that a kernel edit shows its roundoff in one entry before
  it spreads through the fits and sweeps;
* ``krig_fit`` on seeded 3-D and 6-D designs at kernel powers 2 and 1.5:
  lengthscales, objective, and the sums of mean and deviation over 1,000
  predicted rows;
* both PCE maps (physical to basis and back) on a vector with all five
  marginal families, independent and correlated;
* PCE predictions: the sum and the sum of squares of 1,000 predictions of
  a degree-4 expansion on that five-family independent vector, and
  ``pce_pf`` of a degree-6 expansion of the compare problem (correlated, so
  swept in standard normal space) at n = 250,001;
* the PCE sum alone (``PceModel._at_basis``) on 50,001 seeded basis-space
  rows, several tiles with the last one partial: its sum and sum of
  squares for that degree-6 compare expansion (on standard normal germ
  rows) and that degree-4 five-family expansion, so that a change to how
  the sum is taken shows in one entry even where a pf count does not move;
* the two least-squares fits on seeded Latin-hypercube designs: the
  quadratic surface with and without cross terms on four-branch (18
  points) and with them on the compare problem (45 points), and the
  chaos expansion at degree 3 on four-branch and at degree 6 on the
  compare problem; each with its coefficients and its diagnostics
  (``cond``, ``r_squared`` or ``empirical_error``, ``loo_error``), so
  that an edit to the shared solve shows at bit level;
* 50 instrumental draws, with the sampler record, for two targets so rare
  that lock-step chains supply the draws: an exact linear surrogate at
  beta = 4.5 in standard normal space (one chain, with burn-in), and a
  linear surrogate on correlated non-gaussian inputs (eleven chains, whose
  starts and states are mapped between the spaces under a correlation);
* ``joint_pdf`` of the correlated vector of
  ``perfbench/compare_physical.json`` on 1,000 seeded rows, and of a
  standard Gaussian pair at correlation 0.6 on the diagonal rows (k, k)
  for k = 0, 1, ..., 10, so that the copula factor shows its upper tail;
* every ``Marginal`` function (pdf, cdf, sf, quantile, mean, std and
  support) for the five families, with a gamma shape below 1 and beta
  shapes (2, 5), (0.5, 0.5) and (2.5, 3.5): at 200 seeded interior points,
  at, below and above each end of the support, and at the quantile's edges
  0, 1, 5e-324 and 1e-300;
* ``evaluate_batch`` of one expression limit state per kind of node the
  parser accepts (arithmetic, ``%``, ``^``, unary minus, chained
  comparisons, a conditional, ``min``/``max`` with three arguments and with
  a tuple, each function, named parameters, ``pi``/``e``, and a constant)
  on 500 seeded rows, so that a last-bit move of a numpy ufunc against
  ``math`` shows up.

It takes well under a minute on a two-core machine.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from reliakit import (  # noqa: E402
    ConditioningError,
    CorrelationKernel,
    EvalLedger,
    ExperimentalDesign,
    IterationError,
    LimitState,
    Marginal,
    RandomVector,
    ak_mcs,
    basis_for,
    basis_to_physical,
    benchmark_linear,
    benchmark_waarts,
    cornell_index,
    estimate_mc,
    estimate_pf_epsilon,
    evaluate_batch,
    form,
    initial_design,
    kernel_cross,
    krig_build,
    krig_fit,
    krig_pf_bounds,
    krig_predict_batch,
    limit_state_from_expression,
    metais_estimate,
    pce_fit_regression,
    pce_pf,
    physical_to_basis,
    qrs_fit,
    sample_instrumental,
    standard_normal_vector,
)
from reliakit import cli  # noqa: E402

COMPARE_CONFIG = ROOT / "perfbench" / "compare_physical.json"


def _hex(v):
    """The same structure with every float as its exact hex string."""
    if isinstance(v, (float, np.floating)):
        return float(v).hex()
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.ndarray):
        return _hex(v.tolist())
    if isinstance(v, dict):
        return {str(k): _hex(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_hex(x) for x in v]
    return v


def _gradient_methods(ls, rv) -> dict:
    out = {}
    for name, method in (("fosm", cornell_index), ("form", form)):
        try:
            res = method(ls, rv)
        except ConditioningError as exc:  # FOSM on four-branch: zero gradient at the mean
            out[name] = {"error": f"{type(exc).__name__}: {exc}"}
        else:
            out[name] = {"pf": res.pf, "n_calls": res.n_calls, "extras": res.extras}
    return out


def _form_stalled() -> dict:
    # from the origin every merit trial fails, so the line search ends on its 1/128 step
    ls = limit_state_from_expression("3 - x1 if x1 < 0.001 else 10", 2)
    ledger = EvalLedger()
    try:
        form(ls, standard_normal_vector(2), ledger=ledger)
    except IterationError as exc:
        return {"last_iterate": exc.last_iterate, "n_calls": ledger.count}
    raise AssertionError("FORM converged where g has no zero")


def _metais(seed: int) -> dict:
    res = metais_estimate(
        benchmark_waarts(),
        standard_normal_vector(2),
        n_corr=200,
        budget=48,
        n_clusters=8,
        tol=0.0,
        seed=seed,
    )
    return res.to_dict()


def _metais_prebuilt() -> dict:
    rv = standard_normal_vector(2)
    ls = benchmark_waarts()
    pts = initial_design(rv, 30, seed=2)
    model = krig_build(ExperimentalDesign(pts, evaluate_batch(ls, pts)), "constant",
                       CorrelationKernel((1.5, 1.5)))
    return metais_estimate(ls, rv, n_corr=200, model=model, seed=3).to_dict()


def _akmcs() -> dict:
    rv = standard_normal_vector(2)
    res = ak_mcs(benchmark_waarts(), rv, n_pool=20_000, seed=0)
    return {
        "pf_bounds_1e6": krig_pf_bounds(res.model, rv, n=1_000_000, seed=0),
        "pf_epsilon_2p5e5": estimate_pf_epsilon(res.model, rv, n_eps=250_000, seed=0),
        "n_calls": res.n_calls,
        "converged": res.converged,
        "stop_reason": res.stop_reason,
        "trace": res.trace,
        "theta": res.model.kernel.theta,
        "design": res.model.design.points,
        "responses": res.model.design.responses,
    }


def _compare_csv(spec: dict) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "compare.json"
        cfg.write_text(json.dumps({"problem": spec["problem"], "methods": spec["methods"]}))
        out = Path(tmp) / "compare.csv"
        code = cli.main(["compare", "--config", str(cfg), "--seed", "0", "--output", str(out)])
        return [f"exit {code}"] + out.read_text().splitlines()


_RUN_METHODS = {
    "mc": {"name": "mc", "n": 20_000},
    "is": {"name": "is", "n": 5000},
    "is_gaussian_centered": {
        "name": "is",
        "n": 5000,
        "instrumental": {"type": "gaussian_centered", "center": [1.44, 1.44, 1.44]},
    },
    "fosm": {"name": "fosm"},
    "form": {"name": "form"},
    "qrs": {"name": "qrs", "n_surrogate": 100_000},
    "pce": {"name": "pce", "n_surrogate": 100_000},
    "pce_target_error": {"name": "pce", "target_error": 0.01, "p_max": 4, "n_surrogate": 100_000},
    "ak": {"name": "ak", "n_pool": 5000, "n_bounds": 100_000},
    "metais": {
        "name": "metais", "n_epsilon": 20_000, "n_corr": 100, "budget": 40, "n_bounds": 10_000,
    },
}


def _cli_run() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        cfg, res = Path(tmp) / "run.json", Path(tmp) / "result.json"
        problem = {"benchmark": "linear", "beta0": 2.5, "dimension": 3}
        for label, method in _RUN_METHODS.items():
            cfg.write_text(json.dumps({"problem": problem, "method": method}))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["run", "--config", str(cfg), "--seed", "1", "--output", str(res)])
            record = json.loads(res.read_text())
            out[label] = {"exit": code, "stderr": err.getvalue(), "record": record}
    return out


def _sweeps(spec: dict) -> dict:
    n = 250_001
    mc = estimate_mc(benchmark_waarts(), standard_normal_vector(2), n, seed=0)
    ls, rv = cli._build_problem(spec["problem"])
    pce = pce_pf(_fitted_pce(rv, 3, lambda x: evaluate_batch(ls, x)), n, seed=1)
    return {
        "mc_four_branch": {"pf": mc.pf, "cov": mc.cov, "n_failures": mc.extras["n_failures"]},
        "pce_compare": {"pf": pce.pf, "cov": pce.cov},
    }


def _kernel() -> dict:
    out = {}
    for m, power in ((2, 2.0), (6, 1.5), (1, 1.0)):
        rng = np.random.default_rng(m)
        kern = CorrelationKernel(tuple(rng.uniform(0.3, 3.0, m)), power)
        r = kernel_cross(kern, rng.normal(size=(48, m)), rng.normal(size=(20_000, m)))
        out[f"m{m}_power{power}"] = {"sum": np.sum(r), "first": r[0, 0], "last": r[-1, -1]}
    return out


def _kriging_fits_nd() -> dict:
    out = {}
    for m in (3, 6):
        rng = np.random.default_rng(m)
        x = rng.uniform(-2.0, 2.0, size=(8 * m, m))
        design = ExperimentalDesign(x, np.sin(x[:, 0]) + 0.3 * np.sum(x**2, axis=1))
        xs = rng.uniform(-2.0, 2.0, size=(1000, m))
        for power in (2.0, 1.5):
            model = krig_fit(design, power=power, seed=0)
            mu, sd = krig_predict_batch(model, xs)
            out[f"m{m}_power{power}"] = {
                "theta": model.kernel.theta,
                "objective": model.diagnostics["objective"],
                "mean_sum": np.sum(mu),
                "sd_sum": np.sum(sd),
            }
    return out


_FIVE_MARGINALS = (
    Marginal.gaussian(1.0, 2.0),
    Marginal.uniform(-1.0, 3.0),
    Marginal.lognormal(0.5, 0.2),
    Marginal.gamma(3.0, 0.5),
    Marginal.beta(2.0, 5.0, 1.0, 4.0),
)


def _marginals() -> dict:
    rng = np.random.default_rng(8)
    margs = _FIVE_MARGINALS + (
        Marginal.gamma(0.6, 1.5), Marginal.beta(0.5, 0.5), Marginal.beta(2.5, 3.5, 2.0, 5.0),
    )
    out = {}
    for marg in margs:
        q = rng.random(200)
        lo, hi = marg.support
        x = np.concatenate([marg.quantile(q), [lo, hi, lo - 1.0, hi + 1.0, lo + 1e-3, hi - 1e-3]])
        out[f"{marg.family}{list(marg.params)}"] = {
            "pdf": marg.pdf(x),
            "cdf": marg.cdf(x),
            "sf": marg.sf(x),
            "quantile": marg.quantile(np.concatenate([q, [0.0, 1.0, 5e-324, 1e-300]])),
            "mean": marg.mean(),
            "std": marg.std(),
            "support": marg.support,
        }
    return out


def _pce_maps() -> dict:
    corr = np.eye(5)
    corr[0, 3] = corr[3, 0] = 0.4
    corr[1, 4] = corr[4, 1] = -0.3
    out = {}
    for label, rv in (("independent", RandomVector(_FIVE_MARGINALS)),
                      ("correlated", RandomVector(_FIVE_MARGINALS, corr))):
        x = rv.sample(40, seed=3)
        xi = physical_to_basis(rv, x)
        out[label] = {
            "families": [[f.kind, f.alpha, f.beta] for f in basis_for(rv, 1).families],
            "to_basis": xi,
            "to_physical": basis_to_physical(rv, xi),
            "single_point": basis_to_physical(rv, physical_to_basis(rv, x[:1])),
        }
    return out


def _fitted_pce(rv, degree, response):
    basis = basis_for(rv, degree)
    pts = rv.sample(2 * basis.size, scheme="latin_hypercube", seed=0)
    return pce_fit_regression(rv, basis, ExperimentalDesign(pts, response(pts)))


def _mixed_response(x):
    return x[:, 0] * x[:, 1] - x[:, 3] + np.sin(x[:, 2]) * x[:, 4]


def _pce_predict(spec: dict) -> dict:
    rv = RandomVector(_FIVE_MARGINALS)
    model = _fitted_pce(rv, 4, _mixed_response)
    y = model.predict(rv.sample(1000, seed=4))
    ls, rv_c = cli._build_problem(spec["problem"])
    pce = pce_pf(_fitted_pce(rv_c, 6, lambda x: evaluate_batch(ls, x)), 250_001, seed=2)
    return {
        "mixed_degree4": {"sum": np.sum(y), "sum_sq": np.sum(y * y)},
        "compare_degree6_pf": {"pf": pce.pf, "cov": pce.cov},
    }


def _pce_tiles(spec: dict) -> dict:
    rv = RandomVector(_FIVE_MARGINALS)
    mixed = _fitted_pce(rv, 4, _mixed_response)
    ls, rv_c = cli._build_problem(spec["problem"])
    compare = _fitted_pce(rv_c, 6, lambda x: evaluate_batch(ls, x))
    out = {}
    for label, model, xi in (
        ("compare_degree6", compare, np.random.default_rng(6).standard_normal((50_001, 4))),
        ("mixed_degree4", mixed, physical_to_basis(rv, rv.sample(50_001, seed=6))),
    ):
        y = model._at_basis(xi)
        out[label] = {"sum": np.sum(y), "sum_sq": np.sum(y * y)}
    return out


def _lsq_fits(spec: dict) -> dict:
    four = (benchmark_waarts(), standard_normal_vector(2))
    compare = cli._build_problem(spec["problem"])
    out = {}
    for label, (ls, rv), n, cross in (
        ("qrs_four_branch", four, 18, True),
        ("qrs_four_branch_no_cross", four, 18, False),
        ("qrs_compare", compare, 45, True),
    ):
        pts = rv.sample(n, scheme="latin_hypercube", seed=0)
        surf = qrs_fit(pts, evaluate_batch(ls, pts), include_cross=cross)
        out[label] = {"coefficients": surf.coefficients(cross), "diagnostics": surf.diagnostics}
    for label, (ls, rv), degree in (("pce_four_branch_degree3", four, 3),
                                    ("pce_compare_degree6", compare, 6)):
        model = _fitted_pce(rv, degree, lambda x: evaluate_batch(ls, x))
        out[label] = {"coefficients": model.coefficients, "diagnostics": model.diagnostics}
    return out


def _instrumental_draws(ls, rv, n_design) -> dict:
    pts = initial_design(rv, n_design, seed=1)
    design = ExperimentalDesign(pts, evaluate_batch(ls, pts))
    model = krig_build(design, "linear", CorrelationKernel((2.0,) * rv.dimension))
    xs, stats = sample_instrumental(model, rv, 50, seed=31)
    return {"draws": xs, "stats": stats}


def _rare_instrumental() -> dict:
    corr = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, -0.3], [0.2, -0.3, 1.0]])
    rv = RandomVector(
        (Marginal.gaussian(0.0, 1.0), Marginal.lognormal(0.0, 0.3), Marginal.gaussian(1.0, 2.0)),
        corr,
    )
    ls = LimitState(3, vector_evaluator=lambda x: 5.3 - (x[:, 0] + 0.5 * x[:, 2]) / 1.2)
    return {
        "linear_beta_4p5": _instrumental_draws(
            benchmark_linear(4.5, dimension=2), standard_normal_vector(2), 12
        ),
        "correlated": _instrumental_draws(ls, rv, 20),
    }


def _joint_pdf(spec: dict) -> dict:
    _, rv = cli._build_problem(spec["problem"])
    pair = RandomVector((Marginal.gaussian(0.0, 1.0),) * 2, np.array([[1.0, 0.6], [0.6, 1.0]]))
    k = np.arange(11.0)
    return {
        "compare_vector": rv.joint_pdf(rv.sample(1000, seed=5)),
        "gaussian_pair_diagonal": pair.joint_pdf(np.column_stack([k, k])),
    }


_EXPRESSIONS = {
    "arithmetic": "x1 + 2*x2 - x3 / 3 * (x1 - k)",
    "mod": "x1 % 0.7 - x2 % -1.3",
    "power": "x1^2 + abs(x2)^0.5 + abs(x3)^1.7 - abs(x1)^x2",
    "unary_minus": "-x1 + -(x2 < 0) - +x3",
    "chained_comparison": "(0 < x1 < 1) + (x1 <= x2 >= x3 > -1)",
    "conditional": "sqrt(x1) if x1 > 0 else x3 * k",
    "min_max": "min(x1, x2, x3) + max((x1, x2, x3))",
    "sqrt_abs": "sqrt(abs(x1)) + abs(x2)",
    "exp": "exp(x1 / 2)",
    "log": "log(abs(x2) + 1) + log(abs(x3) + 2, 10)",
    "trig": "sin(x3) + cos(x1) + tan(x2 / 2) + atan(x3)",
    "constants": "pi * x1 + e * k",
    "constant_only": "2 * pi - k",
}


def _expressions() -> dict:
    xs = np.random.default_rng(27).normal(size=(500, 3)) * [2.0, 1.0, 3.0]
    return {
        label: evaluate_batch(limit_state_from_expression(expr, 3, params={"k": 2.5}), xs)
        for label, expr in _EXPRESSIONS.items()
    }


_HEX_FLOAT = re.compile(r"-?(0x[0-9a-f]+(\.[0-9a-f]*)?p[+-]\d+|inf|nan)")


def _as_float(v):
    """The float a fingerprint value encodes, or None when it encodes none."""
    if isinstance(v, str) and _HEX_FLOAT.fullmatch(v):
        return float.fromhex(v)
    return None


def _diff(a, b, path: str, out: dict) -> None:
    """Walk two fingerprint values in step, tallying float changes and other differences."""
    fa, fb = _as_float(a), _as_float(b)
    if fa is not None and fb is not None:
        out["n_floats"] += 1
        if fa != fb and not (math.isnan(fa) and math.isnan(fb)):
            finite = math.isfinite(fa) and math.isfinite(fb)
            rel = abs(fa - fb) / max(abs(fa), abs(fb)) if finite else math.inf
            out["changed"].append((rel, path))
    elif isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(a.keys() | b.keys()):
            if k in a and k in b:
                _diff(a[k], b[k], f"{path}.{k}", out)
            else:
                out["other"].append(f"{path}.{k}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            _diff(x, y, f"{path}[{i}]", out)
    elif a != b:
        out["other"].append(path)


def compare(path_a: str, path_b: str) -> int:
    """Print one line per top-level entry of two fingerprints; 0 when all are identical."""
    doc_a = json.loads(Path(path_a).read_text())
    doc_b = json.loads(Path(path_b).read_text())
    status = 0
    for key in sorted(doc_a.keys() | doc_b.keys()):
        if key not in doc_a or key not in doc_b:
            print(f"{key}: only in {path_a if key in doc_a else path_b}")
            status = 1
            continue
        out = {"n_floats": 0, "changed": [], "other": []}
        _diff(doc_a[key], doc_b[key], "", out)
        if not out["changed"] and not out["other"]:
            print(f"{key}: identical")
            continue
        status = 1
        line = f"{key}: {len(out['changed'])} of {out['n_floats']} floats differ"
        if out["changed"]:
            rel, where = max(out["changed"])
            line += f", max rel {rel:.2g} at {where}"
        other = out["other"]
        shown = ", ".join(other[:5]) + (f" (+{len(other) - 5} more)" if len(other) > 5 else "")
        print(f"{line}; non-float: {shown or 'none'}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Print, or compare, fingerprints of seeded outputs.")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two fingerprint files instead of computing one")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    spec = json.loads(COMPARE_CONFIG.read_text())
    doc = {
        "metais_seed0": _metais(0),
        "metais_seed1": _metais(1),
        "metais_prebuilt": _metais_prebuilt(),
        "akmcs": _akmcs(),
        "compare_csv": _compare_csv(spec),
        "cli_run": _cli_run(),
        "sweeps": _sweeps(spec),
        "gradient_compare": _gradient_methods(*cli._build_problem(spec["problem"])),
        "gradient_four_branch": _gradient_methods(benchmark_waarts(), standard_normal_vector(2)),
        "form_stalled": _form_stalled(),
        "kernel": _kernel(),
        "kriging_fits_nd": _kriging_fits_nd(),
        "marginals": _marginals(),
        "pce_maps": _pce_maps(),
        "pce_predict": _pce_predict(spec),
        "pce_tiles": _pce_tiles(spec),
        "lsq_fits": _lsq_fits(spec),
        "rare_instrumental": _rare_instrumental(),
        "joint_pdf": _joint_pdf(spec),
        "expression": _expressions(),
    }
    json.dump(_hex(doc), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
