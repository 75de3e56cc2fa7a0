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
* the shared Monte Carlo sweep at n = 250,001 (three blocks, the last one
  partial): pf and CoV of crude MC on four-branch, and of ``pce_pf`` on a
  degree-3 PCE of the compare problem;
* FORM and FOSM on the compare problem and on four-branch;
* ``krig_fit`` on seeded 3-D and 6-D designs at kernel powers 2 and 1.5:
  lengthscales, objective, and the sums of mean and deviation over 1,000
  predicted rows;
* both PCE maps (physical to basis and back) on a vector with all five
  marginal families, independent and correlated;
* PCE predictions: the sum and the sum of squares of 1,000 predictions of
  a degree-4 expansion on that five-family independent vector, and
  ``pce_pf`` of a degree-6 expansion of the compare problem (correlated, so
  swept in standard normal space) at n = 250,001;
* 50 instrumental draws, with the sampler record, for two targets so rare
  that lock-step chains supply the draws: an exact linear surrogate at
  beta = 4.5 in standard normal space (one chain, with burn-in), and a
  linear surrogate on correlated non-gaussian inputs (eleven chains, whose
  starts and states are mapped between the spaces under a correlation).

It takes well under a minute on a two-core machine.
"""

from __future__ import annotations

import argparse
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
    ExperimentalDesign,
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
    krig_build,
    krig_fit,
    krig_pf_bounds,
    krig_predict_batch,
    metais_estimate,
    pce_fit_regression,
    pce_pf,
    physical_to_basis,
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
                       _squared_exponential((1.5, 1.5)))
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


def _sweeps(spec: dict) -> dict:
    n = 250_001
    mc = estimate_mc(benchmark_waarts(), standard_normal_vector(2), n, seed=0)
    ls, rv = cli._build_problem(spec["problem"])
    pce = pce_pf(_fitted_pce(rv, 3, lambda x: evaluate_batch(ls, x)), rv, n, seed=1)
    return {
        "mc_four_branch": {"pf": mc.pf, "cov": mc.cov, "n_failures": mc.extras["n_failures"]},
        "pce_compare": {"pf": pce.pf, "cov": pce.cov},
    }


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


def _pce_predict(spec: dict) -> dict:
    rv = RandomVector(_FIVE_MARGINALS)
    model = _fitted_pce(rv, 4, lambda x: x[:, 0] * x[:, 1] - x[:, 3] + np.sin(x[:, 2]) * x[:, 4])
    y = model.predict(rv.sample(1000, seed=4))
    ls, rv_c = cli._build_problem(spec["problem"])
    pce = pce_pf(_fitted_pce(rv_c, 6, lambda x: evaluate_batch(ls, x)), rv_c, 250_001, seed=2)
    return {
        "mixed_degree4": {"sum": np.sum(y), "sum_sq": np.sum(y * y)},
        "compare_degree6_pf": {"pf": pce.pf, "cov": pce.cov},
    }


def _squared_exponential(theta) -> CorrelationKernel:
    # Earlier versions of the package named the kernel kind before the
    # lengthscales; accepting both keeps the script runnable on either side.
    try:
        return CorrelationKernel(theta)
    except TypeError:
        return CorrelationKernel("squared_exponential", theta)


def _sample_with_record(model, rv, n, seed):
    # Earlier versions returned the sampler record only on request; asking
    # for it when the option exists keeps the script runnable on either side.
    try:
        return sample_instrumental(model, rv, n, seed=seed, return_stats=True)
    except TypeError:
        return sample_instrumental(model, rv, n, seed=seed)


def _instrumental_draws(ls, rv, n_design) -> dict:
    pts = initial_design(rv, n_design, seed=1)
    design = ExperimentalDesign(pts, evaluate_batch(ls, pts))
    model = krig_build(design, "linear", _squared_exponential((2.0,) * rv.dimension))
    xs, stats = _sample_with_record(model, rv, 50, seed=31)
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
        "sweeps": _sweeps(spec),
        "gradient_compare": _gradient_methods(*cli._build_problem(spec["problem"])),
        "gradient_four_branch": _gradient_methods(benchmark_waarts(), standard_normal_vector(2)),
        "kriging_fits_nd": _kriging_fits_nd(),
        "pce_maps": _pce_maps(),
        "pce_predict": _pce_predict(spec),
        "rare_instrumental": _rare_instrumental(),
    }
    json.dump(_hex(doc), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
