"""Print, as JSON, how seeded meta-IS estimates and rare-event draws match their exact laws.

Usage, from the root of a checkout::

    python3 tools/coverage.py --settings paper --seeds 0-29 > coverage.json
    python3 tools/coverage.py --settings bench --seeds 0-39
    python3 tools/coverage.py --seeds 0,1,5,7
    python3 tools/coverage.py --case sampler --seeds 0-99

The package is imported from the checkout's own ``src/``, so running the
script in two trees compares them on the same seeds.

The default case, ``metais``, runs ``metais_estimate`` per seed on
four-branch (``benchmark_waarts``, standard normal inputs in 2-D) at one
of two settings:

* ``paper``: n_corr 200 and a DoE budget of 100, every other option at its
  default;
* ``bench``: n_corr 200, budget 48, 8 clusters and tol 0, as in
  ``tools/fingerprint.py``.

The reference is P = 2 Phi(-k/2) + int_{|t| < k/2} phi(t) 2 Phi(-(a + t^2/5)) dt
with a = 3 and k = 7 (2.222795e-3), computed by quadrature.  Per seed, z is
(pf - reference) / (pf * cov_total), the error in units of the estimate's
own reported standard deviation.  Per seed the output holds z, the DoE's
true-model calls and stop reason, the instrumental sampler used, and the
surrogate rows predicted, counted by wrapping ``kriging._predict_arrays``
(a deterministic count).  The summary holds the mean and the population
sd of z, the number of seeds within +-2, the max |z|, the DoE calls (mean,
min, max) and the stop reasons, over the seeds that did not raise.

At the paper settings one estimate takes a few seconds on a two-core
machine.

The ``sampler`` case checks the rare-event instrumental sampler.  Per seed
it draws 200 points with ``sample_instrumental`` from an exact linear
surrogate at beta = 4.5 (``benchmark_linear`` fit by a linear-trend
kriging model on 12 points, so pi is the indicator of x1 > 4.5 and
rejection gives way to chains), and records the CPU time of the call and
the means of x1 and x2^2.  Their laws are N(0, 1) truncated to x1 > 4.5
and chi-square with one degree of freedom.  The summary holds the mean CPU
per call; per statistic the spread, the sd of the per-seed means over the
sd of a mean of 200 i.i.d. draws (1 for i.i.d. draws, larger for
correlated ones); and the bias, the mean over seeds minus the exact value
in standard errors of that mean.  One call takes about a second.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import norm

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from reliakit import (  # noqa: E402
    CorrelationKernel,
    ExperimentalDesign,
    benchmark_linear,
    benchmark_waarts,
    evaluate_batch,
    initial_design,
    krig_build,
    kriging,
    metais_estimate,
    sample_instrumental,
    standard_normal_vector,
)

SETTINGS = {
    "paper": dict(n_corr=200, budget=100),
    "bench": dict(n_corr=200, budget=48, n_clusters=8, tol=0.0),
}


def four_branch_pf(a: float = 3.0, k: float = 7.0) -> float:
    """Failure probability of the four-branch function by quadrature.

    In the rotated standard normal coordinates t = (x1 - x2) / sqrt(2) and
    s = (x1 + x2) / sqrt(2), the linear branches fail for |t| >= k/2 and the
    parabolic ones for |s| >= a + t^2/5; t and s are independent.
    """
    inner, _ = quad(lambda t: norm.pdf(t) * 2.0 * ndtr(-(a + t * t / 5.0)), -k / 2.0, k / 2.0,
                    epsabs=1e-14, epsrel=1e-12)
    return 2.0 * float(ndtr(-k / 2.0)) + inner


def _seeds(text: str) -> list[int]:
    """'0-29' or '0,1,5,7' (or a mix) as a list of seeds, ranges inclusive."""
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _run(seed: int, opts: dict, ref: float) -> dict:
    rows = [0]
    predict = kriging._predict_arrays

    def counted(model, xs):
        rows[0] += xs.shape[0]
        return predict(model, xs)

    kriging._predict_arrays = counted
    try:
        res = metais_estimate(benchmark_waarts(), standard_normal_vector(2), seed=seed, **opts)
    except Exception as exc:  # report the seed rather than stop the sweep
        return {"seed": seed, "error": f"{type(exc).__name__}: {exc}", "predicted_rows": rows[0]}
    finally:
        kriging._predict_arrays = predict
    sd = res.pf * res.cov_total
    return {
        "seed": seed,
        "pf": res.pf,
        "cov": res.cov_total,
        "z": (res.pf - ref) / sd if sd > 0.0 else math.copysign(math.inf, res.pf - ref),
        "doe_calls": res.n_model_calls_doe,
        "stop_reason": res.extras["doe_stop_reason"],
        "sampler": res.extras["sampler_stats"]["sampler"],
        "predicted_rows": rows[0],
    }


def _summary(runs: list[dict]) -> dict:
    ok = [r for r in runs if "error" not in r]
    z = np.array([r["z"] for r in ok])
    stops: dict[str, int] = {}
    for r in ok:
        stops[r["stop_reason"]] = stops.get(r["stop_reason"], 0) + 1
    return {
        "n_seeds": len(runs),
        "n_errors": len(runs) - len(ok),
        "z_mean": float(z.mean()) if z.size else None,
        "z_sd": float(z.std()) if z.size else None,
        "within_2": int(np.count_nonzero(np.abs(z) <= 2.0)),
        "max_abs_z": float(np.abs(z).max()) if z.size else None,
        "doe_calls_mean": float(np.mean([r["doe_calls"] for r in ok])) if ok else None,
        "doe_calls_min": min((r["doe_calls"] for r in ok), default=None),
        "doe_calls_max": max((r["doe_calls"] for r in ok), default=None),
        "stop_reasons": stops,
        "predicted_rows_mean": float(np.mean([r["predicted_rows"] for r in runs])),
    }


SAMPLER_BETA = 4.5
SAMPLER_DRAWS = 200


def _sampler_runs(seeds: list[int]) -> list[dict]:
    rv = standard_normal_vector(2)
    pts = initial_design(rv, 12, seed=1)
    design = ExperimentalDesign(pts, evaluate_batch(benchmark_linear(SAMPLER_BETA, dimension=2), pts))
    model = krig_build(design, "linear", CorrelationKernel((2.0, 2.0)))
    runs = []
    for seed in seeds:
        t0 = time.process_time()
        xs, stats = sample_instrumental(model, rv, SAMPLER_DRAWS, seed=seed)
        runs.append({
            "seed": seed,
            "sampler": stats["sampler"],
            "cpu_s": time.process_time() - t0,
            "mean_x1": float(xs[:, 0].mean()),
            "mean_x2sq": float((xs[:, 1] ** 2).mean()),
        })
    return runs


def _sampler_summary(runs: list[dict]) -> dict:
    lam = float(norm.pdf(SAMPLER_BETA) / ndtr(-SAMPLER_BETA))
    laws = {"x1": (lam, 1.0 + SAMPLER_BETA * lam - lam * lam), "x2sq": (1.0, 2.0)}
    out = {"n_seeds": len(runs), "cpu_per_call_s": float(np.mean([r["cpu_s"] for r in runs])),
           "samplers": sorted({r["sampler"] for r in runs})}
    for key, (mean, var) in laws.items():
        means = np.array([r["mean_" + key] for r in runs])
        sd = float(means.std(ddof=1))
        out["spread_" + key] = sd / math.sqrt(var / SAMPLER_DRAWS)
        out["bias_" + key] = float(means.mean() - mean) / (sd / math.sqrt(means.size))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--case", choices=("metais", "sampler"), default="metais")
    ap.add_argument("--settings", choices=sorted(SETTINGS), default="paper",
                    help="meta-IS settings (metais case only)")
    ap.add_argument("--seeds", default="0-29", help="e.g. 0-29 or 0,1,5,7 (ranges inclusive)")
    args = ap.parse_args(argv)
    seeds = _seeds(args.seeds)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if args.case == "sampler":
            runs = _sampler_runs(seeds)
            doc = {"case": "sampler", "summary": _sampler_summary(runs), "runs": runs}
        else:
            ref = four_branch_pf()
            opts = SETTINGS[args.settings]
            runs = [_run(s, opts, ref) for s in seeds]
            doc = {"case": "metais", "settings": args.settings, "options": opts, "reference": ref,
                   "summary": _summary(runs), "runs": runs}
    json.dump(doc, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
