"""Print, as JSON, how well seeded meta-IS estimates cover the four-branch answer.

Usage, from the root of a checkout::

    python3 tools/coverage.py --settings paper --seeds 0-29 > coverage.json
    python3 tools/coverage.py --settings bench --seeds 0-39
    python3 tools/coverage.py --seeds 0,1,5,7

The package is imported from the checkout's own ``src/``, so running the
script in two trees compares them on the same seeds.  Each seed runs
``metais_estimate`` on four-branch (``benchmark_waarts``, standard normal
inputs in 2-D) at one of two settings:

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
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import norm

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from reliakit import benchmark_waarts, kriging, metais_estimate, standard_normal_vector  # noqa: E402

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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--settings", choices=sorted(SETTINGS), default="paper")
    ap.add_argument("--seeds", default="0-29", help="e.g. 0-29 or 0,1,5,7 (ranges inclusive)")
    args = ap.parse_args(argv)
    ref = four_branch_pf()
    opts = SETTINGS[args.settings]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        runs = [_run(s, opts, ref) for s in _seeds(args.seeds)]
    doc = {"settings": args.settings, "options": opts, "reference": ref,
           "summary": _summary(runs), "runs": runs}
    json.dump(doc, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
