"""Reference failure probability of the ``compare_physical`` problem.

Computed without reliakit, so that the benchmark's answer check does not
trust the code it checks.  The problem in ``compare_physical.json`` is

    g = x1*x2 - x3 - x4,   x1 lognormal, x2 beta, x3 gamma, x4 gaussian,

with a Gaussian-copula correlation between x1 and x4 only.  Given the
underlying normal z1 of x1, x4 is gaussian with mean m4 + s4*rho*z1 and
deviation s4*sqrt(1 - rho^2), so the failure event has the exact
conditional probability

    P[g <= 0 | z1, x2, x3] = Phi((m4 + s4*rho*z1 - (x1*x2 - x3)) / (s4*sqrt(1 - rho^2))).

Averaging it over direct numpy draws of (z1, x2, x3) is a conditional
Monte Carlo estimate with a far smaller variance than crude sampling of g.

Usage::

    python3 perfbench/reference.py            # print the estimate
    python3 perfbench/reference.py --write    # also store it in the JSON
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import ndtr

SPEC = Path(__file__).resolve().parent / "compare_physical.json"


def _parameters(problem: dict) -> dict:
    """Extract the parameters, refusing any problem this formula does not fit."""
    fams = [m["family"] for m in problem["marginals"]]
    if problem["expression"].replace(" ", "") != "x1*x2-x3-x4":
        raise ValueError("reference formula assumes g = x1*x2 - x3 - x4")
    if fams != ["lognormal", "beta", "gamma", "gaussian"]:
        raise ValueError(f"reference formula assumes lognormal, beta, gamma, gaussian; got {fams}")
    corr = np.asarray(problem["correlation"], dtype=float)
    off = corr - np.eye(4)
    off[0, 3] = off[3, 0] = 0.0
    if np.any(off != 0.0) or corr[0, 3] != corr[3, 0]:
        raise ValueError("reference formula assumes x1-x4 is the only correlated pair")
    p = [m["params"] for m in problem["marginals"]]
    if p[1][2:] != [0.0, 1.0]:
        raise ValueError("reference formula assumes a beta on (0, 1)")
    return {
        "mu1": p[0][0], "s1": p[0][1],
        "a2": p[1][0], "b2": p[1][1],
        "k3": p[2][0], "th3": p[2][1],
        "m4": p[3][0], "s4": p[3][1],
        "rho": float(corr[0, 3]),
    }


def conditional_mc(problem: dict, n: int, seed: int = 20120309, chunk: int = 5_000_000) -> dict:
    """Conditional Monte Carlo estimate of pf with its coefficient of variation."""
    q = _parameters(problem)
    rng = np.random.default_rng(seed)
    cond_sd = q["s4"] * math.sqrt(1.0 - q["rho"] ** 2)
    total = total_sq = 0.0
    done = 0
    while done < n:
        k = min(chunk, n - done)
        z1 = rng.standard_normal(k)
        x2 = rng.beta(q["a2"], q["b2"], k)
        x3 = rng.gamma(q["k3"], q["th3"], k)
        x1 = np.exp(q["mu1"] + q["s1"] * z1)
        p = ndtr((q["m4"] + q["s4"] * q["rho"] * z1 - (x1 * x2 - x3)) / cond_sd)
        total += math.fsum(p)
        total_sq += math.fsum(p * p)
        done += k
    pf = total / n
    var = max(total_sq / n - pf * pf, 0.0) / n
    return {
        "pf": pf,
        "cov": math.sqrt(var) / pf,
        "n": n,
        "seed": seed,
        "method": "conditional Monte Carlo on x4 given (z1, x2, x3); numpy and scipy.special only",
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=100_000_000, help="number of conditional draws")
    parser.add_argument("--write", action="store_true", help="store the result in compare_physical.json")
    args = parser.parse_args()
    spec = json.loads(SPEC.read_text())
    ref = conditional_mc(spec["problem"], args.n)
    print(json.dumps(ref))
    if args.write:
        spec["reference"] = ref
        SPEC.write_text(json.dumps(spec, indent=2) + "\n")


if __name__ == "__main__":
    main()
