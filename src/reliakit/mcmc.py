"""Markov chain sampling from unnormalized densities.

A componentwise slice sampler with stepping-out and shrinkage.  It needs
only pointwise values of an unnormalized log density.  In the package it
is the rare-event fallback for the surrogate-weighted targets (margin
density, instrumental density), which are otherwise sampled exactly by
rejection.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SamplerError

__all__ = ["slice_sample"]


def slice_sample(
    log_target,
    x0,
    n_samples: int,
    rng: np.random.Generator,
    widths,
    thin: int = 10,
    burn_frac: float = 0.2,
    return_stats: bool = False,
):
    """Draw from an unnormalized density via componentwise slice sampling.

    Each sweep updates every coordinate in turn: draw a level under the
    current density value, step the bracket out (at most 50 widths each
    way) until it covers the slice, then shrink it around rejected proposals
    until a point on the slice is hit.  The kept chain applies ``thin``
    sweeps between samples after discarding a ``burn_frac`` fraction of the
    total run.

    ``log_target`` maps a point to a log density (-inf outside the
    support).  ``widths`` sets the initial bracket size per coordinate,
    typically the scale over which the target varies.  Deterministic for a
    given generator state.
    """
    x = np.array(x0, dtype=float).ravel()
    m = x.size
    w = np.broadcast_to(np.asarray(widths, dtype=float), (m,)).copy()
    if np.any(w <= 0.0):
        raise ValueError("slice widths must be positive")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not 0.0 <= burn_frac < 1.0:
        raise ValueError("burn_frac must lie in [0, 1)")

    evals = 0

    def logf(pt: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        return float(log_target(pt))

    fx = logf(x)
    if not math.isfinite(fx):
        raise SamplerError("slice sampler started outside the target support")

    kept_sweeps = n_samples * thin
    total = math.ceil(kept_sweeps / (1.0 - burn_frac))
    burn = total - kept_sweeps

    out = np.empty((n_samples, m))
    n_out = 0
    for sweep in range(total):
        for i in range(m):
            level = fx + math.log(rng.random())
            lo = x[i] - w[i] * rng.random()
            hi = lo + w[i]
            xi0 = x[i]

            steps = 50
            x[i] = lo
            while steps > 0 and logf(x) > level:
                lo -= w[i]
                x[i] = lo
                steps -= 1
            steps = 50
            x[i] = hi
            while steps > 0 and logf(x) > level:
                hi += w[i]
                x[i] = hi
                steps -= 1

            for _ in range(1000):
                x[i] = lo + (hi - lo) * rng.random()
                fx_new = logf(x)
                if fx_new > level:
                    fx = fx_new
                    break
                if x[i] < xi0:
                    lo = x[i]
                else:
                    hi = x[i]
            else:
                # Shrinkage collapsed onto the start without finding the
                # slice; keep the current state and carry on.
                x[i] = xi0
                fx = logf(x)
        if sweep >= burn and (sweep - burn + 1) % thin == 0:
            out[n_out] = x
            n_out += 1
    if n_out != n_samples:  # pragma: no cover - arithmetic guard
        raise SamplerError("slice sampler produced an incomplete chain")
    if return_stats:
        stats = {
            "n_sweeps": total,
            "n_burn": burn,
            "thin": thin,
            "target_evals": evals,
            "evals_per_sweep": evals / total,
        }
        return out, stats
    return out
