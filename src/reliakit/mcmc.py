"""Lock-step Markov chains for weighted standard normal targets.

The target is proportional to w(u) phi(u) in standard normal space, with
0 <= w <= 1.  A population of chains moves in lock step by preconditioned
Crank-Nicolson steps (Papaioannou, Betz, Zwirglmaier & Straub 2015): each
step costs one batched weight call for all chains.  In the package it is
the rare-event fallback for the meta-IS instrumental density, which is
otherwise sampled exactly by rejection.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SamplerError

__all__ = ["pcn_sample"]

# Proposal correlation and steps per kept state.  At rho 0.9 and 40 steps
# the draws of an exact linear surrogate at beta = 4.5 spread like i.i.d.
# draws (tools/coverage.py --case sampler).
_RHO = 0.9
_THIN = 40


def pcn_sample(weight, u0, n: int, rng: np.random.Generator, burn_frac: float = 0.0):
    """Draw n points from the density proportional to w(u) phi(u).

    ``weight`` maps (C, M) rows to w in [0, 1]; ``u0`` holds one start per
    chain.  Each step proposes u' = rho u + sqrt(1 - rho^2) xi for every
    chain at once.  The proposal leaves phi invariant, so a chain moves when
    ``rng.random(C) * w(u) < w(u')``.  Each chain keeps every 40th state
    after discarding a ``burn_frac`` fraction of the run.  The draws come
    back chain by chain, the last chain cut short when C does not divide n.

    Raises :class:`SamplerError` when a start has w = 0.  Returns the draws
    and a record of ``n_chains``, ``n_steps`` and ``move_rate``.
    Deterministic for a given generator state.
    """
    u = np.array(u0, dtype=float, ndmin=2)
    c, m = u.shape
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= burn_frac < 1.0:
        raise ValueError("burn_frac must lie in [0, 1)")
    w = np.asarray(weight(u), dtype=float)
    if not np.all(w > 0.0):
        raise SamplerError("a chain starts where the target weight is 0")

    per_chain = -(-n // c)
    total = math.ceil(per_chain * _THIN / (1.0 - burn_frac))
    burn = total - per_chain * _THIN
    scale = math.sqrt(1.0 - _RHO * _RHO)
    out = np.empty((c, per_chain, m))
    moves = 0
    for step in range(1, total + 1):
        prop = _RHO * u + scale * rng.standard_normal((c, m))
        w_prop = np.asarray(weight(prop), dtype=float)
        move = rng.random(c) * w < w_prop
        u[move] = prop[move]
        w[move] = w_prop[move]
        moves += int(np.count_nonzero(move))
        if step > burn and (step - burn) % _THIN == 0:
            out[:, (step - burn) // _THIN - 1] = u
    record = {"n_chains": c, "n_steps": total, "move_rate": moves / (total * c)}
    return out.reshape(c * per_chain, m)[:n], record
