"""The three benchmark workloads and their answer and ledger checks.

Each workload has ``run(seed, size)``, the timed estimate, ``check(raw)``,
which turns its output into one :class:`Outcome` per method, and
``ESTIMATES``, the fixed number of estimates (seeds) in a run.  The
limit states are wrapped with counting evaluators, so every estimate is
cross-checked three ways: rows the evaluators saw, ``EvalLedger.count``
and the ``n_calls`` the method reports must agree exactly.

Why these three (each layer carries most of the time in one workload and
little in another):

* ``metais_four_branch`` -- meta-IS on the four-branch series system.
  Nearly all of its time is one-point surrogate predictions and inverse
  transforms inside the slice-sampling chains.
* ``akmcs_four_branch`` -- AK-MCS plus a 1e6-point bounds sweep on the same
  problem: the same kriging layer in bulk, with no Markov chains.
* ``compare_physical`` -- ``reliakit compare`` with mc, form, qrs and pce on
  an expression limit state over correlated non-gaussian inputs: no
  kriging and no chains; sampling, transforms, the scalar expression path
  and the polynomial surrogates carry the time.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reliakit
from reliakit import cli, limitstate

HERE = Path(__file__).resolve().parent

# Quadrature value of the four-branch pf, the one the acceptance suite uses;
# its last digit is taken as an uncertainty of half a unit.
FOUR_BRANCH_PF = 2.26e-3
FOUR_BRANCH_PF_SD = 0.005e-3
# An estimate passes when it lies within this many of its own reported
# standard deviations (combined with the reference's) of the reference.
SIGMAS = 4.0


@dataclass
class Outcome:
    """One estimate: its true-model calls and whether every check held."""

    method: str
    calls: int
    ok: bool
    detail: str
    pf: float = math.nan


def _within(pf: float, sd: float, ref: float, ref_sd: float) -> tuple[bool, str]:
    tol = SIGMAS * math.hypot(sd, ref_sd)
    ok = math.isfinite(pf) and math.isfinite(tol) and abs(pf - ref) <= tol
    return ok, f"pf={pf:.4e} ref={ref:.4e} |diff|={abs(pf - ref):.3e} tol={tol:.3e}"


def _ledger_check(counted: int, ledger: int, reported: int, budget: int) -> list[str]:
    errors = []
    if not counted == ledger == reported:
        errors.append(f"ledger mismatch: counted {counted}, ledger {ledger}, reported {reported}")
    if reported > budget:
        errors.append(f"{reported} calls exceed the budget of {budget}")
    return errors


def _outcome(method, pf, sd, ref, ref_sd, counted, ledger, reported, budget) -> Outcome:
    ok, detail = _within(pf, sd, ref, ref_sd)
    errors = _ledger_check(counted, ledger, reported, budget)
    if errors:
        detail += "; " + "; ".join(errors)
    return Outcome(method, reported, ok and not errors, detail, pf)


class CountingLimitState:
    """A limit state whose scalar and vector evaluators count the rows they see."""

    def __init__(self, ls: reliakit.LimitState):
        self.rows = 0
        vector = ls.vector_evaluator

        def scalar(x):
            self.rows += 1
            return ls.evaluator(x)

        def vec(xs):
            self.rows += len(xs)
            return vector(xs)

        self.ls = dataclasses.replace(ls, evaluator=scalar, vector_evaluator=None if vector is None else vec)


class FourBranch:
    """Shared set-up of the two four-branch workloads."""

    def __init__(self):
        self.rv = reliakit.standard_normal_vector(2)
        self.counting = CountingLimitState(reliakit.benchmark_waarts())


class MetaIsFourBranch(FourBranch):
    """Meta-IS with the paper's n_corr = 200 and a DoE of at most 48 calls.

    The margin-sampling DoE runs to a fixed budget of 48 calls, where the
    adaptive stop lands at seed 0 with the paper settings, instead of
    stopping on its pf band: that stop lands anywhere from 40 to 100 calls
    across seeds and moves the work per estimate by 2x.  Each enrichment
    adds 8 clustered points instead of 4, so the 36 calls after the initial
    design take 5 refits and margin chains instead of 9, and a run holds
    two estimates.  The margin chains keep their default 250 points: with
    60, the DoE can end with a spurious failure region that the correction
    chain never visits, and about one estimate in a hundred misses the
    reference by six of its own standard deviations.  Every other option
    is at its default.
    """

    name = "metais_four_branch"
    ESTIMATES = 2

    SIZES = {
        "full": dict(n_corr=200, budget=48, n_clusters=8, tol=0.0),
        "tiny": dict(n_epsilon=5_000, n_corr=20, budget=16, n_bounds=5_000, n_chain=10, tol=0.0),
    }

    def run(self, seed: int, size: str):
        ledger = reliakit.EvalLedger()
        before = self.counting.rows
        res = reliakit.metais_estimate(self.counting.ls, self.rv, seed=seed, ledger=ledger, **self.SIZES[size])
        return size, res, ledger.count, self.counting.rows - before

    def check(self, raw) -> list[Outcome]:
        size, res, ledger, counted = raw
        reported = res.n_model_calls_doe + res.n_model_calls_corr
        budget = self.SIZES[size]["budget"] + self.SIZES[size]["n_corr"]
        return [
            _outcome("metais", res.pf, res.pf * res.cov_total, FOUR_BRANCH_PF, FOUR_BRANCH_PF_SD,
                     counted, ledger, reported, budget)
        ]


class AkMcsFourBranch(FourBranch):
    """AK-MCS with the acceptance-suite pool, then a 1e6-point bounds sweep.

    As for meta-IS, enrichment runs to a fixed budget (48 calls, where the
    U stop lands for a typical seed) rather than to its U threshold, which
    lands anywhere from 44 to 59 calls across seeds and moves the work per
    estimate by a third.  With the budget fixed, the cost of an estimate
    barely moves with the seed, so a run holds two.
    """

    name = "akmcs_four_branch"
    ESTIMATES = 2

    SIZES = {
        "full": dict(n_pool=100_000, budget=48, n_bounds=1_000_000),
        "tiny": dict(n_pool=2_000, budget=20, n_bounds=50_000),
    }

    def run(self, seed: int, size: str):
        opts = self.SIZES[size]
        ledger = reliakit.EvalLedger()
        before = self.counting.rows
        s_ak, s_bounds = np.random.SeedSequence(seed).spawn(2)
        res = reliakit.ak_mcs(self.counting.ls, self.rv, n_pool=opts["n_pool"], budget=opts["budget"],
                              u_stop=math.inf, seed=np.random.default_rng(s_ak), ledger=ledger)
        bounds = reliakit.krig_pf_bounds(res.model, self.rv, k=1.96, n=opts["n_bounds"],
                                         seed=np.random.default_rng(s_bounds))
        return size, res, bounds, ledger.count, self.counting.rows - before

    def check(self, raw) -> list[Outcome]:
        size, res, (_, mid, _), ledger, counted = raw
        opts = self.SIZES[size]
        sd = math.sqrt(mid * (1.0 - mid) / opts["n_bounds"])
        return [
            _outcome("ak", mid, sd, FOUR_BRANCH_PF, FOUR_BRANCH_PF_SD, counted, ledger, res.n_calls,
                     opts["budget"])
        ]


class ComparePhysical:
    """``reliakit compare`` in process, on the problem in compare_physical.json.

    The sampling and surrogate methods run at fixed sizes, so the cost of
    an estimate barely moves with the seed, and a run holds two.
    """

    name = "compare_physical"
    ESTIMATES = 2

    def __init__(self, workdir: Path):
        spec = json.loads((HERE / "compare_physical.json").read_text())
        self.reference = spec["reference"]
        self.form_rel_tol = spec["form_rel_tol"]
        self.budgets = {"full": spec["call_budgets"], "tiny": spec["tiny_call_budgets"]}
        self.configs = {}
        for size, key in (("full", "methods"), ("tiny", "tiny_methods")):
            self.configs[size] = workdir / f"{self.name}_{size}.json"
            self.configs[size].write_text(json.dumps({"problem": spec["problem"], "methods": spec[key]}))
        self.ledgers: list[tuple[reliakit.EvalLedger, int]] = []
        self.counting: CountingLimitState | None = None
        self._install_counters()

    def _install_counters(self):
        """Wrap the limit state the cli builds and record every ledger it opens.

        Each method opens its ledger before its first model call, so the
        counted rows between two ledger openings belong to one method.  The
        builder is looked up at call time, so a traced run sees its span.
        """
        outer = self

        def counted_build(*args, **kwargs):
            outer.counting = CountingLimitState(limitstate.limit_state_from_expression(*args, **kwargs))
            return outer.counting.ls

        class RecordedLedger(reliakit.EvalLedger):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                outer.ledgers.append((self, outer.counting.rows))

        cli.limit_state_from_expression = counted_build
        cli.EvalLedger = RecordedLedger

    def run(self, seed: int, size: str):
        self.ledgers.clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["compare", "--config", str(self.configs[size]), "--seed", str(seed)])
        marks = [rows for _, rows in self.ledgers] + [self.counting.rows]
        counted = [b - a for a, b in zip(marks, marks[1:])]
        return size, code, out.getvalue(), err.getvalue(), [led.count for led, _ in self.ledgers], counted

    def check(self, raw) -> list[Outcome]:
        size, code, text, err, ledgers, counted = raw
        rows = list(csv.DictReader(io.StringIO(text)))
        if code != 0 or len(rows) != len(ledgers):
            return [Outcome("compare", 0, False, f"exit {code}, {len(rows)} rows, {len(ledgers)} ledgers: {err}")]
        ref, ref_sd = self.reference["pf"], self.reference["pf"] * self.reference["cov"]
        out = []
        for row, ledger, rows_seen in zip(rows, ledgers, counted):
            method = row["method"]
            if row["status"] != "ok":
                out.append(Outcome(method, 0, False, f"status {row['status']}: {err}"))
                continue
            pf, reported = float(row["pf"]), int(row["n_calls"])
            if method == "form":
                ok = abs(pf - ref) <= self.form_rel_tol * ref
                errors = _ledger_check(rows_seen, ledger, reported, self.budgets[size][method])
                detail = f"pf={pf:.4e} ref={ref:.4e} rel_err={(pf - ref) / ref:+.3f} tol={self.form_rel_tol}"
                out.append(Outcome(method, reported, ok and not errors, "; ".join([detail] + errors), pf))
            else:
                out.append(_outcome(method, pf, pf * float(row["cov"] or "inf"), ref, ref_sd, rows_seen, ledger,
                                    reported, self.budgets[size][method]))
        return out


def make(name: str, workdir: Path):
    """Build a workload: its problem, and its counting and checking hooks."""
    warnings.simplefilter("ignore")  # at-bound and no-failure warnings are counted, not printed
    if name == MetaIsFourBranch.name:
        return MetaIsFourBranch()
    if name == AkMcsFourBranch.name:
        return AkMcsFourBranch()
    if name == ComparePhysical.name:
        return ComparePhysical(workdir)
    raise ValueError(f"unknown workload {name!r}")
