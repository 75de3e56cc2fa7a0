"""Smoke test of the benchmark harness at tiny problem sizes.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs once untraced and once traced.  The test checks the
result line against BENCHMARK.json (every metric present, with its unit)
and that the answer and ledger checks ran on every estimate.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# A counter each workload's main load must move, proving the wrappers are bound.
MAIN_LOAD = {
    "metais_four_branch": "mcmc.target_evals",
    "akmcs_four_branch": "kriging.predict_bulk_points",
    "compare_physical": "cli.method_pce_s",
}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_and_checks_answers(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "5", "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)

    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    for name, unit in expected.items():
        assert f"\n{name} " in "\n" + done.stdout and unit in done.stdout
    if trace:
        assert result["metrics"][MAIN_LOAD[workload]]["value"] > 0

    record = json.loads((ROOT / ".bench_out" / f"{workload}-seed0-trace{trace}-tiny.json").read_text())
    outcomes = [o for e in record["estimates"] for o in e["outcomes"]]
    assert len(outcomes) == result["attempted"]
    assert sum(not o["ok"] for o in outcomes) == result["failed"]
    # every outcome went through an answer check against a reference
    assert all("ref=" in o["detail"] for o in outcomes)
    assert record["machine"]["nproc"] >= 1 and record["seed_panel"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "0", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_coverage_check_finds_a_stale_reference():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracing
    from reliakit import kriging

    original = kriging.krig_fit
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert kriging.krig_fit is not original
        kriging._stale_alias = original
        with pytest.raises(tracing.TraceCoverageError, match="_stale_alias"):
            tracer.check_coverage([kriging])
    finally:
        del kriging._stale_alias
        tracer.uninstall()
    assert kriging.krig_fit is original


def test_stored_reference_matches_a_fresh_estimate():
    sys.path.insert(0, str(HERE))
    import reference

    spec = json.loads(reference.SPEC.read_text())
    stored = spec["reference"]
    fresh = reference.conditional_mc(spec["problem"], 1_000_000, seed=7)
    sd = math.hypot(stored["pf"] * stored["cov"], fresh["pf"] * fresh["cov"])
    assert abs(fresh["pf"] - stored["pf"]) <= 4.0 * sd
