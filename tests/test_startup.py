"""What a fresh process loads: no scipy.stats, scipy.optimize and scipy.cluster only
once kriging needs them, and scipy.spatial only once a design is built."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LAZY = ("scipy.stats", "scipy.optimize", "scipy.cluster", "scipy.spatial")

STARTUP = """
import json, sys, tempfile
from pathlib import Path
lazy = {lazy!r}
import reliakit, reliakit.cli
loaded = {{"import": [m for m in lazy if m in sys.modules]}}
spec = json.loads(Path({config!r}).read_text())
with tempfile.TemporaryDirectory() as tmp:
    cfg = Path(tmp) / "compare.json"
    cfg.write_text(json.dumps({{"problem": spec["problem"], "methods": spec["tiny_methods"]}}))
    code = reliakit.cli.main(["compare", "--config", str(cfg), "--seed", "0",
                              "--output", str(Path(tmp) / "out.csv")])
loaded["compare"] = [m for m in lazy if m in sys.modules]
loaded["exit"] = code
print(json.dumps(loaded))
"""

# The pin's list of OpenBLAS copies is read once, at the first estimator call; a copy
# that a lazy import mapped after that would run its own threads.
FIRST_FIT = """
import json, numpy as np
from pathlib import Path
from reliakit import ExperimentalDesign, _blas, krig_fit
pinned = sorted(_blas.thread_counts())
x = np.random.default_rng(0).uniform(size=(10, 2))
krig_fit(ExperimentalDesign(x, x.sum(axis=1)))
lines = Path("/proc/self/maps").read_text().splitlines()
mapped = sorted({Path(ln.split(None, 5)[-1]).name for ln in lines
                 if "openblas" in ln and ".so" in ln})
print(json.dumps([pinned, mapped]))
"""


def run(script: str):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def loaded():
    return run(STARTUP.format(lazy=LAZY, config=str(ROOT / "perfbench" / "compare_physical.json")))


def test_import_leaves_stats_optimize_and_cluster_unloaded(loaded):
    assert loaded["import"] == []


def test_compare_without_kriging_loads_no_scipy_stats(loaded):
    assert loaded["exit"] == 0
    assert "scipy.stats" not in loaded["compare"]


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="no /proc/self/maps")
def test_first_kriging_fit_maps_no_openblas_copy_the_pin_misses():
    pinned, mapped = run(FIRST_FIT)
    assert mapped == pinned
