"""Benchmark of reliakit: three workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload metais_four_branch --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for why each was chosen):
``metais_four_branch``, ``akmcs_four_branch`` and ``compare_physical``;
``--workload all`` runs the three in turn, each in its own process.

One run is one process.  It sets up (imports, problem build and one
untimed tiny-size warm-up estimate at a fixed seed), then runs one
estimate per seed of a fixed panel derived from ``--seed`` and checks
every answer and every call ledger.  Each workload's panel size is fixed,
so that every version of the code is measured on the same seeds, and is
sized so that the panel takes 20 to 35 s on two cores.  ``--seconds``
only caps the run: an estimate not started within ``CAP`` times
``--seconds`` counts as failed.

``--trace 0`` reports the end-to-end metrics, each a median over the run:
set-up time (also measured in separate probe processes, since imports can
only be timed once per process), wall and CPU time per estimate, true
model calls per estimate and the peak resident memory of the process.
``--trace 1`` runs the panel untraced, then again with every reliakit
function wrapped in spans (see ``tracing.py``), and reports the per-layer
metrics, per estimate, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the
machine, the seed panel and every estimate goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("metais_four_branch", "akmcs_four_branch", "compare_physical")
SETUP_PROBES = 4
# The warm-up does the same work in every run, whatever the workload seed.
WARM_UP_SEED = 20120309
CAP = 3.0
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "model_calls": "count", "peak_rss_mb": "MB"}
RATIOS = ("mcmc.evals_per_draw", "trace.overhead")


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name in RATIOS:
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_us", "_us_per_point")):
        return "us"
    if name.endswith("_ms_per_call"):
        return "ms"
    return "count"


def seed_panel(seed: int, n: int) -> list[int]:
    """Estimate seeds derived from the workload seed (the same seed, the same panel)."""
    return [
        int.from_bytes(hashlib.sha256(f"reliakit-bench:{seed}:{i}".encode()).digest()[:4], "little")
        for i in range(n)
    ]


def setup(name: str):
    """Import, build the problem and run one tiny estimate, untimed by the loop."""
    t0 = perf_counter()
    import workloads

    wl = workloads.make(name, OUT)
    wl.run(WARM_UP_SEED, "tiny")
    return perf_counter() - t0, wl


def probe_setup(name: str) -> float:
    """Set-up time of a fresh process, which pays every import again."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name, "--seed", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def measure(wl, panel, cap_s, size, tracer=None) -> list[dict]:
    """One estimate per panel seed; one not started within ``cap_s`` fails."""
    from workloads import Outcome

    rows = []
    start = perf_counter()
    for i, seed in enumerate(panel):
        if perf_counter() - start >= cap_s:
            detail = f"not started: the panel ran past its cap of {cap_s:g} s"
            rows.append({"seed": seed, "skipped": True, "outcomes": [vars(Outcome(wl.name, 0, False, detail))]})
            continue
        if tracer is not None:
            tracer.estimate = i
        c0, t0 = process_time(), perf_counter()
        try:
            raw, error = wl.run(seed, size), None
        except Exception:  # a failed estimate is counted and the run goes on
            raw, error = None, traceback.format_exc(limit=4)
        wall, cpu = perf_counter() - t0, process_time() - c0
        if tracer is not None:
            tracer.end_estimate()
        outcomes = wl.check(raw) if error is None else [Outcome(wl.name, 0, False, error)]
        rows.append(
            {
                "seed": seed,
                "wall_s": wall,
                "cpu_s": cpu,
                "model_calls": sum(o.calls for o in outcomes),
                "outcomes": [vars(o) for o in outcomes],
            }
        )
    return rows


def blas_record() -> dict:
    """Which BLAS numpy uses and how many threads it runs."""
    import ctypes

    import numpy as np

    info: dict = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    # numpy and scipy each load an OpenBLAS with its own thread pool
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    info["threads"] = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                info["threads"][Path(lib).name] = int(getattr(handle, sym)())
                break
    return info


def machine_record() -> dict:
    import numpy
    import scipy

    with open("/proc/self/status") as fh:
        threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
        "process_threads": threads,
        "platform": platform.platform(),
    }


def end_to_end(rows, setup_samples) -> dict:
    rows = [r for r in rows if "skipped" not in r]
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(r["wall_s"] for r in rows),
        "cpu_s": statistics.median(r["cpu_s"] for r in rows),
        "model_calls": statistics.median(r["model_calls"] for r in rows),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(wl, panel, cap_s, size, stem) -> tuple[list[dict], dict]:
    """The panel untraced, then the same seeds traced."""
    import tracing

    plain = measure(wl, panel, cap_s, size)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        spanned = measure(wl, panel, cap_s, size, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.save(OUT / f"{stem}-spans.npz")
    both = [(p, t) for p, t in zip(plain, spanned) if "skipped" not in p and "skipped" not in t]
    wall_traced = sum(t["wall_s"] for _, t in both)
    metrics = tracing.layer_metrics(tracer, len(both), wall_traced)
    metrics["trace.overhead"] = wall_traced / sum(p["wall_s"] for p, _ in both) - 1.0
    return plain + spanned, metrics


def run_all(args) -> int:
    """Each workload in its own process, one after the other, and one summary."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exit {done.returncode}", file=sys.stderr)
            return 1
        print(f"== {name}")
        print("\n".join(lines[1:-1]))
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="reliakit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help=f"about the time the panel takes; estimates not started by {CAP:g}x this fail")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny problem sizes, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "reliakit" / "__init__.py").is_file():
        print(f"reliakit sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    size = "tiny" if args.tiny else "full"

    if args.setup_probe:
        print(json.dumps({"setup_s": setup(args.workload)[0]}))
        return 0

    probes = [] if args.trace else [probe_setup(args.workload) for _ in range(SETUP_PROBES)]
    setup_s, wl = setup(args.workload)
    panel = seed_panel(args.seed, wl.ESTIMATES)
    cap_s = CAP * args.seconds
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    if args.trace:
        rows, metrics = traced(wl, panel, cap_s, size, stem)
    else:
        rows = measure(wl, panel, cap_s, size)
        metrics = end_to_end(rows, probes + [setup_s])

    outcomes = [o for r in rows for o in r["outcomes"]]
    failed = sum(not o["ok"] for o in outcomes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": size,
        "trace": args.trace,
        "seconds": args.seconds,
        "seed_panel": panel,
        "warm_up_seed": WARM_UP_SEED,
        "setup_samples_s": probes + [setup_s],
        "machine": machine_record(),
        "estimates": rows,
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=float))
    for o in outcomes:
        if not o["ok"]:
            print(f"FAILED {o['method']}: {o['detail']}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("workload", "seed", "seed_panel", "machine")}))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    print(f"fail_rate {failed}/{len(outcomes)} ratio (failed estimates over attempted)")
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": unit_of(name)} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
