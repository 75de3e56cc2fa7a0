"""Public estimators run OpenBLAS single-threaded for their span, then restore it."""

import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from reliakit import LimitState, ModelError, ak_mcs, estimate_mc, standard_normal_vector
from reliakit import _blas

OPT_OUT = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True)
def no_opt_out(monkeypatch):
    for var in OPT_OUT:
        monkeypatch.delenv(var, raising=False)


def recording(seen, reader=_blas.thread_counts, fail=False):
    """A linear limit state whose vector evaluator records ``reader()`` on every batch."""

    def vec(xs):
        seen.append(reader())
        if fail:
            raise ModelError("evaluator failed")
        return 3.0 - xs[:, 0]

    return LimitState(2, vector_evaluator=vec)


class FakeLibrary:
    """A (name, get, set) entry that logs every set call."""

    def __init__(self, threads=4):
        self.threads = threads
        self.sets: list[int] = []

    def entry(self):
        def get():
            time.sleep(0)  # a ctypes call releases the interpreter lock
            return self.threads

        def set_(n):
            time.sleep(0)
            self.sets.append(n)
            self.threads = n

        return ("libfake_openblas.so", get, set_)


needs_openblas = pytest.mark.skipif(not _blas._libraries(), reason="no OpenBLAS copy is loaded")


@needs_openblas
def test_one_thread_inside_the_span_and_the_old_counts_after():
    before = _blas.thread_counts()
    seen = []
    estimate_mc(recording(seen), standard_normal_vector(2), 1_000, seed=1)
    assert seen and all(counts == {name: 1 for name in before} for counts in seen)
    assert _blas.thread_counts() == before


@needs_openblas
def test_counts_restored_when_the_evaluator_raises():
    before = _blas.thread_counts()
    seen = []
    with pytest.raises(ModelError):
        estimate_mc(recording(seen, fail=True), standard_normal_vector(2), 1_000, seed=1)
    assert seen == [{name: 1 for name in before}]
    assert _blas.thread_counts() == before


def test_nested_entry_points_pin_and_restore_once(monkeypatch):
    lib = FakeLibrary()
    monkeypatch.setattr(_blas, "_libraries", lambda: [lib.entry()])
    seen = []
    # ak_mcs calls krig_fit, itself an entry point, once per refit
    res = ak_mcs(recording(seen), standard_normal_vector(2), n_pool=500, u_stop=math.inf, budget=14, seed=3)
    assert res.n_calls == 14 and len(seen) == 3
    assert all(counts == {"libfake_openblas.so": 1} for counts in seen)
    assert lib.sets == [1, 4] and lib.threads == 4


def test_concurrent_spans_keep_one_thread_until_the_last_exits(monkeypatch):
    lib = FakeLibrary()
    monkeypatch.setattr(_blas, "_libraries", lambda: [lib.entry()])
    inside = []

    @_blas.one_blas_thread
    def span():
        inside.append(lib.threads)

    def worker():
        for _ in range(300):
            span()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert len(inside) == 8 * 300 and set(inside) == {1}
    assert lib.threads == 4 and lib.sets == [1, 4] * (len(lib.sets) // 2)


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_opt_out_variable_means_no_set_call(monkeypatch, var):
    lib = FakeLibrary()
    monkeypatch.setattr(_blas, "_libraries", lambda: [lib.entry()])
    monkeypatch.setenv(var, "4")
    seen = []
    estimate_mc(recording(seen), standard_normal_vector(2), 1_000, seed=1)
    assert seen == [{"libfake_openblas.so": 4}]
    assert lib.sets == []


@needs_openblas
@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_opt_out_variable_leaves_the_threads_alone_in_a_new_process(var):
    script = (
        "import json\n"
        "from reliakit import _blas, LimitState, estimate_mc, standard_normal_vector\n"
        "seen = []\n"
        "def vec(xs):\n"
        "    seen.append(_blas.thread_counts())\n"
        "    return xs[:, 0]\n"
        "ls = LimitState(2, vector_evaluator=vec)\n"
        "before = _blas.thread_counts()\n"
        "estimate_mc(ls, standard_normal_vector(2), 100, seed=0)\n"
        "print(json.dumps([before, seen, _blas.thread_counts()]))\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in OPT_OUT}
    env.update({var: str(os.cpu_count() or 1), "PYTHONPATH": str(SRC)})
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    before, seen, after = json.loads(out.stdout)
    assert before and seen == [before] and after == before


@needs_openblas
def test_no_library_found_is_a_no_op(monkeypatch):
    real = _blas._libraries()
    before = {name: get() for name, get, _ in real}
    monkeypatch.setattr(_blas, "_libraries", lambda: [])
    seen = []
    estimate_mc(recording(seen, reader=lambda: {name: get() for name, get, _ in real}),
                standard_normal_vector(2), 1_000, seed=1)
    assert seen == [before]
    assert _blas.thread_counts() == {}


def test_thread_counts_name_every_mapped_copy():
    maps = Path("/proc/self/maps")
    if not maps.exists():
        pytest.skip("no /proc/self/maps")
    mapped = {Path(ln.split(None, 5)[-1]).name for ln in maps.read_text().splitlines()
              if "openblas" in ln and ".so" in ln}
    assert set(_blas.thread_counts()) == mapped
    assert all(n >= 1 for n in _blas.thread_counts().values())
