"""One OpenBLAS thread, process-wide, while the outermost public estimator runs.

numpy and scipy each bundle an OpenBLAS whose extra threads only spin on the small
matrices here.  :func:`one_blas_thread` restores the counts it found when the call
returns or raises.  OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS opt out.
"""

import ctypes
import functools
import os
import threading
from pathlib import Path

_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads", "openblas_{}_num_threads")
_GET, _SET = ctypes.CFUNCTYPE(ctypes.c_int), ctypes.CFUNCTYPE(None, ctypes.c_int)
_OPT_OUT = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_lock = threading.Lock()
_spans = []  # per open span, the (set, count) pairs it restores: empty but for the outermost


@functools.cache
def _libraries() -> list:
    maps = Path("/proc/self/maps")
    lines = maps.read_text().splitlines() if maps.exists() else []
    paths = sorted({ln.split(None, 5)[-1] for ln in lines if "openblas" in ln and ".so" in ln})
    # RTLD_NOLOAD fails rather than load a copy; a copy deleted since it was mapped is skipped
    libs = [(Path(p).name, ctypes.CDLL(p, mode=os.RTLD_NOLOAD)) for p in paths if os.path.exists(p)]
    return [(name, _GET((s.format("get"), lib)), _SET((s.format("set"), lib)))
            for name, lib in libs for s in _SYMBOLS if hasattr(lib, s.format("set"))]


def thread_counts() -> dict:
    """Threads each mapped OpenBLAS copy runs now, by library file name."""
    return {name: int(get()) for name, get, _ in _libraries()}


def one_blas_thread(fn):
    """Run ``fn`` with every mapped OpenBLAS copy at one thread, unless a caller already does."""
    @functools.wraps(fn)
    def pinned(*args, **kwargs):
        with _lock:
            outer = not _spans and not any(os.environ.get(v) for v in _OPT_OUT)
            _spans.append([(set_, get()) for _, get, set_ in _libraries()] if outer else [])
            for set_, _ in _spans[-1]:
                set_(1)
        try:
            return fn(*args, **kwargs)
        finally:
            with _lock:
                for set_, n in _spans.pop():
                    set_(n)

    return pinned
