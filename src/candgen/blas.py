"""Hold OpenBLAS to one thread while the encoder trains or embeds.

The encoder multiplies small matrices: a chunk of 32-token sequences
against 64- or 256-wide weights, per sequence. OpenBLAS still splits the
larger of those products over every CPU, and each split product waits at a
barrier for all of its threads, so a core busy with anything else (another
process, or a second ``encode_chunked`` thread driving its own BLAS
threads) stalls the whole product. One BLAS thread computes the same bits,
since OpenBLAS splits only the output between its threads, and it is as
fast at these sizes and far steadier. On a 2-CPU host the `train`
subcommand of perfbench's index workload took 266 ms at best with two BLAS
threads and 261 ms with one; while a busy loop held one of the CPUs, it
took 458 ms with two and 276 ms with one.

``one_thread()`` sets OpenBLAS's thread count, which is process-wide, to 1
for the duration of a ``with`` block or a decorated call, and restores it
afterwards. Nested and concurrent blocks share the setting; the last one
out restores it. Where numpy is not linked against OpenBLAS, or the
platform has no ``/proc/self/maps``, the block changes nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading

import numpy as np  # noqa: F401  (loads the BLAS library that _openblas finds)

# (get, set) symbol pairs, as the scipy-openblas wheels and plain builds name them.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

_lock = threading.Lock()
_depth = 0
_saved = 0


@functools.lru_cache(maxsize=1)
def _openblas():
    """The (get, set) thread-count functions of the OpenBLAS this process
    loaded, or None."""
    try:
        # a mapped path need not be UTF-8; its bytes only have to reach CDLL
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as f:
            paths = sorted({line.split()[-1] for line in f
                            if "openblas" in line and "/" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except (OSError, UnicodeDecodeError):  # ctypes decodes dlerror's text as UTF-8
            continue
        for get_name, set_name in _SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


@contextlib.contextmanager
def one_thread():
    """Run the block with OpenBLAS on one thread."""
    global _depth, _saved
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    with _lock:
        if _depth == 0:
            _saved = get()
            set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                set_(_saved)
