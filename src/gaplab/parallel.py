"""Deterministic scheduling of independent work on worker threads.

``run_tasks`` evaluates independent zero-argument callables and returns
their results in task order; ``run_trials`` splits trials into blocks of a
size the caller fixes, never the worker count, runs the blocks as tasks and
merges each field in trial order.  Every task draws its randomness from its
own substreams, so results are bit-for-bit independent of the worker count
and of scheduling.

While tasks run, the OpenBLAS behind numpy.linalg runs one thread.  Worker
threads then do not contend with BLAS threads for the cores, and BLAS
results do not depend on the machine's core count.  The previous count is
restored afterwards.  Where numpy's BLAS exports none of the known
thread-count setters, the count is left as it is, and reports are then
bit-for-bit reproducible only under ``OPENBLAS_NUM_THREADS=1``.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

# "{}" is "get" or "set"; the first name numpy's OpenBLAS exports is used.
_OPENBLAS_THREAD_FUNCTIONS = (
    "scipy_openblas_{}_num_threads64_",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)


@functools.cache
def openblas_thread_functions() -> tuple:
    """(getter, setter) of the thread count of the OpenBLAS behind
    numpy.linalg, looked up once; either is None where not exported."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)

    def first(verb, argtypes, restype):
        for pattern in _OPENBLAS_THREAD_FUNCTIONS:
            fn = getattr(lib, pattern.format(verb), None)
            if fn is not None:
                fn.argtypes = argtypes
                fn.restype = restype
                return fn
        return None

    return first("get", [], ctypes.c_int), first("set", [ctypes.c_int], None)


def trial_blas_threads() -> int | None:
    """The OpenBLAS thread count that tasks run with: 1 where the count can
    be read and set, else the current count (None where it cannot be read)."""
    getter, setter = openblas_thread_functions()
    if getter is None:
        return None
    return 1 if setter is not None else int(getter())


# Nested and concurrent run_tasks calls share one pin: the outermost sets
# the count and the last to leave restores it, so the setter never runs
# while another task may be inside a BLAS call.
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved: int | None = None


@contextlib.contextmanager
def _one_blas_thread():
    global _pin_depth, _pin_saved
    getter, setter = openblas_thread_functions()
    if getter is None or setter is None:
        yield
        return
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = int(getter())
            setter(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                setter(_pin_saved)


def run_tasks(tasks: Sequence[Callable[[], object]], parallelism: int = 1) -> list:
    """Results of independent zero-argument callables, in task order.  With
    parallelism 1 the tasks run inline, in order; otherwise on a pool of
    that many threads.  OpenBLAS runs one thread throughout."""
    with _one_blas_thread():
        if parallelism <= 1:
            return [task() for task in tasks]
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            return list(pool.map(lambda task: task(), tasks))


def run_trials(
    block_fn: Callable[[int, int], tuple],
    n_trials: int,
    parallelism: int = 1,
    block_size: int = 1,
) -> tuple[np.ndarray, ...]:
    """Evaluate trials 0..n_trials-1 in blocks of block_size (the last may
    be shorter): ``block_fn(start, stop)`` returns a tuple of fields, each
    an array over trials start..stop-1 on its leading axis.  Returns each
    field concatenated in trial order.  The blocks are tasks of
    ``run_tasks``.
    """
    if n_trials <= 0 or block_size <= 0:
        raise ValueError("n_trials and block_size must be positive")
    blocks = [
        functools.partial(block_fn, start, min(start + block_size, n_trials))
        for start in range(0, n_trials, block_size)
    ]
    records = run_tasks(blocks, parallelism)
    return tuple(np.concatenate(field) for field in zip(*records))
