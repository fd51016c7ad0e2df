"""Deterministic trial scheduling for Monte Carlo experiments.

Each trial is a pure function of its index (randomness comes from a
per-trial substream), so results are merged in index order and are
bit-for-bit independent of worker count and scheduling.  The caller fixes
the size of the blocks that trials run in, never the worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np


def run_trials(
    block_fn: Callable[[int, int], tuple],
    n_trials: int,
    parallelism: int = 1,
    block_size: int = 1,
) -> tuple[np.ndarray, ...]:
    """Evaluate trials 0..n_trials-1 in blocks of block_size (the last may
    be shorter): ``block_fn(start, stop)`` returns a tuple of fields, each
    an array over trials start..stop-1 on its leading axis.  Returns each
    field concatenated in trial order.  With parallelism > 1 the blocks run
    on a thread pool.
    """
    if n_trials <= 0 or block_size <= 0:
        raise ValueError("n_trials and block_size must be positive")

    def run_block(start: int) -> tuple:
        return block_fn(start, min(start + block_size, n_trials))

    starts = range(0, n_trials, block_size)
    if parallelism <= 1:
        records = [run_block(s) for s in starts]
    else:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            records = list(pool.map(run_block, starts))
    return tuple(np.concatenate(field) for field in zip(*records))

