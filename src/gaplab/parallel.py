"""Deterministic trial scheduling for Monte Carlo experiments.

Each trial is a pure function of its index (randomness comes from a
per-trial substream), so results are merged in index order and are
bit-for-bit independent of worker count and scheduling.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np


def run_trials(
    trial_fn: Callable[[int], Sequence[float]],
    n_trials: int,
    parallelism: int = 1,
) -> np.ndarray:
    """Evaluate trial_fn on 0..n_trials-1, returning a (n_trials, k) array.

    With parallelism > 1 the trials run on a thread pool; ordering of the
    returned rows always follows the trial index.
    """
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    if parallelism <= 1:
        rows = [trial_fn(t) for t in range(n_trials)]
    else:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            rows = list(pool.map(trial_fn, range(n_trials)))
    return np.asarray(rows, dtype=np.float64)
