"""Deterministic trial scheduling for Monte Carlo experiments.

Each trial is a pure function of its index (randomness comes from a
per-trial substream), so results are merged in index order and are
bit-for-bit independent of worker count and scheduling.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np


def run_trials(
    trial_fn: Callable[[int], tuple],
    n_trials: int,
    parallelism: int = 1,
) -> tuple[np.ndarray, ...]:
    """Evaluate trial_fn on 0..n_trials-1, where each trial returns a tuple
    of fields (scalars or arrays), and return one array per field, stacked
    along a leading trial axis.

    With parallelism > 1 the trials run on a thread pool; the trial axis
    always follows the trial index.
    """
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    if parallelism <= 1:
        records = [trial_fn(t) for t in range(n_trials)]
    else:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            records = list(pool.map(trial_fn, range(n_trials)))
    return tuple(np.stack(field) for field in zip(*records))
