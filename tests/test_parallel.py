"""run_trials: one stacked array per record field, in trial-index order."""

import time

import numpy as np
import pytest

from gaplab.parallel import run_trials


def _record(t):
    return float(t), np.full(3, t, dtype=float), np.eye(2) * t


class TestRunTrials:
    def test_fields_stack_along_trial_axis(self):
        scalars, vectors, mats = run_trials(_record, 4)
        assert scalars.shape == (4,)
        assert vectors.shape == (4, 3)
        assert mats.shape == (4, 2, 2)
        assert np.array_equal(scalars, np.arange(4.0))
        assert np.array_equal(vectors[:, 0], np.arange(4.0))
        assert np.array_equal(mats[:, 1, 1], np.arange(4.0))

    def test_mixed_field_dtypes_are_kept(self):
        ints, cplx = run_trials(lambda t: (t, 1j * t), 3)
        assert ints.dtype.kind == "i"
        assert cplx.dtype.kind == "c"

    def test_parallel_output_follows_trial_index(self):
        n = 9

        def shrinking(t):
            # early trials take longest, so they finish last
            time.sleep(0.002 * (n - t))
            return _record(t)

        serial = run_trials(_record, n)
        threaded = run_trials(shrinking, n, parallelism=3)
        for a, b in zip(serial, threaded):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n_trials", [0, -1])
    def test_nonpositive_trial_count_rejected(self, n_trials):
        with pytest.raises(ValueError):
            run_trials(_record, n_trials)
