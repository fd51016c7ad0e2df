"""run_trials: blocks of trials, one concatenated array per field, in
trial-index order."""

import time

import numpy as np
import pytest

from gaplab.parallel import run_trials


def _record(t):
    return float(t), np.full(3, t, dtype=float), np.eye(2) * t


def _block(start, stop):
    records = [_record(t) for t in range(start, stop)]
    return tuple(np.stack(field) for field in zip(*records))


class TestRunTrials:
    def test_fields_stack_along_trial_axis(self):
        scalars, vectors, mats = run_trials(_block, 4)
        assert scalars.shape == (4,)
        assert vectors.shape == (4, 3)
        assert mats.shape == (4, 2, 2)
        assert np.array_equal(scalars, np.arange(4.0))
        assert np.array_equal(vectors[:, 0], np.arange(4.0))
        assert np.array_equal(mats[:, 1, 1], np.arange(4.0))

    def test_mixed_field_dtypes_are_kept(self):
        ints, cplx = run_trials(
            lambda start, stop: (np.arange(start, stop), 1j * np.arange(start, stop)),
            3,
        )
        assert ints.dtype.kind == "i"
        assert cplx.dtype.kind == "c"

    def test_parallel_output_follows_trial_index(self):
        n = 9

        def shrinking(start, stop):
            # early blocks take longest, so they finish last
            time.sleep(0.002 * (n - start))
            return _block(start, stop)

        serial = run_trials(_block, n)
        threaded = run_trials(shrinking, n, parallelism=3)
        for a, b in zip(serial, threaded):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("block_size", [1, 2, 4, 9, 20])
    def test_blocks_cover_every_trial_once(self, block_size):
        calls = []

        def block(start, stop):
            calls.append((start, stop))
            return _block(start, stop)

        (scalars, *_) = run_trials(block, 9, parallelism=2, block_size=block_size)
        assert np.array_equal(scalars, np.arange(9.0))
        assert all(stop - start <= block_size for start, stop in calls)
        assert sorted(calls)[0][0] == 0 and sorted(calls)[-1][1] == 9
        assert sum(stop - start for start, stop in calls) == 9

    @pytest.mark.parametrize("n_trials", [0, -1])
    def test_nonpositive_trial_count_rejected(self, n_trials):
        with pytest.raises(ValueError):
            run_trials(_block, n_trials)

    def test_nonpositive_block_size_rejected(self):
        with pytest.raises(ValueError):
            run_trials(_block, 3, block_size=0)
