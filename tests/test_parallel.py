"""run_tasks: results in task order, OpenBLAS on one thread meanwhile;
run_trials: blocks of trials, one concatenated array per field, in
trial-index order."""

import threading
import time

import numpy as np
import pytest

from gaplab import parallel
from gaplab.parallel import run_tasks, run_trials

GETTER, SETTER = parallel.openblas_thread_functions()


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


class TestRunTasks:
    def test_serial_runs_inline_in_order(self):
        calls = []

        def task(i):
            calls.append((i, threading.get_ident()))
            return i * i

        tasks = [lambda i=i: task(i) for i in range(5)]
        assert run_tasks(tasks) == [0, 1, 4, 9, 16]
        assert calls == [(i, threading.get_ident()) for i in range(5)]

    def test_parallel_results_follow_task_order(self):
        def task(i):
            time.sleep(0.002 * (6 - i))  # early tasks finish last
            return i

        tasks = [lambda i=i: task(i) for i in range(6)]
        assert run_tasks(tasks, parallelism=3) == list(range(6))

    def test_task_error_propagates(self):
        def fail():
            raise KeyError("boom")

        with pytest.raises(KeyError, match="boom"):
            run_tasks([lambda: 1, fail], parallelism=2)


@pytest.mark.skipif(
    SETTER is None, reason="numpy's BLAS exports no thread-count setter"
)
class TestBlasPin:
    @pytest.fixture(autouse=True)
    def two_threads(self):
        # A prior count other than 1, so that a restore is visible.
        before = GETTER()
        SETTER(2)
        yield
        SETTER(before)

    def test_blocks_run_on_one_thread_and_count_is_restored(self):
        def block(start, stop):
            return (np.full(stop - start, GETTER()),)

        for parallelism in (1, 2):
            (counts,) = run_trials(block, 6, parallelism, block_size=2)
            assert np.array_equal(counts, np.ones(6))
            assert GETTER() == 2

    def test_count_is_restored_after_a_block_raises(self):
        def block(start, stop):
            raise RuntimeError("block failed")

        for parallelism in (1, 2):
            with pytest.raises(RuntimeError, match="block failed"):
                run_trials(block, 4, parallelism)
            assert GETTER() == 2

    def test_nested_calls_keep_the_pin_until_the_outermost_ends(self):
        def outer_task():
            run_tasks([GETTER, GETTER], parallelism=2)
            return GETTER()

        assert run_tasks([outer_task, GETTER], parallelism=2) == [1, 1]
        assert GETTER() == 2

    def test_without_setter_blocks_run_and_agree(self, monkeypatch):
        def block(start, stop):
            mats = np.random.default_rng(start).standard_normal((stop - start, 8, 8))
            return np.linalg.qr(mats)[1], np.full(stop - start, GETTER())

        r_pinned, counts = run_trials(block, 7, parallelism=2, block_size=3)
        assert np.array_equal(counts, np.ones(7))
        monkeypatch.setattr(
            parallel, "openblas_thread_functions", lambda: (GETTER, None)
        )
        r_unpinned, counts = run_trials(block, 7, parallelism=2, block_size=3)
        assert np.array_equal(counts, np.full(7, 2))
        assert np.array_equal(r_pinned, r_unpinned)
