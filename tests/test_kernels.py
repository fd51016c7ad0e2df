"""Both kernel backends against brute-force loops and each other."""

import importlib.util
import numpy as np
import pytest

from gaplab import kernels


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(1234)


class TestSumOuter:
    def test_loop_oracle(self, rng):
        v = _complex(rng, (7, 3))
        expect = np.zeros((3, 3), dtype=complex)
        for r in range(7):
            expect += np.outer(v[r], v[r].conj())
        assert np.allclose(kernels.sum_outer_numpy(v), expect, atol=1e-12)

    def test_backends_agree(self, rng):
        v = np.ascontiguousarray(_complex(rng, (50, 6)))
        a = kernels.sum_outer_numpy(v)
        b = kernels.sum_outer_numba(v)
        assert np.max(np.abs(a - b)) < 1e-10


class TestAxis1Weights:
    def test_loop_oracle(self, rng):
        t = _complex(rng, (2, 5, 3))
        expect = np.zeros(5)
        for i in range(2):
            for y in range(5):
                for k in range(3):
                    expect[y] += abs(t[i, y, k]) ** 2
        assert np.allclose(kernels.axis1_weights_numpy(t), expect, atol=1e-12)

    def test_backends_agree(self, rng):
        t = np.ascontiguousarray(_complex(rng, (3, 8, 4)))
        a = kernels.axis1_weights_numpy(t)
        b = kernels.axis1_weights_numba(t)
        assert np.max(np.abs(a - b)) < 1e-10


class TestConditionalDms:
    def test_loop_oracle(self, rng):
        t = _complex(rng, (2, 4, 3))
        grams, weights = kernels.conditional_dms_numpy(t)
        assert grams.shape == (4, 2, 2)
        for y in range(4):
            a_y = t[:, y, :]
            expect = a_y @ a_y.conj().T
            assert np.allclose(grams[y], expect, atol=1e-12)
            assert abs(weights[y] - expect.trace().real) < 1e-12

    def test_weights_match_axis1(self, rng):
        t = _complex(rng, (3, 6, 5))
        _, weights = kernels.conditional_dms_numpy(t)
        assert np.allclose(weights, kernels.axis1_weights_numpy(t), atol=1e-12)

    def test_backends_agree(self, rng):
        t = np.ascontiguousarray(_complex(rng, (2, 10, 7)))
        ga, wa = kernels.conditional_dms_numpy(t)
        gb, wb = kernels.conditional_dms_numba(t)
        assert np.max(np.abs(ga - gb)) < 1e-10
        assert np.max(np.abs(wa - wb)) < 1e-10

    def test_grams_hermitian(self, rng):
        t = _complex(rng, (3, 5, 4))
        grams, _ = kernels.conditional_dms_numpy(t)
        assert np.max(np.abs(grams - grams.conj().transpose(0, 2, 1))) < 1e-12


class TestQuadForms:
    def test_loop_oracle(self, rng):
        mats = _complex(rng, (5, 3, 3))
        mats = mats + mats.conj().transpose(0, 2, 1)  # Hermitian stack
        phi = _complex(rng, 3)
        out = kernels.quad_forms_numpy(mats, phi)
        for t in range(5):
            expect = (phi.conj() @ mats[t] @ phi).real
            assert abs(out[t] - expect) < 1e-12

    def test_backends_agree(self, rng):
        mats = _complex(rng, (9, 4, 4))
        mats = np.ascontiguousarray(mats + mats.conj().transpose(0, 2, 1))
        phi = np.ascontiguousarray(_complex(rng, 4))
        a = kernels.quad_forms_numpy(mats, phi)
        b = kernels.quad_forms_numba(mats, phi)
        assert np.max(np.abs(a - b)) < 1e-10


SNIPPET = (
    "from gaplab import kernels\n"
    "print(kernels.USING_NUMBA, kernels.sum_outer is kernels.sum_outer_numpy)\n"
)


@pytest.fixture
def run_snippet(run_python):
    """Import gaplab in a fresh interpreter with ``GAPLAB_NO_NUMBA=flag``;
    the parent's own ``GAPLAB_NO_NUMBA`` cannot leak in."""

    def run(flag):
        out = run_python("-c", SNIPPET, env_extra={"GAPLAB_NO_NUMBA": flag})
        assert out.returncode == 0, out.stderr
        return out.stdout.split()

    return run


class TestBackendSelection:
    def test_env_flag_forces_numpy(self, run_snippet):
        assert run_snippet("1") == ["False", "True"]

    def test_flag_zero_means_default(self, run_snippet):
        using, is_numpy = run_snippet("0")
        # With the flag unset-or-zero the numba build is taken when available.
        # Availability is asked of the import system, not of the parent's
        # kernels.HAVE_NUMBA, which the parent's own GAPLAB_NO_NUMBA can turn off.
        numba_available = importlib.util.find_spec("numba") is not None
        assert using == str(numba_available)
        assert is_numpy == str(not numba_available)

    def test_dispatch_consistent_in_process(self):
        if kernels.USING_NUMBA:
            assert kernels.sum_outer is kernels.sum_outer_numba
            assert kernels.quad_forms is kernels.quad_forms_numba
        else:
            assert kernels.sum_outer is kernels.sum_outer_numpy
            assert kernels.quad_forms is kernels.quad_forms_numpy
