"""The kernels against brute-force loops."""

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
        assert np.allclose(kernels.sum_outer(v), expect, atol=1e-12)


class TestAxis1Weights:
    """The weights ``conditional_dms`` returns are the axis-1 slice masses."""

    def test_loop_oracle(self, rng):
        t = _complex(rng, (2, 5, 3))
        expect = np.zeros(5)
        for i in range(2):
            for y in range(5):
                for k in range(3):
                    expect[y] += abs(t[i, y, k]) ** 2
        _, weights = kernels.conditional_dms(t.transpose(1, 0, 2))
        assert np.allclose(weights, expect, atol=1e-12)


class TestConditionalDms:
    def test_loop_oracle(self, rng):
        t = _complex(rng, (3, 6, 5))
        grams, weights = kernels.conditional_dms(t.transpose(1, 0, 2))
        assert grams.shape == (6, 3, 3)
        assert weights.shape == (6,)
        for y in range(6):
            a_y = t[:, y, :]
            expect = a_y @ a_y.conj().T
            assert np.allclose(grams[y], expect, atol=1e-12)
            assert abs(weights[y] - expect.trace().real) < 1e-12

    def test_weights_match_axis1(self, rng):
        t = _complex(rng, (3, 6, 5))
        _, weights = kernels.conditional_dms(t.transpose(1, 0, 2))
        mass = np.sum(t.real**2 + t.imag**2, axis=(0, 2))
        assert np.allclose(weights, mass, atol=1e-12)

    def test_conj_out_gives_the_same_bits(self, rng):
        t = _complex(rng, (3, 6, 5)).transpose(1, 0, 2)
        scratch = np.empty_like(t)
        grams, weights = kernels.conditional_dms(t, scratch)
        expect_grams, expect_weights = kernels.conditional_dms(t)
        assert np.array_equal(grams, expect_grams)
        assert np.array_equal(weights, expect_weights)
        assert np.array_equal(scratch, t.conj())

    def test_grams_hermitian(self, rng):
        t = _complex(rng, (3, 5, 4))
        grams, _ = kernels.conditional_dms(t.transpose(1, 0, 2))
        assert np.max(np.abs(grams - grams.conj().transpose(0, 2, 1))) < 1e-12


class TestQuadForms:
    def test_loop_oracle(self, rng):
        mats = _complex(rng, (5, 3, 3))
        mats = mats + mats.conj().transpose(0, 2, 1)  # Hermitian stack
        phi = _complex(rng, 3)
        out = kernels.quad_forms(mats, phi)
        for t in range(5):
            expect = (phi.conj() @ mats[t] @ phi).real
            assert abs(out[t] - expect) < 1e-12

