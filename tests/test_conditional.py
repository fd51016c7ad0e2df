"""Conditioning a composite pure state on one factor's measurement outcome."""

import numpy as np
import pytest
from scipy import stats as sps

from gaplab.conditional import (
    condition_on_random_basis,
    draw_outcomes,
    outcome_weights,
)
from gaplab.ensembles import RandomStream, sample_haar_frames, sample_haar_unitary
from gaplab.hilbert import trace_distance

from reference import (
    ConditionalOutcome,
    OrthonormalBasis,
    SpaceFactorization,
    StateVector,
    conditional_density_matrix,
    conditional_dm_from_s_average,
    conditional_wave_function,
    outcome_distribution,
    partial_trace,
    pure_density_matrix,
    sample_conditional_wf,
    sample_haar_onb,
    state_tensor_product,
)


def random_state(rng, dims, labels=("S", "Y", "s")):
    fact = SpaceFactorization(tuple(labels[: len(dims)]), tuple(dims))
    z = rng.standard_normal(fact.total_dim) + 1j * rng.standard_normal(fact.total_dim)
    return StateVector(z / np.linalg.norm(z), fact, normalized=True)


class TestOutcomeDistribution:
    def test_column_sum_oracle(self):
        # Weight of outcome y is the squared mass of the y-slice after
        # rotating the conditioning factor into the measurement basis.
        rng = np.random.default_rng(41)
        psi = random_state(rng, (2, 3), labels=("S", "Y"))
        basis = sample_haar_onb(RandomStream(42), 3, "Y")
        probs = outcome_distribution(psi, basis)
        t = psi.tensor()  # (2, 3)
        expect = np.zeros(3)
        for y in range(3):
            col = basis.column(y)
            for i in range(2):
                amp = sum(np.conj(col[j]) * t[i, j] for j in range(3))
                expect[y] += abs(amp) ** 2
        assert np.allclose(probs, expect, atol=1e-12)
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_computational_basis(self):
        rng = np.random.default_rng(43)
        psi = random_state(rng, (2, 4, 3))
        basis = OrthonormalBasis.computational(4, "Y")
        probs = outcome_distribution(psi, basis)
        expect = np.sum(np.abs(psi.tensor()) ** 2, axis=(0, 2))
        assert np.allclose(probs, expect, atol=1e-12)

    def test_incomplete_basis_rejected(self):
        rng = np.random.default_rng(44)
        psi = random_state(rng, (2, 3), labels=("S", "Y"))
        partial = OrthonormalBasis(np.eye(3)[:, :2].astype(complex), "Y")
        with pytest.raises(ValueError, match="complete"):
            outcome_distribution(psi, partial)

    def test_dim_mismatch_rejected(self):
        rng = np.random.default_rng(45)
        psi = random_state(rng, (2, 3), labels=("S", "Y"))
        wrong = OrthonormalBasis.computational(4, "Y")
        with pytest.raises(ValueError, match="dim"):
            outcome_distribution(psi, wrong)


class TestConditionalWaveFunction:
    def test_matches_partial_inner_product(self):
        rng = np.random.default_rng(46)
        psi = random_state(rng, (2, 3, 4))
        basis = sample_haar_onb(RandomStream(47), 3, "Y")
        out = conditional_wave_function(psi, basis, 1)
        assert out.y_index == 1
        assert out.conditional_state.factorization.labels == ("S", "s")
        probs = outcome_distribution(psi, basis)
        assert abs(out.weight - probs[1]) < 1e-12

    def test_zero_weight_outcome_raises(self):
        # A product state whose Y part is |0> gives outcome 1 zero weight.
        s_part = StateVector(
            np.array([1.0, 0.0]), SpaceFactorization(("S",), (2,)), normalized=True
        )
        y_part = StateVector(
            np.array([1.0, 0.0]), SpaceFactorization(("Y",), (2,)), normalized=True
        )
        psi = state_tensor_product(s_part, y_part)
        basis = OrthonormalBasis.computational(2, "Y")
        with pytest.raises(ValueError, match="weight"):
            conditional_wave_function(psi, basis, 1)


class TestSampleConditionalWf:
    def test_frequencies_follow_born_rule(self):
        rng = np.random.default_rng(48)
        psi = random_state(rng, (2, 3), labels=("S", "Y"))
        basis = OrthonormalBasis.computational(3, "Y")
        probs = outcome_distribution(psi, basis)
        gen = RandomStream(49).generator()
        counts = np.zeros(3)
        n = 4000
        for _ in range(n):
            counts[sample_conditional_wf(gen, psi, basis).y_index] += 1
        sigma = np.sqrt(probs * (1 - probs) / n)
        assert np.all(np.abs(counts / n - probs) < 5 * sigma + 1e-3)

    def test_never_samples_zero_branch(self):
        s_part = StateVector(
            np.array([0.6, 0.8]), SpaceFactorization(("S",), (2,)), normalized=True
        )
        y_part = StateVector(
            np.array([0.0, 1.0]), SpaceFactorization(("Y",), (2,)), normalized=True
        )
        psi = state_tensor_product(s_part, y_part)
        basis = OrthonormalBasis.computational(2, "Y")
        gen = RandomStream(50).generator()
        for _ in range(100):
            assert sample_conditional_wf(gen, psi, basis).y_index == 1


class TestConditionalDensityMatrix:
    def test_coordinate_loop_oracle(self):
        # Entrywise construction on a 2 (x) 2 (x) 2 state: contract the
        # conditioning vector, then form the normalized Gram over s.
        rng = np.random.default_rng(51)
        psi = random_state(rng, (2, 2, 2))
        basis = sample_haar_onb(RandomStream(52), 2, "Y")
        y = 1
        col = basis.column(y)
        t = psi.tensor()
        v = np.zeros((2, 2), dtype=complex)  # indices (S, s)
        for i in range(2):
            for k in range(2):
                for j in range(2):
                    v[i, k] += np.conj(col[j]) * t[i, j, k]
        expect = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for ip in range(2):
                for k in range(2):
                    expect[i, ip] += v[i, k] * np.conj(v[ip, k])
        expect /= expect.trace().real
        got = conditional_density_matrix(psi, basis, y, "s")
        assert np.max(np.abs(got.entries - expect)) < 1e-12

    def test_matches_wave_function_reduction(self):
        rng = np.random.default_rng(53)
        psi = random_state(rng, (2, 3, 4))
        basis = sample_haar_onb(RandomStream(54), 3, "Y")
        for y in range(3):
            dm = conditional_density_matrix(psi, basis, y, "s")
            wf = conditional_wave_function(psi, basis, y).conditional_state
            reduced = partial_trace(pure_density_matrix(wf), "s")
            assert trace_distance(dm.entries, reduced.entries) < 1e-12

    def test_outcome_average_recovers_reduced_state(self):
        # Sum_y weight_y rho_cond(y) equals the plain reduced state of psi,
        # for any measurement basis.
        rng = np.random.default_rng(55)
        for dims in [(2, 2, 2), (2, 4, 4), (2, 3, 4)]:
            psi = random_state(rng, dims)
            basis = sample_haar_onb(RandomStream(56, dims[1]), dims[1], "Y")
            probs = outcome_distribution(psi, basis)
            acc = np.zeros((dims[0], dims[0]), dtype=complex)
            for y in range(dims[1]):
                acc += probs[y] * conditional_density_matrix(
                    psi, basis, y, "s"
                ).entries
            reduced = partial_trace(pure_density_matrix(psi), ("Y", "s"))
            assert np.max(np.abs(acc - reduced.entries)) < 1e-12

    def test_multi_factor_kept_side(self):
        rng = np.random.default_rng(57)
        fact = SpaceFactorization(("S1", "S2", "Y", "s"), (2, 2, 3, 2))
        z = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        psi = StateVector(z / np.linalg.norm(z), fact, normalized=True)
        basis = OrthonormalBasis.computational(3, "Y")
        dm = conditional_density_matrix(psi, basis, 0, "s")
        assert dm.factorization.labels == ("S1", "S2")
        assert dm.dim == 4


class TestSAverageConstruction:
    @pytest.mark.parametrize("seed", [60, 61, 62])
    def test_basis_independent_and_exact(self, seed):
        rng = np.random.default_rng(seed)
        psi = random_state(rng, (2, 3, 4))
        basis = sample_haar_onb(RandomStream(seed, 1), 3, "Y")
        direct = conditional_density_matrix(psi, basis, 2, "s")
        for s_basis in [
            OrthonormalBasis.computational(4, "s"),
            sample_haar_onb(RandomStream(seed, 2), 4, "s"),
            sample_haar_onb(RandomStream(seed, 3), 4, "s"),
        ]:
            avg = conditional_dm_from_s_average(psi, basis, 2, s_basis)
            assert np.max(np.abs(avg.entries - direct.entries)) < 1e-12

    def test_zero_weight_raises(self):
        s_part = StateVector(
            np.array([0.6, 0.8]), SpaceFactorization(("S",), (2,)), normalized=True
        )
        ys_part = StateVector(
            np.array([1.0, 0.0, 0.0, 0.0]),
            SpaceFactorization(("Y", "s"), (2, 2)),
            normalized=True,
        )
        psi = state_tensor_product(s_part, ys_part)
        basis = OrthonormalBasis.computational(2, "Y")
        s_basis = OrthonormalBasis.computational(2, "s")
        with pytest.raises(ValueError, match="weight"):
            conditional_dm_from_s_average(psi, basis, 1, s_basis)


class TestConditionalOutcome:
    def test_validation(self):
        sv = StateVector(
            np.array([1.0, 0.0]), SpaceFactorization(("S",), (2,)), normalized=True
        )
        with pytest.raises(ValueError, match="probability"):
            ConditionalOutcome(0, 1.5, sv)
        not_norm = StateVector(np.array([2.0, 0.0]), SpaceFactorization(("S",), (2,)))
        with pytest.raises(ValueError, match="normalized"):
            ConditionalOutcome(0, 0.5, not_norm)


def one_conditional_each(c, rng):
    """Normalized conditional of one Born-drawn outcome per stacked state."""
    ys = draw_outcomes(rng, outcome_weights(c))
    v = c[np.arange(c.shape[0]), :, ys]
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def law_pvalues(a, b):
    """KS p-values comparing two samples of 2-dim conditionals through
    |v0|^2 and, after rotating v0 real, arg v1, Re v1 and Im v1."""

    def features(v):
        v1 = v[:, 1] * np.exp(-1j * np.angle(v[:, 0]))
        return (np.abs(v[:, 0]) ** 2, np.angle(v1), v1.real, v1.imag)

    return [
        sps.ks_2samp(fa, fb, method="asymp").pvalue
        for fa, fb in zip(features(a), features(b))
    ]


class TestConditionOnRandomBasis:
    def test_gram_identity_exact(self):
        # c c^dagger = A A^dagger for every draw, rank-deficient A included.
        rng = np.random.default_rng(60)
        full = rng.standard_normal((4, 3, 7)) + 1j * rng.standard_normal((4, 3, 7))
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        rank_one = np.outer(x, y)[None]
        zero_row = full[:1].copy()
        zero_row[0, 1] = 0.0
        a = np.concatenate([full, rank_one, zero_row])
        c = condition_on_random_basis(RandomStream(61), a)
        assert c.shape == a.shape
        gram_c = c @ c.conj().transpose(0, 2, 1)
        gram_a = a @ a.conj().transpose(0, 2, 1)
        assert np.max(np.abs(gram_c - gram_a)) < 1e-12

    def test_rejects_non_stack_input(self):
        with pytest.raises(ValueError, match="stack"):
            condition_on_random_basis(RandomStream(62), np.ones((3, 2)))

    def test_wide_gram_identity_exact(self):
        # keep >= cond: the full unitary, c c^dagger = A A^dagger as well.
        rng = np.random.default_rng(90)
        a = rng.standard_normal((3, 12, 5)) + 1j * rng.standard_normal((3, 12, 5))
        a[1, :, 2] = 0.0
        per_state = [RandomStream(92 + i).generator() for i in range(3)]
        for stream in (RandomStream(91), per_state):
            c = condition_on_random_basis(stream, a)
            assert c.shape == a.shape
            gram_c = c @ c.conj().transpose(0, 2, 1)
            gram_a = a @ a.conj().transpose(0, 2, 1)
            assert np.max(np.abs(gram_c - gram_a)) < 1e-12

    def test_generator_per_state_matches_one_at_a_time(self):
        # A sequence of generators conditions state i with generator i
        # alone: the unitary one sample_haar_unitary call on it would give,
        # with the generator left in the same state.  The states come as a
        # transposed view, the layout the conditional-DM trials use.  The
        # product is formed as U^H a^T; a[i] @ conj(U) may take another
        # BLAS kernel and differ in the last bit.
        rng = np.random.default_rng(93)
        states = rng.standard_normal((4, 6, 10)) + 1j * rng.standard_normal((4, 6, 10))
        a = states.transpose(0, 2, 1)  # (n, keep=10, cond=6)
        gens = [RandomStream(94, i).generator() for i in range(4)]
        c = condition_on_random_basis(gens, a)
        for i, gen in enumerate(gens):
            solo = RandomStream(94, i).generator()
            u = sample_haar_unitary(solo, 6)
            assert np.array_equal(c[i], (u.conj().T @ states[i]).T)
            assert np.max(np.abs(c[i] - a[i] @ u.conj())) < 1e-14
            assert gen.random() == solo.random()

    @pytest.mark.parametrize("keep, cond", [(2, 7), (7, 2)])
    def test_out_receives_the_same_bits(self, keep, cond):
        rng = np.random.default_rng(95)
        a = rng.standard_normal((3, keep, cond)) + 1j * rng.standard_normal(
            (3, keep, cond)
        )
        fresh = condition_on_random_basis(RandomStream(96), a)
        # laid out as a new result: C order for keep < cond, otherwise the
        # transpose of a C-order (n, cond, keep) array
        if keep < cond:
            out = np.empty((3, keep, cond), dtype=complex)
        else:
            out = np.empty((3, cond, keep), dtype=complex).transpose(0, 2, 1)
        got = condition_on_random_basis(RandomStream(96), a, out=out)
        assert np.shares_memory(got, out)
        assert np.array_equal(got, fresh) and np.array_equal(out, fresh)

    def test_narrow_branch_keeps_its_bytes(self):
        # keep < cond: L from the reduced QR of A^H times a Haar keep-frame,
        # all frames drawn from the one stream, as gap_distribution and the
        # heredity check use it.
        rng = np.random.default_rng(70)
        a = rng.standard_normal((5, 2, 16)) + 1j * rng.standard_normal((5, 2, 16))
        c = condition_on_random_basis(RandomStream(71), a)
        r = np.linalg.qr(a.conj().transpose(0, 2, 1), mode="r")
        frames = sample_haar_frames(RandomStream(71), 16, 2, 5)
        expect = r.conj().transpose(0, 2, 1) @ frames.transpose(0, 2, 1)
        assert np.array_equal(c, expect)

    def test_frames_have_orthonormal_columns(self):
        frames = sample_haar_frames(RandomStream(63), 9, 3, 50)
        assert frames.shape == (50, 9, 3)
        overlap = frames.conj().transpose(0, 2, 1) @ frames
        assert np.max(np.abs(overlap - np.eye(3))) < 1e-13

    def test_draw_outcomes_matches_choice(self):
        # One uniform per row, inverted exactly as Generator.choice does;
        # zero-weight outcomes are never drawn.
        w = np.random.default_rng(64).random((300, 6))
        w[:, [0, 3]] = 0.0
        gen = RandomStream(65).generator()
        expect = [gen.choice(6, p=row / row.sum()) for row in w]
        got = draw_outcomes(RandomStream(65), w)
        assert np.array_equal(got, expect)
        assert not np.any(np.isin(got, [0, 3]))

    def _fixed_state(self):
        # Unequal singular values, so a sampler that ignores A shows.
        rng = np.random.default_rng(66)
        q = np.linalg.qr(
            rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        )[0]
        return (np.diag([0.9, 0.3]) @ q.T)[None]  # (1, keep=2, cond=8)

    def test_law_matches_full_haar_conditioning(self):
        # Independent single conditionals of one fixed state: the frame
        # route and conditioning through full Haar unitaries agree in law.
        n = 40_000
        a = self._fixed_state()
        gen = RandomStream(67).generator()
        fast = one_conditional_each(
            condition_on_random_basis(gen, np.repeat(a, n, axis=0)), gen
        )
        gen = RandomStream(68).generator()
        u = sample_haar_frames(gen, 8, 8, n)
        slow = one_conditional_each(a @ u.conj(), gen)
        assert min(law_pvalues(fast, slow)) > 1e-3

    def test_negative_control_without_l_fails(self):
        # Dropping L leaves bare frame rows, which no longer depend on the
        # state: the same law test must reject them.
        n = 40_000
        a = self._fixed_state()
        gen = RandomStream(69).generator()
        bare = sample_haar_frames(gen, 8, 2, n).transpose(0, 2, 1)
        wrong = one_conditional_each(bare, gen)
        gen = RandomStream(68).generator()
        u = sample_haar_frames(gen, 8, 8, n)
        slow = one_conditional_each(a @ u.conj(), gen)
        assert min(law_pvalues(wrong, slow)) < 1e-3
