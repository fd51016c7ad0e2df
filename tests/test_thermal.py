"""Spectra, canonical ensembles, energy shells, and the composite builder."""

import math
import os

import numpy as np
import pytest
from scipy.special import logsumexp

from gaplab.ensembles import RandomStream, sample_haar_unitary
from gaplab.experiments import EXPERIMENTS
from gaplab.hilbert import trace_distance
from gaplab.runner import load_run_config
from gaplab.thermal import (
    EnergyShell,
    HamiltonianSpec,
    build_composite,
    canonical_density_matrix,
    canonical_mean_energy,
    energy_shell,
    log_partition_function,
    match_beta,
    microcanonical,
    partition_function,
    sample_shell_state,
    synth_bath_spectrum,
    variance_ratio_prediction,
)


CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def flat_spec(values, label="H", basis=None):
    return HamiltonianSpec.from_spectrum(values, label=label, basis=basis)


class TestHamiltonianSpec:
    def test_sorting_and_columns(self):
        h = flat_spec([2.0, 0.0, 1.0], label="A")
        assert np.allclose(h.eigenvalues, [0.0, 1.0, 2.0])
        # rank 0 is the eigenvector for the original index 1
        assert np.allclose(h.eigenvector_columns(0)[:, 0], [0, 1, 0])

    def test_unsorted_direct_construction_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            HamiltonianSpec(
                eigenvalues=np.array([1.0, 0.0]),
                factor_labels=("A",),
                factor_dims=(2,),
                factor_bases=(None,),
                column_indices=np.array([[0], [1]]),
                label="A",
            )

    def test_flat_indices_requires_computational(self):
        u = sample_haar_unitary(RandomStream(1), 2)
        h = flat_spec([0.0, 1.0], basis=u)
        with pytest.raises(ValueError):
            h.flat_indices(np.array([0]))

    def test_eigenbasis_diagonalizes(self):
        rng = np.random.default_rng(2)
        u = sample_haar_unitary(rng, 4)
        ev = np.sort(rng.standard_normal(4))
        h = flat_spec(ev, basis=u)
        q = h.eigenbasis().vectors
        dense = (q * ev) @ q.conj().T
        assert np.max(np.abs(q.conj().T @ dense @ q - np.diag(ev))) < 1e-10


class TestBuildComposite:
    def test_two_qubit_levels(self):
        a = flat_spec([0.0, 1.0], label="A")
        b = flat_spec([0.0, 1.0], label="B")
        comp = build_composite(a, b)
        assert np.allclose(comp.eigenvalues, [0.0, 1.0, 1.0, 2.0])
        assert comp.factorization.labels == ("A", "B")

    def test_dense_kronecker_sum_oracle(self):
        # Eigenvalues and eigenvectors must match a dense diagonalization of
        # H_a (x) I + I (x) H_b for nontrivial factor bases.
        rng = np.random.default_rng(3)
        ua = sample_haar_unitary(rng, 3)
        ub = sample_haar_unitary(rng, 4)
        ev_a = np.sort(rng.standard_normal(3))
        ev_b = np.sort(rng.standard_normal(4))
        a = flat_spec(ev_a, label="A", basis=ua)
        b = flat_spec(ev_b, label="B", basis=ub)
        comp = build_composite(a, b)
        ha = (ua * ev_a) @ ua.conj().T
        hb = (ub * ev_b) @ ub.conj().T
        dense = np.kron(ha, np.eye(4)) + np.kron(np.eye(3), hb)
        assert np.allclose(comp.eigenvalues, np.linalg.eigvalsh(dense), atol=1e-10)
        q = comp.eigenvector_columns(np.arange(12))
        assert np.max(np.abs(q.conj().T @ dense @ q - np.diag(comp.eigenvalues))) < 1e-9

    def test_perturbation_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        a = flat_spec([0.0, 1.0], label="A")
        b = flat_spec([0.0, 0.4, 1.1], label="B")
        k = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        k = 0.05 * (k + k.conj().T)
        comp = build_composite(a, b, perturbation=k)
        dense = (
            np.kron(np.diag([0.0, 1.0]), np.eye(3))
            + np.kron(np.eye(2), np.diag([0.0, 0.4, 1.1]))
            + k
        )
        w = np.linalg.eigvalsh(dense)
        assert np.allclose(comp.eigenvalues, w, atol=1e-10)
        q = comp.eigenvector_columns(np.arange(6))
        assert np.max(np.abs(q.conj().T @ dense @ q - np.diag(w))) < 1e-9
        # factorization survives, so downstream partial traces stay usable
        assert comp.factorization.dims == (2, 3)

    def test_zero_perturbation_matches_plain(self):
        a = flat_spec([0.0, 1.0], label="A")
        b = flat_spec([0.0, 0.5], label="B")
        plain = build_composite(a, b)
        pert = build_composite(a, b, perturbation=np.zeros((4, 4)))
        assert np.allclose(plain.eigenvalues, pert.eigenvalues, atol=1e-12)

    def test_perturbation_validation(self):
        a = flat_spec([0.0, 1.0], label="A")
        b = flat_spec([0.0, 1.0], label="B")
        with pytest.raises(ValueError, match="Hermitian"):
            build_composite(a, b, perturbation=np.triu(np.ones((4, 4)), k=1))
        with pytest.raises(ValueError, match="shape"):
            build_composite(a, b, perturbation=np.zeros((3, 3)))


class TestPartitionFunction:
    def test_beta_zero_is_dim(self):
        h = flat_spec(np.arange(7.0))
        assert abs(partition_function(h, 0.0) - 7.0) < 1e-12

    def test_two_level_value(self):
        h = flat_spec([0.0, 1.0])
        assert abs(partition_function(h, 1.0) - (1.0 + math.exp(-1))) < 1e-12

    def test_flat_spectrum(self):
        h = flat_spec([2.5] * 5)
        beta = 0.7
        assert abs(partition_function(h, beta) - 5 * math.exp(-beta * 2.5)) < 1e-12

    def test_log_space_survives_large_energies(self):
        # Direct summation would overflow; the log form must not.
        h = flat_spec([-10_000.0, -9_999.0])
        got = log_partition_function(h, 1.0)
        assert abs(got - (10_000.0 + math.log1p(math.exp(-1.0)))) < 1e-9

    @staticmethod
    def assert_matches_scipy(h, beta):
        want = float(logsumexp(-beta * h.eigenvalues))
        assert log_partition_function(h, beta) == want

    @pytest.mark.parametrize(
        "name",
        ["canonical_typicality", "gap_distribution", "conditional_dm_concentration"],
    )
    def test_bitwise_scipy_on_reference_spectra(self, name):
        run = load_run_config(os.path.join(CONFIG_DIR, f"{name}.yaml"))
        for setup in EXPERIMENTS[name].shells(run.experiment_config, run.seed):
            for h in (setup.h, *setup.factors):
                for beta in (setup.beta, 2.0 * setup.beta, -setup.beta):
                    self.assert_matches_scipy(h, beta)

    @pytest.mark.parametrize("beta", [0.0, 0.3, -1.7, 4.0])
    def test_bitwise_scipy_on_tied_and_flat_spectra(self, beta):
        rng = np.random.default_rng(7)
        for values in (
            [0.0, 0.0, 0.0, 1.0, 2.5],  # tied minima
            [-1.0, -1.0, 3.0, 3.0, 3.0],  # ties at both ends
            np.round(rng.standard_normal(4_097) * 3.0),  # many ties
            [2.5] * 5,  # flat
            [0.0],
            np.arange(1_000) * 0.37,  # a ladder: the sum's pairing matters
        ):
            self.assert_matches_scipy(flat_spec(values), beta)

    def test_bitwise_scipy_at_large_exponents(self):
        rng = np.random.default_rng(8)
        for scale in (1e2, 1e3):
            h = flat_spec(rng.uniform(-scale, scale, 1_000))
            for beta in (1.0, -1.0, 0.999):
                self.assert_matches_scipy(h, beta)
        self.assert_matches_scipy(flat_spec([-1_000.0, -999.0, 1_000.0]), 1.0)


class TestCanonicalEnsemble:
    def test_two_level_density(self):
        h = flat_spec([0.0, 1.0])
        rho = canonical_density_matrix(h, 1.0)
        z = 1.0 + math.exp(-1)
        assert np.allclose(rho.entries, np.diag([1.0 / z, math.exp(-1) / z]))

    def test_rotated_basis(self):
        rng = np.random.default_rng(5)
        u = sample_haar_unitary(rng, 3)
        ev = np.array([0.0, 0.5, 2.0])
        h = flat_spec(ev, basis=u)
        rho = canonical_density_matrix(h, 0.8)
        w = np.exp(-0.8 * ev)
        w /= w.sum()
        assert np.max(np.abs(rho.entries - (u * w) @ u.conj().T)) < 1e-12

    def test_mean_energy_at_beta_zero(self):
        h = flat_spec([0.0, 1.0, 5.0])
        assert abs(canonical_mean_energy(h, 0.0) - 2.0) < 1e-12


class TestMatchBeta:
    def test_two_level_inversion(self):
        h = flat_spec([0.0, 1.0])
        target = math.exp(-1) / (1.0 + math.exp(-1))
        assert abs(match_beta(h, target) - 1.0) < 1e-6

    def test_infinite_temperature(self):
        h = flat_spec([0.0, 1.0, 2.0, 7.0])
        assert abs(match_beta(h, 2.5)) < 1e-6

    @pytest.mark.parametrize("beta", [0.1, 0.5, 1.0, 3.0, 10.0])
    def test_round_trip(self, beta):
        h = synth_bath_spectrum(None, 6, "equal_spaced", scale=0.5, label="s")
        energy = canonical_mean_energy(h, beta)
        assert abs(match_beta(h, energy, residual_factor=1e-13) - beta) < 1e-8

    def test_negative_beta_branch(self):
        # Targets above the infinite-temperature mean need beta < 0.
        h = flat_spec([0.0, 1.0])
        beta = match_beta(h, 0.8)
        assert beta < 0
        assert abs(canonical_mean_energy(h, beta) - 0.8) < 1e-8

    def test_target_out_of_range(self):
        h = flat_spec([0.0, 1.0])
        with pytest.raises(ValueError, match="range"):
            match_beta(h, 1.0)
        with pytest.raises(ValueError, match="range"):
            match_beta(h, -0.5)

    def test_large_beta_near_ground(self):
        h = flat_spec([0.0, 1.0])
        assert match_beta(h, 1e-3) > 6.0


class TestVarianceRatioPrediction:
    def test_flat_spectrum_inverse_dim(self):
        h = flat_spec([1.0] * 9)
        assert abs(variance_ratio_prediction(h, 2.3) - 1.0 / 9) < 1e-12

    def test_beta_zero_inverse_dim(self):
        h = flat_spec(np.linspace(0, 3, 11))
        assert abs(variance_ratio_prediction(h, 0.0) - 1.0 / 11) < 1e-12

    def test_two_level_value(self):
        h = flat_spec([0.0, 1.0])
        expect = (1.0 + math.exp(-2)) / (1.0 + math.exp(-1)) ** 2
        assert abs(variance_ratio_prediction(h, 1.0) - expect) < 1e-12

    @pytest.mark.parametrize("beta", [0.0, 0.4, 1.7, 6.0])
    def test_equals_purity_of_canonical(self, beta):
        rng = np.random.default_rng(6)
        h = flat_spec(np.sort(rng.uniform(0, 2, size=8)), label="s")
        from gaplab.hilbert import purity

        rho = canonical_density_matrix(h, beta)
        assert abs(variance_ratio_prediction(h, beta) - purity(rho)) < 1e-12


class TestEnergyShell:
    def test_half_open_membership(self):
        h = flat_spec([0.0, 1.0, 2.0, 3.0])
        shell = energy_shell(h, 1.0, 2.0)  # [1, 3): levels 1 and 2
        assert list(shell.member_ranks) == [1, 2]
        assert shell.shell_dim == 2
        assert abs(shell.midpoint_energy - 2.0) < 1e-12

    def test_empty_shell_raises(self):
        h = flat_spec([0.0, 1.0])
        with pytest.raises(ValueError, match="no eigenvalues"):
            energy_shell(h, 0.2, 0.5)

    def test_nonpositive_width_raises(self):
        h = flat_spec([0.0, 1.0])
        with pytest.raises(ValueError, match="delta"):
            energy_shell(h, 0.0, 0.0)

    def test_membership_validation(self):
        h = flat_spec([0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="outside"):
            EnergyShell(h, 0.0, 0.5, np.array([2]))


class TestMicrocanonical:
    def test_full_span_is_maximally_mixed(self):
        h = flat_spec([0.0, 1.0, 2.0])
        _, rho = microcanonical(h, -0.5, 10.0)
        assert np.allclose(rho.entries, np.eye(3) / 3)

    def test_single_member_projector(self):
        h = flat_spec([0.0, 1.0, 2.0])
        shell, rho = microcanonical(h, 0.5, 1.0)
        assert shell.shell_dim == 1
        assert np.allclose(rho.entries, np.diag([0.0, 1.0, 0.0]))

    def test_filter_and_project_oracle(self):
        rng = np.random.default_rng(7)
        u = sample_haar_unitary(rng, 6)
        ev = np.sort(rng.uniform(0, 4, size=6))
        h = flat_spec(ev, basis=u)
        lo, width = 1.0, 1.5
        shell, rho = microcanonical(h, lo, width)
        keep = (ev >= lo) & (ev < lo + width)
        assert shell.shell_dim == int(keep.sum())
        cols = u[:, keep]
        expect = cols @ cols.conj().T / keep.sum()
        assert np.max(np.abs(rho.entries - expect)) < 1e-12


class TestSampleShellState:
    def test_singleton_shell_reproduces_eigenvector(self):
        rng = np.random.default_rng(8)
        u = sample_haar_unitary(rng, 4)
        h = flat_spec([0.0, 1.0, 2.0, 3.0], basis=u)
        shell = energy_shell(h, 0.5, 1.0)
        sv = sample_shell_state(RandomStream(30), shell)
        overlap = abs(np.vdot(u[:, 1], sv.amplitudes))
        assert abs(overlap - 1.0) < 1e-12

    def test_no_leakage_outside_shell(self):
        h = flat_spec(np.arange(8.0), label="B")
        shell = energy_shell(h, 2.0, 3.0)  # levels 2, 3, 4
        states = sample_shell_state(RandomStream(31), shell, size=50)
        outside = np.delete(np.arange(8), shell.member_ranks)
        assert np.max(np.abs(states[:, outside])) < 1e-12

    def test_covariance_matches_microcanonical(self):
        h = flat_spec(np.arange(6.0), label="B")
        shell, rho = microcanonical(h, 1.0, 3.0)
        states = sample_shell_state(RandomStream(32), shell, size=50_000)
        cov = states.T @ states.conj() / states.shape[0]
        assert trace_distance(0.5 * (cov + cov.conj().T), rho.entries) < 0.02


class TestSynthBathSpectrum:
    def test_equal_spaced(self):
        h = synth_bath_spectrum(None, 4, "equal_spaced", scale=0.5)
        assert np.allclose(h.eigenvalues, [0.0, 0.5, 1.0, 1.5])

    def test_poisson_gap_mean(self):
        h = synth_bath_spectrum(
            RandomStream(33), 10_000, "poisson_gaps", scale=0.7
        )
        gaps = np.diff(h.eigenvalues)
        assert np.all(gaps >= 0)
        assert abs(gaps.mean() / 0.7 - 1.0) < 0.05

    def test_poisson_requires_stream(self):
        with pytest.raises(ValueError, match="stream"):
            synth_bath_spectrum(None, 8, "poisson_gaps")

    def test_semicircle_symmetric(self):
        h = synth_bath_spectrum(None, 101, "semicircle", scale=2.0)
        ev = h.eigenvalues
        assert np.max(np.abs(ev + ev[::-1])) < 1e-9
        assert ev.min() > -2.0 and ev.max() < 2.0

    def test_semicircle_even_dim(self):
        ev = synth_bath_spectrum(None, 64, "semicircle", scale=1.0).eigenvalues
        assert np.max(np.abs(ev + ev[::-1])) < 1e-9

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="model"):
            synth_bath_spectrum(None, 4, "wigner")

    def test_haar_basis(self):
        h = synth_bath_spectrum(
            RandomStream(34), 5, "equal_spaced", basis="haar"
        )
        q = h.eigenvector_columns(np.arange(5))
        assert np.max(np.abs(q.conj().T @ q - np.eye(5))) < 1e-10


class TestBathSeriesTypicality:
    def test_mean_distance_decreases_with_bath_size(self):
        # Reduced states of shell draws approach the canonical ensemble as
        # the bath grows at fixed energy span (denser spectrum).
        hs = synth_bath_spectrum(None, 4, "equal_spaced", scale=1.0, label="S")
        means = []
        for db in (64, 256, 1024):
            hb = synth_bath_spectrum(
                None, db, "equal_spaced", scale=64.0 / db, label="B"
            )
            comp = build_composite(hs, hb)
            span = comp.eigenvalues[-1] - comp.eigenvalues[0]
            shell = energy_shell(
                comp, comp.eigenvalues[0] + 0.3 * span, 0.15 * span
            )
            beta = match_beta(comp, shell.midpoint_energy)
            rho_beta = canonical_density_matrix(hs, beta)
            states = sample_shell_state(RandomStream(35, db), shell, size=20)
            dists = []
            for row in states:
                a = row.reshape(4, db)
                g = a @ a.conj().T
                g = 0.5 * (g + g.conj().T) / g.trace().real
                dists.append(trace_distance(g, rho_beta.entries))
            means.append(float(np.mean(dists)))
        assert means[0] > means[1] > means[2]
