"""Physical model layer: TMSV source, beam splitters, loss channels, and the
interferometer pipeline, checked against independent brute-force oracles."""

import math

import numpy as np
import pytest

from tmsvfisher import (
    ConfigError,
    FockCutoff,
    InterferometerConfig,
    LossModel,
    SqueezingParams,
    TwoModeState,
    analytic_phase_derivative,
    beam_splitter_unitary,
    evolve_pipeline,
    loss_channel,
    phase_shifter,
    tmsv_state,
)
from tmsvfisher.fock import mode_number_operator, partial_trace, signal_photon_numbers, tensor
from tmsvfisher import optics
from tmsvfisher.optics import InterferometerEngine, loss_kraus_operators, tmsv_tail_bound

from conftest import binomial_loss_matrix, bs_expm, random_density, tmsv_vector


def _kraus_oracle(rho, eta, d, mode):
    """Loss on one mode as the explicit sum over the Kraus list, two einsums each."""
    r = rho.reshape(d, d, d, d)  # (s, i, s', i')
    out = np.zeros_like(r)
    for K in loss_kraus_operators(eta, FockCutoff(d - 1)):
        if mode == "s":
            t = np.einsum("xa,abcd->xbcd", K, r)
            out += np.einsum("xbcd,yc->xbyd", t, K.conj())
        else:
            t = np.einsum("xb,abcd->axcd", K, r)
            out += np.einsum("axcd,yd->axcy", t, K.conj())
    return out.reshape(d * d, d * d)


class TestSqueezingParams:
    def test_mean_photons_formula(self):
        assert SqueezingParams(0.5).mean_photons == pytest.approx(2 * 0.25 / 0.75)

    def test_zero_squeezing(self):
        assert SqueezingParams(0.0).mean_photons == 0.0

    def test_inversion_round_trip(self):
        for n_bar in (1e-4, 3.631e-3, 0.1, 1.0, 10.0):
            sq = SqueezingParams.from_mean_photons(n_bar)
            assert sq.mean_photons == pytest.approx(n_bar, rel=1e-12)

    def test_experiment_mean_photons_inverts_to_known_z(self):
        sq = SqueezingParams.from_mean_photons(3.631e-3)
        assert sq.z == pytest.approx(4.26e-2, abs=5e-4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            SqueezingParams(1.0)
        with pytest.raises(ConfigError):
            SqueezingParams(-0.1)


class TestTmsvState:
    def test_zero_squeezing_is_vacuum(self, cutoff6):
        v = tmsv_state(0.0, cutoff6).vector.ravel()
        assert v[0] == 1.0
        assert np.count_nonzero(v) == 1

    def test_amplitudes(self, cutoff10):
        z = 0.5
        v = tmsv_state(z, cutoff10).vector
        assert v[2, 2] == pytest.approx(np.sqrt(0.75) * 0.25)
        assert v[1, 2] == 0.0

    def test_matches_oracle_vector(self, cutoff6):
        v = tmsv_state(0.3, cutoff6).vector.ravel()
        assert np.max(np.abs(v - tmsv_vector(0.3, cutoff6.dim))) < 1e-15


class TestBeamSplitter:
    def test_identity_at_full_transmission(self, cutoff6):
        U = beam_splitter_unitary(1.0, cutoff6).matrix
        assert np.max(np.abs(U - np.eye(cutoff6.joint_dim))) < 1e-12

    def test_hong_ou_mandel(self, cutoff6):
        d = cutoff6.dim
        U = beam_splitter_unitary(0.5, cutoff6).matrix
        inp = np.zeros(d * d)
        inp[1 * d + 1] = 1.0
        out = U @ inp
        assert abs(out[1 * d + 1]) < 1e-12
        assert abs(out[2 * d + 0]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert abs(out[0 * d + 2]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_single_photon_split(self, cutoff6):
        d = cutoff6.dim
        U = beam_splitter_unitary(0.5, cutoff6).matrix
        out = U @ np.eye(d * d)[1 * d + 0]
        assert abs(out[1 * d + 0]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert abs(out[0 * d + 1]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_unitarity(self, cutoff10):
        for eta in (0.1, 0.5, 0.926):
            U = beam_splitter_unitary(eta, cutoff10).matrix
            err = np.max(np.abs(U.conj().T @ U - np.eye(cutoff10.joint_dim)))
            assert err < 1e-10

    def test_block_structure_total_photon_number(self, cutoff6):
        d = cutoff6.dim
        U = beam_splitter_unitary(0.3, cutoff6).matrix
        tot = np.add.outer(np.arange(d), np.arange(d)).ravel()
        off_block = U[tot[:, None] != tot[None, :]]
        assert np.max(np.abs(off_block)) == 0.0

    def test_real_after_rephasing_by_i_to_the_n_s(self):
        # U[j, k] = i^(n_s,j + n_s,k) times a real number, on the complete
        # blocks and the truncated ones alike; the polar factor of a singular
        # truncated block (odd cutoffs) would otherwise be an arbitrary
        # complex choice that breaks the theta -> -theta symmetry
        for max_photons in range(2, 11):
            cutoff = FockCutoff(max_photons)
            ph = np.array([1, 1j, -1, -1j])[signal_photon_numbers(cutoff) % 4]
            for eta in (0.3, 0.5):
                U = beam_splitter_unitary(eta, cutoff).matrix
                R = ph.conj()[:, None] * U * ph.conj()[None, :]
                assert np.max(np.abs(R.imag)) == 0.0

    def test_matches_expm_oracle_on_complete_blocks(self):
        # compare against scipy expm at a larger internal cutoff so the
        # oracle's own truncation error stays in the tail
        d_small, d_big = 5, 12
        U_lib = beam_splitter_unitary(0.5, FockCutoff(d_small - 1)).matrix
        U_big = bs_expm(0.5, d_big)
        for ns in range(d_small):
            for ni in range(d_small):
                if ns + ni >= d_small:
                    continue  # only complete blocks are construction-exact
                col_big = U_big[:, ns * d_big + ni].reshape(d_big, d_big)
                col_lib = U_lib[:, ns * d_small + ni].reshape(d_small, d_small)
                assert np.max(np.abs(col_big[:d_small, :d_small] - col_lib)) < 1e-10

    def test_invalid_transmissivity(self, cutoff6):
        with pytest.raises(ConfigError):
            beam_splitter_unitary(1.5, cutoff6)


class TestPhaseShifter:
    def test_zero_phase_is_identity(self, cutoff6):
        P = phase_shifter(0.0, "s", cutoff6).matrix
        assert np.max(np.abs(P - np.eye(cutoff6.joint_dim))) < 1e-15

    def test_pi_on_single_photon(self, cutoff6):
        d = cutoff6.dim
        P = phase_shifter(np.pi, "s", cutoff6).matrix
        assert P[1 * d, 1 * d] == pytest.approx(-1.0)

    def test_half_pi_on_two_photons(self, cutoff6):
        d = cutoff6.dim
        P = phase_shifter(np.pi / 2, "i", cutoff6).matrix
        assert P[2, 2] == pytest.approx(np.exp(1j * np.pi), abs=1e-12)


    def test_unknown_mode_rejected(self, cutoff6):
        with pytest.raises(ConfigError, match="mode must be 's' or 'i'"):
            phase_shifter(0.3, "x", cutoff6)


class TestBinomialPopulationMatrix:
    def test_bit_identical_to_elementwise_loop(self):
        def loop(eta, d):
            B = np.zeros((d, d))
            for k in range(d):
                for m in range(k + 1):
                    B[m, k] = math.comb(k, m) * eta**m * (1.0 - eta) ** (k - m)
            return B

        etas = [0.0, 1.0, 0.5, *np.random.default_rng(8).uniform(0.0, 1.0, 6).tolist()]
        for d in range(1, 17):
            for eta in etas:
                assert np.array_equal(optics.binomial_population_matrix(eta, d), loop(eta, d))


class TestLossChannel:
    def test_eta_one_is_identity(self, cutoff6):
        rng = np.random.default_rng(5)
        rho = random_density(rng, cutoff6.joint_dim)
        state = TwoModeState.density(rho, cutoff6)
        out = loss_channel(state, "s", 1.0)
        assert np.max(np.abs(out.rho - rho)) < 1e-14

    def test_eta_zero_empties_mode(self, cutoff6):
        state = tmsv_state(0.5, cutoff6)
        out = loss_channel(state, "s", 0.0)
        marg = partial_trace(out.rho, cutoff6, "i")
        tail = tmsv_tail_bound(0.5, cutoff6.max_photons)
        assert marg[0, 0].real == pytest.approx(1.0, abs=2 * tail)

    def test_single_photon_binomial(self, cutoff6):
        d = cutoff6.dim
        v = np.zeros((d, d))
        v[1, 0] = 1.0  # |1, 0>
        eta = 0.7
        out = loss_channel(TwoModeState.pure(v, cutoff6), "s", eta)
        marg = partial_trace(out.rho, cutoff6, "i")
        assert marg[0, 0].real == pytest.approx(1 - eta, abs=1e-12)
        assert marg[1, 1].real == pytest.approx(eta, abs=1e-12)

    def test_mean_photons_scaled_exactly(self, cutoff6):
        state = tmsv_state(0.4, cutoff6)
        n_op = mode_number_operator(cutoff6, "s")
        before = np.trace(state.to_density_matrix() @ n_op).real
        out = loss_channel(state, "s", 0.6)
        after = np.trace(out.rho @ n_op).real
        assert after == pytest.approx(0.6 * before, abs=1e-10)

    def test_kraus_vs_ancilla_on_random_states(self, cutoff6):
        rng = np.random.default_rng(42)
        for eta in (0.0, 0.25, 0.5, 0.8, 1.0):
            for _ in range(3):
                rho = random_density(rng, cutoff6.joint_dim)
                state = TwoModeState.density(rho, cutoff6)
                for mode in ("s", "i"):
                    a = loss_channel(state, mode, eta, method="kraus").rho
                    b = loss_channel(state, mode, eta, method="ancilla").rho
                    assert np.max(np.abs(a - b)) < 1e-12

    def test_populations_match_binomial_oracle(self, cutoff6):
        d = cutoff6.dim
        state = tmsv_state(0.5, cutoff6)
        eta = 0.8
        out = loss_channel(state, "s", eta)
        pops = np.real(np.diag(out.rho)).reshape(d, d)
        B = binomial_loss_matrix(eta, d)
        expected = B @ np.abs(state.vector) ** 2
        assert np.max(np.abs(pops - expected)) < 1e-12

    def test_superoperator_matches_kraus_sum_oracle(self):
        rng = np.random.default_rng(11)
        for max_photons in (3, 6, 10, 12):
            c = FockCutoff(max_photons)
            for eta in (0.0, 1.0, *rng.random(3)):
                rho = random_density(rng, c.joint_dim)
                state = TwoModeState.density(rho, c)
                for mode in ("s", "i"):
                    got = loss_channel(state, mode, eta, method="kraus").rho
                    want = _kraus_oracle(rho, eta, c.dim, mode)
                    assert np.max(np.abs(got - want)) < 1e-14, (max_photons, eta, mode)

    def test_trace_and_hermiticity_preserved(self, cutoff6):
        rng = np.random.default_rng(7)
        rho = random_density(rng, cutoff6.joint_dim)
        out = loss_channel(TwoModeState.density(rho, cutoff6), "i", 0.33).rho
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12


class TestEvolvePipeline:
    def test_vacuum_in_vacuum_out(self, cutoff6):
        cfg = InterferometerConfig(
            SqueezingParams(0.0), LossModel.symmetric(0.7), 0.3, cutoff6
        )
        rho = evolve_pipeline(cfg).rho
        assert rho[0, 0].real == pytest.approx(1.0, abs=1e-12)

    def test_lossless_is_rank_one_and_even_parity(self, cutoff6):
        d = cutoff6.dim
        cfg = InterferometerConfig(SqueezingParams(0.3), LossModel(), 0.0, cutoff6)
        rho = evolve_pipeline(cfg).rho
        lam = np.linalg.eigvalsh(rho)
        assert lam[-1] >= (1 - 1e-9) * np.trace(rho).real
        pops = np.real(np.diag(rho)).reshape(d, d)
        tot = np.add.outer(np.arange(d), np.arange(d))
        assert np.max(pops[tot % 2 == 1]) < 1e-14

    def test_against_three_unitary_brute_force(self):
        # oracle: dense multiplication of expm beam splitters and an explicit
        # phase diagonal against the TMSV amplitudes at cutoff 6
        c = FockCutoff(6)
        d = c.dim
        z, theta = 0.3, np.pi / 2
        U = bs_expm(0.5, d)
        ns = np.repeat(np.arange(d), d)
        P = np.diag(np.exp(1j * theta * ns))
        psi = U @ P @ U @ tmsv_vector(z, d)
        cfg = InterferometerConfig(SqueezingParams(z), LossModel(), theta, c)
        rho = evolve_pipeline(cfg).rho
        p11_oracle = abs(psi[1 * d + 1]) ** 2
        assert rho[1 * d + 1, 1 * d + 1].real == pytest.approx(p11_oracle, abs=1e-8)

    def test_sigma2_mean_photons_eta_weighted(self, cutoff6):
        z = 0.4
        loss = LossModel(0.6, 0.9, 1.0, 1.0)
        eng = InterferometerEngine(SqueezingParams(z), loss, cutoff6)
        n_bar_arm = SqueezingParams(z).mean_photons / 2
        for mode, eta in (("s", 0.6), ("i", 0.9)):
            n_op = mode_number_operator(cutoff6, mode)
            got = np.trace(eng.sigma2 @ n_op).real
            tail = tmsv_tail_bound(z, cutoff6.max_photons)
            assert abs(got - eta * n_bar_arm) < 10 * tail + 1e-10

    def test_relabeling_symmetry(self, cutoff6):
        d = cutoff6.dim
        z, theta = 0.35, 0.7
        loss = LossModel(0.8, 0.6, 0.9, 0.7)
        swapped = LossModel(0.6, 0.8, 0.7, 0.9)
        e1 = InterferometerEngine(SqueezingParams(z), loss, cutoff6)
        e2 = InterferometerEngine(SqueezingParams(z), swapped, cutoff6)
        p1 = e1.populations(theta)
        p2 = e2.populations(theta)
        assert np.max(np.abs(p1 - p2.T)) < 1e-12


class TestAnalyticDerivative:
    def test_zero_for_vacuum(self, cutoff6):
        cfg = InterferometerConfig(SqueezingParams(0.0), LossModel(), 0.4, cutoff6)
        assert np.max(np.abs(analytic_phase_derivative(cfg))) < 1e-14

    def test_traceless(self, cutoff6):
        cfg = InterferometerConfig(
            SqueezingParams(0.4), LossModel.symmetric(0.8), 0.9, cutoff6
        )
        assert abs(np.trace(analytic_phase_derivative(cfg))) < 1e-12

    def test_matches_finite_differences(self, cutoff6):
        cfg = InterferometerConfig(
            SqueezingParams(0.4), LossModel(0.9, 0.8, 0.85, 0.95), 0.6, cutoff6
        )
        dsig = analytic_phase_derivative(cfg)
        h = 1e-5
        plus = evolve_pipeline(cfg.with_phase(cfg.phase + h)).rho
        minus = evolve_pipeline(cfg.with_phase(cfg.phase - h)).rho
        fd = (plus - minus) / (2 * h)
        scale = np.max(np.abs(dsig))
        assert np.max(np.abs(dsig - fd)) / scale < 1e-6


class TestEngineInternals:
    def test_populations_match_sigma4_diagonal(self, cutoff6):
        d = cutoff6.dim
        eng = InterferometerEngine(
            SqueezingParams(0.3), LossModel(0.9, 0.8, 0.7, 0.95), cutoff6
        )
        theta = 1.1
        pops = eng.populations(theta)
        diag = np.real(np.diag(eng.sigma4(theta))).reshape(d, d)
        assert np.max(np.abs(pops - diag)) < 1e-12

    def test_generators_agree_on_populations(self, cutoff6):
        d = cutoff6.dim
        eng = InterferometerEngine(
            SqueezingParams(0.3), LossModel.symmetric(0.85), cutoff6
        )
        theta = 0.8
        a = np.real(np.diag(eng.sigma4(theta, "signal"))).reshape(d, d)
        b = np.real(np.diag(eng.sigma4(theta, "difference"))).reshape(d, d)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_sigma4_matches_kraus_sum_oracle(self):
        # oracle: dense TMSV density, Kraus-sum prep loss, explicit beam
        # splitters and phase diagonal, Kraus-sum detection loss
        rng = np.random.default_rng(12)
        for max_photons in (3, 6, 10):
            c = FockCutoff(max_photons)
            d = c.dim
            z, theta = rng.uniform(0.05, 0.6), rng.uniform(0.0, 2 * np.pi)
            etas = rng.uniform(0.3, 1.0, 4)
            eng = InterferometerEngine(SqueezingParams(z), LossModel(*etas), c)
            psi = tmsv_vector(z, d)
            rho = np.outer(psi, psi).astype(complex)
            rho = _kraus_oracle(_kraus_oracle(rho, etas[0], d, "s"), etas[1], d, "i")
            U = beam_splitter_unitary(0.5, c).matrix
            W = U @ np.diag(np.exp(1j * theta * np.repeat(np.arange(d), d))) @ U
            sigma3 = W @ rho @ W.conj().T
            want = _kraus_oracle(_kraus_oracle(sigma3, etas[2], d, "s"), etas[3], d, "i")
            assert np.max(np.abs(eng.sigma4(theta) - want)) < 1e-14
            dwant = eng.dsigma3(theta)
            dwant = _kraus_oracle(_kraus_oracle(dwant, etas[2], d, "s"), etas[3], d, "i")
            assert np.max(np.abs(eng.dsigma4(theta) - dwant)) < 1e-14

    def test_engine_path_builds_no_kraus_operators(self, cutoff6, monkeypatch):
        calls = []
        original = optics.loss_kraus_operators

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(optics, "loss_kraus_operators", counting)
        eng = InterferometerEngine(
            SqueezingParams(0.3), LossModel(0.9, 0.8, 0.7, 0.95), cutoff6
        )
        eng.population_series
        eng.sigma4(0.4)
        eng.dsigma4(0.4)
        assert calls == []

    def test_pair_sector_series_matches_dense_sigma4(self):
        # oracle: diag of the dense per-phase sigma4 and dsigma4; z up to 0.85
        # puts mass in the truncated (polar-factor) blocks, and transmissivities
        # include 0 and 1
        rng = np.random.default_rng(606)
        for max_photons in range(3, 11):
            c = FockCutoff(max_photons)
            d = c.dim
            for z in (rng.uniform(0.05, 0.6), 0.85):
                etas = rng.uniform(0.3, 1.0, 4)
                etas[rng.integers(4)] = rng.choice([0.0, 1.0])
                eng = InterferometerEngine(SqueezingParams(z), LossModel(*etas), c)
                # sigma2's fixed-N blocks are diagonal and carry q
                sigma2 = eng.sigma2
                pops2 = np.real(np.diag(sigma2)).reshape(d, d)
                assert np.max(np.abs(eng.pairs - pops2)) < 1e-15
                N = np.add.outer(np.arange(d), np.arange(d)).ravel()
                same_n = (N[:, None] == N[None, :]) & ~np.eye(d * d, dtype=bool)
                assert np.max(np.abs(sigma2[same_n]), initial=0.0) < 1e-15
                for th in rng.uniform(0.0, 2 * np.pi, 2):
                    want = np.real(np.diag(eng.sigma4(th))).reshape(d, d)
                    dwant = np.real(np.diag(eng.dsigma4(th))).reshape(d, d)
                    assert np.max(np.abs(eng.populations(th) - want)) < 1e-12
                    assert np.max(np.abs(eng.dpopulations(th) - dwant)) < 1e-12

    def test_loss_model_scaled_composes_transmission(self):
        loss = LossModel(eta_d_s=0.8, eta_d_i=0.9)
        scaled = loss.scaled(0.5)
        assert scaled.eta_d_s == pytest.approx(0.4)
        assert scaled.eta_d_i == pytest.approx(0.45)
        assert scaled.eta_p_s == 1.0
