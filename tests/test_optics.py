"""Physical model layer: TMSV source, beam splitters, loss channels, and the
interferometer pipeline, checked against independent brute-force oracles."""

import math

import numpy as np
import pytest

from tmsvfisher import (
    ConfigError,
    FockCutoff,
    LossModel,
    SqueezingParams,
)
from tmsvfisher.fock import signal_photon_numbers
from tmsvfisher import optics
from tmsvfisher.optics import (
    InterferometerEngine,
    _kept_sectors,
    _parity_blocks,
    block_loss,
)

from conftest import (
    _bs_matrix,
    binomial_loss_matrix,
    bs_expm,
    dense_loss,
    dense_sigma2,
    dense_sigma3,
    dense_sigma4,
    difference_generator,
    joint_loss,
    loss_via_ancilla,
    random_density,
    series_sigma4,
    tmsv_state,
    tmsv_vector,
)


def _pure(amps):
    v = amps.ravel()
    return np.outer(v, v.conj())


def _kraus_oracle(rho, eta, d, mode):
    """Loss on one mode as the explicit sum over the Kraus list
    K_l[n - l, n] = sqrt(C(n, l) eta^(n - l) (1 - eta)^l), two einsums each."""
    r = rho.reshape(d, d, d, d)  # (s, i, s', i')
    out = np.zeros_like(r)
    for l in range(d):
        K = np.zeros((d, d), dtype=complex)
        for n in range(l, d):
            K[n - l, n] = math.sqrt(math.comb(n, l) * eta ** (n - l) * (1.0 - eta) ** l)
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
        v = tmsv_state(0.0, cutoff6).ravel()
        assert v[0] == 1.0
        assert np.count_nonzero(v) == 1

    def test_amplitudes(self, cutoff10):
        z = 0.5
        v = tmsv_state(z, cutoff10)
        assert v[2, 2] == pytest.approx(np.sqrt(0.75) * 0.25)
        assert v[1, 2] == 0.0

    def test_matches_oracle_vector(self, cutoff6):
        v = tmsv_state(0.3, cutoff6).ravel()
        assert np.max(np.abs(v - tmsv_vector(0.3, cutoff6.dim))) < 1e-15


class TestBeamSplitter:
    def test_identity_at_full_transmission(self, cutoff6):
        # U is the projector onto the kept sectors N <= M, and exactly 0 on
        # the rows and columns of the sectors N > M
        kept = _kept_sectors(cutoff6).ravel()
        U = _bs_matrix(1.0, cutoff6.max_photons)
        assert np.max(np.abs(U - np.diag(kept.astype(float)))) < 1e-13
        assert np.max(np.abs(U[~kept])) == 0.0
        assert np.max(np.abs(U[:, ~kept])) == 0.0

    def test_hong_ou_mandel(self, cutoff6):
        d = cutoff6.dim
        U = _bs_matrix(0.5, cutoff6.max_photons)
        inp = np.zeros(d * d)
        inp[1 * d + 1] = 1.0
        out = U @ inp
        assert abs(out[1 * d + 1]) < 1e-12
        assert abs(out[2 * d + 0]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert abs(out[0 * d + 2]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_single_photon_split(self, cutoff6):
        d = cutoff6.dim
        U = _bs_matrix(0.5, cutoff6.max_photons)
        out = U @ np.eye(d * d)[1 * d + 0]
        assert abs(out[1 * d + 0]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert abs(out[0 * d + 1]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_unitarity(self, cutoff10):
        # unitary on the kept sectors: U^dag U is the projector onto N <= M,
        # and the rows and columns of the sectors N > M are exactly 0
        kept = _kept_sectors(cutoff10).ravel()
        for eta in (0.1, 0.5, 0.926):
            U = _bs_matrix(eta, cutoff10.max_photons)
            err = np.max(np.abs(U.conj().T @ U - np.diag(kept.astype(float))))
            assert err < 1e-13
            assert np.max(np.abs(U[~kept])) == 0.0
            assert np.max(np.abs(U[:, ~kept])) == 0.0

    def test_block_structure_total_photon_number(self, cutoff6):
        d = cutoff6.dim
        U = _bs_matrix(0.3, cutoff6.max_photons)
        tot = np.add.outer(np.arange(d), np.arange(d)).ravel()
        off_block = U[tot[:, None] != tot[None, :]]
        assert np.max(np.abs(off_block)) == 0.0

    def test_real_after_rephasing_by_i_to_the_n_s(self):
        # U[j, k] = i^(n_s,j + n_s,k) times a real number at odd and even
        # cutoffs; a complex entry would break the theta -> -theta symmetry
        for max_photons in range(2, 11):
            cutoff = FockCutoff(max_photons)
            ph = np.array([1, 1j, -1, -1j])[signal_photon_numbers(cutoff) % 4]
            for eta in (0.3, 0.5):
                U = _bs_matrix(eta, max_photons)
                R = ph.conj()[:, None] * U * ph.conj()[None, :]
                assert np.max(np.abs(R.imag)) == 0.0

    def test_matches_expm_oracle_on_complete_blocks(self):
        # compare against scipy expm at a larger internal cutoff so the
        # oracle's own truncation error stays in the tail
        for d_small in (5, 11, 21):
            d_big = d_small + 7
            U_lib = _bs_matrix(0.5, d_small - 1)
            U_big = bs_expm(0.5, d_big)
            for ns in range(d_small):
                for ni in range(d_small):
                    if ns + ni >= d_small:
                        continue  # only complete blocks are construction-exact
                    col_big = U_big[:, ns * d_big + ni].reshape(d_big, d_big)
                    col_lib = U_lib[:, ns * d_small + ni].reshape(d_small, d_small)
                    assert np.max(np.abs(col_big[:d_small, :d_small] - col_lib)) < 1e-13

    def test_blocks_orthogonal_up_to_160_photons(self):
        # one eigh of J_x per block; the binomial sum this replaced lost
        # orthogonality by 3e-6 at N = 80 and was garbage at N = 160
        for eta in (0.3, 0.5):
            for N in range(161):
                R = optics._bs_block(eta, N)
                assert R.dtype == np.float64
                assert np.max(np.abs(R.T @ R - np.eye(N + 1))) < 1e-13


class TestTruncationRule:
    """The model keeps only the sectors n_s + n_i <= M, and each stage maps
    them into themselves, so every outcome distribution is a sub-measure of
    the untruncated one that falls short of it by the reported mass."""

    def test_outcomes_are_a_sub_measure_short_by_the_mass(self):
        # reference: the same config at cutoff M + 20, whose own mass is what
        # keeps the L1 distance below the mass rather than equal to it
        rng = np.random.default_rng(2101)
        thetas = rng.uniform(0.0, 2 * np.pi, 17)
        for _ in range(12):
            max_photons = int(rng.integers(3, 17))
            squeezing = SqueezingParams(rng.uniform(0.05, 0.8))
            loss = LossModel(*rng.uniform(0.5, 1.0, 4))
            cutoff, ref_cutoff = FockCutoff(max_photons), FockCutoff(max_photons + 20)
            d = cutoff.dim

            def populations(c):
                eye = np.eye(c.dim)
                series = optics.outcome_phase_series(squeezing, loss, c, eye, eye)
                return series.values(thetas)

            ref = populations(ref_cutoff)
            p = np.zeros_like(ref)
            p[:, :d, :d] = populations(cutoff)
            mass = optics.truncation_mass(squeezing, loss, cutoff)
            l1 = np.abs(ref - p).sum(axis=(1, 2))
            assert np.all(l1 <= mass + 1e-14), (max_photons, l1.max(), mass)
            assert np.all(p <= ref + 1e-14)
            assert np.max(np.abs(p.sum(axis=(1, 2)) + mass - 1.0)) < 1e-14


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
        out = joint_loss(rho, cutoff6.dim, "s", 1.0)
        assert np.max(np.abs(out - rho)) < 1e-14

    def test_eta_zero_empties_mode(self, cutoff6):
        d = cutoff6.dim
        out = joint_loss(_pure(tmsv_state(0.5, cutoff6)), d, "s", 0.0)
        pops = np.real(np.diag(out)).reshape(d, d)
        tail = 0.5 ** (2 * (cutoff6.max_photons + 1))  # pair mass beyond the cutoff
        assert pops[0].sum() == pytest.approx(1.0, abs=2 * tail)

    def test_single_photon_binomial(self, cutoff6):
        d = cutoff6.dim
        v = np.zeros((d, d))
        v[1, 0] = 1.0  # |1, 0>
        eta = 0.7
        pops = np.real(np.diag(joint_loss(_pure(v), d, "s", eta))).reshape(d, d)
        assert pops[0].sum() == pytest.approx(1 - eta, abs=1e-12)
        assert pops[1].sum() == pytest.approx(eta, abs=1e-12)

    def test_mean_photons_scaled_exactly(self, cutoff6):
        d = cutoff6.dim
        rho = _pure(tmsv_state(0.4, cutoff6))
        n_s = signal_photon_numbers(cutoff6)
        before = np.real(np.diag(rho)) @ n_s
        after = np.real(np.diag(joint_loss(rho, d, "s", 0.6))) @ n_s
        assert after == pytest.approx(0.6 * before, abs=1e-10)

    def test_kraus_vs_ancilla_on_random_states(self, cutoff6):
        rng = np.random.default_rng(42)
        for eta in (0.0, 0.25, 0.5, 0.8, 1.0):
            for _ in range(3):
                rho = random_density(rng, cutoff6.joint_dim)
                for mode in ("s", "i"):
                    a = joint_loss(rho, cutoff6.dim, mode, eta)
                    b = loss_via_ancilla(rho, cutoff6.dim, mode, eta)
                    assert np.max(np.abs(a - b)) < 1e-12

    def test_populations_match_binomial_oracle(self, cutoff6):
        d = cutoff6.dim
        amps = tmsv_state(0.5, cutoff6)
        eta = 0.8
        out = joint_loss(_pure(amps), d, "s", eta)
        pops = np.real(np.diag(out)).reshape(d, d)
        B = binomial_loss_matrix(eta, d)
        expected = B @ np.abs(amps) ** 2
        assert np.max(np.abs(pops - expected)) < 1e-12

    def test_kernel_matches_kraus_sum_oracle(self):
        rng = np.random.default_rng(11)
        for max_photons in (3, 6, 10, 12):
            c = FockCutoff(max_photons)
            for eta in (0.0, 1.0, *rng.random(3)):
                rho = random_density(rng, c.joint_dim)
                for mode in ("s", "i"):
                    got = joint_loss(rho, c.dim, mode, eta)
                    want = _kraus_oracle(rho, eta, c.dim, mode)
                    assert np.max(np.abs(got - want)) < 1e-14, (max_photons, eta, mode)

    def test_kernel_matches_dense_superoperator(self):
        # oracle: the dense (d^2, d^2) superoperator product. On the parity
        # blocks the kernel reads a state outside them as 0, which is exact
        # because loss maps a density supported on the blocks into the blocks
        rng = np.random.default_rng(23)
        for max_photons in (1, 4, 7, 10):
            d = max_photons + 1
            blocks, plan = _parity_blocks(max_photons)
            on_blocks = np.zeros((d * d, d * d), dtype=bool)
            for b in blocks:
                on_blocks[np.ix_(b, b)] = True
            for eta in (0.0, 1.0, *rng.uniform(0.05, 0.95, 2)):
                rho = random_density(rng, d * d)
                block_rho = np.where(on_blocks, rho, 0.0)
                for mode in ("s", "i"):
                    etas = (eta, 1.0) if mode == "s" else (1.0, eta)
                    want = dense_loss(rho, d, *etas)
                    assert np.max(np.abs(joint_loss(rho, d, mode, eta) - want)) < 1e-14
                    want = dense_loss(block_rho, d, *etas)
                    assert np.max(np.abs(want[~on_blocks])) == 0.0
                    X = [rho[np.ix_(b, b)][..., None] for b in blocks]
                    got = block_loss(X, plan, eta, 0 if mode == "s" else 1)
                    for b, Y in zip(blocks, got):
                        assert np.max(np.abs(Y[..., 0] - want[np.ix_(b, b)])) < 1e-14

    def test_trace_and_hermiticity_preserved(self, cutoff6):
        rng = np.random.default_rng(7)
        rho = random_density(rng, cutoff6.joint_dim)
        out = joint_loss(rho, cutoff6.dim, "i", 0.33)
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12


class TestEvolvePipeline:
    """The dense per-phase state (conftest's dense_sigma4), and the engine's
    sigma2 on the parity blocks."""

    def test_vacuum_in_vacuum_out(self, cutoff6):
        eng = InterferometerEngine(SqueezingParams(0.0), LossModel.symmetric(0.7), cutoff6)
        rho = dense_sigma4(eng, 0.3)[0]
        assert rho[0, 0].real == pytest.approx(1.0, abs=1e-12)

    def test_lossless_is_rank_one_and_even_parity(self, cutoff6):
        d = cutoff6.dim
        eng = InterferometerEngine(SqueezingParams(0.3), LossModel(), cutoff6)
        rho = dense_sigma4(eng, 0.0)[0]
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
        eng = InterferometerEngine(SqueezingParams(z), LossModel(), c)
        rho = dense_sigma4(eng, theta)[0]
        p11_oracle = abs(psi[1 * d + 1]) ** 2
        assert rho[1 * d + 1, 1 * d + 1].real == pytest.approx(p11_oracle, abs=1e-8)

    def test_sigma2_mean_photons_eta_weighted(self, cutoff6):
        # the blocks hold the kept sectors n_s + n_i <= M; the sectors the
        # model drops are completed from the pair distribution
        z = 0.4
        loss = LossModel(0.6, 0.9, 1.0, 1.0)
        eng = InterferometerEngine(SqueezingParams(z), loss, cutoff6)
        n_bar_arm = SqueezingParams(z).mean_photons / 2
        pops = optics.pair_distribution(z, 0.6, 0.9, cutoff6.dim)
        pops[_kept_sectors(cutoff6)] = 0.0
        pops = pops.ravel()
        for b, sigma2 in zip(eng.parity_blocks, eng.sigma2_blocks()):
            pops[b] = np.diag(sigma2)
        pops = pops.reshape(cutoff6.dim, cutoff6.dim)
        n = np.arange(cutoff6.dim)
        tail = z ** (2 * (cutoff6.max_photons + 1))  # pair mass beyond the cutoff
        for got, eta in ((pops.sum(axis=1) @ n, 0.6), (pops.sum(axis=0) @ n, 0.9)):
            assert abs(got - eta * n_bar_arm) < 10 * tail + 1e-10

    def test_sigma2_blocks_match_dense_loss_of_tmsv(self):
        # oracle: conftest's dense_sigma2, the dense preparation loss of
        # |TMSV><TMSV| on the whole joint grid, restricted to each block; z
        # up to 0.85 puts mass in the sectors N > M, and transmissivities
        # include 0 and 1
        rng = np.random.default_rng(1313)
        for _ in range(24):
            c = FockCutoff(int(rng.integers(1, 17)))
            z = rng.uniform(0.0, 0.85)
            etas = rng.uniform(0.0, 1.0, 2)
            etas[rng.integers(2)] = rng.choice([0.0, 1.0, rng.uniform()])
            eng = InterferometerEngine(SqueezingParams(z), LossModel(*etas), c)
            want = dense_sigma2(eng)
            for b, sigma2 in zip(eng.parity_blocks, eng.sigma2_blocks()):
                assert sigma2.dtype == np.float64
                assert np.max(np.abs(sigma2 - want[np.ix_(b, b)])) < 1e-15

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
    """dsigma4 of the parity-block series, the derivative the QFI reads."""

    def test_zero_for_vacuum(self, cutoff6):
        eng = InterferometerEngine(SqueezingParams(0.0), LossModel(), cutoff6)
        assert np.max(np.abs(series_sigma4(eng, 0.4)[1])) < 1e-14

    def test_traceless(self, cutoff6):
        eng = InterferometerEngine(SqueezingParams(0.4), LossModel.symmetric(0.8), cutoff6)
        assert abs(np.trace(series_sigma4(eng, 0.9)[1])) < 1e-12

    def test_matches_finite_differences(self, cutoff6):
        eng = InterferometerEngine(SqueezingParams(0.4), LossModel(0.9, 0.8, 0.85, 0.95), cutoff6)
        theta, h = 0.6, 1e-5
        dsig = series_sigma4(eng, theta)[1]
        fd = (series_sigma4(eng, theta + h)[0] - series_sigma4(eng, theta - h)[0]) / (2 * h)
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
        diag = np.real(np.diag(dense_sigma4(eng, theta)[0])).reshape(d, d)
        assert np.max(np.abs(pops - diag)) < 1e-12

    def test_generators_agree_on_populations(self, cutoff6):
        d = cutoff6.dim
        eng = InterferometerEngine(
            SqueezingParams(0.3), LossModel.symmetric(0.85), cutoff6
        )
        theta = 0.8
        signal = signal_photon_numbers(cutoff6).astype(float)
        a = np.real(np.diag(dense_sigma4(eng, theta, signal)[0])).reshape(d, d)
        b = np.real(np.diag(dense_sigma4(eng, theta)[0])).reshape(d, d)
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
            U = _bs_matrix(0.5, max_photons)
            W = U @ np.diag(np.exp(1j * theta * difference_generator(d))) @ U
            sigma3 = W @ rho @ W.conj().T
            sigma4, dsigma4 = dense_sigma4(eng, theta)
            want = _kraus_oracle(_kraus_oracle(sigma3, etas[2], d, "s"), etas[3], d, "i")
            assert np.max(np.abs(sigma4 - want)) < 1e-14
            dwant = dense_sigma3(eng, theta)[1]
            dwant = _kraus_oracle(_kraus_oracle(dwant, etas[2], d, "s"), etas[3], d, "i")
            assert np.max(np.abs(dsigma4 - dwant)) < 1e-14

    def test_pair_sector_series_matches_dense_sigma4(self):
        # oracle: diag of the dense per-phase sigma4 and dsigma4; z up to 0.85
        # puts mass in the dropped sectors n_s + n_i > M, and transmissivities
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
                pairs = optics.pair_distribution(z, etas[0], etas[1], d).ravel()
                N = np.add.outer(np.arange(d), np.arange(d)).ravel()
                for b, sigma2 in zip(eng.parity_blocks, eng.sigma2_blocks()):
                    assert np.max(np.abs(pairs[b] - np.diag(sigma2))) < 1e-15
                    same_n = (N[b, None] == N[None, b]) & ~np.eye(b.size, dtype=bool)
                    assert np.max(np.abs(sigma2[same_n]), initial=0.0) < 1e-15
                for th in rng.uniform(0.0, 2 * np.pi, 2):
                    sigma4, dsigma4 = dense_sigma4(eng, th)
                    want = np.real(np.diag(sigma4)).reshape(d, d)
                    dwant = np.real(np.diag(dsigma4)).reshape(d, d)
                    assert np.max(np.abs(eng.populations(th) - want)) < 1e-12
                    assert np.max(np.abs(eng.dpopulations(th) - dwant)) < 1e-12

    def test_loss_model_scaled_composes_transmission(self):
        loss = LossModel(eta_d_s=0.8, eta_d_i=0.9)
        scaled = loss.scaled(0.5)
        assert scaled.eta_d_s == pytest.approx(0.4)
        assert scaled.eta_d_i == pytest.approx(0.45)
        assert scaled.eta_p_s == 1.0
