"""Fisher-information engine: classical/quantum FI, SNL, sweeps, comparisons."""

import json
import math
import warnings

import numpy as np
import pytest

from tmsvfisher import (
    ConfigError,
    FockCutoff,
    InterferometerConfig,
    LossModel,
    SqueezingParams,
    click_povm_from,
    efficiency_povm,
    ideal_pnr_povm,
    max_cfi_over_phase,
    pnr_click_ratio,
    quantum_fisher_mixed,
    quantum_fisher_pure,
    simulate_counts,
    sub_snl_fraction,
    sweep_fisher,
)
from tmsvfisher import metrology, optics
from tmsvfisher.fock import signal_photon_numbers
from tmsvfisher.metrology import (
    P_FLOOR,
    FisherReport,
    default_phase_grid,
    golden_section_max,
    outcome_series,
    shot_noise_limit,
    write_csv,
)
from tmsvfisher.optics import InterferometerEngine

from conftest import (
    bs_expm,
    dense_psi3,
    dense_sigma4,
    difference_generator,
    loop_report_csv,
    loop_report_json,
    loop_write_csv,
)


def _config(z=0.2, loss=None, phase=0.0, max_photons=8):
    return InterferometerConfig(
        SqueezingParams(z), loss or LossModel(), phase, FockCutoff(max_photons)
    )


def _pnr(max_photons=8):
    return ideal_pnr_povm(max_photons, max_photons)


def _cfi_at(cfg, theta, povm_s, povm_i):
    """Single-phase CFI: the sweep on a one-point grid."""
    return sweep_fisher(cfg, [theta], povm_s, povm_i, compute_qfi=False).cfi[0]


class TestClassicalFisher:
    def test_constant_distribution_gives_zero(self):
        fi, n_suspect = metrology._cfi_rows(np.full((1, 4), 0.25), np.zeros((1, 4)))
        assert fi[0] == 0.0
        assert n_suspect == 0

    def test_binary_half_angle_distribution(self):
        for th in (0.2, 1.0, 2.5):
            p = np.array([[math.cos(th / 2) ** 2, math.sin(th / 2) ** 2]])
            dp = np.array([[-0.5 * math.sin(th), 0.5 * math.sin(th)]])
            assert metrology._cfi_rows(p, dp)[0][0] == pytest.approx(1.0, abs=1e-12)

    def test_against_log_likelihood_curvature(self):
        # oracle: FI = -E[d^2/dtheta^2 log p] via central second differences
        cfg = _config(0.3, LossModel.symmetric(0.85))
        pnr = _pnr()
        theta, h = math.pi / 4, 1e-4
        fi = _cfi_at(cfg, theta, pnr, pnr)
        series = outcome_series(cfg, pnr, pnr)
        p0, pp, pm = (series.values(theta + dt) for dt in (0.0, h, -h))
        live = p0 > 1e-10
        curv = np.sum(p0[live] * (np.log(pp[live]) - 2 * np.log(p0[live]) + np.log(pm[live])) / h**2)
        assert fi == pytest.approx(-curv, rel=1e-3)

    def test_floored_outcome_dropped_with_warning(self):
        p = np.array([[0.5, 0.5, 0.0]])
        dp = np.array([[0.1, -0.2, 0.1]])
        fi, n_suspect = metrology._cfi_rows(p, dp)
        assert fi[0] == pytest.approx(0.02 + 0.08, abs=1e-15)
        with pytest.warns(RuntimeWarning) as record:
            metrology._warn_suspects(n_suspect)
        assert len(record) == 1
        assert str(record[0].message).startswith(f"1 outcome(s) with p <= {P_FLOOR}")


class TestQuantumFisher:
    def test_fock_state_has_zero_qfi(self):
        d = 8
        psi = np.zeros(d)
        psi[3] = 1.0
        dpsi = 1j * 3 * psi  # generator n acting on |3>
        assert quantum_fisher_pure(psi, dpsi) == pytest.approx(0.0, abs=1e-12)

    def test_coherent_state_qfi_is_four_nbar(self):
        alpha = 0.6
        d = 25
        ks = np.arange(d)
        from scipy.special import gammaln

        psi = np.exp(-abs(alpha) ** 2 / 2 + ks * np.log(alpha) - 0.5 * gammaln(ks + 1))
        dpsi = 1j * ks * psi
        assert quantum_fisher_pure(psi, dpsi) == pytest.approx(4 * alpha**2, abs=1e-8)

    def test_pure_and_mixed_branches_agree(self):
        # rank-1 density built from the same vector family
        rng = np.random.default_rng(8)
        v = rng.normal(size=12) + 1j * rng.normal(size=12)
        v /= np.linalg.norm(v)
        g = np.diag(np.arange(12.0))  # number-like generator
        dv = 1j * g @ v
        rho = np.outer(v, v.conj())
        drho = np.outer(dv, v.conj()) + np.outer(v, dv.conj())
        qp = quantum_fisher_pure(v, dv)
        qm = quantum_fisher_mixed(rho, drho)
        assert qm == pytest.approx(qp, rel=1e-8)

    def test_non_hermitian_rejected(self):
        rho = np.eye(3, dtype=complex)
        rho[0, 1] = 0.5
        with pytest.raises(ConfigError):
            quantum_fisher_mixed(rho / np.trace(rho).real, np.zeros((3, 3), dtype=complex))

    def test_real_symmetric_input_matches_complex_cast(self):
        # a real pair takes a real eigh; the complex cast is the reference. A
        # Wishart draw with 3 dim samples keeps rho well conditioned
        rng = np.random.default_rng(2401)
        for dim in (1, 2, 7, 30, 36):
            G = rng.normal(size=(dim, 3 * dim))
            rho = G @ G.T
            rho /= np.trace(rho)
            H = rng.normal(size=(dim, dim))
            drho = H + H.T
            got = quantum_fisher_mixed(rho, drho)
            assert isinstance(got, float)
            want = quantum_fisher_mixed(rho.astype(complex), drho.astype(complex))
            assert got == pytest.approx(want, rel=1e-13)

    def test_non_symmetric_real_rejected(self):
        rho = np.eye(3) / 3
        rho[0, 1] = 0.1
        with pytest.raises(ConfigError):
            quantum_fisher_mixed(rho, np.zeros((3, 3)))
        with pytest.raises(ConfigError):
            quantum_fisher_mixed(np.eye(3) / 3, np.triu(np.ones((3, 3))))


class TestShotNoiseLimit:
    def test_zero_squeezing(self):
        assert shot_noise_limit(0.0) == 0.0

    def test_experimental_mean_photon_number(self):
        z = SqueezingParams.from_mean_photons(3.631e-3)
        assert shot_noise_limit(z) == pytest.approx(3.631e-3, rel=1e-12)

    def test_formula_value(self):
        assert shot_noise_limit(0.5) == pytest.approx(2.0 / 3.0, rel=1e-12)


class TestSweep:
    def test_vacuum_input_gives_zero_information(self):
        grid = np.linspace(0, 2 * math.pi, 16, endpoint=False)
        rep = sweep_fisher(_config(0.0), grid, _pnr(), _pnr())
        assert np.max(np.abs(rep.cfi)) < 1e-12
        assert np.max(np.abs(rep.qfi)) < 1e-12

    def test_phase_parity_for_symmetric_loss(self):
        cfg = _config(0.25, LossModel.symmetric(0.8))
        thetas = np.array([0.3, 1.1, 2.0])
        rep_p = sweep_fisher(cfg, thetas, _pnr(), _pnr(), compute_qfi=False)
        rep_m = sweep_fisher(cfg, -thetas, _pnr(), _pnr(), compute_qfi=False)
        assert np.max(np.abs(rep_p.cfi - rep_m.cfi)) < 1e-9

    def test_cfi_bounded_by_qfi(self):
        grid = np.linspace(0, 2 * math.pi, 24, endpoint=False)
        for loss in (LossModel(), LossModel(0.9, 0.8, 0.85, 0.95)):
            rep = sweep_fisher(_config(0.3, loss), grid, _pnr(), _pnr())
            assert np.all(rep.cfi <= rep.qfi * (1 + 1e-8) + 1e-12)

    def test_click_coarse_graining_loses_information(self):
        grid = np.linspace(0, 2 * math.pi, 24, endpoint=False)
        cfg = _config(0.3, LossModel.symmetric(0.9))
        pnr = _pnr()
        click = click_povm_from(pnr)
        rep_pnr = sweep_fisher(cfg, grid, pnr, pnr, compute_qfi=False)
        rep_click = sweep_fisher(cfg, grid, click, click, compute_qfi=False)
        assert np.all(rep_click.cfi <= rep_pnr.cfi + 1e-10)

    def test_analytic_derivative_matches_finite_difference(self):
        cfg = _config(0.3, LossModel(0.9, 0.8, 0.85, 0.95))
        pnr = _pnr()
        h = 1e-5
        series = outcome_series(cfg, pnr, pnr)
        for th in (0.4, 1.3, 2.7):
            p = series.values(th)
            dp_fd = (series.values(th + h) - series.values(th - h)) / (2 * h)
            live = p > P_FLOOR
            fi_fd = float(np.sum(dp_fd[live] ** 2 / p[live]))
            assert _cfi_at(cfg, th, pnr, pnr) == pytest.approx(fi_fd, rel=1e-6)

    def test_lossless_pnr_max_cfi_approaches_qfi(self):
        cfg = _config(0.3)
        pnr = _pnr()
        _, max_cfi = max_cfi_over_phase(cfg, pnr, pnr)
        grid = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        rep = sweep_fisher(cfg, grid, pnr, pnr)
        assert max_cfi >= 0.99 * np.max(rep.qfi)

    def test_near_singular_outcomes_warn_once_per_sweep(self):
        # 1e-8 and 2e-8 rad from the lossless dark fringe at theta = 0, six
        # outcomes each have p ~ 1e-18 but |dp| ~ 1e-9: their CFI terms are
        # dropped, and the sweep says so in one warning for the whole grid.
        # (3, 5) and (5, 3) would be two more, but they need 8 photons and
        # cutoff 6 keeps only the sectors n_s + n_i <= 6
        grid = np.array([1e-8, 0.5, 2e-8])
        pnr = _pnr(6)
        with pytest.warns(RuntimeWarning, match=r"^12 outcome\(s\) with p <=") as rec:
            sweep_fisher(_config(0.3, max_photons=6), grid, pnr, pnr, compute_qfi=False)
        assert len(rec) == 1

    def test_published_sweep_raises_no_warning(self):
        # the paper's configuration on the full grid: no floored outcome
        # carries a derivative and the derivative sums stay at rounding level
        cfg = InterferometerConfig(
            SqueezingParams.from_mean_photons(3.631e-3),
            LossModel(eta_d_s=0.805, eta_d_i=0.815),
            0.0,
            FockCutoff(10),
        )
        pnr = _pnr(10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep_fisher(cfg, default_phase_grid(2048), pnr, pnr, compute_qfi=False)

    def test_derivative_sum_offset_warns_once_per_sweep(self, monkeypatch):
        # an outcome model whose dp does not sum to 0 has lost or gained mass;
        # 600 phases span three PHASE_BLOCKs, and the sweep warns once
        real_series = metrology.outcome_series

        class OffsetSeries:
            """The support of a real outcome series, which the CFI evaluates,
            with dp offset on its first column: the vacuum outcome (0, 0),
            never pruned, far above P_FLOOR."""

            def __init__(self, series):
                self.series = series.support

            @property
            def support(self):
                return self

            def values(self, thetas):
                return self.series.values(thetas)

            def derivatives(self, thetas):
                dp = self.series.derivatives(thetas)
                dp[..., 0] += 1e-8
                return dp

        monkeypatch.setattr(
            metrology, "outcome_series", lambda *args: OffsetSeries(real_series(*args))
        )
        cfg = _config(0.2, LossModel.symmetric(0.8), max_photons=6)
        pnr = _pnr(6)
        with pytest.warns(RuntimeWarning, match=r"^derivative sum 1\.000e-08 deviates") as rec:
            sweep_fisher(cfg, default_phase_grid(600), pnr, pnr, compute_qfi=False)
        assert len(rec) == 1

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            sweep_fisher(_config(0.2), np.array([]), _pnr(), _pnr())

    def test_metadata_carries_provenance(self):
        grid = np.linspace(0, 2 * math.pi, 8, endpoint=False)
        rep = sweep_fisher(_config(0.2), grid, _pnr(), _pnr(), compute_qfi=False)
        for key in ("z", "n_bar", "eta_p_s", "config_hash", "version"):
            assert key in rep.metadata

    def test_cfi_and_lossless_qfi_build_no_engine(self, monkeypatch):
        # the engine serves only the lossy QFI: the outcome series is built
        # from the config, and the lossless QFI has a closed form
        builds = []
        original = InterferometerEngine.__init__

        def counting(self, *args, **kwargs):
            builds.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(optics.InterferometerEngine, "__init__", counting)
        lossy = _config(0.3, LossModel(0.9, 0.8, 0.85, 0.95), max_photons=5)
        pnr = _pnr(5)
        grid = default_phase_grid(8)
        sweep_fisher(lossy, grid, pnr, pnr, compute_qfi=False)
        sweep_fisher(_config(0.3, max_photons=5), grid, pnr, pnr)
        simulate_counts(lossy, pnr, pnr, grid, 100, 1)
        max_cfi_over_phase(lossy, pnr, pnr, coarse_points=16)
        assert builds == []
        sweep_fisher(lossy, grid, pnr, pnr)
        assert len(builds) == 1


class TestPhaseSeries:
    def test_matches_dense_sigma4_on_random_configs(self):
        # oracle: the dense per-phase path ths^T diag(sigma4) thi and its
        # dsigma4 counterpart, at cutoffs 3-10 and random squeezing and losses
        rng = np.random.default_rng(20240517)
        for max_photons in range(3, 11):
            d = max_photons + 1
            cfg = _config(rng.uniform(0.05, 0.6), LossModel(*rng.uniform(0.5, 1.0, 4)),
                          max_photons=max_photons)
            eng = InterferometerEngine(cfg.squeezing, cfg.loss, cfg.cutoff)
            pnr = ideal_pnr_povm(max_photons, max_photons)
            povms = [
                pnr,
                click_povm_from(pnr),
                efficiency_povm(rng.uniform(0.6, 0.95), max_photons - 1, max_photons),
            ]
            thetas = rng.uniform(-math.pi, 3 * math.pi, 2)
            for povm_s, povm_i in zip(povms, povms[1:] + povms[:1]):
                series = outcome_series(cfg, povm_s, povm_i)
                p, dp = series.values(thetas), series.derivatives(thetas)
                for row, th in enumerate(thetas):
                    sigma4, dsigma4 = dense_sigma4(eng, th)
                    pops = np.real(np.diag(sigma4)).reshape(d, d)
                    dpops = np.real(np.diag(dsigma4)).reshape(d, d)
                    assert np.max(np.abs(p[row] - povm_s.theta.T @ pops @ povm_i.theta)) < 1e-12
                    assert np.max(np.abs(dp[row] - povm_s.theta.T @ dpops @ povm_i.theta)) < 1e-12

    @staticmethod
    def _assert_matches_extended(series, thetas):
        # values to 1e-13 of max|a|, derivatives to 1e-13 of W max|a|
        W = series.coeffs.shape[0] - 1
        scale = np.max(np.abs(series.coeffs))
        p, dp = _series_extended(series, thetas)
        got_p = series.values(thetas)
        assert got_p.shape == thetas.shape + series.coeffs.shape[1:]
        assert np.max(np.abs(got_p.reshape(thetas.size, -1) - p)) <= 1e-13 * scale
        got_dp = series.derivatives(thetas).reshape(thetas.size, -1)
        assert np.max(np.abs(got_dp - dp)) <= 1e-13 * max(W, 1) * scale

    def test_real_evaluation_of_random_cosine_coefficients(self):
        rng = np.random.default_rng(1501)
        for W in (0, 1, 2, 5, 10, 13):
            for trailing in ((), (3,), (4, 5)):
                coeffs = rng.standard_normal((W + 1, *trailing))
                coeffs *= 10.0 ** rng.uniform(-3.0, 3.0)
                series = optics.PhaseSeries(coeffs)
                thetas = rng.uniform(-4 * math.pi, 4 * math.pi, 300)
                self._assert_matches_extended(series, thetas)
                # a scalar phase gives f's own shape
                assert series.values(0.7).shape == trailing
                assert np.allclose(series.values(0.7), series.values(np.array([0.7]))[0])

    @pytest.mark.parametrize("max_photons", range(3, 12))
    def test_outcome_series_match_exponentials(self, max_photons):
        rng = np.random.default_rng([1502, max_photons])
        lossless = max_photons % 2 == 1
        etas = np.ones(4) if lossless else rng.uniform(0.5, 0.99, 4)
        cfg = _config(rng.uniform(0.05, 0.6), LossModel(*etas), max_photons=max_photons)
        pnr = _pnr(max_photons)
        grid = np.concatenate([default_phase_grid(64), rng.uniform(-math.pi, 3 * math.pi, 64)])
        for povm in (pnr, click_povm_from(pnr)):
            series = outcome_series(cfg, povm, povm)
            # real cosine coefficients w = 0..M, like the pair-sector map's
            assert series.coeffs.dtype == np.float64
            assert series.coeffs.shape[0] == max_photons + 1
            self._assert_matches_extended(series, grid)
        T = optics.pair_sector_map(max_photons).coeffs
        assert T.dtype == np.float64 and T.shape[0] == max_photons + 1


class TestParityBlocks:
    """Every stage conserves the parity of n_s + n_i, so sigma4 and dsigma4 are
    block-diagonal in it and the lossy QFI splits into two block sums."""

    @staticmethod
    def _random_engines(seed):
        rng = np.random.default_rng(seed)
        for max_photons in range(3, 11):
            eng = InterferometerEngine(
                SqueezingParams(rng.uniform(0.05, 0.6)),
                LossModel(*rng.uniform(0.3, 0.99, 4)),
                FockCutoff(max_photons),
            )
            yield eng, rng.uniform(0.0, 2 * math.pi, 2)

    @staticmethod
    def _parity(d):
        # test-side block labels, independent of the engine's parity_blocks
        return np.add.outer(np.arange(d), np.arange(d)).ravel() % 2

    def test_no_coherence_between_even_and_odd(self):
        for eng, thetas in self._random_engines(41):
            par = self._parity(eng.cutoff.dim)
            cross = par[:, None] != par[None, :]
            signal = signal_photon_numbers(eng.cutoff).astype(float)
            for th in thetas:
                for gen in (signal, None):
                    rho, drho = dense_sigma4(eng, th, gen)
                    assert np.max(np.abs(rho[cross])) == 0.0
                    assert np.max(np.abs(drho[cross])) == 0.0

    def test_block_sum_matches_full_qfi(self):
        for eng, thetas in self._random_engines(42):
            par = self._parity(eng.cutoff.dim)
            for th in thetas:
                rho, drho = dense_sigma4(eng, th)
                full = quantum_fisher_mixed(rho, drho)
                blocks = sum(
                    quantum_fisher_mixed(rho[np.ix_(b, b)], drho[np.ix_(b, b)])
                    for b in (np.flatnonzero(par == 0), np.flatnonzero(par == 1))
                )
                assert blocks == pytest.approx(full, rel=1e-10)

    def test_sweep_qfi_column_matches_dense_loop(self):
        rng = np.random.default_rng(43)
        grid = rng.uniform(0.0, 2 * math.pi, 5)
        loss = LossModel(*rng.uniform(0.3, 0.99, 4))
        cfg = _config(0.35, loss, max_photons=7)
        rep = sweep_fisher(cfg, grid, _pnr(7), _pnr(7))
        eng = InterferometerEngine(cfg.squeezing, loss, cfg.cutoff)
        dense = [quantum_fisher_mixed(*dense_sigma4(eng, th)) for th in grid]
        assert rep.qfi == pytest.approx(dense, rel=1e-10)


class TestParityBlockSeries:
    """The lossy QFI reads sigma4's parity blocks from a per-engine Fourier
    series instead of the dense per-phase sigma4, which stays the oracle."""

    def test_matches_dense_sigma4_blocks_on_random_configs(self):
        # z up to 0.85 puts mass in the dropped sectors n_s + n_i > M, and
        # transmissivities include 0 and 1, with and without preparation loss
        rng = np.random.default_rng(707)
        for max_photons in (*range(3, 11), 12, 14, 16):
            for z in (rng.uniform(0.05, 0.6), 0.85):
                for prep_loss in (False, True):
                    etas = rng.uniform(0.3, 1.0, 4)
                    etas[rng.integers(4)] = rng.choice([0.0, 1.0])
                    if not prep_loss:
                        etas[:2] = 1.0
                    eng = InterferometerEngine(
                        SqueezingParams(z), LossModel(*etas), FockCutoff(max_photons)
                    )
                    for th in rng.uniform(-math.pi, 3 * math.pi, 2):
                        rho, drho = dense_sigma4(eng, th)
                        for block, b in zip(eng.parity_block_series, eng.parity_blocks):
                            got, dgot = block.at(th)
                            assert got.dtype == dgot.dtype == np.float64
                            assert np.max(np.abs(got - rho[np.ix_(b, b)])) < 1e-12
                            assert np.max(np.abs(dgot - drho[np.ix_(b, b)])) < 1e-12

    def test_cfi_bounded_by_qfi_on_random_lossy_configs(self):
        rng = np.random.default_rng(808)
        grid = rng.uniform(0.0, 2 * math.pi, 12)
        for max_photons in range(4, 9):
            pnr = _pnr(max_photons)
            for prep_loss in (False, True):
                etas = rng.uniform(0.3, 0.99, 4)
                if not prep_loss:
                    etas[:2] = 1.0
                cfg = _config(rng.uniform(0.05, 0.6), LossModel(*etas), max_photons=max_photons)
                for povm in (pnr, click_povm_from(pnr)):
                    rep = sweep_fisher(cfg, grid, povm, povm)
                    assert np.all(rep.cfi <= rep.qfi * (1 + 1e-10))

    def test_equal_detection_loss_qfi_is_constant_in_phase(self):
        # equal detection loss commutes with the second beam splitter and the
        # phase, so sigma4(theta) is a unitary orbit and its QFI is one number;
        # on the kept sectors n_s + n_i <= M the truncated stages commute too
        rng = np.random.default_rng(2102)
        grid = rng.uniform(0.0, 2 * math.pi, 9)
        for max_photons in range(3, 13):
            eta_d = rng.uniform(0.5, 0.99)
            loss = LossModel(*rng.uniform(0.5, 1.0, 2), eta_d, eta_d)
            cfg = _config(rng.uniform(0.2, 0.7), loss, max_photons=max_photons)
            qfi = sweep_fisher(cfg, grid, _pnr(max_photons), _pnr(max_photons)).qfi
            assert np.ptp(qfi) <= 1e-13 * np.max(qfi), (max_photons, np.ptp(qfi) / np.max(qfi))


class TestRealParityBlocks:
    """On the kept sectors the interferometer U E(theta) U is i^N times a real
    orthogonal matrix, sigma2 is real and loss is phase-covariant, so every
    parity block of sigma4(theta) is real (docs/decisions.md, entry 11). The
    checks use the tests' own oracles: scipy's beam splitter and the dense
    sigma4."""

    @staticmethod
    def _random_engines(seed):
        rng = np.random.default_rng(seed)
        for max_photons in range(3, 13):
            for prep_loss in (False, True):
                etas = rng.uniform(0.3, 1.0, 4)
                etas[rng.integers(4)] = rng.choice([0.0, 1.0])
                if not prep_loss:
                    etas[:2] = 1.0
                eng = InterferometerEngine(
                    SqueezingParams(rng.uniform(0.05, 0.85)),
                    LossModel(*etas),
                    FockCutoff(max_photons),
                )
                yield eng, rng.uniform(-math.pi, 3 * math.pi, 2)

    def test_interferometer_is_i_to_the_n_times_real_orthogonal(self):
        rng = np.random.default_rng(2402)
        for max_photons in range(3, 13):
            d = max_photons + 1
            N = np.add.outer(np.arange(d), np.arange(d)).ravel()
            kept = np.flatnonzero(N <= max_photons)
            U = bs_expm(0.5, d)
            for th in rng.uniform(-math.pi, 3 * math.pi, 3):
                E = np.exp(1j * th * difference_generator(d))
                O = ((1j) ** -N[kept])[:, None] * (U @ (E[:, None] * U))[np.ix_(kept, kept)]
                assert np.max(np.abs(O.imag)) < 1e-13
                assert np.max(np.abs(O.real.T @ O.real - np.eye(kept.size))) < 1e-13

    def test_dense_sigma4_parity_blocks_are_real(self):
        for eng, thetas in self._random_engines(2403):
            for th in thetas:
                for x in dense_sigma4(eng, th):
                    scale = np.max(np.abs(x))
                    for b in eng.parity_blocks:
                        assert np.max(np.abs(x[np.ix_(b, b)].imag)) <= 1e-14 * scale


class TestMirrorSymmetry:
    """The model is symmetric under theta -> -theta, so a sweep evaluates the
    QFI once per mirror class of its grid and copies it to the class."""

    LOSSES = {
        "lossless": (1.0, 1.0, 1.0, 1.0),
        "prep": (0.9, 0.7, 1.0, 1.0),
        "detection": (1.0, 1.0, 0.85, 0.6),
        "both": (0.9, 0.8, 0.85, 0.95),
    }

    @staticmethod
    def _dense_qfi(eng, th):
        # oracle: the dense per-phase state, pure when nothing is lost
        if eng.loss == LossModel():
            return quantum_fisher_pure(*dense_psi3(eng, th))
        return quantum_fisher_mixed(*dense_sigma4(eng, th))

    @staticmethod
    def _cfi(series, th):
        p, dp = series.values(th).ravel(), series.derivatives(th).ravel()
        live = p > P_FLOOR
        return float(np.sum(dp[live] ** 2 / p[live]))

    def test_qfi_and_cfi_even_in_phase_on_random_configs(self):
        rng = np.random.default_rng(1111)
        for max_photons in range(3, 9):
            pnr = _pnr(max_photons)
            povms = (pnr, click_povm_from(pnr), efficiency_povm(0.8, max_photons, max_photons))
            for loss in self.LOSSES.values():
                etas = np.where(np.array(loss) < 1.0, rng.uniform(0.3, 0.99, 4), 1.0)
                cfg = _config(rng.uniform(0.05, 0.6), LossModel(*etas), max_photons=max_photons)
                eng = InterferometerEngine(cfg.squeezing, cfg.loss, cfg.cutoff)
                thetas = rng.uniform(0.0, 2 * math.pi, 3)
                qp = np.array([self._dense_qfi(eng, th) for th in thetas])
                qm = np.array([self._dense_qfi(eng, -th) for th in thetas])
                assert np.max(np.abs(qp - qm)) <= 1e-10 * np.max(qp)
                for povm_s, povm_i in zip(povms, povms[1:] + povms[:1]):
                    series = outcome_series(cfg, povm_s, povm_i)
                    cp = np.array([self._cfi(series, th) for th in thetas])
                    cm = np.array([self._cfi(series, -th) for th in thetas])
                    assert np.max(np.abs(cp - cm)) <= 1e-10 * np.max(cp)

    @pytest.mark.parametrize("loss", ["lossless", "both"])
    def test_mixed_mirror_grid_matches_dense_loop(self, loss):
        rng = np.random.default_rng(1112)
        base = rng.uniform(0.0, 2 * math.pi, 3)
        mirrors = np.stack([base, -base, 2 * math.pi - base, base + 2 * math.pi])
        grid = np.concatenate([mirrors.ravel(), [math.pi, 0.0]])
        perm = rng.permutation(grid.size)
        # at z = 0.85 the dropped sectors n_s + n_i > M carry much of the
        # mass, at odd and even cutoffs
        for z, max_photons in ((0.35, 7), (0.85, 5), (0.85, 9)):
            cfg = _config(z, LossModel(*self.LOSSES[loss]), max_photons=max_photons)
            pnr = _pnr(max_photons)
            rep = sweep_fisher(cfg, grid[perm], pnr, pnr)
            eng = InterferometerEngine(cfg.squeezing, cfg.loss, cfg.cutoff)
            dense = np.array([self._dense_qfi(eng, th) for th in grid[perm]])
            assert np.max(np.abs(rep.qfi - dense)) <= 1e-10 * np.max(dense)
            qfi = np.empty(grid.size)
            qfi[perm] = rep.qfi
            classes = qfi[: mirrors.size].reshape(mirrors.shape)
            assert np.array_equal(classes, np.broadcast_to(classes[0], classes.shape))
            if loss == "lossless":
                # the pure-state QFI does not depend on the phase
                assert np.all(rep.qfi == rep.qfi[0])
                assert np.max(np.abs(rep.qfi - dense)) <= 1e-13 * rep.qfi[0]

    def test_one_qfi_evaluation_per_mirror_class(self, monkeypatch):
        calls = []
        real = metrology.quantum_fisher_mixed

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(metrology, "quantum_fisher_mixed", counted)
        cfg = _config(0.3, LossModel(0.9, 0.8, 0.85, 0.95), max_photons=5)
        pnr = _pnr(5)
        for n in (2, 8, 32, 64):
            calls.clear()
            sweep_fisher(cfg, default_phase_grid(n), pnr, pnr)
            assert len(calls) == 2 * (n // 2 + 1)  # one call per parity block
        calls.clear()
        sweep_fisher(cfg, np.random.default_rng(1113).uniform(0.0, 2 * math.pi, 16), pnr, pnr)
        assert len(calls) == 2 * 16


def _series_extended(series, grid):
    """(values, derivatives) of a cosine series on a grid, flattened to one row
    per phase, in extended precision: sum_w a_w cos(w theta) and
    -sum_w w a_w sin(w theta)."""
    w = np.arange(series.coeffs.shape[0], dtype=np.longdouble)
    wt = np.multiply.outer(np.asarray(grid, dtype=np.longdouble), w)
    a = series.coeffs.reshape(w.size, -1).astype(np.longdouble)
    return np.cos(wt) @ a, (np.sin(wt) * -w) @ a


def _cfi_extended(series, grid):
    """Per-phase CFI of an outcome series in extended precision: the oracle
    that both double-precision evaluations are measured against."""
    p, dp = _series_extended(series, grid)
    live = p > P_FLOOR
    return np.sum(np.where(live, dp * dp / np.where(live, p, 1.0), 0.0), axis=1).astype(float)


class TestMirrorClassCfi:
    """sweep_fisher evaluates the CFI once per mirror class of its grid."""

    GRIDS = {
        "default-32": default_phase_grid(32),
        "default-2047": default_phase_grid(2047),
        "default-2048": default_phase_grid(2048),
        "degrees-360": np.deg2rad(np.linspace(0.0, 360.0, 360, endpoint=False)),
        "no-mirrors": np.random.default_rng(1301).uniform(0.0, 2 * math.pi, 64),
    }

    @pytest.mark.parametrize("max_photons", [6, 7])
    @pytest.mark.parametrize("lossless", [True, False])
    @pytest.mark.parametrize("click", [False, True])
    def test_matches_every_phase_evaluation(self, max_photons, lossless, click):
        rng = np.random.default_rng([1302, max_photons, lossless, click])
        etas = np.ones(4) if lossless else rng.uniform(0.5, 0.99, 4)
        cfg = _config(rng.uniform(0.05, 0.6), LossModel(*etas), max_photons=max_photons)
        povm = _pnr(max_photons)
        if click:
            povm = click_povm_from(povm)
        series = outcome_series(cfg, povm, povm)
        for name, grid in self.GRIDS.items():
            first, label = metrology._mirror_classes(grid)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # theta = 0 is a dark fringe
                cfi = sweep_fisher(cfg, grid, povm, povm, compute_qfi=False).cfi
                every = metrology._cfi_on_grid(series, grid)[0]
            exact = _cfi_extended(series, grid)
            scale = np.max(exact)
            # one value per class, taken at the class's evaluated phase
            assert np.array_equal(cfi, cfi[first][label]), name
            assert np.max(np.abs(cfi[first] - every[first])) <= 1e-12 * scale, name
            # the copies are no farther from the series than the every-phase
            # evaluation is: near p = 0 that one rounds to ~1e-11 on its own
            err = np.max(np.abs(cfi - exact))
            assert err <= np.max(np.abs(every - exact)) + 1e-12 * scale, name
            if name != "no-mirrors":
                assert np.array_equal(cfi[1:], cfi[:0:-1]), name  # CFI(theta_k) == CFI(theta_{n-k})

    def test_one_cfi_evaluation_per_mirror_class(self, monkeypatch):
        sizes = []
        real = metrology._cfi_on_grid

        def counted(series, grid):
            sizes.append(np.size(grid))
            return real(series, grid)

        monkeypatch.setattr(metrology, "_cfi_on_grid", counted)
        cfg = _config(0.3, LossModel.symmetric(0.9), max_photons=5)
        pnr = _pnr(5)
        for n in (2, 8, 33, 2048):
            sweep_fisher(cfg, default_phase_grid(n), pnr, pnr, compute_qfi=False)
        assert sizes == [2, 5, 17, 1025]

    def test_near_singular_count_covers_every_phase(self):
        # lossless, within 2e-8 rad of the dark fringe at theta = 0: six phases
        # in two mirror classes, each with six near-singular outcomes; (3, 5)
        # and (5, 3) need 8 photons, more than the sectors n_s + n_i <= 6 of
        # cutoff 6 hold
        grid = np.array([1e-8, 2 * math.pi - 1e-8, -2e-8, 2e-8, 0.5, -1e-8, 2 * math.pi - 2e-8])
        assert metrology._mirror_classes(grid)[0].size == 3
        cfg = _config(0.3, max_photons=6)
        pnr = _pnr(6)
        series = outcome_series(cfg, pnr, pnr)
        every = int(metrology._cfi_on_grid(series, grid)[1].sum())
        assert every == 36
        with pytest.warns(RuntimeWarning, match=rf"^{every} outcome\(s\) with p <=") as rec:
            sweep_fisher(cfg, grid, pnr, pnr, compute_qfi=False)
        assert len(rec) == 1


class TestCfiSupport:
    """The CFI evaluates only the outcomes whose coefficients are not all zero."""

    @staticmethod
    def _every_outcome(series, grid):
        """The CFI rows, near-singular counts and sum of dp over every outcome."""
        p = series.values(grid).reshape(grid.size, -1)
        dp = series.derivatives(grid).reshape(grid.size, -1)
        return (*metrology._cfi_rows(p, dp), np.max(np.abs(dp.sum(axis=1))))

    def test_matches_every_outcome_on_random_configs(self):
        rng = np.random.default_rng(1401)
        # the dark fringe theta = 0 and its neighbours bring near-singular outcomes
        grid = np.concatenate([default_phase_grid(300), [1e-8, -2e-8, 3e-7]])
        for max_photons in range(3, 13):
            lossless = rng.random() < 0.3
            etas = np.ones(4) if lossless else rng.uniform(0.5, 0.99, 4)
            cfg = _config(rng.uniform(0.05, 0.6), LossModel(*etas), max_photons=max_photons)
            pnr = _pnr(max_photons)
            povms = [
                pnr,
                ideal_pnr_povm(int(rng.integers(1, max_photons)), max_photons),
                click_povm_from(pnr),
                efficiency_povm(rng.uniform(0.6, 0.95), max_photons, max_photons),
            ]
            for povm in povms:
                series = outcome_series(cfg, povm, povm)
                cfi, n_suspect, dsum = metrology._cfi_on_grid(series, grid)
                want, want_suspect, want_dsum = self._every_outcome(series, grid)
                assert np.linalg.norm(cfi - want) <= 1e-14 * np.linalg.norm(want), max_photons
                assert np.array_equal(n_suspect, want_suspect), max_photons
                assert abs(dsum - want_dsum) <= 1e-14, max_photons

    @pytest.mark.parametrize("max_photons", [3, 10])
    def test_support_drops_exactly_the_unreachable_outcomes(self, max_photons):
        # under ideal PNR, outcome (j, k) needs j + k photons, which only the
        # sectors N > M hold; the support is the same view on every access
        cfg = _config(0.3, LossModel(0.9, 0.8, 0.85, 0.95), max_photons=max_photons)
        pnr = _pnr(max_photons)
        series = outcome_series(cfg, pnr, pnr)
        n = np.arange(max_photons + 1)
        reach = np.add.outer(n, n).ravel() <= max_photons
        assert series.support is series.support
        assert np.array_equal(series.support.coeffs, series.coeffs.reshape(max_photons + 1, -1)[:, reach])
        assert not np.any(series.coeffs.reshape(max_photons + 1, -1)[:, ~reach])
        # a click detector reaches every outcome, so its support is the series
        click = click_povm_from(pnr)
        click_series = outcome_series(cfg, click, click)
        assert click_series.support is click_series


class TestSubSnlFraction:
    def test_all_below_gives_zero(self):
        grid = default_phase_grid(1024)
        rep = FisherReport(grid, np.full(grid.size, 0.1), None, snl=1.0)
        assert sub_snl_fraction(rep) == 0.0

    def test_grid_refinement_stable(self):
        cfg = _config(0.25, LossModel.symmetric(0.9))
        pnr = _pnr()
        fracs = []
        for n in (2048, 4096):
            rep = sweep_fisher(cfg, default_phase_grid(n), pnr, pnr, compute_qfi=False)
            fracs.append(sub_snl_fraction(rep))
        assert abs(fracs[0] - fracs[1]) <= 0.002

    def test_lossless_fraction_exceeds_lossy(self):
        pnr = _pnr(6)
        frs = []
        for loss in (LossModel(), LossModel.symmetric(0.7)):
            cfg = _config(0.1, loss, max_photons=6)
            rep = sweep_fisher(cfg, default_phase_grid(1024), pnr, pnr, compute_qfi=False)
            frs.append(sub_snl_fraction(rep))
        assert frs[0] > frs[1]

    def test_zero_snl_rejected(self):
        grid = default_phase_grid(1024)
        rep = FisherReport(grid, np.zeros(grid.size), None, snl=0.0)
        with pytest.raises(ConfigError):
            sub_snl_fraction(rep)

    def test_unknown_column_rejected(self):
        grid = default_phase_grid(1024)
        rep = FisherReport(grid, np.full(grid.size, 2.0), np.full(grid.size, 0.5), snl=1.0)
        assert sub_snl_fraction(rep, "cfi") == 1.0
        assert sub_snl_fraction(rep, "qfi") == 0.0
        for which in ("CFI", "QFI", "both"):
            with pytest.raises(ConfigError, match=repr(which)):
                sub_snl_fraction(rep, which)


class TestGoldenSection:
    def test_locates_quadratic_maximum(self):
        x, fx = golden_section_max(lambda x: -(x - 1.3) ** 2 + 2.0, 0.0, 3.0)
        assert x == pytest.approx(1.3, abs=1e-5)
        assert fx == pytest.approx(2.0, abs=1e-9)


class TestPnrClickRatio:
    def test_single_pair_regime_ratio_near_one(self):
        out = pnr_click_ratio(
            [1e-4], LossModel.symmetric(0.9), FockCutoff(6), coarse_points=64
        )
        assert out["ratio"][0] <= 1 + 1e-2
        assert out["ratio"][0] >= 1 - 1e-9

    def test_ratio_at_least_one_and_increasing(self):
        out = pnr_click_ratio(
            [0.05, 0.5, 2.0], LossModel.symmetric(0.9), FockCutoff(8), coarse_points=64
        )
        assert np.all(out["ratio"] >= 1 - 1e-9)
        assert np.all(np.diff(out["ratio"]) > 0)


class TestReportSerialization:
    def test_csv_columns_and_rows(self, tmp_path):
        grid = np.linspace(0, 2 * math.pi, 8, endpoint=False)
        rep = sweep_fisher(_config(0.2), grid, _pnr(), _pnr())
        path = tmp_path / "report.csv"
        rep.to_csv(path)
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        assert lines[0] == "phase,cfi,qfi,snl,cfi_per_photon,qfi_per_photon"
        assert len(lines) == 1 + grid.size
        first = lines[1].split(",")
        assert float(first[0]) == grid[0]
        assert float(first[3]) == rep.snl

    def test_csv_metadata_header(self, tmp_path):
        grid = np.linspace(0, 2 * math.pi, 4, endpoint=False)
        rep = sweep_fisher(_config(0.2), grid, _pnr(), _pnr(), compute_qfi=False)
        path = tmp_path / "report.csv"
        rep.to_csv(path)
        header = [ln for ln in path.read_text().splitlines() if ln.startswith("#")]
        assert any("config_hash" in ln for ln in header)

    def test_json_round_trip(self, tmp_path):
        grid = np.linspace(0, 2 * math.pi, 8, endpoint=False)
        rep = sweep_fisher(_config(0.2), grid, _pnr(), _pnr())
        path = tmp_path / "report.json"
        rep.to_json(path)
        back = json.loads(path.read_text())
        assert np.allclose(back["cfi"], rep.cfi)
        assert np.allclose(back["qfi"], rep.qfi)
        assert back["snl"] == rep.snl
        assert back["metadata"]["config_hash"] == rep.metadata["config_hash"]

    def test_per_photon_normalization(self):
        grid = np.linspace(0, 2 * math.pi, 8, endpoint=False)
        rep = sweep_fisher(_config(0.2), grid, _pnr(), _pnr(), compute_qfi=False)
        assert np.allclose(rep.cfi_per_photon, rep.cfi / rep.snl)


def _random_floats(rng, n):
    """Floats over the whole double range, with NaN, +-inf, -0.0, integers and
    subnormals mixed in."""
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
    kind = rng.integers(0, 12, n)
    x[kind == 0] = np.nan
    x[kind == 1] = np.inf
    x[kind == 2] = -np.inf
    x[kind == 3] = -0.0
    x[kind == 4] = np.round(x[kind == 4] * 1e-290)
    x[kind == 5] = 5e-324 * rng.integers(1, 1000, np.count_nonzero(kind == 5))
    x[kind == 6] = rng.uniform(0.0, 2 * math.pi, np.count_nonzero(kind == 6))
    return x


class TestReportWriters:
    """The column-wise writers give the bytes of the row-by-row loops."""

    def test_float_text_formats_each_bit_pattern_like_repr(self):
        rng = np.random.default_rng(1305)
        payload = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(float)
        special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1.5, *payload])
        mirrored = rng.standard_normal(1025)
        for values in (
            special,
            np.repeat(special, 3),
            rng.permutation(np.tile(special, 40)),
            np.concatenate([mirrored, mirrored[-2:0:-1]]),
            _random_floats(rng, 2048)[rng.integers(0, 2048, 4096)],
            np.full(2048, 0.0036441),
            np.array([]),
            special[::3],
        ):
            assert metrology._float_text(values) == list(map(repr, values.tolist()))
        assert metrology._float_text((0.5, -0.0, 0.5)) == ["0.5", "-0.0", "0.5"]

    METADATA = [
        {},
        {"z": 0.2, "n_bar": 0.0416, "max_photons": 10, "config_hash": "0123abcd"},
        {"detector_s": "\u03b7=0.8 \u03c8\u2192\u03c6", "n\u00e4me": "\u5024", "emoji": "\U0001f642"},
        {"note": "two\nlines, \"quoted\"", "grid": [1.0, float("nan")], "nested": {"b": None, "a": True}},
        {"snl": np.float64(0.1), "eta": float("inf")},
    ]

    def test_report_files_match_loop_writers(self, tmp_path):
        rng = np.random.default_rng(1303)
        snls = [0.0036441, np.float64(0.0416), 0.0, -1.0, float("nan"), np.float64(2.5e-300)]
        for i in range(150):
            n = (0, 1, 2, 3, 17, 2047)[i % 6]
            rep = FisherReport(
                _random_floats(rng, n),
                _random_floats(rng, n),
                None if rng.random() < 0.5 else _random_floats(rng, n),
                snls[rng.integers(len(snls))],
                self.METADATA[rng.integers(len(self.METADATA))],
            )
            with np.errstate(over="ignore"):  # per-photon columns of huge values
                rep.to_csv(tmp_path / "new.csv")
                loop_report_csv(rep, tmp_path / "old.csv")
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
            rep.to_json(tmp_path / "new.json")
            loop_report_json(rep, tmp_path / "old.json")
            assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()

    def test_table_csv_matches_loop_writer(self, tmp_path):
        # the CLI's tables: rows of Python floats (loss-scan, bootstrap) and
        # columns of numpy arrays (the ratio scan)
        rng = np.random.default_rng(1304)
        for i in range(60):
            n, k = (1, 6, 20)[i % 3], int(rng.integers(1, 7))
            cols = [_random_floats(rng, n) for _ in range(k)]
            header = ",".join(f"c{j}" for j in range(k))
            meta = self.METADATA[i % len(self.METADATA)]
            rows = [tuple(float(x) for x in row) for row in zip(*cols)]
            loop_write_csv(tmp_path / "old.csv", meta, header, rows)
            write_csv(tmp_path / "rows.csv", meta, header, list(zip(*rows)))
            write_csv(tmp_path / "cols.csv", meta, header, cols)
            loop_write_csv(tmp_path / "old_np.csv", meta, header, list(zip(*cols)))
            old = (tmp_path / "old.csv").read_bytes()
            assert (tmp_path / "old_np.csv").read_bytes() == old
            assert (tmp_path / "rows.csv").read_bytes() == old
            assert (tmp_path / "cols.csv").read_bytes() == old
