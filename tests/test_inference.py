"""Model fitting to count histograms and bootstrap confidence bands."""

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
    bootstrap_ci,
    fit_model,
    ideal_pnr_povm,
    simulate_counts,
)
from tmsvfisher import inference, optics
from tmsvfisher.inference import (
    FREE_PARAM_NAMES,
    CountHistogram,
    FitResult,
    _default_exclusion_mask,
    snl_with_uncertainty,
)
from tmsvfisher.metrology import _sliced_thetas
from tmsvfisher.optics import InterferometerEngine

from conftest import dense_sigma4


def _model_probs(params, phases, ths, thi, cutoff):
    """The fit's outcome probabilities (n_phases, n_j, n_k) at natural parameters."""
    pair_map = optics.pair_sector_map(cutoff.max_photons).at_phases(phases)
    return inference._probs_and_derivatives(pair_map, params, (), ths, thi)[0]


def _truth_config(z=0.1, eta_p_s=0.85, eta_p_i=0.9, max_photons=6):
    return InterferometerConfig(
        SqueezingParams(z),
        LossModel(eta_p_s=eta_p_s, eta_p_i=eta_p_i),
        0.0,
        FockCutoff(max_photons),
    )


def _synthetic_hist(cfg, trials=200_000, n_phases=8, seed=42):
    pnr = ideal_pnr_povm(cfg.cutoff.max_photons, cfg.cutoff.max_photons)
    phases = np.linspace(0.2, 2 * math.pi - 0.2, n_phases)
    return simulate_counts(cfg, pnr, pnr, phases, trials, seed), pnr


class TestCountHistogram:
    def test_csv_round_trip(self, tmp_path):
        cfg = _truth_config(max_photons=4)
        hist, _ = _synthetic_hist(cfg, trials=1000, n_phases=3)
        path = tmp_path / "counts.csv"
        hist.to_csv(path)
        back = CountHistogram.from_csv(path)
        assert np.array_equal(back.counts, hist.counts)
        assert np.allclose(back.phases, hist.phases)
        assert back.trials_per_phase == hist.trials_per_phase

    def test_missing_trials_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("phase_rad,j,k,count\n0.0,0,0,5\n")
        with pytest.raises(ConfigError):
            CountHistogram.from_csv(path)

    def test_counts_exceeding_trials_rejected(self):
        counts = np.full((1, 2, 2), 100)
        with pytest.raises(ConfigError):
            CountHistogram(np.array([0.0]), counts, trials_per_phase=10)

    def test_negative_counts_rejected(self):
        counts = np.zeros((1, 2, 2), dtype=int)
        counts[0, 0, 0] = -1
        with pytest.raises(ConfigError):
            CountHistogram(np.array([0.0]), counts, trials_per_phase=10)


class TestSimulateCounts:
    def test_deterministic_for_fixed_seed(self):
        cfg = _truth_config(max_photons=4)
        h1, _ = _synthetic_hist(cfg, trials=5000, seed=7)
        h2, _ = _synthetic_hist(cfg, trials=5000, seed=7)
        assert np.array_equal(h1.counts, h2.counts)

    def test_totals_match_trials(self):
        cfg = _truth_config(max_photons=4)
        hist, _ = _synthetic_hist(cfg, trials=5000, n_phases=4)
        sums = hist.counts.reshape(4, -1).sum(axis=1)
        assert np.all(sums == 5000)


@pytest.fixture(scope="module")
def round_trip():
    truth = {"z": 0.1, "eta_p_s": 0.85, "eta_p_i": 0.9}
    cfg = _truth_config(**truth)
    hist, pnr = _synthetic_hist(cfg, trials=200_000, n_phases=8, seed=42)
    fit = fit_model(hist, pnr, pnr, cfg.cutoff, n_starts=4, seed=1)
    return truth, cfg, hist, pnr, fit


class TestFitModel:
    def test_parameters_recovered_within_three_sigma(self, round_trip):
        truth, _, _, _, fit = round_trip
        for name, val in truth.items():
            err = abs(fit.estimates[name] - val)
            assert err <= 3 * fit.stderr[name] + 1e-12, (name, err, fit.stderr[name])

    def test_n_bar_consistent_with_z(self, round_trip):
        _, _, _, _, fit = round_trip
        z = fit.estimates["z"]
        assert fit.n_bar_hat == pytest.approx(2 * z**2 / (1 - z**2), rel=1e-12)

    def test_fit_likelihood_dominates_truth(self, round_trip):
        truth, cfg, hist, pnr, fit = round_trip
        ths, thi = _sliced_thetas(pnr, pnr, cfg.cutoff.dim)
        mask = _default_exclusion_mask(ths.shape[1], thi.shape[1], False)
        cmask = hist.counts.astype(float)[:, mask]
        full_truth = {"eta_d_s": 1.0, "eta_d_i": 1.0, **truth}
        # count-scale conditional log-likelihood over the included cells
        pm = _model_probs(full_truth, hist.phases, ths, thi, cfg.cutoff)[:, mask]
        # cells whose outcomes need more photons than the cutoff keeps have
        # P = 0, and the model cannot have put counts there
        live = pm > 0
        assert not cmask[~live].any()
        ll_truth = float(
            np.sum(cmask[live] * np.log(pm[live]))
            - np.sum(cmask.sum(axis=1) * np.log(pm.sum(axis=1)))
        )
        assert fit.log_likelihood >= ll_truth - 1e-6

    def test_invariant_under_count_rescaling(self, round_trip):
        truth, cfg, hist, pnr, fit = round_trip
        hist10 = CountHistogram(hist.phases, hist.counts * 10, hist.trials_per_phase * 10)
        fit10 = fit_model(hist10, pnr, pnr, cfg.cutoff, n_starts=4, seed=1)
        for name in ("z", "eta_p_s", "eta_p_i"):
            assert abs(fit10.estimates[name] - fit.estimates[name]) < 1e-9

    def test_vacuum_truth_flags_boundary(self):
        cfg = _truth_config(z=0.0, max_photons=4)
        hist, pnr = _synthetic_hist(cfg, trials=10_000, n_phases=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit = fit_model(hist, pnr, pnr, cfg.cutoff, free=("z",), n_starts=2, seed=3)
        assert "z-at-boundary" in fit.flags

    def test_single_phase_warns_non_identifiable(self):
        cfg = _truth_config(max_photons=4)
        hist, pnr = _synthetic_hist(cfg, trials=10_000, n_phases=1)
        with pytest.warns(RuntimeWarning, match="identifiab"):
            fit_model(hist, pnr, pnr, cfg.cutoff, n_starts=1, seed=0, maxiter=200)

    def test_all_zero_counts_rejected(self):
        counts = np.zeros((2, 3, 3), dtype=int)
        hist = CountHistogram(np.array([0.1, 0.5]), counts, 10)
        pnr = ideal_pnr_povm(4, 4)
        with pytest.raises(ConfigError):
            fit_model(hist, pnr, pnr, FockCutoff(4))

    def test_unknown_free_parameter_rejected(self):
        cfg = _truth_config(max_photons=4)
        hist, pnr = _synthetic_hist(cfg, trials=1000, n_phases=2)
        with pytest.raises(ConfigError):
            fit_model(hist, pnr, pnr, cfg.cutoff, free=("z", "bogus"))

    def test_empty_free_set_rejected(self):
        cfg = _truth_config(max_photons=4)
        hist, pnr = _synthetic_hist(cfg, trials=1000, n_phases=2)
        with pytest.raises(ConfigError, match="field: free"):
            fit_model(hist, pnr, pnr, cfg.cutoff, free=())

    def test_freeing_detection_loss_flags_covariance(self):
        cfg = _truth_config(max_photons=4)
        hist, pnr = _synthetic_hist(cfg, trials=5000, n_phases=4)
        with pytest.warns(RuntimeWarning, match="weakly"):
            fit = fit_model(
                hist, pnr, pnr, cfg.cutoff,
                free=("z", "eta_d_s"), n_starts=1, seed=0, maxiter=300,
            )
        assert "weak-identifiability:eta_d-free" in fit.flags


class TestFitObjective:
    def test_model_probs_match_dense_sigma4(self):
        # oracle: POVM slices of diag(sigma4) from the dense per-phase path,
        # with every parameter of the model free to vary, eta_d included
        rng = np.random.default_rng(77)
        names = ("z", "eta_p_s", "eta_p_i", "eta_d_s", "eta_d_i")
        for max_photons in (3, 6, 8):
            cutoff = FockCutoff(max_photons)
            d = cutoff.dim
            params = dict(zip(names, [rng.uniform(0.05, 0.5), *rng.uniform(0.4, 1.0, 4)]))
            pnr = ideal_pnr_povm(max_photons - 1, max_photons)
            ths, thi = _sliced_thetas(pnr, pnr, d)
            phases = rng.uniform(0.0, 2 * math.pi, 5)
            got = _model_probs(params, phases, ths, thi, cutoff)
            eng = InterferometerEngine(
                SqueezingParams(params["z"]), LossModel(*(params[n] for n in names[1:])), cutoff
            )
            for row, th in enumerate(phases):
                pops = np.real(np.diag(dense_sigma4(eng, th)[0])).reshape(d, d)
                assert np.max(np.abs(got[row] - ths.T @ pops @ thi)) < 1e-13

    def test_fit_builds_no_engine(self, monkeypatch):
        cfg = _truth_config(max_photons=4)
        hist, pnr = _synthetic_hist(cfg, trials=5000, n_phases=4)
        builds = []
        original = InterferometerEngine.__init__

        def counting(self, *args, **kwargs):
            builds.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(optics.InterferometerEngine, "__init__", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for free in (("z", "eta_p_s", "eta_p_i"), ("z", "eta_d_s", "eta_d_i")):
                fit_model(hist, pnr, pnr, cfg.cutoff, free=free, n_starts=1, maxiter=100)
        assert builds == []

    def test_fixed_detection_binomials_built_once_per_fit(self, monkeypatch):
        # every objective evaluation builds the two preparation binomials; the
        # two detection binomials per evaluation only when an eta_d is free
        cfg = _truth_config(max_photons=4)
        hist, pnr = _synthetic_hist(cfg, trials=5000, n_phases=4)
        calls = []
        original = inference.binomial_population_matrix

        def counted(*args):
            calls.append(args)
            return original(*args)

        # the preparation binomials are built in inference, the detection
        # ones by optics.detection_sides
        monkeypatch.setattr(inference, "binomial_population_matrix", counted)
        monkeypatch.setattr(optics, "binomial_population_matrix", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for free, per_evaluation, once in (
                (("z", "eta_p_s", "eta_p_i"), 2, 2),
                (("z", "eta_d_s"), 4, 0),
            ):
                calls.clear()
                fit = fit_model(hist, pnr, pnr, cfg.cutoff, free=free, n_starts=1, maxiter=100)
                evaluations = fit.starts[0]["nfev"]
                assert evaluations > 2
                assert len(calls) == per_evaluation * evaluations + once

    @pytest.mark.parametrize("free", [("z",), FREE_PARAM_NAMES])
    def test_gof_dof_counts_the_free_parameters(self, free):
        cfg = _truth_config(max_photons=4)
        hist, pnr = _synthetic_hist(cfg, trials=20_000, n_phases=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit = fit_model(hist, pnr, pnr, cfg.cutoff, free=free, n_starts=1, maxiter=300)
        ths, thi = _sliced_thetas(pnr, pnr, cfg.cutoff.dim)
        mask = _default_exclusion_mask(ths.shape[1], thi.shape[1], False)
        pm = _model_probs(fit.estimates, hist.phases, ths, thi, cfg.cutoff)[:, mask]
        n_inc = hist.counts[:, mask].sum(axis=1, keepdims=True)
        kept = int(np.sum(n_inc * pm / pm.sum(axis=1, keepdims=True) > 1e-9))
        assert fit.gof_dof == kept - hist.phases.size - len(free)

    def test_records_solver_diagnostics_per_start(self, round_trip):
        _, _, _, _, fit = round_trip
        assert len(fit.starts) == 4
        assert all(s["nfev"] > s["nit"] > 0 for s in fit.starts)
        assert fit.best_start in range(4)


def _base(fixed):
    return {"z": 0.05, "eta_p_s": 1.0, "eta_p_i": 1.0, "eta_d_s": 1.0, "eta_d_i": 1.0, **fixed}


def _random_objective(free, seed):
    """A fit objective on synthetic counts, and a random point away from its optimum."""
    rng = np.random.default_rng(seed)
    cutoff = FockCutoff(4)
    truth = LossModel(*rng.uniform(0.6, 0.95, 4))
    cfg = InterferometerConfig(SqueezingParams(rng.uniform(0.1, 0.3)), truth, 0.0, cutoff)
    pnr = ideal_pnr_povm(4, 4)
    hist = simulate_counts(cfg, pnr, pnr, rng.uniform(0.0, 2 * math.pi, 5), 20_000, seed)
    params = dict(zip(FREE_PARAM_NAMES, [rng.uniform(0.05, 0.4), *rng.uniform(0.5, 0.95, 4)]))
    include = bool(seed % 2)
    objective = inference._FitObjective(hist, pnr, pnr, cutoff, free, params, include)
    return objective, params, hist, pnr, cutoff, include


def _nelder_mead_objective(hist, pnr, cutoff, free, fixed, include, n_starts, seed):
    """Lowest frequency-form objective a Nelder-Mead search reaches from the
    starts fit_model draws for (n_starts, seed)."""
    from scipy import optimize

    objective = inference._FitObjective(hist, pnr, pnr, cutoff, free, _base(fixed), include)
    lo, hi = (np.array([inference._BOUNDS[name][k] for name in free]) for k in (0, 1))

    def value(t):
        phi = inference._from_logit(np.asarray(t), lo, hi)[0]
        return objective({**_base(fixed), **dict(zip(free, phi.tolist()))})[0]

    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(n_starts):
        x0 = [
            inference._logit(
                10.0 ** rng.uniform(-2.3, -0.5) * inference.Z_SEARCH_MAX
                if name == "z" else rng.uniform(0.5, 0.99),
                *inference._BOUNDS[name],
            )
            for name in free
        ]
        res = optimize.minimize(
            value, x0, method="Nelder-Mead",
            options={"maxiter": 4000, "xatol": 1e-9, "fatol": 1e-10},
        )
        best = min(best, float(res.fun))
    return best, objective.ll_scale


@pytest.fixture(scope="module")
def criterion_7():
    """Criterion 7's counts and fit arguments (tests/test_acceptance.py)."""
    eta = 0.85
    cutoff = FockCutoff(6)
    cfg = InterferometerConfig(SqueezingParams(0.05), LossModel(eta, eta, eta, eta), 0.0, cutoff)
    pnr = ideal_pnr_povm(6, 6)
    phases = np.linspace(0.0, 2 * math.pi, 20, endpoint=False)
    hist = simulate_counts(cfg, pnr, pnr, phases, 10**7, seed=314)
    args = dict(
        free=("z", "eta_p_s", "eta_p_i"),
        fixed={"eta_d_s": eta, "eta_d_i": eta},
        include_single_photon=True,
        seed=0,
    )
    return hist, pnr, cutoff, args, fit_model(hist, pnr, pnr, cutoff, **args)


# the frequency-form objective rounds at about 2e-16 on these fits (its value
# spreads that much under 1e-12 relative moves of the optimum), and Nelder-Mead
# can land on a rounding-favoured point
OBJECTIVE_ROUNDING = 1e-15


class TestFisherScoring:
    @pytest.mark.parametrize("free", [("z",), ("z", "eta_p_s", "eta_p_i"), FREE_PARAM_NAMES])
    def test_gradient_matches_central_differences(self, free):
        h = 1e-6
        for seed in range(3):
            objective, params, *_ = _random_objective(free, seed)
            grad = objective(params)[1]
            fd = [
                (objective({**params, name: params[name] + h})[0]
                 - objective({**params, name: params[name] - h})[0]) / (2 * h)
                for name in free
            ]
            assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(grad))

    @pytest.mark.parametrize("free", [("z",), ("z", "eta_p_s", "eta_p_i"), FREE_PARAM_NAMES])
    def test_information_matches_finite_difference_oracle(self, free):
        # sum_p (n_p / n) / N_p [sum_c dP dP^T / P - dN dN^T / N_p] over the
        # included cells, with dP from central differences of _model_probs
        h = 1e-6
        for seed in range(3):
            objective, params, hist, pnr, cutoff, include = _random_objective(free, seed)
            ths, thi = _sliced_thetas(pnr, pnr, cutoff.dim)
            mask = _default_exclusion_mask(ths.shape[1], thi.shape[1], include)

            def probs(p):
                return _model_probs(p, hist.phases, ths, thi, cutoff)[:, mask]

            P = probs(params)
            dP = np.stack([
                (probs({**params, name: params[name] + h})
                 - probs({**params, name: params[name] - h})) / (2 * h)
                for name in free
            ])
            # ideal PNR: cell (j, k) needs j + k photons, and the model keeps
            # only the sectors n_s + n_i <= M; the others are exactly 0
            n_j, n_k = ths.shape[1], thi.shape[1]
            reach = (np.add.outer(np.arange(n_j), np.arange(n_k)) <= cutoff.max_photons)[mask]
            assert (P[:, reach] > 0).all()
            assert (P[:, ~reach] == 0).all() and (dP[:, :, ~reach] == 0).all()
            P, dP = P[:, reach], dP[:, :, reach]
            N = P.sum(axis=1)
            dN = dP.sum(axis=2)
            n_inc = hist.counts[:, mask].sum(axis=1)
            w = n_inc / n_inc.sum()
            oracle = np.einsum("p,ipc,jpc->ij", w / N, dP / P, dP) - np.einsum(
                "p,ip,jp->ij", w / N**2, dN, dN
            )
            info = objective(params)[2]
            assert np.max(np.abs(info - oracle)) <= 1e-6 * np.max(np.abs(oracle))

    def test_optimum_no_worse_than_nelder_mead_on_criterion_7(self, criterion_7):
        hist, pnr, cutoff, args, fit = criterion_7
        nm, ll_scale = _nelder_mead_objective(
            hist, pnr, cutoff, args["free"], args["fixed"], args["include_single_photon"],
            8, args["seed"],
        )
        assert -fit.log_likelihood / ll_scale <= nm + OBJECTIVE_ROUNDING

    def test_optimum_no_worse_than_nelder_mead_on_round_trip(self, round_trip):
        _, cfg, hist, pnr, fit = round_trip
        nm, ll_scale = _nelder_mead_objective(
            hist, pnr, cfg.cutoff, ("z", "eta_p_s", "eta_p_i"), {}, False, 4, 1
        )
        assert -fit.log_likelihood / ll_scale <= nm + OBJECTIVE_ROUNDING

    def test_criterion_7_takes_few_evaluations_per_start(self, criterion_7):
        fit = criterion_7[-1]
        assert fit.converged
        assert len(fit.starts) == 8
        assert all(s["nfev"] <= 30 for s in fit.starts), fit.starts

    def test_round_trip_takes_few_evaluations_per_start(self, round_trip):
        # one start begins at z = 0.005, where the information barely
        # resolves eta_p and the undamped scoring step runs off along it
        fit = round_trip[-1]
        assert fit.converged
        assert all(s["nfev"] <= 30 for s in fit.starts), fit.starts

    def test_boundary_optimum_terminates_converged(self):
        # the CLI bootstrap test's shape: cutoff 3, phases 0 and pi, 2000
        # trials, truth eta_p = 1, so resampled fits put eta_p on its bound,
        # where its logit runs off to infinity
        cutoff = FockCutoff(3)
        cfg = InterferometerConfig(SqueezingParams(0.2), LossModel(), 0.0, cutoff)
        pnr = ideal_pnr_povm(3, 3)
        hist = simulate_counts(cfg, pnr, pnr, np.array([0.0, math.pi]), 2000, seed=4)
        probs = hist.counts.reshape(2, -1) / 2000
        rng = np.random.default_rng(7)
        at_bound = 0
        for _ in range(20):
            counts = np.stack([rng.multinomial(2000, p) for p in probs]).reshape(hist.counts.shape)
            fit = fit_model(CountHistogram(hist.phases, counts, 2000), pnr, pnr, cutoff, n_starts=1)
            assert fit.converged
            assert fit.starts[0]["nit"] < 100
            at_bound += 1.0 - max(fit.estimates["eta_p_s"], fit.estimates["eta_p_i"]) < 1e-9
        assert at_bound > 0

    @pytest.mark.parametrize("seed", [0, 3])
    def test_boundary_optimum_without_vanishing_cells(self, seed):
        # eta_p_s -> 1 with lossy detectors and the single-photon cells kept:
        # no outcome cell vanishes at the bound, so the information in the
        # bound's logit falls like its Jacobian squared and the scoring step
        # there grows without limit; the other coordinates must still reach
        # their optimum
        cutoff = FockCutoff(3)
        fixed = {"eta_d_s": 0.886, "eta_d_i": 0.96}
        cfg = InterferometerConfig(
            SqueezingParams(0.244), LossModel(1.0, 0.656, *fixed.values()), 0.0, cutoff
        )
        pnr = ideal_pnr_povm(3, 3)
        hist = simulate_counts(cfg, pnr, pnr, np.array([0.4, 1.9, 3.7]), 50_000, seed)
        free = ("z", "eta_p_s", "eta_p_i")
        fit = fit_model(
            hist, pnr, pnr, cutoff, fixed=fixed, include_single_photon=True,
            n_starts=3, seed=seed,
        )
        assert fit.converged
        assert 1.0 - fit.estimates["eta_p_s"] < 1e-9
        nm, ll_scale = _nelder_mead_objective(hist, pnr, cutoff, free, fixed, True, 3, seed)
        assert -fit.log_likelihood / ll_scale <= nm + OBJECTIVE_ROUNDING


def _p11_statistic(hist: CountHistogram) -> np.ndarray:
    """Per-phase empirical frequency of the coincidence cell (1, 1)."""
    totals = hist.counts.reshape(hist.phases.size, -1).sum(axis=1)
    return hist.counts[:, 1, 1] / np.maximum(totals, 1)


class TestBootstrap:
    def test_bit_reproducible(self):
        cfg = _truth_config(max_photons=4)
        hist, _ = _synthetic_hist(cfg, trials=5000, n_phases=4)
        a = bootstrap_ci(hist, _p11_statistic, 100, seed=11)
        b = bootstrap_ci(hist, _p11_statistic, 100, seed=11)
        assert np.array_equal(a["samples"], b["samples"])

    def test_degenerate_data_gives_zero_width_band(self):
        counts = np.zeros((3, 2, 2), dtype=int)
        counts[:, 0, 0] = 1000  # all mass in one cell: resamples are identical
        hist = CountHistogram(np.array([0.1, 0.2, 0.3]), counts, 1000)
        band = bootstrap_ci(hist, _p11_statistic, 100, seed=0)
        assert np.array_equal(band["lo"], band["hi"])

    def test_band_width_scales_with_trials(self):
        cfg = _truth_config(z=0.2, max_photons=4)
        widths = []
        for trials in (20_000, 80_000):
            hist, _ = _synthetic_hist(cfg, trials=trials, n_phases=4, seed=31)
            band = bootstrap_ci(hist, _p11_statistic, 400, seed=5)
            widths.append(float(np.mean(band["hi"] - band["lo"])))
        ratio = widths[1] / widths[0]
        assert 0.4 <= ratio <= 0.6

    def test_coverage_at_reduced_scale(self):
        # statistic: per-phase p(1,1) frequency; truth from a huge-sample run
        cfg = _truth_config(z=0.25, max_photons=4)
        pnr = ideal_pnr_povm(4, 4)
        phases = np.array([0.7])
        big = simulate_counts(cfg, pnr, pnr, phases, 4 * 10**7, 123)
        truth = _p11_statistic(big)[0]
        hits = 0
        reps = 200
        for r in range(reps):
            hist = simulate_counts(cfg, pnr, pnr, phases, 4000, 1000 + r)
            band = bootstrap_ci(hist, _p11_statistic, 100, seed=r)
            if band["lo"][0] <= truth <= band["hi"][0]:
                hits += 1
        assert hits / reps >= 0.90

    def test_too_few_resamples_rejected(self):
        cfg = _truth_config(max_photons=4)
        hist, _ = _synthetic_hist(cfg, trials=1000, n_phases=2)
        with pytest.raises(ConfigError):
            bootstrap_ci(hist, _p11_statistic, 99, seed=0)

    def test_bad_level_rejected(self):
        cfg = _truth_config(max_photons=4)
        hist, _ = _synthetic_hist(cfg, trials=1000, n_phases=2)
        with pytest.raises(ConfigError):
            bootstrap_ci(hist, _p11_statistic, 100, level=1.5, seed=0)


def _fit_result_with(z, var_z):
    cov = np.array([[var_z]])
    return FitResult(
        estimates={"z": z},
        free_names=("z",),
        covariance=cov,
        stderr={"z": math.sqrt(var_z)},
        n_bar_hat=2 * z**2 / (1 - z**2),
        log_likelihood=0.0,
        gof_chi2=0.0,
        gof_dof=1,
        converged=True,
    )


class TestSnlWithUncertainty:
    def test_zero_covariance_gives_zero_width(self):
        fit = _fit_result_with(0.1, 0.0)
        n_bar, (lo, hi) = snl_with_uncertainty(fit)
        assert lo == hi == n_bar

    def test_experimental_magnitudes(self):
        # n_bar = 3.631e-3 with sigma_nbar = 1.4e-5 -> 95% half width ~ 2.8e-5
        n_target = 3.631e-3
        z = SqueezingParams.from_mean_photons(n_target).z
        dn_dz = 4 * z / (1 - z**2) ** 2
        sigma_z = 1.4e-5 / dn_dz
        fit = _fit_result_with(z, sigma_z**2)
        n_bar, (lo, hi) = snl_with_uncertainty(fit, level=0.95)
        assert n_bar == pytest.approx(n_target, rel=1e-9)
        assert (hi - lo) / 2 == pytest.approx(1.96 * 1.4e-5, rel=1e-2)

    def test_interval_clamped_at_zero(self):
        fit = _fit_result_with(0.01, 1.0)  # absurdly large variance
        _, (lo, _) = snl_with_uncertainty(fit)
        assert lo == 0.0

    def test_missing_covariance_rejected(self):
        fit = _fit_result_with(0.1, 0.01)
        fit.covariance = None
        with pytest.raises(ConfigError):
            snl_with_uncertainty(fit)
