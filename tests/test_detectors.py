"""Detector POVMs and maximum-likelihood tomography round-trips."""

import math
import warnings

import numpy as np
import pytest

from tmsvfisher import (
    ConfigError,
    FockCutoff,
    ProbeSet,
    click_povm_from,
    coherent_probe_matrix,
    efficiency_povm,
    ideal_pnr_povm,
    tomography_mle,
)
from tmsvfisher import detectors
from tmsvfisher.errors import IdentifiabilityError
from tmsvfisher.detectors import (
    DetectorPovm,
    ResponseMatrix,
    dense_probe_ladder,
    read_probe_csv,
    simulate_response,
    write_probe_csv,
)
from tmsvfisher.metrology import _sliced_thetas

from conftest import tmsv_state


def default_probe_ladder(n_points=15, lo=0.05, hi=12.8):
    """Geometric ladder of probe intensities for synthetic tomography."""
    return tuple(np.geomspace(lo, hi, n_points))


def joint_outcome_probabilities(amps, povm_s, povm_i):
    """p(j, k) = Theta_s^T |c|^2 Theta_i for a pure state's (d, d) amplitudes c,
    with each POVM cut to the state's cutoff as the outcome series does."""
    ths, thi = _sliced_thetas(povm_s, povm_i, amps.shape[0])
    return ths.T @ np.abs(amps) ** 2 @ thi


class TestIdealPnr:
    def test_resolved_count(self):
        povm = ideal_pnr_povm(10, 12)
        assert povm.theta[3, 3] == 1.0
        assert povm.theta[3].sum() == 1.0

    def test_saturation_bucket(self):
        povm = ideal_pnr_povm(10, 12)
        assert povm.theta[12, 10] == 1.0
        assert povm.theta[11, 10] == 1.0

    def test_completeness(self):
        povm = ideal_pnr_povm(5, 9)
        assert np.max(np.abs(povm.theta.sum(axis=1) - 1.0)) < 1e-12

    def test_n_max_exceeding_k_max_rejected(self):
        with pytest.raises(ConfigError):
            ideal_pnr_povm(10, 9)


class TestClickPovm:
    def test_ideal_no_click_is_vacuum_indicator(self):
        click = click_povm_from(ideal_pnr_povm(5, 5))
        expected = np.zeros(6)
        expected[0] = 1.0
        assert np.array_equal(click.theta[:, 0], expected)

    def test_lossy_no_click_probability(self):
        eta = 0.7
        click = click_povm_from(efficiency_povm(eta, 8, 8))
        ks = np.arange(9)
        assert np.max(np.abs(click.theta[:, 0] - (1 - eta) ** ks)) < 1e-12

    def test_completeness_preserved(self):
        click = click_povm_from(efficiency_povm(0.3, 6, 6))
        assert np.max(np.abs(click.theta.sum(axis=1) - 1.0)) < 1e-12

    def test_click_probability_is_one_minus_vacuum_projection(self, cutoff6):
        state = tmsv_state(0.4, cutoff6)
        click = click_povm_from(ideal_pnr_povm(cutoff6.max_photons, cutoff6.max_photons))
        p = joint_outcome_probabilities(state, click, click)
        pops = np.abs(state) ** 2
        vac_s = pops[0, :].sum()
        assert abs((p[1, 0] + p[1, 1]) - (pops.sum() - vac_s)) < 1e-12


class TestEfficiencyPovm:
    def test_unit_efficiency_is_ideal(self):
        a = efficiency_povm(1.0, 6, 6).theta
        b = ideal_pnr_povm(6, 6).theta
        assert np.max(np.abs(a - b)) < 1e-12

    def test_binomial_row(self):
        povm = efficiency_povm(0.5, 6, 6)
        assert np.allclose(povm.theta[2, :3], [0.25, 0.5, 0.25])

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            efficiency_povm(1.2, 6, 6)


class TestProbeMatrix:
    def test_vacuum_probe(self):
        C = coherent_probe_matrix([0.0], 5)
        assert C[0, 0] == 1.0
        assert C[0, 1:].sum() == 0.0

    def test_poisson_value(self):
        C = coherent_probe_matrix([1.0], 5)
        assert C[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_tail_deficit_visible_at_large_amplitude(self):
        # oracle for the Poisson mass beyond k_max: scipy.stats
        from scipy import stats

        deficit = stats.poisson.sf(9, 9.0)
        C = coherent_probe_matrix([9.0], 9)
        assert deficit > 0.1  # more than half the Poisson mass can be above 9
        assert C[0].sum() == pytest.approx(1.0 - deficit, abs=1e-12)

    def test_negative_amplitude_rejected(self):
        # and a non-finite one, on which np.linalg.cond(C) would fail; a
        # probe set refuses the same intensities
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ConfigError):
                coherent_probe_matrix([1.0, bad], 5)
            with pytest.raises(ConfigError):
                ProbeSet((1.0, bad), 100)

    def test_bit_identical_to_scipy_stats_poisson(self):
        # oracle: scipy.stats, which the package no longer imports. Up to
        # k = 12 scipy's gammaln(k + 1) is log k! to the bit; from k = 13 on
        # it is a Stirling series, so there the two agree to rounding only
        from scipy import stats

        rng = np.random.default_rng(5)
        alpha_sq = np.concatenate([[0.0], rng.uniform(0.0, 40.0, 200), dense_probe_ladder(9)])
        for k_max in (0, 3, 9, 12, 20):
            ks = np.arange(k_max + 1)[None, :]
            want = stats.poisson.pmf(ks, alpha_sq[:, None])
            got = coherent_probe_matrix(alpha_sq, k_max)
            if k_max <= 12:
                assert np.array_equal(got, want)
            else:
                pos = want > 0
                assert np.array_equal(got > 0, pos)
                assert np.max(np.abs(got[pos] - want[pos]) / want[pos]) <= 2e-14

    def test_default_ladder_identifiable_for_ten_outcomes(self):
        ladder = default_probe_ladder()
        assert len(ladder) >= 10
        assert len(set(ladder)) == len(ladder)


class TestTomography:
    def test_noiseless_ideal_pnr_recovery(self):
        truth = ideal_pnr_povm(9, 9)
        probes = ProbeSet(default_probe_ladder(), 10**6)
        resp = simulate_response(truth, probes)
        C = coherent_probe_matrix(probes.alpha_sq, truth.k_max)
        povm, diag = tomography_mle(resp, C)
        assert np.max(np.abs(povm.theta - truth.theta)) < 1e-6
        assert diag.converged
        assert diag.start == "least-squares"

    def test_noisy_binomial_recovery(self):
        # criterion 6's noisy draw: the run starts from the uniform POVM and
        # is the run an explicit uniform theta0 gives, byte for byte
        truth = efficiency_povm(0.9, 9, 9)
        probes = ProbeSet(dense_probe_ladder(9), 10**6)
        rng = np.random.default_rng(7)
        resp = simulate_response(truth, probes, rng)
        C = coherent_probe_matrix(probes.alpha_sq, truth.k_max)
        povm, diag = tomography_mle(resp, C, tol=1e-9, max_iter=300_000)
        assert np.max(np.abs(povm.theta - truth.theta)) < 1e-2
        assert diag.start == "uniform"
        uniform = np.full(truth.theta.shape, 1.0 / truth.n_outcomes)
        ref, ref_diag = tomography_mle(resp, C, tol=1e-9, max_iter=300_000, theta0=uniform)
        assert ref_diag.start == "given"
        assert povm.theta.tobytes() == ref.theta.tobytes()
        assert diag.ll_trace.tobytes() == ref_diag.ll_trace.tobytes()
        assert diag.grad_norm == ref_diag.grad_norm

    def test_given_theta0_is_the_start(self, monkeypatch):
        truth = efficiency_povm(0.8, 4, 4)
        probes = ProbeSet(default_probe_ladder(10), 10**5)
        resp = simulate_response(truth, probes)
        C = coherent_probe_matrix(probes.alpha_sq, truth.k_max)
        theta0 = np.random.default_rng(2).random((5, 5))
        theta0 /= theta0.sum(axis=1, keepdims=True)
        before = theta0.copy()
        seen = []
        original = detectors._em_fixed_point

        def recording(counts, C, start, tol, max_iter):
            seen.append(np.array(start))
            return original(counts, C, start, tol, max_iter)

        monkeypatch.setattr(detectors, "_em_fixed_point", recording)
        _, diag = tomography_mle(resp, C, theta0=theta0)
        assert diag.start == "given"
        assert len(seen) == 1
        assert np.array_equal(seen[0], before)
        assert np.array_equal(theta0, before)

    def test_rank_deficient_probe_matrix_raises(self):
        # three probes cannot resolve four photon-number rows
        truth = efficiency_povm(0.8, 1, 3)
        probes = ProbeSet((0.5, 1.0, 2.0), 10**4)
        resp = simulate_response(truth, probes)
        C = coherent_probe_matrix(probes.alpha_sq, truth.k_max)
        assert np.linalg.matrix_rank(C) < truth.k_max + 1
        with pytest.raises(IdentifiabilityError, match="column-rank deficient"):
            tomography_mle(resp, C)

    def test_log_likelihood_monotone(self):
        truth = efficiency_povm(0.8, 6, 6)
        probes = ProbeSet(default_probe_ladder(10), 10**5)
        resp = simulate_response(truth, probes, np.random.default_rng(5))
        C = coherent_probe_matrix(probes.alpha_sq, truth.k_max)
        _, diag = tomography_mle(resp, C, tol=1e-8, max_iter=2000)
        assert np.all(np.diff(diag.ll_trace) >= -1e-9)

    @pytest.mark.parametrize(
        "truth, probes, seed, start",
        [
            (efficiency_povm(0.9, 9, 9), ProbeSet(dense_probe_ladder(9), 10**6), None,
             "least-squares"),
            (ideal_pnr_povm(9, 9), ProbeSet(default_probe_ladder(), 10**6), None, "uniform"),
            (efficiency_povm(0.9, 3, 3), ProbeSet(tuple(np.linspace(0.25, 12, 24)), 10**5), 3,
             "uniform"),
        ],
        ids=["noiseless-binomial", "noiseless-pnr", "noisy-kmax3"],
    )
    def test_trace_non_decreasing_exactly(self, truth, probes, seed, start):
        # from these starts the EM reaches an iterate whose log-likelihood is
        # a rounding-level step (-2.4e-7, -3.7e-9, -9.3e-10) below the
        # current one; the run must keep the current iterate and stop
        rng = None if seed is None else np.random.default_rng(seed)
        resp = simulate_response(truth, probes, rng)
        C = coherent_probe_matrix(probes.alpha_sq, truth.k_max)
        if start == "uniform":
            theta0 = np.full(truth.theta.shape, 1.0 / truth.n_outcomes)
            _, diag = tomography_mle(resp, C, theta0=theta0)
        else:
            _, diag = tomography_mle(resp, C)
            assert diag.start == start
        assert diag.converged
        assert np.all(np.diff(diag.ll_trace) >= 0.0)
        assert diag.ll_gain >= 0.0

    def test_error_decreases_with_shots(self):
        truth = efficiency_povm(0.9, 6, 6)
        errs = []
        for shots in (10**4, 10**6):
            probes = ProbeSet(default_probe_ladder(12), shots)
            resp = simulate_response(truth, probes, np.random.default_rng(99))
            C = coherent_probe_matrix(probes.alpha_sq, truth.k_max)
            povm, _ = tomography_mle(resp, C, tol=1e-9)
            errs.append(np.max(np.abs(povm.theta - truth.theta)))
        assert errs[1] < errs[0]

    def test_bad_em_settings_raise_config_error(self):
        truth = efficiency_povm(0.8, 3, 3)
        probes = ProbeSet(default_probe_ladder(8), 10**4)
        resp = simulate_response(truth, probes)
        C = coherent_probe_matrix(probes.alpha_sq, truth.k_max)
        for kwargs, field in (
            ({"max_iter": 0}, "max-iter"),
            ({"max_iter": -3}, "max-iter"),
            ({"max_iter": 2.5}, "max-iter"),
            ({"tol": math.nan}, "tol"),
            ({"tol": -1.0}, "tol"),
            ({"tol": math.inf}, "tol"),
        ):
            with pytest.raises(ConfigError, match=f"\\(field: {field}\\)"):
                tomography_mle(resp, C, **kwargs)
        with pytest.warns(RuntimeWarning, match="max_iter=1 "):
            _, diag = tomography_mle(resp, C, tol=0.0, max_iter=1)
        assert diag.iterations == 1

    @pytest.mark.parametrize("seed, violated", [(0, True), (1, False)])
    def test_kkt_at_zero_is_the_largest_relative_violation_at_a_zero(self, seed, violated):
        # noisy ideal-PNR counts from the uniform start: the multiplicative
        # updates drive entries off the diagonal to exact zero; with seed 0
        # the likelihood would rise by moving mass onto one of them, with
        # seed 1 onto none
        truth = ideal_pnr_povm(4, 4)
        probes = ProbeSet(default_probe_ladder(12), 10**5)
        resp = simulate_response(truth, probes, np.random.default_rng(seed))
        C = coherent_probe_matrix(probes.alpha_sq, truth.k_max)
        povm, diag = tomography_mle(resp, C)
        theta = povm.theta
        G = C.T @ (resp.counts / (C @ theta))
        lam = (G * theta).sum(axis=1)
        zeros = list(zip(*np.nonzero(theta == 0.0)))
        assert zeros
        want = max(max(G[k, n] - lam[k], 0.0) / lam[k] for k, n in zeros)
        assert (want > 0.0) == violated
        assert diag.kkt_at_zero == pytest.approx(want, rel=1e-9, abs=1e-15)

    def test_kkt_at_zero_without_zero_entries(self):
        # the least-squares start floors every entry at 1e-12
        probes = ProbeSet(default_probe_ladder(8), 10**4)
        povm, diag = tomography_mle(
            simulate_response(efficiency_povm(0.8, 3, 3), probes),
            coherent_probe_matrix(probes.alpha_sq, 3),
        )
        assert diag.start == "least-squares"
        assert povm.theta.min() > 0.0
        assert diag.kkt_at_zero == 0.0

    def test_single_probe_identifiability_failure(self):
        R = np.zeros((1, 3))
        R[0, 0] = 1.0
        resp = ResponseMatrix(R, 1000)
        C = coherent_probe_matrix([0.5], 2)
        with pytest.raises(IdentifiabilityError):
            tomography_mle(resp, C)


def _random_em_problem(seed=0, M=12, K=6, N=6):
    rng = np.random.default_rng(seed)
    C = rng.random((M, K))
    theta = rng.random((K, N))
    theta /= theta.sum(axis=1, keepdims=True)
    counts = rng.integers(0, 500, size=(M, N)).astype(float)
    return counts, C, theta


_TINY = np.finfo(float).tiny


def _unflushed_em_step(counts, C, theta):
    """The EM step as it was before underflowed entries were set to 0.0."""
    P = C @ theta
    ratio = counts / np.maximum(P, detectors._LOG_FLOOR)
    new = theta * (C.T @ ratio)
    rows = new.sum(axis=1)
    rows[rows == 0.0] = 1.0
    return new / rows[:, None]


def _unflushed_project_simplex_rows(theta):
    theta = np.clip(theta, 0.0, None)
    rows = theta.sum(axis=1)
    rows[rows == 0.0] = 1.0
    return theta / rows[:, None]


def _n_subnormal(theta):
    return int(np.count_nonzero((theta > 0.0) & (theta < _TINY)))


class TestFixedPoint:
    def test_monotone_trace_on_noisy_data(self):
        counts, C, theta = _random_em_problem(5)
        _, trace, n_iter, _ = detectors._em_fixed_point(counts, C, theta, 1e-9, 2000)
        assert n_iter == trace.size
        assert np.all(np.diff(trace) >= -1e-9)

    def test_convergence_flag(self):
        counts, C, theta = _random_em_problem(6)
        _, _, _, converged = detectors._em_fixed_point(counts, C, theta, 1e-6, 5000)
        assert converged
        _, _, _, starved = detectors._em_fixed_point(counts, C, theta, 0.0, 2)
        assert not starved

    def test_max_iter_bounds_the_run_not_its_memory(self):
        # a trace of 10^13 float64 entries would take 80 TB
        counts, C, theta = _random_em_problem(6)
        _, trace, n_iter, converged = detectors._em_fixed_point(counts, C, theta, 1e-6, 10**13)
        assert converged
        assert trace.dtype == np.float64 and trace.size == n_iter

    def test_loglik_evaluated_at_most_twice_per_iteration(self, monkeypatch):
        # the log-likelihood of the kept iterate is the one the safeguard
        # already computed; only the initial point adds one more call
        counts, C, theta0 = _random_em_problem(7)
        calls = []
        original = detectors._em_loglik

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(detectors, "_em_loglik", counting)
        theta, trace, n_iter, _ = detectors._em_fixed_point(counts, C, theta0, 1e-9, 2000)
        assert n_iter > 1
        assert len(calls) <= 2 * n_iter + 1
        assert trace[-1] == original(counts, detectors._forward(C, theta))

    def test_em_step_and_projection_leave_no_subnormal_entry(self):
        counts, C, theta = _random_em_problem(8)
        theta[0, 0] = 5e-320
        theta[2, 3] = 1e-310
        theta[1, 4] = 1e-300  # normal: kept
        theta[4, 1] = -1e-3  # clipped by the projection
        positive = np.abs(theta)
        for flushed, oracle in (
            (detectors._em_step(counts, C, positive, detectors._forward(C, positive)),
             _unflushed_em_step(counts, C, positive)),
            (detectors._project_simplex_rows(theta), _unflushed_project_simplex_rows(theta)),
        ):
            assert _n_subnormal(oracle) > 0
            assert _n_subnormal(flushed) == 0
            normal = oracle >= _TINY
            assert 0.0 < flushed[1, 4] < 1e-290
            assert np.array_equal(flushed[normal], oracle[normal])
            assert np.all(flushed[~normal] == 0.0)

    def test_trace_bit_identical_to_unflushed_oracle(self, monkeypatch):
        # noisy ideal-PNR data from the uniform start: the multiplicative
        # updates drive the entries off the diagonal through the subnormal
        # range on their way to zero
        truth = ideal_pnr_povm(4, 4)
        probes = ProbeSet(default_probe_ladder(12), 10**5)
        counts = simulate_response(truth, probes, np.random.default_rng(1)).counts
        C = coherent_probe_matrix(probes.alpha_sq, truth.k_max)
        theta0 = np.full((5, 5), 0.2)
        theta, trace, n_iter, converged = detectors._em_fixed_point(
            counts, C, theta0, 1e-9, 20_000
        )

        oracle_subnormals = []

        def oracle_step(counts, C, theta, *_):
            out = _unflushed_em_step(counts, C, theta)
            oracle_subnormals.append(_n_subnormal(out))
            return out

        monkeypatch.setattr(detectors, "_em_step", oracle_step)
        monkeypatch.setattr(
            detectors, "_project_simplex_rows",
            lambda theta, out=None: _unflushed_project_simplex_rows(theta),
        )
        ref_theta, ref_trace, ref_n, ref_converged = detectors._em_fixed_point(
            counts, C, theta0, 1e-9, 20_000
        )
        assert sum(oracle_subnormals) > 0
        assert converged and ref_converged
        assert n_iter == ref_n
        assert trace.tobytes() == ref_trace.tobytes()
        normal = ref_theta >= _TINY
        assert np.array_equal(theta[normal], ref_theta[normal])
        assert np.all(theta[~normal] == 0.0)


# The EM loop as it was before it formed one forward product per iterate in
# work arrays: every helper allocates its result, and the step and the
# projection are the unflushed ones above followed by the subnormal flush.
# It records which branches and which exit a run took in `paths`, and
# computes nothing else differently.

def _flushed(theta):
    theta[theta < _TINY] = 0.0
    return theta


def _allocating_em_step(counts, C, theta):
    return _flushed(_unflushed_em_step(counts, C, theta))


def _allocating_em_loglik(counts, C, theta):
    P = C @ theta
    return float(np.sum(counts * np.log(np.maximum(P, 1e-300))))


def _allocating_project_simplex_rows(theta):
    return _flushed(_unflushed_project_simplex_rows(theta))


def _allocating_em_fixed_point(counts, C, theta0, tol, max_iter, paths):
    counts = np.ascontiguousarray(counts, dtype=np.float64)
    C = np.ascontiguousarray(C, dtype=np.float64)
    theta = np.ascontiguousarray(theta0, dtype=np.float64)
    ll_trace = np.empty(max_iter)
    ll_prev = _allocating_em_loglik(counts, C, theta)
    converged = False
    n_iter = 0
    for it in range(max_iter):
        t1 = _allocating_em_step(counts, C, theta)
        t2 = _allocating_em_step(counts, C, t1)
        r = t1 - theta
        v = (t2 - t1) - r
        vnorm = np.linalg.norm(v)
        if vnorm == 0.0:
            paths.add("v=0")
            nxt, ll = t2, _allocating_em_loglik(counts, C, t2)
        else:
            alpha = min(-np.linalg.norm(r) / vnorm, -1.0)
            cand = _allocating_project_simplex_rows(theta - 2.0 * alpha * r + alpha * alpha * v)
            cand = _allocating_em_step(counts, C, cand)
            ll_cand = _allocating_em_loglik(counts, C, cand)
            ll_t2 = _allocating_em_loglik(counts, C, t2)
            nxt, ll = (cand, ll_cand) if ll_cand >= ll_t2 else (t2, ll_t2)
        n_iter = it + 1
        if ll < ll_prev:
            paths.add("ll<ll_prev")
            ll_trace[it] = ll_prev
            converged = True
            break
        theta = nxt
        ll_trace[it] = ll
        if ll - ll_prev < tol:
            paths.add("gain<tol")
            converged = True
            break
        ll_prev = ll
    else:
        paths.add("max_iter")
    return theta, ll_trace[:n_iter], n_iter, converged


def _tomography_problem(seed):
    """A lossy-PNR POVM at k_max 3-9 probed by random intensities, with
    multinomial counts on odd seeds and exact frequencies on even ones."""
    rng = np.random.default_rng(seed)
    k_max = int(rng.integers(3, 10))
    n_max = int(rng.integers(1, k_max + 1))
    truth = efficiency_povm(float(rng.uniform(0.5, 1.0)), n_max, k_max)
    n_probes = int(rng.integers(2 * k_max + 2, 6 * k_max))
    probes = ProbeSet(tuple(np.sort(rng.uniform(0.1, 3.0 * k_max, n_probes))),
                      int(10 ** rng.integers(3, 7)))
    resp = simulate_response(truth, probes, rng if seed % 2 else None)
    return resp, coherent_probe_matrix(probes.alpha_sq, k_max), rng


class TestIteratesMatchAllocatingLoop:
    def test_bit_identical_on_random_problems(self, monkeypatch):
        # every problem runs from tomography_mle's own start (least squares
        # on exact frequencies, uniform on noisy counts), from a random
        # complete theta0, and from a one-hot theta0, a fixed point of the
        # multiplicative step where v = 0
        paths = set()
        starts = set()
        original = detectors._em_fixed_point

        def compared(counts, C, theta0, tol, max_iter):
            got = original(counts, C, theta0, tol, max_iter)
            want = _allocating_em_fixed_point(counts, C, theta0, tol, max_iter, paths)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            assert got[2:] == want[2:]
            return got

        monkeypatch.setattr(detectors, "_em_fixed_point", compared)
        # k_max 3-9; seed 24's least-squares run stops at an iterate below
        # the current one
        for seed in range(20, 28):
            resp, C, rng = _tomography_problem(seed)
            K, N = C.shape[1], resp.R.shape[1]
            random_start = rng.random((K, N))
            random_start /= random_start.sum(axis=1, keepdims=True)
            one_hot = np.eye(N)[rng.integers(0, N, K)]
            for theta0 in (None, random_start, one_hot):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    _, diag = tomography_mle(resp, C, tol=1e-9, max_iter=1000, theta0=theta0)
                starts.add(diag.start)
        assert starts == {"least-squares", "uniform", "given"}
        assert paths == {"v=0", "ll<ll_prev", "gain<tol", "max_iter"}


class TestProbeCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "probes.csv"
        alphas = [0.1, 0.5, 2.0]
        counts = np.array([[90, 9, 1], [60, 30, 10], [10, 30, 60]])
        write_probe_csv(path, alphas, counts)
        a2, c2 = read_probe_csv(path)
        assert np.allclose(a2, alphas)
        assert np.array_equal(c2, counts)

    def test_raw_simulated_counts_round_trip(self, tmp_path):
        # R * shots gives values such as 4999.999999999999; the writer must
        # round them, not truncate, so every probe keeps all of its shots
        probes = ProbeSet(dense_probe_ladder(5), 10**5)
        resp = simulate_response(efficiency_povm(0.9, 5, 5), probes, np.random.default_rng(1))
        assert np.any(resp.counts != np.rint(resp.counts))
        path = tmp_path / "probes.csv"
        write_probe_csv(path, probes.alpha_sq, resp.counts)
        alphas, counts = read_probe_csv(path)
        assert np.array_equal(alphas, sorted(probes.alpha_sq))
        assert np.array_equal(counts.sum(axis=1), np.full(len(alphas), 10**5))
        order = np.argsort(probes.alpha_sq, kind="stable")
        assert np.array_equal(counts, np.rint(resp.counts)[order])

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigError):
            read_probe_csv(path)


class TestPovmJson:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "povm.json"
        povm = efficiency_povm(0.85, 7, 9)
        povm.to_json(path)
        back = DetectorPovm.from_json(path)
        assert np.max(np.abs(back.theta - povm.theta)) < 1e-15
        assert back.labels == povm.labels

    def test_incomplete_povm_rejected(self):
        with pytest.raises(ConfigError):
            DetectorPovm(np.array([[0.5, 0.4], [0.0, 1.0]]))


class TestJointProbabilities:
    def test_vacuum(self, cutoff6):
        d = cutoff6.dim
        v = np.zeros((d, d))
        v[0, 0] = 1.0
        pnr = ideal_pnr_povm(d - 1, d - 1)
        p = joint_outcome_probabilities(v, pnr, pnr)
        assert p[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_tmsv_no_interferometer_pair_probability(self):
        # ideal PNR directly on the source: p(1,1) = (1 - z^2) z^2
        c = FockCutoff(6)
        z = 0.3
        state = tmsv_state(z, c)
        pnr = ideal_pnr_povm(c.max_photons, c.max_photons)
        p = joint_outcome_probabilities(state, pnr, pnr)
        assert p[1, 1] == pytest.approx((1 - z**2) * z**2, abs=1e-12)
        assert p[1, 0] == 0.0

    def test_marginal_consistency_with_partial_trace(self, cutoff6):
        d = cutoff6.dim
        state = tmsv_state(0.45, cutoff6)
        pnr = ideal_pnr_povm(d - 1, d - 1)
        p = joint_outcome_probabilities(state, pnr, pnr)
        marg = p.sum(axis=1)
        # oracle: the diagonal of the idler-traced density operator
        rho = np.outer(state.ravel(), state.ravel().conj()).reshape(d, d, d, d)
        red = np.einsum("aibi->ab", rho)
        assert np.max(np.abs(marg - np.real(np.diag(red)))) < 1e-12

    def test_small_povm_rejected(self, cutoff6):
        state = tmsv_state(0.2, cutoff6)
        small = ideal_pnr_povm(2, 2)
        with pytest.raises(ConfigError):
            joint_outcome_probabilities(state, small, small)
