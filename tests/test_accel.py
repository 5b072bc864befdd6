"""Numba-accelerated kernels agree with their pure-numpy fallbacks."""

import os
import subprocess
import sys

import numpy as np
import pytest

from tmsvfisher import _accel

needs_numba = pytest.mark.skipif(not _accel.HAVE_NUMBA, reason="numba unavailable")


def _random_em_problem(seed=0, M=12, K=6, N=6):
    rng = np.random.default_rng(seed)
    C = rng.random((M, K))
    theta = rng.random((K, N))
    theta /= theta.sum(axis=1, keepdims=True)
    counts = rng.integers(0, 500, size=(M, N)).astype(float)
    return counts, C, theta


class TestLaneAgreement:
    @needs_numba
    def test_em_step(self):
        counts, C, theta = _random_em_problem(1)
        a = _accel.em_step_numpy(counts, C, theta)
        b = _accel.em_step_numba(counts, C, theta)
        assert np.max(np.abs(a - b)) < 1e-13

    @needs_numba
    def test_em_loglik(self):
        counts, C, theta = _random_em_problem(2)
        a = _accel.em_loglik_numpy(counts, C, theta)
        b = _accel.em_loglik_numba(counts, C, theta)
        assert a == pytest.approx(b, rel=1e-13)

    @needs_numba
    def test_cfi_terms(self):
        rng = np.random.default_rng(3)
        p = rng.random(50)
        p[::7] = 0.0  # exercise the floor branch
        dp = rng.normal(size=50)
        a = _accel.cfi_terms_numpy(p, dp, 1e-15, 1e-12)
        b = _accel.cfi_terms_numba(p, dp, 1e-15, 1e-12)
        assert a[0] == pytest.approx(b[0], rel=1e-13)
        assert a[1] == b[1]

    @needs_numba
    def test_qfi_sector_sum(self):
        rng = np.random.default_rng(4)
        lam = np.abs(rng.random(8))
        lam[0] = 0.0
        lam /= lam.sum()
        M = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        a = _accel.qfi_sector_sum_numpy(lam, M, 1e-12)
        b = _accel.qfi_sector_sum_numba(lam, M, 1e-12)
        assert a == pytest.approx(b, rel=1e-12)


class TestFixedPoint:
    def test_monotone_trace_on_noisy_data(self):
        counts, C, theta = _random_em_problem(5)
        _, trace, n_iter, _ = _accel.em_fixed_point(counts, C, theta, 1e-9, 2000)
        assert n_iter == trace.size
        assert np.all(np.diff(trace) >= -1e-9)

    def test_convergence_flag(self):
        counts, C, theta = _random_em_problem(6)
        _, _, _, converged = _accel.em_fixed_point(counts, C, theta, 1e-6, 5000)
        assert converged
        _, _, _, starved = _accel.em_fixed_point(counts, C, theta, 0.0, 2)
        assert not starved

    def test_loglik_evaluated_at_most_twice_per_iteration(self, monkeypatch):
        # the log-likelihood of the kept iterate is the one the safeguard
        # already computed; only the initial point adds one more call
        counts, C, theta0 = _random_em_problem(7)
        calls = []
        original = _accel.em_loglik

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(_accel, "em_loglik", counting)
        theta, trace, n_iter, _ = _accel.em_fixed_point(counts, C, theta0, 1e-9, 2000)
        assert n_iter > 1
        assert len(calls) <= 2 * n_iter + 1
        assert trace[-1] == original(counts, C, theta)


class TestEnvironmentFlag:
    def test_no_numba_flag_selects_numpy_lane(self):
        code = (
            "from tmsvfisher import _accel; "
            "assert not _accel.HAVE_NUMBA; "
            "assert _accel.em_step is _accel.em_step_numpy; "
            "assert _accel.cfi_terms is _accel.cfi_terms_numpy; "
            "assert _accel.qfi_sector_sum is _accel.qfi_sector_sum_numpy; "
            "print('numpy-lane')"
        )
        env = dict(os.environ, TMSVFISHER_NO_NUMBA="1")
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert "numpy-lane" in out.stdout

    def test_full_pipeline_matches_across_lanes(self):
        code = (
            "import numpy as np; "
            "from tmsvfisher import *; "
            "from tmsvfisher.detectors import simulate_response, default_probe_ladder; "
            "truth = efficiency_povm(0.8, 5, 5); "
            "probes = ProbeSet(default_probe_ladder(12), 10**5); "
            "resp = simulate_response(truth, probes, np.random.default_rng(1)); "
            "C = coherent_probe_matrix(probes.alpha_sq, 5); "
            "povm, diag = tomography_mle(resp, C, tol=1e-9); "
            "print(repr(float(diag.log_likelihood)))"
        )
        outs = {}
        for flag in ("0", "1"):
            env = dict(os.environ, TMSVFISHER_NO_NUMBA=flag)
            res = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True
            )
            assert res.returncode == 0, res.stderr
            outs[flag] = float(res.stdout.strip())
        assert outs["0"] == pytest.approx(outs["1"], rel=1e-12)
