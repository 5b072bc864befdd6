"""Hot numeric kernels with optional numba JIT.

Set the environment variable TMSVFISHER_NO_NUMBA=1 to force the pure-numpy
fallbacks (useful for debugging and for the benchmark in benchmarks/).
Dense BLAS/LAPACK work (matmul, eigh) stays in numpy either way; the kernels
here are the iteration-bound loops where per-call numpy overhead dominates.
"""

import os

import numpy as np

_DISABLED = os.environ.get("TMSVFISHER_NO_NUMBA", "0").lower() in ("1", "true", "yes")

if not _DISABLED:
    try:
        from numba import njit

        HAVE_NUMBA = True
    except ImportError:  # pragma: no cover
        HAVE_NUMBA = False
else:
    HAVE_NUMBA = False

_LOG_FLOOR = 1e-300


# ---------------------------------------------------------------------------
# EM fixed point for detector-tomography MLE
# ---------------------------------------------------------------------------

def em_step_numpy(counts, C, theta):
    """One multiplicative EM update; preserves nonnegativity and row sums."""
    P = C @ theta
    ratio = counts / np.maximum(P, _LOG_FLOOR)
    new = theta * (C.T @ ratio)
    rows = new.sum(axis=1)
    rows[rows == 0.0] = 1.0
    return new / rows[:, None]


def em_loglik_numpy(counts, C, theta):
    P = C @ theta
    return float(np.sum(counts * np.log(np.maximum(P, _LOG_FLOOR))))


if HAVE_NUMBA:

    @njit(cache=True)
    def _em_step_jit(counts, C, theta):
        M, N = counts.shape
        K = C.shape[1]
        P = np.empty((M, N))
        new = np.empty((K, N))
        for m in range(M):
            for n in range(N):
                acc = 0.0
                for k in range(K):
                    acc += C[m, k] * theta[k, n]
                if acc < _LOG_FLOOR:
                    acc = _LOG_FLOOR
                P[m, n] = acc
        for k in range(K):
            s = 0.0
            for n in range(N):
                acc = 0.0
                for m in range(M):
                    if counts[m, n] != 0.0:
                        acc += C[m, k] * counts[m, n] / P[m, n]
                new[k, n] = theta[k, n] * acc
                s += new[k, n]
            if s == 0.0:
                s = 1.0
            for n in range(N):
                new[k, n] /= s
        return new

    @njit(cache=True)
    def _em_loglik_jit(counts, C, theta):
        M, N = counts.shape
        K = C.shape[1]
        ll = 0.0
        for m in range(M):
            for n in range(N):
                if counts[m, n] != 0.0:
                    acc = 0.0
                    for k in range(K):
                        acc += C[m, k] * theta[k, n]
                    if acc < _LOG_FLOOR:
                        acc = _LOG_FLOOR
                    ll += counts[m, n] * np.log(acc)
        return ll

    def em_step_numba(counts, C, theta):
        return _em_step_jit(
            np.ascontiguousarray(counts, dtype=np.float64),
            np.ascontiguousarray(C, dtype=np.float64),
            np.ascontiguousarray(theta, dtype=np.float64),
        )

    def em_loglik_numba(counts, C, theta):
        return _em_loglik_jit(
            np.ascontiguousarray(counts, dtype=np.float64),
            np.ascontiguousarray(C, dtype=np.float64),
            np.ascontiguousarray(theta, dtype=np.float64),
        )

    em_step = em_step_numba
    em_loglik = em_loglik_numba
else:
    em_step_numba = None
    em_loglik_numba = None
    em_step = em_step_numpy
    em_loglik = em_loglik_numpy


def _project_simplex_rows(theta):
    theta = np.clip(theta, 0.0, None)
    rows = theta.sum(axis=1)
    rows[rows == 0.0] = 1.0
    return theta / rows[:, None]


def em_fixed_point(counts, C, theta0, tol, max_iter):
    """Monotone EM with SQUAREM extrapolation for the tomography likelihood.

    Each outer iteration takes two multiplicative EM steps, extrapolates along
    the implied direction (Varadhan-Roland step length), projects back onto
    the per-row simplex, and falls back to the plain double step whenever the
    extrapolation would lower the log-likelihood -- so the recorded trace is
    non-decreasing. Returns (theta, ll_trace, n_iter, converged).
    """
    counts = np.ascontiguousarray(counts, dtype=np.float64)
    C = np.ascontiguousarray(C, dtype=np.float64)
    theta = np.ascontiguousarray(theta0, dtype=np.float64)
    ll_trace = np.empty(max_iter)
    ll_prev = em_loglik(counts, C, theta)
    converged = False
    n_iter = 0
    for it in range(max_iter):
        t1 = em_step(counts, C, theta)
        t2 = em_step(counts, C, t1)
        r = t1 - theta
        v = (t2 - t1) - r
        vnorm = np.linalg.norm(v)
        if vnorm == 0.0:
            theta = t2
            ll = em_loglik(counts, C, theta)
        else:
            alpha = min(-np.linalg.norm(r) / vnorm, -1.0)
            cand = _project_simplex_rows(theta - 2.0 * alpha * r + alpha * alpha * v)
            # safeguard: one EM step from the extrapolant, accept if it helps
            cand = em_step(counts, C, cand)
            ll_cand = em_loglik(counts, C, cand)
            ll_t2 = em_loglik(counts, C, t2)
            theta, ll = (cand, ll_cand) if ll_cand >= ll_t2 else (t2, ll_t2)
        ll_trace[it] = ll
        n_iter = it + 1
        if ll - ll_prev < tol:
            converged = True
            break
        ll_prev = ll
    return theta, ll_trace[:n_iter], n_iter, converged


# ---------------------------------------------------------------------------
# Classical Fisher information accumulation
# ---------------------------------------------------------------------------

def cfi_rows(p, dp, p_floor, dp_floor):
    """Sum (dp)^2/p over outcomes with p > p_floor, for each row of a
    (rows, outcomes) batch such as one row per phase.

    Returns (fi per row, n_suspect) where n_suspect counts outcomes, over all
    rows, with p <= p_floor but |dp| > dp_floor (near-singular contributions
    that were skipped).
    """
    live = p > p_floor
    fi = np.sum(np.where(live, dp * dp / np.where(live, p, 1.0), 0.0), axis=1)
    n_suspect = int(np.count_nonzero(~live & (np.abs(dp) > dp_floor)))
    return fi, n_suspect


def cfi_terms_numpy(p, dp, p_floor, dp_floor):
    """cfi_rows for a single outcome distribution of any shape: (fi, n_suspect)."""
    fi, n_suspect = cfi_rows(p.reshape(1, -1), dp.reshape(1, -1), p_floor, dp_floor)
    return float(fi[0]), n_suspect


if HAVE_NUMBA:

    @njit(cache=True)
    def _cfi_terms_jit(p, dp, p_floor, dp_floor):
        fi = 0.0
        n_suspect = 0
        for i in range(p.size):
            if p[i] > p_floor:
                fi += dp[i] * dp[i] / p[i]
            elif abs(dp[i]) > dp_floor:
                n_suspect += 1
        return fi, n_suspect

    def cfi_terms_numba(p, dp, p_floor, dp_floor):
        return _cfi_terms_jit(
            np.ascontiguousarray(p, dtype=np.float64).ravel(),
            np.ascontiguousarray(dp, dtype=np.float64).ravel(),
            p_floor,
            dp_floor,
        )

    cfi_terms = cfi_terms_numba
else:
    cfi_terms_numba = None
    cfi_terms = cfi_terms_numpy


# ---------------------------------------------------------------------------
# QFI spectral double sum
# ---------------------------------------------------------------------------

def qfi_sector_sum_numpy(lam, M, lam_floor):
    """2 * sum_{a,b} |M_ab|^2 / (lam_a + lam_b) over pairs above lam_floor.

    lam: eigenvalues of rho; M: derivative matrix in the eigenbasis.
    """
    W = lam[:, None] + lam[None, :]
    mask = W > lam_floor
    return 2.0 * float(np.sum((np.abs(M) ** 2)[mask] / W[mask]))


if HAVE_NUMBA:

    @njit(cache=True)
    def _qfi_sector_sum_jit(lam, M, lam_floor):
        n = lam.size
        acc = 0.0
        for a in range(n):
            for b in range(n):
                w = lam[a] + lam[b]
                if w > lam_floor:
                    x = M[a, b]
                    acc += (x.real * x.real + x.imag * x.imag) / w
        return 2.0 * acc

    def qfi_sector_sum_numba(lam, M, lam_floor):
        return _qfi_sector_sum_jit(
            np.ascontiguousarray(lam, dtype=np.float64),
            np.ascontiguousarray(M, dtype=np.complex128),
            lam_floor,
        )

    qfi_sector_sum = qfi_sector_sum_numba
else:
    qfi_sector_sum_numba = None
    qfi_sector_sum = qfi_sector_sum_numpy
