"""Fit the interferometer model to joint-count histograms, propagate the
squeezing uncertainty to the SNL, and bootstrap confidence bands."""

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .detectors import DetectorPovm
from .errors import ConfigError, IdentifiabilityError, NonConvergenceError
from .fock import FockCutoff
from .metrology import _sliced_thetas, outcome_series
from .optics import (
    InterferometerConfig,
    InterferometerEngine,
    PairSectorMap,
    binomial_population_matrix,
    pair_distribution,
    pair_sector_map,
)

FREE_PARAM_NAMES = ("z", "eta_p_s", "eta_p_i", "eta_d_s", "eta_d_i")
Z_SEARCH_MAX = 0.9
_LOG_FLOOR = 1e-300


@dataclass
class CountHistogram:
    """Joint detector counts per phase setting."""

    phases: np.ndarray
    counts: np.ndarray  # (n_phases, n_out_s, n_out_i) nonnegative integers
    trials_per_phase: int

    def __post_init__(self):
        self.phases = np.asarray(self.phases, dtype=float)
        self.counts = np.asarray(self.counts)
        if self.counts.ndim != 3 or self.counts.shape[0] != self.phases.size:
            raise ConfigError("counts must be (n_phases, n_out_s, n_out_i)")
        if (self.counts < 0).any():
            raise ConfigError("counts must be nonnegative")
        sums = self.counts.reshape(self.phases.size, -1).sum(axis=1)
        if (sums > self.trials_per_phase).any():
            raise ConfigError("per-phase counts exceed trials_per_phase")

    def is_strict(self) -> bool:
        sums = self.counts.reshape(self.phases.size, -1).sum(axis=1)
        return bool((sums == self.trials_per_phase).all())

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(f"# trials_per_phase={self.trials_per_phase}\n")
            fh.write("phase_rad,j,k,count\n")
            for p, th in enumerate(self.phases):
                for j in range(self.counts.shape[1]):
                    for k in range(self.counts.shape[2]):
                        fh.write(f"{float(th)!r},{j},{k},{int(self.counts[p, j, k])}\n")

    @classmethod
    def from_csv(cls, path) -> "CountHistogram":
        trials = None
        rows = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    key, _, val = line.lstrip("# ").partition("=")
                    if key.strip() == "trials_per_phase":
                        trials = int(val)
                    continue
                if line.startswith("phase_rad"):
                    continue
                th, j, k, c = line.split(",")
                rows.append((float(th), int(j), int(k), int(c)))
        if trials is None:
            raise ConfigError("counts CSV is missing the '# trials_per_phase=N' header")
        if not rows:
            raise ConfigError("counts CSV contains no data rows")
        phases = sorted({r[0] for r in rows})
        pidx = {p: i for i, p in enumerate(phases)}
        nj = max(r[1] for r in rows) + 1
        nk = max(r[2] for r in rows) + 1
        counts = np.zeros((len(phases), nj, nk), dtype=np.int64)
        for th, j, k, c in rows:
            counts[pidx[th], j, k] += c
        return cls(np.asarray(phases), counts, trials)


def simulate_counts(
    config: InterferometerConfig,
    povm_s: DetectorPovm,
    povm_i: DetectorPovm,
    phases,
    trials_per_phase: int,
    seed,
) -> CountHistogram:
    """Multinomial synthetic counts from the model's joint outcome probabilities."""
    rng = np.random.default_rng(seed)
    phases = np.asarray(phases, dtype=float)
    eng = InterferometerEngine(config.squeezing, config.loss, config.cutoff)
    probs = outcome_series(eng, povm_s, povm_i).values(phases)
    p = np.clip(probs.reshape(phases.size, -1), 0.0, None)
    # the truncation tail is redistributed; negligible at fit scales
    p /= p.sum(axis=1, keepdims=True)
    counts = rng.multinomial(trials_per_phase, p).reshape(probs.shape)
    return CountHistogram(phases, counts, trials_per_phase)


# ---------------------------------------------------------------------------
# Maximum-likelihood model fit
# ---------------------------------------------------------------------------

@dataclass
class FitResult:
    estimates: dict
    free_names: tuple
    covariance: np.ndarray
    stderr: dict
    n_bar_hat: float
    log_likelihood: float
    gof_chi2: float
    gof_dof: int
    converged: bool
    flags: list = field(default_factory=list)
    # Nelder-Mead diagnostics: {"nfev", "nit"} per start, and the winner's index
    starts: list = field(default_factory=list)
    best_start: int | None = None

    def to_json(self, path, extra=None):
        payload = {
            "estimates": {k: float(v) for k, v in self.estimates.items()},
            "free_parameters": list(self.free_names),
            "covariance": [[float(x) for x in row] for row in self.covariance],
            "stderr": {k: float(v) for k, v in self.stderr.items()},
            "n_bar_hat": float(self.n_bar_hat),
            "log_likelihood": float(self.log_likelihood),
            "gof_chi2": float(self.gof_chi2),
            "gof_dof": int(self.gof_dof),
            "converged": bool(self.converged),
            "flags": list(self.flags),
            "starts": [dict(s) for s in self.starts],
            "best_start": self.best_start,
        }
        if extra:
            payload.update(extra)
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")


def _logit(p, lo, hi):
    x = (p - lo) / (hi - lo)
    x = min(max(x, 1e-12), 1.0 - 1e-12)
    return math.log(x / (1.0 - x))


def _expit(t, lo, hi):
    return lo + (hi - lo) / (1.0 + math.exp(-t))


_BOUNDS = {
    "z": (0.0, Z_SEARCH_MAX),
    "eta_p_s": (0.0, 1.0),
    "eta_p_i": (0.0, 1.0),
    "eta_d_s": (0.0, 1.0),
    "eta_d_i": (0.0, 1.0),
}


def _model_probs(params: dict, phases, ths, thi, cutoff: FockCutoff):
    """Outcome probabilities (n_phases, n_j, n_k), clipped at 0, for natural parameters."""
    return _probs_on_map(
        pair_sector_map(cutoff.max_photons).at_phases(phases), params, ths, thi
    )


def _detection_sides(params: dict, ths, thi):
    """(left, right): each arm's detection binomial folded into its POVM slice."""
    d = ths.shape[0]
    left = ths.T @ binomial_population_matrix(params["eta_d_s"], d)
    right = binomial_population_matrix(params["eta_d_i"], d).T @ thi
    return left, right


def _probs_on_map(pair_map: PairSectorMap, params: dict, ths, thi, sides=None):
    """_model_probs with the pair-sector map already evaluated at the phases:
    the pair distribution, the fixed map, the detection binomials and the
    POVM slices. No engine and no density operator is built. sides, if
    given, is _detection_sides at params' detection efficiencies."""
    d = ths.shape[0]
    q = pair_distribution(params["z"], params["eta_p_s"], params["eta_p_i"], d)
    if sides is None:
        sides = _detection_sides(params, ths, thi)
    left, right = sides
    return np.clip(left @ pair_map.apply(q) @ right, 0.0, None)


def _default_exclusion_mask(n_j: int, n_k: int, include_single_photon: bool):
    """Cells entering the fit objective; single-photon cells (0,1)/(1,0) are
    dropped by default (black-body contamination is outside the model)."""
    mask = np.ones((n_j, n_k), dtype=bool)
    if not include_single_photon:
        if n_k > 1:
            mask[0, 1] = False
        if n_j > 1:
            mask[1, 0] = False
    return mask


def fit_model(
    hist: CountHistogram,
    povm_s: DetectorPovm,
    povm_i: DetectorPovm,
    cutoff: FockCutoff,
    *,
    free: tuple = ("z", "eta_p_s", "eta_p_i"),
    fixed: dict | None = None,
    include_single_photon: bool = False,
    n_starts: int = 8,
    seed: int = 0,
    maxiter: int = 4000,
) -> FitResult:
    """Maximum-likelihood fit of (z, losses) to a joint-count histogram.

    The objective is the conditional multinomial likelihood over the included
    outcome cells. The outcome probabilities are a fixed linear map of the pair
    distribution at the histogram's phases (pair_sector_map), so each
    evaluation costs a few small matrix products and builds no engine.
    Detector POVMs are taken as known (tomography-calibrated);
    freeing eta_d alongside eta_p is allowed but warned as weakly identifiable.
    """
    # imported here, not at module level: it is most of a CLI start's import
    # time, and only fit and bootstrap use it
    from scipy import optimize

    if hist.phases.size < 2:
        warnings.warn(
            "fewer than 2 phase settings: z and losses are not jointly identifiable",
            RuntimeWarning,
        )
    if hist.counts.sum() == 0:
        raise ConfigError("histogram contains no counts")
    fixed = dict(fixed or {})
    for name in free:
        if name not in FREE_PARAM_NAMES:
            raise ConfigError(f"unknown free parameter {name!r}")
    flags = []
    eta_d_free = bool({"eta_d_s", "eta_d_i"} & set(free))
    if eta_d_free:
        warnings.warn(
            "freeing detection losses alongside preparation losses is weakly "
            "identifiable; covariance is flagged",
            RuntimeWarning,
        )
        flags.append("weak-identifiability:eta_d-free")
    defaults = {"z": 0.05, "eta_p_s": 1.0, "eta_p_i": 1.0, "eta_d_s": 1.0, "eta_d_i": 1.0}
    base = {**defaults, **fixed}

    ths, thi = _sliced_thetas(povm_s, povm_i, cutoff.dim)
    nj, nk = ths.shape[1], thi.shape[1]
    if hist.counts.shape[1] > nj or hist.counts.shape[2] > nk:
        raise ConfigError("histogram outcomes exceed the POVMs' outcome counts")
    counts = np.zeros((hist.phases.size, nj, nk))
    counts[:, : hist.counts.shape[1], : hist.counts.shape[2]] = hist.counts
    mask = _default_exclusion_mask(nj, nk, include_single_photon)
    cmask = counts[:, mask]  # (phases, included cells)
    n_inc = cmask.sum(axis=1)
    # The search objective is built from per-phase frequencies and phase
    # weights, not raw counts. Integer count scaling (x10, x100, ...) is exact
    # in float64, and the correctly rounded quotients (10c)/(10n) and c/n
    # coincide bitwise, so the optimizer trajectory -- hence the point
    # estimate -- is bit-identical under uniform count rescaling.
    ll_scale = float(max(n_inc.sum(), 1.0))
    freq = cmask / np.maximum(n_inc[:, None], 1.0)
    phase_w = n_inc / ll_scale
    pair_map = pair_sector_map(cutoff.max_photons).at_phases(hist.phases)
    # with both detection efficiencies fixed, every evaluation shares them
    sides = None if eta_d_free else _detection_sides(base, ths, thi)

    def neg_ll(params: dict) -> float:
        pm = _probs_on_map(pair_map, params, ths, thi, sides)[:, mask]
        norm = pm.sum(axis=1)
        return -float(
            np.sum(phase_w[:, None] * freq * np.log(np.maximum(pm, _LOG_FLOOR)))
            - np.sum(phase_w * np.log(np.maximum(norm, _LOG_FLOOR)))
        )

    def neg_ll_from_vec(x):
        params = dict(base)
        for name, t in zip(free, x):
            lo, hi = _BOUNDS[name]
            params[name] = _expit(t, lo, hi)
        return neg_ll(params)

    rng = np.random.default_rng(seed)
    starts = []
    for s in range(n_starts):
        x0 = []
        for name in free:
            lo, hi = _BOUNDS[name]
            if name == "z":
                val = 10.0 ** rng.uniform(-2.3, -0.5) * Z_SEARCH_MAX
            else:
                val = rng.uniform(0.5, 0.99)
            x0.append(_logit(val, lo, hi))
        starts.append(np.asarray(x0))

    best = None
    best_start = None
    any_converged = False
    diagnostics = []
    for index, x0 in enumerate(starts):
        res = optimize.minimize(
            neg_ll_from_vec,
            x0,
            method="Nelder-Mead",
            options={"maxiter": maxiter, "xatol": 1e-9, "fatol": 1e-10},
        )
        diagnostics.append({"nfev": int(res.nfev), "nit": int(res.nit)})
        any_converged = any_converged or bool(res.success)
        if best is None or res.fun < best.fun:
            best, best_start = res, index
    if best is None:
        raise NonConvergenceError("no optimizer start produced a result")
    if not any_converged:
        flags.append("no-start-converged")

    estimates = dict(base)
    for name, t in zip(free, best.x):
        lo, hi = _BOUNDS[name]
        estimates[name] = _expit(t, lo, hi)
    if estimates["z"] < 1e-6:
        flags.append("z-at-boundary")
        warnings.warn("fitted z is at the lower boundary", RuntimeWarning)

    cov, cov_flags = _observed_information_covariance(
        estimates, free, base, lambda params: ll_scale * neg_ll(params)
    )
    flags.extend(cov_flags)
    stderr = {
        name: float(math.sqrt(max(cov[i, i], 0.0))) for i, name in enumerate(free)
    }
    ll_hat = -float(best.fun) * ll_scale
    chi2, dof = _pearson_gof(
        _probs_on_map(pair_map, estimates, ths, thi, sides)[:, mask], cmask, len(free)
    )
    z_hat = estimates["z"]
    return FitResult(
        estimates=estimates,
        free_names=tuple(free),
        covariance=cov,
        stderr=stderr,
        n_bar_hat=2.0 * z_hat**2 / (1.0 - z_hat**2),
        log_likelihood=ll_hat,
        gof_chi2=chi2,
        gof_dof=dof,
        converged=any_converged,
        flags=flags,
        starts=diagnostics,
        best_start=best_start,
    )


def _observed_information_covariance(estimates, free, base, neg_ll_natural):
    """Finite-difference Hessian of the negative log-likelihood at the optimum."""
    k = len(free)
    x = np.array([estimates[name] for name in free])
    h = np.maximum(1e-4 * np.maximum(np.abs(x), 1e-2), 1e-6)
    # keep steps inside the parameter bounds
    for i, name in enumerate(free):
        lo, hi = _BOUNDS[name]
        h[i] = min(h[i], 0.49 * max(x[i] - lo, 1e-9), 0.49 * max(hi - x[i], 1e-9))

    def f(v):
        params = dict(base)
        for name, val in zip(free, v):
            lo, hi = _BOUNDS[name]
            # boundary estimates leave less than the step floor of headroom;
            # clipping keeps the evaluation inside the parameter domain (the
            # resulting one-sided curvature is flagged as ill-conditioned)
            params[name] = min(max(val, lo), hi)
        return neg_ll_natural(params)

    f0 = f(x)
    H = np.empty((k, k))
    for i in range(k):
        ei = np.zeros(k)
        ei[i] = h[i]
        fpp = f(x + ei)
        fmm = f(x - ei)
        H[i, i] = (fpp - 2 * f0 + fmm) / h[i] ** 2
        for j in range(i + 1, k):
            ej = np.zeros(k)
            ej[j] = h[j]
            H[i, j] = H[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4 * h[i] * h[j])
    flags = []
    eig = np.linalg.eigvalsh(0.5 * (H + H.T))
    if eig.min() <= 0 or eig.max() / max(eig.min(), 1e-300) > 1e12:
        flags.append("covariance-flagged:ill-conditioned-information")
        warnings.warn("observed information is ill-conditioned; covariance flagged", RuntimeWarning)
    cov = np.linalg.pinv(0.5 * (H + H.T))
    return cov, flags


def _pearson_gof(pm, cm, n_free: int):
    """Pearson chi^2 of included-cell counts cm (phases, cells) against model
    probabilities pm, renormalised per phase. Degrees of freedom: kept cells
    minus one normalisation per phase minus the free parameters."""
    pm = pm / pm.sum(axis=1, keepdims=True)
    n_inc = cm.sum(axis=1, keepdims=True)
    expected = n_inc * pm
    keep = expected > 1e-9
    chi2 = float(np.sum((cm[keep] - expected[keep]) ** 2 / expected[keep]))
    dof = int(keep.sum() - cm.shape[0] - n_free)
    return chi2, max(dof, 1)


# ---------------------------------------------------------------------------
# Bootstrap
# ---------------------------------------------------------------------------

def bootstrap_ci(
    hist: CountHistogram,
    pipeline,
    resamples: int,
    level: float = 0.95,
    seed=None,
) -> dict:
    """Percentile confidence band for pipeline(hist) under multinomial resampling.

    pipeline maps a CountHistogram to a 1-D statistic vector. Resamples draw
    fresh multinomial counts per phase at fixed trials_per_phase. Deterministic
    for a given seed.
    """
    if resamples < 100:
        raise ConfigError(f"resamples must be >= 100, got {resamples}")
    if not (0.0 < level < 1.0):
        raise ConfigError(f"level must be in (0, 1), got {level}")
    flat = hist.counts.reshape(hist.phases.size, -1)
    totals = flat.sum(axis=1)
    probs = flat / np.maximum(totals[:, None], 1)
    children = np.random.SeedSequence(seed).spawn(resamples)

    def one(child):
        rng = np.random.default_rng(child)
        new = np.stack(
            [rng.multinomial(int(totals[p]), probs[p]) for p in range(hist.phases.size)]
        ).reshape(hist.counts.shape)
        return np.asarray(
            pipeline(CountHistogram(hist.phases, new, hist.trials_per_phase)), dtype=float
        )

    stat = np.stack([one(c) for c in children])
    alpha = 100.0 * (1.0 - level) / 2.0
    lo = np.percentile(stat, alpha, axis=0)
    hi = np.percentile(stat, 100.0 - alpha, axis=0)
    return {"lo": lo, "hi": hi, "samples": stat, "level": level}


def snl_with_uncertainty(fit: FitResult, level: float = 0.95) -> tuple:
    """Delta-method interval for the SNL = n_bar(z_hat); clamped at 0."""
    if fit.covariance is None or "z" not in fit.free_names:
        raise ConfigError("fit result carries no z covariance")
    i = fit.free_names.index("z")
    var_z = max(float(fit.covariance[i, i]), 0.0)
    z = fit.estimates["z"]
    dn_dz = 4.0 * z / (1.0 - z**2) ** 2
    half = special.ndtri(0.5 + level / 2.0) * math.sqrt(var_z) * abs(dn_dz)
    n_bar = fit.n_bar_hat
    return n_bar, (max(n_bar - half, 0.0), n_bar + half)
