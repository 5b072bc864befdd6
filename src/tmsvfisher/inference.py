"""Fit the interferometer model to joint-count histograms, propagate the
squeezing uncertainty to the SNL, and bootstrap confidence bands."""

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from .detectors import DetectorPovm, nonnegative_int, parse_csv_rows
from .errors import ConfigError
from .fock import FockCutoff
from .metrology import _sliced_thetas, outcome_series
from .optics import (
    InterferometerConfig,
    PairSectorMap,
    binomial_derivative,
    binomial_population_matrix,
    detection_sides,
    outcome_probabilities,
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
        """Read the format of to_csv. A data row with the wrong number of
        fields, a non-numeric phase, or an index or count that is not a
        nonnegative integer raises a ConfigError naming the field."""
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
                rows.append(line.split(","))
        if trials is None:
            raise ConfigError("counts CSV is missing the '# trials_per_phase=N' header")
        if not rows:
            raise ConfigError("counts CSV contains no data rows")
        th, j, k, c = parse_csv_rows("counts CSV", rows, _COUNT_FIELDS)
        phases, pidx = np.unique(th, return_inverse=True)
        counts = np.zeros((phases.size, j.max() + 1, k.max() + 1), dtype=np.int64)
        np.add.at(counts, (pidx, j, k), c)
        return cls(phases, counts, trials)


_COUNT_FIELDS = (
    ("phase_rad", float),
    ("j", nonnegative_int),
    ("k", nonnegative_int),
    ("count", nonnegative_int),
)


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
    probs = outcome_series(config, povm_s, povm_i).values(phases)
    p = np.clip(probs.reshape(phases.size, -1), 0.0, None)
    # the outcomes fall short of 1 by the mass the cutoff drops
    # (optics.truncation_mass); renormalising conditions the counts on
    # n_s + n_i <= M (docs/decisions.md, entry 8)
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
    # solver diagnostics per start, {"nfev": objective evaluations, "nit":
    # Fisher-scoring steps}, and the winner's index
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


def _from_logit(t, lo, hi):
    """Natural parameters at logit coordinates t, and the map's Jacobian
    (elementwise)."""
    e = np.exp(-t)
    s = 1.0 / (1.0 + e)
    # e * s is 1 - s, without cancellation as s -> 1
    return lo + (hi - lo) * s, (hi - lo) * s * (e * s)


_BOUNDS = {
    "z": (0.0, Z_SEARCH_MAX),
    "eta_p_s": (0.0, 1.0),
    "eta_p_i": (0.0, 1.0),
    "eta_d_s": (0.0, 1.0),
    "eta_d_i": (0.0, 1.0),
}
# Fisher scoring: the largest step in any logit coordinate, the Armijo
# fraction of the predicted decrease, and the predicted decrease of the
# frequency-form objective below which a start has converged (the objective
# itself rounds at about 1e-16 on criterion 7's fit)
_STEP_CAP = 4.0
_ARMIJO = 1e-4
_PRED_TOL = 1e-13


def _probs_and_derivatives(pair_map: PairSectorMap, params: dict, free, ths, thi, sides=None):
    """Outcome probabilities P (phases, n_j, n_k), clipped at 0, and their
    derivatives (len(free), phases, n_j, n_k) in the free natural parameters.

    P = outcome_probabilities(pair_map, q, left, right), with the pair-sector
    map already evaluated at the phases and
    q = B(eta_p_s) diag((1 - z^2) z^(2n)) B(eta_p_i)^T the pair distribution
    (pair_distribution); no engine and no density operator is built. A
    derivative in z or eta_p is that product on the derivative of q; one in
    eta_d swaps that arm's side for its derivative. sides, if given, is
    detection_sides at params' detection efficiencies.
    """
    d = ths.shape[0]
    n = np.arange(d)
    z = params["z"]
    b_s = binomial_population_matrix(params["eta_p_s"], d)
    b_i = binomial_population_matrix(params["eta_p_i"], d)
    pairs = (1.0 - z * z) * z ** (2 * n)
    if sides is None:
        sides = detection_sides(params["eta_d_s"], params["eta_d_i"], ths, thi)
    left, right, d_left, d_right = sides
    q = (b_s * pairs) @ b_i.T
    derivatives = []
    for name in free:
        if name == "eta_d_s":
            derivatives.append(outcome_probabilities(pair_map, q, d_left, right))
        elif name == "eta_d_i":
            derivatives.append(outcome_probabilities(pair_map, q, left, d_right))
        else:
            if name == "z":
                # d/dz (1 - z^2) z^(2n); the n = 0 term has no z^(2n - 1) part
                d_pairs = 2 * n * z ** np.maximum(2 * n - 1, 0) - (2 * n + 2) * z ** (2 * n + 1)
                dq = (b_s * d_pairs) @ b_i.T
            elif name == "eta_p_s":
                dq = (binomial_derivative(b_s) * pairs) @ b_i.T
            else:
                dq = (b_s * pairs) @ binomial_derivative(b_i).T
            derivatives.append(outcome_probabilities(pair_map, dq, left, right))
    probs = np.clip(outcome_probabilities(pair_map, q, left, right), 0.0, None)
    return probs, np.array(derivatives).reshape((len(free),) + probs.shape)


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


def _fewest_photons(theta: np.ndarray) -> np.ndarray:
    """Per outcome j of a POVM slice, the fewest photons that can produce it:
    the first row a with theta[a, j] > 0, or the slice's row count if none."""
    live = theta > 0
    return np.where(live.any(axis=0), live.argmax(axis=0), theta.shape[0])


class _FitObjective:
    """The fit objective in frequency form, with its exact gradient and its
    expected (Fisher) information in the free natural parameters.

    The value is -sum_p w_p [sum_c f_pc log P_pc - log N_p] over the included
    cells c, with f_pc the observed frequencies, w_p the phase's share of the
    included counts and N_p = sum_c P_pc: the conditional multinomial
    log-likelihood divided by the included count ll_scale. The information is
    sum_p (w_p / N_p) [sum_c dP_pc dP_pc^T / P_pc - dN_p dN_p^T / N_p], the
    expected information of the conditional multinomials over ll_scale.
    Integer count scaling (x10, x100, ...) is exact in float64, and the
    correctly rounded quotients (10c)/(10n) and c/n coincide bitwise, so all
    three, and hence the fit, are bit-identical under uniform count rescaling.
    """

    def __init__(self, hist, povm_s, povm_i, cutoff, free, base, include_single_photon):
        self.free = tuple(free)
        self.ths, self.thi = _sliced_thetas(povm_s, povm_i, cutoff.dim)
        nj, nk = self.ths.shape[1], self.thi.shape[1]
        if hist.counts.shape[1] > nj or hist.counts.shape[2] > nk:
            raise ConfigError("histogram outcomes exceed the POVMs' outcome counts")
        counts = np.zeros((hist.phases.size, nj, nk))
        counts[:, : hist.counts.shape[1], : hist.counts.shape[2]] = hist.counts
        # the model holds at most M photons, so a cell whose outcomes need
        # more has P = 0 exactly and its counts cannot be fitted
        fewest = np.add.outer(_fewest_photons(self.ths), _fewest_photons(self.thi))
        unreachable = (fewest > cutoff.max_photons) & (counts.sum(axis=0) > 0)
        if unreachable.any():
            j, k = np.argwhere(unreachable)[0]
            raise ConfigError(
                f"{int(counts[:, unreachable].sum())} counts fall in outcome cells, such as "
                f"({j}, {k}), that need more photons than cutoff {cutoff.max_photons} keeps "
                "(field: cutoff)"
            )
        self.mask = _default_exclusion_mask(nj, nk, include_single_photon)
        self.cmask = counts[:, self.mask]  # (phases, included cells)
        n_inc = self.cmask.sum(axis=1)
        self.ll_scale = float(max(n_inc.sum(), 1.0))
        self.freq = self.cmask / np.maximum(n_inc[:, None], 1.0)
        self.phase_w = n_inc / self.ll_scale
        self.pair_map = pair_sector_map(cutoff.max_photons).at_phases(hist.phases)
        # with both detection efficiencies fixed, every evaluation shares them
        self.sides = None
        if not {"eta_d_s", "eta_d_i"} & set(self.free):
            self.sides = detection_sides(base["eta_d_s"], base["eta_d_i"], self.ths, self.thi)

    def __call__(self, params: dict):
        """(value, gradient, information, included-cell probabilities) at params."""
        probs, d_probs = _probs_and_derivatives(
            self.pair_map, params, self.free, self.ths, self.thi, self.sides
        )
        pm = probs[:, self.mask]
        dpm = d_probs[:, :, self.mask]
        w = self.phase_w
        norm = np.maximum(pm.sum(axis=1), _LOG_FLOOR)
        value = -float(
            np.sum(w[:, None] * self.freq * np.log(np.maximum(pm, _LOG_FLOOR)))
            - np.sum(w * np.log(norm))
        )
        # a cell at the log floor is constant in the objective
        inv = np.divide(1.0, pm, out=np.zeros_like(pm), where=pm > _LOG_FLOOR)
        per_norm = w / norm
        d_norm = dpm.sum(axis=2)  # (free, phases)
        grad = d_norm @ per_norm - np.einsum("kpc,pc->k", dpm, w[:, None] * self.freq * inv)
        info = np.einsum("ipc,jpc->ij", dpm * (per_norm[:, None] * inv), dpm)
        info -= (d_norm * (per_norm / norm)) @ d_norm.T
        return value, grad, 0.5 * (info + info.T), pm


def _solve_psd(h, rhs):
    """Least-squares solution of h x = rhs for positive semidefinite h, after
    scaling h to unit diagonal; directions h cannot resolve get no step."""
    diag = np.diag(h)
    s = 1.0 / np.sqrt(np.where(diag > 0, diag, 1.0))
    return s * np.linalg.lstsq(s[:, None] * h * s, s * rhs, rcond=1e-12)[0]


def _fisher_scoring(objective: _FitObjective, base: dict, t, maxiter: int):
    """Damped Fisher scoring on the objective in logit coordinates t, from one
    start. Returns (natural free parameters, objective there, nfev, nit,
    converged); nit counts steps and nfev objective evaluations.

    Each step solves h dt = -J g, with g and F the objective's gradient and
    information in the natural parameters, J the logit map's Jacobian and
    h = J F J. The step is then halved until it gains an Armijo fraction of
    its predicted decrease -J g . dt. A start has converged once that
    predicted decrease, or the one of the step the halving has shrunk to, is
    below _PRED_TOL; it has not if maxiter steps run out.

    At a boundary optimum (phi -> lo or hi, t -> -inf or +inf) J -> 0. Where
    outcome cells vanish at the bound, J F J shrinks like J, as J g does, so
    the step in that coordinate tends to one logit unit and the predicted
    decrease falls by about e per step. Where none vanish, J F J shrinks like
    J^2 and the scoring step grows without bound, as it does along a
    direction the data barely determine yet. A step that leaves _STEP_CAP in
    some coordinate is therefore damped coordinate by coordinate, with
    |J g| / _STEP_CAP added to the diagonal of h: that takes such a
    coordinate about _STEP_CAP and leaves the others near their scoring
    step. The damped step is then capped.
    """
    free = objective.free
    lo = np.array([_BOUNDS[name][0] for name in free])
    hi = np.array([_BOUNDS[name][1] for name in free])

    def evaluate(t):
        phi, jac = _from_logit(t, lo, hi)
        return phi, jac, objective({**base, **dict(zip(free, phi.tolist()))})

    phi, jac, evaluation = evaluate(t)
    nfev = 1
    for nit in range(1, maxiter + 1):
        value, grad, info, _ = evaluation
        g = jac * grad
        h = jac[:, None] * info * jac
        step = _solve_psd(h, -g)
        if np.max(np.abs(step)) > _STEP_CAP:
            step = _solve_psd(h + np.diag(np.abs(g)) / _STEP_CAP, -g)
            step *= min(1.0, _STEP_CAP / np.max(np.abs(step)))
        pred = -float(g @ step)
        alpha = 1.0
        while True:
            trial = evaluate(t + alpha * step)
            nfev += 1
            if trial[2][0] <= value - _ARMIJO * alpha * pred:
                break
            alpha *= 0.5
            if alpha * pred <= _PRED_TOL:
                return phi, evaluation, nfev, nit, True
        t = t + alpha * step
        phi, jac, evaluation = trial
        if pred <= _PRED_TOL:
            return phi, evaluation, nfev, nit, True
    return phi, evaluation, nfev, maxiter, False


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
    outcome cells (_FitObjective). The outcome probabilities are a fixed
    linear map of the pair distribution at the histogram's phases
    (pair_sector_map), so each evaluation, with its exact gradient and
    expected information, costs a few small matrix products and builds no
    engine. Each of n_starts random starts runs at most maxiter Fisher-scoring
    steps (_fisher_scoring); the covariance is the inverse expected
    information at the best start's optimum.
    Detector POVMs are taken as known (tomography-calibrated);
    freeing eta_d alongside eta_p is allowed but warned as weakly identifiable.
    """
    if n_starts < 1:
        raise ConfigError(f"n_starts must be at least 1, got {n_starts} (field: starts)")
    if not free:
        raise ConfigError("no free parameter to fit (field: free)")
    for name in free:
        if name not in FREE_PARAM_NAMES:
            raise ConfigError(f"unknown free parameter {name!r} (field: free)")
    fixed = dict(fixed or {})
    for name, value in fixed.items():
        if name not in FREE_PARAM_NAMES:
            raise ConfigError(f"unknown fixed parameter {name!r} (field: fixed)")
        if name in free:
            raise ConfigError(f"{name!r} is both free and fixed (field: fixed)")
        lo, hi = _BOUNDS[name]
        try:
            fixed[name] = float(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"fixed {name} must be a number, got {value!r} (field: fixed)") from exc
        if not lo <= fixed[name] <= hi:
            raise ConfigError(f"fixed {name}={value!r} is outside [{lo}, {hi}] (field: fixed)")
    if hist.phases.size < 2:
        warnings.warn(
            "fewer than 2 phase settings: z and losses are not jointly identifiable",
            RuntimeWarning,
        )
    if hist.counts.sum() == 0:
        raise ConfigError("histogram contains no counts")
    flags = []
    if {"eta_d_s", "eta_d_i"} & set(free):
        warnings.warn(
            "freeing detection losses alongside preparation losses is weakly "
            "identifiable; covariance is flagged",
            RuntimeWarning,
        )
        flags.append("weak-identifiability:eta_d-free")
    defaults = {"z": 0.05, "eta_p_s": 1.0, "eta_p_i": 1.0, "eta_d_s": 1.0, "eta_d_i": 1.0}
    base = {**defaults, **fixed}
    objective = _FitObjective(hist, povm_s, povm_i, cutoff, free, base, include_single_photon)

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
        phi, evaluation, nfev, nit, converged = _fisher_scoring(objective, base, x0, maxiter)
        diagnostics.append({"nfev": nfev, "nit": nit})
        any_converged = any_converged or converged
        if best is None or evaluation[0] < best[1][0]:
            best, best_start = (phi, evaluation), index
    if not any_converged:
        flags.append("no-start-converged")

    phi, (value, _, info, pm) = best
    estimates = {**base, **dict(zip(free, phi.tolist()))}
    if estimates["z"] < 1e-6:
        flags.append("z-at-boundary")
        warnings.warn("fitted z is at the lower boundary", RuntimeWarning)

    info = objective.ll_scale * info
    eig = np.linalg.eigvalsh(info)
    if eig.min() <= 0 or eig.max() / max(eig.min(), 1e-300) > 1e12:
        flags.append("covariance-flagged:ill-conditioned-information")
        warnings.warn("expected information is ill-conditioned; covariance flagged", RuntimeWarning)
    cov = np.linalg.pinv(info)
    stderr = {
        name: float(math.sqrt(max(cov[i, i], 0.0))) for i, name in enumerate(free)
    }
    chi2, dof = _pearson_gof(pm, objective.cmask, len(free))
    z_hat = estimates["z"]
    return FitResult(
        estimates=estimates,
        free_names=tuple(free),
        covariance=cov,
        stderr=stderr,
        n_bar_hat=2.0 * z_hat**2 / (1.0 - z_hat**2),
        log_likelihood=-value * objective.ll_scale,
        gof_chi2=chi2,
        gof_dof=dof,
        converged=any_converged,
        flags=flags,
        starts=diagnostics,
        best_start=best_start,
    )


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
        raise ConfigError(f"resamples must be >= 100, got {resamples} (field: resamples)")
    if not (0.0 < level < 1.0):
        raise ConfigError(f"level must be in (0, 1), got {level} (field: level)")
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
    from statistics import NormalDist

    if fit.covariance is None or "z" not in fit.free_names:
        raise ConfigError("fit result carries no z covariance")
    i = fit.free_names.index("z")
    var_z = max(float(fit.covariance[i, i]), 0.0)
    z = fit.estimates["z"]
    dn_dz = 4.0 * z / (1.0 - z**2) ** 2
    half = NormalDist().inv_cdf(0.5 + level / 2.0) * math.sqrt(var_z) * abs(dn_dz)
    n_bar = fit.n_bar_hat
    return n_bar, (max(n_bar - half, 0.0), n_bar + half)
