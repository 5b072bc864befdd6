"""Detector POVMs (diagonal in the Fock basis) and maximum-likelihood
tomography from coherent-state probe data.

A POVM is stored as the coefficient matrix theta[k, n] = probability that k
incident photons register as outcome n. Completeness: rows sum to 1.
"""

import csv
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, IdentifiabilityError
from .optics import binomial_population_matrix

COMPLETENESS_TOL = 1e-9
_WARM_FLOOR = 1e-300
_LOG_FLOOR = 1e-300
_TINY = np.finfo(float).tiny


@dataclass
class DetectorPovm:
    """Diagonal-in-Fock POVM: theta[k, n], k incident photons -> outcome n."""

    theta: np.ndarray
    labels: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        if self.theta.ndim != 2:
            raise ConfigError("theta must be a (k_max+1, n_outcomes) matrix")
        if not self.labels:
            self.labels = [str(n) for n in range(self.theta.shape[1])]
        if len(self.labels) != self.theta.shape[1]:
            raise ConfigError("label count does not match outcome count")
        self.validate()

    def validate(self):
        if self.theta.min() < -COMPLETENESS_TOL or self.theta.max() > 1.0 + COMPLETENESS_TOL:
            raise ConfigError("POVM coefficients must lie in [0, 1]")
        rows = self.theta.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > COMPLETENESS_TOL:
            raise ConfigError(
                f"POVM completeness violated: max row-sum deviation {np.max(np.abs(rows-1)):.3e}"
            )

    @property
    def k_max(self) -> int:
        return self.theta.shape[0] - 1

    @property
    def n_outcomes(self) -> int:
        return self.theta.shape[1]

    def to_json(self, path):
        payload = {
            "k_max": self.k_max,
            "outcomes": self.labels,
            "theta": [[float(x) for x in row] for row in self.theta],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")

    @classmethod
    def from_json(cls, path) -> "DetectorPovm":
        with open(path) as fh:
            payload = json.load(fh)
        return cls(np.asarray(payload["theta"], dtype=float), list(payload["outcomes"]))


def ideal_pnr_povm(n_max: int, k_max: int) -> DetectorPovm:
    """Perfect photon-number resolution with a saturation bucket at outcome n_max."""
    if n_max > k_max:
        raise ConfigError(f"n_max ({n_max}) must be <= k_max ({k_max})")
    theta = np.zeros((k_max + 1, n_max + 1))
    for k in range(k_max + 1):
        theta[k, min(k, n_max)] = 1.0
    return DetectorPovm(theta)


def efficiency_povm(eta: float, n_max: int, k_max: int) -> DetectorPovm:
    """Binomial-loss PNR detector: theta[k, n] = C(k, n) eta^n (1-eta)^(k-n),
    with outcomes >= n_max folded into the saturation bucket."""
    if not (0.0 <= eta <= 1.0):
        raise ConfigError(f"efficiency must be in [0, 1], got {eta}")
    if n_max > k_max:
        raise ConfigError(f"n_max ({n_max}) must be <= k_max ({k_max})")
    full = binomial_population_matrix(eta, k_max + 1).T
    theta = np.zeros((k_max + 1, n_max + 1))
    theta[:, :n_max] = full[:, :n_max]
    theta[:, n_max] = full[:, n_max:].sum(axis=1)
    return DetectorPovm(theta)


def click_povm_from(pnr: DetectorPovm) -> DetectorPovm:
    """Coarse-grain a PNR POVM to the binary no-click / click detector."""
    theta = np.column_stack([pnr.theta[:, 0], pnr.theta[:, 1:].sum(axis=1)])
    return DetectorPovm(theta, ["no-click", "click"])


# ---------------------------------------------------------------------------
# Coherent-state probes and tomography
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeSet:
    """Coherent-probe mean photon numbers |alpha|^2 and shots per probe."""

    alpha_sq: tuple
    shots_per_probe: int

    def __post_init__(self):
        if not all(0 <= a < math.inf for a in self.alpha_sq):
            raise ConfigError("probe |alpha|^2 values must be finite and >= 0")
        if self.shots_per_probe <= 0:
            raise ConfigError("shots_per_probe must be positive")


def dense_probe_ladder(k_max: int) -> tuple:
    """Probe ladder tuned for low-noise reconstruction of a (k_max+1)-row POVM.

    The middle rows of a lossy PNR detector are the hardest to separate because
    adjacent Poisson probe columns are nearly collinear there, so most probes
    are packed into the intensity window that feeds those rows. Intensities far
    above k_max remain useful: conditioned on the truncated support they load
    the top rows almost exclusively.
    """
    if k_max < 1:
        raise ConfigError("k_max must be >= 1")
    lo_band = np.linspace(0.25, 0.5 * k_max, 2 * k_max)
    mid_band = np.linspace(0.5 * k_max, 2.0 * k_max + 2.0, 18 * k_max)
    hi_band = np.linspace(2.0 * k_max + 3.0, 6.0 * k_max + 6.0, 4 * k_max + 4)
    # lo_band ends where mid_band starts: keep that intensity once, because
    # probe data merges equal intensities
    return tuple(np.concatenate([lo_band[:-1], mid_band, hi_band]))


def coherent_probe_matrix(alpha_sq, k_max: int) -> np.ndarray:
    """Poisson photon-number weights C[m, k] = |a_m|^(2k) e^(-|a_m|^2) / k!.

    Rows are NOT renormalized: each falls short of 1 by the Poisson mass
    beyond k_max. For k_max <= 12 the entries equal scipy.stats.poisson.pmf
    bit for bit; above that scipy's gammaln switches to a Stirling series
    while log k! here stays exact, and the two differ by ~1e-14 relative.
    """
    alpha_sq = np.asarray(alpha_sq, dtype=float)
    if alpha_sq.ndim != 1:
        alpha_sq = alpha_sq.ravel()
    if not np.isfinite(alpha_sq).all() or (alpha_sq < 0).any():
        raise ConfigError("probe |alpha|^2 values must be finite and >= 0")
    if k_max < 0:
        raise ConfigError("k_max must be >= 0")
    # the C library log per probe, as xlogy takes it: numpy's vectorised log
    # differs from it in the last bit on some inputs
    log_mu = np.array([math.log(mu) if mu > 0 else -math.inf for mu in alpha_sq])
    # xlogy(k, mu): 0 in the k = 0 column, even at mu = 0
    k_log_mu = np.zeros((alpha_sq.size, k_max + 1))
    k_log_mu[:, 1:] = np.arange(1, k_max + 1) * log_mu[:, None]
    log_factorial = np.array([math.log(math.factorial(k)) for k in range(k_max + 1)])
    return np.exp(k_log_mu - log_factorial - alpha_sq[:, None])


@dataclass
class ResponseMatrix:
    """Row-stochastic empirical outcome frequencies per probe."""

    R: np.ndarray
    shots_per_probe: int

    def __post_init__(self):
        self.R = np.asarray(self.R, dtype=float)
        if self.R.min() < -COMPLETENESS_TOL or self.R.max() > 1.0 + COMPLETENESS_TOL:
            raise ConfigError("response frequencies must lie in [0, 1]")
        rows = self.R.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > COMPLETENESS_TOL:
            raise ConfigError("response rows must sum to 1 (all outcomes recorded)")

    @property
    def counts(self) -> np.ndarray:
        return self.R * self.shots_per_probe


@dataclass
class TomographyDiagnostics:
    iterations: int
    converged: bool
    log_likelihood: float
    ll_gain: float
    grad_norm: float
    cond_C: float
    ll_trace: np.ndarray
    start: str  # "least-squares", "uniform" or "given": where the EM run began


def simulate_response(
    povm: DetectorPovm, probes: ProbeSet, rng: "np.random.Generator | None" = None
) -> ResponseMatrix:
    """Synthetic response matrix for a known POVM; exact frequencies if rng is None.

    Each probe is conditioned on carrying at most k_max photons (row-wise
    renormalization), so rows sum to 1 and the truncated model R = C Theta is
    exactly identifiable. The EM update is invariant to this row scaling of C.
    """
    C = coherent_probe_matrix(probes.alpha_sq, povm.k_max)
    P = C @ povm.theta
    P /= P.sum(axis=1, keepdims=True)
    if rng is None:
        return ResponseMatrix(P, probes.shots_per_probe)
    counts = np.stack([rng.multinomial(probes.shots_per_probe, row) for row in P])
    return ResponseMatrix(counts / probes.shots_per_probe, probes.shots_per_probe)


def _flush_subnormal(theta):
    """Set the entries of a nonnegative theta below the smallest normal float
    to exactly 0.0, in place.

    A multiplicative EM step keeps a zero at zero and the SQUAREM extrapolant
    of three zeros is zero, so an underflowed entry stays at exact zero and
    the products and logs of later iterations see normal numbers only.
    Arithmetic on subnormal numbers is many times slower than on normal
    ones. Dropping an entry below 2.3e-308 changes no sum above 1e-290, so
    P = C @ theta and the log-likelihood stay bit-identical unless an
    outcome's probability is itself that small.
    """
    theta[theta < _TINY] = 0.0
    return theta


def _em_step(counts, C, theta):
    """One multiplicative EM update; preserves nonnegativity and row sums."""
    P = C @ theta
    ratio = counts / np.maximum(P, _LOG_FLOOR)
    new = theta * (C.T @ ratio)
    rows = new.sum(axis=1)
    rows[rows == 0.0] = 1.0
    return _flush_subnormal(new / rows[:, None])


def _em_loglik(counts, C, theta):
    P = C @ theta
    return float(np.sum(counts * np.log(np.maximum(P, _LOG_FLOOR))))


def _project_simplex_rows(theta):
    theta = np.clip(theta, 0.0, None)
    rows = theta.sum(axis=1)
    rows[rows == 0.0] = 1.0
    return _flush_subnormal(theta / rows[:, None])


def _em_fixed_point(counts, C, theta0, tol, max_iter):
    """Monotone EM with SQUAREM extrapolation for the tomography likelihood.

    Each outer iteration takes two multiplicative EM steps, extrapolates along
    the implied direction (Varadhan-Roland step length), projects back onto
    the per-row simplex, and falls back to the plain double step whenever the
    extrapolation would lower the log-likelihood. An iteration that would still
    lower it keeps the current iterate and stops as converged, so the trace is
    non-decreasing. Returns (theta, ll_trace, n_iter, converged).
    """
    counts = np.ascontiguousarray(counts, dtype=np.float64)
    C = np.ascontiguousarray(C, dtype=np.float64)
    theta = np.ascontiguousarray(theta0, dtype=np.float64)
    ll_trace = np.empty(max_iter)
    ll_prev = _em_loglik(counts, C, theta)
    converged = False
    n_iter = 0
    for it in range(max_iter):
        t1 = _em_step(counts, C, theta)
        t2 = _em_step(counts, C, t1)
        r = t1 - theta
        v = (t2 - t1) - r
        vnorm = np.linalg.norm(v)
        if vnorm == 0.0:
            nxt, ll = t2, _em_loglik(counts, C, t2)
        else:
            alpha = min(-np.linalg.norm(r) / vnorm, -1.0)
            cand = _project_simplex_rows(theta - 2.0 * alpha * r + alpha * alpha * v)
            # safeguard: one EM step from the extrapolant, accept if it helps
            cand = _em_step(counts, C, cand)
            ll_cand = _em_loglik(counts, C, cand)
            ll_t2 = _em_loglik(counts, C, t2)
            nxt, ll = (cand, ll_cand) if ll_cand >= ll_t2 else (t2, ll_t2)
        n_iter = it + 1
        if ll < ll_prev:
            ll_trace[it] = ll_prev
            converged = True
            break
        theta = nxt
        ll_trace[it] = ll
        if ll - ll_prev < tol:
            converged = True
            break
        ll_prev = ll
    return theta, ll_trace[:n_iter], n_iter, converged


def tomography_mle(
    response: ResponseMatrix,
    C: np.ndarray,
    *,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    allow_rank_deficient: bool = False,
    theta0: np.ndarray | None = None,
) -> tuple[DetectorPovm, TomographyDiagnostics]:
    """Maximum-likelihood POVM reconstruction from R = C Theta.

    One EM run (multiplicative, per-k renormalized: nonnegative, complete and
    monotone in the multinomial log-likelihood) from theta0, else from the
    least-squares POVM on noiseless data and the uniform POVM otherwise
    (diagnostics.start). Stops when the per-iteration gain drops below tol.
    """
    C = np.asarray(C, dtype=float)
    M, K = C.shape
    N = response.R.shape[1]
    if response.R.shape[0] != M:
        raise ConfigError("response and probe matrix disagree on probe count")
    if M < N:
        raise IdentifiabilityError(f"need at least as many probes ({M}) as outcomes ({N})")
    cond = float(np.linalg.cond(C))
    if np.linalg.matrix_rank(C) < K:
        if not allow_rank_deficient:
            raise IdentifiabilityError(
                f"probe matrix is column-rank deficient (cond={cond:.3e}); "
                "add probe amplitudes or pass allow_rank_deficient=True"
            )
        warnings.warn(f"rank-deficient probe matrix, cond={cond:.3e}", RuntimeWarning)

    counts = response.counts
    start = "given"
    if theta0 is None:
        # Every POVM row sums to 1, so the row-stochastic response obeys
        # R = (C / rowsum(C)) Theta and least squares is exact on noiseless
        # data. Rounding counts to integers moves R by at most 1/shots, which
        # least squares amplifies at most cond(C)-fold; a more negative entry
        # means noise, where floored entries would pin the multiplicative
        # updates near zero far from the optimum: start uniform instead.
        Cn = C / np.maximum(C.sum(axis=1, keepdims=True), _WARM_FLOOR)
        ls = np.linalg.lstsq(Cn, response.R, rcond=None)[0]
        if -ls.min() <= cond / response.shots_per_probe:
            start = "least-squares"
            theta0 = np.maximum(ls, 1e-12)
            theta0 /= theta0.sum(axis=1, keepdims=True)
        else:
            start = "uniform"
            theta0 = np.full((K, N), 1.0 / N)
    theta, ll_trace, n_iter, converged = _em_fixed_point(counts, C, theta0, tol, max_iter)
    if not converged:
        warnings.warn(
            f"tomography MLE hit max_iter={max_iter} before tolerance", RuntimeWarning
        )
    # projected-gradient norm at the solution (KKT residual on the simplex)
    P = np.maximum(C @ theta, 1e-300)
    G = C.T @ (counts / P)  # d(LL)/d(theta)
    lam = (G * theta).sum(axis=1, keepdims=True)  # active-constraint multipliers
    kkt = theta * (G - lam)
    diag = TomographyDiagnostics(
        iterations=n_iter,
        converged=bool(converged),
        log_likelihood=float(ll_trace[-1]),
        ll_gain=float(ll_trace[-1] - ll_trace[-2]) if n_iter > 1 else float("nan"),
        grad_norm=float(np.linalg.norm(kkt)),
        cond_C=cond,
        ll_trace=ll_trace,
        start=start,
    )
    theta = np.clip(theta, 0.0, 1.0)
    theta /= theta.sum(axis=1, keepdims=True)
    return DetectorPovm(theta), diag


# ---------------------------------------------------------------------------
# Probe-data CSV interchange
# ---------------------------------------------------------------------------

def write_probe_csv(path, alpha_sq, counts):
    """Long-format probe data: columns alpha_sq, outcome, count.

    Counts are rounded to the nearest integer, so R * shots that lands an ulp
    below an integer is written as that integer.
    """
    counts = np.asarray(counts)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["alpha_sq", "outcome", "count"])
        for m, a in enumerate(alpha_sq):
            for n in range(counts.shape[1]):
                w.writerow([repr(float(a)), n, int(np.rint(counts[m, n]))])


def nonnegative_int(text: str) -> int:
    """A CSV index or count: int(text), refusing a negative value."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def nonnegative_float(text: str) -> float:
    """A probe intensity: float(text), refusing a negative or non-finite value."""
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise ValueError(text)
    return value


# the plain conversion of each range-checked parser; parse_csv_rows checks
# the range of the whole column at once
_CONVERTERS = {nonnegative_int: int, nonnegative_float: float}

_KINDS = {
    float: "a number",
    nonnegative_int: "a nonnegative integer",
    nonnegative_float: "a finite number >= 0",
}


def _malformed_row(what: str, values, fields) -> ConfigError | None:
    """The ConfigError for a CSV data row, a list of strings, that does not
    parse as fields, (name, parser) pairs with a parser from _KINDS, or str
    for a column that is not read; None if it does. It names the first
    unparsable field, else the first missing one, or the last one when the
    row has too many."""
    row = ",".join(values)
    for text, (name, parse) in zip(values, fields):
        try:
            parse(text)
        except ValueError:
            return ConfigError(
                f"{what} row {row!r}: {name} must be {_KINDS[parse]}, got {text!r} "
                f"(field: {name})"
            )
    if len(values) == len(fields):
        return None
    name = fields[min(len(values), len(fields) - 1)][0]
    return ConfigError(
        f"{what} row {row!r} has {len(values)} fields, expected {len(fields)} (field: {name})"
    )


def parse_csv_rows(what: str, rows, fields) -> list[np.ndarray]:
    """The columns of nonempty CSV data rows, each a list of strings, parsed
    as fields (see _malformed_row): one array per field.

    Each column is converted in one pass and the nonnegative ones are checked
    as arrays; only a column that fails is searched row by row, for the
    ConfigError of its first malformed row.
    """
    try:
        if any(len(row) != len(fields) for row in rows):
            raise ValueError("field count")
        columns = []
        for (_, parse), texts in zip(fields, zip(*rows)):
            convert = _CONVERTERS.get(parse, parse)
            column = np.array(list(map(convert, texts)))
            # a nan minimum fails the comparison too
            if convert is not parse and not 0 <= column.min() <= column.max() < math.inf:
                raise ValueError("out of range")
            columns.append(column)
    except ValueError:
        raise next(filter(None, (_malformed_row(what, row, fields) for row in rows))) from None
    return columns


_PROBE_PARSERS = {"alpha_sq": nonnegative_float, "outcome": nonnegative_int, "count": float}


def read_probe_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Returns (alpha_sq values, counts matrix) from long-format probe data.

    A row with the wrong number of fields, a non-numeric value, an intensity
    that is negative or not finite, or an outcome that is not a nonnegative
    integer raises a ConfigError naming the field.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not set(_PROBE_PARSERS) <= set(header):
            raise ConfigError("probe CSV must have columns alpha_sq, outcome, count")
        rows = [rec for rec in reader if rec]
    if not rows:
        raise ConfigError("probe CSV contains no data rows")
    fields = [(name, _PROBE_PARSERS.get(name, str)) for name in header]
    columns = parse_csv_rows("probe CSV", rows, fields)
    a, n, c = (columns[header.index(name)] for name in _PROBE_PARSERS)
    alphas, aidx = np.unique(a, return_inverse=True)
    counts = np.zeros((alphas.size, n.max() + 1))
    np.add.at(counts, (aidx, n), c)
    return alphas, counts
