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
    # max over the zero entries of theta of (G - lambda)_+ / lambda: how far
    # the likelihood would rise, relative to the row's multiplier, by moving
    # mass onto an entry the EM has driven to zero (0.0 when none would)
    kkt_at_zero: float
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


def _forward(C, theta, out=None):
    """P = max(C @ theta, floor), the forward product of an iterate, in out.

    The EM step from theta and the log-likelihood of theta both read it, so
    the loop forms it once per iterate.
    """
    P = np.matmul(C, theta, out=out)
    return np.maximum(P, _LOG_FLOOR, out=P)


def _em_step(counts, C, theta, P, out=None, ratio=None):
    """One multiplicative EM update from theta, whose forward product is P;
    preserves nonnegativity and row sums. out (theta's shape) receives the
    update and ratio (P's shape) the counts / P quotient."""
    ratio = np.divide(counts, P, out=ratio)
    new = np.matmul(C.T, ratio, out=out)
    np.multiply(theta, new, out=new)
    rows = new.sum(axis=1)
    rows[rows == 0.0] = 1.0
    np.divide(new, rows[:, None], out=new)
    return _flush_subnormal(new)


def _em_loglik(counts, P, work=None):
    """The multinomial log-likelihood of the iterate whose forward product is P;
    work (P's shape) receives the per-cell terms."""
    terms = np.log(P, out=work)
    np.multiply(counts, terms, out=terms)
    return float(terms.sum())


def _project_simplex_rows(theta, out=None):
    """theta clipped at 0 and row-normalised, in out. np.clip(theta, 0.0, None)
    is this maximum, through a slower wrapper."""
    theta = np.maximum(theta, 0.0, out=out)
    rows = theta.sum(axis=1)
    rows[rows == 0.0] = 1.0
    np.divide(theta, rows[:, None], out=theta)
    return _flush_subnormal(theta)


def _norm(x):
    """The 2-norm of x, as np.linalg.norm computes it: sqrt of the raveled dot."""
    x = x.ravel()
    return math.sqrt(x.dot(x))


def _em_fixed_point(counts, C, theta0, tol, max_iter):
    """Monotone EM with SQUAREM extrapolation for the tomography likelihood.

    Each outer iteration takes two multiplicative EM steps, extrapolates along
    the implied direction (Varadhan-Roland step length), projects back onto
    the per-row simplex, and falls back to the plain double step whenever the
    extrapolation would lower the log-likelihood. An iteration that would still
    lower it keeps the current iterate and stops as converged, so the trace is
    non-decreasing. Returns (theta, ll_trace, n_iter, converged).

    The forward product of the kept iterate, formed for its log-likelihood,
    is also its next EM step's, so an iteration forms seven probe-sized
    products (four forward, three in the EM steps). The iterate- and
    probe-sized arrays are allocated once, and the arithmetic is that of the
    allocating expressions in the same order, so the iterates are the same
    to the bit.
    """
    counts = np.ascontiguousarray(counts, dtype=np.float64)
    C = np.ascontiguousarray(C, dtype=np.float64)
    # updated in place, so never the caller's array
    theta = np.array(theta0, dtype=np.float64, order="C")
    t1, t2, r, v, cand = (np.empty_like(theta) for _ in range(5))
    # forward products of theta, of t1 and then the extrapolant, of t2 and of
    # cand; the ratio or log terms of the step or log-likelihood at hand
    P, P_mid, P_t2, P_cand, work = (np.empty_like(counts) for _ in range(5))
    # grown per iteration: max_iter bounds the run, not the memory it takes
    ll_trace = []
    ll_prev = _em_loglik(counts, _forward(C, theta, P), work)
    converged = False
    for _ in range(max_iter):
        t1 = _em_step(counts, C, theta, P, t1, work)
        t2 = _em_step(counts, C, t1, _forward(C, t1, P_mid), t2, work)
        np.subtract(t1, theta, out=r)
        np.subtract(t2, t1, out=v)
        np.subtract(v, r, out=v)
        vnorm = _norm(v)
        if vnorm == 0.0:
            keep_cand, ll = False, _em_loglik(counts, _forward(C, t2, P_t2), work)
        else:
            alpha = min(-_norm(r) / vnorm, -1.0)
            # theta - 2 alpha r + alpha^2 v, in r
            np.multiply(r, 2.0 * alpha, out=r)
            np.subtract(theta, r, out=r)
            np.multiply(v, alpha * alpha, out=v)
            np.add(r, v, out=r)
            ext = _project_simplex_rows(r, out=r)
            # safeguard: one EM step from the extrapolant, accept if it helps
            cand = _em_step(counts, C, ext, _forward(C, ext, P_mid), cand, work)
            ll_cand = _em_loglik(counts, _forward(C, cand, P_cand), work)
            ll_t2 = _em_loglik(counts, _forward(C, t2, P_t2), work)
            keep_cand = ll_cand >= ll_t2
            ll = ll_cand if keep_cand else ll_t2
        if ll < ll_prev:
            ll_trace.append(ll_prev)
            converged = True
            break
        # the kept iterate and its forward product change places with the
        # current ones, whose arrays the next iteration overwrites
        if keep_cand:
            theta, cand, P, P_cand = cand, theta, P_cand, P
        else:
            theta, t2, P, P_t2 = t2, theta, P_t2, P
        ll_trace.append(ll)
        if ll - ll_prev < tol:
            converged = True
            break
        ll_prev = ll
    return theta, np.array(ll_trace), len(ll_trace), converged


def check_em_settings(tol, max_iter):
    """Raise a ConfigError naming the field unless tol is a finite number >= 0
    and max_iter an integer of at least 1."""
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise ConfigError(
            f"max-iter must be an integer of at least 1, got {max_iter!r} (field: max-iter)"
        )
    if not 0.0 <= tol < math.inf:
        raise ConfigError(f"tol must be a finite number >= 0, got {tol!r} (field: tol)")


def tomography_mle(
    response: ResponseMatrix,
    C: np.ndarray,
    *,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    theta0: np.ndarray | None = None,
) -> tuple[DetectorPovm, TomographyDiagnostics]:
    """Maximum-likelihood POVM reconstruction from R = C Theta.

    One EM run (multiplicative, per-k renormalized: nonnegative, complete and
    monotone in the multinomial log-likelihood) from theta0, else from the
    least-squares POVM on noiseless data and the uniform POVM otherwise
    (diagnostics.start).

    Stops when an iteration raises the log-likelihood by less than tol, an
    absolute gain, not one relative to |ll|. Where |ll| is large the default
    lies below the float64 spacing of ll (2.4e-7 at |ll| ~ 1.5e9, the
    benchmark's 219 probes of 10^6 shots), so there the run goes on until the
    float64 log-likelihood stops rising. A tol that is not a finite number
    >= 0, or a max_iter below 1, raises a ConfigError.
    """
    check_em_settings(tol, max_iter)
    C = np.asarray(C, dtype=float)
    M, K = C.shape
    N = response.R.shape[1]
    if response.R.shape[0] != M:
        raise ConfigError("response and probe matrix disagree on probe count")
    if M < N:
        raise IdentifiabilityError(f"need at least as many probes ({M}) as outcomes ({N})")
    cond = float(np.linalg.cond(C))
    if np.linalg.matrix_rank(C) < K:
        raise IdentifiabilityError(
            f"probe matrix is column-rank deficient (cond={cond:.3e}); add probe amplitudes"
        )

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
    at_zero = (np.maximum(G - lam, 0.0) / lam)[theta == 0.0]
    kkt_at_zero = float(at_zero.max()) if at_zero.size else 0.0
    diag = TomographyDiagnostics(
        iterations=n_iter,
        converged=bool(converged),
        log_likelihood=float(ll_trace[-1]),
        ll_gain=float(ll_trace[-1] - ll_trace[-2]) if n_iter > 1 else float("nan"),
        grad_norm=float(np.linalg.norm(kkt)),
        kkt_at_zero=kkt_at_zero,
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
