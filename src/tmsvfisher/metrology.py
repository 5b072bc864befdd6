"""Fisher-information engine: classical FI of outcome distributions, quantum
FI of the state family, the shot-noise baseline, and comparison metrics."""

import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .detectors import DetectorPovm, click_povm_from, ideal_pnr_povm
from .errors import ConfigError
from .fock import FockCutoff, TwoModeState
from .optics import (
    InterferometerConfig,
    InterferometerEngine,
    LossModel,
    PhaseSeries,
    SqueezingParams,
)

P_FLOOR = 1e-15
DP_FLOOR = 1e-12
QFI_EIG_FLOOR = 1e-12
# Outcome probabilities sum to one at every phase, so their derivatives sum to
# zero; a larger residual means the outcome model lost or gained mass.
DSUM_TOL = 1e-9
# Phases evaluated per matrix product on a grid: bounds the per-block arrays,
# so peak memory does not grow with the grid size.
PHASE_BLOCK = 256

# Photon-number-diagonal detection is blind to a phase common to both arms,
# so the quantum bound is evaluated for the differential-phase family
# generated by (n_s - n_i)/2.  The single-arm generator n_s would add the
# information carried by the (unmeasured) common phase and double the bound.
QFI_GENERATOR = "difference"
# Phases whose mirror keys min(t, 2 pi - t) differ by at most this share one
# QFI evaluation: a few ulps of 2 pi, the rounding np.linspace leaves between
# theta_k and 2 pi - theta_{n-k}.
MIRROR_TOL = 4 * np.spacing(2.0 * math.pi)


@dataclass
class OutcomeDistribution:
    """Joint outcome probabilities p(j, k) and their phase derivatives."""

    probs: np.ndarray
    dprobs: np.ndarray
    phase: float

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        self.dprobs = np.asarray(self.dprobs, dtype=float)
        if self.probs.shape != self.dprobs.shape:
            raise ConfigError("probs and dprobs must have matching shapes")
        if self.probs.min() < -1e-12:
            raise ConfigError(f"negative probability {self.probs.min():.3e}")
        total = self.probs.sum()
        if total > 1.0 + 1e-9:
            raise ConfigError(f"probabilities sum to {total} > 1")
        _check_derivative_sum(self.dprobs.sum())


def _check_derivative_sum(total: float):
    if abs(total) > DSUM_TOL:
        warnings.warn(f"derivative sum {total:.3e} deviates from 0", RuntimeWarning)


def outcome_distribution(
    config: InterferometerConfig, povm_s: DetectorPovm, povm_i: DetectorPovm
) -> OutcomeDistribution:
    """Evaluate p(j, k; theta) and its exact derivative for one configuration."""
    eng = InterferometerEngine(config.squeezing, config.loss, config.cutoff)
    series = outcome_series(eng, povm_s, povm_i)
    return OutcomeDistribution(
        series.values(config.phase), series.derivatives(config.phase), config.phase
    )


def outcome_series(
    eng: InterferometerEngine, povm_s: DetectorPovm, povm_i: DetectorPovm
) -> PhaseSeries:
    """p(j, k; theta) of the engine's state under the two POVMs, as a phase series."""
    ths, thi = _sliced_thetas(povm_s, povm_i, eng.cutoff.dim)
    return eng.population_series.project(ths, thi)


def _sliced_thetas(povm_s: DetectorPovm, povm_i: DetectorPovm, d: int):
    for povm, name in ((povm_s, "signal"), (povm_i, "idler")):
        if povm.k_max + 1 < d:
            raise ConfigError(
                f"{name} POVM k_max={povm.k_max} smaller than state cutoff {d - 1}"
            )
    return povm_s.theta[:d], povm_i.theta[:d]


def classical_fisher(dist: OutcomeDistribution) -> float:
    """Per-trial classical Fisher information sum (dp)^2 / p.

    Outcomes with p <= P_FLOOR are excluded; if such an outcome carries a
    non-negligible derivative a near-singular warning is raised.
    """
    fi, n_suspect = _cfi_rows(
        dist.probs.reshape(1, -1), dist.dprobs.reshape(1, -1), P_FLOOR, DP_FLOOR
    )
    _warn_suspects(n_suspect)
    return float(fi[0])


def _cfi_rows(p, dp, p_floor, dp_floor):
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


def _warn_suspects(n_suspect: int):
    if n_suspect:
        warnings.warn(
            f"{n_suspect} outcome(s) with p <= {P_FLOOR} but |dp| > {DP_FLOOR}; "
            "their (near-singular) contribution was dropped",
            RuntimeWarning,
        )


def _cfi_on_grid(series: PhaseSeries, grid) -> tuple[np.ndarray, int, float]:
    """Per-phase CFI of an outcome series over a phase grid, PHASE_BLOCK phases
    per product; also returns the near-singular outcome count over the grid
    and the largest |sum of dp over outcomes| at any of its phases."""
    grid = np.asarray(grid, dtype=float).ravel()
    cfi = np.empty(grid.size)
    n_suspect = 0
    dsum = 0.0
    for lo in range(0, grid.size, PHASE_BLOCK):
        block = grid[lo : lo + PHASE_BLOCK]
        p = series.values(block).reshape(block.size, -1)
        dp = series.derivatives(block).reshape(block.size, -1)
        cfi[lo : lo + block.size], n_bad = _cfi_rows(p, dp, P_FLOOR, DP_FLOOR)
        n_suspect += n_bad
        dsum = max(dsum, float(np.max(np.abs(dp.sum(axis=1)))))
    return cfi, n_suspect, dsum


def quantum_fisher_pure(psi: np.ndarray, dpsi: np.ndarray) -> float:
    """QFI of a pure family: 4(<dpsi|dpsi> - |<psi|dpsi>|^2)."""
    psi = np.asarray(psi, dtype=complex).ravel()
    dpsi = np.asarray(dpsi, dtype=complex).ravel()
    g = dpsi.conj() @ dpsi
    b = psi.conj() @ dpsi
    return float(4.0 * (g.real - abs(b) ** 2))


def quantum_fisher_mixed(rho: np.ndarray, drho: np.ndarray, lam_floor=QFI_EIG_FLOOR) -> float:
    """QFI via the spectral SLD formula 2 sum |<a|drho|b>|^2 / (lam_a + lam_b)."""
    rho = np.asarray(rho, dtype=complex)
    drho = np.asarray(drho, dtype=complex)
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise ConfigError("state is not Hermitian")
    if np.max(np.abs(drho - drho.conj().T)) > 1e-10:
        raise ConfigError("state derivative is not Hermitian")
    lam, V = np.linalg.eigh(rho)
    M = V.conj().T @ drho @ V
    lam = np.maximum(lam, 0.0)
    W = lam[:, None] + lam[None, :]
    mask = W > lam_floor
    return 2.0 * float(np.sum((np.abs(M) ** 2)[mask] / W[mask]))


def quantum_fisher(state: TwoModeState, dstate: np.ndarray) -> float:
    """Dispatch to the pure- or mixed-state QFI branch."""
    if state.is_pure:
        return quantum_fisher_pure(state.vector, dstate)
    return quantum_fisher_mixed(state.rho, dstate)


def shot_noise_limit(z: SqueezingParams | float) -> float:
    """SNL expressed as Fisher information: the generated mean photon number."""
    if not isinstance(z, SqueezingParams):
        z = SqueezingParams(z)
    return z.mean_photons


# ---------------------------------------------------------------------------
# Phase sweeps
# ---------------------------------------------------------------------------

@dataclass
class FisherReport:
    phase_grid: np.ndarray
    cfi: np.ndarray
    qfi: np.ndarray | None
    snl: float
    metadata: dict = field(default_factory=dict)

    @property
    def cfi_per_photon(self) -> np.ndarray:
        return self.cfi / self.snl if self.snl > 0 else np.full_like(self.cfi, np.nan)

    @property
    def qfi_per_photon(self) -> np.ndarray | None:
        if self.qfi is None:
            return None
        return self.qfi / self.snl if self.snl > 0 else np.full_like(self.qfi, np.nan)

    def to_csv(self, path):
        with open(path, "w") as fh:
            for k in sorted(self.metadata):
                fh.write(f"# {k}={self.metadata[k]}\n")
            fh.write("phase,cfi,qfi,snl,cfi_per_photon,qfi_per_photon\n")
            qfi = self.qfi if self.qfi is not None else np.full_like(self.cfi, np.nan)
            cpp = self.cfi_per_photon
            qpp = self.qfi_per_photon
            qpp = qpp if qpp is not None else np.full_like(self.cfi, np.nan)
            for i, th in enumerate(self.phase_grid):
                fh.write(
                    f"{float(th)!r},{float(self.cfi[i])!r},{float(qfi[i])!r},"
                    f"{float(self.snl)!r},{float(cpp[i])!r},{float(qpp[i])!r}\n"
                )

    def to_json(self, path):
        payload = {
            "metadata": self.metadata,
            "snl": self.snl,
            "phase_grid": [float(x) for x in self.phase_grid],
            "cfi": [float(x) for x in self.cfi],
            "qfi": None if self.qfi is None else [float(x) for x in self.qfi],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")


def config_fingerprint(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def default_phase_grid(n_points: int = 2048) -> np.ndarray:
    return np.linspace(0.0, 2.0 * math.pi, n_points, endpoint=False)


def _mirror_classes(phase_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group a grid's phases into classes that theta -> -theta (mod 2 pi) maps
    onto themselves.

    Returns (first, label): first[c] is the lowest index of class c and
    label[i] the class of phase i. Keys that sort within MIRROR_TOL of their
    neighbour share a class, because np.linspace mirrors only to within an ulp.
    """
    t = np.mod(phase_grid, 2.0 * math.pi)
    key = np.minimum(t, 2.0 * math.pi - t)
    order = np.argsort(key, kind="stable")
    label = np.empty(key.size, dtype=int)
    label[order] = np.concatenate(([0], np.cumsum(np.diff(key[order]) > MIRROR_TOL)))
    first = np.full(label[order[-1]] + 1, key.size)
    np.minimum.at(first, label, np.arange(key.size))
    return first, label


def sweep_fisher(
    config: InterferometerConfig,
    phase_grid: np.ndarray,
    povm_s: DetectorPovm,
    povm_i: DetectorPovm,
    compute_qfi: bool = True,
) -> FisherReport:
    """Classical (and optionally quantum) Fisher information across a phase grid.

    The config's own phase field is ignored; the grid drives the sweep. The CFI
    comes from the outcome phase series at every phase. The lossy QFI comes
    from the engine's series of sigma4's two photon-number-parity blocks, with
    one eigendecomposition per block per evaluated phase.

    The QFI is evaluated once per mirror class of the grid and copied to the
    class's other phases: the model is symmetric under theta -> -theta, so
    phases whose keys min(t, 2 pi - t), t = theta mod 2 pi, agree to within
    MIRROR_TOL share one value, computed at the class's lowest-index phase.
    """
    phase_grid = np.asarray(phase_grid, dtype=float)
    if phase_grid.size == 0:
        raise ConfigError("phase grid must be nonempty")
    eng = InterferometerEngine(config.squeezing, config.loss, config.cutoff)
    cfi, n_suspect, dsum = _cfi_on_grid(outcome_series(eng, povm_s, povm_i), phase_grid)
    _warn_suspects(n_suspect)
    _check_derivative_sum(dsum)
    qfi = None
    if compute_qfi:
        first, label = _mirror_classes(phase_grid)
        qfi_class = np.empty(first.size)
        for cls, th in enumerate(phase_grid[first]):
            if eng.is_pure:
                qfi_class[cls] = quantum_fisher_pure(
                    eng.psi3(th, QFI_GENERATOR), eng.dpsi3(th, QFI_GENERATOR)
                )
            else:
                qfi_class[cls] = sum(
                    quantum_fisher_mixed(*block.at(th))
                    for block in eng.parity_block_series(QFI_GENERATOR)
                )
        qfi = qfi_class[label]
    meta = {
        "z": config.squeezing.z,
        "n_bar": config.squeezing.mean_photons,
        "eta_p_s": config.loss.eta_p_s,
        "eta_p_i": config.loss.eta_p_i,
        "eta_d_s": config.loss.eta_d_s,
        "eta_d_i": config.loss.eta_d_i,
        "max_photons": config.cutoff.max_photons,
        "n_phases": int(phase_grid.size),
        "detector_s": "|".join(povm_s.labels[:3]) + f"...n={povm_s.n_outcomes}",
        "detector_i": "|".join(povm_i.labels[:3]) + f"...n={povm_i.n_outcomes}",
        "version": __version__,
    }
    meta["config_hash"] = config_fingerprint(meta)
    return FisherReport(phase_grid, cfi, qfi, shot_noise_limit(config.squeezing), meta)


def sub_snl_fraction(report: FisherReport, which: str = "cfi") -> float:
    """Fraction of grid phases whose FI exceeds the shot-noise limit."""
    if which not in ("cfi", "qfi"):
        raise ConfigError(f"which must be 'cfi' or 'qfi', got {which!r}")
    if report.snl <= 0:
        raise ConfigError("SNL must be positive for a sub-SNL fraction")
    fi = report.cfi if which == "cfi" else report.qfi
    if fi is None:
        raise ConfigError("report has no QFI column")
    if report.phase_grid.size < 1000:
        warnings.warn("sub-SNL fraction on a grid below 1000 points", RuntimeWarning)
    return float(np.mean(fi > report.snl))


# ---------------------------------------------------------------------------
# Maximum-FI search and the PNR/click comparison
# ---------------------------------------------------------------------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(f, lo: float, hi: float, tol: float = 1e-6):
    """Golden-section maximization on [lo, hi]; returns (x*, f(x*))."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
    return (0.5 * (a + b), max(f1, f2))


def max_cfi_over_phase(
    config: InterferometerConfig,
    povm_s: DetectorPovm,
    povm_i: DetectorPovm,
    coarse_points: int = 256,
    tol: float = 1e-6,
):
    """Maximum per-trial CFI over phase: coarse grid then golden-section refinement."""
    eng = InterferometerEngine(config.squeezing, config.loss, config.cutoff)
    series = outcome_series(eng, povm_s, povm_i)

    def f(theta):
        return float(_cfi_on_grid(series, theta)[0][0])

    grid = np.linspace(0.0, 2.0 * math.pi, coarse_points, endpoint=False)
    vals = _cfi_on_grid(series, grid)[0]
    i = int(np.argmax(vals))
    step = 2.0 * math.pi / coarse_points
    return golden_section_max(f, grid[i] - step, grid[i] + step, tol)


def pnr_click_ratio(
    n_bar_grid,
    loss: LossModel,
    cutoff: FockCutoff,
    n_max: int | None = None,
    coarse_points: int = 256,
    tol: float = 1e-6,
) -> dict:
    """Ratio max_theta CFI(PNR) / max_theta CFI(click) across mean photon numbers."""
    n_bar_grid = np.asarray(n_bar_grid, dtype=float)
    if n_bar_grid.size == 0:
        raise ConfigError("n_bar grid must be nonempty")
    if n_max is None:
        n_max = cutoff.max_photons
    pnr = ideal_pnr_povm(n_max, cutoff.max_photons)
    click = click_povm_from(pnr)
    max_pnr = np.empty(n_bar_grid.size)
    max_click = np.empty(n_bar_grid.size)
    for idx, nb in enumerate(n_bar_grid):
        cfg = InterferometerConfig(SqueezingParams.from_mean_photons(nb), loss, 0.0, cutoff)
        _, max_pnr[idx] = max_cfi_over_phase(cfg, pnr, pnr, coarse_points, tol)
        _, max_click[idx] = max_cfi_over_phase(cfg, click, click, coarse_points, tol)
    return {
        "n_bar": n_bar_grid,
        "max_cfi_pnr": max_pnr,
        "max_cfi_click": max_click,
        "ratio": max_pnr / max_click,
    }
