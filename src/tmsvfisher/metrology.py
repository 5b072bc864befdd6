"""Fisher-information engine: classical FI of the outcome series over a phase
grid, quantum FI of the state family, the shot-noise baseline, and comparison
metrics."""

import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import __version__
from .detectors import DetectorPovm, click_povm_from, ideal_pnr_povm
from .errors import ConfigError
from .fock import FockCutoff
from .optics import (
    _BALANCED,
    InterferometerConfig,
    InterferometerEngine,
    LossModel,
    PhaseSeries,
    SqueezingParams,
    _bs_rephased,
    outcome_phase_series,
    phase_generator,
    truncation_mass,
)

P_FLOOR = 1e-15
DP_FLOOR = 1e-12
QFI_EIG_FLOOR = 1e-12
# Outcome probabilities sum to one at every phase, so their derivatives sum to
# zero; a larger residual means the outcome model lost or gained mass.
DSUM_TOL = 1e-9
# Phases evaluated per matrix product on a grid. It bounds the per-block
# arrays, so peak memory does not grow with the grid size, and it keeps each
# product below OpenBLAS's threading cut-over: a real 256x21 @ 21x121 product
# runs on one thread in 42 us, while a 512-row one wakes the second thread and
# takes 374 us (2 vCPUs, scipy-openblas 0.3.31). At cutoff 10 the cosine
# table of a block is 256x11.
PHASE_BLOCK = 256
# Phases whose mirror keys min(t, 2 pi - t) differ by at most this share one
# QFI evaluation: a few ulps of 2 pi, the rounding np.linspace leaves between
# theta_k and 2 pi - theta_{n-k}.
MIRROR_TOL = 4 * np.spacing(2.0 * math.pi)


def _check_derivative_sum(total: float):
    if abs(total) > DSUM_TOL:
        warnings.warn(f"derivative sum {total:.3e} deviates from 0", RuntimeWarning)


def outcome_series(
    config: InterferometerConfig, povm_s: DetectorPovm, povm_i: DetectorPovm
) -> PhaseSeries:
    """p(j, k; theta) of the config's state under the two POVMs, as a phase series."""
    ths, thi = _sliced_thetas(povm_s, povm_i, config.cutoff.dim)
    return outcome_phase_series(config.squeezing, config.loss, config.cutoff, ths, thi)


def _sliced_thetas(povm_s: DetectorPovm, povm_i: DetectorPovm, d: int):
    for povm, name in ((povm_s, "signal"), (povm_i, "idler")):
        if povm.k_max + 1 < d:
            raise ConfigError(
                f"{name} POVM k_max={povm.k_max} smaller than state cutoff {d - 1}"
            )
    return povm_s.theta[:d], povm_i.theta[:d]


def _cfi_rows(p, dp):
    """Sum (dp)^2/p over outcomes with p > P_FLOOR, for each row of a
    (rows, outcomes) batch such as one row per phase.

    Returns (fi per row, n_suspect per row) where n_suspect counts the row's
    outcomes with p <= P_FLOOR but |dp| > DP_FLOOR (near-singular
    contributions that were skipped).
    """
    live = p > P_FLOOR
    fi = np.sum(np.where(live, dp * dp / np.where(live, p, 1.0), 0.0), axis=1)
    n_suspect = np.count_nonzero(~live & (np.abs(dp) > DP_FLOOR), axis=1)
    return fi, n_suspect


def _warn_suspects(n_suspect):
    """One warning for the total of the per-row near-singular counts."""
    n_suspect = int(np.sum(n_suspect))
    if n_suspect:
        warnings.warn(
            f"{n_suspect} outcome(s) with p <= {P_FLOOR} but |dp| > {DP_FLOOR}; "
            "their (near-singular) contribution was dropped",
            RuntimeWarning,
        )


def _cfi_on_grid(series: PhaseSeries, grid) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-phase CFI of an outcome series over a phase grid, PHASE_BLOCK phases
    per product; also returns the per-phase near-singular outcome counts and
    the largest |sum of dp over outcomes| at any of its phases.

    Only the series' support is evaluated: an outcome whose coefficients are
    all zero has p = dp = 0 at every phase, so it adds nothing to the CFI, is
    never near-singular and adds nothing to the sum of dp.
    """
    series = series.support
    grid = np.asarray(grid, dtype=float).ravel()
    cfi = np.empty(grid.size)
    n_suspect = np.empty(grid.size, dtype=int)
    dsum = 0.0
    for lo in range(0, grid.size, PHASE_BLOCK):
        block = grid[lo : lo + PHASE_BLOCK]
        p = series.values(block).reshape(block.size, -1)
        dp = series.derivatives(block).reshape(block.size, -1)
        cfi[lo : lo + block.size], n_suspect[lo : lo + block.size] = _cfi_rows(p, dp)
        dsum = max(dsum, float(np.max(np.abs(dp.sum(axis=1)))))
    return cfi, n_suspect, dsum


def quantum_fisher_pure(psi: np.ndarray, dpsi: np.ndarray) -> float:
    """QFI of a pure family: 4(<dpsi|dpsi> - |<psi|dpsi>|^2)."""
    psi = np.asarray(psi, dtype=complex).ravel()
    dpsi = np.asarray(dpsi, dtype=complex).ravel()
    g = dpsi.conj() @ dpsi
    b = psi.conj() @ dpsi
    return float(4.0 * (g.real - abs(b) ** 2))


def lossless_qfi(squeezing: SqueezingParams, cutoff: FockCutoff) -> float:
    """QFI of the lossless family U_bs exp(i theta g) a, a = U_bs |TMSV>, at
    every phase: U_bs is unitary on the sectors n_s + n_i <= M, which hold a
    and every exp(i theta g) a, and exp(i theta g) commutes with g, so it is
    4 Var_a(g) (docs/decisions.md, entry 5).

    With U_bs = P R P and P = diag(i^n_s) (_bs_rephased), |a_j|^2 has one
    term: R is block-diagonal in N = n_s + n_i, so only the pair |n, n> with
    2n = N_j feeds output j, and |a|^2 = (R[:, (n, n)]^2) c^2, with
    c^2 = (1 - z^2) z^(2n) the TMSV's pair weights.
    """
    d, z = cutoff.dim, squeezing.z
    n = np.arange(d)
    pairs = (1.0 - z * z) * z ** (2 * n)
    p = _bs_rephased(_BALANCED, cutoff.max_photons)[:, n * d + n] ** 2 @ pairs
    g = phase_generator(cutoff)
    return float(4.0 * (p @ g**2 - (p @ g) ** 2))


def quantum_fisher_mixed(rho: np.ndarray, drho: np.ndarray) -> float:
    """QFI via the spectral SLD formula 2 sum |<a|drho|b>|^2 / (lam_a + lam_b).

    Works in the inputs' own dtype, at least float64: a real symmetric pair
    takes a real eigh and real products.
    """
    rho, drho = np.asarray(rho), np.asarray(drho)
    dtype = np.result_type(rho, drho, np.float64)
    rho, drho = rho.astype(dtype, copy=False), drho.astype(dtype, copy=False)
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise ConfigError("state is not Hermitian")
    if np.max(np.abs(drho - drho.conj().T)) > 1e-10:
        raise ConfigError("state derivative is not Hermitian")
    lam, V = np.linalg.eigh(rho)
    M = V.conj().T @ drho @ V
    lam = np.maximum(lam, 0.0)
    W = lam[:, None] + lam[None, :]
    mask = W > QFI_EIG_FLOOR
    return 2.0 * float(np.sum((np.abs(M) ** 2)[mask] / W[mask]))


def shot_noise_limit(z: SqueezingParams | float) -> float:
    """SNL expressed as Fisher information: the generated mean photon number."""
    if not isinstance(z, SqueezingParams):
        z = SqueezingParams(z)
    return z.mean_photons


# ---------------------------------------------------------------------------
# Phase sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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

    @cached_property
    def _shared_text(self) -> dict:
        """repr of every float of the columns both files hold, formatted once
        per report: phase_grid, cfi and, when present, qfi."""
        columns = {"phase_grid": self.phase_grid, "cfi": self.cfi, "qfi": self.qfi}
        return {k: _float_text(v) for k, v in columns.items() if v is not None}

    def to_csv(self, path):
        text = self._shared_text
        n_rows = len(text["phase_grid"])
        nan = [repr(math.nan)] * n_rows
        no_qfi = self.qfi is None
        _write_csv_text(
            path,
            self.metadata,
            "phase,cfi,qfi,snl,cfi_per_photon,qfi_per_photon",
            [
                text["phase_grid"],
                text["cfi"],
                nan if no_qfi else text["qfi"],
                [repr(float(self.snl))] * n_rows,
                _float_text(self.cfi_per_photon),
                nan if no_qfi else _float_text(self.qfi_per_photon),
            ],
        )

    def to_json(self, path):
        """The layout of json.dump(payload, sort_keys=True, indent=2)."""
        text = self._shared_text
        fields = {
            "cfi": _json_floats(text["cfi"]),
            # json strings escape newlines, so each newline here starts a line
            "metadata": json.dumps(self.metadata, sort_keys=True, indent=2).replace(
                "\n", "\n  "
            ),
            "phase_grid": _json_floats(text["phase_grid"]),
            "qfi": "null" if self.qfi is None else _json_floats(text["qfi"]),
            "snl": json.dumps(self.snl),
        }
        with open(path, "w") as fh:
            fh.write("{\n  " + ",\n  ".join(f'"{k}": {v}' for k, v in fields.items()) + "\n}\n")


def _float_text(values) -> list[str]:
    """repr of each float of an array, the spelling of both report files.

    Each distinct float64 bit pattern is formatted once and its text copied to
    the entries that hold it: a mirrored sweep column holds most of its values
    twice. Bit patterns, unlike values, keep -0.0 apart from 0.0
    (docs/decisions.md, entry 14).
    """
    bits = np.asarray(values, dtype=float).ravel().view(np.uint64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = np.array(list(map(repr, distinct.view(float).tolist())), dtype=object)
    return text[inverse].tolist()


def _json_floats(text: list[str]) -> str:
    """repr-formatted floats as an indent=2 json.dump lays out their array one
    level down.

    json writes a finite float as its repr and the others as NaN, Infinity
    and -Infinity, where repr gives nan, inf and -inf; no finite repr holds
    an "n" or an "i", so replacing those words in the joined text respells
    exactly the non-finite values.
    """
    if not text:
        return "[]"
    body = ",\n    ".join(text).replace("nan", "NaN").replace("inf", "Infinity")
    return "[\n    " + body + "\n  ]"


def write_csv(path, metadata: dict, header: str, columns):
    """Write `# key=value` metadata lines, the header, and one row per entry of
    the columns, each value as repr(float). A scalar column holds the same
    value on every row and is formatted once."""
    n_rows = max(np.size(c) for c in columns)
    _write_csv_text(
        path,
        metadata,
        header,
        [[repr(float(c))] * n_rows if np.ndim(c) == 0 else _float_text(c) for c in columns],
    )


def _write_csv_text(path, metadata: dict, header: str, text):
    """write_csv for columns already formatted, one list of strings each."""
    with open(path, "w") as fh:
        for k in sorted(metadata):
            fh.write(f"# {k}={metadata[k]}\n")
        fh.write(header + "\n")
        fh.write("".join([",".join(row) + "\n" for row in zip(*text)]))


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
    comes from the outcome phase series. The lossless QFI does not depend on
    the phase and is computed once (lossless_qfi). The lossy QFI comes from
    the engine's real series of sigma4's two photon-number-parity blocks,
    built once per sweep on dense arrays over the blocks, with one real
    symmetric eigendecomposition per block per evaluated phase. The metadata
    carries
    truncation_mass, the probability the cutoff drops (optics.truncation_mass).

    Both columns are evaluated once per mirror class of the grid and copied to
    the class's other phases: the model is symmetric under theta -> -theta, so
    phases whose keys min(t, 2 pi - t), t = theta mod 2 pi, agree to within
    MIRROR_TOL share one value, computed at the class's lowest-index phase.
    The near-singular outcome count is weighted by class size, so it counts
    every phase of the grid.
    """
    phase_grid = np.asarray(phase_grid, dtype=float)
    if phase_grid.size == 0:
        raise ConfigError("phase grid must be nonempty")
    first, label = _mirror_classes(phase_grid)
    cfi_class, n_suspect, dsum = _cfi_on_grid(
        outcome_series(config, povm_s, povm_i), phase_grid[first]
    )
    _warn_suspects(n_suspect[label])
    _check_derivative_sum(dsum)
    cfi = cfi_class[label]
    qfi = None
    if compute_qfi and config.loss == LossModel():
        qfi = np.full(phase_grid.size, lossless_qfi(config.squeezing, config.cutoff))
    elif compute_qfi:
        eng = InterferometerEngine(config.squeezing, config.loss, config.cutoff)
        qfi_class = np.empty(first.size)
        for cls, th in enumerate(phase_grid[first]):
            qfi_class[cls] = sum(
                quantum_fisher_mixed(*block.at(th)) for block in eng.parity_block_series
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
    # an output of the run, not an input, so it stays out of the fingerprint
    meta["truncation_mass"] = truncation_mass(config.squeezing, config.loss, config.cutoff)
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
    series = outcome_series(config, povm_s, povm_i)

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
