"""Shared fixtures and reference implementations for the test suite.

The brute-force oracles deliberately avoid the library's own construction
paths: beam splitters come from scipy's matrix exponential of the two-mode
generator, loss from explicit binomial matrices, derivatives from central
finite differences. The dense references (dense_psi3, dense_sigma3,
dense_sigma4, loss_superoperator, dense_loss, loss_via_ancilla) are the
per-phase d^2 x d^2 paths that the library's phase series, closed-form
lossless QFI and block-shift loss replaced; they build sigma2 themselves,
from the TMSV through dense_loss, and serve as the tests' oracles. The
complex beam splitter (_bs_matrix) and the TMSV amplitudes (tmsv_state) are
the library's former joint-space forms, kept as oracles. The row-by-row
writers (loop_report_csv,
loop_report_json, loop_write_csv) are the report writers that the
column-wise ones replaced, kept as byte-for-byte oracles.
"""

import json
import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import comb

from tmsvfisher import FockCutoff
from tmsvfisher.optics import (
    _BALANCED,
    _bs_rephased,
    binomial_population_matrix,
    block_loss,
    block_shift_plan,
)


@pytest.fixture
def cutoff6():
    return FockCutoff(6)


@pytest.fixture
def cutoff10():
    return FockCutoff(10)


def tmsv_state(z: float, cutoff: FockCutoff) -> np.ndarray:
    """Truncated TMSV as a (d, d) amplitude array c[n_s, n_i]: sqrt(1-z^2) z^n
    on |n, n>."""
    d = cutoff.dim
    amps = np.zeros((d, d), dtype=complex)
    amps[np.arange(d), np.arange(d)] = math.sqrt(1.0 - z**2) * z ** np.arange(d)
    return amps


def _bs_matrix(eta: float, max_photons: int) -> np.ndarray:
    """Joint-space beam splitter U = P R P, with R = _bs_rephased and P = diag(i^n_s)."""
    d = max_photons + 1
    ph = np.array([1, 1j, -1, -1j])[np.arange(d * d) // d % 4]
    return ph[:, None] * _bs_rephased(eta, max_photons) * ph[None, :]


def annihilation(d: int) -> np.ndarray:
    a = np.zeros((d, d))
    for n in range(1, d):
        a[n - 1, n] = np.sqrt(n)
    return a


def bs_expm(eta: float, d: int) -> np.ndarray:
    """Two-mode 50:50-convention beam splitter from the matrix exponential.

    Matches the library's symmetric convention (reflection phase i):
    U = exp(i * phi * (a^dag b + a b^dag)) with cos(phi) = sqrt(eta).
    Uses an enlarged space internally so truncation error stays in the
    high-photon tail.
    """
    a = annihilation(d)
    eye = np.eye(d)
    G = np.kron(a.T, eye) @ np.kron(eye, a)
    H = G + G.conj().T
    phi = np.arccos(np.sqrt(eta))
    return expm(1j * phi * H)


def binomial_loss_matrix(eta: float, d: int) -> np.ndarray:
    """B[m, n] = P(m photons survive | n incident) under transmissivity eta."""
    B = np.zeros((d, d))
    for n in range(d):
        for m in range(n + 1):
            B[m, n] = comb(n, m) * eta**m * (1 - eta) ** (n - m)
    return B


def tmsv_vector(z: float, d: int) -> np.ndarray:
    """Joint (d*d,) TMSV amplitudes, signal-major index."""
    v = np.zeros(d * d)
    for n in range(d):
        v[n * d + n] = np.sqrt(1 - z**2) * z**n
    return v


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random full-rank density matrix via a Ginibre ensemble draw."""
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def difference_generator(d: int) -> np.ndarray:
    """(n_s - n_i)/2 per joint index, the phase generator of the engine."""
    n = np.arange(d)
    return 0.5 * (n[:, None] - n[None, :]).ravel()


def loss_superoperator(eta: float, d: int) -> np.ndarray:
    """One-mode pure-loss channel as a (d^2, d^2) superoperator on (n, n') pairs.

    L[(x, y), (a, c)] = sum_l K_l[x, a] K_l[y, c] for the Kraus set
    K_l[n - l, n] = sqrt(C(n, l) eta^(n - l) (1 - eta)^l), where K_l removes l
    photons; it is nonzero only where a - x = c - y = l, and there equals
    sqrt(B[x, a] B[y, c]) with B the binomial survival matrix.
    """
    B = binomial_population_matrix(eta, d)
    n = np.arange(d)
    lost = n[None, :] - n[:, None]  # a - x
    same = lost[:, None, :, None] == lost[None, :, None, :]
    L = np.where(same, np.sqrt(B[:, None, :, None] * B[None, :, None, :]), 0.0)
    return L.reshape(d * d, d * d)


def dense_loss(rho: np.ndarray, d: int, eta_s: float = 1.0, eta_i: float = 1.0) -> np.ndarray:
    """Loss superoperators on the signal and idler modes of a joint density
    operator: L_s R L_i^T, with R = rho regrouped over (s, s') x (i, i')."""
    R = rho.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    R = loss_superoperator(eta_s, d) @ R @ loss_superoperator(eta_i, d).T
    return R.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def dense_sigma2(eng) -> np.ndarray:
    """The engine config's sigma2 as a dense matrix: the TMSV's density
    operator through dense_loss with the preparation transmissivities."""
    psi = tmsv_vector(eng.squeezing.z, eng.cutoff.dim)
    return dense_loss(np.outer(psi, psi), eng.cutoff.dim, eng.loss.eta_p_s, eng.loss.eta_p_i)


def dense_sigma3(eng, theta: float, g=None):
    """(sigma3, dsigma3) at theta as dense matrices: the phase factor
    exp(i theta g) conjugating A = U sigma2 U^dag, with dense_sigma2, then
    the second beam splitter. g defaults to the engine's generator
    (n_s - n_i)/2."""
    if g is None:
        g = difference_generator(eng.cutoff.dim)
    U = _bs_matrix(_BALANCED, eng.cutoff.max_photons)
    Uh = U.conj().T
    e = np.exp(1j * theta * g)
    F = np.outer(e, e.conj()) * (U @ dense_sigma2(eng) @ Uh)
    dF = 1j * (g[:, None] * F - F * g[None, :])
    return U @ F @ Uh, U @ dF @ Uh


def dense_psi3(eng, theta: float):
    """(psi3, dpsi3) at theta for a lossless engine: the phase factor
    exp(i theta g) on a = U |TMSV>, then the second beam splitter."""
    d = eng.cutoff.dim
    g = difference_generator(d)
    U = _bs_matrix(_BALANCED, eng.cutoff.max_photons)
    a = U @ tmsv_vector(eng.squeezing.z, d)
    e = np.exp(1j * theta * g)
    return U @ (e * a), U @ (1j * g * e * a)


def dense_sigma4(eng, theta: float, g=None):
    """(sigma4, dsigma4) at theta: dense_sigma3 through the dense detection loss."""
    etas = (eng.loss.eta_d_s, eng.loss.eta_d_i)
    return tuple(dense_loss(x, eng.cutoff.dim, *etas) for x in dense_sigma3(eng, theta, g))


def series_sigma4(eng, theta: float):
    """(sigma4, dsigma4) at theta assembled from the engine's parity-block series."""
    D = eng.cutoff.joint_dim
    rho, drho = np.zeros((D, D), dtype=complex), np.zeros((D, D), dtype=complex)
    for block, b in zip(eng.parity_block_series, eng.parity_blocks):
        rho[np.ix_(b, b)], drho[np.ix_(b, b)] = block.at(theta)
    return rho, drho


def joint_loss(rho: np.ndarray, d: int, mode: str, eta: float) -> np.ndarray:
    """The library's block-shift loss kernel (optics.block_loss) on one mode
    of a joint density operator, held as one block over the whole joint grid."""
    plan = block_shift_plan((np.arange(d * d),), d)
    return block_loss([rho[..., None]], plan, eta, 0 if mode == "s" else 1)[0][..., 0]


def loss_via_ancilla(rho: np.ndarray, d: int, mode: str, eta: float) -> np.ndarray:
    """Pure loss on one mode of a joint density operator by a fictitious beam
    splitter: a vacuum ancilla, the library's beam splitter of transmissivity
    eta on (ancilla, mode), and the trace over the ancilla. The ancilla starts
    in vacuum, so every engaged total-N block of that beam splitter is complete."""
    if mode == "i":
        def swap(r):
            return r.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)

        return swap(loss_via_ancilla(swap(rho), d, "s", eta))
    vac = np.zeros((d, d), dtype=complex)
    vac[0, 0] = 1.0
    U3 = np.kron(_bs_matrix(eta, d - 1), np.eye(d))  # (ancilla, s) coupled, i untouched
    rho3 = U3 @ np.kron(vac, rho) @ U3.conj().T
    return np.einsum("axay->xy", rho3.reshape(d, d * d, d, d * d))


def loop_report_csv(report, path):
    """A FisherReport's CSV, one formatted row per phase."""
    with open(path, "w") as fh:
        for k in sorted(report.metadata):
            fh.write(f"# {k}={report.metadata[k]}\n")
        fh.write("phase,cfi,qfi,snl,cfi_per_photon,qfi_per_photon\n")
        qfi = report.qfi if report.qfi is not None else np.full_like(report.cfi, np.nan)
        cpp = report.cfi_per_photon
        qpp = report.qfi_per_photon
        qpp = qpp if qpp is not None else np.full_like(report.cfi, np.nan)
        for i, th in enumerate(report.phase_grid):
            fh.write(
                f"{float(th)!r},{float(report.cfi[i])!r},{float(qfi[i])!r},"
                f"{float(report.snl)!r},{float(cpp[i])!r},{float(qpp[i])!r}\n"
            )


def loop_report_json(report, path):
    """A FisherReport's JSON through json.dump's pure-Python indenting encoder."""
    payload = {
        "metadata": report.metadata,
        "snl": report.snl,
        "phase_grid": [float(x) for x in report.phase_grid],
        "cfi": [float(x) for x in report.cfi],
        "qfi": None if report.qfi is None else [float(x) for x in report.qfi],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def loop_write_csv(path, meta, header, rows):
    """The CLI's table CSV (loss-scan, bootstrap), one formatted row at a time."""
    with open(path, "w") as fh:
        for k in sorted(meta):
            fh.write(f"# {k}={meta[k]}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(
                ",".join(repr(float(x)) if isinstance(x, float) else str(x) for x in row)
                + "\n"
            )
