"""Physical model layer: TMSV source, beam splitters, loss, and the
interferometer pipeline sigma1 -> sigma4 as exact phase series.

Beam-splitter convention (pinned): symmetric with reflection phase i, i.e.
a_s^dag -> sqrt(eta) a_s^dag + i sqrt(1-eta) a_i^dag. Any fixed convention only
shifts the interferometer phase by a constant.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError
from .fock import FockCutoff, signal_photon_numbers

_BALANCED = 0.5


@dataclass(frozen=True)
class SqueezingParams:
    """Squeezing parameter z in [0, 1); mean pair photon number 2z^2/(1-z^2)."""

    z: float

    def __post_init__(self):
        if not (0.0 <= self.z < 1.0):
            raise ConfigError(f"squeezing parameter must be in [0, 1), got {self.z}")

    @property
    def mean_photons(self) -> float:
        return 2.0 * self.z**2 / (1.0 - self.z**2)

    @classmethod
    def from_mean_photons(cls, n_bar: float) -> "SqueezingParams":
        """Invert n_bar = 2z^2/(1-z^2); closed form z = sqrt(n_bar/(n_bar+2))."""
        if not 0.0 <= n_bar < math.inf:
            raise ConfigError(f"mean photon number must be finite and >= 0, got {n_bar}")
        return cls(math.sqrt(n_bar / (n_bar + 2.0)))


@dataclass(frozen=True)
class LossModel:
    """Per-arm transmissivities: preparation (before the MZI) and detection (after)."""

    eta_p_s: float = 1.0
    eta_p_i: float = 1.0
    eta_d_s: float = 1.0
    eta_d_i: float = 1.0

    def __post_init__(self):
        for name in ("eta_p_s", "eta_p_i", "eta_d_s", "eta_d_i"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"{name} must be in [0, 1], got {v}")

    @classmethod
    def symmetric(cls, eta: float) -> "LossModel":
        """Equal detection transmissivity eta on both arms."""
        return cls(eta_d_s=eta, eta_d_i=eta)

    def scaled(self, transmission: float) -> "LossModel":
        """Insert an extra common-path sample of the given transmission in both arms."""
        return LossModel(
            self.eta_p_s,
            self.eta_p_i,
            self.eta_d_s * transmission,
            self.eta_d_i * transmission,
        )


@dataclass(frozen=True)
class InterferometerConfig:
    squeezing: SqueezingParams
    loss: LossModel
    phase: float
    cutoff: FockCutoff


# ---------------------------------------------------------------------------
# Source state and beam splitter
# ---------------------------------------------------------------------------

def _bs_block(eta: float, N: int) -> np.ndarray:
    """Real (N+1)x(N+1) beam-splitter block on total photon number N.

    The beam splitter is exp(2i phi J_x), with cos(phi) = sqrt(eta) and
    J_x = (a_s^dag a_i + a_s a_i^dag)/2. On the basis |m, N - m> J_x is
    tridiagonal, with off-diagonal entries sqrt((m + 1)(N - m))/2 and the exact
    eigenvalues m - N/2, so one eigh gives the block (Wigner d by exact
    diagonalization: Feng, Wang, Yang & Jin, PRE 92, 043307 (2015)). Its
    entries U[m', m] are i^(m + m') times a real number; the block returned is
    that real R[m', m] = i^-(m + m') U[m', m]. Column m is the input |m, N-m>.
    """
    m = np.arange(N + 1)
    off = 0.5 * np.sqrt(m[1:] * (N - m[:-1]))
    _, V = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    U = (V * np.exp(2j * math.acos(math.sqrt(eta)) * (m - 0.5 * N))) @ V.T
    ph = np.array([1, -1j, -1, 1j])[m % 4]  # i^-m
    return (ph[:, None] * U * ph[None, :]).real


@lru_cache(maxsize=64)
def _bs_rephased(eta: float, max_photons: int) -> np.ndarray:
    """Joint-space beam splitter U in the real rephased basis, R = P^dag U P^dag
    with P = diag(i^n_s), block-diagonal in total photon number.

    It holds the complete blocks N = n_s + n_i <= max_photons and is zero on
    every joint index with N > max_photons, whose sectors the per-mode cutoff
    holds only in part. So U is unitary on the sectors N <= M and zero
    elsewhere, and every path built on it keeps only those sectors
    (docs/decisions.md, entry 8).
    """
    d = max_photons + 1
    R = np.zeros((d * d, d * d))
    for N in range(d):
        ks = np.arange(N + 1)
        idx = ks * d + (N - ks)
        R[np.ix_(idx, idx)] = _bs_block(eta, N)
    R.flags.writeable = False
    return R


def _kept_sectors(cutoff: FockCutoff) -> np.ndarray:
    """(d, d) mask of the pairs (n_s, n_i) with n_s + n_i <= M: the complete
    photon-number sectors, the only ones the model keeps (_bs_rephased)."""
    n = np.arange(cutoff.dim)
    return np.add.outer(n, n) <= cutoff.max_photons


# ---------------------------------------------------------------------------
# Loss channels
# ---------------------------------------------------------------------------

def binomial_population_matrix(eta: float, d: int) -> np.ndarray:
    """B[m, k] = P(m photons survive of k) under transmissivity eta.

    Each entry is comb(k, m) * eta**m * (1 - eta)**(k - m), multiplied in that
    order from Python's scalar powers, so the array is bit-identical to
    filling it element by element.
    """
    comb, lost = _binomial_tables(d)
    kept_pow = np.array([eta**m for m in range(d)])
    lost_pow = np.array([(1.0 - eta) ** j for j in range(d)])
    # comb is 0 above the diagonal, so the clipped lost index yields exact zeros
    return comb * kept_pow[:, None] * lost_pow[lost]


@lru_cache(maxsize=32)
def _binomial_tables(d: int):
    """comb[m, k] = C(k, m) as floats and the photons lost, max(k - m, 0)."""
    n = np.arange(d)
    comb = np.array([[math.comb(k, m) for k in range(d)] for m in range(d)], dtype=float)
    lost = np.clip(n[None, :] - n[:, None], 0, None)
    comb.flags.writeable = False
    lost.flags.writeable = False
    return comb, lost


def binomial_derivative(B: np.ndarray) -> np.ndarray:
    """dB/d(eta) for B = binomial_population_matrix(eta, d), from
    dB[m, k] = k (B[m - 1, k - 1] - B[m, k - 1]), with B[-1, :] = 0."""
    prev = np.zeros_like(B)
    prev[:, 1:] = B[:, :-1]
    lower = np.zeros_like(B)
    lower[1:] = prev[:-1]
    return np.arange(B.shape[1]) * (lower - prev)


def block_shift_plan(blocks, d: int):
    """Pure loss's photon shifts on a density operator held as dense blocks
    (docs/decisions.md, entry 13).

    blocks lists, per block, the joint indices n_s * d + n_i of its states; a
    block array X[r] holds (n_r, n_r, ...) values over them. Loss on one mode
    keeps n - n' there and lowers both sides by the same l (its Kraus set
    K_l[n - l, n] = sqrt(B[n - l, n])), so the states of one block with l more
    photons in the mode lie in one block. Returns (d, modes), where
    modes[mode][r], for mode 0 (signal) or 1 (idler), is (diag, shifts):
    diag indexes B[x, x] in the flattened B for the photons x of block r's
    states in that mode, and shifts holds, per l = 1..d-1 with a source,
    (dst, src_block, src, off): the sub-block (np.ix_) of the rows whose state
    with l more photons is held, the block holding those states, the
    sub-block of their rows there, and the flat indices of B[x, x + l] on the
    rows. A state not held is read as 0.
    """
    where = np.full(d * d, -1)
    pos = np.zeros(d * d, dtype=int)
    for r, b in enumerate(blocks):
        where[b], pos[b] = r, np.arange(b.size)
    modes = []
    for mode, step in ((0, d), (1, 1)):  # joint-index step of one photon in the mode
        per_block = []
        for b in blocks:
            x = np.divmod(b, d)[mode]
            shifts = []
            for l in range(1, d):
                dst = np.flatnonzero(x + l < d)
                src = b[dst] + l * step
                held = where[src] >= 0
                dst, src = dst[held], src[held]
                if dst.size:
                    rows = pos[src]
                    off = x[dst] * (d + 1) + l
                    shifts.append((np.ix_(dst, dst), int(where[src[0]]), np.ix_(rows, rows), off))
            per_block.append((x * (d + 1), shifts))
        modes.append(per_block)
    return d, modes


def block_loss(X: list, plan, eta: float, mode: int) -> list:
    """Pure loss of transmissivity eta on the signal (mode 0) or idler (mode
    1) of the block arrays X under block_shift_plan's plan: row u and column
    u' of a block, with x and y photons in the mode, read the entries l
    photons up in the source block, out = sum_l k_l[x] k_l[y] X_src, with
    k_l[x] = sqrt(B[x, x + l]). Each X[r] is (n_r, n_r, W); the trailing
    axis is carried along."""
    if eta == 1.0:
        return X
    d, modes = plan
    k = np.sqrt(binomial_population_matrix(eta, d)).ravel()
    out = []
    for Xr, (diag, shifts) in zip(X, modes[mode]):
        kx = k[diag]
        Y = Xr * np.multiply.outer(kx, kx)[..., None]
        for dst, src_block, src, off in shifts:
            kl = k[off]
            Y[dst] += X[src_block][src] * np.multiply.outer(kl, kl)[..., None]
        out.append(Y)
    return out


@lru_cache(maxsize=8)
def _parity_blocks(max_photons: int):
    """(blocks, plan): the joint indices of the kept sectors n_s + n_i <= M
    with even and with odd n_s + n_i, and their block_shift_plan. Loss keeps
    n - n' on each mode and lowers N on both sides together, so the source of
    an entry of a block lies in a block (an odd l reads the other one), or in
    a sector N > M, which the beam splitter leaves at 0."""
    d = max_photons + 1
    N = np.add.outer(np.arange(d), np.arange(d)).ravel()
    kept = _kept_sectors(FockCutoff(max_photons)).ravel()
    blocks = tuple(np.flatnonzero(kept & (N % 2 == r)) for r in (0, 1))
    for b in blocks:
        b.flags.writeable = False
    return blocks, block_shift_plan(blocks, d)


# ---------------------------------------------------------------------------
# Interferometer pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseSeries:
    """Exact cosine series f(theta) = sum_{w=0..W} a_w cos(w theta).

    coeffs[w] holds a_w; any trailing axes are the shape of f. Every outcome
    probability of this model is even in theta (pair_sector_map), so it has no
    sine terms. The derivative is exact: -sum_{w=1..W} w a_w sin(w theta).
    Evaluating a phase grid is one real matrix product: the table of
    cos(w theta) times a for f, the table of sin(w theta) times -w a for
    df/dtheta.
    """

    coeffs: np.ndarray

    @property
    def _rows(self) -> np.ndarray:
        """The coefficients flattened to one row per w."""
        return self.coeffs.reshape(self.coeffs.shape[0], -1)

    @cached_property
    def support(self) -> "PhaseSeries":
        """The series over the flattened entries whose coefficients are not
        all zero, in their order; the series itself when none is zero. The
        others are 0 at every phase, as is their derivative: for an outcome
        series, the outcomes no kept sector N <= M reaches (docs/decisions.md,
        entry 14)."""
        keep = np.any(self._rows != 0.0, axis=0)
        return self if keep.all() else PhaseSeries(self._rows[:, keep])

    def values(self, thetas) -> np.ndarray:
        """f at each phase; shape thetas.shape + the coefficients' trailing shape."""
        return self._evaluate(thetas, np.cos, np.arange(self._rows.shape[0]), self._rows)

    def derivatives(self, thetas) -> np.ndarray:
        """df/dtheta at each phase, in the shape of values()."""
        w = np.arange(1, self._rows.shape[0])
        return self._evaluate(thetas, np.sin, w, -w[:, None] * self._rows[1:])

    def _evaluate(self, thetas, trig, w, rows) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        out = trig(np.multiply.outer(thetas.ravel(), w)) @ rows
        return out.reshape(thetas.shape + self.coeffs.shape[1:])


@dataclass(frozen=True)
class SymmetricSeries:
    """Exact real-symmetric-matrix trigonometric polynomial
    H(theta) = sum_{w=0..W} coeffs[..., w] t_w(theta), with t_w = sin(w theta)
    on the entries where `odd` holds and cos(w theta) on the others.

    coeffs is element-major, (n, n, W + 1), and symmetric in its first two
    axes, as `odd` is, so H and dH are exactly symmetric. The derivative is
    exact term by term: cos(w theta) -> -w sin(w theta), sin(w theta) ->
    w cos(w theta).
    """

    coeffs: np.ndarray
    odd: np.ndarray

    def at(self, theta: float) -> tuple[np.ndarray, np.ndarray]:
        """(H(theta), dH/dtheta) at one phase, as float64 arrays."""
        w = np.arange(self.coeffs.shape[-1])
        c, s = np.cos(theta * w), np.sin(theta * w)
        f = self.coeffs.reshape(-1, w.size) @ np.stack((c, s, -w * s, w * c), axis=1)
        odd = self.odd.ravel()
        return tuple(
            np.where(odd, f[:, k + 1], f[:, k]).reshape(self.odd.shape) for k in (0, 2)
        )


def pair_distribution(z: float, eta_s: float, eta_i: float, d: int) -> np.ndarray:
    """q[a, b] = P(a signal and b idler photons) after preparation loss.

    The TMSV populates only |n, n>, with weight (1 - z^2) z^(2n), and each arm
    loses photons binomially: q = B(eta_s) diag((1 - z^2) z^(2n)) B(eta_i)^T.
    """
    pairs = (1.0 - z * z) * z ** (2 * np.arange(d))
    return (binomial_population_matrix(eta_s, d) * pairs) @ binomial_population_matrix(eta_i, d).T


def truncation_mass(squeezing: SqueezingParams, loss: LossModel, cutoff: FockCutoff) -> float:
    """Probability the model drops at this cutoff M: the pairs n > M the
    truncated TMSV never holds, z^(2(M+1)), plus the pair distribution on the
    sectors a + b > M, which no path reads (_bs_rephased). Every later stage
    maps the sectors N <= M into themselves, so each outcome distribution is
    a sub-measure of the untruncated one whose total falls short by exactly
    this mass (docs/decisions.md, entry 8). A sum of positive terms, so it
    avoids the cancellation in 1 - sum(q)."""
    q = pair_distribution(squeezing.z, loss.eta_p_s, loss.eta_p_i, cutoff.dim)
    dropped = q[~_kept_sectors(cutoff)].sum()
    return float(squeezing.z ** (2 * cutoff.dim) + dropped)


@dataclass(frozen=True)
class PairSectorMap:
    """Linear map from the pair distribution q to the pre-detection populations.

    Output joint index k = (k_s, k_i) of total photon number N_k reads q only
    at (a, N_k - a): out[..., k] = sum_a coeffs[..., k, a] q[a, N_k - a].
    cols[k, a] is the joint index of (a, N_k - a), clipped into range where
    N_k - a is not a photon number; coeffs is 0 there, and on every output with
    N_k > M, a sector the model drops (_bs_rephased). The leading axis of
    coeffs holds the cosine coefficients w = 0..M of a phase series or, after
    at_phases, a grid of phases.
    """

    coeffs: np.ndarray
    cols: np.ndarray

    def apply(self, q: np.ndarray) -> np.ndarray:
        """The map applied to q; shape (leading axes) + q.shape."""
        out = np.einsum("...ka,ka->...k", self.coeffs, q.reshape(-1)[self.cols])
        return out.reshape(out.shape[:-1] + q.shape)

    def at_phases(self, thetas) -> "PairSectorMap":
        """The map at fixed phases, its phase series evaluated: one slice per phase."""
        return PairSectorMap(PhaseSeries(self.coeffs).values(thetas), self.cols)


@lru_cache(maxsize=8)
def pair_sector_map(max_photons: int) -> PairSectorMap:
    """Pair distribution -> cosine coefficients of diag(sigma3(theta)).

    Every stage before detection conserves N = n_s + n_i, and preparation loss
    leaves each fixed-N block of sigma2 diagonal, with q[a, N - a] on its
    diagonal. The amplitude of output k from input (a, N - a) is
    sum_m g[k, m, a] exp(i theta (m - N/2)), with
    g[k, m, a] = U[k, (m, N - m)] U[(m, N - m), (a, N - a)] for the balanced
    beam splitter U = P R P, R = _bs_rephased. Since P = diag(i^n_s),
    g = i^(k_s + a) (-1)^m G with G[k, m, a] = R[k, (m, N - m)] R[(m, N - m),
    (a, N - a)] real, so the coefficient of exp(i w theta) in diag(sigma3)[k],
    sum_a sum_{m - x = w} g[k, m, a] conj(g[k, x, a]) q[a, N - a], has the real
    kernel (-1)^w sum_{m - x = w} G[k, m, a] G[k, x, a], the same for w and -w.
    The populations are therefore even in theta, with cosine coefficients
    T[w] = (2 - [w = 0]) (-1)^w sum_{m - x = w} G[k, m, a] G[k, x, a].
    Costs O(d^5) once per cutoff; the returned arrays are read-only.
    """
    d = max_photons + 1
    R = _bs_rephased(_BALANCED, max_photons)
    k_s, k_i = np.divmod(np.arange(d * d), d)
    n = np.arange(d)
    # joint index of (n, N_k - n); where N_k - n falls outside [0, M], the
    # clipped index lies in another N-block and R is 0 there, as it is on
    # every row k with N_k > M
    cols = n[None, :] * d + np.clip((k_s + k_i)[:, None] - n[None, :], 0, max_photons)
    G = np.take_along_axis(R, cols, axis=1)[:, :, None] * R[cols[:, :, None], cols[:, None, :]]
    T = np.empty((d, d * d, d))
    for w in range(d):
        T[w] = (2 - (w == 0)) * (-1) ** w * np.sum(G[:, w:, :] * G[:, : d - w, :], axis=1)
    T.flags.writeable = False
    cols.flags.writeable = False
    return PairSectorMap(T, cols)


def detection_sides(eta_s: float, eta_i: float, ths: np.ndarray, thi: np.ndarray):
    """Each arm's detection binomial folded into its POVM slice: (left, right,
    d_left, d_right), with left = ths^T B(eta_s) and right = B(eta_i)^T thi,
    so that P = left @ diag(sigma3) @ right, and their derivatives in eta."""
    d = ths.shape[0]
    b_s, b_i = binomial_population_matrix(eta_s, d), binomial_population_matrix(eta_i, d)
    db_s, db_i = binomial_derivative(b_s), binomial_derivative(b_i)
    return ths.T @ b_s, b_i.T @ thi, ths.T @ db_s, db_i.T @ thi


def outcome_probabilities(pair_map: PairSectorMap, q: np.ndarray, left, right) -> np.ndarray:
    """P(j, k) = left @ pair_map(q) @ right over the map's leading axes: the
    outcome series' coefficients from pair_sector_map, or the probabilities
    from that map at fixed phases. P is linear in q and in each side, so a
    derivative is this product with one of them replaced by its derivative."""
    return left @ pair_map.apply(q) @ right


def outcome_phase_series(squeezing, loss, cutoff, ths, thi) -> PhaseSeries:
    """P(j, k; theta) under the POVM slices ths, thi as an exact phase series:
    the pair distribution, the pair-sector map and the detection fold."""
    left, right, _, _ = detection_sides(loss.eta_d_s, loss.eta_d_i, ths, thi)
    q = pair_distribution(squeezing.z, loss.eta_p_s, loss.eta_p_i, cutoff.dim)
    return PhaseSeries(outcome_probabilities(pair_sector_map(cutoff.max_photons), q, left, right))


def phase_generator(cutoff: FockCutoff) -> np.ndarray:
    """g = (n_s - n_i)/2 per joint index. Photon-number-diagonal detection is
    blind to a phase common to both arms, so the quantum bound is evaluated
    for the differential phase; the single-arm generator n_s would add the
    (unmeasured) common phase's information and double it."""
    n = np.arange(cutoff.dim, dtype=float)
    return 0.5 * (n[:, None] - n[None, :]).ravel()


class InterferometerEngine:
    """Precomputed sigma1 -> sigma4 pipeline for the lossy QFI.

    sigma3(theta) differs from the fixed conjugation A = U_bs sigma2 U_bs^dag
    only by an elementwise phase factor exp(i theta (g_j - g_k)); split by
    frequency, this gives the QFI its series of sigma4's parity blocks
    (parity_block_series), each block real symmetric at every phase. Every
    stage works on dense arrays over those blocks: sigma2 is a masked Gram
    product on each (sigma2_blocks), and loss maps a block onto a sub-block
    of one block (block_loss). The populations are the outcome series under
    identity POVM slices.
    """

    def __init__(self, squeezing: SqueezingParams, loss: LossModel, cutoff: FockCutoff):
        self.squeezing = squeezing
        self.loss = loss
        self.cutoff = cutoff
        # sigma4 is 0 outside the sectors n_s + n_i <= M that the beam
        # splitter keeps, and every stage conserves the parity of n_s + n_i,
        # so sigma4 and its derivative are block-diagonal over these two
        # index sets.
        self.parity_blocks, self._shifts = _parity_blocks(cutoff.max_photons)

    def sigma2_blocks(self) -> list[np.ndarray]:
        """The density operator after preparation loss on each of
        parity_blocks, as real (n_r, n_r) arrays (docs/decisions.md, entry 13).

        Loss of l_s signal and l_i idler photons takes the pair |n, n> to
        |n - l_s, n - l_i> with amplitude c_n sqrt(B_s[n - l_s, n]
        B_i[n - l_i, n]), c_n the TMSV amplitudes, so sigma2 is the sum of the
        rank-one branches (l_s, l_i). States u = (s, i) share a branch where
        l_s = n - s agrees and s - i = l_i - l_s agrees, so on a block
        sigma2 = (v v^T) o [s_u - i_u = s_u' - i_u'], with
        v[u, l] = c_n sqrt(B_s[s, n] B_i[i, n]) at n = s + l <= M.
        """
        z, M = self.squeezing.z, self.cutoff.max_photons
        d = M + 1
        c = math.sqrt(1.0 - z**2) * z ** np.arange(d)
        root_s = np.sqrt(binomial_population_matrix(self.loss.eta_p_s, d))
        root_i = np.sqrt(binomial_population_matrix(self.loss.eta_p_i, d))
        blocks = []
        for b in self.parity_blocks:
            s, i = np.divmod(b, d)
            n = s[:, None] + np.arange(d)
            m = np.minimum(n, M)
            v = np.where(n <= M, c[m] * root_s[s[:, None], m] * root_i[i[:, None], m], 0.0)
            blocks.append(np.where(np.subtract.outer(s - i, s - i) == 0, v @ v.T, 0.0))
        return blocks

    @cached_property
    def parity_block_series(self) -> tuple[SymmetricSeries, ...]:
        """sigma4(theta) restricted to each of parity_blocks, as exact real series.

        Within a parity block the phase factor's frequencies g_j - g_k are the
        integers -M..M, and detection loss is linear, so the block is
        sum_w exp(i w theta) S_w with S_w = Lambda_d(U_bs (A o [g_j - g_k = w])
        U_bs^dag) restricted to it; S_{-w} = S_w^dag because A is Hermitian.

        The terms are built in real arithmetic. With U_bs = P R P,
        P = diag(i^n_s), and sigma2 supported on s_j - s_k = i_j - i_k,
        S_w = V Y_w V^dag with Y_w = Lambda_d(R (C o [g_j - g_k = w]) R^T),
        C = D R sigma2 R^T D, D = P^2 = diag((-1)^n_s), and the phases
        V_j conj(V_k) = i^t, t = s_j - s_k + (N_j - N_k)/2, which loss leaves
        unchanged (docs/decisions.md, entry 10). Each block costs 2(M + 1)
        matrix products of its own size, once per engine.

        Entry (j, k) of the block is then i^t sum_w (cos(w theta) (Y_w +
        Y_w^T) + i sin(w theta) (Y_w - Y_w^T)), and the block is real
        (docs/decisions.md, entry 11): where t is even only the cosine terms
        remain, with sign i^t, and where t is odd only the sine terms, with
        sign i^(t + 1). So one real table per block holds the series; the
        detection-lossy Y_w are overwritten with it in place.
        """
        M = self.cutoff.max_photons
        d = M + 1
        R = _bs_rephased(_BALANCED, M)
        g = phase_generator(self.cutoff)
        sign = 1.0 - 2.0 * (signal_photon_numbers(self.cutoff) % 2)
        w = np.arange(M + 1)[:, None, None]
        X = []  # per block, (n, n, M + 1)
        for b, sigma2 in zip(self.parity_blocks, self.sigma2_blocks()):
            Rb = R[np.ix_(b, b)]
            C = sign[b, None] * (Rb @ sigma2 @ Rb.T) * sign[None, b]
            omega = g[b, None] - g[None, b]
            X.append((Rb @ np.where(omega == w, C, 0.0) @ Rb.T).transpose(1, 2, 0).copy())
        # one mode at a time, so each pass's input is freed before the next
        X = block_loss(X, self._shifts, self.loss.eta_d_s, 0)
        X = block_loss(X, self._shifts, self.loss.eta_d_i, 1)
        series = []
        for b, Y in zip(self.parity_blocks, X):
            s, i = np.divmod(b, d)
            t = np.subtract.outer(s, s) + np.subtract.outer(s + i, s + i) // 2
            odd = t % 2 == 1
            mirror = Y.transpose(1, 0, 2).copy()  # Y^T
            mirror[odd] *= -1.0
            Y += mirror
            Y *= np.array([1.0, -1.0, -1.0, 1.0])[t % 4][..., None]  # i^t, or i^(t + 1)
            Y[..., 0] *= 0.5
            series.append(SymmetricSeries(Y, odd))
        return tuple(series)

    def populations(self, theta: float) -> np.ndarray:
        """diag(sigma4) as a (d, d) array over (n_s, n_i)."""
        eye = np.eye(self.cutoff.dim)
        return outcome_phase_series(self.squeezing, self.loss, self.cutoff, eye, eye).values(theta)

    def dpopulations(self, theta: float) -> np.ndarray:
        eye = np.eye(self.cutoff.dim)
        series = outcome_phase_series(self.squeezing, self.loss, self.cutoff, eye, eye)
        return series.derivatives(theta)
