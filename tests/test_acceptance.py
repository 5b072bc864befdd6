"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line. Criterion 1 checks the model's sub-SNL
fraction under the published parameters against an independent oracle built
from the brute-force helpers in ``tests/conftest.py`` and against the analytic
pair-sector plateau 2*eta_s*eta_i*n_bar. The idealized model gives 2004/2048
(0.9785); the experiment's 0.62 is printed as a reference only, since it stems
from non-idealities the model omits (see docs/decisions.md, entry 1).
"""

import math
import time

import numpy as np
import pytest

from tmsvfisher import (
    FockCutoff,
    InterferometerConfig,
    LossModel,
    ProbeSet,
    SqueezingParams,
    click_povm_from,
    coherent_probe_matrix,
    efficiency_povm,
    fit_model,
    ideal_pnr_povm,
    max_cfi_over_phase,
    pnr_click_ratio,
    quantum_fisher_mixed,
    simulate_counts,
    bootstrap_ci,
    sub_snl_fraction,
    sweep_fisher,
    tomography_mle,
)
from tmsvfisher.detectors import dense_probe_ladder, simulate_response
from tmsvfisher.metrology import default_phase_grid
from tmsvfisher.optics import InterferometerEngine

from conftest import (
    binomial_loss_matrix,
    bs_expm,
    dense_sigma4,
    joint_loss,
    loss_via_ancilla,
    random_density,
    series_sigma4,
    tmsv_vector,
)

N_BAR_EXP = 3.631e-3
ETA_S_EXP = 0.805
ETA_I_EXP = 0.815


def report(num, name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    return ok


def _experiment_config(loss, phase=0.0, max_photons=10):
    return InterferometerConfig(
        SqueezingParams.from_mean_photons(N_BAR_EXP), loss, phase, FockCutoff(max_photons)
    )


def _cfi_at(loss, phase, pnr, max_photons=10):
    cfg = _experiment_config(loss, phase, max_photons)
    return sweep_fisher(cfg, [phase], pnr, pnr, compute_qfi=False).cfi[0]


def _bisect_threshold(predicate, lo=0.0, hi=0.6, tol=1e-4):
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _oracle_sweep_cfi(n_bar, eta_s, eta_i, phases, max_photons=10):
    """Per-phase CFI of the ideal-PNR sweep from the conftest oracles alone.

    The TMSV truncated at max_photons per mode reaches total photon number
    2*max_photons, so the expm beam splitter is built with d = 2*max_photons + 1
    per mode, where every such block is complete. The phase acts as
    exp(i theta (n_s - n_i)/2); it differs from a signal-only phase by a global
    exp(-i theta N/2), which no number-resolving population can see.
    """
    d_src, d = max_photons + 1, 2 * max_photons + 1
    z = math.sqrt(n_bar / (n_bar + 2.0))
    psi1 = np.zeros((d, d))
    psi1[:d_src, :d_src] = tmsv_vector(z, d_src).reshape(d_src, d_src)
    U = bs_expm(0.5, d)
    n = np.arange(d)
    gen = (0.5 * (n[:, None] - n[None, :])).ravel()
    a = (U @ psi1.ravel())[:, None]
    E = np.exp(1j * np.outer(gen, phases))
    psi = U @ (E * a)
    dpsi = U @ (1j * gen[:, None] * E * a)
    Bs, Bi = binomial_loss_matrix(eta_s, d), binomial_loss_matrix(eta_i, d)

    def detect(pops):
        out = np.einsum("ms,sit,ni->mnt", Bs, pops.reshape(d, d, -1), Bi)
        return out.reshape(d * d, -1)

    p = detect(np.abs(psi) ** 2)
    dp = detect(2.0 * np.real(psi.conj() * dpsi))
    keep = p > 1e-15
    return np.sum(np.where(keep, dp**2 / np.where(keep, p, 1.0), 0.0), axis=0)


def test_criterion_1_sub_snl_fraction():
    n_phases = 2048
    pnr = ideal_pnr_povm(10, 10)
    cfg = _experiment_config(LossModel(eta_d_s=ETA_S_EXP, eta_d_i=ETA_I_EXP))
    t0 = time.time()
    rep = sweep_fisher(cfg, default_phase_grid(n_phases), pnr, pnr, compute_qfi=False)
    elapsed = time.time() - t0
    frac = sub_snl_fraction(rep)
    n_sub = round(frac * n_phases)

    oracle_phases = 2.0 * math.pi * np.arange(n_phases) / n_phases
    oracle = _oracle_sweep_cfi(N_BAR_EXP, ETA_S_EXP, ETA_I_EXP, oracle_phases)
    n_sub_oracle = int(np.sum(oracle > N_BAR_EXP))
    cfi_err = float(np.max(np.abs(rep.cfi - oracle)))
    plateau = float(np.median(rep.cfi)) / N_BAR_EXP
    plateau_target = 2.0 * ETA_S_EXP * ETA_I_EXP

    checks = {
        "(a) sub-SNL count equals the oracle's": n_sub == n_sub_oracle,
        "(b) per-phase CFI within 1e-6*n_bar of the oracle": cfi_err <= 1e-6 * N_BAR_EXP,
        "(c) median CFI/n_bar within n_bar of 2*eta_s*eta_i": (
            abs(plateau - plateau_target) <= N_BAR_EXP
        ),
        "runtime under 60 s": elapsed < 60,
    }
    broken = [name for name, good in checks.items() if not good]
    assert report(
        1,
        "sub-SNL fraction",
        not broken,
        f"fraction={frac:.4f} ({n_sub}/{n_phases}, oracle {n_sub_oracle}/{n_phases}), "
        f"max |CFI - oracle| {cfi_err:.1e} (<={1e-6 * N_BAR_EXP:.1e}), "
        f"median CFI/n_bar {plateau:.4f} (2*eta_s*eta_i={plateau_target:.4f}), "
        f"runtime {elapsed:.1f}s; experiment 0.62 not modelled (docs/decisions.md, entry 1)",
    ), "criterion 1 broke: " + "; ".join(broken)


def test_criterion_2_loss_robustness():
    t0 = time.time()
    pnr = ideal_pnr_povm(10, 10)
    phase = math.pi / 4

    sym = _bisect_threshold(
        lambda lv: _cfi_at(LossModel.symmetric(1.0 - lv), phase, pnr) > N_BAR_EXP
    )
    base = LossModel(eta_d_s=ETA_S_EXP, eta_d_i=ETA_I_EXP)
    added = _bisect_threshold(
        lambda lv: _cfi_at(base.scaled(1.0 - lv), phase, pnr) > N_BAR_EXP
    )
    elapsed = time.time() - t0
    ok = abs(sym - 0.28) <= 0.03 and abs(added - 0.11) <= 0.03 and elapsed < 120
    assert report(
        2,
        "loss robustness",
        ok,
        f"symmetric threshold {sym:.4f} (target 0.28+-0.03), added sample loss "
        f"{added:.4f} (target 0.11+-0.03), runtime {elapsed:.1f}s",
    )


def test_criterion_3_lossless_optimality():
    worst = np.inf
    for n_bar in (0.01, 0.1, 1.0):
        cfg = InterferometerConfig(
            SqueezingParams.from_mean_photons(n_bar), LossModel(), 0.0, FockCutoff(12)
        )
        pnr = ideal_pnr_povm(12, 12)
        _, max_cfi = max_cfi_over_phase(cfg, pnr, pnr)
        rep = sweep_fisher(cfg, default_phase_grid(256), pnr, pnr, compute_qfi=True)
        worst = min(worst, max_cfi / rep.qfi.max())
    ok = worst >= 0.99
    assert report(
        3,
        "lossless optimality",
        ok,
        f"min over n_bar of max CFI / max QFI = {worst:.6f} (needs >= 0.99)",
    )


def test_criterion_4_ordering_properties():
    cfg = InterferometerConfig(
        SqueezingParams.from_mean_photons(0.5),
        LossModel.symmetric(0.8),
        0.0,
        FockCutoff(10),
    )
    pnr = ideal_pnr_povm(10, 10)
    click = click_povm_from(pnr)
    grid = default_phase_grid(256)
    rep_pnr = sweep_fisher(cfg, grid, pnr, pnr, compute_qfi=True)
    rep_click = sweep_fisher(cfg, grid, click, click, compute_qfi=False)
    pointwise = bool(
        np.all(rep_click.cfi <= rep_pnr.cfi * (1 + 1e-8) + 1e-15)
        and np.all(rep_pnr.cfi <= rep_pnr.qfi * (1 + 1e-8) + 1e-15)
    )
    scan = pnr_click_ratio(
        [0.01, 0.1, 0.5, 1.0, 2.0], LossModel.symmetric(0.8), FockCutoff(10),
        coarse_points=128,
    )
    ratios = scan["ratio"]
    ratio_ok = bool(np.all(ratios >= 1 - 1e-9) and np.all(np.diff(ratios) >= -1e-9))
    ok = pointwise and ratio_ok
    assert report(
        4,
        "ordering properties",
        ok,
        f"pointwise click<=PNR<=QFI: {pointwise}; ratio range "
        f"[{ratios.min():.3f}, {ratios.max():.3f}] >=1 and non-decreasing: {ratio_ok}",
    )


def test_criterion_5_oracle_equivalences():
    # loss: the production photon-shift kernel against the ancilla oracle
    c = FockCutoff(5)
    rng = np.random.default_rng(2024)
    worst_loss = 0.0
    for _ in range(100):
        rho = random_density(rng, c.joint_dim)
        eta = rng.uniform(0.1, 0.99)
        mode = "s" if rng.random() < 0.5 else "i"
        a = joint_loss(rho, c.dim, mode, eta)
        b = loss_via_ancilla(rho, c.dim, mode, eta)
        worst_loss = max(worst_loss, float(np.max(np.abs(a - b))))

    # derivative: dsigma4 of the parity-block series the QFI reads, against a
    # central difference of the dense per-phase sigma4
    eng = InterferometerEngine(
        SqueezingParams(0.3), LossModel(0.9, 0.8, 0.85, 0.95), FockCutoff(8)
    )
    th, h = 0.7, 1e-5
    d_an = series_sigma4(eng, th)[1]
    d_fd = (dense_sigma4(eng, th + h)[0] - dense_sigma4(eng, th - h)[0]) / (2 * h)
    rel_fd = float(np.linalg.norm(d_an - d_fd) / np.linalg.norm(d_an))

    # QFI: the closed form sweep_fisher takes for a lossless state against the
    # parity-block sum it takes for a mixed state, on one lossless state
    cfg = InterferometerConfig(SqueezingParams(0.35), LossModel(), 0.0, FockCutoff(8))
    eng = InterferometerEngine(cfg.squeezing, cfg.loss, cfg.cutoff)
    th = 0.9
    pnr = ideal_pnr_povm(8, 8)
    q_pure = sweep_fisher(cfg, [th], pnr, pnr).qfi[0]
    q_mixed = sum(quantum_fisher_mixed(*block.at(th)) for block in eng.parity_block_series)
    rel_qfi = abs(q_pure - q_mixed) / q_pure

    ok = worst_loss < 1e-12 and rel_fd < 1e-6 and rel_qfi < 1e-8
    assert report(
        5,
        "oracle equivalences",
        ok,
        f"kraus-vs-ancilla max-abs {worst_loss:.2e} (<1e-12), derivative FD rel "
        f"{rel_fd:.2e} (<1e-6), pure-vs-mixed QFI rel {rel_qfi:.2e} (<1e-8)",
    )


def test_criterion_6_tomography_round_trip():
    truth = efficiency_povm(0.9, 9, 9)

    probes = ProbeSet(dense_probe_ladder(9), 10**6)
    C = coherent_probe_matrix(probes.alpha_sq, truth.k_max)

    resp0 = simulate_response(truth, probes)  # noiseless frequencies
    povm0, diag0 = tomography_mle(resp0, C)
    err0 = float(np.max(np.abs(povm0.theta - truth.theta)))

    resp1 = simulate_response(truth, probes, np.random.default_rng(7))
    povm1, diag1 = tomography_mle(resp1, C, tol=1e-9, max_iter=300_000)
    err1 = float(np.max(np.abs(povm1.theta - truth.theta)))

    # monotone up to float64 roundoff of the ~1e9-magnitude log-likelihood sum
    def _monotone(diag):
        slack = 1e-12 * max(1.0, abs(diag.log_likelihood))
        return bool(np.all(np.diff(diag.ll_trace) >= -slack))

    monotone = _monotone(diag0) and _monotone(diag1)
    ok = err0 < 1e-6 and err1 < 1e-2 and monotone
    assert report(
        6,
        "tomography round-trip",
        ok,
        f"noiseless max-abs {err0:.2e} (<1e-6), noisy at 1e6 shots/probe "
        f"{err1:.2e} (<1e-2), log-likelihood monotone: {monotone}",
    )


def test_criterion_7_fit_round_trip():
    t0 = time.time()
    z_true = 0.05
    eta_true = 0.85
    cutoff = FockCutoff(6)
    loss = LossModel(eta_true, eta_true, eta_true, eta_true)
    cfg = InterferometerConfig(SqueezingParams(z_true), loss, 0.0, cutoff)
    pnr = ideal_pnr_povm(6, 6)
    phases = np.linspace(0.0, 2 * math.pi, 20, endpoint=False)
    hist = simulate_counts(cfg, pnr, pnr, phases, 10**7, seed=314)
    # single-photon cells are excluded by default because real detectors see
    # background contamination there; synthetic counts have none, and those
    # cells carry most of the loss information at small z
    fit = fit_model(
        hist, pnr, pnr, cutoff,
        free=("z", "eta_p_s", "eta_p_i"),
        fixed={"eta_d_s": eta_true, "eta_d_i": eta_true},
        include_single_photon=True,
        seed=0,
    )
    truth = {"z": z_true, "eta_p_s": eta_true, "eta_p_i": eta_true}
    pulls = {
        name: abs(fit.estimates[name] - val) / max(fit.stderr[name], 1e-300)
        for name, val in truth.items()
    }
    n_bar_true = 2 * z_true**2 / (1 - z_true**2)
    n_bar_rel = abs(fit.n_bar_hat - n_bar_true) / n_bar_true
    elapsed = time.time() - t0
    ok = all(p <= 3 for p in pulls.values()) and n_bar_rel < 0.01
    assert report(
        7,
        "fit round-trip",
        ok,
        "pulls " + ", ".join(f"{k}={v:.2f}sigma" for k, v in pulls.items())
        + f" (all <=3), n_bar rel err {n_bar_rel:.4%} (<1%), runtime {elapsed:.0f}s",
    )


def test_criterion_8_bootstrap():
    cutoff = FockCutoff(4)
    cfg = InterferometerConfig(
        SqueezingParams(0.2), LossModel.symmetric(0.9), 0.0, cutoff
    )
    pnr = ideal_pnr_povm(4, 4)
    phases = np.linspace(0.3, 2 * math.pi - 0.3, 6)

    def statistic(h):
        totals = h.counts.reshape(h.phases.size, -1).sum(axis=1)
        return h.counts[:, 1, 1] / np.maximum(totals, 1)

    hist = simulate_counts(cfg, pnr, pnr, phases, 25_000, seed=5)
    band_a = bootstrap_ci(hist, statistic, 400, seed=99)
    band_b = bootstrap_ci(hist, statistic, 400, seed=99)
    reproducible = bool(
        np.array_equal(band_a["samples"], band_b["samples"])
        and np.array_equal(band_a["lo"], band_b["lo"])
        and np.array_equal(band_a["hi"], band_b["hi"])
    )

    hist4 = simulate_counts(cfg, pnr, pnr, phases, 100_000, seed=5)
    band4 = bootstrap_ci(hist4, statistic, 400, seed=99)
    width1 = float(np.mean(band_a["hi"] - band_a["lo"]))
    width4 = float(np.mean(band4["hi"] - band4["lo"]))
    ratio = width4 / width1
    ok = reproducible and 0.4 <= ratio <= 0.6
    assert report(
        8,
        "bootstrap",
        ok,
        f"fixed-seed reproducible: {reproducible}; width ratio 4x/1x trials "
        f"{ratio:.3f} (target [0.4, 0.6])",
    )
