"""The four CLI workloads: their inputs, arguments and output checks.

One operation is one call of ``tmsvfisher.cli.main(argv)``. Every operation's
output is read back and checked against references recorded by record.py and
against physics invariants; a failed check fails the operation.
"""

import contextlib
import io
import json
import math
import os
import re
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

import inputs

SWEEP_ARGS = ["sweep", "--nbar", "3.631e-3", "--eta-d", "0.805,0.815"]
# The lossy-QFI sweep costs about 65 ms per phase at cutoff 10; 32 phases keep
# one operation near 2 s so a run holds enough operations for a steady median.
QFI_PHASES = 32
FIT_TRUTH = {"z": 0.05, "eta_p_s": 0.85, "eta_p_i": 0.85}
FIT_ETA_D = 0.85
TOMOGRAPHY_EFFICIENCY = 0.9
TOMOGRAPHY_KMAX = 9
# One start keeps a fit near 2 s; the fit still builds one engine per
# objective evaluation, the cost a precomputation in the engine would show.
FIT_STARTS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable  # (work_dir, seed, tables) -> None
    argv: Callable  # (work_dir) -> list of CLI arguments
    outputs: Callable  # (work_dir) -> files the operation writes
    read: Callable  # (work_dir, stdout) -> observed values
    check: Callable  # (observed, reference) -> list of problems


def _relative_mismatch(values, reference, rtol, what):
    """Normwise relative check, max|values - reference| <= rtol * max|reference|.

    Normwise because the CFI curve passes within 1e-50 of zero, where an
    elementwise relative test would fail on rounding alone.
    """
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if values.shape != reference.shape:
        return [f"{what}: shape {values.shape} != reference {reference.shape}"]
    err = float(np.max(np.abs(values - reference)))
    scale = float(np.max(np.abs(reference)))
    if err > rtol * scale:
        return [f"{what}: differs from the reference by {err:.3e}, "
                f"more than {rtol:g} of its scale {scale:.6g}"]
    return []


def _nothing(work, seed, tables):
    pass


# -- sweep -------------------------------------------------------------------

def _sweep_argv(work, extra):
    return SWEEP_ARGS + extra + ["--out-prefix", os.path.join(work, "sweep_")]


def _sweep_outputs(work):
    return [os.path.join(work, "sweep_fisher.json"), os.path.join(work, "sweep_fisher.csv")]


def _read_sweep(work, stdout):
    with open(os.path.join(work, "sweep_fisher.json")) as fh:
        report = json.load(fh)
    cfi = np.asarray(report["cfi"])
    return {
        "n_phases": int(cfi.size),
        "snl": report["snl"],
        "sub_snl_count": int(np.sum(cfi > report["snl"])),
        "cfi": report["cfi"],
        "qfi": report["qfi"],
    }


def _check_sweep(obs, ref):
    problems = []
    if obs["sub_snl_count"] != ref["sub_snl_count"]:
        problems.append(f"sub-SNL count {obs['sub_snl_count']}/{obs['n_phases']} "
                        f"!= {ref['sub_snl_count']}/{ref['n_phases']}")
    return problems + _relative_mismatch(obs["cfi"], ref["cfi"], 1e-9, "CFI")


def _check_sweep_qfi(obs, ref):
    problems = _relative_mismatch(obs["cfi"], ref["cfi"], 1e-9, "CFI")
    if obs["qfi"] is None:
        return problems + ["no QFI column"]
    gap = np.asarray(obs["qfi"]) - np.asarray(obs["cfi"])
    if (gap < 0).any():
        problems.append(f"QFI < CFI at {int((gap < 0).sum())} phase(s), min gap {gap.min():.3e}")
    return problems + _relative_mismatch(obs["qfi"], ref["qfi"], 1e-6, "QFI")


# -- fit ---------------------------------------------------------------------

def _prepare_fit(work, seed, tables):
    inputs.write_fit_counts(os.path.join(work, "counts.csv"), tables["fit"], seed)


def _fit_argv(work):
    return [
        "fit", os.path.join(work, "counts.csv"),
        "--cutoff", "6", "--detector", "ideal-pnr",
        "--free", ",".join(FIT_TRUTH),
        "--fixed", json.dumps({"eta_d_s": FIT_ETA_D, "eta_d_i": FIT_ETA_D}),
        "--include-single-photon", "--starts", str(FIT_STARTS), "--seed", "0",
        "--out", os.path.join(work, "fit.json"),
    ]


def _read_fit(work, stdout):
    with open(os.path.join(work, "fit.json")) as fh:
        fit = json.load(fh)
    return {k: fit[k] for k in ("estimates", "stderr", "n_bar_hat", "converged", "log_likelihood")}


def _check_fit(obs, ref):
    problems = [] if obs["converged"] else ["fit did not converge"]
    for name, truth in FIT_TRUTH.items():
        pull = abs(obs["estimates"][name] - truth) / max(obs["stderr"][name], 1e-300)
        if pull > 3.0:
            problems.append(f"pull of {name} is {pull:.2f} sigma (> 3)")
    n_bar_true = 2 * FIT_TRUTH["z"] ** 2 / (1 - FIT_TRUTH["z"] ** 2)
    if abs(obs["n_bar_hat"] - n_bar_true) > 0.01 * n_bar_true:
        problems.append(f"n_bar_hat {obs['n_bar_hat']!r} not within 1% of {n_bar_true!r}")
    for name in FIT_TRUTH:
        problems += _relative_mismatch(
            obs["estimates"][name], ref["estimates"][name], 1e-6, f"estimates {name}"
        )
    return problems


# -- tomography --------------------------------------------------------------

_TOMO_LINE = re.compile(r"iterations=(\d+) converged=(True|False) loglik=(\S+)")


def _prepare_tomography(work, seed, tables):
    inputs.write_probe_counts(os.path.join(work, "probes.csv"), tables["tomography"], seed)


def _tomography_argv(work):
    return ["tomography", os.path.join(work, "probes.csv"), "--kmax", str(TOMOGRAPHY_KMAX),
            "--out", os.path.join(work, "povm.json")]


def _read_tomography(work, stdout):
    match = _TOMO_LINE.search(stdout)
    if match is None:
        raise ValueError(f"no diagnostics line in output: {stdout!r}")
    with open(os.path.join(work, "povm.json")) as fh:
        theta = json.load(fh)["theta"]
    return {
        "iterations": int(match.group(1)),
        "converged": match.group(2) == "True",
        "log_likelihood": float(match.group(3)),
        "theta": theta,
    }


def true_povm():
    """Efficiency-eta PNR POVM, theta[k, n] = C(k, n) eta^n (1 - eta)^(k - n)."""
    eta, k_max = TOMOGRAPHY_EFFICIENCY, TOMOGRAPHY_KMAX
    return np.array([
        [math.comb(k, n) * eta**n * (1 - eta) ** (k - n) if n <= k else 0.0
         for n in range(k_max + 1)]
        for k in range(k_max + 1)
    ])


def _check_tomography(obs, ref):
    problems = [] if obs["converged"] else ["EM did not converge"]
    theta = np.asarray(obs["theta"])
    truth = true_povm()
    if theta.shape != truth.shape:
        return problems + [f"POVM shape {theta.shape} != {truth.shape}"]
    err = float(np.abs(theta - truth).max())
    if err >= 1e-2:
        problems.append(f"max-abs POVM error {err:.3e} >= 1e-2")
    return problems + _relative_mismatch(
        obs["log_likelihood"], ref["log_likelihood"], 1e-9, "log-likelihood"
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep",
            _nothing,
            lambda work: _sweep_argv(work, ["--no-qfi"]),
            _sweep_outputs,
            _read_sweep,
            _check_sweep,
        ),
        Workload(
            "sweep_qfi",
            _nothing,
            lambda work: _sweep_argv(work, ["--phases", str(QFI_PHASES)]),
            _sweep_outputs,
            _read_sweep,
            _check_sweep_qfi,
        ),
        Workload(
            "fit",
            _prepare_fit,
            _fit_argv,
            lambda work: [os.path.join(work, "fit.json")],
            _read_fit,
            _check_fit,
        ),
        Workload(
            "tomography",
            _prepare_tomography,
            _tomography_argv,
            lambda work: [os.path.join(work, "povm.json")],
            _read_tomography,
            _check_tomography,
        ),
    )
}


def run_operation(main, workload, work, reference):
    """One closed-loop operation: call the CLI, time it, check its output.

    Returns a record with wall_s, cpu_s (process CPU, all threads), the exit
    code, the problems found and the observed values. Any exception, a
    non-zero exit code or a failed check marks the operation failed.
    """
    for path in workload.outputs(work):
        if os.path.exists(path):
            os.remove(path)
    argv = workload.argv(work)
    out, err = io.StringIO(), io.StringIO()
    problems = []
    code = None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code
    except Exception as exc:  # an operation that raises is a failed operation
        problems.append(f"raised {exc!r}")
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    observed = None
    if not problems and code != 0:
        problems.append(f"exit code {code}: {err.getvalue().strip()[-300:]}")
    if not problems:
        try:
            observed = workload.read(work, out.getvalue())
            if reference is not None:
                problems.extend(workload.check(observed, reference))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    return {"wall_s": wall, "cpu_s": cpu, "exit_code": code, "problems": problems,
            "observed": observed}
