"""Record the benchmark's input tables and output references.

    python3 perfbench/record.py

writes perfbench/inputs.json (the outcome probabilities the input generator
draws from) and perfbench/references.json (each workload's output at the
current commit). Run it only to re-baseline the checks on purpose: the
benchmark compares every later commit against these files.
"""

import json
import math
import os
import shutil
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402

FIT_DATA_SEED = 314  # the seed of acceptance criterion 7
FIT_TRIALS = 10**7
FIT_PHASES = 20
TOMOGRAPHY_DATA_SEED = 7
TOMOGRAPHY_SHOTS = 10**6


def fit_table():
    from tmsvfisher import FockCutoff, InterferometerConfig, LossModel, SqueezingParams
    from tmsvfisher import ideal_pnr_povm
    from tmsvfisher.inference import simulate_counts
    from tmsvfisher.optics import InterferometerEngine

    t = workloads.FIT_TRUTH
    cutoff = FockCutoff(6)
    loss = LossModel(t["eta_p_s"], t["eta_p_i"], workloads.FIT_ETA_D, workloads.FIT_ETA_D)
    squeezing = SqueezingParams(t["z"])
    pnr = ideal_pnr_povm(6, 6)
    phases = np.linspace(0.0, 2 * math.pi, FIT_PHASES, endpoint=False)
    eng = InterferometerEngine(squeezing, loss, cutoff)
    probs = []
    for th in phases:  # the probabilities simulate_counts draws from
        p = (pnr.theta.T @ eng.populations(th) @ pnr.theta).ravel()
        p = np.clip(p, 0.0, None)
        p /= p.sum()
        probs.append([float(x) for x in p])
    table = {"data_seed": FIT_DATA_SEED, "trials": FIT_TRIALS, "n_outcomes": pnr.n_outcomes,
             "phases": [float(x) for x in phases], "probs": probs}
    hist = simulate_counts(InterferometerConfig(squeezing, loss, 0.0, cutoff), pnr, pnr,
                           phases, FIT_TRIALS, FIT_DATA_SEED)
    drawn = np.stack(inputs.draw_counts(probs, FIT_TRIALS, FIT_DATA_SEED))
    assert np.array_equal(drawn, hist.counts.reshape(FIT_PHASES, -1)), "fit draw differs"
    return table


def tomography_table():
    from tmsvfisher import ProbeSet, efficiency_povm
    from tmsvfisher.detectors import coherent_probe_matrix, dense_probe_ladder, simulate_response

    k_max = workloads.TOMOGRAPHY_KMAX
    truth = efficiency_povm(workloads.TOMOGRAPHY_EFFICIENCY, k_max, k_max)
    assert np.abs(truth.theta - workloads.true_povm()).max() < 1e-12
    # dense_probe_ladder(9) holds 4.5 twice; the reader would merge the two
    # probes, so the intensities are its distinct values.
    alpha_sq = np.unique(dense_probe_ladder(k_max))
    P = coherent_probe_matrix(alpha_sq, k_max) @ truth.theta
    P /= P.sum(axis=1, keepdims=True)  # as simulate_response conditions each probe
    table = {"data_seed": TOMOGRAPHY_DATA_SEED, "shots": TOMOGRAPHY_SHOTS,
             "alpha_sq": [float(a) for a in alpha_sq], "probs": [[float(x) for x in r] for r in P]}
    resp = simulate_response(truth, ProbeSet(tuple(alpha_sq), TOMOGRAPHY_SHOTS),
                             np.random.default_rng(TOMOGRAPHY_DATA_SEED))
    drawn = np.stack(inputs.draw_counts(table["probs"], TOMOGRAPHY_SHOTS, TOMOGRAPHY_DATA_SEED))
    assert np.array_equal(drawn, np.rint(resp.counts)), "tomography draw differs"
    return table


def main():
    from tmsvfisher.cli import main as cli_main

    tables = {"fit": fit_table(), "tomography": tomography_table()}
    with open(BENCH / "inputs.json", "w") as fh:
        json.dump(tables, fh, indent=1, sort_keys=True)
        fh.write("\n")
    work = BENCH / "out" / "record"
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    references = {}
    for name, w in workloads.WORKLOADS.items():
        w.prepare(str(work), 0, tables)
        op = workloads.run_operation(cli_main, w, str(work), None)
        if op["problems"]:
            raise SystemExit(f"{name}: {op['problems']}")
        ref = dict(op["observed"])
        ref.pop("theta", None)
        problems = w.check(op["observed"], ref)
        if problems:  # the invariants must hold for the recorded output too
            raise SystemExit(f"{name}: {problems}")
        references[name] = ref
        print(f"{name}: recorded in {op['wall_s']:.2f} s")
    with open(BENCH / "references.json", "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
