"""Input files for the fit and tomography workloads.

The outcome probabilities are recorded in ``inputs.json`` (see record.py), so
the inputs do not change when the program under test changes. The noise draw
uses the recorded ``data_seed``; the run's ``--seed`` permutes the order of the
data rows, so each seed writes different bytes while both readers must return
the same data. The noise draw is fixed on purpose: over eight draws of the
tomography data the EM iteration count ranged from 3394 to 26822 and the
operation from 1.6 s to 13 s, so a per-seed draw would make wall_s measure
the draw rather than the code.
"""

import numpy as np


def draw_counts(probs, trials, data_seed):
    """One multinomial draw per row, in the order simulate_counts uses."""
    rng = np.random.default_rng(data_seed)
    return [rng.multinomial(trials, np.asarray(p, dtype=float)) for p in probs]


def _write_rows(path, header_lines, rows, seed):
    order = np.random.default_rng(seed).permutation(len(rows))
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in header_lines)
        fh.writelines(rows[i] for i in order)


def write_fit_counts(path, table, seed):
    """Counts CSV in CountHistogram's format: phase_rad, j, k, count."""
    n_out = table["n_outcomes"]
    rows = []
    draws = draw_counts(table["probs"], table["trials"], table["data_seed"])
    for phase, counts in zip(table["phases"], draws):
        for cell, c in enumerate(counts):
            rows.append(f"{float(phase)!r},{cell // n_out},{cell % n_out},{int(c)}\n")
    _write_rows(path, [f"# trials_per_phase={table['trials']}", "phase_rad,j,k,count"], rows, seed)


def write_probe_counts(path, table, seed):
    """Probe CSV in read_probe_csv's format: alpha_sq, outcome, count.

    The reader merges rows with equal intensities, so repeated intensities
    would turn into one probe with twice the shots.
    """
    alpha_sq = table["alpha_sq"]
    if len(set(alpha_sq)) != len(alpha_sq):
        raise ValueError("probe intensities must be distinct")
    rows = []
    draws = draw_counts(table["probs"], table["shots"], table["data_seed"])
    for a, counts in zip(alpha_sq, draws):
        rows.extend(f"{float(a)!r},{n},{int(c)}\n" for n, c in enumerate(counts))
    _write_rows(path, ["alpha_sq,outcome,count"], rows, seed)
