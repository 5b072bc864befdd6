"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""

import copy
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def load(name):
    with open(BENCH / name) as fh:
        return json.load(fh)


# -- self time -----------------------------------------------------------------

def test_self_time_subtracts_union_of_direct_children():
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["b", 3.5, 6.0, 0],  # overlaps a: the union counts [3.5, 4] once
        ["a", 8.0, 9.0, 0],
    ]
    assert tracer.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.5, 1.0])
    totals = tracer.layer_totals(spans)
    assert totals["a"] == (2, pytest.approx(3.0))
    assert totals["root"] == (1, pytest.approx(4.0))


def test_union_length_clips_to_parent():
    assert tracer.union_length([(-1.0, 2.0), (1.0, 3.0), (5.0, 20.0)], 0.0, 10.0) == 8.0
    assert tracer.union_length([], 0.0, 1.0) == 0.0


def test_tracer_nests_spans_restores_names_and_records_absent(monkeypatch):
    mod = types.ModuleType("fake_layers")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))
    targets = [("fake_layers", "outer", "outer"), ("fake_layers", "inner", "inner"),
               ("fake_layers", "gone", "gone"), ("no_such_module", "f", "f")]
    t.install(targets)
    assert mod.outer(1) == 4
    t.uninstall()
    assert mod.outer is outer and mod.inner is inner
    assert t.absent == ["fake_layers.gone", "no_such_module.f"]
    assert [s[0] for s in t.spans] == ["outer", "inner"]
    assert [s[3] for s in t.spans] == [None, 0]
    assert tracer.layer_totals(t.spans) == {"outer": (1, 2.0), "inner": (1, 1.0)}


def test_every_per_layer_metric_reported_without_spans():
    metrics = tracer.per_layer_metrics([({}, {})], 0.5)
    assert len(metrics) == 17
    assert metrics["trace.overhead_s"] == (0.5, "s")
    assert metrics["detectors.em_s_per_iter"] == (0.0, "s")


# -- output checks ---------------------------------------------------------------

def fake_fit_main(reference):
    """Stands in for the CLI: writes the fit output the reference describes."""

    def main(argv):
        out = argv[argv.index("--out") + 1]
        with open(out, "w") as fh:
            json.dump(reference, fh)
        return 0

    return main


def test_perturbed_reference_fails_every_operation(tmp_path):
    reference = load("references.json")["fit"]
    w = workloads.WORKLOADS["fit"]
    ops, _ = run.closed_loop(fake_fit_main(reference), w, str(tmp_path), reference, 0.0, False)
    assert run.failure_count(ops) == 0

    perturbed = copy.deepcopy(reference)
    perturbed["estimates"]["z"] *= 1 + 1e-5
    ops, _ = run.closed_loop(fake_fit_main(reference), w, str(tmp_path), perturbed, 0.0, False)
    assert run.failure_count(ops) == len(ops) == run.MIN_OPS
    assert all("estimates" in op["problems"][0] for op in ops)


def test_invariant_failure_and_exit_code_fail_the_operation(tmp_path):
    reference = load("references.json")["fit"]
    w = workloads.WORKLOADS["fit"]
    biased = copy.deepcopy(reference)
    biased["estimates"]["eta_p_s"] = 0.85 + 4 * biased["stderr"]["eta_p_s"]
    op = workloads.run_operation(fake_fit_main(biased), w, str(tmp_path), biased)
    assert any("pull of eta_p_s" in p for p in op["problems"])

    op = workloads.run_operation(lambda argv: 4, w, str(tmp_path), reference)
    assert op["problems"] and op["exit_code"] == 4


# -- input generator -----------------------------------------------------------------

def test_same_seed_gives_identical_input_files(tmp_path):
    from tmsvfisher.detectors import read_probe_csv
    from tmsvfisher.inference import CountHistogram

    tables = load("inputs.json")
    for write, table, name in ((inputs.write_fit_counts, tables["fit"], "counts.csv"),
                               (inputs.write_probe_counts, tables["tomography"], "probes.csv")):
        for seed in (3, 3, 4):
            write(tmp_path / f"{seed}-{name}", table, seed)
        a, b = (tmp_path / f"3-{name}").read_bytes(), (tmp_path / f"4-{name}").read_bytes()
        write(tmp_path / f"again-{name}", table, 3)
        assert (tmp_path / f"again-{name}").read_bytes() == a
        assert a != b  # another seed writes the rows in another order

    h3 = CountHistogram.from_csv(tmp_path / "3-counts.csv")
    h4 = CountHistogram.from_csv(tmp_path / "4-counts.csv")
    assert np.array_equal(h3.counts, h4.counts) and h3.trials_per_phase == 10**7
    a3, c3 = read_probe_csv(tmp_path / "3-probes.csv")
    a4, c4 = read_probe_csv(tmp_path / "4-probes.csv")
    assert np.array_equal(a3, a4) and np.array_equal(c3, c4)
    assert len(a3) == len(tables["tomography"]["alpha_sq"])  # no probe merged


def test_repeated_probe_intensities_are_rejected(tmp_path):
    table = dict(load("inputs.json")["tomography"])
    table["alpha_sq"] = [1.0, 1.0] + table["alpha_sq"][2:]
    with pytest.raises(ValueError, match="distinct"):
        inputs.write_probe_counts(tmp_path / "p.csv", table, 0)
