"""Command-line interface: subcommands, exit codes, file outputs, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tmsvfisher
from tmsvfisher import FockCutoff, InterferometerConfig, LossModel, SqueezingParams
from tmsvfisher import ProbeSet, cli, efficiency_povm, ideal_pnr_povm, simulate_counts
from tmsvfisher.cli import main
from tmsvfisher.detectors import (
    ResponseMatrix,
    coherent_probe_matrix,
    dense_probe_ladder,
    read_probe_csv,
    simulate_response,
    tomography_mle,
    write_probe_csv,
)
from tmsvfisher.inference import CountHistogram
from tmsvfisher.optics import truncation_mass


def run(*argv):
    return main([str(a) for a in argv])


def _read_csv_with_comments(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    names = lines[0].split(",")
    cols = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return {name: cols[:, i] for i, name in enumerate(names)}


def _probe_csv(path, povm, shots=10**9, rng=None, ladder=None):
    # large default shot count so integer rounding of the noiseless
    # frequencies stays far below the recovery tolerances
    ladder = ladder or tuple(np.linspace(0.25, 3 * (povm.k_max + 1), 6 * (povm.k_max + 1)))
    probes = ProbeSet(ladder, shots)
    resp = simulate_response(povm, probes, rng)
    counts = np.rint(resp.counts).astype(np.int64)
    # every probe keeps exactly `shots` counts: the rounding residue goes to
    # each probe's largest cell
    counts[np.arange(len(counts)), counts.argmax(axis=1)] += shots - counts.sum(axis=1)
    write_probe_csv(path, probes.alpha_sq, counts)


class TestSweep:
    def test_writes_report_files(self, tmp_path):
        prefix = str(tmp_path / "run_")
        code = run("sweep", "--z", 0.2, "--cutoff", 4, "--phases", 16,
                   "--out-prefix", prefix)
        assert code == 0
        lines = (tmp_path / "run_fisher.csv").read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0].startswith("phase,cfi,qfi,snl")
        assert len(data) == 1 + 16
        payload = json.loads((tmp_path / "run_fisher.json").read_text())
        assert len(payload["cfi"]) == 16

    def test_vacuum_gives_zero_columns(self, tmp_path):
        prefix = str(tmp_path / "vac_")
        assert run("sweep", "--z", 0, "--cutoff", 4, "--phases", 8,
                   "--out-prefix", prefix) == 0
        payload = json.loads((tmp_path / "vac_fisher.json").read_text())
        assert max(abs(v) for v in payload["cfi"]) < 1e-12
        assert max(abs(v) for v in payload["qfi"]) < 1e-12

    def test_povm_file_detector_dispatch(self, tmp_path):
        povm_path = tmp_path / "tes.json"
        efficiency_povm(0.9, 4, 6).to_json(povm_path)
        prefix = str(tmp_path / "povm_")
        assert run("sweep", "--z", 0.2, "--cutoff", 4, "--phases", 8,
                   "--detector", f"povm-file:{povm_path}", "--no-qfi",
                   "--out-prefix", prefix) == 0

    def test_click_detector(self, tmp_path):
        prefix = str(tmp_path / "click_")
        assert run("sweep", "--z", 0.2, "--cutoff", 4, "--phases", 8,
                   "--detector", "click", "--no-qfi", "--out-prefix", prefix) == 0

    def test_provenance_embedded(self, tmp_path, capsys):
        prefix = str(tmp_path / "prov_")
        run("sweep", "--z", 0.2, "--cutoff", 4, "--phases", 8,
            "--no-qfi", "--out-prefix", prefix)
        text = (tmp_path / "prov_fisher.csv").read_text()
        assert "# config_hash=" in text
        assert "# version=" in text
        # lossless z = 0.2 at cutoff 4 drops the pairs n >= 3, of mass z^6;
        # both files and the printed line carry it
        mass = json.loads((tmp_path / "prov_fisher.json").read_text())["metadata"][
            "truncation_mass"
        ]
        assert mass == pytest.approx(0.2**6, rel=1e-12)
        assert f"# truncation_mass={mass!r}\n" in text
        assert capsys.readouterr().out.rstrip().endswith(f"truncation_mass={mass!r}")

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for tag in ("a_", "b_"):
            prefix = str(tmp_path / tag)
            run("sweep", "--z", 0.3, "--cutoff", 5, "--phases", 32,
                "--out-prefix", prefix)
            outs.append((tmp_path / f"{tag}fisher.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("no_qfi, n_columns, n_phases", [(True, 3, 2048), (False, 5, 64)])
    def test_report_formats_each_float_column_once(
        self, tmp_path, monkeypatch, no_qfi, n_columns, n_phases
    ):
        # the CSV and the JSON share the phase, CFI and QFI strings; the
        # per-photon columns are the CSV's own: 3 or 5 columns, not 5 or 8
        formatted = []
        real = tmsvfisher.metrology._float_text

        def counted(values):
            text = real(values)
            formatted.append(len(text))
            return text

        monkeypatch.setattr(tmsvfisher.metrology, "_float_text", counted)
        prefix = str(tmp_path / "count_")
        flags = ["--no-qfi"] if no_qfi else []
        assert run("sweep", "--nbar", 3.631e-3, "--eta-d", "0.805,0.815", "--cutoff", 10,
                   "--phases", n_phases, *flags, "--out-prefix", prefix) == 0
        assert formatted == [n_phases] * n_columns
        data = _read_csv_with_comments(tmp_path / "count_fisher.csv")
        payload = json.loads((tmp_path / "count_fisher.json").read_text())
        assert np.array_equal(data["cfi"], payload["cfi"])
        assert np.array_equal(data["phase"], payload["phase_grid"])


class TestConfigErrors:
    def test_both_z_and_nbar_rejected(self, tmp_path):
        assert run("sweep", "--z", 0.2, "--nbar", 0.1,
                   "--out-prefix", str(tmp_path / "x_")) == 2

    def test_neither_z_nor_nbar_rejected(self, tmp_path):
        assert run("sweep", "--out-prefix", str(tmp_path / "x_")) == 2

    def test_malformed_eta_rejected(self, tmp_path):
        assert run("sweep", "--z", 0.2, "--eta-p", "0.9,0.8,0.7",
                   "--out-prefix", str(tmp_path / "x_")) == 2

    def test_unknown_detector_rejected(self, tmp_path):
        assert run("sweep", "--z", 0.2, "--detector", "sonar",
                   "--out-prefix", str(tmp_path / "x_")) == 2

    def test_config_file_overridden_by_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"z": 0.1, "cutoff": 4, "phases": 8}))
        prefix = str(tmp_path / "cfgrun_")
        assert run("sweep", "--config", cfg, "--phases", 4, "--no-qfi",
                   "--out-prefix", prefix) == 0
        payload = json.loads((tmp_path / "cfgrun_fisher.json").read_text())
        assert len(payload["cfi"]) == 4  # CLI flag wins over the file value


class TestSimulateCounts:
    def test_missing_seed_rejected(self, tmp_path):
        assert run("simulate-counts", "--z", 0.2, "--cutoff", 3,
                   "--out", tmp_path / "c.csv") == 2

    def test_deterministic_and_parseable(self, tmp_path):
        outs = []
        for name in ("c1.csv", "c2.csv"):
            path = tmp_path / name
            assert run("simulate-counts", "--z", 0.2, "--cutoff", 3,
                       "--phases", 4, "--trials", 1000, "--seed", 9,
                       "--out", path) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
        hist = CountHistogram.from_csv(tmp_path / "c1.csv")
        assert hist.trials_per_phase == 1000
        assert hist.phases.size == 4


class TestTomography:
    def test_binomial_round_trip(self, tmp_path, capsys):
        truth = efficiency_povm(0.9, 5, 5)
        probe_path = tmp_path / "probes.csv"
        _probe_csv(probe_path, truth)
        out = tmp_path / "povm.json"
        assert run("tomography", probe_path, "--kmax", 5, "--out", out) == 0
        got = np.asarray(json.loads(out.read_text())["theta"])
        assert np.max(np.abs(got - truth.theta)) < 1e-6
        # 10^9 shots rounded to integers are noiseless to the start rule
        assert capsys.readouterr().out.split()[-1] == "start=least-squares"

    def test_ideal_pnr_near_identity(self, tmp_path):
        truth = ideal_pnr_povm(4, 4)
        probe_path = tmp_path / "probes.csv"
        _probe_csv(probe_path, truth)
        out = tmp_path / "povm.json"
        assert run("tomography", probe_path, "--kmax", 4, "--out", out) == 0
        got = np.asarray(json.loads(out.read_text())["theta"])
        assert np.max(np.abs(got - np.eye(5))) < 1e-6

    def test_kmax_flag_sets_output_shape(self, tmp_path):
        truth = efficiency_povm(0.8, 9, 9)
        probe_path = tmp_path / "probes.csv"
        _probe_csv(probe_path, truth)
        out = tmp_path / "povm.json"
        assert run("tomography", probe_path, "--kmax", 9, "--out", out) == 0
        payload = json.loads(out.read_text())
        assert payload["k_max"] == 9
        assert len(payload["theta"]) == 10

    def test_dense_ladder_probe_csv_round_trip(self, tmp_path):
        # the probe CSV merges equal intensities, so the ladder must hold
        # distinct ones, or the merged probe has twice the shots (exit 2)
        ladder = dense_probe_ladder(9)
        assert len(set(ladder)) == len(ladder) == 219
        probe_path = tmp_path / "probes.csv"
        _probe_csv(probe_path, efficiency_povm(0.9, 9, 9), ladder=ladder)
        assert run("tomography", probe_path, "--kmax", 9,
                   "--out", tmp_path / "povm.json") == 0

    def test_unequal_shots_exits_config(self, tmp_path, capsys):
        # nine extra shots in one probe out of 10^6 are within np.allclose's
        # default rtol, but the counts are integers and must match exactly
        probe_path = tmp_path / "probes.csv"
        _probe_csv(probe_path, efficiency_povm(0.9, 5, 5), shots=10**6)
        alphas, counts = read_probe_csv(probe_path)
        counts[3, 0] += 9
        shots = counts.sum(axis=1)
        assert np.allclose(shots, shots[0]) and shots[3] == shots[0] + 9
        write_probe_csv(probe_path, alphas, counts)
        assert run("tomography", probe_path, "--kmax", 5,
                   "--out", tmp_path / "povm.json") == 2
        assert "count" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "header, rows, bad, field",
        [
            # a non-numeric intensity
            ("alpha_sq,outcome,count", ["1.0,0,80", "1.0,1,20"], "x,1,10", "alpha_sq"),
            # numpy would wrap outcome -1 onto the last of the two outcomes
            ("alpha_sq,outcome,count", ["1.0,0,80", "2.0,0,60", "2.0,1,40"], "1.0,-1,20", "outcome"),
            ("alpha_sq,outcome,count", ["1.0,0,80"], "1.0,1", "count"),
            ("count,alpha_sq,outcome", ["80,1.0,0"], "1.5e3,1.0,one", "outcome"),
            # np.linalg.cond of the probe matrix would raise LinAlgError
            ("alpha_sq,outcome,count", ["1.0,0,80", "1.0,1,20"], "nan,1,10", "alpha_sq"),
            ("alpha_sq,outcome,count", ["1.0,0,80", "1.0,1,20"], "inf,0,10", "alpha_sq"),
        ],
    )
    def test_malformed_probe_row_exits_config(self, tmp_path, capsys, header, rows, bad, field):
        probe_path = tmp_path / "probes.csv"
        probe_path.write_text("\n".join([header, *rows, bad]) + "\n")
        assert run("tomography", probe_path, "--kmax", 1, "--out", tmp_path / "povm.json") == 2
        err = capsys.readouterr().err
        assert f"(field: {field})" in err and repr(bad) in err
        assert not (tmp_path / "povm.json").exists()

    def test_prints_ll_gain_and_grad_norm(self, tmp_path, capsys):
        truth = efficiency_povm(0.9, 3, 3)
        probe_path = tmp_path / "probes.csv"
        _probe_csv(probe_path, truth, rng=np.random.default_rng(3), shots=10**5)
        assert run("tomography", probe_path, "--kmax", 3,
                   "--out", tmp_path / "povm.json") == 0
        line = capsys.readouterr().out.strip()
        fields = dict(f.split("=", 1) for f in line.split() if "=" in f)
        alphas, counts = read_probe_csv(probe_path)
        _, diag = tomography_mle(
            ResponseMatrix(counts / counts.sum(axis=1, keepdims=True), 10**5),
            coherent_probe_matrix(alphas, 3),
        )
        assert float(fields["ll_gain"]) == diag.ll_gain
        assert float(fields["grad_norm"]) == diag.grad_norm
        assert 0.0 <= diag.ll_gain < 1e-10
        assert fields["loglik"] == repr(diag.log_likelihood)
        assert line.split()[-1] == f"start={diag.start}" == "start=uniform"

    def test_prints_kkt_at_zero_between_grad_norm_and_start(self, tmp_path, capsys):
        # noisy ideal-PNR counts: the EM drives entries off the diagonal to
        # exact zero, and the line reports the largest relative KKT
        # violation among them
        probe_path = tmp_path / "probes.csv"
        _probe_csv(probe_path, ideal_pnr_povm(4, 4), rng=np.random.default_rng(1), shots=10**5,
                   ladder=tuple(np.geomspace(0.05, 12.8, 12)))
        assert run("tomography", probe_path, "--kmax", 4,
                   "--out", tmp_path / "povm.json") == 0
        words = capsys.readouterr().out.split()
        keys = [w.split("=", 1)[0] for w in words if "=" in w]
        assert keys[-3:] == ["grad_norm", "kkt_at_zero", "start"]
        alphas, counts = read_probe_csv(probe_path)
        povm, diag = tomography_mle(
            ResponseMatrix(counts / counts.sum(axis=1, keepdims=True), 10**5),
            coherent_probe_matrix(alphas, 4),
        )
        assert (povm.theta == 0.0).any()
        fields = dict(w.split("=", 1) for w in words if "=" in w)
        assert fields["kkt_at_zero"] == repr(diag.kkt_at_zero)
        assert math.isfinite(diag.kkt_at_zero) and diag.kkt_at_zero >= 0.0

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            # max-iter 0 would index an empty log-likelihood trace
            ("--max-iter", 0, "max-iter"),
            ("--max-iter", -3, "max-iter"),
            # a nan or negative tol would run as if it were 0
            ("--tol", "nan", "tol"),
            ("--tol", -1, "tol"),
            ("--tol", "inf", "tol"),
            ("--kmax", -1, "kmax"),
        ],
    )
    def test_bad_setting_exits_config_before_reading_probes(
        self, tmp_path, capsys, flag, value, field
    ):
        # the probe CSV does not exist: the setting is refused before it is read
        assert run("tomography", tmp_path / "missing.csv", flag, value,
                   "--out", tmp_path / "povm.json") == 2
        assert f"(field: {field})" in capsys.readouterr().err

    def test_too_few_probes_exits_identifiability(self, tmp_path):
        truth = efficiency_povm(0.9, 5, 5)
        probe_path = tmp_path / "probes.csv"
        _probe_csv(probe_path, truth, ladder=(0.5, 1.5))
        assert run("tomography", probe_path, "--kmax", 5,
                   "--out", tmp_path / "povm.json") == 3

    def test_iteration_starvation_exits_nonconvergence(self, tmp_path):
        truth = efficiency_povm(0.9, 5, 5)
        probe_path = tmp_path / "probes.csv"
        _probe_csv(probe_path, truth, rng=np.random.default_rng(3), shots=10**4)
        with pytest.warns(RuntimeWarning):
            code = run("tomography", probe_path, "--kmax", 5, "--max-iter", 2,
                       "--tol", 0, "--out", tmp_path / "povm.json")
        assert code == 4


class TestFit:
    def test_round_trip_small_scale(self, tmp_path):
        counts = tmp_path / "counts.csv"
        assert run("simulate-counts", "--z", 0.15, "--cutoff", 3, "--phases", 6,
                   "--trials", 50000, "--seed", 21, "--out", counts) == 0
        out = tmp_path / "fit.json"
        assert run("fit", counts, "--cutoff", 3, "--free", "z",
                   "--starts", 2, "--seed", 1, "--out", out) == 0
        payload = json.loads(out.read_text())
        z_hat = payload["estimates"]["z"]
        assert abs(z_hat - 0.15) <= 3 * payload["stderr"]["z"] + 1e-3

    def test_fit_json_records_solver_diagnostics(self, tmp_path):
        counts = tmp_path / "counts.csv"
        assert run("simulate-counts", "--z", 0.15, "--cutoff", 3, "--phases", 4,
                   "--trials", 20000, "--seed", 5, "--out", counts) == 0
        outputs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run("fit", counts, "--cutoff", 3, "--starts", 3, "--seed", 2,
                       "--out", out) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert [sorted(s) for s in payload["starts"]] == [["nfev", "nit"]] * 3
        assert payload["best_start"] in (0, 1, 2)
        assert list(payload) == sorted(payload)
        # the mass the cutoff drops, at the estimates
        est = payload["estimates"]
        loss = LossModel(est["eta_p_s"], est["eta_p_i"], est["eta_d_s"], est["eta_d_i"])
        want = truncation_mass(SqueezingParams(est["z"]), loss, FockCutoff(3))
        assert payload["truncation_mass"] == want > 0

    def test_counts_beyond_the_cutoff_exit_config(self, tmp_path, capsys):
        # counts simulated at cutoff 8 and saturating at 3 photons per arm put
        # counts in cells (j, k) with j + k > 3, which cutoff 3 cannot produce
        counts = tmp_path / "counts.csv"
        assert run("simulate-counts", "--z", 0.3, "--cutoff", 8, "--n-max", 3,
                   "--phases", 4, "--trials", 100000, "--seed", 3, "--out", counts) == 0
        out = tmp_path / "fit.json"
        assert run("fit", counts, "--cutoff", 3, "--out", out) == 2
        assert "(field: cutoff)" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_trials_header_exits_config(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("phase_rad,j,k,count\n0.0,0,0,5\n")
        assert run("fit", bad, "--cutoff", 3) == 2

    @pytest.mark.parametrize(
        "row, field",
        [
            ("0.0,0,1,abc", "count"),
            ("0.0,0,0", "count"),
            # numpy would wrap index -1 onto the last idler outcome
            ("0.0,0,-1,10", "k"),
            ("0.0,-2,0,10", "j"),
            ("0.0,1.5,0,10", "j"),
            ("0.0,0,0,-3", "count"),
            ("zero,0,0,10", "phase_rad"),
            ("0.0,0,0,10,1", "count"),
        ],
    )
    def test_malformed_counts_row_exits_config(self, tmp_path, capsys, row, field):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"# trials_per_phase=100\nphase_rad,j,k,count\n0.0,0,0,5\n{row}\n")
        out = tmp_path / "fit.json"
        assert run("fit", bad, "--cutoff", 3, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"(field: {field})" in err and repr(row) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, field",
        [
            (("fit", "--fixed", "{bad"), "fixed"),
            (("fit", "--fixed", "[1]"), "fixed"),
            (("fit", "--fixed", '{"bogus": 1}'), "fixed"),
            (("fit", "--fixed", '{"eta_d_s": 1.5}'), "fixed"),
            (("fit", "--fixed", '{"eta_d_s": "high"}'), "fixed"),
            (("fit", "--free", "z,eta_d_s", "--fixed", '{"eta_d_s": 0.5}'), "fixed"),
            (("fit", "--starts", 0), "starts"),
            (("bootstrap", "--starts", 0, "--resamples", 100, "--seed", 7), "starts"),
            (("bootstrap", "--level", 1.5, "--resamples", 100, "--seed", 7), "level"),
            (("bootstrap", "--resamples", 50, "--seed", 7), "resamples"),
        ],
    )
    def test_bad_fixed_or_starts_exits_config(self, tmp_path, capsys, argv, field):
        counts = tmp_path / "counts.csv"
        assert run("simulate-counts", "--z", 0.15, "--cutoff", 3, "--phases", 2,
                   "--trials", 1000, "--seed", 3, "--out", counts) == 0
        out = tmp_path / "out"
        assert run(argv[0], counts, "--cutoff", 3, *argv[1:], "--out", out) == 2
        assert f"(field: {field})" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv, field",
    [
        (("sweep", "--z", 0.2, "--cutoff", 3, "--phases", 8,
          "--out-prefix", "{missing}/run_"), "out-prefix"),
        (("loss-scan", "--z", 0.15, "--cutoff", 3, "--phases", 8,
          "--out-dir", "{missing}"), "out-dir"),
        (("simulate-counts", "--z", 0.15, "--cutoff", 3, "--phases", 2, "--seed", 1,
          "--out", "{missing}/counts.csv"), "out"),
        (("fit", "{counts}", "--cutoff", 3, "--out", "{missing}/fit.json"), "out"),
        (("bootstrap", "{counts}", "--cutoff", 3, "--seed", 7,
          "--out", "{missing}/band.csv"), "out"),
        (("tomography", "{probes}", "--kmax", 3, "--out", "{missing}/povm.json"), "out"),
        (("loss-scan", "--z", 0.15, "--cutoff", 3, "--loss-grid", "0,x",
          "--out-dir", "{tmp}"), "loss-grid"),
        (("loss-scan", "--z", 0.15, "--cutoff", 3, "--nbar-grid", "0.1,big",
          "--out-dir", "{tmp}"), "nbar-grid"),
        (("loss-scan", "--z", 0.15, "--cutoff", 3, "--loss-model", "1,1,a,b",
          "--out-dir", "{tmp}"), "loss-model"),
        # an --out that names an existing directory cannot be written either
        (("simulate-counts", "--z", 0.15, "--cutoff", 3, "--phases", 2, "--seed", 1,
          "--out", "{tmp}"), "out"),
        (("tomography", "{probes}", "--kmax", 3, "--out", "{tmp}"), "out"),
        # a size below 1 is an error, not a cue for the default
        (("sweep", "--z", 0.1, "--phases", 0, "--out-prefix", "{tmp}/run_"), "phases"),
        (("sweep", "--z", 0.1, "--phases", -4, "--out-prefix", "{tmp}/run_"), "phases"),
        (("sweep", "--z", 0.1, "--cutoff", 0, "--out-prefix", "{tmp}/run_"), "cutoff"),
        (("sweep", "--z", 0.1, "--cutoff", -2, "--out-prefix", "{tmp}/run_"), "cutoff"),
        (("sweep", "--z", 0.1, "--cutoff", 3, "--n-max", 0,
          "--out-prefix", "{tmp}/run_"), "n-max"),
        (("sweep", "--config", "{zeros}", "--out-prefix", "{tmp}/run_"), "phases"),
        (("loss-scan", "--z", 0.15, "--cutoff", 3, "--phases", -1,
          "--out-dir", "{tmp}"), "phases"),
        (("loss-scan", "--z", 0.15, "--cutoff", 0, "--out-dir", "{tmp}"), "cutoff"),
        (("loss-scan", "--z", 0.15, "--cutoff", 3, "--n-max", 0,
          "--out-dir", "{tmp}"), "n-max"),
        (("simulate-counts", "--z", 0.15, "--cutoff", 3, "--phases", -2, "--seed", 1,
          "--out", "{tmp}/counts.csv"), "phases"),
        (("simulate-counts", "--z", 0.15, "--cutoff", 3, "--trials", -5, "--seed", 1,
          "--out", "{tmp}/counts.csv"), "trials"),
        (("simulate-counts", "--z", 0.15, "--cutoff", -1, "--seed", 1,
          "--out", "{tmp}/counts.csv"), "cutoff"),
        (("simulate-counts", "--z", 0.15, "--cutoff", 3, "--n-max", 0, "--seed", 1,
          "--out", "{tmp}/counts.csv"), "n-max"),
        (("fit", "{counts}", "--cutoff", 0, "--out", "{tmp}/fit.json"), "cutoff"),
        (("fit", "{counts}", "--cutoff", 3, "--n-max", 0, "--out", "{tmp}/fit.json"), "n-max"),
        (("sweep", "--config", "{fraction}", "--out-prefix", "{tmp}/run_"), "phases"),
        # loss-scan's grids and n_bar are checked before its first sweep
        (("loss-scan", "--z", 0.1, "--cutoff", 3, "--scan-loss", 1.5,
          "--out-dir", "{tmp}"), "scan-loss"),
        (("loss-scan", "--z", 0.1, "--cutoff", 3, "--loss-grid", "0,0.1,1.5",
          "--out-dir", "{tmp}"), "loss-grid"),
        (("loss-scan", "--z", 0.1, "--cutoff", 3, "--loss-grid", "0,-0.1",
          "--out-dir", "{tmp}"), "loss-grid"),
        (("loss-scan", "--z", 0.1, "--cutoff", 3, "--nbar-grid", "0.1,-1",
          "--out-dir", "{tmp}"), "nbar-grid"),
        (("loss-scan", "--z", 0.1, "--cutoff", 3, "--nbar-grid", "0.1,0",
          "--out-dir", "{tmp}"), "nbar-grid"),
        (("loss-scan", "--z", 0.1, "--cutoff", 3, "--nbar-grid", "",
          "--out-dir", "{tmp}"), "nbar-grid"),
        (("loss-scan", "--z", 0, "--cutoff", 3, "--out-dir", "{tmp}"), "z/nbar"),
        (("loss-scan", "--nbar", 0, "--cutoff", 3, "--out-dir", "{tmp}"), "z/nbar"),
    ],
)
def test_bad_output_dir_or_grid_exits_before_any_work(tmp_path, capsys, monkeypatch,
                                                      argv, field):
    # valid inputs, so that only the named field can stop the run
    cutoff = FockCutoff(3)
    config = InterferometerConfig(SqueezingParams(0.2), LossModel(), 0.0, cutoff)
    pnr = ideal_pnr_povm(3, 3)
    simulate_counts(config, pnr, pnr, [0.5, 1.5], 1000, 4).to_csv(tmp_path / "counts.csv")
    _probe_csv(tmp_path / "probes.csv", efficiency_povm(0.9, 3, 3))
    # from a config file, an explicit 0 is not replaced by the default and a
    # fraction is not truncated
    (tmp_path / "zeros.json").write_text('{"z": 0.1, "phases": 0}')
    (tmp_path / "fraction.json").write_text('{"z": 0.1, "cutoff": 3, "phases": 2.5}')

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    for name in ("sweep_fisher", "pnr_click_ratio", "simulate_counts", "fit_model",
                 "bootstrap_ci", "tomography_mle"):
        monkeypatch.setattr(cli, name, no_work)
    paths = {"missing": tmp_path / "missing", "tmp": tmp_path,
             "counts": tmp_path / "counts.csv", "probes": tmp_path / "probes.csv",
             "zeros": tmp_path / "zeros.json", "fraction": tmp_path / "fraction.json"}
    assert run(*(str(a).format(**paths) for a in argv)) == 2
    assert f"(field: {field})" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


def _fresh_interpreter_stdout(code):
    """Stdout of `python -c code` in a fresh interpreter that imports the same
    copy of the package as this test run."""
    src = str(Path(tmsvfisher.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=120,
    )
    return proc.stdout.strip()


def _loaded_after_cli_import(module):
    """'True' or 'False': whether a fresh interpreter has module loaded after
    importing tmsvfisher.cli."""
    return _fresh_interpreter_stdout(
        f"import sys, tmsvfisher.cli; print({module!r} in sys.modules)")


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about half a second of every CLI start
    assert _loaded_after_cli_import("scipy.stats") == "False"


def test_cli_import_leaves_scipy_unloaded():
    # scipy.special alone more than doubles the time a CLI start spends
    # importing, and no command needs scipy
    assert _loaded_after_cli_import("scipy") == "False"


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first use, which costs every CLI start a
    # few milliseconds; the commands that draw import it when they run
    assert _loaded_after_cli_import("numpy.random") == "False"


def test_cli_fit_leaves_scipy_unloaded(tmp_path):
    # the fit, its covariance and its SNL interval run without scipy
    counts = tmp_path / "counts.csv"
    assert run("simulate-counts", "--z", 0.15, "--cutoff", 3, "--phases", 4,
               "--trials", 20000, "--seed", 5, "--out", counts) == 0
    code = ("import sys; from tmsvfisher.cli import main; "
            f"assert main(['fit', {str(counts)!r}, '--cutoff', '3', '--starts', '2', "
            f"'--seed', '1', '--out', {str(tmp_path / 'fit.json')!r}]) == 0; "
            "print('scipy' in sys.modules)")
    assert _fresh_interpreter_stdout(code).splitlines()[-1] == "False"


def test_cli_tomography_leaves_scipy_unloaded(tmp_path):
    # the Poisson probe weights and the EM run without scipy
    probe_path = tmp_path / "probes.csv"
    _probe_csv(probe_path, efficiency_povm(0.9, 3, 3), rng=np.random.default_rng(3),
               shots=10**5)
    code = ("import sys; from tmsvfisher.cli import main; "
            f"assert main(['tomography', {str(probe_path)!r}, '--kmax', '3', "
            f"'--out', {str(tmp_path / 'povm.json')!r}]) == 0; "
            "print('scipy' in sys.modules)")
    assert _fresh_interpreter_stdout(code).splitlines()[-1] == "False"


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs about a third of a second of every CLI start, and
    # no command uses it
    assert _loaded_after_cli_import("scipy.optimize") == "False"


class TestBootstrap:
    def test_missing_seed_rejected(self, tmp_path):
        counts = tmp_path / "counts.csv"
        run("simulate-counts", "--z", 0.2, "--cutoff", 3, "--phases", 2,
            "--trials", 1000, "--seed", 4, "--out", counts)
        assert run("bootstrap", counts, "--cutoff", 3, "--resamples", 100,
                   "--out", tmp_path / "band.csv") == 2

    def test_fixed_seed_reproducible_band(self, tmp_path):
        counts = tmp_path / "counts.csv"
        run("simulate-counts", "--z", 0.2, "--cutoff", 3, "--phases", 2,
            "--trials", 2000, "--seed", 4, "--out", counts)
        bands = []
        for name in ("b1.csv", "b2.csv"):
            out = tmp_path / name
            assert run("bootstrap", counts, "--cutoff", 3, "--resamples", 100,
                       "--starts", 1, "--seed", 7, "--out", out) == 0
            bands.append(out.read_bytes())
        assert bands[0] == bands[1]


class TestLossScan:
    def test_outputs_and_orderings(self, tmp_path, capsys):
        assert run("loss-scan", "--z", 0.15, "--cutoff", 4, "--phases", 1024,
                   "--loss-grid", "0,0.1,0.2", "--nbar-grid", "0.05,0.5",
                   "--out-dir", tmp_path) == 0
        fi = _read_csv_with_comments(tmp_path / "fi_vs_loss.csv")
        # lossless row: PNR max-FI per photon within 1% of the quantum bound
        assert fi["max_cfi_pnr_per_photon"][0] >= 0.99 * fi["max_qfi_per_photon"][0]
        # FI per photon non-increasing as loss grows
        assert np.all(np.diff(fi["max_cfi_pnr_per_photon"]) <= 1e-9)
        ratio = _read_csv_with_comments(tmp_path / "ratio_vs_nbar.csv")
        assert np.all(ratio["ratio"] >= 1 - 1e-9)
        assert (tmp_path / "subsnl_vs_nbar.csv").exists()
        # every CSV and the printed line carry the largest mass the cutoff
        # drops from a scanned config; detection loss drops nothing
        cutoff = FockCutoff(4)
        scanned = [SqueezingParams(0.15)] + [
            SqueezingParams.from_mean_photons(nb) for nb in (0.05, 0.5)
        ]
        want = max(truncation_mass(sq, LossModel(), cutoff) for sq in scanned)
        for name in ("fi_vs_loss.csv", "ratio_vs_nbar.csv", "subsnl_vs_nbar.csv"):
            assert f"# truncation_mass={want!r}\n" in (tmp_path / name).read_text(), name
        assert capsys.readouterr().out.rstrip().endswith(f"truncation_mass={want!r}")

    def test_loss_model_override(self, tmp_path):
        assert run("loss-scan", "--z", 0.15, "--cutoff", 4, "--phases", 256,
                   "--loss-grid", "0,0.2", "--nbar-grid", "0.05",
                   "--loss-model", "0.9,0.9,0.85,0.85",
                   "--out-dir", tmp_path) == 0
