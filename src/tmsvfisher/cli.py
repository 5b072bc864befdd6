"""Command-line front end.

Subcommands: sweep, loss-scan, tomography, fit, bootstrap, simulate-counts.
Exit codes: 0 ok, 2 config error, 3 identifiability failure, 4 non-convergence.
All outputs are deterministic for a given config and seed.
"""

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .detectors import (
    DetectorPovm,
    ResponseMatrix,
    check_em_settings,
    click_povm_from,
    coherent_probe_matrix,
    ideal_pnr_povm,
    read_probe_csv,
    tomography_mle,
)
from .errors import ConfigError, IdentifiabilityError, NonConvergenceError
from .fock import FockCutoff
from .inference import (
    CountHistogram,
    bootstrap_ci,
    fit_model,
    simulate_counts,
    snl_with_uncertainty,
)
from .metrology import (
    config_fingerprint,
    default_phase_grid,
    pnr_click_ratio,
    sub_snl_fraction,
    sweep_fisher,
    write_csv,
)
from .optics import InterferometerConfig, LossModel, SqueezingParams, truncation_mass

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IDENTIFIABILITY = 3
EXIT_NONCONVERGENCE = 4


def _parse_floats(text, name):
    """Comma list of numbers; empty entries are skipped."""
    try:
        return [float(p) for p in text.split(",") if p]
    except ValueError as exc:
        raise ConfigError(f"{name} values must be numeric: {text!r} (field: {name})") from exc


def _parse_pair(text, name):
    values = _parse_floats(text, name)
    if len(values) == 1:
        values = values * 2
    if len(values) != 2:
        raise ConfigError(
            f"{name} expects 'a,b' (or a single shared value), got {text!r} (field: {name})"
        )
    return values[0], values[1]


def _size(value, field, default=None):
    """An integer option of at least 1; the default applies only when it is missing."""
    value = default if value is None else value
    if not isinstance(value, int) or value < 1:
        raise ConfigError(
            f"{field} must be an integer of at least 1, got {value!r} (field: {field})"
        )
    return value


def _check_output_dir(args):
    """Fail before any work when the directory an output goes into is missing,
    or when --out names a directory rather than a file."""
    for name in ("out", "out_prefix", "out_dir"):
        path = getattr(args, name, None)
        if path is None:
            continue
        field = name.replace("_", "-")
        if name == "out" and os.path.isdir(path):
            raise ConfigError(f"output file {path!r} is a directory (field: {field})")
        directory = path if name == "out_dir" else os.path.dirname(path)
        if directory and not os.path.isdir(directory):
            raise ConfigError(f"output directory {directory!r} does not exist (field: {field})")


def _load_config_file(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must contain a JSON object")
    return cfg


def _merged(args, keys):
    """File config overridden by explicitly supplied CLI flags."""
    cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}
    out = {}
    for key in keys:
        cli_val = getattr(args, key, None)
        out[key] = cli_val if cli_val is not None else cfg.get(key)
    return out


@contextlib.contextmanager
def _naming(field):
    """Name the CLI field in the error a model parameter's value raises."""
    try:
        yield
    except (ConfigError, TypeError, ValueError) as exc:
        raise ConfigError(f"{exc} (field: {field})") from exc


def _squeezing_from(opts):
    z, nbar = opts.get("z"), opts.get("nbar")
    if (z is None) == (nbar is None):
        raise ConfigError("exactly one of --z / --nbar must be supplied (field: z/nbar)")
    if z is not None:
        with _naming("z"):
            return SqueezingParams(float(z))
    with _naming("nbar"):
        return SqueezingParams.from_mean_photons(float(nbar))


def _loss_from(opts):
    eta_p = _parse_pair(str(opts.get("eta_p", "1,1") or "1,1"), "eta-p")
    eta_d = _parse_pair(str(opts.get("eta_d", "1,1") or "1,1"), "eta-d")
    with _naming("eta-p"):
        LossModel(*eta_p)  # the eta-p pair alone, so that its error names its flag
    with _naming("eta-d"):
        return LossModel(*eta_p, *eta_d)


def _detector_from(spec, cutoff: FockCutoff, n_max: int):
    if spec in (None, "ideal-pnr"):
        return ideal_pnr_povm(min(n_max, cutoff.max_photons), cutoff.max_photons)
    if spec == "click":
        return click_povm_from(
            ideal_pnr_povm(min(n_max, cutoff.max_photons), cutoff.max_photons)
        )
    if spec.startswith("povm-file:"):
        path = spec.split(":", 1)[1]
        povm = DetectorPovm.from_json(path)
        if povm.k_max < cutoff.max_photons:
            raise ConfigError(
                f"POVM file {path} has k_max={povm.k_max} < cutoff {cutoff.max_photons} "
                "(field: detector)"
            )
        return povm
    raise ConfigError(f"unknown detector spec {spec!r} (field: detector)")


def _provenance(opts, seed=None):
    meta = {k: v for k, v in sorted(opts.items()) if v is not None}
    meta["version"] = __version__
    if seed is not None:
        meta["seed"] = seed
    meta["config_hash"] = config_fingerprint(
        {k: str(v) for k, v in meta.items()}
    )
    return meta


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_sweep(args):
    opts = _merged(
        args, ["z", "nbar", "eta_p", "eta_d", "cutoff", "phases", "detector", "n_max"]
    )
    squeezing = _squeezing_from(opts)
    loss = _loss_from(opts)
    cutoff = FockCutoff(_size(opts.get("cutoff"), "cutoff", 10))
    n_phases = _size(opts.get("phases"), "phases", 2048)
    n_max = _size(opts.get("n_max"), "n-max", cutoff.max_photons)
    povm = _detector_from(opts.get("detector"), cutoff, n_max)
    config = InterferometerConfig(squeezing, loss, 0.0, cutoff)
    report = sweep_fisher(
        config, default_phase_grid(n_phases), povm, povm, compute_qfi=not args.no_qfi
    )
    report.metadata.update(_provenance(opts))
    out = args.out_prefix
    report.to_csv(f"{out}fisher.csv")
    report.to_json(f"{out}fisher.json")
    frac = f"{sub_snl_fraction(report):.4f}" if report.snl > 0 else "n/a (snl=0)"
    print(f"wrote {out}fisher.csv and {out}fisher.json "
          f"(snl={report.snl!r}, sub-SNL fraction={frac}) "
          f"truncation_mass={report.metadata['truncation_mass']!r}")
    return EXIT_OK


def cmd_loss_scan(args):
    opts = _merged(args, ["nbar", "z", "cutoff", "phases", "n_max"])
    squeezing = _squeezing_from(opts)
    cutoff = FockCutoff(_size(opts.get("cutoff"), "cutoff", 10))
    n_phases = _size(opts.get("phases"), "phases", 2048)
    n_max = _size(opts.get("n_max"), "n-max", cutoff.max_photons)
    if not squeezing.mean_photons > 0.0:
        raise ConfigError("loss-scan needs a mean photon number > 0 (field: z/nbar)")
    loss_grid = _parse_floats(args.loss_grid, "loss-grid")
    if not loss_grid:
        raise ConfigError("loss grid must be nonempty (field: loss-grid)")
    if not all(0.0 <= lv <= 1.0 for lv in loss_grid):
        raise ConfigError(f"loss grid values must lie in [0, 1]: {args.loss_grid!r} "
                          "(field: loss-grid)")
    if not 0.0 <= args.scan_loss <= 1.0:
        raise ConfigError(f"scan loss must lie in [0, 1], got {args.scan_loss} (field: scan-loss)")
    if args.loss_model:
        etas = _parse_floats(args.loss_model, "loss-model")
        if len(etas) != 4:
            raise ConfigError(
                "loss-model expects 'eta_p_s,eta_p_i,eta_d_s,eta_d_i' (field: loss-model)"
            )
        base_loss = LossModel(*etas)
    else:
        base_loss = LossModel()
    nbar_grid = _parse_floats(args.nbar_grid, "nbar-grid")
    if not nbar_grid or not all(nb > 0.0 for nb in nbar_grid):
        raise ConfigError(f"nbar grid must be nonempty, with values > 0: {args.nbar_grid!r} "
                          "(field: nbar-grid)")
    pnr = ideal_pnr_povm(n_max, cutoff.max_photons)
    click = click_povm_from(pnr)
    scan_loss = LossModel.symmetric(1.0 - args.scan_loss)
    meta = _provenance(opts)
    # the largest mass the cutoff drops from a config the scan evaluates; the
    # loss grid scales only detection, which drops nothing
    meta["truncation_mass"] = max(
        truncation_mass(sq, loss, cutoff)
        for sq, loss in [(squeezing, base_loss)]
        + [(SqueezingParams.from_mean_photons(nb), scan_loss) for nb in nbar_grid]
    )
    grid = default_phase_grid(n_phases)

    rows = []
    for lv in loss_grid:
        loss = base_loss.scaled(1.0 - lv)
        config = InterferometerConfig(squeezing, loss, 0.0, cutoff)
        rep_pnr = sweep_fisher(config, grid, pnr, pnr, compute_qfi=True)
        rep_click = sweep_fisher(config, grid, click, click, compute_qfi=False)
        nb = squeezing.mean_photons
        rows.append(
            (
                lv,
                float(rep_pnr.cfi.max() / nb),
                float(rep_click.cfi.max() / nb),
                float(rep_pnr.qfi.max() / nb),
                sub_snl_fraction(rep_pnr, "cfi"),
                sub_snl_fraction(rep_click, "cfi"),
            )
        )
    write_csv(
        os.path.join(args.out_dir, "fi_vs_loss.csv"),
        meta,
        "loss,max_cfi_pnr_per_photon,max_cfi_click_per_photon,max_qfi_per_photon,"
        "subsnl_pnr,subsnl_click",
        list(zip(*rows)),
    )

    scan = pnr_click_ratio(nbar_grid, scan_loss, cutoff, n_max=n_max)
    write_csv(
        os.path.join(args.out_dir, "ratio_vs_nbar.csv"),
        meta,
        "n_bar,max_cfi_pnr,max_cfi_click,ratio",
        [scan["n_bar"], scan["max_cfi_pnr"], scan["max_cfi_click"], scan["ratio"]],
    )

    sub_rows = []
    for nb in nbar_grid:
        cfg = InterferometerConfig(SqueezingParams.from_mean_photons(nb), scan_loss, 0.0, cutoff)
        rep_p = sweep_fisher(cfg, grid, pnr, pnr, compute_qfi=False)
        rep_c = sweep_fisher(cfg, grid, click, click, compute_qfi=False)
        sub_rows.append((nb, sub_snl_fraction(rep_p), sub_snl_fraction(rep_c)))
    write_csv(
        os.path.join(args.out_dir, "subsnl_vs_nbar.csv"),
        meta,
        "n_bar,subsnl_pnr,subsnl_click",
        list(zip(*sub_rows)),
    )
    print(f"wrote fi_vs_loss.csv, ratio_vs_nbar.csv, subsnl_vs_nbar.csv in {args.out_dir} "
          f"truncation_mass={meta['truncation_mass']!r}")
    return EXIT_OK


def cmd_tomography(args):
    if args.kmax < 0:
        raise ConfigError(f"kmax must be >= 0, got {args.kmax} (field: kmax)")
    check_em_settings(args.tol, args.max_iter)
    alphas, counts = read_probe_csv(args.probes)
    shots = counts.sum(axis=1)
    # the counts are integers read as floats, so their sums are exact
    if (shots != shots[0]).any():
        raise ConfigError("probe CSV has unequal shots per probe (field: count)")
    response = ResponseMatrix(counts / shots[:, None], int(shots[0]))
    C = coherent_probe_matrix(alphas, args.kmax)
    povm, diag = tomography_mle(response, C, tol=args.tol, max_iter=args.max_iter)
    povm.to_json(args.out)
    print(
        f"wrote {args.out}: {povm.theta.shape[0]}x{povm.theta.shape[1]} theta, "
        f"iterations={diag.iterations} converged={diag.converged} "
        f"loglik={diag.log_likelihood!r} cond(C)={diag.cond_C:.3e} "
        f"ll_gain={diag.ll_gain!r} grad_norm={diag.grad_norm!r} "
        f"kkt_at_zero={diag.kkt_at_zero!r} start={diag.start}"
    )
    if not diag.converged:
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def _load_povms(args, cutoff):
    n_max = _size(args.n_max, "n-max", cutoff.max_photons)
    povm_s = _detector_from(args.detector_s or args.detector, cutoff, n_max)
    povm_i = _detector_from(args.detector_i or args.detector, cutoff, n_max)
    return povm_s, povm_i


def cmd_fit(args):
    hist = CountHistogram.from_csv(args.counts)
    cutoff = FockCutoff(_size(args.cutoff, "cutoff"))
    povm_s, povm_i = _load_povms(args, cutoff)
    try:
        fixed = json.loads(args.fixed) if args.fixed else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--fixed is not valid JSON: {exc} (field: fixed)") from exc
    if not isinstance(fixed, dict):
        raise ConfigError("--fixed must be a JSON object of parameter values (field: fixed)")
    free = tuple(args.free.split(",")) if args.free else ("z", "eta_p_s", "eta_p_i")
    fit = fit_model(
        hist,
        povm_s,
        povm_i,
        cutoff,
        free=free,
        fixed=fixed,
        include_single_photon=args.include_single_photon,
        n_starts=args.starts,
        seed=args.seed if args.seed is not None else 0,
    )
    if not fit.converged:
        raise NonConvergenceError("model fit did not converge from any start")
    snl, interval = snl_with_uncertainty(fit)
    est = fit.estimates
    loss = LossModel(est["eta_p_s"], est["eta_p_i"], est["eta_d_s"], est["eta_d_i"])
    fit.to_json(
        args.out,
        extra={
            "snl": snl,
            "snl_interval": [interval[0], interval[1]],
            "seed": args.seed,
            "truncation_mass": truncation_mass(SqueezingParams(est["z"]), loss, cutoff),
            "version": __version__,
        },
    )
    print(
        f"wrote {args.out}: z_hat={fit.estimates['z']!r} n_bar_hat={fit.n_bar_hat!r} "
        f"loglik={fit.log_likelihood!r}"
    )
    return EXIT_OK


def cmd_bootstrap(args):
    hist = CountHistogram.from_csv(args.counts)
    if args.seed is None:
        raise ConfigError("--seed is mandatory for bootstrap (field: seed)")
    cutoff = FockCutoff(_size(args.cutoff, "cutoff"))
    povm_s, povm_i = _load_povms(args, cutoff)

    def pipeline(h):
        # per-phase empirical CFI via the fitted model evaluated at h's phases
        fit = fit_model(
            h, povm_s, povm_i, cutoff,
            free=("z", "eta_p_s", "eta_p_i"),
            n_starts=args.starts, seed=0,
        )
        loss = LossModel(
            fit.estimates["eta_p_s"], fit.estimates["eta_p_i"],
            fit.estimates["eta_d_s"], fit.estimates["eta_d_i"],
        )
        cfg = InterferometerConfig(SqueezingParams(fit.estimates["z"]), loss, 0.0, cutoff)
        rep = sweep_fisher(cfg, h.phases, povm_s, povm_i, compute_qfi=False)
        return rep.cfi

    band = bootstrap_ci(hist, pipeline, args.resamples, level=args.level, seed=args.seed)
    meta = _provenance(
        {"resamples": args.resamples, "level": args.level, "cutoff": args.cutoff},
        seed=args.seed,
    )
    write_csv(args.out, meta, "phase,cfi_lo,cfi_hi", [hist.phases, band["lo"], band["hi"]])
    print(f"wrote {args.out} ({args.resamples} resamples at level {args.level})")
    return EXIT_OK


def cmd_simulate_counts(args):
    opts = _merged(args, ["z", "nbar", "eta_p", "eta_d", "cutoff", "detector", "n_max"])
    if args.seed is None:
        raise ConfigError("--seed is mandatory for simulate-counts (field: seed)")
    squeezing = _squeezing_from(opts)
    loss = _loss_from(opts)
    cutoff = FockCutoff(_size(opts.get("cutoff"), "cutoff", 10))
    n_max = _size(opts.get("n_max"), "n-max", cutoff.max_photons)
    n_phases = _size(args.phases, "phases")
    trials = _size(args.trials, "trials")
    povm = _detector_from(opts.get("detector"), cutoff, n_max)
    phases = np.linspace(0.0, 2.0 * math.pi, n_phases, endpoint=False)
    config = InterferometerConfig(squeezing, loss, 0.0, cutoff)
    hist = simulate_counts(config, povm, povm, phases, trials, args.seed)
    hist.to_csv(args.out)
    print(f"wrote {args.out} ({n_phases} phases x {trials} trials)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="tmsvfisher",
        description="TMSV interferometry simulation, detector tomography, and "
        "Fisher-information analysis",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add_model_flags(sp):
        sp.add_argument("--config", help="JSON config file; CLI flags override")
        sp.add_argument("--z", type=float, help="squeezing parameter in [0, 1)")
        sp.add_argument("--nbar", type=float, help="mean photon number (alternative to --z)")
        sp.add_argument("--eta-p", dest="eta_p", help="preparation transmissivities 'a,b'")
        sp.add_argument("--eta-d", dest="eta_d", help="detection transmissivities 'a,b'")
        sp.add_argument("--cutoff", type=int, help="per-mode max photon number (default 10)")
        sp.add_argument("--n-max", dest="n_max", type=int,
                        help="PNR saturation outcome (default: cutoff)")

    sp = sub.add_parser("sweep", help="Fisher information across a phase grid")
    add_model_flags(sp)
    sp.add_argument("--phases", type=int, help="grid points on [0, 2pi) (default 2048)")
    sp.add_argument("--detector", help="ideal-pnr | click | povm-file:PATH")
    sp.add_argument("--no-qfi", action="store_true", help="skip the QFI column")
    sp.add_argument("--out-prefix", default="", help="output filename prefix")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("loss-scan", help="FI curves and sub-SNL fractions vs loss")
    add_model_flags(sp)
    sp.add_argument("--phases", type=int)
    sp.add_argument("--loss-grid", default="0,0.1,0.2,0.3,0.4,0.5",
                    help="comma list of symmetric loss values")
    sp.add_argument("--nbar-grid", default="0.01,0.05,0.1,0.5,1,2",
                    help="comma list of mean photon numbers for the ratio scan")
    sp.add_argument("--scan-loss", type=float, default=0.2,
                    help="symmetric loss for the ratio/sub-SNL scans")
    sp.add_argument("--loss-model", dest="loss_model",
                    help="per-arm base transmissivities 'eta_p_s,eta_p_i,eta_d_s,"
                         "eta_d_i'; the loss grid adds common-path loss on top")
    sp.add_argument("--out-dir", default=".")
    sp.set_defaults(func=cmd_loss_scan)

    sp = sub.add_parser("tomography", help="POVM reconstruction from probe data")
    sp.add_argument("probes", help="probe CSV: alpha_sq,outcome,count")
    sp.add_argument("--kmax", type=int, default=9, help="photon-number truncation")
    sp.add_argument("--tol", type=float, default=1e-10,
                    help="stop when an EM iteration raises the log-likelihood by less "
                         "than this absolute amount (not relative to |ll|): at |ll| "
                         "~1.5e9 the float64 spacing is 2.4e-7, so the default runs "
                         "until the float64 log-likelihood stops rising")
    sp.add_argument("--max-iter", dest="max_iter", type=int, default=100_000,
                    help="EM iterations at most (at least 1)")
    sp.add_argument("--out", default="povm.json")
    sp.set_defaults(func=cmd_tomography)

    def add_fit_flags(sp):
        sp.add_argument("--cutoff", type=int, default=10)
        sp.add_argument("--detector", help="shared detector spec")
        sp.add_argument("--detector-s", dest="detector_s")
        sp.add_argument("--detector-i", dest="detector_i")
        sp.add_argument("--n-max", dest="n_max", type=int)
        sp.add_argument("--starts", type=int, default=8)
        sp.add_argument("--seed", type=int)

    sp = sub.add_parser("fit", help="fit z and losses to a counts CSV")
    sp.add_argument("counts")
    add_fit_flags(sp)
    sp.add_argument("--free", help="comma list of free parameters")
    sp.add_argument("--fixed", help="JSON object of fixed parameters")
    sp.add_argument("--include-single-photon", action="store_true")
    sp.add_argument("--out", default="fit.json")
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("bootstrap", help="bootstrap CI band for the per-phase CFI")
    sp.add_argument("counts")
    add_fit_flags(sp)
    sp.add_argument("--resamples", type=int, default=200)
    sp.add_argument("--level", type=float, default=0.95)
    sp.add_argument("--out", default="band.csv")
    sp.set_defaults(func=cmd_bootstrap)

    sp = sub.add_parser("simulate-counts", help="synthetic counts CSV from the model")
    add_model_flags(sp)
    sp.add_argument("--phases", type=int, default=20)
    sp.add_argument("--trials", type=int, default=100_000)
    sp.add_argument("--detector", help="ideal-pnr | click | povm-file:PATH")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out", default="counts.csv")
    sp.set_defaults(func=cmd_simulate_counts)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output_dir(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IdentifiabilityError as exc:
        print(f"identifiability failure: {exc}", file=sys.stderr)
        return EXIT_IDENTIFIABILITY
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
