"""Pipeline benchmark for the tmsvfisher CLI.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Runs one workload as a closed loop, one client and one operation at a time,
where an operation is one in-process call of ``tmsvfisher.cli.main(argv)``.
Every operation's output is checked. Run from anywhere inside a checkout; the
program is imported from ``src/``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
wall_s and cpu_s (medians per operation), setup_s (median seconds a fresh
interpreter spends importing tmsvfisher.cli) and peak_rss_mb (peak RSS of this
fresh process after its first operation). With ``--trace 1`` operations
alternate untraced and traced, and it reports the per-layer metrics from the
traced ones (medians per operation) and trace.overhead_s. The failure ratio
is ``failed / attempted`` on the same line. A run also writes its metadata,
every operation and, when traced, every span to ``perfbench/out/``.
"""

import argparse
import ctypes
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SAMPLES = 3
# A run stops starting operations once another typical one would pass
# --seconds, but never before it holds the warm-up and two more.
MIN_OPS = 3
SETUP_PROBE = (
    "import time; t = time.perf_counter(); import tmsvfisher.cli; "
    "print(repr(time.perf_counter() - t))"
)


def _program_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_seconds(samples):
    """Median import time of tmsvfisher.cli over fresh interpreters."""
    times = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=_program_env(),
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def _blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_metadata(workload, seed, seconds, trace):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": _git_commit(),
    }


def closed_loop(main, workload, work, reference, seconds, trace):
    """Run operations back to back until another one would pass ``seconds``.

    The first operation is the warm-up: it fills the program's caches and is
    left out of every median. With trace, the later operations alternate
    traced and untraced, each traced one under a fresh Tracer. Returns the
    operation records and the peak RSS in MB after the first operation.
    """
    ops = []
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        traced = trace and len(ops) % 2 == 1
        if traced:
            with tracer.Tracer() as t:
                op = workloads.run_operation(main, workload, work, reference)
            op.update(spans=t.spans, layers=tracer.layer_totals(t.spans),
                      counters=dict(t.counters), absent=t.absent)
        else:
            op = workloads.run_operation(main, workload, work, reference)
        op["traced"] = traced
        ops.append(op)
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        typical = statistics.median(o["wall_s"] for o in ops[1:] or ops)
        if len(ops) >= MIN_OPS and time.perf_counter() - start + typical > seconds:
            return ops, peak_rss_mb


def failure_count(ops):
    """Operations that raised, exited non-zero or failed an output check."""
    return sum(1 for op in ops if op["problems"])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    if not (SRC / "tmsvfisher" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'tmsvfisher' / 'cli.py'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    trace = bool(args.trace)
    workload = workloads.WORKLOADS[args.workload]
    with open(BENCH / "inputs.json") as fh:
        tables = json.load(fh)
    with open(BENCH / "references.json") as fh:
        reference = json.load(fh)[workload.name]

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup_s, setup_samples = setup_seconds(SETUP_SAMPLES)
    import tmsvfisher.cli

    def cli_main(cli_argv):  # looked up per call, so the tracer's patch is seen
        return tmsvfisher.cli.main(cli_argv)

    meta = run_metadata(workload.name, args.seed, args.seconds, args.trace)
    workload.prepare(str(work), args.seed, tables)
    ops, peak_rss_mb = closed_loop(cli_main, workload, str(work), reference, args.seconds, trace)

    failed = failure_count(ops)
    untraced = [op for op in ops[1:] if not op["traced"]]
    wall_s = statistics.median(op["wall_s"] for op in untraced)
    if trace:
        traced_ops = [op for op in ops if op["traced"]]
        overhead = statistics.median(op["wall_s"] for op in traced_ops) - wall_s
        metrics = tracer.per_layer_metrics(
            [(op["layers"], op["counters"]) for op in traced_ops], overhead
        )
    else:
        metrics = {
            "wall_s": (wall_s, "s"),
            "cpu_s": (statistics.median(op["cpu_s"] for op in untraced), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    for op in ops:
        for problem in op["problems"]:
            print(f"FAILED operation: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_ratio = {failed / len(ops):.6g} ({failed} of {len(ops)} operations)")
    absent = sorted({a for op in ops for a in op.get("absent", [])})
    if absent:
        print("absent trace targets: " + ", ".join(absent))
    print("run: " + json.dumps(meta, sort_keys=True))

    result = {
        "metadata": meta,
        "setup_samples_s": setup_samples,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "fail_ratio": failed / len(ops),
        "absent": absent,
        "operations": [
            {k: op[k] for k in ("wall_s", "cpu_s", "exit_code", "problems", "traced")}
            for op in ops
        ],
        "first_op_s": ops[0]["wall_s"],
    }
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    if trace:
        with open(OUT / f"{tag}-spans.json", "w") as fh:
            json.dump([op["spans"] for op in ops if op["traced"]], fh)
    shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
