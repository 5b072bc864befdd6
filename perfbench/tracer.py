"""Span tracer for the benchmark's traced run.

Spans are recorded from outside the program: each traced name is replaced, in
the module that looks it up, by a wrapper that records (name, start, end,
parent) around the original call. Spans stay in memory until the run writes
them out. A target that no longer exists is recorded as absent.
"""

import functools
import importlib
import statistics
import time
from collections import defaultdict

# (module, attribute path, span name). Each name is patched where its caller
# looks it up: the CLI imports sweep_fisher, fit_model and tomography_mle into
# its own namespace, sweep_fisher finds quantum_fisher_mixed in metrology, and
# the engine finds loss_kraus_operators in optics. fock and _accel run inside
# these spans and are not wrapped on their own: their kernels take 12-103 us
# per call, so a wrapper would cost a visible share of the time it measures.
TARGETS = (
    ("tmsvfisher.cli", "main", "cli.main"),
    ("tmsvfisher.cli", "sweep_fisher", "metrology.sweep_fisher"),
    ("tmsvfisher.cli", "fit_model", "inference.fit_model"),
    ("tmsvfisher.cli", "tomography_mle", "detectors.tomography_mle"),
    ("tmsvfisher.metrology", "quantum_fisher_mixed", "metrology.qfi"),
    ("tmsvfisher.optics", "loss_kraus_operators", "optics.loss_kraus_operators"),
    ("tmsvfisher.optics", "InterferometerEngine.__init__", "optics.engine_build"),
    ("tmsvfisher.optics", "InterferometerEngine.populations", "optics.populations"),
    ("tmsvfisher.optics", "InterferometerEngine.dpopulations", "optics.populations"),
    ("tmsvfisher.optics", "InterferometerEngine.sigma4", "optics.sigma4"),
    ("tmsvfisher.optics", "InterferometerEngine.dsigma4", "optics.sigma4"),
)


def _em_iterations(result):
    """EM iterations from tomography_mle's (povm, TomographyDiagnostics) result."""
    return {"detectors.em_iterations": result[1].iterations}


# Counters read from a traced call's return value, keyed by span name.
RESULT_COUNTERS = {"detectors.tomography_mle": _em_iterations}


class Tracer:
    """Records nested spans of wrapped calls in one thread.

    ``spans`` holds [name, start, end, parent] lists; parent is the index of
    the enclosing span or None. ``counters`` holds counts read from results.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = defaultdict(int)
        self.absent = []
        self._stack = []
        self._patched = []

    def _wrap(self, fn, name):
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = [name, self.clock(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()
            if counter is not None:
                for key, value in counter(result).items():
                    self.counters[key] += value
            return result

        return traced

    def install(self, targets=TARGETS):
        """Patch every target; record the ones that cannot be found as absent."""
        for module_name, path, name in targets:
            try:
                owner = importlib.import_module(module_name)
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._wrap(original, name))
            self._patched.append((owner, attr, original))

    def uninstall(self):
        """Restore every patched name, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def union_length(intervals, lo, hi):
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per-span self time: duration minus the union of its direct children."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [
        (end - start) - union_length(children[i], start, end)
        for i, (name, start, end, parent) in enumerate(spans)
    ]


def layer_totals(spans):
    """{span name: (calls, total self seconds)} over a list of spans."""
    totals = defaultdict(lambda: [0, 0.0])
    for (name, *_), own in zip(spans, self_times(spans)):
        totals[name][0] += 1
        totals[name][1] += own
    return {name: tuple(v) for name, v in totals.items()}


def per_layer_metrics(traced_ops, overhead_s):
    """Per-layer metrics as medians over traced operations.

    Each element of traced_ops is (layer_totals, counters) for one operation.
    Names that never appeared read 0, so every metric is present on every
    workload: sigma4 is 0 by design on a sweep without QFI.
    """

    def med(values):
        return statistics.median(values) if values else 0.0

    def calls(name):
        return med([t.get(name, (0, 0.0))[0] for t, _ in traced_ops])

    def own(name):
        return med([t.get(name, (0, 0.0))[1] for t, _ in traced_ops])

    iters = med([c.get("detectors.em_iterations", 0) for _, c in traced_ops])
    per_iter = med([
        t.get("detectors.tomography_mle", (0, 0.0))[1] / c["detectors.em_iterations"]
        for t, c in traced_ops
        if c.get("detectors.em_iterations")
    ])
    return {
        "optics.populations.calls": (calls("optics.populations"), "count"),
        "optics.populations.s": (own("optics.populations"), "s"),
        "optics.engine_build.calls": (calls("optics.engine_build"), "count"),
        "optics.engine_build.s": (own("optics.engine_build"), "s"),
        "optics.loss_kraus_operators.calls": (calls("optics.loss_kraus_operators"), "count"),
        "optics.sigma4.calls": (calls("optics.sigma4"), "count"),
        "optics.sigma4.s": (own("optics.sigma4"), "s"),
        "metrology.qfi.calls": (calls("metrology.qfi"), "count"),
        "metrology.qfi.s": (own("metrology.qfi"), "s"),
        "metrology.sweep_fisher.s": (own("metrology.sweep_fisher"), "s"),
        "inference.fit_model.calls": (calls("inference.fit_model"), "count"),
        "inference.fit_model.s": (own("inference.fit_model"), "s"),
        "detectors.tomography_mle.s": (own("detectors.tomography_mle"), "s"),
        "detectors.em_iterations": (iters, "count"),
        "detectors.em_s_per_iter": (per_iter, "s"),
        "cli.main.s": (own("cli.main"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
