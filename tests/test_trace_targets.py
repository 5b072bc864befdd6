"""The benchmark's span tracer finds every name it wraps, except the three
dense-path names that left the package.

The tracer records a target it cannot find as absent and goes on, so a
renamed or deleted function would read 0 in its per-layer metric without
any error. This pins the absent list.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_only_the_removed_dense_path_targets_are_absent():
    tracer = _load_tracer()
    with tracer.Tracer() as t:
        absent = list(t.absent)
    assert sorted(absent) == [
        "tmsvfisher.optics.InterferometerEngine.dsigma4",
        "tmsvfisher.optics.InterferometerEngine.sigma4",
        "tmsvfisher.optics.loss_kraus_operators",
    ]
