"""The names the traced benchmark wraps must exist in the package, and a
traced run must pass the benchmark's span checks."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
WORKER = ROOT / "perfbench" / "worker.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _, _ in load_spans().TRACED])
def test_traced_name_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_traced_methods_resolve():
    from dualclust import autodiff
    from dualclust.config import ExperimentConfig

    assert callable(ExperimentConfig.resolve) and callable(autodiff.backward)


def test_traced_run_passes_the_span_checks(tmp_path):
    # The benchmark's own traced path, on a tiny run: worker.py writes the
    # spans, and layer_metrics raises TraceError on a broken call count,
    # step structure or time split.
    samples, batch, epochs = 32, 8, 2
    config = {
        "dataset": {
            "kind": "gaussian_blobs",
            "k": 2,
            "n_per": samples // 2,
            "dim": 4,
            "separation": 8.0,
            "sigma": 1.0,
            "seed": 0,
        },
        "model": {"encoder_widths": [8], "instance_dim": 4},
        "training": {"batch_size": batch, "epochs": epochs},
        "seed": 0,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    args = ["run", str(config_path), str(tmp_path / "out"), str(spans_path)]
    done = subprocess.run(
        [sys.executable, str(WORKER), *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["exit_code"] == 0, done.stderr
    steps = epochs * (samples // batch)
    metrics = load_spans().layer_metrics(json.loads(spans_path.read_text()), epochs, steps, batch)
    assert metrics["trainer.steps"] == steps
    assert metrics["augment.make_pair.calls_per_epoch"] == samples
