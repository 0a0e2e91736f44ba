"""The names the traced benchmark wraps must exist in the package, and a
traced run must pass the benchmark's span checks."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dualclust.data import Dataset, ImageGeometry, save_idx

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


def blobs(samples, tmp_path):
    return {
        "kind": "gaussian_blobs",
        "k": 2,
        "n_per": samples // 2,
        "dim": 4,
        "separation": 8.0,
        "sigma": 1.0,
        "seed": 0,
    }


def images64(samples, tmp_path):
    # Side 64, so the default image preset includes the blur.
    rng = np.random.default_rng(0)
    labels = np.arange(samples) % 2
    dataset = Dataset(rng.uniform(size=(samples, 64 * 64)), ImageGeometry(64, 64), labels)
    save_idx(tmp_path / "images.idx", dataset, tmp_path / "labels.idx")
    return {
        "kind": "idx",
        "images_path": str(tmp_path / "images.idx"),
        "labels_path": str(tmp_path / "labels.idx"),
    }


# The three paths of a step that the benchmark traces: vector views,
# image views with every image transform, and the ich_only run that
# assigns clusters by k-means.
TRACED_RUNS = {
    "vector": (blobs, "full"),
    "images64_blur": (images64, "full"),
    "ich_only_kmeans": (blobs, "ich_only"),
}


@pytest.mark.parametrize("case", sorted(TRACED_RUNS))
def test_traced_run_passes_the_span_checks(tmp_path, case):
    # The benchmark's own traced path, on a tiny run: worker.py writes the
    # spans, and layer_metrics raises TraceError on a broken call count,
    # step structure or time split.
    dataset, ablation = TRACED_RUNS[case]
    samples, batch, epochs = 32, 8, 2
    config = {
        "dataset": dataset(samples, tmp_path),
        "model": {"encoder_widths": [8], "instance_dim": 4},
        "training": {"batch_size": batch, "epochs": epochs},
        "ablation": ablation,
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
    assert (metrics["kmeans.kmeans.ms_per_call"] > 0.0) == (ablation == "ich_only")
