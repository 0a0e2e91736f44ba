"""The names the traced benchmark wraps must exist in the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _, _ in load_traced()])
def test_traced_name_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_traced_methods_resolve():
    from dualclust import autodiff
    from dualclust.config import ExperimentConfig

    assert callable(ExperimentConfig.resolve) and callable(autodiff.backward)
