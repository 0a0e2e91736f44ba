"""Span tracing for the traced benchmark run, and the per-layer metrics
computed from its spans.

``install`` wraps, from outside the package, the public functions that
``dualclust.cli.cmd_run`` and ``dualclust.trainer.train`` call: the names
imported into ``dualclust.cli`` and ``dualclust.trainer``, the loaders
in ``dualclust.config``, ``ExperimentConfig.resolve`` and
``dualclust.autodiff.backward``. Nothing in the package changes. Spans
are kept in memory and written to a JSON file when the run ends.

A span is ``[name, start_ns, end_ns, parent, step]``: ``parent`` is the
index of the enclosing span (-1 for none) and ``step`` the training step
the span belongs to (null outside a step). A step opens at its first
step-layer call and closes when ``adam_step`` returns.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time

# (module, attribute, span name, belongs to a step)
TRACED = (
    ("dualclust.cli", "cmd_run", "cli.cmd_run", False),
    ("dualclust.cli", "load_config", "config.load", False),
    ("dualclust.cli", "build_dataset", "data.load", False),
    ("dualclust.config", "gaussian_blobs", "data.gaussian_blobs", False),
    ("dualclust.config", "load_csv", "data.load_csv", False),
    ("dualclust.config", "load_idx", "data.load_idx", False),
    ("dualclust.config", "standardize", "data.standardize", False),
    ("dualclust.cli", "train", "trainer.train", False),
    ("dualclust.cli", "predict_assignments", "cli.final_assignments", False),
    ("dualclust.cli", "instance_space_assignments", "cli.final_assignments", False),
    ("dualclust.trainer", "pair_rng", "augment.pair_rng", True),
    ("dualclust.trainer", "make_pair", "augment.make_pair", True),
    ("dualclust.trainer", "forward_graph", "model.forward_graph", True),
    ("dualclust.trainer", "instance_loss", "losses.instance_loss", True),
    ("dualclust.trainer", "cluster_loss", "losses.cluster_loss", True),
    ("dualclust.trainer", "pair_similarity_stats", "losses.pair_similarity_stats", True),
    ("dualclust.trainer", "adam_step", "trainer.adam_step", True),
    ("dualclust.trainer", "evaluate", "trainer.evaluate", False),
    ("dualclust.trainer", "nmi", "metrics.bundle", False),
    ("dualclust.trainer", "clustering_accuracy", "metrics.bundle", False),
    ("dualclust.trainer", "ari", "metrics.bundle", False),
    ("dualclust.trainer", "kmeans", "kmeans.kmeans", False),
)

# Layers timed per training step, in report order.
STEP_LAYERS = (
    "augment.pair_rng",
    "augment.make_pair",
    "model.forward_graph",
    "autodiff.backward",
    "losses.instance_loss",
    "losses.cluster_loss",
    "losses.pair_similarity_stats",
    "trainer.adam_step",
)
EPOCH_LAYERS = ("trainer.evaluate", "metrics.bundle")

# Per-layer metric names and units, in report order.
LAYER_METRICS = {
    **{f"{layer}.{kind}": unit for layer in STEP_LAYERS for kind, unit in (("ms_per_step", "ms"), ("share", "1"))},
    "augment.make_pair.us_per_call": "us",
    "augment.make_pair.calls_per_epoch": "count",
    "autodiff.tape_nodes_per_step": "count",
    "autodiff.tape_bytes_per_step": "B",
    "trainer.loop.self_ms_per_step": "ms",
    "trainer.loop.self_share": "1",
    "trainer.steps": "count",
    "trainer.train.ms": "ms",
    **{f"{layer}.{kind}": unit for layer in EPOCH_LAYERS for kind, unit in (("ms_per_epoch", "ms"), ("share", "1"))},
    "kmeans.kmeans.ms_per_call": "ms",
    "data.load.ms": "ms",
    "config.parse_resolve.ms": "ms",
    "cli.artifacts.ms": "ms",
    "trace.overhead_pct": "%",
}

# Counts that must repeat exactly from run to run.
EXACT_COUNTS = (
    "trainer.steps",
    "autodiff.tape_nodes_per_step",
    "autodiff.tape_bytes_per_step",
    "augment.make_pair.calls_per_epoch",
)


class Tracer:
    """Records spans in memory; one instance per traced run."""

    def __init__(self):
        self.spans: list = []
        self.tape: list = []  # [nodes, bytes] per backward call
        self._stack: list = []
        self._step = None
        self._next_step = 0

    def wrap(self, name: str, fn, in_step: bool):
        def traced(*args, **kwargs):
            if in_step and self._step is None:
                self._step = self._next_step
                self._next_step += 1
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[index] = [name, start, end, parent, self._step if in_step else None]
                if name == "trainer.adam_step":
                    self._step = None

        return traced

    def wrap_backward(self, fn):
        timed = self.wrap("autodiff.backward", fn, True)
        counted = self.wrap("trace.tape_count", self._count_tape, True)

        def backward(root):
            timed(root)
            counted(root)

        return backward

    def _count_tape(self, root) -> None:
        """Nodes reachable from the loss root, and their value+grad bytes."""
        seen, stack, nbytes = {id(root)}, [root], 0
        while stack:
            node = stack.pop()
            nbytes += node.value.nbytes
            if node.grad is not None:
                nbytes += node.grad.nbytes
            for parent in node.parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        self.tape.append([len(seen), nbytes])

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "tape": self.tape}, fh)


def install(tracer: Tracer) -> None:
    """Wrap every traced function; call before ``dualclust.cli.main``."""
    from dualclust import autodiff
    from dualclust.config import ExperimentConfig

    for module_name, attr, name, in_step in TRACED:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), in_step))
    ExperimentConfig.resolve = tracer.wrap("config.resolve", ExperimentConfig.resolve, False)
    autodiff.backward = tracer.wrap_backward(autodiff.backward)


class TraceError(Exception):
    """The spans of a traced run are inconsistent."""


def layer_metrics(trace: dict, epochs: int, expected_steps: int, pairs_per_step: int) -> dict:
    """Per-layer metrics of one traced run (all but trace.overhead_pct).

    Raises TraceError when a span's self time is negative, when the
    spans do not reconstruct the traced train time, or when the counts
    disagree with the workload's shape.
    """
    spans = trace["spans"]
    # Integer nanoseconds until the metrics, so self times are exact.
    durations = [end - start for _, start, end, _, _ in spans]
    child_ns = [0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += durations[i]
    for i, span in enumerate(spans):
        if durations[i] < child_ns[i]:
            raise TraceError(f"span {i} ({span[0]}) has negative self time")

    def only(name):
        found = [i for i, span in enumerate(spans) if span[0] == name]
        if len(found) != 1:
            raise TraceError(f"expected one {name} span, found {len(found)}")
        return found[0]

    run = only("cli.cmd_run")
    train = only("trainer.train")
    train_ms = durations[train] / 1e6

    def total(name, parent=None):
        """Milliseconds in spans called ``name`` (under ``parent``, if given)."""
        return sum(
            durations[i]
            for i, span in enumerate(spans)
            if span[0] == name and (parent is None or span[3] == parent)
        ) / 1e6

    def calls(name):
        return sum(1 for span in spans if span[0] == name)

    steps = calls("trainer.adam_step")
    step_ids = {span[4] for span in spans if span[4] is not None}
    if steps != expected_steps or len(step_ids) != steps:
        raise TraceError(f"{steps} adam steps and {len(step_ids)} step ids, expected {expected_steps}")
    pair_calls = calls("augment.make_pair")
    if pair_calls != steps * pairs_per_step or calls("augment.pair_rng") != pair_calls:
        raise TraceError(f"{pair_calls} make_pair calls for {steps} steps of {pairs_per_step}")
    tape = trace["tape"]
    if len(tape) != steps or any(entry != tape[0] for entry in tape):
        raise TraceError(f"tape size varies across steps: {sorted(set(map(tuple, tape)))}")

    # The train span = its direct children + its self time. The only
    # children that are not reported layers are the config.resolve call
    # inside train() and the tracer's own tape count.
    self_ms = (durations[train] - child_ns[train]) / 1e6
    known = set(STEP_LAYERS) | {"trainer.evaluate", "config.resolve", "trace.tape_count"}
    stray = {spans[i][0] for i in range(len(spans)) if spans[i][3] == train} - known
    if stray:
        raise TraceError(f"unexpected spans directly under trainer.train: {sorted(stray)}")
    metrics = {}
    for layer in STEP_LAYERS:
        ms = total(layer, train)
        metrics[f"{layer}.ms_per_step"] = ms / steps
        metrics[f"{layer}.share"] = ms / train_ms
    metrics["augment.make_pair.us_per_call"] = total("augment.make_pair") * 1e3 / pair_calls
    metrics["augment.make_pair.calls_per_epoch"] = pair_calls // epochs
    metrics["autodiff.tape_nodes_per_step"], metrics["autodiff.tape_bytes_per_step"] = tape[0]
    metrics["trainer.loop.self_ms_per_step"] = self_ms / steps
    metrics["trainer.loop.self_share"] = self_ms / train_ms
    metrics["trainer.steps"] = steps
    metrics["trainer.train.ms"] = train_ms
    for layer in EPOCH_LAYERS:
        ms = total(layer)
        metrics[f"{layer}.ms_per_epoch"] = ms / epochs
        metrics[f"{layer}.share"] = ms / train_ms
    kmeans_calls = calls("kmeans.kmeans")
    metrics["kmeans.kmeans.ms_per_call"] = total("kmeans.kmeans") / kmeans_calls if kmeans_calls else 0.0
    metrics["data.load.ms"] = total("data.load", run)
    metrics["config.parse_resolve.ms"] = total("config.load", run) + total("config.resolve", run)
    metrics["cli.artifacts.ms"] = (durations[run] - child_ns[run]) / 1e6

    rebuilt = (
        sum(metrics[f"{layer}.ms_per_step"] for layer in STEP_LAYERS) * steps
        + metrics["trainer.evaluate.ms_per_epoch"] * epochs
        + total("config.resolve", train)
        + total("trace.tape_count", train)
        + self_ms
    )
    if abs(rebuilt - train_ms) > 1e-6 * train_ms:
        raise TraceError(f"spans rebuild {rebuilt} ms of {train_ms} ms traced train time")
    return metrics


def median_metrics(runs: list) -> dict:
    """Per-metric median over traced runs; exact counts must agree."""
    medians = {name: statistics.median(run[name] for run in runs) for name in runs[0]}
    for name in EXACT_COUNTS:
        values = {run[name] for run in runs}
        if len(values) != 1:
            raise TraceError(f"{name} differs between traced runs: {sorted(values)}")
        medians[name] = values.pop()
    return medians
