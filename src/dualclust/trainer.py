"""Mini-batch training of the two-head model with Adam.

One step is forward (both augmented views) -> joint loss -> backward ->
parameter update. The joint objective is the plain sum of the instance
and cluster terms; ablation switches drop either one. Everything is
seeded: batch order, per-sample augmentation streams, and the parameter
init, so identical configs reproduce byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .augment import make_pair, pair_rng
from .config import ExperimentConfig, build_pipeline
from .data import Dataset
from .errors import ConfigError, ContractError, DegenerateInputError
from .kmeans import kmeans
from .losses import (
    ClusterLossConfig,
    InstanceLossConfig,
    cluster_loss,
    instance_loss,
    pair_similarity_stats,
)
from .metrics import ari, clustering_accuracy, nmi
from .model import ModelParams, forward, forward_graph, init_params, predict_assignments

__all__ = [
    "OptimizerState",
    "EpochRecord",
    "TrainReport",
    "REPORT_COLUMNS",
    "adam_step",
    "total_loss",
    "train",
    "evaluate",
    "metric_bundle",
    "instance_space_assignments",
]

# Distinct stream family for batch shuffles, so epoch ordering can never
# collide with augmentation substreams.
SHUFFLE_STREAM_TAG = 0x53465631

REPORT_COLUMNS = (
    "epoch",
    "l_ins",
    "l_clu",
    "l_total",
    "nmi",
    "acc",
    "ari",
    "pos_sim_inst",
    "neg_sim_inst",
    "pos_sim_clu",
    "neg_sim_clu",
)
# The columns that average a value over the epoch's steps.
STEP_COLUMNS = REPORT_COLUMNS[1:4] + REPORT_COLUMNS[7:]


@dataclass
class OptimizerState:
    """Adam accumulators over ``ModelParams.flat``.

    Bias-corrected first/second moments, no weight decay, no schedule.
    ``grad`` and ``scratch`` are ``adam_step``'s work buffers, laid out
    like ``flat``: the concatenated gradient and every intermediate.
    """

    learning_rate: float = 0.0003
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    grad: np.ndarray = field(default_factory=lambda: np.zeros(0), repr=False)
    scratch: np.ndarray = field(default_factory=lambda: np.zeros(0), repr=False)

    @classmethod
    def for_params(
        cls,
        params: ModelParams,
        learning_rate: float = 0.0003,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> "OptimizerState":
        return cls(
            learning_rate=learning_rate,
            beta1=beta1,
            beta2=beta2,
            epsilon=epsilon,
            step=0,
            m=np.zeros_like(params.flat),
            v=np.zeros_like(params.flat),
            grad=np.empty_like(params.flat),
            scratch=np.empty_like(params.flat),
        )


def adam_step(params: ModelParams, gradients: list, state: OptimizerState) -> None:
    """One Adam update, in place on ``params.flat``.

    ``gradients`` holds one array per parameter, in ``params.arrays``
    order; they are only read. A zero gradient leaves its parameter
    bit-identical: both moments stay zero and the update is exactly
    0 / (0 + epsilon). A gradient that is not finite, or whose square
    overflows the second moment, raises ``DegenerateInputError`` naming
    its parameter before anything is written.
    """
    shapes = [view.shape for view in params.arrays.values()]
    if len(gradients) != len(shapes):
        raise ContractError(
            f"optimizer: got {len(gradients)} gradients for {len(shapes)} parameters"
        )
    for i, (grad, shape) in enumerate(zip(gradients, shapes)):
        if grad.shape != shape:
            raise ContractError(
                f"optimizer: gradient {i} has shape {grad.shape}, parameter has {shape}"
            )
    grad, scratch = state.grad, state.scratch
    np.concatenate(gradients, axis=None, out=grad)
    with np.errstate(over="ignore"):
        np.multiply(grad, 1.0 - state.beta2, out=scratch)
        scratch *= grad
    if not np.isfinite(scratch).all():
        _raise_non_finite(params, grad, scratch)
    state.step += 1
    t = state.step
    correction1 = 1.0 - state.beta1**t
    correction2 = 1.0 - state.beta2**t
    m, v = state.m, state.v
    m *= state.beta1
    grad *= 1.0 - state.beta1
    m += grad
    v *= state.beta2
    v += scratch
    # Epsilon sits outside the square root: at step 1 with constant
    # gradient g the update is exactly -lr * g / (|g| + eps).
    np.divide(v, correction2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += state.epsilon
    np.divide(m, correction1, out=grad)
    grad *= state.learning_rate
    grad /= scratch
    params.flat -= grad


def _raise_non_finite(params: ModelParams, grad, square) -> None:
    """Name the parameter of the first entry whose scaled square is not finite."""
    index = int(np.flatnonzero(~np.isfinite(square))[0])
    reason = "overflows Adam's second moment" if np.isfinite(grad[index]) else "is not finite"
    for name, view in params.arrays.items():
        if index < view.size:
            break
        index -= view.size
    raise DegenerateInputError(f"gradient of {name} {reason}")


def _loss_terms(
    z_a, z_b, y_a, y_b, instance_config, cluster_config, include_instance, include_cluster
):
    """(instance term, cluster term, joint objective); a switched-off
    term is None."""
    term_ins = instance_loss(z_a, z_b, instance_config) if include_instance else None
    term_clu = cluster_loss(y_a, y_b, cluster_config) if include_cluster else None
    if term_ins is not None and term_clu is not None:
        return term_ins, term_clu, ad.add(term_ins, term_clu)
    return term_ins, term_clu, term_ins or term_clu or ad.lift(np.zeros((1, 1)))


def total_loss(
    z_a,
    z_b,
    y_a,
    y_b,
    instance_config: InstanceLossConfig = InstanceLossConfig(),
    cluster_config: ClusterLossConfig = ClusterLossConfig(),
    include_instance: bool = True,
    include_cluster: bool = True,
) -> ad.Node:
    """Joint objective: unweighted sum of the two heads' losses.

    With one term switched off the result is the other term's node
    itself; with both off it is the constant 0.
    """
    return _loss_terms(
        z_a, z_b, y_a, y_b, instance_config, cluster_config, include_instance, include_cluster
    )[2]


def _term_switches(ablation: str) -> tuple[bool, bool]:
    # The raw_* modes ablate augmentation only; the objective stays joint.
    return ablation != "cch_only", ablation != "ich_only"


def _pair_mode(ablation: str) -> str:
    if ablation == "raw_second_view":
        return "raw_second"
    if ablation == "raw_both_views":
        return "raw_both"
    return "two_views"


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    l_ins: float | None
    l_clu: float | None
    l_total: float
    nmi: float | None
    acc: float | None
    ari: float | None
    pos_sim_inst: float
    neg_sim_inst: float
    pos_sim_clu: float
    neg_sim_clu: float

    def cells(self) -> list:
        return [getattr(self, column) for column in REPORT_COLUMNS]


@dataclass
class TrainReport:
    records: list = field(default_factory=list)

    def csv_text(self) -> str:
        lines = [",".join(REPORT_COLUMNS)]
        for record in self.records:
            lines.append(",".join(_format_cell(cell) for cell in record.cells()))
        return "\n".join(lines) + "\n"


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    # repr of a Python float is shortest-round-trip and deterministic.
    return repr(float(value))


def _epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence((SHUFFLE_STREAM_TAG, seed, epoch)))
    return rng.permutation(n)


def train(config: ExperimentConfig, dataset: Dataset) -> tuple[ModelParams, TrainReport]:
    """Run the training loop and return final parameters plus the
    per-epoch report.

    Mini-batches are seeded shuffles with partial trailing batches
    dropped, so every loss is computed at the same batch size. Metrics
    columns are filled per epoch when the dataset has labels, always on
    raw (un-augmented) inputs.
    """
    if dataset.n == 0:
        raise ContractError("train: dataset is empty")
    config = config.resolve(dataset)
    settings = config.training
    if settings.batch_size > dataset.n:
        raise ConfigError(
            f"training: batch_size {settings.batch_size} exceeds "
            f"dataset size {dataset.n}"
        )
    if config.model.cluster_count < 2:
        raise ConfigError("training: need at least 2 clusters")

    params = init_params(config.model.model_config(dataset.dim))
    state = OptimizerState.for_params(
        params,
        learning_rate=settings.learning_rate,
        beta1=settings.beta1,
        beta2=settings.beta2,
        epsilon=settings.epsilon,
    )
    pipeline = build_pipeline(config.augmentation, dataset.geometry)
    include_instance, include_cluster = _term_switches(config.ablation)
    pair_mode = _pair_mode(config.ablation)
    instance_config = InstanceLossConfig(
        temperature=config.losses.instance_temperature,
        exclude_self_similarity=config.losses.exclude_self_similarity,
    )
    cluster_config = ClusterLossConfig(
        temperature=config.losses.cluster_temperature,
        entropy_weight=config.losses.entropy_weight,
        exclude_self_similarity=config.losses.exclude_self_similarity,
        literal_entropy_sign=config.losses.literal_entropy_sign,
    )

    # The graph leaves share storage with the buffer Adam updates in
    # place, so they stay valid across steps.
    param_nodes = params.nodes()
    report = TrainReport()
    batch = settings.batch_size
    for epoch in range(settings.epochs):
        order = _epoch_order(config.seed, epoch, dataset.n)
        sums = dict.fromkeys(STEP_COLUMNS, 0.0)
        batch_count = 0
        for start in range(0, dataset.n - batch + 1, batch):
            indices = order[start : start + batch]
            views_a, views_b = [], []
            for i in indices:
                rng = pair_rng(config.seed, epoch, int(i))
                xa, xb = make_pair(pipeline, dataset.samples[i], rng, mode=pair_mode)
                views_a.append(xa)
                views_b.append(xb)
            try:
                _, z_a, y_a = forward_graph(param_nodes, np.stack(views_a))
                _, z_b, y_b = forward_graph(param_nodes, np.stack(views_b))
                term_ins, term_clu, total = _loss_terms(
                    z_a, z_b, y_a, y_b, instance_config, cluster_config,
                    include_instance, include_cluster,
                )
                # A non-finite loss stops the step here; adam_step checks
                # the gradients before it writes anything.
                for name, term in (("l_ins", term_ins), ("l_clu", term_clu), ("l_total", total)):
                    if term is not None and not np.isfinite(term.value).all():
                        raise DegenerateInputError(f"loss term {name} is not finite")
                ad.backward(total)
                # A head outside the active objective is unreachable from
                # the root: its slots stay empty and its gradient is zero.
                gradients = [
                    np.zeros_like(node.value) if node.grad is None else node.grad
                    for node in param_nodes.values()
                ]
                pos_i, neg_i = pair_similarity_stats(z_a.value, z_b.value)
                pos_c, neg_c = pair_similarity_stats(y_a.value.T, y_b.value.T)
                adam_step(params, gradients, state)
            except DegenerateInputError as exc:
                raise DegenerateInputError(
                    f"epoch {epoch}, batch {batch_count}: {exc}"
                ) from exc
            # A loss node keeps its step's whole tape alive: hold it only in
            # names that the next step rebinds before its backward pass.
            losses = [float(t.value[0, 0]) if t else 0.0 for t in (term_ins, term_clu, total)]
            for key, value in zip(STEP_COLUMNS, (*losses, pos_i, neg_i, pos_c, neg_c)):
                sums[key] += value
            batch_count += 1

        means = {key: value / batch_count for key, value in sums.items()}
        means["l_ins"] = means["l_ins"] if include_instance else None
        means["l_clu"] = means["l_clu"] if include_cluster else None
        metrics = metric_bundle(None, None) if dataset.labels is None else evaluate(params, dataset)
        report.records.append(EpochRecord(epoch=epoch, **means, **metrics))
    return params, report


def evaluate(params: ModelParams, dataset: Dataset) -> dict:
    """Metric bundle of the argmax assignments against ground truth.

    Always runs on raw inputs; augmentation never touches evaluation.
    """
    if dataset.labels is None:
        raise ContractError("evaluate: dataset has no ground-truth labels")
    return metric_bundle(dataset.labels, predict_assignments(params, dataset.samples))


def metric_bundle(labels, assignments) -> dict:
    """NMI, ACC and ARI of ``assignments`` against ground-truth
    ``labels``; all None when there are no labels."""
    if labels is None:
        return {"nmi": None, "acc": None, "ari": None}
    return {
        "nmi": float(nmi(labels, assignments)),
        "acc": float(clustering_accuracy(labels, assignments)),
        "ari": float(ari(labels, assignments)),
    }


def instance_space_assignments(params: ModelParams, samples, k: int, seed: int = 0):
    """Seeded k-means over unit-normalized instance-head features: the
    evaluation pathway for models trained with the instance term only."""
    _, z, _ = forward(params, samples)
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    labels, _, _ = kmeans(z / norms, k, seed=seed)
    return labels
