"""Mini-batch training of the two-head model with Adam.

One step is one forward pass over both augmented views as 2N stacked
rows [views_a; views_b] -> joint loss -> backward -> parameter update.
The joint objective is the plain sum of the instance and cluster terms
(``loss_terms``). The ablation mode's row of ``config.ABLATIONS`` says
which terms are on and how many views of a pair are augmented; a mode
without the cluster term assigns by k-means. Everything is seeded: batch
order, the parameter init and augmentation, whose random values for an
epoch are drawn at its start in whole arrays from one (seed, epoch)
stream; each sample's pair is then made from its share of them
(``pair_rng``, ``make_pair``). Identical configs reproduce
byte-identical reports.

A run owns one view buffer, which each step fills in place. Each step
runs in its own function (``_step``), which returns only the step's
loss and similarity figures, so its views, graph and gradient list are
released when it returns, before the next step overwrites the buffer;
only the parameter leaves' gradient slots outlive it, until the next
backward clears them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .augment import AugmentationPipeline, epoch_draws, make_pair, pair_rng
from .config import ExperimentConfig, LossSection, TrainingSection, ablation_mode
from .data import Dataset
from .errors import ConfigError, ContractError, DegenerateInputError
from .kmeans import kmeans
from .losses import cluster_loss, instance_loss, pair_similarity_stats
from .metrics import ari, clustering_accuracy, nmi
from .model import ModelParams, forward, forward_graph, init_params, predict_assignments

__all__ = [
    "OptimizerState",
    "EpochRecord",
    "TrainReport",
    "REPORT_COLUMNS",
    "adam_step",
    "loss_terms",
    "train",
    "evaluate",
    "assign",
    "metric_bundle",
    "instance_space_assignments",
]

# Distinct stream family for batch shuffles, so epoch ordering can never
# collide with the augmentation stream.
SHUFFLE_STREAM_TAG = 0x53465631

@dataclass
class OptimizerState:
    """Adam accumulators over ``ModelParams.flat``.

    Bias-corrected first/second moments, no weight decay, no schedule.
    The learning rate, betas and epsilon are read from ``settings``, the
    run's ``config.TrainingSection``, which holds their defaults and
    range checks.
    ``grad`` and ``scratch`` are ``adam_step``'s work buffers, laid out
    like ``flat``: the concatenated gradient and every intermediate.
    """

    settings: TrainingSection
    step: int
    m: np.ndarray
    v: np.ndarray
    grad: np.ndarray = field(repr=False)
    scratch: np.ndarray = field(repr=False)

    @classmethod
    def for_params(cls, params: ModelParams, settings: TrainingSection) -> "OptimizerState":
        flat = params.flat
        return cls(
            settings=settings,
            step=0,
            m=np.zeros_like(flat),
            v=np.zeros_like(flat),
            grad=np.empty_like(flat),
            scratch=np.empty_like(flat),
        )


def adam_step(params: ModelParams, gradients: list, state: OptimizerState) -> None:
    """One Adam update, in place on ``params.flat``.

    ``gradients`` holds one array per parameter, in ``params.arrays``
    order; they are only read. The hyperparameters come from
    ``state.settings``. A zero gradient leaves its parameter
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
    grad, scratch, settings = state.grad, state.scratch, state.settings
    np.concatenate(gradients, axis=None, out=grad)
    with np.errstate(over="ignore"):
        np.multiply(grad, 1.0 - settings.beta2, out=scratch)
        scratch *= grad
    if not np.isfinite(scratch).all():
        _raise_non_finite(params, grad, scratch)
    state.step += 1
    t = state.step
    correction1 = 1.0 - settings.beta1**t
    correction2 = 1.0 - settings.beta2**t
    m, v = state.m, state.v
    m *= settings.beta1
    grad *= 1.0 - settings.beta1
    m += grad
    v *= settings.beta2
    v += scratch
    # Epsilon sits outside the square root: at step 1 with constant
    # gradient g the update is exactly -lr * g / (|g| + eps).
    np.divide(v, correction2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += settings.epsilon
    np.divide(m, correction1, out=grad)
    grad *= settings.learning_rate
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


def loss_terms(z, y, config: LossSection, instance: bool, cluster: bool):
    """(instance term, cluster term, joint objective) of the 2N stacked
    projections ``z`` and soft labels ``y``: a term that is off is None, and
    the objective is the sum of the terms that are on, the one term's own
    node, or the constant 0."""
    term_ins = instance_loss(z, config) if instance else None
    term_clu = cluster_loss(y, config) if cluster else None
    if term_ins is not None and term_clu is not None:
        return term_ins, term_clu, ad.add(term_ins, term_clu)
    return term_ins, term_clu, term_ins or term_clu or ad.lift(np.zeros((1, 1)))


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


# The report's columns are the record's fields, in order.
REPORT_COLUMNS = tuple(f.name for f in fields(EpochRecord))
# The columns that average a value over the epoch's steps.
STEP_COLUMNS = REPORT_COLUMNS[1:4] + REPORT_COLUMNS[7:]


@dataclass
class TrainReport:
    """The per-epoch records, and the final model's assignments, which
    the run's artifacts reuse."""

    records: list
    assignments: np.ndarray

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


def _batch_views(pipeline, samples, draws, indices, augmented, views):
    """The 2B stacked view rows [views_a; views_b] of the samples at
    ``indices``, written into the run's ``(2, B, d)`` buffer ``views`` and
    returned as its 2B-row reshape, so no step allocates its own. An
    overflow in a transform raises no warning: the view's finiteness
    check stops it, and the error names the sample."""
    with np.errstate(over="ignore", invalid="ignore"):
        for j, i in enumerate(indices.tolist()):
            try:
                share = pair_rng(draws, i)
                views[0, j], views[1, j] = make_pair(pipeline, samples[i], share, augmented)
            except ContractError as exc:
                raise ContractError(f"sample {i}: {exc}") from exc
    return views.reshape(2 * len(indices), samples.shape[1])


def _step(params, param_nodes, state, config, mode, pipeline, samples, draws, indices, buffer):
    """One training step on the samples at ``indices`` under ablation
    ``mode``: views into ``buffer``, forward, loss, backward and an Adam
    update of ``params``. Returns the step's values of ``STEP_COLUMNS``.
    The views, graph and gradient list are locals, so they are released
    when this returns."""
    views = _batch_views(pipeline, samples, draws, indices, mode.augmented, buffer)
    z, y = forward_graph(param_nodes, views)[1:]
    term_ins, term_clu, total = loss_terms(z, y, config.losses, mode.instance, mode.cluster)
    # A non-finite loss stops the step here; adam_step checks the
    # gradients before it writes anything.
    for name, term in (("l_ins", term_ins), ("l_clu", term_clu), ("l_total", total)):
        if term is not None and not np.isfinite(term.value).all():
            raise DegenerateInputError(f"loss term {name} is not finite")
    ad.backward(total)
    # A head outside the active objective is unreachable from the root:
    # its slots stay empty and its gradient is zero.
    gradients = [
        np.zeros_like(node.value) if node.grad is None else node.grad
        for node in param_nodes.values()
    ]
    # An active loss term's node carries the unit rows its NT-Xent
    # formed; the stats read them instead of a new pass.
    pos_i, neg_i = pair_similarity_stats(term_ins or z)
    pos_c, neg_c = pair_similarity_stats(term_clu or ad.transpose_halves(y.value))
    adam_step(params, gradients, state)
    losses = [float(t.value[0, 0]) if t else 0.0 for t in (term_ins, term_clu, total)]
    return (*losses, pos_i, neg_i, pos_c, neg_c)


def train(config: ExperimentConfig, dataset: Dataset) -> tuple[ModelParams, TrainReport]:
    """Run the training loop and return final parameters plus the
    per-epoch report.

    Mini-batches are seeded shuffles with partial trailing batches
    dropped, so every loss is computed at the same batch size. Metrics
    columns are filled per epoch when the dataset has labels, always on
    raw (un-augmented) inputs, from the mode's assignments (``assign``).
    A mode that never trains the cluster head assigns by k-means, so it
    fills them on the last epoch only. A run that evaluated no epoch (no
    labels, or no epochs) assigns its final model after the loop.
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

    params = init_params(config.model, dataset.dim)
    state = OptimizerState.for_params(params, settings)
    pipeline = AugmentationPipeline(config.augmentation.transforms, dataset.geometry)
    mode = ablation_mode(config.ablation)

    # The graph leaves share storage with the buffer Adam updates in
    # place, so they stay valid across steps.
    param_nodes = params.nodes()
    records, assignments = [], None
    batch = settings.batch_size
    buffer = np.empty((2, batch, dataset.dim))
    for epoch in range(settings.epochs):
        order = _epoch_order(config.seed, epoch, dataset.n)
        draws = epoch_draws(pipeline, config.seed, epoch, dataset.n)
        sums = dict.fromkeys(STEP_COLUMNS, 0.0)
        batch_count = 0
        for start in range(0, dataset.n - batch + 1, batch):
            indices = order[start : start + batch]
            try:
                figures = _step(
                    params, param_nodes, state, config, mode, pipeline, dataset.samples,
                    draws, indices, buffer,
                )
            except (ContractError, DegenerateInputError) as exc:
                raise type(exc)(f"epoch {epoch}, batch {batch_count}: {exc}") from exc
            for key, value in zip(STEP_COLUMNS, figures):
                sums[key] += value
            batch_count += 1

        # Free the epoch's draws before evaluation runs over all n rows.
        del draws
        means = {key: value / batch_count for key, value in sums.items()}
        means["l_ins"] = means["l_ins"] if mode.instance else None
        means["l_clu"] = means["l_clu"] if mode.cluster else None
        metrics = metric_bundle(None, None)
        if dataset.labels is not None and (mode.cluster or epoch == settings.epochs - 1):
            try:
                metrics, assignments = evaluate(params, dataset, config.ablation, config.seed)
            except DegenerateInputError as exc:
                raise DegenerateInputError(f"epoch {epoch}, evaluation: {exc}") from exc
        records.append(EpochRecord(epoch=epoch, **means, **metrics))
    if assignments is None:
        assignments = assign(params, dataset.samples, config.ablation, config.seed)
    return params, TrainReport(records, assignments)


def evaluate(
    params: ModelParams, dataset: Dataset, ablation: str, seed: int
) -> tuple[dict, np.ndarray]:
    """The metric bundle of the mode's assignments (``assign``) against
    ground truth, and those assignments.

    Always runs on raw inputs; augmentation never touches evaluation.
    """
    if dataset.labels is None:
        raise ContractError("evaluate: dataset has no ground-truth labels")
    assignments = assign(params, dataset.samples, ablation, seed)
    return metric_bundle(dataset.labels, assignments), assignments


def assign(params: ModelParams, samples, ablation: str, seed: int) -> np.ndarray:
    """Cluster index per sample under an ablation mode: the cluster head's
    argmax, except in a mode that never trains that head, which assigns
    by seeded k-means over the instance projections."""
    if not ablation_mode(ablation).cluster:
        return instance_space_assignments(params, samples, seed)
    return predict_assignments(params, samples)


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


def instance_space_assignments(params: ModelParams, samples, seed: int):
    """Seeded k-means over unit-normalized instance-head features into the
    model's ``cluster_count`` groups: the evaluation pathway for models
    trained with the instance term only."""
    _, z, _ = forward(params, samples)
    # Each nonzero row is divided by its largest |entry| first, so its norm
    # lies in [1, sqrt(d)] and cannot overflow; a zero row stays zero.
    peak = np.abs(z).max(axis=1, keepdims=True)
    peak[peak == 0.0] = 1.0
    z = z / peak
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    labels, _, _ = kmeans(z / np.maximum(norms, 1.0), params.config.cluster_count, seed=seed)
    return labels
