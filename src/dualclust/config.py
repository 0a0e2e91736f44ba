"""Experiment configuration: strict parsing, defaults, and resolution.

Configs are JSON. Parsing is strict: unknown keys fail with their full
dotted path, so a typo can never silently fall back to a default, and a
value of the wrong type fails with its path too. One parser
(``schema.parse_section``) reads every section off its dataclass fields
and their annotations; the dataset and each transform are read by their
``kind`` (see ``schema``). Type and range checks sit in each section's
``__post_init__``, so a section built in Python or copied with
``dataclasses.replace`` is checked like a parsed one.
Every optional field has a documented default, and ``resolve`` pins
all of them (including ones that depend on the dataset, like the
cluster count inferred from labels) so the echoed config re-runs
identically.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .augment import AugmentationPipeline, Transform, default_transforms
from .data import (
    Dataset,
    DatasetSpec,
    gaussian_blobs,
    load_csv,
    load_idx,
    standardize,
    two_moons,
)
from .errors import ConfigError
from .schema import check_fields, echo, parse_section, require

__all__ = [
    "ModelSection",
    "LossSection",
    "TrainingSection",
    "AugmentationSection",
    "ExperimentConfig",
    "load_config",
    "build_dataset",
    "ABLATIONS",
    "ABLATION_MODES",
    "ablation_mode",
]


# The one statement of each ablation mode: whether it trains the instance
# term and the cluster term, and how many views of a pair it augments (the
# others are the raw input). A mode without the cluster term assigns
# clusters by k-means.
Ablation = namedtuple("Ablation", "instance cluster augmented")
ABLATIONS = {
    "full": Ablation(True, True, 2),
    "ich_only": Ablation(True, False, 2),
    "cch_only": Ablation(False, True, 2),
    "raw_second_view": Ablation(True, True, 1),
    "raw_both_views": Ablation(True, True, 0),
}
ABLATION_MODES = tuple(ABLATIONS)


def ablation_mode(name: str) -> Ablation:
    """The ``ABLATIONS`` row of mode ``name``."""
    expected = f"expected one of {ABLATION_MODES}"
    require(name in ABLATIONS, "ablation", f"unknown mode {name!r}, {expected}")
    return ABLATIONS[name]


@dataclass(frozen=True)
class ModelSection:
    encoder_widths: tuple[int, ...] = (64, 64)
    instance_dim: int = 128
    head_hidden_dim: int | None = None
    cluster_count: int | None = None  # None: inferred from dataset labels
    init_seed: int | None = None  # None: the experiment seed

    def __post_init__(self):
        check_fields(self, "model")
        require(len(self.encoder_widths) >= 1, "model.encoder_widths", "needs one width")
        for i, width in enumerate(self.encoder_widths):
            require(width >= 1, "model.encoder_widths", f"width {i} must be >= 1, got {width}")
        require(self.instance_dim >= 1, "model.instance_dim", "must be >= 1")
        hidden, count, seed = self.head_hidden_dim, self.cluster_count, self.init_seed
        require(hidden is None or hidden >= 1, "model.head_hidden_dim", "must be >= 1")
        require(count is None or count >= 2, "model.cluster_count", "must be at least 2")
        require(seed is None or seed >= 0, "model.init_seed", "must be nonnegative")


@dataclass(frozen=True)
class LossSection:
    instance_temperature: float = 0.5
    cluster_temperature: float = 1.0
    entropy_weight: float = 1.0
    exclude_self_similarity: bool = True
    literal_entropy_sign: bool = False

    def __post_init__(self):
        check_fields(self, "losses")
        require(self.instance_temperature > 0, "losses.instance_temperature", "must be positive")
        require(self.cluster_temperature > 0, "losses.cluster_temperature", "must be positive")


@dataclass(frozen=True)
class TrainingSection:
    batch_size: int = 64
    epochs: int = 200
    learning_rate: float = 0.0003
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        check_fields(self, "training")
        require(self.batch_size >= 2, "training.batch_size", "must be at least 2")
        require(self.epochs >= 0, "training.epochs", "must be nonnegative")
        require(self.learning_rate > 0, "training.learning_rate", "must be positive")
        require(0 <= self.beta1 < 1, "training.beta1", "must be in [0, 1)")
        require(0 <= self.beta2 < 1, "training.beta2", "must be in [0, 1)")
        require(self.epsilon > 0, "training.epsilon", "must be positive")


@dataclass(frozen=True)
class AugmentationSection:
    transforms: tuple[Transform, ...] | None = None  # None: the geometry's defaults

    def __post_init__(self):
        check_fields(self, "augmentation")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec
    model: ModelSection = ModelSection()
    losses: LossSection = LossSection()
    training: TrainingSection = TrainingSection()
    augmentation: AugmentationSection = AugmentationSection()
    seed: int = 0
    ablation: str = "full"
    out_dir: str | None = None

    def __post_init__(self):
        check_fields(self, "")
        # Here rather than in from_dict, so that a --seed override is checked too.
        require(self.seed >= 0, "seed", "must be nonnegative")
        ablation_mode(self.ablation)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        return parse_section(cls, raw, "")

    def resolve(self, dataset: Dataset) -> "ExperimentConfig":
        """Pin every dataset-dependent or deferred default so the echoed
        config is complete and re-runnable."""
        cluster_count = self.model.cluster_count
        if cluster_count is None:
            if dataset.labels is None:
                raise ConfigError(
                    "config: model.cluster_count must be set for unlabeled data"
                )
            # Distinct labels counted by sort; np.unique's hash path imports numpy.ma.
            cluster_count = int(np.count_nonzero(np.diff(np.sort(dataset.labels)))) + 1
        kmeans_fits = ablation_mode(self.ablation).cluster or cluster_count <= dataset.n
        message = f"{cluster_count} exceeds the {dataset.n} samples that k-means assigns"
        require(kmeans_fits, "model.cluster_count", f"{message} in {self.ablation!r}")
        init_seed = self.model.init_seed
        if init_seed is None:
            init_seed = self.seed
        head_hidden = self.model.head_hidden_dim
        if head_hidden is None:
            head_hidden = self.model.encoder_widths[-1]
        transforms = self.augmentation.transforms
        if transforms is None:
            transforms = default_transforms(dataset.geometry)
        AugmentationPipeline(transforms, dataset.geometry)  # the geometry and blur checks
        return replace(
            self,
            dataset=replace(self.dataset, standardize=self.dataset.standardizes(dataset.geometry)),
            model=replace(
                self.model,
                cluster_count=cluster_count,
                init_seed=init_seed,
                head_hidden_dim=head_hidden,
            ),
            augmentation=AugmentationSection(transforms),
        )

    def to_dict(self) -> dict:
        """The JSON form that ``from_dict`` reads back."""
        return echo(self)


def load_config(path) -> ExperimentConfig:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        raw = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config: {path}: not valid UTF-8 at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config: {path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # an integer over the digit limit, deep nesting
        raise ConfigError(f"config: {path}: invalid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(raw)


def build_dataset(spec: DatasetSpec) -> Dataset:
    """Generate or load the dataset, applying standardization per the
    (possibly still-default) flag."""
    # Built per call, so that a wrapper installed on one of these module
    # names (the benchmark's tracer does this) takes effect.
    loaders = {
        "gaussian_blobs": gaussian_blobs, "two_moons": two_moons, "csv": load_csv, "idx": load_idx
    }
    dataset = loaders[spec.kind](spec)
    if spec.standardizes(dataset.geometry):
        samples, _, _ = standardize(dataset.samples)
        dataset = Dataset(samples, dataset.geometry, dataset.labels, dataset.name)
    return dataset
