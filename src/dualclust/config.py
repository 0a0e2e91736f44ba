"""Experiment configuration: strict parsing, defaults, and resolution.

Configs are JSON. Parsing is strict: unknown keys fail with their full
dotted path, so a typo can never silently fall back to a default, and a
value of the wrong type fails with its path too. One parser
(``schema.parse_section``) reads every section off its dataclass fields
and their annotations. Type and range checks sit in each section's
``__post_init__``, so a section built in Python or copied with
``dataclasses.replace`` is checked like a parsed one.
Every optional field has a documented default, and ``resolve`` pins
all of them (including ones that depend on the dataset, like the
cluster count inferred from labels) so the echoed config re-runs
identically.
"""

from __future__ import annotations

import json
import typing
from collections import namedtuple
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .augment import TRANSFORMS, AugmentationPipeline, Transform, default_transforms
from .data import (
    Dataset,
    VectorGeometry,
    gaussian_blobs,
    load_csv,
    load_idx,
    standardize,
    two_moons,
)
from .errors import ConfigError
from .schema import check_fields, check_keys, check_value, parse_section, require

__all__ = [
    "DatasetConfig",
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


# Parameters of each dataset kind and their types. One whose type admits
# None may be left out.
DATASET_PARAMS = {
    "gaussian_blobs": {
        "k": int, "n_per": int, "dim": int, "separation": float, "sigma": float, "seed": int
    },
    "two_moons": {"n": int, "noise": float, "seed": int},
    "csv": {"path": str, "label_column": int | str | None},
    "idx": {"images_path": str, "labels_path": str | None},
}

def _kind(raw, table: dict, path: str, what: str) -> str:
    """The ``kind`` of a JSON object; it must name an entry of ``table``."""
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError(f"config: {path}: needs a 'kind'")
    kind = check_value(str, raw["kind"], f"{path}.kind")
    expected = f"expected one of {sorted(table)}"
    require(kind in table, f"{path}.kind", f"unknown {what} {kind!r}, {expected}")
    return kind


@dataclass(frozen=True)
class DatasetConfig:
    kind: str
    params: dict = field(default_factory=dict)
    standardize: bool | None = None  # None: on for vector data, off for images

    def __post_init__(self):
        kind = _kind({"kind": self.kind}, DATASET_PARAMS, "dataset", "dataset kind")
        schema = DATASET_PARAMS[kind]
        required = [key for key, tp in schema.items() if type(None) not in typing.get_args(tp)]
        check_keys(self.params, schema, required, "dataset", f": not a parameter of {kind!r}")
        for key, value in self.params.items():
            check_value(schema[key], value, f"dataset.{key}")
        if "seed" in self.params:
            require(self.params["seed"] >= 0, "dataset.seed", "must be nonnegative")
        check_value(bool | None, self.standardize, "dataset.standardize")

    @classmethod
    def from_dict(cls, raw: dict, path: str = "dataset") -> "DatasetConfig":
        kind = _kind(raw, DATASET_PARAMS, path, "dataset kind")
        params = {key: value for key, value in raw.items() if key not in ("kind", "standardize")}
        return cls(kind=kind, params=params, standardize=raw.get("standardize"))


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
    transforms: tuple | None = None  # of augment.Transform; None: the geometry's defaults

    def __post_init__(self):
        check_fields(self, "augmentation")
        for i, spec in enumerate(self.transforms or ()):
            message = f"must be a transform, got {spec!r}"
            require(isinstance(spec, Transform), f"augmentation.transforms[{i}]", message)

    @classmethod
    def from_dict(cls, raw: dict, path: str = "augmentation") -> "AugmentationSection":
        check_keys(raw, {"transforms"}, (), path)
        at = f"{path}.transforms"
        transforms = check_value(tuple | None, raw.get("transforms"), at)
        if transforms is None:
            return cls()
        checked = (_transform(t, f"{at}[{i}]") for i, t in enumerate(transforms))
        return cls(tuple(checked))


def _transform(entry, path: str):
    """One explicit transform: its ``kind``, then its class's fields. No
    field has a default, so the resolved echo round-trips exactly."""
    kind = _kind(entry, TRANSFORMS, path, "transform")
    params = {key: value for key, value in entry.items() if key != "kind"}
    try:
        return parse_section(TRANSFORMS[kind], params, path)
    except ConfigError as exc:  # a range check names the transform by its kind
        raise ConfigError(str(exc).replace(f"config: {kind}.", f"config: {path}.", 1)) from None


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig
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
        standardized = self.dataset.standardize
        if standardized is None:
            standardized = isinstance(dataset.geometry, VectorGeometry)
        transforms = self.augmentation.transforms
        if transforms is None:
            transforms = default_transforms(dataset.geometry)
        AugmentationPipeline(transforms, dataset.geometry)  # the geometry check
        return replace(
            self,
            dataset=replace(self.dataset, standardize=standardized),
            model=replace(
                self.model,
                cluster_count=cluster_count,
                init_seed=init_seed,
                head_hidden_dim=head_hidden,
            ),
            augmentation=AugmentationSection(transforms),
        )

    def to_dict(self) -> dict:
        """The JSON form that ``from_dict`` reads back: dataset parameters
        sit beside ``kind``, and each transform names its kind."""
        out = asdict(self)
        dataset = out["dataset"]
        out["dataset"] = {"kind": dataset["kind"], **dataset["params"]}
        out["dataset"]["standardize"] = dataset["standardize"]
        if self.augmentation.transforms is not None:
            transforms = self.augmentation.transforms
            out["augmentation"]["transforms"] = [{"kind": t.kind, **asdict(t)} for t in transforms]
        return out


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


def build_dataset(config: DatasetConfig) -> Dataset:
    """Generate or load the dataset, applying standardization per the
    (possibly still-default) flag."""
    # Built per call, so that a wrapper installed on one of these module
    # names (the benchmark's tracer does this) takes effect.
    loaders = {
        "gaussian_blobs": gaussian_blobs, "two_moons": two_moons, "csv": load_csv, "idx": load_idx
    }
    dataset = loaders[config.kind](**config.params)
    flag = config.standardize
    if flag is None:
        flag = isinstance(dataset.geometry, VectorGeometry)
    if flag:
        samples, _, _ = standardize(dataset.samples)
        dataset = Dataset(samples, dataset.geometry, dataset.labels, dataset.name)
    return dataset
