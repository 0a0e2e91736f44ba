"""Experiment configuration: strict parsing, defaults, and resolution.

Configs are JSON. Parsing is strict: unknown keys fail with their full
dotted path, so a typo can never silently fall back to a default, and a
value of the wrong type fails with its path too. One parser reads every
section off its dataclass fields and their annotations. Every
optional field has a documented default, and ``resolve`` pins all of
them (including ones that depend on the dataset, like the cluster count
inferred from labels) so the echoed config re-runs identically.
"""

from __future__ import annotations

import json
import math
import types
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace

import numpy as np

from .augment import (
    IMAGE_KINDS,
    VECTOR_KINDS,
    AugmentationPipeline,
    TransformSpec,
    default_image_pipeline,
    default_vector_pipeline,
)
from .data import (
    Dataset,
    ImageGeometry,
    VectorGeometry,
    gaussian_blobs,
    load_csv,
    load_idx,
    standardize,
    two_moons,
)
from .errors import ConfigError
from .model import ModelConfig

__all__ = [
    "DatasetConfig",
    "ModelSection",
    "LossSection",
    "TrainingSection",
    "AugmentationSection",
    "ExperimentConfig",
    "load_config",
    "build_dataset",
    "build_pipeline",
    "ABLATION_MODES",
]

ABLATION_MODES = ("full", "ich_only", "cch_only", "raw_second_view", "raw_both_views")

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

# Parameters of each transform kind and their types, read off its
# TransformSpec factory.
_TRANSFORM_PARAMS = {
    kind: typing.get_type_hints(getattr(TransformSpec, kind))
    for kind in sorted(VECTOR_KINDS | IMAGE_KINDS)
}

# The JSON values each annotated type takes. Python counts a bool as an
# int, but true is never a count or a number here; a number must be finite.
_ACCEPTS = {
    int: ("an integer", lambda v: type(v) is int),
    float: ("a finite number", lambda v: type(v) is int or type(v) is float and math.isfinite(v)),
    bool: ("true or false", lambda v: type(v) is bool),
    str: ("a string", lambda v: type(v) is str),
    type(None): ("null", lambda v: v is None),
}


def _check_keys(section: dict, allowed, required, path: str, note: str = ""):
    if not isinstance(section, dict):
        raise ConfigError(f"config: {path or 'top level'} must be an object")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"config: unknown key {_join(path, key)!r}{note}")
    for key in required:
        if key not in section:
            raise ConfigError(f"config: missing required key {_join(path, key)!r}")


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _require(condition: bool, path: str, message: str):
    if not condition:
        raise ConfigError(f"config: {path}: {message}")


def _typed(annotation, value, path: str):
    """``value`` checked against a field annotation: a config section is
    parsed by its ``from_dict``, ``tuple[X, ...]`` takes a list of X and
    returns a tuple, and anything else takes what ``_ACCEPTS`` lists for
    the type or for one member of the union."""
    if is_dataclass(annotation):
        return annotation.from_dict(value, path)
    if typing.get_origin(annotation) is tuple:
        _require(isinstance(value, (list, tuple)), path, f"must be a list, got {value!r}")
        item = typing.get_args(annotation)[0]
        return tuple(_typed(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    union = isinstance(annotation, types.UnionType)
    options = typing.get_args(annotation) if union else (annotation,)
    expected = " or ".join(_ACCEPTS[option][0] for option in options)
    accepted = any(_ACCEPTS[option][1](value) for option in options)
    _require(accepted, path, f"must be {expected}, got {value!r}")
    return value


def _parse(cls, raw, path: str):
    """An instance of the dataclass ``cls`` from a JSON object: each key
    must name a field, a field without a default is required, and each
    value must have its field's annotated type."""
    annotations = typing.get_type_hints(cls)
    required = [f.name for f in fields(cls) if f.default is MISSING]
    _check_keys(raw, annotations, required, path)
    values = {key: _typed(annotations[key], value, _join(path, key)) for key, value in raw.items()}
    return cls(**values)


def _kind(raw, table: dict, path: str, what: str) -> str:
    """The ``kind`` of a JSON object; it must name an entry of ``table``."""
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError(f"config: {path}: needs a 'kind'")
    kind = _typed(str, raw["kind"], f"{path}.kind")
    expected = f"expected one of {sorted(table)}"
    _require(kind in table, f"{path}.kind", f"unknown {what} {kind!r}, {expected}")
    return kind


@dataclass(frozen=True)
class DatasetConfig:
    kind: str
    params: dict = field(default_factory=dict)
    standardize: bool | None = None  # None: on for vector data, off for images

    @classmethod
    def from_dict(cls, raw: dict, path: str = "dataset") -> "DatasetConfig":
        kind = _kind(raw, DATASET_PARAMS, path, "dataset kind")
        schema = {"standardize": bool | None, **DATASET_PARAMS[kind]}
        required = [key for key, tp in schema.items() if type(None) not in typing.get_args(tp)]
        _check_keys(raw, {"kind", *schema}, required, path, f": not a parameter of {kind!r}")
        params = {k: _typed(schema[k], raw[k], f"{path}.{k}") for k in raw if k != "kind"}
        standardize = params.pop("standardize", None)
        return cls(kind=kind, params=params, standardize=standardize)


@dataclass(frozen=True)
class ModelSection:
    encoder_widths: tuple[int, ...] = (64, 64)
    instance_dim: int = 128
    head_hidden_dim: int | None = None
    cluster_count: int | None = None  # None: inferred from dataset labels
    init_seed: int | None = None  # None: the experiment seed

    @classmethod
    def from_dict(cls, raw: dict, path: str = "model") -> "ModelSection":
        out = _parse(cls, raw, path)
        _require(len(out.encoder_widths) >= 1, f"{path}.encoder_widths", "needs one width")
        return out

    def model_config(self, input_dim: int) -> ModelConfig:
        if self.cluster_count is None or self.init_seed is None:
            raise ConfigError("model section must be resolved before building the model")
        return ModelConfig(input_dim=input_dim, **asdict(self))


@dataclass(frozen=True)
class LossSection:
    instance_temperature: float = 0.5
    cluster_temperature: float = 1.0
    entropy_weight: float = 1.0
    exclude_self_similarity: bool = True
    literal_entropy_sign: bool = False

    @classmethod
    def from_dict(cls, raw: dict, path: str = "losses") -> "LossSection":
        out = _parse(cls, raw, path)
        _require(out.instance_temperature > 0, f"{path}.instance_temperature", "must be positive")
        _require(out.cluster_temperature > 0, f"{path}.cluster_temperature", "must be positive")
        return out


@dataclass(frozen=True)
class TrainingSection:
    batch_size: int = 64
    epochs: int = 200
    learning_rate: float = 0.0003
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def from_dict(cls, raw: dict, path: str = "training") -> "TrainingSection":
        out = _parse(cls, raw, path)
        _require(out.batch_size >= 2, f"{path}.batch_size", "must be at least 2")
        _require(out.epochs >= 0, f"{path}.epochs", "must be nonnegative")
        _require(out.learning_rate > 0, f"{path}.learning_rate", "must be positive")
        _require(0 <= out.beta1 < 1, f"{path}.beta1", "must be in [0, 1)")
        _require(0 <= out.beta2 < 1, f"{path}.beta2", "must be in [0, 1)")
        _require(out.epsilon > 0, f"{path}.epsilon", "must be positive")
        return out


@dataclass(frozen=True)
class AugmentationSection:
    preset: str | None = "default"  # None once transforms are explicit
    transforms: tuple | None = None  # of dicts: {"kind", "probability", params...}

    @classmethod
    def from_dict(cls, raw: dict, path: str = "augmentation") -> "AugmentationSection":
        _check_keys(raw, {"preset", "transforms"}, (), path)
        preset = _typed(str | None, raw.get("preset"), f"{path}.preset")
        transforms = raw.get("transforms")
        if transforms is None:
            _require(preset in (None, "default"), f"{path}.preset", f"unknown preset {preset!r}")
            return cls(preset="default", transforms=None)
        _require(preset is None, path, "give either 'preset' or 'transforms', not both")
        at = f"{path}.transforms"
        _require(isinstance(transforms, (list, tuple)), at, f"must be a list, got {transforms!r}")
        checked = (_transform(t, f"{at}[{i}]") for i, t in enumerate(transforms))
        return cls(preset=None, transforms=tuple(checked))


def _transform(entry, path: str) -> dict:
    """One explicit transform, checked by calling its factory. Every
    parameter must be given, with no per-kind defaults, so the resolved
    echo round-trips exactly."""
    kind = _kind(entry, _TRANSFORM_PARAMS, path, "transform")
    schema = {"probability": float, **_TRANSFORM_PARAMS[kind]}
    _check_keys(entry, {"kind", *schema}, schema, path)
    for key, annotation in schema.items():
        _typed(annotation, entry[key], f"{path}.{key}")
    _require(0 <= entry["probability"] <= 1, f"{path}.probability", "must be in [0, 1]")
    try:
        _transform_from_dict(entry)
    except ConfigError as exc:
        raise ConfigError(f"config: {path}: {exc}") from None
    return dict(entry)


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
        if self.ablation not in ABLATION_MODES:
            raise ConfigError(
                f"config: ablation: unknown mode {self.ablation!r}, "
                f"expected one of {ABLATION_MODES}"
            )

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        return _parse(cls, raw, "")

    def resolve(self, dataset: Dataset) -> "ExperimentConfig":
        """Pin every dataset-dependent or deferred default so the echoed
        config is complete and re-runnable."""
        cluster_count = self.model.cluster_count
        if cluster_count is None:
            if dataset.labels is None:
                raise ConfigError(
                    "config: model.cluster_count must be set for unlabeled data"
                )
            cluster_count = int(np.unique(dataset.labels).size)
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
            pipeline = _default_pipeline_for(dataset.geometry)
            transforms = tuple(_transform_to_dict(s, p) for s, p in pipeline.transforms)
        return replace(
            self,
            dataset=replace(self.dataset, standardize=standardized),
            model=replace(
                self.model,
                cluster_count=cluster_count,
                init_seed=init_seed,
                head_hidden_dim=head_hidden,
            ),
            augmentation=AugmentationSection(preset=None, transforms=transforms),
        )

    def to_dict(self) -> dict:
        """The JSON form that ``from_dict`` reads back: dataset parameters
        sit beside ``kind``, and augmentation names only the one of
        ``preset`` and ``transforms`` that is set."""
        out = asdict(self)
        dataset = out["dataset"]
        out["dataset"] = {"kind": dataset["kind"], **dataset["params"]}
        out["dataset"]["standardize"] = dataset["standardize"]
        out["augmentation"] = {k: v for k, v in out["augmentation"].items() if v is not None}
        return out


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config: {path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    return ExperimentConfig.from_dict(raw)


def build_dataset(config: DatasetConfig) -> Dataset:
    """Generate or load the dataset, applying standardization per the
    (possibly still-default) flag."""
    # Built per call, so that a wrapper installed on one of these module
    # names (the benchmark's tracer does this) takes effect.
    loaders = {
        "gaussian_blobs": gaussian_blobs, "two_moons": two_moons, "csv": load_csv, "idx": load_idx
    }
    if config.kind not in loaders:
        raise ConfigError(f"config: dataset.kind: unknown dataset kind {config.kind!r}")
    dataset = loaders[config.kind](**config.params)
    flag = config.standardize
    if flag is None:
        flag = isinstance(dataset.geometry, VectorGeometry)
    if flag:
        samples, _, _ = standardize(dataset.samples)
        dataset = Dataset(samples, dataset.geometry, dataset.labels, dataset.name)
    return dataset


def _default_pipeline_for(geometry) -> AugmentationPipeline:
    if isinstance(geometry, ImageGeometry):
        return default_image_pipeline(geometry)
    return default_vector_pipeline(geometry)


def _transform_to_dict(spec: TransformSpec, probability: float) -> dict:
    params = {key: getattr(spec, key) for key in _TRANSFORM_PARAMS[spec.kind]}
    return {"kind": spec.kind, "probability": probability, **params}


def _transform_from_dict(entry: dict) -> tuple:
    params = {key: entry[key] for key in _TRANSFORM_PARAMS[entry["kind"]]}
    return getattr(TransformSpec, entry["kind"])(**params), float(entry["probability"])


def build_pipeline(section: AugmentationSection, geometry) -> AugmentationPipeline:
    if section.transforms is None:
        return _default_pipeline_for(geometry)
    transforms = tuple(_transform_from_dict(entry) for entry in section.transforms)
    return AugmentationPipeline(transforms=transforms, geometry=geometry)
