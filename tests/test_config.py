"""Strict config parsing, defaults, and resolution tests."""

import ast
import copy
import importlib
import inspect
import json
import pkgutil
import re
import sys
from dataclasses import MISSING, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualclust
from dualclust.augment import (
    AugmentationPipeline,
    GaussianJitter,
    HorizontalFlip,
    ScaleJitter,
    Transform,
    _blur_matrix,
    default_transforms,
    epoch_draws,
    make_pair,
    pair_rng,
)
from dualclust.config import (
    ABLATION_MODES,
    ABLATIONS,
    Ablation,
    AugmentationSection,
    ExperimentConfig,
    LossSection,
    ModelSection,
    TrainingSection,
    build_dataset,
    load_config,
)
from dualclust.data import (
    DatasetSpec,
    GaussianBlobs,
    ImageGeometry,
    TwoMoons,
    VectorGeometry,
)
from dualclust.errors import ConfigError

BLOBS = {
    "kind": "gaussian_blobs",
    "k": 4,
    "n_per": 16,
    "dim": 6,
    "separation": 8.0,
    "sigma": 1.0,
    "seed": 0,
}


MOONS = {"n": 40, "noise": 0.1, "seed": 0}
DATASET_KINDS = {cls.kind: cls for cls in DatasetSpec.__subclasses__()}
TRANSFORMS = {cls.kind: cls for cls in Transform.__subclasses__()}
# A valid section of every dataset kind.
DATASETS = {
    "gaussian_blobs": BLOBS,
    "two_moons": {"kind": "two_moons", **MOONS},
    "csv": {"kind": "csv", "path": "data.csv", "label_column": "label"},
    "idx": {"kind": "idx", "images_path": "images.idx", "labels_path": "labels.idx"},
}


def minimal(**extra):
    raw = {"dataset": dict(BLOBS)}
    raw.update(extra)
    return raw


class TestStrictKeys:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="'epochz'"):
            ExperimentConfig.from_dict(minimal(epochz=10))

    def test_unknown_nested_key_reports_dotted_path(self):
        with pytest.raises(ConfigError, match=r"training\.batchsize"):
            ExperimentConfig.from_dict(minimal(training={"batchsize": 8}))

    def test_unknown_loss_key_reports_dotted_path(self):
        with pytest.raises(ConfigError, match=r"losses\.temp"):
            ExperimentConfig.from_dict(minimal(losses={"temp": 0.5}))

    def test_missing_dataset_rejected(self):
        with pytest.raises(ConfigError, match="dataset"):
            ExperimentConfig.from_dict({})

    def test_wrong_kind_parameter_rejected(self):
        raw = minimal()
        raw["dataset"] = {"kind": "two_moons", "n": 40, "sigma": 1.0}
        with pytest.raises(ConfigError, match="not a parameter"):
            ExperimentConfig.from_dict(raw)

    def test_unknown_dataset_kind_rejected(self):
        raw = minimal()
        raw["dataset"] = {"kind": "spiral"}
        with pytest.raises(ConfigError, match="spiral"):
            ExperimentConfig.from_dict(raw)

    def test_unknown_ablation_rejected(self):
        with pytest.raises(ConfigError, match="ablation"):
            ExperimentConfig.from_dict(minimal(ablation="half"))


SECTIONS = {"model": ModelSection, "losses": LossSection, "training": TrainingSection}

# Valid fields of every transform kind: 0.5 is in range for each field.
TRANSFORM_FIELDS = {
    kind: dict.fromkeys((f.name for f in fields(cls)), 0.5) for kind, cls in TRANSFORMS.items()
}
EVERY_TRANSFORM = [{"kind": kind, **values} for kind, values in TRANSFORM_FIELDS.items()]


# The blob section is "dataset" in the case ids; another dataset kind is
# named by its kind.
DATASET_SECTIONS = {"dataset": "gaussian_blobs", "two_moons": "two_moons"}


def _section(section, **values):
    if section in DATASET_SECTIONS:
        kind = DATASET_SECTIONS[section]
        params = {key: value for key, value in DATASETS[kind].items() if key != "kind"}
        return DATASET_KINDS[kind](**{**params, **values})
    if section in TRANSFORMS:
        return TRANSFORMS[section](**{**TRANSFORM_FIELDS[section], **values})
    return SECTIONS[section](**values)


def _raw_section(section, key, value):
    if section in DATASET_SECTIONS:
        return {"dataset": {**DATASETS[DATASET_SECTIONS[section]], key: value}}
    if section in TRANSFORMS:
        entry = {"kind": section, **TRANSFORM_FIELDS[section], key: value}
        return {"augmentation": {"transforms": [entry]}}
    return {section: {key: value}}


# One way to build a section or a transform holding the given value, by
# each construction path: all three must run the same range check.
BUILDERS = {
    "from_dict": lambda section, key, value: ExperimentConfig.from_dict(
        minimal(**_raw_section(section, key, value))
    ),
    "direct": lambda section, key, value: _section(section, **{key: value}),
    "replace": lambda section, key, value: replace(_section(section), **{key: value}),
}


OUT_OF_RANGE = [
    ("training", "batch_size", 1),
    ("training", "epochs", -1),
    ("training", "learning_rate", 0.0),
    ("training", "beta1", 1.0),
    ("training", "beta2", -0.1),
    ("training", "epsilon", 0.0),
    ("losses", "instance_temperature", 0.0),
    ("losses", "cluster_temperature", -1.0),
    ("model", "init_seed", -1),
    ("model", "encoder_widths", []),
    ("model", "encoder_widths", [8, 0]),
    ("model", "instance_dim", 0),
    ("model", "head_hidden_dim", 0),
    ("model", "cluster_count", 1),
    ("scale_jitter", "probability", 1.5),
    ("horizontal_flip", "probability", -0.1),
    ("gaussian_jitter", "sigma", 0.0),
    ("coordinate_mask", "fraction", 1.0),
    ("coordinate_mask", "fraction", -0.1),
    ("scale_jitter", "low", 0.0),
    ("scale_jitter", "high", 0.4),
    ("resized_crop", "min_area_fraction", 0.0),
    ("resized_crop", "min_area_fraction", 1.1),
    ("brightness_jitter", "low", -0.5),
    ("brightness_jitter", "high", 0.4),
    ("gaussian_blur", "sigma", -1.0),
    ("dataset", "seed", -1),
    ("dataset", "n_per", 2.5),
    ("dataset", "separation", "far"),
    ("dataset", "k", 1),
    ("dataset", "n_per", 0),
    ("dataset", "dim", 0),
    ("dataset", "separation", -5.0),
    ("dataset", "sigma", 0),
    ("two_moons", "n", 5),
    ("two_moons", "noise", -0.1),
    ("two_moons", "seed", -1),
]


def _out_of_range_case(build, section, key, value):
    # The from_dict cases keep the ids they had before the other paths.
    case = f"{section}-{key}-{value}"
    case = case if build == "from_dict" else f"{build}-{case}"
    return pytest.param(build, section, key, value, id=case)


class TestValidation:
    @pytest.mark.parametrize(
        "build,section,field,value",
        [_out_of_range_case(build, *case) for build in BUILDERS for case in OUT_OF_RANGE],
    )
    def test_out_of_range_values_rejected(self, build, section, field, value):
        # A transform built in Python does not know its place in the list,
        # so its error names it by its kind; every dataset kind is the
        # dataset section.
        path = "dataset" if section in DATASET_SECTIONS else section
        if section in TRANSFORMS and build == "from_dict":
            path = "augmentation.transforms[0]"
        with pytest.raises(ConfigError, match=rf"^config: {re.escape(path)}\.{field}: "):
            BUILDERS[build](section, field, value)

    def test_empty_encoder_widths_rejected(self):
        with pytest.raises(ConfigError, match="encoder_widths"):
            ExperimentConfig.from_dict(minimal(model={"encoder_widths": []}))


# Incomplete, extended and unknown dataset sections. TestValidation covers
# the parameter values.
DATASET_CASES = [
    ("two_moons", {"n": 40}, r"missing required key 'dataset\.noise'"),
    ("two_moons", {**MOONS, "k": 2}, r"unknown key 'dataset\.k': not a parameter of 'two_moons'"),
    ("spiral", {}, r"dataset\.kind: unknown dataset kind 'spiral'"),
]


class TestDatasetConfig:
    @pytest.mark.parametrize("kind, params, message", DATASET_CASES)
    def test_checked_on_every_construction_path(self, kind, params, message):
        # In Python a kind is a class: its signature rejects a missing or
        # unknown field, and an unknown kind has no class.
        with pytest.raises(ConfigError, match=f"^config: {message}"):
            ExperimentConfig.from_dict(minimal(dataset={"kind": kind, **params}))
        if kind in DATASET_KINDS:
            with pytest.raises(TypeError):
                DATASET_KINDS[kind](**params)

    def test_standardize_checked_when_built_in_python(self):
        with pytest.raises(ConfigError, match=r"^config: dataset\.standardize: must be true"):
            TwoMoons(**MOONS, standardize="no")

    def test_dataset_built_in_python_must_be_a_kind(self):
        message = r"^config: dataset: must be a dataset kind, got \{'kind'"
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(dataset={"kind": "two_moons", **MOONS})


JITTER = {"kind": "gaussian_jitter", "probability": 1.0, "sigma": 0.1}
TRANSFORM0 = "augmentation.transforms[0]"


class TestTypes:
    @pytest.mark.parametrize(
        "edit, path",
        [
            ({"training": {"batch_size": "8"}}, "training.batch_size"),
            ({"training": {"epochs": True}}, "training.epochs"),
            ({"training": {"learning_rate": "0.1"}}, "training.learning_rate"),
            ({"losses": {"entropy_weight": float("nan")}}, "losses.entropy_weight"),
            ({"training": {"epochs": 2.7}}, "training.epochs"),
            ({"seed": 3.7}, "seed"),
            ({"model": {"encoder_widths": "64"}}, "model.encoder_widths"),
            ({"model": {"encoder_widths": [64, 6.5]}}, "model.encoder_widths[1]"),
            ({"dataset": {**BLOBS, "standardize": "no"}}, "dataset.standardize"),
            ({"dataset": {"kind": "csv", "path": 5}}, "dataset.path"),
            ({"augmentation": {"transforms": [{**JITTER, "sigma": "x"}]}}, TRANSFORM0 + ".sigma"),
            ({"augmentation": {"transforms": [{**JITTER, "probability": 1.5}]}}, TRANSFORM0 + ".probability"),
            ({"augmentation": {"transforms": 5}}, "augmentation.transforms"),
            ({"losses": {"exclude_self_similarity": 1}}, "losses.exclude_self_similarity"),
            ({"training": {"learning_rate": 10**400}}, "training.learning_rate"),
            ({"losses": {"instance_temperature": 10**400}}, "losses.instance_temperature"),
            ({"dataset": {**BLOBS, "separation": -(10**400)}}, "dataset.separation"),
            ({"augmentation": {"transforms": [{**JITTER, "sigma": 10**400}]}}, TRANSFORM0 + ".sigma"),
        ],
        ids=[
            "batch_size_string",
            "epochs_bool",
            "learning_rate_string",
            "entropy_weight_nan",
            "epochs_fraction",
            "seed_fraction",
            "encoder_widths_string",
            "encoder_width_fraction",
            "standardize_string",
            "csv_path_number",
            "transform_sigma_string",
            "transform_probability_range",
            "transforms_number",
            "exclude_self_similarity_number",
            "learning_rate_integer_beyond_float",
            "instance_temperature_integer_beyond_float",
            "separation_integer_beyond_float",
            "transform_sigma_integer_beyond_float",
        ],
    )
    def test_ill_typed_value_rejected_with_path(self, edit, path):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_dict(minimal(**edit))
        assert f"config: {path}:" in str(info.value)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("model", "instance_dim", "2"),
            ("training", "epochs", 2.5),
            ("augmentation", "transforms", 5),
            ("losses", "exclude_self_similarity", 1),
        ],
    )
    def test_section_built_in_python_type_checked_like_a_parsed_one(self, section, key, value):
        cls = {**SECTIONS, "augmentation": AugmentationSection}[section]
        with pytest.raises(ConfigError) as parsed:
            ExperimentConfig.from_dict(minimal(**{section: {key: value}}))
        for build in (lambda: cls(**{key: value}), lambda: replace(cls(), **{key: value})):
            with pytest.raises(ConfigError) as built:
                build()
            assert str(built.value) == str(parsed.value)

    @pytest.mark.parametrize(
        "params",
        [
            {"probability": "x", "sigma": 0.1},
            {"probability": 1, "sigma": True},
            {"probability": 1.0, "sigma": [1]},
        ],
        ids=["probability_string", "sigma_bool", "sigma_list"],
    )
    def test_transform_built_in_python_type_checked_like_a_parsed_one(self, params):
        raw = minimal(augmentation={"transforms": [{"kind": "gaussian_jitter", **params}]})
        with pytest.raises(ConfigError) as parsed:
            ExperimentConfig.from_dict(raw)
        with pytest.raises(ConfigError) as built:
            GaussianJitter(**params)
        assert str(built.value) == str(parsed.value).replace(TRANSFORM0, "gaussian_jitter")

    def test_top_level_field_built_in_python_type_checked(self):
        with pytest.raises(ConfigError, match=r"^config: seed: must be an integer, got 1\.5$"):
            ExperimentConfig(TwoMoons(**MOONS), seed=1.5)

    def test_list_built_in_python_kept_as_the_parsed_tuple(self):
        built = ModelSection(encoder_widths=[8, 4])
        assert built == ExperimentConfig.from_dict(minimal(model={"encoder_widths": [8, 4]})).model

    def test_bad_transform_parameter_fails_at_parse_time(self):
        raw = minimal(augmentation={"transforms": [JITTER, {**JITTER, "sigma": -1.0}]})
        with pytest.raises(ConfigError, match=r"augmentation\.transforms\[1\]\.sigma: "):
            ExperimentConfig.from_dict(raw)

    def test_integer_up_to_the_largest_float_accepted(self):
        largest = int(sys.float_info.max)
        config = ExperimentConfig.from_dict(minimal(training={"learning_rate": largest}))
        assert config.training.learning_rate == largest

    def test_missing_dataset_parameter_named(self):
        with pytest.raises(ConfigError, match=r"missing required key 'dataset\.path'"):
            ExperimentConfig.from_dict(minimal(dataset={"kind": "csv"}))

    def test_optional_fields_take_null(self):
        raw = minimal(
            dataset={"kind": "csv", "path": "data.csv", "label_column": None},
            model={"cluster_count": None},
            out_dir=None,
        )
        config = ExperimentConfig.from_dict(raw)
        assert config.model.cluster_count is None and config.out_dir is None


# Every field of every section, every key of every dataset kind (each
# in a config of that kind), and every key of every transform kind: as
# (dataset kind, path).
FIELD_PATHS = (
    [("gaussian_blobs", (f.name,)) for f in fields(ExperimentConfig)]
    + [("gaussian_blobs", (name, f.name)) for name, cls in SECTIONS.items() for f in fields(cls)]
    + [
        (kind, ("dataset", key))
        for kind, cls in DATASET_KINDS.items()
        for key in ("kind", *(f.name for f in fields(cls)))
    ]
    + [
        ("gaussian_blobs", ("augmentation", "transforms", i, key))
        for i, entry in enumerate(EVERY_TRANSFORM)
        for key in entry
    ]
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(FIELD_PATHS), value=JSON_VALUES)
def test_any_json_value_parses_or_raises_config_error(case, value):
    kind, path = case
    raw = minimal(
        dataset=dict(DATASETS[kind]),
        augmentation={"transforms": copy.deepcopy(EVERY_TRANSFORM)},
        out_dir="runs/x",
    )
    node = raw
    for key in path[:-1]:
        node = node[key] if isinstance(key, int) else node.setdefault(key, {})
    node[path[-1]] = copy.deepcopy(value)
    try:
        config = ExperimentConfig.from_dict(raw)
    except ConfigError:
        return
    assert ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


class TestDefaults:
    def test_documented_defaults(self):
        config = ExperimentConfig.from_dict(minimal())
        assert config.training.batch_size == 64
        assert config.training.learning_rate == 0.0003
        assert config.training.beta1 == 0.9
        assert config.training.beta2 == 0.999
        assert config.training.epsilon == 1e-8
        assert config.losses.instance_temperature == 0.5
        assert config.losses.cluster_temperature == 1.0
        assert config.losses.entropy_weight == 1.0
        assert config.losses.exclude_self_similarity is True
        assert config.losses.literal_entropy_sign is False
        assert config.ablation == "full"
        assert config.seed == 0
        assert config.model.instance_dim == 128

    def test_training_epochs_default_within_desk_budget(self):
        config = ExperimentConfig.from_dict(minimal())
        assert 0 < config.training.epochs <= 500


class TestResolve:
    def test_cluster_count_inferred_from_labels(self):
        config = ExperimentConfig.from_dict(minimal())
        dataset = build_dataset(config.dataset)
        resolved = config.resolve(dataset)
        assert resolved.model.cluster_count == 4

    def test_explicit_cluster_count_kept(self):
        config = ExperimentConfig.from_dict(minimal(model={"cluster_count": 7}))
        resolved = config.resolve(build_dataset(config.dataset))
        assert resolved.model.cluster_count == 7

    def test_init_seed_defaults_to_experiment_seed(self):
        config = ExperimentConfig.from_dict(minimal(seed=13))
        resolved = config.resolve(build_dataset(config.dataset))
        assert resolved.model.init_seed == 13

    def test_head_hidden_pinned_to_feature_width(self):
        config = ExperimentConfig.from_dict(minimal(model={"encoder_widths": [48, 24]}))
        resolved = config.resolve(build_dataset(config.dataset))
        assert resolved.model.head_hidden_dim == 24

    def test_standardize_defaults_on_for_vectors(self):
        config = ExperimentConfig.from_dict(minimal())
        resolved = config.resolve(build_dataset(config.dataset))
        assert resolved.dataset.standardize is True

    def test_augmentation_expanded_to_explicit_transforms(self):
        config = ExperimentConfig.from_dict(minimal())
        resolved = config.resolve(build_dataset(config.dataset))
        kinds = [t.kind for t in resolved.augmentation.transforms]
        assert kinds == ["gaussian_jitter", "scale_jitter", "coordinate_mask"]
        echoed = resolved.to_dict()["augmentation"]["transforms"]
        assert [t["kind"] for t in echoed] == kinds
        for transform in echoed:
            assert "probability" in transform

    def test_unlabeled_dataset_needs_explicit_cluster_count(self):
        from dualclust.data import Dataset

        config = ExperimentConfig.from_dict(minimal())
        unlabeled = Dataset(np.zeros((4, 6)), VectorGeometry(6))
        with pytest.raises(ConfigError, match="cluster_count"):
            config.resolve(unlabeled)

    def test_no_silent_defaults_in_resolved_dict(self):
        config = ExperimentConfig.from_dict(minimal(out_dir="runs/x"))
        resolved = config.resolve(build_dataset(config.dataset))
        def walk(node, path=""):
            if isinstance(node, dict):
                for key, value in node.items():
                    walk(value, f"{path}.{key}")
            elif isinstance(node, list):
                for i, value in enumerate(node):
                    walk(value, f"{path}[{i}]")
            else:
                assert node is not None, path
        walk(resolved.to_dict())

    def test_round_trip_preserves_resolved_config(self):
        config = ExperimentConfig.from_dict(minimal(out_dir="runs/x", seed=2))
        resolved = config.resolve(build_dataset(config.dataset))
        reparsed = ExperimentConfig.from_dict(
            json.loads(json.dumps(resolved.to_dict()))
        )
        assert reparsed == resolved

    def test_image_transform_on_vector_data_rejected_with_path(self):
        transforms = [
            {"kind": "gaussian_jitter", "probability": 1.0, "sigma": 0.1},
            {"kind": "horizontal_flip", "probability": 0.5},
        ]
        config = ExperimentConfig.from_dict(minimal(augmentation={"transforms": transforms}))
        message = r"^config: augmentation.transforms\[1\]: transform horizontal_flip needs image"
        with pytest.raises(ConfigError, match=message):
            config.resolve(build_dataset(config.dataset))

    @pytest.mark.parametrize("sigma", [1e6, 85.4, 1e308])
    def test_blur_wider_than_four_image_sides_rejected(self, sigma):
        # The blur matrix's index arrays grow with the radius: at sigma
        # 1e6 the first 64x64 view would ask for about 6 GB. At 1e308,
        # 3 sigma overflows to inf.
        from dualclust.data import Dataset

        transforms = [{"kind": "gaussian_blur", "probability": 0.5, "sigma": sigma}]
        config = ExperimentConfig.from_dict(
            minimal(model={"cluster_count": 2}, augmentation={"transforms": transforms})
        )
        images = Dataset(np.zeros((4, 64 * 64)), ImageGeometry(64, 64))
        message = (
            r"^config: augmentation\.transforms\[0\]\.sigma: "
            rf"blur radius 3 x {re.escape(f'{sigma:g}')} exceeds "
            r"4 x the longer image side \(64\)$"
        )
        with pytest.raises(ConfigError, match=message):
            config.resolve(images)

    def test_blur_of_four_image_sides_accepted(self):
        # Radius ceil(3 * 85.3) = 256 = 4 x 64, on a 64x8 image.
        from dualclust.data import Dataset

        transforms = [{"kind": "gaussian_blur", "probability": 0.5, "sigma": 85.3}]
        config = ExperimentConfig.from_dict(
            minimal(model={"cluster_count": 2}, augmentation={"transforms": transforms})
        )
        resolved = config.resolve(Dataset(np.zeros((4, 64 * 8)), ImageGeometry(64, 8)))
        assert resolved.augmentation.transforms[0].sigma == 85.3

    def test_kmeans_mode_needs_a_sample_per_cluster(self):
        # A mode without the cluster term assigns by k-means over the n
        # samples; the cluster head's argmax takes any count.
        for ablation in ABLATION_MODES:
            config = ExperimentConfig.from_dict(
                minimal(model={"cluster_count": 65}, ablation=ablation)
            )
            dataset = build_dataset(config.dataset)
            if ABLATIONS[ablation].cluster:
                assert config.resolve(dataset).model.cluster_count == 65
            else:
                message = r"^config: model\.cluster_count: 65 exceeds the 64 samples"
                with pytest.raises(ConfigError, match=message):
                    config.resolve(dataset)

    def test_resolve_is_idempotent(self):
        config = ExperimentConfig.from_dict(minimal(out_dir="runs/x"))
        dataset = build_dataset(config.dataset)
        once = config.resolve(dataset)
        assert once.resolve(dataset) == once


def test_readme_complete_example_parses_and_resolves():
    """The README's complete config example is read by the schema as it stands."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"A complete example:\n\n```json\n(.*?)```", readme, re.DOTALL)
    assert block is not None, "README has no complete JSON config example"
    config = ExperimentConfig.from_dict(json.loads(block.group(1)))
    resolved = config.resolve(build_dataset(config.dataset))
    assert ExperimentConfig.from_dict(resolved.to_dict()) == resolved


def _augmentation(raw):
    """The augmentation section parsed from ``raw``."""
    return ExperimentConfig.from_dict(minimal(augmentation=raw)).augmentation


class TestAugmentationSection:
    def test_preset_is_an_unknown_key(self):
        with pytest.raises(ConfigError, match=r"^config: unknown key 'augmentation\.preset'$"):
            _augmentation({"preset": "default"})

    @pytest.mark.parametrize(
        "entry",
        [{"kind": "scale_jitter", "probability": 1.0, "low": 0.5, "high": 2.0}, "scale_jitter"],
    )
    def test_entry_that_is_not_a_transform_rejected(self, entry):
        # A section built in Python is checked like a parsed one, before
        # resolve or the pipeline reads the entry.
        message = r"^config: augmentation\.transforms\[1\]: must be a transform, got "
        with pytest.raises(ConfigError, match=message):
            AugmentationSection((HorizontalFlip(probability=1.0), entry))

    def test_unknown_transform_kind_rejected(self):
        with pytest.raises(ConfigError, match="wobble"):
            _augmentation(
                {"transforms": [{"kind": "wobble", "probability": 1.0}]}
            )

    def test_missing_transform_parameter_rejected(self):
        with pytest.raises(ConfigError, match="sigma"):
            _augmentation(
                {"transforms": [{"kind": "gaussian_jitter", "probability": 1.0}]}
            )

    def test_extra_transform_parameter_rejected(self):
        with pytest.raises(ConfigError, match="slope"):
            _augmentation(
                {
                    "transforms": [
                        {
                            "kind": "gaussian_jitter",
                            "probability": 1.0,
                            "sigma": 0.1,
                            "slope": 2,
                        }
                    ]
                }
            )

    def test_empty_transform_list_allowed(self):
        section = _augmentation({"transforms": []})
        pipeline = AugmentationPipeline(section.transforms, VectorGeometry(3))
        assert pipeline.transforms == ()


class TestBuildPipeline:
    def test_explicit_transforms_materialize(self):
        section = _augmentation(
            {
                "transforms": [
                    {"kind": "gaussian_jitter", "probability": 0.5, "sigma": 0.3},
                    {"kind": "scale_jitter", "probability": 1.0, "low": 0.9, "high": 1.1},
                ]
            }
        )
        assert section.transforms == (
            GaussianJitter(probability=0.5, sigma=0.3),
            ScaleJitter(probability=1.0, low=0.9, high=1.1),
        )
        pipeline = AugmentationPipeline(section.transforms, VectorGeometry(4))
        assert pipeline.transforms == section.transforms

    def test_image_transform_on_vector_geometry_rejected(self):
        section = _augmentation(
            {"transforms": [{"kind": "horizontal_flip", "probability": 1.0}]}
        )
        with pytest.raises(ConfigError, match=r"^config: augmentation\.transforms\[0\]: .*geometry"):
            AugmentationPipeline(section.transforms, VectorGeometry(4))

    def test_default_preset_follows_geometry(self):
        vector_kinds = {spec.kind for spec in default_transforms(VectorGeometry(4))}
        image_kinds = {spec.kind for spec in default_transforms(ImageGeometry(8, 8))}
        assert "gaussian_jitter" in vector_kinds
        assert "resized_crop" in image_kinds


# The same transforms with every number integer-valued and as a float.
INTEGRAL_VECTOR = [
    {"kind": "gaussian_jitter", "probability": 1, "sigma": 1},
    {"kind": "scale_jitter", "probability": 1, "low": 1, "high": 2},
    {"kind": "coordinate_mask", "probability": 1, "fraction": 0},
]
INTEGRAL_IMAGE = [
    {"kind": "resized_crop", "probability": 1, "min_area_fraction": 1},
    {"kind": "brightness_jitter", "probability": 1, "low": 0, "high": 2},
    {"kind": "gaussian_blur", "probability": 1, "sigma": 2},
    {"kind": "horizontal_flip", "probability": 0},
]


def _as_floats(transforms):
    return [{k: float(v) if type(v) is int else v for k, v in t.items()} for t in transforms]


@pytest.mark.parametrize(
    "transforms, geometry",
    [(INTEGRAL_VECTOR, VectorGeometry(6)), (INTEGRAL_IMAGE, ImageGeometry(7, 9))],
    ids=["vector", "image"],
)
def test_integer_transform_numbers_act_like_floats(transforms, geometry):
    """An integer in a transform's number field gives the same parsed
    transform and views as that number written as a float, and the echo
    gives each number back as it was written."""
    x = np.random.default_rng(3).uniform(size=geometry.size)
    results = []
    for entries in (transforms, _as_floats(transforms)):
        config = ExperimentConfig.from_dict(minimal(augmentation={"transforms": entries}))
        pipeline = AugmentationPipeline(config.augmentation.transforms, geometry)
        _blur_matrix.cache_clear()  # its cache does not tell 2 from 2.0
        draws = epoch_draws(pipeline, 4, 1, 8)
        pairs = [make_pair(pipeline, x, pair_rng(draws, i), 2) for i in range(8)]
        views = [v.tobytes() for pair in pairs for v in pair]
        echo = json.dumps(config.to_dict()["augmentation"], sort_keys=True)
        assert echo == json.dumps({"transforms": entries}, sort_keys=True)
        results.append((config.augmentation, views))
    assert results[0] == results[1]


class TestBuildDataset:
    def test_blobs_standardized_by_default(self):
        config = ExperimentConfig.from_dict(minimal())
        dataset = build_dataset(config.dataset)
        np.testing.assert_allclose(dataset.samples.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(dataset.samples.std(axis=0), 1.0, atol=1e-12)

    def test_standardize_false_keeps_raw_scale(self):
        params = {key: value for key, value in BLOBS.items() if key != "kind"}
        dataset = build_dataset(GaussianBlobs(**params, standardize=False))
        assert dataset.samples.std() > 1.5

    def test_two_moons_dispatch(self):
        dataset = build_dataset(TwoMoons(n=40, noise=0.0, seed=1))
        assert dataset.n == 40
        assert sorted(np.unique(dataset.labels)) == [0, 1]

    def test_csv_dispatch(self, tmp_path):
        from dualclust.data import save_csv

        path = tmp_path / "data.csv"
        rng = np.random.default_rng(0)
        samples = rng.normal(size=(10, 3))
        labels = np.array([0, 1] * 5, dtype=np.float64)
        save_csv(path, np.column_stack([samples, labels]))
        raw = {"kind": "csv", "path": str(path), "label_column": 3, "standardize": False}
        dataset = build_dataset(ExperimentConfig.from_dict(minimal(dataset=raw)).dataset)
        assert dataset.n == 10 and dataset.dim == 3
        np.testing.assert_array_equal(dataset.labels, labels.astype(np.int64))


class TestLoadConfig:
    def test_valid_file_loads(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(minimal(seed=4)))
        config = load_config(path)
        assert config.seed == 4

    def test_syntax_error_reports_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "dataset": {,}\n}\n')
        with pytest.raises(ConfigError, match=r"line 2"):
            load_config(path)

    def test_integer_over_the_digit_limit_named(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"seed": ' + "1" * 5000 + "}")
        with pytest.raises(ConfigError, match=f"config: {re.escape(str(path))}: invalid JSON"):
            load_config(path)

    def test_deeply_nested_value_named(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"seed": ' + "[" * 100_000 + "]" * 100_000 + "}")
        with pytest.raises(ConfigError, match=f"config: {re.escape(str(path))}: invalid JSON"):
            load_config(path)

    def test_invalid_utf8_named(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"seed": 1, "note": "caf\xe9"}')
        message = f"config: {re.escape(str(path))}: not valid UTF-8 at byte 24"
        with pytest.raises(ConfigError, match=message):
            load_config(path)


def _defaulted_names(obj):
    """(owner, name, default) of every parameter or dataclass field with a
    default that ``obj`` (a function or class) and its methods declare; a
    default factory is called for its default."""
    if inspect.isfunction(obj):
        for name, param in inspect.signature(obj).parameters.items():
            if param.default is not inspect.Parameter.empty:
                yield obj.__qualname__, name, param.default
    elif inspect.isclass(obj):
        if is_dataclass(obj):
            for f in fields(obj):
                if f.default is not MISSING:
                    yield obj.__qualname__, f.name, f.default
                elif f.default_factory is not MISSING:
                    yield obj.__qualname__, f.name, f.default_factory()
        for member in vars(obj).values():
            yield from _defaulted_names(getattr(member, "__func__", member))


class TestOneHomeForSettings:
    def test_no_second_default_for_a_model_loss_or_training_setting(self):
        # Each model, loss and Adam setting has its default in config.py
        # only; the model, the losses and Adam read the section itself. A
        # per-head copy would drop the head from the name, as in
        # ``temperature``. A transform's fields have no default anywhere:
        # an explicit transform spells out every one, and the defaults
        # sit in augment.default_transforms. A dataset field's default
        # sits in its kind's class only; the generators and readers take
        # the class. The run's seed and ablation mode, and the fields of
        # a mode's row, are passed from the config by every caller. A
        # whole section is passed too: a default section, under whatever
        # name, would train with default settings when a caller left it out.
        sections = (ModelSection, LossSection, TrainingSection)
        section_types = (*SECTIONS.values(), AugmentationSection, ExperimentConfig, DatasetSpec)
        settings = {f.name for section in sections for f in fields(section)}
        settings |= {name.split("_", 1)[1] for name in settings if name.endswith("_temperature")}
        settings |= {f.name for cls in TRANSFORMS.values() for f in fields(cls)}
        settings |= {f.name for cls in DATASET_KINDS.values() for f in fields(cls)}
        settings |= {"seed", "ablation", *Ablation._fields}
        homes = {DatasetSpec, *DATASET_KINDS.values()}
        copies = []
        for info in pkgutil.iter_modules(dualclust.__path__):
            if info.name == "config":
                continue
            module = importlib.import_module(f"dualclust.{info.name}")
            for obj in vars(module).values():
                if getattr(obj, "__module__", None) == module.__name__ and obj not in homes:
                    copies += [
                        f"{module.__name__}.{owner}.{name}"
                        for owner, name, default in _defaulted_names(obj)
                        if name in settings or isinstance(default, section_types)
                    ]
        assert copies == [], copies


def _name_tests(tree, names):
    """Line numbers where code compares a value with one of ``names``, or
    branches on one: a comparison, a match case or a dispatch table whose
    operand or key is one of them. A docstring is no comparison."""
    def named(node):
        items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return any(isinstance(i, ast.Constant) and i.value in names for i in items)

    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            hit = any(named(operand) for operand in (node.left, *node.comparators))
        elif isinstance(node, ast.MatchValue):
            hit = named(node.value)
        elif isinstance(node, ast.Dict):
            hit = any(key is not None and named(key) for key in node.keys)
        else:
            continue
        if hit:
            yield node.lineno


class TestOneHomeForAblationModes:
    def test_modes_are_the_table_rows(self):
        assert ABLATION_MODES == tuple(ABLATIONS)

    def test_no_module_but_config_tests_a_mode_name(self):
        # What a mode trains, augments and assigns with is read from its
        # row of config.ABLATIONS; code elsewhere that tests a mode's name
        # restates the table.
        package = Path(dualclust.__file__).parent
        found = []
        for path in sorted(package.glob("*.py")):
            if path.name != "config.py":
                tree = ast.parse(path.read_text())
                found += [f"{path.name}:{line}" for line in _name_tests(tree, ABLATION_MODES)]
        assert found == [], found


class TestOneHomePerTransformKind:
    def test_no_module_tests_a_transform_kind_name(self):
        # A kind's checks, draws and view are methods of its class, picked
        # by the class itself; code that tests a kind's name dispatches
        # by hand, and falls through silently on a kind it did not list.
        kinds = set(TRANSFORMS)
        package = Path(dualclust.__file__).parent
        found = []
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text())
            found += [f"{path.name}:{line}" for line in _name_tests(tree, kinds)]
        assert found == [], found


# Defaulted parameters that no call in src/ passes by name or position,
# because their callers live outside the package or call through a table.
UNPASSED_DEFAULTS_ALLOWED = {
    # The console script calls main() without arguments; tests pass argv.
    ("cli", "main", "argv"),
}


def _defaulted_parameters(function):
    args = function.args
    positional = args.posonlyargs + args.args
    defaulted = positional[len(positional) - len(args.defaults):]
    keyword_only = [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return [(positional.index(a), a.arg) for a in defaulted] + [(None, a.arg) for a in keyword_only]


def _passes(call, position, name):
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and position < len(call.args)


class TestNoUnpassedDefaults:
    def test_every_defaulted_parameter_is_passed_somewhere(self):
        # A default that no caller overrides is a setting that only one
        # value ever reaches: it belongs in a constant.
        package = Path(dualclust.__file__).parent
        trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
        calls = [
            node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Call)
        ]

        def called_name(call):
            func = call.func
            return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

        unpassed = []
        for module, tree in trees.items():
            for function in tree.body:
                if not isinstance(function, ast.FunctionDef) or function.name.startswith("_"):
                    continue
                callers = [c for c in calls if called_name(c) == function.name]
                for position, name in _defaulted_parameters(function):
                    if (module, function.name, name) in UNPASSED_DEFAULTS_ALLOWED:
                        continue
                    if not any(_passes(c, position, name) for c in callers):
                        unpassed.append(f"{module}.{function.name}({name})")
        assert unpassed == [], unpassed
