"""Strict config parsing, defaults, and resolution tests."""

import copy
import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualclust.augment import AugmentationPipeline
from dualclust.config import (
    AugmentationSection,
    DatasetConfig,
    ExperimentConfig,
    LossSection,
    ModelSection,
    TrainingSection,
    build_dataset,
    build_pipeline,
    load_config,
)
from dualclust.data import ImageGeometry, VectorGeometry
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


class TestValidation:
    @pytest.mark.parametrize(
        "section,field,value",
        [
            ("training", "batch_size", 1),
            ("training", "epochs", -1),
            ("training", "learning_rate", 0.0),
            ("training", "beta1", 1.0),
            ("training", "beta2", -0.1),
            ("training", "epsilon", 0.0),
            ("losses", "instance_temperature", 0.0),
            ("losses", "cluster_temperature", -1.0),
        ],
    )
    def test_out_of_range_values_rejected(self, section, field, value):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig.from_dict(minimal(**{section: {field: value}}))

    def test_empty_encoder_widths_rejected(self):
        with pytest.raises(ConfigError, match="encoder_widths"):
            ExperimentConfig.from_dict(minimal(model={"encoder_widths": []}))


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
        ],
    )
    def test_ill_typed_value_rejected_with_path(self, edit, path):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_dict(minimal(**edit))
        assert f"config: {path}:" in str(info.value)

    def test_bad_transform_parameter_fails_at_parse_time(self):
        raw = minimal(augmentation={"transforms": [JITTER, {**JITTER, "sigma": -1.0}]})
        with pytest.raises(ConfigError, match=r"augmentation\.transforms\[1\]: gaussian_jitter: sigma"):
            ExperimentConfig.from_dict(raw)

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


# Every field of every section, every blob parameter, and every key of an
# explicit transform.
SECTIONS = {"model": ModelSection, "losses": LossSection, "training": TrainingSection}
FIELD_PATHS = (
    [(f.name,) for f in fields(ExperimentConfig)]
    + [(name, f.name) for name, cls in SECTIONS.items() for f in fields(cls)]
    + [("dataset", key) for key in (*BLOBS, "standardize")]
    + [("augmentation", "preset")]
    + [("augmentation", "transforms", 0, key) for key in ("kind", "probability", "low", "high")]
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(FIELD_PATHS), value=JSON_VALUES)
def test_any_json_value_parses_or_raises_config_error(path, value):
    scale = {"kind": "scale_jitter", "probability": 0.5, "low": 0.9, "high": 1.1}
    raw = minimal(augmentation={"transforms": [scale]}, out_dir="runs/x")
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
        assert resolved.augmentation.preset is None
        kinds = [t["kind"] for t in resolved.augmentation.transforms]
        assert kinds == ["gaussian_jitter", "scale_jitter", "coordinate_mask"]
        for transform in resolved.augmentation.transforms:
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

    def test_resolve_is_idempotent(self):
        config = ExperimentConfig.from_dict(minimal(out_dir="runs/x"))
        dataset = build_dataset(config.dataset)
        once = config.resolve(dataset)
        assert once.resolve(dataset) == once


class TestAugmentationSection:
    def test_preset_and_transforms_together_rejected(self):
        with pytest.raises(ConfigError, match="not both"):
            AugmentationSection.from_dict(
                {"preset": "default", "transforms": []}
            )

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="nightly"):
            AugmentationSection.from_dict({"preset": "nightly"})

    def test_unknown_transform_kind_rejected(self):
        with pytest.raises(ConfigError, match="wobble"):
            AugmentationSection.from_dict(
                {"transforms": [{"kind": "wobble", "probability": 1.0}]}
            )

    def test_missing_transform_parameter_rejected(self):
        with pytest.raises(ConfigError, match="sigma"):
            AugmentationSection.from_dict(
                {"transforms": [{"kind": "gaussian_jitter", "probability": 1.0}]}
            )

    def test_extra_transform_parameter_rejected(self):
        with pytest.raises(ConfigError, match="slope"):
            AugmentationSection.from_dict(
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
        section = AugmentationSection.from_dict({"transforms": []})
        pipeline = build_pipeline(section, VectorGeometry(3))
        assert pipeline.transforms == ()


class TestBuildPipeline:
    def test_explicit_transforms_materialize(self):
        section = AugmentationSection.from_dict(
            {
                "transforms": [
                    {"kind": "gaussian_jitter", "probability": 0.5, "sigma": 0.3},
                    {"kind": "scale_jitter", "probability": 1.0, "low": 0.9, "high": 1.1},
                ]
            }
        )
        pipeline = build_pipeline(section, VectorGeometry(4))
        assert isinstance(pipeline, AugmentationPipeline)
        (spec0, p0), (spec1, p1) = pipeline.transforms
        assert spec0.kind == "gaussian_jitter" and spec0.sigma == 0.3 and p0 == 0.5
        assert spec1.kind == "scale_jitter" and (spec1.low, spec1.high) == (0.9, 1.1)

    def test_image_transform_on_vector_geometry_rejected(self):
        section = AugmentationSection.from_dict(
            {"transforms": [{"kind": "horizontal_flip", "probability": 1.0}]}
        )
        with pytest.raises(ConfigError, match="geometry"):
            build_pipeline(section, VectorGeometry(4))

    def test_default_preset_follows_geometry(self):
        section = AugmentationSection.from_dict({"preset": "default"})
        vector = build_pipeline(section, VectorGeometry(4))
        image = build_pipeline(section, ImageGeometry(8, 8))
        vector_kinds = {spec.kind for spec, _ in vector.transforms}
        image_kinds = {spec.kind for spec, _ in image.transforms}
        assert "gaussian_jitter" in vector_kinds
        assert "resized_crop" in image_kinds


class TestBuildDataset:
    def test_blobs_standardized_by_default(self):
        config = ExperimentConfig.from_dict(minimal())
        dataset = build_dataset(config.dataset)
        np.testing.assert_allclose(dataset.samples.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(dataset.samples.std(axis=0), 1.0, atol=1e-12)

    def test_standardize_false_keeps_raw_scale(self):
        raw = dict(BLOBS)
        raw["standardize"] = False
        dataset = build_dataset(DatasetConfig.from_dict(raw))
        assert dataset.samples.std() > 1.5

    def test_two_moons_dispatch(self):
        dataset = build_dataset(
            DatasetConfig.from_dict({"kind": "two_moons", "n": 40, "noise": 0.0, "seed": 1})
        )
        assert dataset.n == 40
        assert sorted(np.unique(dataset.labels)) == [0, 1]

    def test_csv_dispatch(self, tmp_path):
        from dualclust.data import save_csv

        path = tmp_path / "data.csv"
        rng = np.random.default_rng(0)
        samples = rng.normal(size=(10, 3))
        labels = np.array([0, 1] * 5, dtype=np.float64)
        save_csv(path, np.column_stack([samples, labels]))
        dataset = build_dataset(
            DatasetConfig.from_dict(
                {"kind": "csv", "path": str(path), "label_column": 3, "standardize": False}
            )
        )
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
