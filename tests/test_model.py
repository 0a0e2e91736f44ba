"""Encoder/head forward passes, initialization, and checkpoint round trips."""

import json
import struct

import numpy as np
import pytest

from dualclust import autodiff as ad
from dualclust.errors import ConfigError, FormatError, ShapeError
from dualclust.model import (
    ModelConfig,
    ParamNodes,
    forward,
    forward_graph,
    init_params,
    load_checkpoint,
    predict_assignments,
    save_checkpoint,
)


def small_config(**overrides):
    base = dict(
        input_dim=6,
        encoder_widths=(10, 8),
        cluster_count=3,
        instance_dim=5,
        init_seed=42,
    )
    base.update(overrides)
    return ModelConfig(**base)


class TestConfig:
    def test_feature_dim_is_last_width(self):
        assert small_config().feature_dim == 8

    def test_head_hidden_defaults_to_feature_dim(self):
        assert small_config().head_hidden == 8
        assert small_config(head_hidden_dim=17).head_hidden == 17

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(input_dim=0),
            dict(encoder_widths=()),
            dict(encoder_widths=(8, 0)),
            dict(cluster_count=1),
            dict(instance_dim=0),
            dict(head_hidden_dim=0),
        ],
    )
    def test_invalid_config_rejected(self, overrides):
        with pytest.raises(ConfigError):
            small_config(**overrides)


class TestInit:
    def test_same_seed_gives_identical_parameters(self):
        a = init_params(small_config())
        b = init_params(small_config())
        for (name_a, arr_a), (name_b, arr_b) in zip(a.items(), b.items()):
            assert name_a == name_b
            np.testing.assert_array_equal(arr_a, arr_b)

    def test_different_seeds_differ(self):
        a = init_params(small_config(init_seed=1))
        b = init_params(small_config(init_seed=2))
        assert any(
            not np.array_equal(x, y) for (_, x), (_, y) in zip(a.items(), b.items())
        )

    def test_biases_are_zero(self):
        params = init_params(small_config())
        for name, arr in params.items():
            if name.endswith("bias"):
                np.testing.assert_array_equal(arr, np.zeros_like(arr))

    def test_weight_variance_tracks_fan_in(self):
        # 100x100 first layer: sample variance of 10^4 draws should land
        # within 20% of the 2/fan_in target.
        config = ModelConfig(
            input_dim=100, encoder_widths=(100,), cluster_count=4, init_seed=3
        )
        w = init_params(config).encoder[0][0]
        target = 2.0 / 100.0
        assert abs(w.var() - target) <= 0.2 * target

    def test_layer_shapes_compose(self):
        params = init_params(small_config())
        shapes = [w.shape for w, _ in params.encoder]
        assert shapes == [(6, 10), (10, 8)]
        assert [w.shape for w, _ in params.instance_head] == [(8, 8), (8, 5)]
        assert [w.shape for w, _ in params.cluster_head] == [(8, 8), (8, 3)]


class TestForward:
    def test_output_shapes(self):
        params = init_params(small_config())
        x = np.random.default_rng(0).normal(size=(7, 6))
        h, z, y = forward(params, x)
        assert h.shape == (7, 8)
        assert z.shape == (7, 5)
        assert y.shape == (7, 3)

    def test_assignment_rows_are_probabilities(self):
        params = init_params(small_config())
        x = np.random.default_rng(1).normal(size=(9, 6))
        _, _, y = forward(params, x)
        assert np.all(y > 0.0)
        np.testing.assert_allclose(y.sum(axis=1), np.ones(9), rtol=0, atol=1e-12)

    def test_zero_weights_give_uniform_assignments(self):
        params = init_params(small_config(cluster_count=4))
        for name, arr in params.items():
            arr[:] = 0.0
        _, _, y = forward(params, np.ones((5, 6)))
        np.testing.assert_array_equal(y, np.full((5, 4), 0.25))

    def test_rows_are_independent_of_batch_context(self):
        params = init_params(small_config())
        x = np.random.default_rng(2).normal(size=(4, 6))
        h_full, z_full, y_full = forward(params, x)
        for i in range(4):
            h_one, z_one, y_one = forward(params, x[i : i + 1])
            np.testing.assert_allclose(h_one[0], h_full[i], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(z_one[0], z_full[i], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(y_one[0], y_full[i], rtol=1e-12, atol=1e-12)

    def test_width_mismatch_rejected(self):
        params = init_params(small_config())
        with pytest.raises(ShapeError, match="input_dim"):
            forward(params, np.ones((3, 7)))

    def test_gradients_reach_every_parameter(self):
        params = init_params(small_config())
        nodes = ParamNodes.from_params(params)
        x = ad.lift(np.random.default_rng(3).normal(size=(4, 6)))
        h, z, y = forward_graph(nodes, x)
        total = ad.add(ad.sum_all(z), ad.sum_all(ad.log(y)))
        ad.backward(total)
        for node in nodes.nodes():
            assert np.any(node.grad != 0.0)


class TestPredictAssignments:
    def test_argmax_row(self):
        params = init_params(small_config())
        x = np.random.default_rng(4).normal(size=(8, 6))
        _, _, y = forward(params, x)
        np.testing.assert_array_equal(predict_assignments(params, x), y.argmax(axis=1))

    def test_tie_breaks_to_lowest_index(self):
        params = init_params(small_config(cluster_count=4))
        for name, arr in params.items():
            arr[:] = 0.0  # uniform rows: every cluster ties
        assignments = predict_assignments(params, np.ones((6, 6)))
        np.testing.assert_array_equal(assignments, np.zeros(6, dtype=int))

    def test_invariant_to_batch_partitioning(self):
        params = init_params(small_config())
        x = np.random.default_rng(5).normal(size=(10, 6))
        full = predict_assignments(params, x)
        chunked = np.concatenate(
            [predict_assignments(params, x[i : i + 3]) for i in range(0, 10, 3)]
        )
        np.testing.assert_array_equal(chunked, full)


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        params = init_params(small_config(head_hidden_dim=11))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert loaded.config == params.config
        for (name_a, arr_a), (name_b, arr_b) in zip(params.items(), loaded.items()):
            assert name_a == name_b
            np.testing.assert_array_equal(arr_a, arr_b)

    def test_serialization_is_byte_deterministic(self, tmp_path):
        params = init_params(small_config())
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(first, params)
        save_checkpoint(second, params)
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_params_still_forward(self, tmp_path):
        params = init_params(small_config())
        x = np.random.default_rng(6).normal(size=(5, 6))
        want = predict_assignments(params, x)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        np.testing.assert_array_equal(predict_assignments(load_checkpoint(path), x), want)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        params = init_params(small_config())
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        clipped = tmp_path / "clipped.ckpt"
        clipped.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(clipped)

    def test_trailing_bytes_rejected(self, tmp_path):
        params = init_params(small_config())
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        padded = tmp_path / "padded.ckpt"
        padded.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(padded)

    def test_unsupported_version_rejected(self, tmp_path):
        params = init_params(small_config())
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        blob = bytearray(path.read_bytes())
        # format_version sits inside the JSON header; bump it in place.
        idx = blob.find(b'"format_version":1')
        assert idx > 0
        blob[idx : idx + len(b'"format_version":1')] = b'"format_version":9'
        broken = tmp_path / "vers.ckpt"
        broken.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="format_version"):
            load_checkpoint(broken)


def rewrite_header(src, dst, edit, extra_payload=b""):
    """Copy a checkpoint, passing its JSON header through ``edit``."""
    blob = src.read_bytes() + extra_payload
    (length,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + length])
    edit(header)
    encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    dst.write_bytes(blob[:8] + struct.pack("<Q", len(encoded)) + encoded + blob[16 + length :])


class TestCheckpointHeader:
    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(small_config()))
        return path

    @pytest.mark.parametrize(
        "edit, missing",
        [
            (lambda h: h.pop("config"), "header has no 'config' key"),
            (lambda h: h.pop("arrays"), "header has no 'arrays' key"),
            (lambda h: h["config"].pop("cluster_count"), "header config has no 'cluster_count' key"),
            (lambda h: h["arrays"][0].pop("shape"), "has no 'shape' key"),
        ],
        ids=["config", "arrays", "config_key", "array_shape"],
    )
    def test_missing_key_named(self, saved, tmp_path, edit, missing):
        broken = tmp_path / "broken.ckpt"
        rewrite_header(saved, broken, edit)
        with pytest.raises(FormatError, match=missing):
            load_checkpoint(broken)

    @pytest.mark.parametrize(
        "key, value, array, actual, implied",
        [
            ("input_dim", 7, "encoder.0.weight", (6, 10), (7, 10)),
            ("cluster_count", 4, "cluster_head.1.weight", (8, 3), (8, 4)),
        ],
    )
    def test_config_disagreeing_with_shapes_rejected(
        self, saved, tmp_path, key, value, array, actual, implied
    ):
        broken = tmp_path / "broken.ckpt"
        rewrite_header(saved, broken, lambda h: h["config"].update({key: value}))
        message = f"array '{array}' has shape {actual}, config implies {implied}"
        with pytest.raises(FormatError, match=message.replace("(", r"\(").replace(")", r"\)")):
            load_checkpoint(broken)

    @pytest.mark.parametrize("shape", [[-1, 10], [6.0, 10], "6x10"])
    def test_invalid_array_shape_rejected(self, saved, tmp_path, shape):
        broken = tmp_path / "broken.ckpt"
        rewrite_header(saved, broken, lambda h: h["arrays"][0].update(shape=shape))
        with pytest.raises(FormatError, match="'encoder.0.weight' has invalid shape"):
            load_checkpoint(broken)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda h: h.update(arrays=5), "header 'arrays' is not a list"),
            (lambda h: h["arrays"].__setitem__(0, 5), "array entry 0 is not an object"),
            (
                lambda h: h["arrays"][1].update(name=["encoder.0.bias"]),
                "array entry 1 has a non-string name",
            ),
        ],
        ids=["arrays_not_list", "entry_not_object", "name_not_string"],
    )
    def test_ill_typed_array_list_named(self, saved, tmp_path, edit, message):
        broken = tmp_path / "broken.ckpt"
        rewrite_header(saved, broken, edit)
        with pytest.raises(FormatError, match=message):
            load_checkpoint(broken)

    def test_array_the_config_does_not_imply_rejected(self, saved, tmp_path):
        broken = tmp_path / "broken.ckpt"
        extra = {"name": "encoder.2.weight", "shape": [1]}
        rewrite_header(saved, broken, lambda h: h["arrays"].append(extra), bytes(8))
        with pytest.raises(FormatError, match="'encoder.2.weight' is not part of"):
            load_checkpoint(broken)
