"""Encoder/head forward passes, initialization, and checkpoint round trips."""

import json
import re
import struct
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualclust import autodiff as ad
from dualclust.config import ExperimentConfig, ModelSection, build_dataset
from dualclust.data import TwoMoons
from dualclust.errors import ConfigError, FormatError, ShapeError
from dualclust.model import (
    ModelParams,
    forward,
    forward_graph,
    init_params,
    load_checkpoint,
    predict_assignments,
    save_checkpoint,
)

from helpers import edit_header, rewrite_header, weighted_sum


INPUT_DIM = 6


def small_config(**overrides):
    """A resolved model section; its inputs are INPUT_DIM wide."""
    base = dict(
        encoder_widths=(10, 8),
        cluster_count=3,
        instance_dim=5,
        head_hidden_dim=8,
        init_seed=42,
    )
    base.update(overrides)
    return ModelSection(**base)


def small_params(**overrides):
    return init_params(small_config(**overrides), INPUT_DIM)


class TestConfig:
    def test_feature_dim_is_last_width(self):
        # Both heads start from the last encoder width.
        arrays = small_params(encoder_widths=(10, 7), head_hidden_dim=9).arrays
        assert arrays["instance_head.0.weight"].shape == (7, 9)
        assert arrays["cluster_head.0.weight"].shape == (7, 9)

    def test_head_hidden_defaults_to_feature_dim(self):
        moons = TwoMoons(n=8, noise=0.1, seed=0)
        dataset = build_dataset(moons)
        for hidden, want in ((None, 8), (17, 17)):
            section = ModelSection(encoder_widths=(10, 8), head_hidden_dim=hidden)
            config = ExperimentConfig(dataset=moons, model=section)
            resolved = config.resolve(dataset).model
            assert resolved.head_hidden_dim == want
            assert init_params(resolved, 2).arrays["cluster_head.0.weight"].shape == (8, want)

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
        overrides = dict(overrides)
        input_dim = overrides.pop("input_dim", INPUT_DIM)
        with pytest.raises(ConfigError):
            init_params(small_config(**overrides), input_dim)

    @pytest.mark.parametrize("unresolved", ["cluster_count", "head_hidden_dim", "init_seed"])
    def test_unresolved_section_rejected(self, unresolved):
        with pytest.raises(ConfigError, match="must be resolved"):
            init_params(small_config(**{unresolved: None}), INPUT_DIM)


class TestInit:
    def test_same_seed_gives_identical_parameters(self):
        a = small_params()
        b = small_params()
        for (name_a, arr_a), (name_b, arr_b) in zip(a.arrays.items(), b.arrays.items()):
            assert name_a == name_b
            np.testing.assert_array_equal(arr_a, arr_b)

    def test_different_seeds_differ(self):
        a = small_params(init_seed=1)
        b = small_params(init_seed=2)
        assert any(
            not np.array_equal(x, y) for (_, x), (_, y) in zip(a.arrays.items(), b.arrays.items())
        )

    def test_biases_are_zero(self):
        params = small_params()
        for name, arr in params.arrays.items():
            if name.endswith("bias"):
                np.testing.assert_array_equal(arr, np.zeros_like(arr))

    def test_weight_variance_tracks_fan_in(self):
        # 100x100 first layer: sample variance of 10^4 draws should land
        # within 20% of the 2/fan_in target.
        config = small_config(encoder_widths=(100,), cluster_count=4, init_seed=3)
        w = init_params(config, 100).arrays["encoder.0.weight"]
        target = 2.0 / 100.0
        assert abs(w.var() - target) <= 0.2 * target

    def test_layer_shapes_compose(self):
        params = small_params()
        shapes = {name: w.shape for name, w in params.arrays.items() if name.endswith("weight")}
        assert shapes == {
            "encoder.0.weight": (6, 10),
            "encoder.1.weight": (10, 8),
            "instance_head.0.weight": (8, 8),
            "instance_head.1.weight": (8, 5),
            "cluster_head.0.weight": (8, 8),
            "cluster_head.1.weight": (8, 3),
        }

    def test_views_tile_the_flat_buffer_in_checkpoint_order(self, tmp_path):
        params = small_params(head_hidden_dim=11)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        blob = path.read_bytes()
        (length,) = struct.unpack_from("<Q", blob, 8)
        listed = [entry["name"] for entry in json.loads(blob[16 : 16 + length])["arrays"]]
        assert list(params.arrays) == listed
        start = params.flat.__array_interface__["data"][0]
        offset = 0
        for name, view in params.arrays.items():
            assert np.shares_memory(view, params.flat), name
            assert view.flags.c_contiguous, name
            assert view.__array_interface__["data"][0] == start + 8 * offset, name
            offset += view.size
        assert offset == params.flat.size


class TestForward:
    def test_output_shapes(self):
        params = small_params()
        x = np.random.default_rng(0).normal(size=(7, 6))
        h, z, y = forward(params, x)
        assert h.shape == (7, 8)
        assert z.shape == (7, 5)
        assert y.shape == (7, 3)

    def test_assignment_rows_are_probabilities(self):
        params = small_params()
        x = np.random.default_rng(1).normal(size=(9, 6))
        _, _, y = forward(params, x)
        assert np.all(y > 0.0)
        np.testing.assert_allclose(y.sum(axis=1), np.ones(9), rtol=0, atol=1e-12)

    def test_zero_weights_give_uniform_assignments(self):
        params = small_params(cluster_count=4)
        for name, arr in params.arrays.items():
            arr[:] = 0.0
        _, _, y = forward(params, np.ones((5, 6)))
        np.testing.assert_array_equal(y, np.full((5, 4), 0.25))

    def test_rows_are_independent_of_batch_context(self):
        params = small_params()
        x = np.random.default_rng(2).normal(size=(4, 6))
        h_full, z_full, y_full = forward(params, x)
        for i in range(4):
            h_one, z_one, y_one = forward(params, x[i : i + 1])
            np.testing.assert_allclose(h_one[0], h_full[i], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(z_one[0], z_full[i], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(y_one[0], y_full[i], rtol=1e-12, atol=1e-12)

    def test_width_mismatch_rejected(self):
        params = small_params()
        with pytest.raises(ShapeError, match="input_dim"):
            forward(params, np.ones((3, 7)))

    def test_gradients_reach_every_parameter(self):
        params = small_params()
        nodes = params.nodes()
        x = ad.lift(np.random.default_rng(3).normal(size=(4, 6)))
        h, z, y = forward_graph(nodes, x)
        rng = np.random.default_rng(4)
        probes = [weighted_sum(out, rng.normal(size=out.shape)) for out in (z, y)]
        ad.backward(ad.add(*probes))
        for node in nodes.values():
            assert np.any(node.grad != 0.0)


class TestPredictAssignments:
    def test_argmax_row(self):
        params = small_params()
        x = np.random.default_rng(4).normal(size=(8, 6))
        _, _, y = forward(params, x)
        np.testing.assert_array_equal(predict_assignments(params, x), y.argmax(axis=1))

    def test_tie_breaks_to_lowest_index(self):
        params = small_params(cluster_count=4)
        for name, arr in params.arrays.items():
            arr[:] = 0.0  # uniform rows: every cluster ties
        assignments = predict_assignments(params, np.ones((6, 6)))
        np.testing.assert_array_equal(assignments, np.zeros(6, dtype=int))

    def test_invariant_to_batch_partitioning(self):
        params = small_params()
        x = np.random.default_rng(5).normal(size=(10, 6))
        full = predict_assignments(params, x)
        chunked = np.concatenate(
            [predict_assignments(params, x[i : i + 3]) for i in range(0, 10, 3)]
        )
        np.testing.assert_array_equal(chunked, full)


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        params = small_params(head_hidden_dim=11)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert loaded.config == params.config
        for (name_a, arr_a), (name_b, arr_b) in zip(params.arrays.items(), loaded.arrays.items()):
            assert name_a == name_b
            np.testing.assert_array_equal(arr_a, arr_b)

    def test_serialization_is_byte_deterministic(self, tmp_path):
        params = small_params()
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(first, params)
        save_checkpoint(second, params)
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_params_still_forward(self, tmp_path):
        params = small_params()
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
        params = small_params()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        clipped = tmp_path / "clipped.ckpt"
        clipped.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(clipped)

    def test_trailing_bytes_rejected(self, tmp_path):
        params = small_params()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        padded = tmp_path / "padded.ckpt"
        padded.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(padded)

    def test_unsupported_version_rejected(self, tmp_path):
        params = small_params()
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


class TestCheckpointHeader:
    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, small_params())
        return path

    @pytest.mark.parametrize(
        "edit, missing",
        [
            (lambda h: h.pop("config"), "header has no 'config' key"),
            (lambda h: h.pop("arrays"), "header has no 'arrays' key"),
            (lambda h: h["config"].pop("cluster_count"), "header config has no 'cluster_count' key"),
            (lambda h: h["arrays"][0].pop("shape"), 'entry 0 is {"name": "encoder.0.weight"}, '),
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
            ("input_dim", 7, "encoder.0.weight", [6, 10], [7, 10]),
            ("cluster_count", 4, "cluster_head.1.weight", [8, 3], [8, 4]),
        ],
    )
    def test_config_disagreeing_with_shapes_rejected(
        self, saved, tmp_path, key, value, array, actual, implied
    ):
        broken = tmp_path / "broken.ckpt"
        rewrite_header(saved, broken, lambda h: h["config"].update({key: value}))
        entry = '{{"name": "{}", "shape": {}}}'
        message = f"is {entry.format(array, actual)}, config implies {entry.format(array, implied)}"
        with pytest.raises(FormatError, match=re.escape(message)):
            load_checkpoint(broken)

    @pytest.mark.parametrize("shape", [[-1, 10], [6.0, 10], [True, 10], "6x10"])
    def test_invalid_array_shape_rejected(self, saved, tmp_path, shape):
        broken = tmp_path / "broken.ckpt"
        rewrite_header(saved, broken, lambda h: h["arrays"][0].update(shape=shape))
        message = f'entry 0 is {{"name": "encoder.0.weight", "shape": {json.dumps(shape)}}}, '
        with pytest.raises(FormatError, match=re.escape(message)):
            load_checkpoint(broken)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda h: h.update(arrays=5), "header 'arrays' is not a list"),
            (lambda h: h["arrays"].__setitem__(0, 5), "array entry 0 is 5, config implies"),
            (
                lambda h: h["arrays"][1].update(name=["encoder.0.bias"]),
                re.escape('array entry 1 is {"name": ["encoder.0.bias"], "shape": [1, 10]}'),
            ),
        ],
        ids=["arrays_not_list", "entry_not_object", "name_not_string"],
    )
    def test_ill_typed_array_list_named(self, saved, tmp_path, edit, message):
        broken = tmp_path / "broken.ckpt"
        rewrite_header(saved, broken, edit)
        with pytest.raises(FormatError, match=message):
            load_checkpoint(broken)

    def test_array_listed_twice_rejected(self, saved, tmp_path):
        broken = tmp_path / "broken.ckpt"
        extra = {"name": "encoder.0.bias", "shape": [1, 10]}
        payload = np.full(10, 7.0).tobytes()
        rewrite_header(saved, broken, lambda h: h["arrays"].append(extra), payload)
        message = 'entry 12 is {"name": "encoder.0.bias", "shape": [1, 10]}, config implies none'
        with pytest.raises(FormatError, match=re.escape(message)):
            load_checkpoint(broken)

    def test_array_the_config_does_not_imply_rejected(self, saved, tmp_path):
        broken = tmp_path / "broken.ckpt"
        extra = {"name": "encoder.2.weight", "shape": [1]}
        rewrite_header(saved, broken, lambda h: h["arrays"].append(extra), bytes(8))
        with pytest.raises(FormatError, match=re.escape('entry 12 is {"name": "encoder.2.weight"')):
            load_checkpoint(broken)

    def test_array_the_header_leaves_out_rejected(self, saved, tmp_path):
        broken = tmp_path / "broken.ckpt"
        broken.write_bytes(edit_header(saved.read_bytes()[:-8 * 3], lambda h: h["arrays"].pop()))
        message = 'entry 11 is none, config implies {"name": "cluster_head.1.bias", "shape": [1, 3]}'
        with pytest.raises(FormatError, match=re.escape(message)):
            load_checkpoint(broken)

    def test_arrays_listed_in_another_order_rejected(self, saved, tmp_path):
        """A header that lists the arrays in reverse, over a payload
        permuted to match, is not the layout the config implies."""
        arrays = load_checkpoint(saved).arrays.values()
        payload = b"".join(view.tobytes() for view in reversed(arrays))
        blob = saved.read_bytes()[: -len(payload)] + payload
        broken = tmp_path / "broken.ckpt"
        broken.write_bytes(edit_header(blob, lambda h: h["arrays"].reverse()))
        message = 'entry 0 is {"name": "cluster_head.1.bias", "shape": [1, 3]}, config implies'
        with pytest.raises(FormatError, match=re.escape(message)):
            load_checkpoint(broken)

    @pytest.mark.parametrize(
        "header",
        [b"[" * 100_000 + b"]" * 100_000, b'{"format_version": ' + b"1" * 5000 + b"}"],
        ids=["nested_too_deeply", "integer_over_digit_limit"],
    )
    def test_unparseable_header_rejected(self, saved, tmp_path, header):
        blob = saved.read_bytes()
        (length,) = struct.unpack_from("<Q", blob, 8)
        broken = tmp_path / "broken.ckpt"
        broken.write_bytes(blob[:8] + struct.pack("<Q", len(header)) + header + blob[16 + length :])
        with pytest.raises(FormatError, match="header is not valid JSON"):
            load_checkpoint(broken)

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_format_version_must_be_the_integer_one(self, saved, tmp_path, version):
        broken = tmp_path / "broken.ckpt"
        rewrite_header(saved, broken, lambda h: h.update(format_version=version))
        with pytest.raises(FormatError, match=f"unsupported format_version {version!r}"):
            load_checkpoint(broken)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("instance_dim", 2.0, "config.instance_dim: must be an integer, got 2.0"),
            ("instance_dim", 5.0, "config.instance_dim: must be an integer, got 5.0"),
            ("instance_dim", True, "config.instance_dim: must be an integer, got True"),
            ("instance_dim", 0, "config.instance_dim: must be >= 1"),
            ("encoder_widths", [3.5], r"config.encoder_widths\[0\]: must be an integer, got 3.5"),
            ("encoder_widths", ["3"], r"config.encoder_widths\[0\]: must be an integer, got '3'"),
            ("encoder_widths", [], "config.encoder_widths: needs one width"),
            ("init_seed", -1, "config.init_seed: must be nonnegative"),
            ("init_seed", 1.5, "config.init_seed: must be an integer or null, got 1.5"),
            ("head_hidden_dim", None, "config section must be resolved"),
            ("cluster_count", 1, "config.cluster_count: must be at least 2"),
            ("input_dim", 6.0, "config.input_dim: must be an integer, got 6.0"),
            ("input_dim", 0, "config.input_dim: must be >= 1, got 0"),
            ("dropout", 0.5, "unknown key 'config.dropout'"),
        ],
    )
    def test_header_config_read_by_the_config_schema(self, saved, tmp_path, key, value, message):
        broken = tmp_path / "broken.ckpt"
        rewrite_header(saved, broken, lambda h: h["config"].update({key: value}))
        with pytest.raises(FormatError, match=f"^checkpoint: header {message}"):
            load_checkpoint(broken)


def _checkpoint_bytes(**overrides):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(path, small_params(**overrides))
        return path.read_bytes()


VALID = _checkpoint_bytes()
# Same header, a payload of another size: a donor for splices.
OTHER = _checkpoint_bytes(encoder_widths=(10, 9))

# Values a rewritten header field may take: the wrong type, sign or
# size, null, or the right one.
HEADER_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.one_of(st.integers(-1, 12), st.floats(0, 12)), max_size=3),
)
HEADER_FIELDS = ("input_dim", "format_version", *(f.name for f in fields(ModelSection)))


def _set_field(key, value):
    def edit(header):
        (header if key == "format_version" else header["config"])[key] = value

    return edit


@st.composite
def mutated_checkpoints(draw):
    """VALID truncated, with bytes flipped, with a header field
    rewritten, or with its payload spliced from OTHER."""
    kind = draw(st.sampled_from(["truncate", "flip", "rewrite", "splice"]))
    if kind == "truncate":
        return VALID[: draw(st.integers(0, len(VALID) - 1))]
    if kind == "flip":
        blob = bytearray(VALID)
        for _ in range(draw(st.integers(1, 4))):
            blob[draw(st.integers(0, len(blob) - 1))] ^= draw(st.integers(1, 255))
        return bytes(blob)
    if kind == "rewrite":
        key, value = draw(st.sampled_from(HEADER_FIELDS)), draw(HEADER_VALUES)
        return edit_header(VALID, _set_field(key, value))
    (length,) = struct.unpack_from("<Q", VALID, 8)
    (other_length,) = struct.unpack_from("<Q", OTHER, 8)
    donor = OTHER[16 + other_length :]
    start = draw(st.integers(0, len(donor)))
    size = draw(st.integers(0, len(VALID) - length))
    return VALID[: 16 + length] + donor[start : start + size]


class TestCheckpointFuzz:
    @given(blob=mutated_checkpoints())
    # The saved instance_dim as a float once reached numpy as a shape: a TypeError.
    @example(blob=edit_header(VALID, _set_field("instance_dim", 5.0)))
    @settings(max_examples=200, deadline=None)
    def test_damaged_file_is_rejected_or_well_formed(self, blob):
        """A damaged checkpoint raises a FormatError, or it loads as
        parameters in the layout of the header's section that save, load
        and save again to the same bytes. The input bytes need not come
        back: a flipped bit can turn ``10`` into ``1 ``."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzzed.ckpt"
            path.write_bytes(blob)
            try:
                params = load_checkpoint(path)
            except FormatError:
                return
            layout = ModelParams.zeros(params.config, params.input_dim).arrays
            assert {n: a.shape for n, a in params.arrays.items()} == {
                n: a.shape for n, a in layout.items()
            }
            save_checkpoint(path, params)
            saved = path.read_bytes()
            save_checkpoint(path, load_checkpoint(path))
            assert path.read_bytes() == saved
