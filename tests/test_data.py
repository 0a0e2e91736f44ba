"""Synthetic generators, IDX/CSV loaders, and dataset invariants."""

import re
import struct

import numpy as np
import pytest

from dualclust.data import (
    Dataset,
    ImageGeometry,
    VectorGeometry,
    gaussian_blobs,
    load_csv,
    load_idx,
    read_label_csv,
    save_csv,
    save_idx,
    standardize,
    two_moons,
    write_label_csv,
)
from dualclust.errors import ConfigError, ContractError, FormatError, GenerationError
from dualclust.kmeans import kmeans
from dualclust.metrics import clustering_accuracy


class TestDatasetInvariants:
    def test_geometry_width_must_match(self):
        with pytest.raises(ContractError, match="width"):
            Dataset(np.ones((3, 5)), VectorGeometry(4))

    def test_image_geometry_factorization(self):
        ds = Dataset(np.ones((2, 6)), ImageGeometry(2, 3))
        assert ds.geometry.size == 6
        with pytest.raises(ContractError):
            Dataset(np.ones((2, 5)), ImageGeometry(2, 3))

    def test_label_length_must_match(self):
        with pytest.raises(ContractError, match="labels"):
            Dataset(np.ones((3, 2)), VectorGeometry(2), labels=[0, 1])

    def test_single_label_value_rejected(self):
        with pytest.raises(ContractError, match="distinct"):
            Dataset(np.ones((3, 2)), VectorGeometry(2), labels=[1, 1, 1])


class TestGaussianBlobs:
    def test_same_seed_is_byte_identical(self):
        a = gaussian_blobs(k=3, n_per=20, dim=5, separation=4.0, sigma=1.0, seed=7)
        b = gaussian_blobs(k=3, n_per=20, dim=5, separation=4.0, sigma=1.0, seed=7)
        assert a.samples.tobytes() == b.samples.tobytes()
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_tiny_sigma_collapses_clusters(self):
        ds = gaussian_blobs(k=2, n_per=10, dim=3, separation=5.0, sigma=1e-12, seed=0)
        for label in (0, 1):
            points = ds.samples[ds.labels == label]
            spread = np.linalg.norm(points - points[0], axis=1)
            assert spread.max() < 1e-9

    def test_cluster_means_respect_separation(self):
        sep = 6.0
        ds = gaussian_blobs(k=4, n_per=100, dim=8, separation=sep, sigma=0.5, seed=3)
        means = np.array([ds.samples[ds.labels == k].mean(axis=0) for k in range(4)])
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(means[i] - means[j]) > 0.9 * sep

    def test_kmeans_finds_well_separated_blobs(self):
        # Sanity oracle: with 10-sigma separation the task is easy for a
        # linear method, so downstream failures are not the data's fault.
        ds = gaussian_blobs(k=4, n_per=50, dim=16, separation=10.0, sigma=1.0, seed=0)
        labels, _, _ = kmeans(ds.samples, 4, seed=0)
        assert clustering_accuracy(labels, ds.labels) >= 0.99

    def test_infeasible_packing_raises_generation_error(self):
        # 40 points pairwise >= 1 apart cannot fit in the sampling box.
        with pytest.raises(GenerationError, match="could not place"):
            gaussian_blobs(k=40, n_per=1, dim=1, separation=1.0, sigma=0.1, seed=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k=1),
            dict(n_per=0),
            dict(dim=0),
            dict(separation=0.0),
            dict(sigma=0.0),
        ],
    )
    def test_invalid_arguments_rejected(self, kwargs):
        base = dict(k=2, n_per=5, dim=2, separation=1.0, sigma=0.5, seed=0)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            gaussian_blobs(**base)


class TestTwoMoons:
    def test_noiseless_points_lie_on_circles(self):
        ds = two_moons(n=100, noise=0.0, seed=0)
        upper = ds.samples[ds.labels == 0]
        lower = ds.samples[ds.labels == 1]
        np.testing.assert_allclose(np.linalg.norm(upper, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(
            np.linalg.norm(lower - [1.0, 0.5], axis=1), 1.0, atol=1e-12
        )

    def test_determinism(self):
        a = two_moons(n=64, noise=0.1, seed=5)
        b = two_moons(n=64, noise=0.1, seed=5)
        assert a.samples.tobytes() == b.samples.tobytes()

    def test_kmeans_struggles_on_moons(self):
        # Interleaved arcs are not linearly separable: k-means lands well
        # above chance but clearly below clean recovery.
        ds = two_moons(n=500, noise=0.05, seed=1)
        labels, _, _ = kmeans(ds.samples, 2, seed=0)
        acc = clustering_accuracy(labels, ds.labels)
        assert 0.6 <= acc < 0.95

    @pytest.mark.parametrize("kwargs", [dict(n=3), dict(n=7), dict(noise=-0.1)])
    def test_invalid_arguments_rejected(self, kwargs):
        base = dict(n=10, noise=0.0, seed=0)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            two_moons(**base)


def write_idx_images(path, array_u8):
    n, h, w = array_u8.shape
    path.write_bytes(b"\x00\x00\x08\x03" + struct.pack(">3I", n, h, w) + array_u8.tobytes())


def write_idx_labels(path, labels_u8):
    path.write_bytes(
        b"\x00\x00\x08\x01" + struct.pack(">I", len(labels_u8)) + bytes(labels_u8)
    )


class TestIdx:
    def test_small_fixture_loads(self, tmp_path):
        images = np.arange(16, dtype=np.uint8).reshape(4, 2, 2)
        img_path = tmp_path / "images.idx"
        lab_path = tmp_path / "labels.idx"
        write_idx_images(img_path, images)
        write_idx_labels(lab_path, [0, 1, 0, 1])
        ds = load_idx(img_path, lab_path)
        assert ds.samples.shape == (4, 4)
        assert ds.geometry == ImageGeometry(2, 2)
        assert np.all((ds.samples >= 0.0) & (ds.samples <= 1.0))
        np.testing.assert_allclose(ds.samples[3, 3], 15.0 / 255.0)
        np.testing.assert_array_equal(ds.labels, [0, 1, 0, 1])

    def test_bad_magic_reports_offset(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"\x00\x00\x07\x03" + b"\x00" * 20)
        with pytest.raises(FormatError, match="offset 0"):
            load_idx(path)

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(b"\x00\x00\x08\x03" + struct.pack(">3I", 4, 2, 2) + b"\x00" * 7)
        with pytest.raises(FormatError, match="offset 16"):
            load_idx(path)

    def test_dimensions_overflowing_int64_report_payload_size(self, tmp_path):
        path = tmp_path / "huge.idx"
        path.write_bytes(b"\x00\x00\x08\x03" + struct.pack(">3I", 2**31, 2**31, 4))
        with pytest.raises(FormatError, match=f"expects {2**64} bytes at offset 16"):
            load_idx(path)

    @pytest.mark.parametrize("shape", [(0, 2, 2), (3, 2, 0)], ids=["no_images", "zero_width"])
    def test_empty_images_named(self, tmp_path, shape):
        path = tmp_path / "empty.idx"
        write_idx_images(path, np.zeros(shape, dtype=np.uint8))
        with pytest.raises(FormatError, match=f"{re.escape(str(path))}: IDX file holds"):
            load_idx(path)

    def test_label_count_mismatch_rejected(self, tmp_path):
        img_path = tmp_path / "images.idx"
        lab_path = tmp_path / "labels.idx"
        write_idx_images(img_path, np.zeros((4, 2, 2), dtype=np.uint8))
        write_idx_labels(lab_path, [0, 1])
        with pytest.raises(FormatError, match="labels"):
            load_idx(img_path, lab_path)

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(5, 3, 4), dtype=np.uint8)
        original = Dataset(
            pixels.reshape(5, 12) / 255.0,
            ImageGeometry(3, 4),
            labels=rng.integers(0, 3, size=5),
        )
        img_path = tmp_path / "images.idx"
        lab_path = tmp_path / "labels.idx"
        save_idx(img_path, original, lab_path)
        loaded = load_idx(img_path, lab_path)
        np.testing.assert_array_equal(loaded.samples, original.samples)
        np.testing.assert_array_equal(loaded.labels, original.labels)

    def test_label_outside_byte_range_rejected(self, tmp_path):
        dataset = Dataset(np.zeros((3, 4)), ImageGeometry(2, 2), labels=[0, 256, 1])
        with pytest.raises(ContractError, match=r"sample 1 has label 256"):
            save_idx(tmp_path / "images.idx", dataset, tmp_path / "labels.idx")
        assert not (tmp_path / "images.idx").exists()


class TestCsv:
    def test_plain_numeric_fixture(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n3,4\n5,6\n")
        ds = load_csv(path)
        np.testing.assert_array_equal(ds.samples, [[1, 2], [3, 4], [5, 6]])
        assert ds.geometry == VectorGeometry(2)

    def test_header_auto_detected_and_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n1,2\n3,4\n")
        ds = load_csv(path)
        assert ds.samples.shape == (2, 2)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(FormatError, match="line 2"):
            load_csv(path)

    def test_non_numeric_cell_reports_position(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(FormatError, match="line 2, column 2"):
            load_csv(path)

    def test_label_column_by_index(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.5,2.5,0\n3.5,4.5,1\n5.5,6.5,0\n")
        ds = load_csv(path, label_column=2)
        assert ds.samples.shape == (3, 2)
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])

    def test_label_column_by_name(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,target\n1,2,1\n3,4,0\n")
        ds = load_csv(path, label_column="target")
        np.testing.assert_array_equal(ds.labels, [1, 0])

    @pytest.mark.parametrize(
        "text, header_width, width",
        [("x,y,label\n1,2\n3,4\n", 3, 2), ("x,label\n1,2,7\n3,4,7\n", 2, 3)],
        ids=["header_wider", "header_narrower"],
    )
    def test_header_width_must_match_rows(self, tmp_path, text, header_width, width):
        path = tmp_path / "data.csv"
        path.write_text(text)
        message = rf"data.csv: line 1: header has {header_width} columns, data rows have {width}"
        with pytest.raises(FormatError, match=message):
            load_csv(path, label_column="label")

    def test_non_integral_label_column_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,0.5\n2,1.0\n")
        with pytest.raises(FormatError, match="integral"):
            load_csv(path, label_column=1)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_cell_reports_position(self, tmp_path, cell):
        path = tmp_path / "data.csv"
        path.write_text(f"x,y\n1,2\n3,{cell}\n")
        with pytest.raises(FormatError, match=rf"data.csv: line 3, column 2: non-finite value '{cell}'"):
            load_csv(path)

    def test_reported_line_counts_blank_lines(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n\n3,4\n5,nan\n")
        with pytest.raises(FormatError, match="line 4, column 2"):
            load_csv(path)

    def test_non_integral_label_reports_position(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,0\n2,1\n3,1.7\n")
        with pytest.raises(FormatError, match=r"line 3, column 2: non-integral label '1.7'"):
            load_csv(path, label_column=1)

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        matrix = rng.normal(size=(6, 4)) * np.logspace(-3, 3, 4)
        path = tmp_path / "data.csv"
        save_csv(path, matrix)
        np.testing.assert_array_equal(load_csv(path).samples, matrix)


class TestLabelCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_label_csv(path, [2, 0, 1, 1])
        np.testing.assert_array_equal(read_label_csv(path), [2, 0, 1, 1])

    def test_rows_reordered_by_sample_id(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("sample_id,cluster\n2,5\n0,3\n1,4\n")
        np.testing.assert_array_equal(read_label_csv(path), [3, 4, 5])

    @pytest.mark.parametrize(
        "cell, problem",
        [("nan", "non-finite"), ("inf", "non-finite"), ("1.7", "non-integral"), ("1e300", "non-integral")],
    )
    def test_bad_label_reports_position(self, tmp_path, cell, problem):
        path = tmp_path / "labels.csv"
        path.write_text(f"sample_id,cluster\n0,1\n1,{cell}\n")
        with pytest.raises(FormatError, match=rf"labels.csv: line 3, column 2: {problem} value '{cell}'"):
            read_label_csv(path)

    def test_non_integral_sample_id_reports_position(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("0,1\n1.5,0\n")
        with pytest.raises(FormatError, match=r"line 2, column 1: non-integral value '1.5'"):
            read_label_csv(path)

    def test_incomplete_ids_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("0,1\n2,0\n")
        with pytest.raises(FormatError, match="sample ids"):
            read_label_csv(path)


class TestStandardize:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(loc=3.0, scale=5.0, size=(200, 4))
        out, mean, std = standardize(x)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose((x - mean) / std, out)

    def test_constant_column_is_centered_not_scaled(self):
        x = np.column_stack([np.full(10, 7.0), np.arange(10, dtype=float)])
        out, _, std = standardize(x)
        assert np.all(np.isfinite(out))
        np.testing.assert_array_equal(out[:, 0], np.zeros(10))
        assert std[0] == 1.0
