"""Synthetic generators, IDX/CSV loaders, and dataset invariants."""

import re
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualclust.data import (
    CsvFile,
    Dataset,
    GaussianBlobs,
    IdxFiles,
    ImageGeometry,
    TwoMoons,
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
from dualclust.config import ExperimentConfig, build_dataset
from dualclust.errors import (
    ConfigError,
    ContractError,
    DegenerateInputError,
    DualclustError,
    FormatError,
    GenerationError,
)
from dualclust.kmeans import kmeans
from dualclust.metrics import clustering_accuracy


def csv_file(path, label_column=None) -> CsvFile:
    """The csv dataset section of the file at ``path``."""
    return CsvFile(str(path), label_column=label_column)


def idx_files(images_path, labels_path=None) -> IdxFiles:
    """The idx dataset section of the files at the given paths."""
    return IdxFiles(str(images_path), None if labels_path is None else str(labels_path))


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_named_where_it_enters(self, value):
        x = np.ones((8, 4))
        x[5, 2] = value
        x[6, 0] = value
        message = r"^dataset 'toy': sample 5, column 2 is not finite$"
        with pytest.raises(ContractError, match=message):
            Dataset(x, VectorGeometry(4), np.arange(8) % 2, "toy")


class TestGaussianBlobs:
    def test_same_seed_is_byte_identical(self):
        a = gaussian_blobs(GaussianBlobs(k=3, n_per=20, dim=5, separation=4.0, sigma=1.0, seed=7))
        b = gaussian_blobs(GaussianBlobs(k=3, n_per=20, dim=5, separation=4.0, sigma=1.0, seed=7))
        assert a.samples.tobytes() == b.samples.tobytes()
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_tiny_sigma_collapses_clusters(self):
        ds = gaussian_blobs(GaussianBlobs(k=2, n_per=10, dim=3, separation=5.0, sigma=1e-12, seed=0))
        for label in (0, 1):
            points = ds.samples[ds.labels == label]
            spread = np.linalg.norm(points - points[0], axis=1)
            assert spread.max() < 1e-9

    def test_cluster_means_respect_separation(self):
        sep = 6.0
        ds = gaussian_blobs(GaussianBlobs(k=4, n_per=100, dim=8, separation=sep, sigma=0.5, seed=3))
        means = np.array([ds.samples[ds.labels == k].mean(axis=0) for k in range(4)])
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(means[i] - means[j]) > 0.9 * sep

    def test_kmeans_finds_well_separated_blobs(self):
        # Sanity oracle: with 10-sigma separation the task is easy for a
        # linear method, so downstream failures are not the data's fault.
        ds = gaussian_blobs(GaussianBlobs(k=4, n_per=50, dim=16, separation=10.0, sigma=1.0, seed=0))
        labels, _, _ = kmeans(ds.samples, 4, seed=0)
        assert clustering_accuracy(labels, ds.labels) >= 0.99

    def test_infeasible_packing_raises_generation_error(self):
        # 40 points pairwise >= 1 apart cannot fit in the sampling box.
        with pytest.raises(GenerationError, match="could not place"):
            gaussian_blobs(GaussianBlobs(k=40, n_per=1, dim=1, separation=1.0, sigma=0.1, seed=0))

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
        with pytest.raises(ConfigError, match=rf"^config: dataset\.{next(iter(kwargs))}: "):
            GaussianBlobs(**base)


class TestTwoMoons:
    def test_noiseless_points_lie_on_circles(self):
        ds = two_moons(TwoMoons(n=100, noise=0.0, seed=0))
        upper = ds.samples[ds.labels == 0]
        lower = ds.samples[ds.labels == 1]
        np.testing.assert_allclose(np.linalg.norm(upper, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(
            np.linalg.norm(lower - [1.0, 0.5], axis=1), 1.0, atol=1e-12
        )

    def test_determinism(self):
        a = two_moons(TwoMoons(n=64, noise=0.1, seed=5))
        b = two_moons(TwoMoons(n=64, noise=0.1, seed=5))
        assert a.samples.tobytes() == b.samples.tobytes()

    def test_kmeans_struggles_on_moons(self):
        # Interleaved arcs are not linearly separable: k-means lands well
        # above chance but clearly below clean recovery.
        ds = two_moons(TwoMoons(n=500, noise=0.05, seed=1))
        labels, _, _ = kmeans(ds.samples, 2, seed=0)
        acc = clustering_accuracy(labels, ds.labels)
        assert 0.6 <= acc < 0.95

    @pytest.mark.parametrize("kwargs", [dict(n=3), dict(n=7), dict(noise=-0.1)])
    def test_invalid_arguments_rejected(self, kwargs):
        base = dict(n=10, noise=0.0, seed=0)
        base.update(kwargs)
        with pytest.raises(ConfigError, match=rf"^config: dataset\.{next(iter(kwargs))}: "):
            TwoMoons(**base)


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
        ds = load_idx(idx_files(img_path, lab_path))
        assert ds.samples.shape == (4, 4)
        assert ds.geometry == ImageGeometry(2, 2)
        assert np.all((ds.samples >= 0.0) & (ds.samples <= 1.0))
        np.testing.assert_allclose(ds.samples[3, 3], 15.0 / 255.0)
        np.testing.assert_array_equal(ds.labels, [0, 1, 0, 1])

    def test_bad_magic_reports_offset(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"\x00\x00\x07\x03" + b"\x00" * 20)
        with pytest.raises(FormatError, match="offset 0"):
            load_idx(idx_files(path))

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(b"\x00\x00\x08\x03" + struct.pack(">3I", 4, 2, 2) + b"\x00" * 7)
        with pytest.raises(FormatError, match="offset 16"):
            load_idx(idx_files(path))

    def test_dimensions_overflowing_int64_report_payload_size(self, tmp_path):
        path = tmp_path / "huge.idx"
        path.write_bytes(b"\x00\x00\x08\x03" + struct.pack(">3I", 2**31, 2**31, 4))
        with pytest.raises(FormatError, match=f"expects {2**64} bytes at offset 16"):
            load_idx(idx_files(path))

    @pytest.mark.parametrize("shape", [(0, 2, 2), (3, 2, 0)], ids=["no_images", "zero_width"])
    def test_empty_images_named(self, tmp_path, shape):
        path = tmp_path / "empty.idx"
        write_idx_images(path, np.zeros(shape, dtype=np.uint8))
        with pytest.raises(FormatError, match=f"{re.escape(str(path))}: IDX file holds"):
            load_idx(idx_files(path))

    def test_label_count_mismatch_rejected(self, tmp_path):
        img_path = tmp_path / "images.idx"
        lab_path = tmp_path / "labels.idx"
        write_idx_images(img_path, np.zeros((4, 2, 2), dtype=np.uint8))
        write_idx_labels(lab_path, [0, 1])
        with pytest.raises(FormatError, match="labels"):
            load_idx(idx_files(img_path, lab_path))

    def test_single_label_value_reported_with_labels_path(self, tmp_path):
        img_path = tmp_path / "images.idx"
        lab_path = tmp_path / "labels.idx"
        write_idx_images(img_path, np.zeros((2, 2, 2), dtype=np.uint8))
        write_idx_labels(lab_path, [0, 0])
        message = f"{re.escape(str(lab_path))}: .*at least 2 distinct values"
        with pytest.raises(FormatError, match=message):
            load_idx(idx_files(img_path, lab_path))

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
        loaded = load_idx(idx_files(img_path, lab_path))
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
        ds = load_csv(csv_file(path))
        np.testing.assert_array_equal(ds.samples, [[1, 2], [3, 4], [5, 6]])
        assert ds.geometry == VectorGeometry(2)

    def test_header_auto_detected_and_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n1,2\n3,4\n")
        ds = load_csv(csv_file(path))
        assert ds.samples.shape == (2, 2)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(FormatError, match="line 2"):
            load_csv(csv_file(path))

    def test_non_numeric_cell_reports_position(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(FormatError, match="line 2, column 2"):
            load_csv(csv_file(path))

    def test_label_column_by_index(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.5,2.5,0\n3.5,4.5,1\n5.5,6.5,0\n")
        ds = load_csv(csv_file(path, 2))
        assert ds.samples.shape == (3, 2)
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])

    def test_label_column_by_name(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,target\n1,2,1\n3,4,0\n")
        ds = load_csv(csv_file(path, "target"))
        np.testing.assert_array_equal(ds.labels, [1, 0])

    @pytest.mark.parametrize("text, column", [("label\n1\n0\n", "label"), ("1\n0\n", 0)])
    def test_label_only_csv_rejected(self, tmp_path, text, column):
        path = tmp_path / "data.csv"
        path.write_text(text)
        message = f"data.csv: label column {column!r} is the only column"
        with pytest.raises(FormatError, match=message):
            load_csv(csv_file(path, column))

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
            load_csv(csv_file(path, "label"))

    def test_non_integral_label_column_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,0.5\n2,1.0\n")
        with pytest.raises(FormatError, match="integral"):
            load_csv(csv_file(path, 1))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_cell_reports_position(self, tmp_path, cell):
        path = tmp_path / "data.csv"
        path.write_text(f"x,y\n1,2\n3,{cell}\n")
        with pytest.raises(FormatError, match=rf"data.csv: line 3, column 2: non-finite value '{cell}'"):
            load_csv(csv_file(path))

    def test_reported_line_counts_blank_lines(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n\n3,4\n5,nan\n")
        with pytest.raises(FormatError, match="line 4, column 2"):
            load_csv(csv_file(path))

    def test_non_integral_label_reports_position(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,0\n2,1\n3,1.7\n")
        with pytest.raises(FormatError, match=r"line 3, column 2: non-integral label '1.7'"):
            load_csv(csv_file(path, 1))

    def test_first_fault_in_the_file_reported(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n3,x\n5\n")
        with pytest.raises(FormatError, match=r"line 2, column 2: could not parse 'x'"):
            load_csv(csv_file(path))

    def test_cell_read_back_past_a_quoted_multiline_cell(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text('1,"2\n\n"\n3,4\n5,inf\n')
        with pytest.raises(FormatError, match=r"line 5, column 2: non-finite value 'inf'"):
            load_csv(csv_file(path))

    def test_single_label_value_reported_with_path(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,label\n1,3\n2,3\n")
        with pytest.raises(FormatError, match="data.csv: .*at least 2 distinct values"):
            load_csv(csv_file(path, "label"))

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        matrix = rng.normal(size=(6, 4)) * np.logspace(-3, 3, 4)
        path = tmp_path / "data.csv"
        save_csv(path, matrix)
        np.testing.assert_array_equal(load_csv(csv_file(path)).samples, matrix)

    def test_peak_memory_bounded_by_the_file_size(self, tmp_path):
        # The reader holds the file's bytes and decodes them as the csv
        # module reads, so its peak is those bytes plus the float64 cells
        # (8 bytes for each 20-odd characters that save_csv writes), held
        # once read and once as the matrix: about twice the file. A
        # decoded copy of the whole file in a text buffer, at up to 4
        # bytes per character, takes it past 3 times.
        path = tmp_path / "data.csv"
        save_csv(path, np.random.default_rng(0).normal(size=(2000, 16)))
        load_csv(csv_file(path))  # warm the caches the first call fills
        tracemalloc.start()
        try:
            load_csv(csv_file(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert peak < 3 * size, f"peak {peak} bytes for a file of {size}"


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


# Both CSV readers, each given a file's path.
READERS = [pytest.param(lambda path: load_csv(csv_file(path)), id="load_csv"), read_label_csv]


class TestCsvRecords:
    """Faults below the cell level, shared by both CSV readers."""

    @pytest.mark.parametrize("reader", READERS)
    def test_non_utf8_byte_reports_line(self, tmp_path, reader):
        path = tmp_path / "data.csv"
        path.write_bytes(b"0,1\r\n1,0\r\n2,\xff\r\n")
        with pytest.raises(FormatError, match=r"data.csv: line 3: byte 0xff at offset 12 is not UTF-8"):
            reader(path)

    def test_byte_order_mark_is_not_a_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n")
        np.testing.assert_array_equal(load_csv(csv_file(path)).samples, [[1, 2], [3, 4]])
        path.write_bytes(b"\xef\xbb\xbf1,0\n0,1\n")
        np.testing.assert_array_equal(read_label_csv(path), [1, 0])

    @pytest.mark.parametrize("reader", READERS)
    def test_oversized_cell_reports_line(self, tmp_path, reader):
        path = tmp_path / "data.csv"
        path.write_text("0,1\n1," + "1" * 200_000 + "\n")
        with pytest.raises(FormatError, match="data.csv: line 2: field larger than field limit"):
            reader(path)

    @pytest.mark.parametrize("reader", READERS)
    def test_quoted_cell_spanning_lines_keeps_later_lines(self, tmp_path, reader):
        path = tmp_path / "data.csv"
        path.write_text('0,1\n"1\n\n",0\n2,x\n')
        with pytest.raises(FormatError, match="data.csv: line 5, column 2"):
            reader(path)


VALID_DATA_CSV = b"x,y,label\n0.5,-1.25,0\n3,4e-3,1\n-2.5,7,1\n1e2,0,0\n"
VALID_LABEL_CSV = b"sample_id,cluster\n2,1\n0,0\n1,3\n3,1\n"
# Cells that are huge, non-integral, non-finite, empty, quoted, NUL,
# not UTF-8, or longer than the csv module's field limit.
ODD_CELLS = [
    b"1e400", b"1" * 400, b"-1e308", b"0.5", b"9007199254740993", b"nan", b"", b" ",
    b"1_0", b'"', b"x", b"\x00", b"\xff", b"1" * 140_000,
]
# Problems of a whole file rather than of one line.
FILE_LEVEL_PROBLEMS = re.compile(
    "no data rows|header but no data rows|sample ids must cover|no header column named"
    "|out of range for width|is the only column|at least 2 distinct values"
)


@st.composite
def mutated_csv(draw, valid):
    """``valid`` once or twice truncated, with bytes flipped, with a cell
    added, removed or replaced by an odd one, or with its header
    dropped or rewritten at another width."""
    blob = valid
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["truncate", "flip", "add", "remove", "replace", "header"]))
        if not blob:
            break
        if kind == "truncate":
            blob = blob[: draw(st.integers(0, len(blob) - 1))]
            continue
        if kind == "flip":
            flipped = bytearray(blob)
            for _ in range(draw(st.integers(1, 4))):
                flipped[draw(st.integers(0, len(flipped) - 1))] ^= draw(st.integers(1, 255))
            blob = bytes(flipped)
            continue
        lines = blob.split(b"\n")
        if kind == "header":
            lines[0] = b",".join([b"h"] * draw(st.integers(0, 4)))
        else:
            i = draw(st.integers(0, len(lines) - 1))
            cells = lines[i].split(b",")
            j = draw(st.integers(0, len(cells) - 1))
            if kind == "add":
                cells.insert(j, draw(st.sampled_from(ODD_CELLS)))
            elif kind == "remove":
                del cells[j]
            else:
                cells[j] = draw(st.sampled_from(ODD_CELLS))
            lines[i] = b",".join(cells)
        blob = b"\n".join(lines)
    return blob


def _load_or_located_error(blob, reader):
    """``reader``'s result for a file holding ``blob``, or None after a
    DualclustError that names the file and either a line of it or a
    problem of the whole file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.csv"
        path.write_bytes(blob)
        try:
            return reader(path)
        except DualclustError as exc:
            message = str(exc)
        assert message.startswith(f"{path}: "), message
        line = re.match(r"line (\d+)\b", message[len(f"{path}: "):])
        if line is None:
            assert FILE_LEVEL_PROBLEMS.search(message), message
        else:
            assert 1 <= int(line.group(1)) <= len(blob.splitlines()), message
        return None


class TestReaderFuzz:
    @given(blob=mutated_csv(VALID_DATA_CSV), label_column=st.sampled_from(["label", 2, None]))
    @settings(max_examples=200, deadline=None)
    def test_damaged_data_csv_loads_checked_or_fails_located(self, blob, label_column):
        """A loaded dataset is finite and, written back, reads the same."""
        dataset = _load_or_located_error(blob, lambda p: load_csv(csv_file(p, label_column)))
        if dataset is None:
            return
        assert np.isfinite(dataset.samples).all()
        assert dataset.samples.shape[1] == dataset.geometry.dim >= 1
        assert (dataset.labels is None) == (label_column is None)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "again.csv"
            if dataset.labels is None:
                save_csv(path, dataset.samples)
                np.testing.assert_array_equal(load_csv(csv_file(path)).samples, dataset.samples)
                return
            save_csv(path, np.column_stack([dataset.samples, dataset.labels]))
            again = load_csv(csv_file(path, dataset.dim))
        np.testing.assert_array_equal(again.samples, dataset.samples)
        np.testing.assert_array_equal(again.labels, dataset.labels)

    @given(blob=mutated_csv(VALID_LABEL_CSV))
    @settings(max_examples=200, deadline=None)
    def test_damaged_label_csv_loads_checked_or_fails_located(self, blob):
        """Loaded labels are one integer per sample id and, written back,
        read the same."""
        labels = _load_or_located_error(blob, read_label_csv)
        if labels is None:
            return
        assert labels.dtype == np.int64 and labels.ndim == 1 and labels.size >= 1
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "again.csv"
            write_label_csv(path, labels)
            np.testing.assert_array_equal(read_label_csv(path), labels)


def _idx_pair(n, height, width, seed):
    """Image and label IDX bytes of ``n`` random images and labels 0..2."""
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=n * height * width, dtype=np.uint8).tobytes()
    labels = bytes(i % 3 for i in range(n))
    return (
        b"\x00\x00\x08\x03" + struct.pack(">3I", n, height, width) + images,
        b"\x00\x00\x08\x01" + struct.pack(">I", n) + labels,
    )


VALID_IDX = _idx_pair(4, 3, 2, seed=0)
# Same magic, another size of payload: a donor for splices.
DONOR_IDX = _idx_pair(6, 2, 2, seed=1)
IDX_DIMS = (3, 1)  # dimensions in the image file, then in the label file
# Problems of a whole IDX file rather than of one offset.
IDX_FILE_LEVEL_PROBLEMS = re.compile(
    "file too short for IDX magic|IDX file holds|labels for \\d+ images|at least 2 distinct values"
)


@st.composite
def mutated_idx(draw, which):
    """File ``which`` (0 images, 1 labels) of VALID_IDX truncated, with
    bytes flipped, with one dimension rewritten, or with its payload
    spliced from DONOR_IDX."""
    blob, ndim = VALID_IDX[which], IDX_DIMS[which]
    kind = draw(st.sampled_from(["keep", "truncate", "flip", "dims", "splice"]))
    if kind == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if kind == "flip":
        flipped = bytearray(blob)
        for _ in range(draw(st.integers(1, 4))):
            flipped[draw(st.integers(0, len(flipped) - 1))] ^= draw(st.integers(1, 255))
        return bytes(flipped)
    if kind == "dims":
        at = 4 + 4 * draw(st.integers(0, ndim - 1))
        value = draw(st.one_of(st.integers(0, 8), st.sampled_from([2**31, 2**32 - 1])))
        return blob[:at] + struct.pack(">I", value) + blob[at + 4 :]
    if kind == "splice":
        donor = DONOR_IDX[which][4 + 4 * ndim :]
        start = draw(st.integers(0, len(donor)))
        return blob[: 4 + 4 * ndim] + donor[start : start + draw(st.integers(0, len(donor)))]
    return blob


class TestIdxFuzz:
    @given(images=mutated_idx(0), labels=mutated_idx(1), with_labels=st.booleans())
    # One label value throughout once came through without the file's name.
    @example(images=VALID_IDX[0], labels=VALID_IDX[1][:8] + bytes(4), with_labels=True)
    @settings(max_examples=200, deadline=None)
    def test_damaged_idx_loads_checked_or_fails_located(self, images, labels, with_labels):
        """A damaged IDX pair raises a DualclustError that names a file and
        an offset in it or a problem of the whole file, or it loads as a
        finite dataset in [0, 1] that writes back and reads the same."""
        with tempfile.TemporaryDirectory() as tmp:
            img_path, lab_path = Path(tmp) / "images.idx", Path(tmp) / "labels.idx"
            img_path.write_bytes(images)
            lab_path.write_bytes(labels)
            try:
                dataset = load_idx(idx_files(img_path, lab_path if with_labels else None))
            except DualclustError as exc:
                message = str(exc)
                named = [p for p in (img_path, lab_path) if message.startswith(f"{p}: ")]
                assert named, message
                offset = re.search(r"offset (\d+)", message)
                if offset is None:
                    assert IDX_FILE_LEVEL_PROBLEMS.search(message), message
                else:
                    assert int(offset.group(1)) <= named[0].stat().st_size, message
                return
            assert np.isfinite(dataset.samples).all()
            assert dataset.samples.min() >= 0.0 and dataset.samples.max() <= 1.0
            assert (dataset.labels is None) == (not with_labels)
            again = (Path(tmp) / "again_images.idx", Path(tmp) / "again_labels.idx")
            save_idx(again[0], dataset, again[1] if with_labels else None)
            loaded = load_idx(idx_files(again[0], again[1] if with_labels else None))
        assert loaded.geometry == dataset.geometry
        np.testing.assert_array_equal(loaded.samples, dataset.samples)
        np.testing.assert_array_equal(loaded.labels, dataset.labels)


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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_column_named_as_not_finite(self, value):
        # Column 0 overflows; column 2 holds the first non-finite value.
        x = np.ones((4, 3))
        x[:, 0] = [1e308, 1.25e308, 1.5e308, 1e308]
        x[1, 2] = value
        with pytest.raises(ContractError, match=r"^standardize: column 2 is not finite$"):
            standardize(x)

    @pytest.mark.parametrize(
        "column", [[1e308, 1.25e308, 1.5e308, 1e308], [1e200, -1e200, 1e200, -1e200]]
    )
    def test_overflowing_csv_column_named_through_build_dataset(self, tmp_path, column):
        # Finite cells whose mean or spread overflows float64: the first
        # would come out NaN, the second silently all zero.
        path = tmp_path / "data.csv"
        rows = [f"{i},{value!r},{i % 2}" for i, value in enumerate(column)]
        path.write_text("a,b,label\n" + "\n".join(rows) + "\n")
        raw = {"dataset": {"kind": "csv", "path": str(path), "label_column": "label"}}
        with pytest.raises(DegenerateInputError, match="column 1 overflows"):
            build_dataset(ExperimentConfig.from_dict(raw).dataset)
