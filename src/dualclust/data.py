"""Dataset synthesis and ingestion with explicit geometry.

Every dataset declares whether its rows are flat vectors or flattened
height-by-width images; the augmentation module keys off that
declaration, so spatial transforms can never silently run on
non-spatial data. Generators are seed-deterministic down to the byte.

File formats: IDX for small images (big-endian magic + dims + payload)
and plain numeric CSV with an optionally auto-detected header row.
Label CSVs pair a sample_id column with an integer label column.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import as_matrix
from .errors import ConfigError, ContractError, FormatError, GenerationError

__all__ = [
    "VectorGeometry",
    "ImageGeometry",
    "Dataset",
    "gaussian_blobs",
    "two_moons",
    "load_idx",
    "save_idx",
    "load_csv",
    "save_csv",
    "read_label_csv",
    "write_label_csv",
    "standardize",
]

CENTER_PLACEMENT_ATTEMPTS_PER_CLUSTER = 500
CENTER_BOX_HALF_WIDTH_IN_SEPARATIONS = 3.0


@dataclass(frozen=True)
class VectorGeometry:
    dim: int

    @property
    def size(self) -> int:
        return self.dim


@dataclass(frozen=True)
class ImageGeometry:
    height: int
    width: int

    @property
    def size(self) -> int:
        return self.height * self.width


@dataclass(frozen=True)
class Dataset:
    samples: np.ndarray
    geometry: object
    labels: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        samples = as_matrix(self.samples)
        object.__setattr__(self, "samples", samples)
        if samples.shape[1] != self.geometry.size:
            raise ContractError(
                f"dataset {self.name!r}: geometry expects width {self.geometry.size}, "
                f"samples have {samples.shape[1]}"
            )
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            if labels.ndim != 1 or labels.shape[0] != samples.shape[0]:
                raise ContractError(
                    f"dataset {self.name!r}: labels must be a length-{samples.shape[0]} "
                    f"vector, got shape {labels.shape}"
                )
            if np.unique(labels).size < 2:
                raise ContractError(
                    f"dataset {self.name!r}: labels must contain at least 2 distinct values"
                )
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


def _place_centers(rng, k, dim, separation):
    half_width = CENTER_BOX_HALF_WIDTH_IN_SEPARATIONS * separation
    centers = []
    attempts = CENTER_PLACEMENT_ATTEMPTS_PER_CLUSTER * k
    for _ in range(attempts):
        candidate = rng.uniform(-half_width, half_width, size=dim)
        if all(np.linalg.norm(candidate - c) >= separation for c in centers):
            centers.append(candidate)
            if len(centers) == k:
                return np.array(centers)
    raise GenerationError(
        f"gaussian_blobs: could not place {k} centers at pairwise separation "
        f"{separation} after {attempts} attempts; lower k or the separation"
    )


def gaussian_blobs(k, n_per, dim, separation, sigma, seed) -> Dataset:
    """k isotropic Gaussian clusters, centers pairwise at least
    ``separation`` apart, ``n_per`` samples each, labeled by cluster.
    Deterministic per seed."""
    if k < 2:
        raise ConfigError(f"gaussian_blobs: k must be >= 2, got {k}")
    if n_per < 1:
        raise ConfigError(f"gaussian_blobs: n_per must be >= 1, got {n_per}")
    if dim < 1:
        raise ConfigError(f"gaussian_blobs: dim must be >= 1, got {dim}")
    if not separation > 0:
        raise ConfigError(f"gaussian_blobs: separation must be positive, got {separation}")
    if not sigma > 0:
        raise ConfigError(f"gaussian_blobs: sigma must be positive, got {sigma}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    centers = _place_centers(rng, k, dim, separation)
    samples = np.concatenate(
        [center + sigma * rng.normal(size=(n_per, dim)) for center in centers]
    )
    labels = np.repeat(np.arange(k), n_per)
    return Dataset(samples, VectorGeometry(dim), labels, name=f"blobs_k{k}")


def two_moons(n, noise, seed) -> Dataset:
    """Two interleaved unit half-circles with Gaussian coordinate noise.

    The upper arc is centered at the origin, the lower arc at (1, 0.5);
    with noise 0 every point lies exactly on its circle.
    """
    if n < 4 or n % 2 != 0:
        raise ConfigError(f"two_moons: n must be an even number >= 4, got {n}")
    if noise < 0:
        raise ConfigError(f"two_moons: noise must be nonnegative, got {noise}")
    half = n // 2
    t = np.linspace(0.0, np.pi, half)
    outer = np.column_stack([np.cos(t), np.sin(t)])
    inner = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
    samples = np.concatenate([outer, inner])
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if noise > 0:
        samples = samples + rng.normal(0.0, noise, size=samples.shape)
    labels = np.repeat([0, 1], half)
    return Dataset(samples, VectorGeometry(2), labels, name="two_moons")


IDX_IMAGES_MAGIC = b"\x00\x00\x08\x03"
IDX_LABELS_MAGIC = b"\x00\x00\x08\x01"


def _read_idx_array(path, magic, ndim):
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4:
        raise FormatError(f"{path}: file too short for IDX magic ({len(blob)} bytes)")
    if blob[:4] != magic:
        raise FormatError(
            f"{path}: bad IDX magic at offset 0: got {blob[:4].hex()}, "
            f"expected {magic.hex()}"
        )
    header_end = 4 + 4 * ndim
    if len(blob) < header_end:
        raise FormatError(
            f"{path}: truncated IDX dimension header at offset {len(blob)}, "
            f"need {header_end} bytes"
        )
    dims = struct.unpack(f">{ndim}I", blob[4:header_end])
    count = math.prod(dims)
    if len(blob) != header_end + count:
        raise FormatError(
            f"{path}: IDX payload expects {count} bytes at offset {header_end}, "
            f"file has {len(blob) - header_end}"
        )
    data = np.frombuffer(blob, dtype=np.uint8, offset=header_end)
    return data.reshape(dims)


def load_idx(images_path, labels_path=None) -> Dataset:
    """Read IDX-encoded images (and optionally labels) into a dataset
    with image geometry; pixel values are scaled into [0, 1]."""
    raw = _read_idx_array(images_path, IDX_IMAGES_MAGIC, ndim=3)
    n, height, width = raw.shape
    if raw.size == 0:
        raise FormatError(f"{images_path}: IDX file holds {n} images of {height}x{width} pixels")
    samples = raw.reshape(n, height * width).astype(np.float64) / 255.0
    labels = None
    if labels_path is not None:
        labels = _read_idx_array(labels_path, IDX_LABELS_MAGIC, ndim=1)
        if labels.shape[0] != n:
            raise FormatError(
                f"{labels_path}: {labels.shape[0]} labels for {n} images"
            )
        labels = labels.astype(np.int64)
    return Dataset(samples, ImageGeometry(height, width), labels, name="idx")


def save_idx(images_path, dataset: Dataset, labels_path=None) -> None:
    """Write a dataset with image geometry back to IDX; values in [0, 1]
    are quantized to bytes, so byte-valued data round-trips exactly.
    Labels must fit in a byte (0..255)."""
    geometry = dataset.geometry
    if not isinstance(geometry, ImageGeometry):
        raise ContractError("save_idx: dataset does not declare image geometry")
    if labels_path is not None:
        if dataset.labels is None:
            raise ContractError("save_idx: labels_path given but dataset has no labels")
        outside = np.flatnonzero((dataset.labels < 0) | (dataset.labels > 255))
        if outside.size:
            i = outside[0]
            raise ContractError(
                f"save_idx: sample {i} has label {dataset.labels[i]}, "
                f"outside the IDX byte range 0..255"
            )
    pixels = np.clip(np.round(dataset.samples * 255.0), 0, 255).astype(np.uint8)
    n = dataset.n
    with open(images_path, "wb") as fh:
        fh.write(IDX_IMAGES_MAGIC)
        fh.write(struct.pack(">3I", n, geometry.height, geometry.width))
        fh.write(pixels.tobytes())
    if labels_path is not None:
        with open(labels_path, "wb") as fh:
            fh.write(IDX_LABELS_MAGIC)
            fh.write(struct.pack(">I", n))
            fh.write(dataset.labels.astype(np.uint8).tobytes())


# Integers beyond 2**53 are not all representable in float64, so a cell
# that large cannot be known to hold the integer that was written.
MAX_EXACT_INTEGER = 2.0**53


def _read_rows(path):
    """All CSV records, blank ones included so that record i is file line
    i + 1, and the non-empty ones."""
    with open(path, newline="") as fh:
        records = list(csv.reader(fh))
    return records, [row for row in records if row]


def _line_of(records, row):
    """File line of a non-empty record; only error paths look it up."""
    return next(line for line, record in enumerate(records, start=1) if record is row)


def _parse_table(records, rows, path):
    """Parse equal-width rows into a float matrix. Every cell goes through
    float() and finiteness is checked in one vectorised pass; only a
    failure looks up the offending cell's line."""
    try:
        matrix = np.array([[float(cell) for cell in row] for row in rows])
    except ValueError:
        bad = np.array([[not _is_number(cell) for cell in row] for row in rows])
        _reject_cells(bad, records, rows, path, "could not parse {!r} as a number")
        raise
    _reject_cells(~np.isfinite(matrix), records, rows, path, "non-finite value {!r}")
    return matrix


def _reject_cells(bad, records, rows, path, problem):
    """Raise a FormatError at the first flagged cell of the boolean matrix
    ``bad``, in row-major order; ``problem`` is formatted with the cell."""
    if bad.any():
        index, col = np.argwhere(bad)[0]
        row = rows[index]
        raise FormatError(
            f"{path}: line {_line_of(records, row)}, column {col + 1}: "
            + problem.format(row[col])
        )


def _not_integer(values):
    return (values != np.round(values)) | (np.abs(values) >= MAX_EXACT_INTEGER)


def load_csv(path, label_column=None) -> Dataset:
    """Read a rectangular numeric CSV as a vector dataset.

    A first row with any non-numeric cell is treated as a header and
    skipped. ``label_column`` selects a column (by index, or by name
    when a header is present) to extract as integer labels.
    """
    records, rows = _read_rows(path)
    if not rows:
        raise FormatError(f"{path}: no data rows")
    header = None
    if any(not _is_number(cell) for cell in rows[0]):
        header = [cell.strip() for cell in rows[0]]
        header_row, rows = rows[0], rows[1:]
        if not rows:
            raise FormatError(f"{path}: header but no data rows")
    width = len(rows[0])
    for row in rows:
        if len(row) != width:
            raise FormatError(
                f"{path}: line {_line_of(records, row)}: expected {width} columns, got {len(row)}"
            )
    if header is not None and len(header) != width:
        raise FormatError(
            f"{path}: line {_line_of(records, header_row)}: header has {len(header)} "
            f"columns, data rows have {width}"
        )
    matrix = _parse_table(records, rows, path)
    labels = None
    if label_column is not None:
        if isinstance(label_column, str):
            if header is None or label_column not in header:
                raise FormatError(
                    f"{path}: no header column named {label_column!r}"
                )
            index = header.index(label_column)
        else:
            index = int(label_column)
            if not 0 <= index < width:
                raise FormatError(
                    f"{path}: label column {index} out of range for width {width}"
                )
        raw = matrix[:, index]
        bad = np.zeros(matrix.shape, dtype=bool)
        bad[:, index] = _not_integer(raw)
        _reject_cells(bad, records, rows, path, "non-integral label {!r}")
        labels = raw.astype(np.int64)
        matrix = np.delete(matrix, index, axis=1)
    return Dataset(matrix, VectorGeometry(matrix.shape[1]), labels, name="csv")


def _is_number(text) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def save_csv(path, matrix) -> None:
    """Write a numeric matrix as CSV at 17 significant digits, enough for
    float64 values to round-trip exactly."""
    matrix = as_matrix(matrix)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in matrix:
            writer.writerow([f"{v:.17g}" for v in row])


def read_label_csv(path) -> np.ndarray:
    """Read a (sample_id, label) CSV, return labels ordered by sample_id.

    Accepts an optional header. Sample ids must be the integers
    0..n-1 in any order, each exactly once.
    """
    records, rows = _read_rows(path)
    if not rows:
        raise FormatError(f"{path}: no data rows")
    if any(not _is_number(cell) for cell in rows[0]):
        rows = rows[1:]
        if not rows:
            raise FormatError(f"{path}: header but no data rows")
    for row in rows:
        if len(row) != 2:
            raise FormatError(
                f"{path}: line {_line_of(records, row)}: expected 2 columns "
                f"(sample_id, label), got {len(row)}"
            )
    table = _parse_table(records, rows, path)
    _reject_cells(_not_integer(table), records, rows, path, "non-integral value {!r}")
    ids, labels = table.astype(np.int64).T
    order = np.argsort(ids)
    if not np.array_equal(ids[order], np.arange(len(ids))):
        raise FormatError(f"{path}: sample ids must cover 0..{len(ids) - 1} exactly once")
    return labels[order]


def write_label_csv(path, labels) -> None:
    labels = np.asarray(labels, dtype=np.int64)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "cluster"])
        for i, label in enumerate(labels):
            writer.writerow([i, int(label)])


def standardize(matrix):
    """Per-dimension zero mean, unit variance. Returns (standardized,
    mean, std); constant columns are centered but left unscaled."""
    matrix = as_matrix(matrix)
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return (matrix - mean) / std, mean, std
