"""Dataset synthesis and ingestion with explicit geometry.

Every dataset declares whether its rows are flat vectors or flattened
height-by-width images; the augmentation module keys off that
declaration, so spatial transforms can never silently run on
non-spatial data. Each dataset kind is one frozen dataclass, which its
generator or reader takes. Generators are seed-deterministic down to the
byte.

File formats: IDX for small images (big-endian magic + dims + payload)
and plain numeric CSV with an optionally auto-detected header row.
Label CSVs pair a sample_id column with an integer label column.
"""

from __future__ import annotations

import csv
import io
import math
import struct
from array import array
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .autodiff import as_matrix
from .errors import ContractError, DegenerateInputError, FormatError, GenerationError
from .schema import check_fields, require

__all__ = [
    "VectorGeometry",
    "ImageGeometry",
    "Dataset",
    "DatasetSpec", "GaussianBlobs", "TwoMoons", "CsvFile", "IdxFiles",
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
        if not np.isfinite(samples).all():
            i, j = np.argwhere(~np.isfinite(samples))[0]
            raise ContractError(f"dataset {self.name!r}: sample {i}, column {j} is not finite")
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            if labels.ndim != 1 or labels.shape[0] != samples.shape[0]:
                raise ContractError(
                    f"dataset {self.name!r}: labels must be a length-{samples.shape[0]} "
                    f"vector, got shape {labels.shape}"
                )
            if labels.size == 0 or labels.min() == labels.max():
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


@dataclass(frozen=True)
class DatasetSpec:
    """The config's dataset section: one subclass per kind, named by its
    ``kind``, whose fields are the section's keys. Each field is
    type-checked against its annotation before any range check, and an
    error names it as ``dataset.<field>``."""

    kind: ClassVar[str]
    noun: ClassVar[str] = "dataset kind"
    standardize: bool | None = field(default=None, kw_only=True)

    def __post_init__(self):
        check_fields(self, "dataset")

    def standardizes(self, geometry) -> bool:
        """``standardize``, where None means on for vector data, off for images."""
        vector = isinstance(geometry, VectorGeometry)
        return vector if self.standardize is None else self.standardize


@dataclass(frozen=True)
class GaussianBlobs(DatasetSpec):
    kind = "gaussian_blobs"
    k: int
    n_per: int
    dim: int
    separation: float
    sigma: float
    seed: int

    def __post_init__(self):
        super().__post_init__()
        require(self.k >= 2, "dataset.k", "must be >= 2")
        require(self.n_per >= 1, "dataset.n_per", "must be >= 1")
        require(self.dim >= 1, "dataset.dim", "must be >= 1")
        require(self.separation > 0, "dataset.separation", "must be positive")
        require(self.sigma > 0, "dataset.sigma", "must be positive")
        require(self.seed >= 0, "dataset.seed", "must be nonnegative")


@dataclass(frozen=True)
class TwoMoons(DatasetSpec):
    kind = "two_moons"
    n: int
    noise: float
    seed: int

    def __post_init__(self):
        super().__post_init__()
        require(self.n >= 4 and self.n % 2 == 0, "dataset.n", "must be an even number >= 4")
        require(self.noise >= 0, "dataset.noise", "must be nonnegative")
        require(self.seed >= 0, "dataset.seed", "must be nonnegative")


@dataclass(frozen=True)
class CsvFile(DatasetSpec):
    kind = "csv"
    path: str
    label_column: int | str | None = None


@dataclass(frozen=True)
class IdxFiles(DatasetSpec):
    kind = "idx"
    images_path: str
    labels_path: str | None = None


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


def gaussian_blobs(spec: GaussianBlobs) -> Dataset:
    """k isotropic Gaussian clusters, centers pairwise at least
    ``separation`` apart, ``n_per`` samples each, labeled by cluster.
    Deterministic per seed."""
    k, n_per, dim, sigma = spec.k, spec.n_per, spec.dim, spec.sigma
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    centers = _place_centers(rng, k, dim, spec.separation)
    samples = np.concatenate(
        [center + sigma * rng.normal(size=(n_per, dim)) for center in centers]
    )
    labels = np.repeat(np.arange(k), n_per)
    return Dataset(samples, VectorGeometry(dim), labels, name=f"blobs_k{k}")


def two_moons(spec: TwoMoons) -> Dataset:
    """Two interleaved unit half-circles with Gaussian coordinate noise.

    The upper arc is centered at the origin, the lower arc at (1, 0.5);
    with noise 0 every point lies exactly on its circle.
    """
    half = spec.n // 2
    t = np.linspace(0.0, np.pi, half)
    outer = np.column_stack([np.cos(t), np.sin(t)])
    inner = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
    samples = np.concatenate([outer, inner])
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    if spec.noise > 0:
        samples = samples + rng.normal(0.0, spec.noise, size=samples.shape)
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


def load_idx(spec: IdxFiles) -> Dataset:
    """Read IDX-encoded images (and optionally labels) into a dataset
    with image geometry; pixel values are scaled into [0, 1]."""
    images_path, labels_path = spec.images_path, spec.labels_path
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
    try:
        return Dataset(samples, ImageGeometry(height, width), labels, name="idx")
    except ContractError as exc:  # only the labels can break the dataset's invariants
        raise FormatError(f"{labels_path}: {exc}") from None


def save_idx(images_path, dataset: Dataset, labels_path) -> None:
    """Write a dataset with image geometry back to IDX; values in [0, 1]
    are quantized to bytes, so byte-valued data round-trips exactly.
    Labels, written when ``labels_path`` is not None, must fit in a byte
    (0..255)."""
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


def _read_table(path):
    """(header cells or None, float matrix, the line each data row starts
    on, the bytes) of a numeric CSV. Blank records are skipped; a first row
    with a non-numeric cell is the header. Rows go through float() as they
    are read, so their cells never all live at once; the first fault in
    the file is reported, and finiteness is checked in one vectorised pass."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        blob.decode("utf-8")  # the whole file, so a bad byte is reported before any row
    except UnicodeDecodeError as exc:
        # Lines up to and including the one that holds the bad byte.
        line = len((blob[: exc.start] + b"?").splitlines())
        raise FormatError(
            f"{path}: line {line}: byte {blob[exc.start]:#04x} at offset {exc.start} is not UTF-8"
        ) from None
    reader = _records(blob)
    header, values, lines, start = None, array("d"), [], 1
    try:
        for row in reader:
            line, start = start, reader.line_num + 1
            if not row:
                continue
            if header is None and not lines and not all(map(_is_number, row)):
                header, header_line = [cell.strip() for cell in row], line
                continue
            if lines and len(row) != width:
                raise FormatError(f"{path}: line {line}: expected {width} columns, got {len(row)}")
            width = len(row)
            if not lines and header is not None and len(header) != width:
                raise FormatError(
                    f"{path}: line {header_line}: header has {len(header)} columns, "
                    f"data rows have {width}"
                )
            try:
                values.extend(map(float, row))
            except ValueError:
                col = next(j for j, cell in enumerate(row) if not _is_number(cell))
                raise FormatError(
                    f"{path}: line {line}, column {col + 1}: "
                    f"could not parse {row[col]!r} as a number"
                ) from None
            lines.append(line)
    except csv.Error as exc:
        raise FormatError(f"{path}: line {reader.line_num}: {exc}") from None
    if not lines:
        raise FormatError(f"{path}: {'no' if header is None else 'header but no'} data rows")
    matrix = np.array(values).reshape(len(lines), width)
    _reject_cells(~np.isfinite(matrix), lines, blob, path, "non-finite value {!r}")
    return header, matrix, lines, blob


def _records(blob):
    """A csv reader over the UTF-8 bytes ``blob``, decoded as it reads; a
    byte-order mark, which would make the first cell a header, is dropped."""
    return csv.reader(io.TextIOWrapper(io.BytesIO(blob), encoding="utf-8-sig", newline=""))


def _reject_cells(bad, lines, blob, path, problem):
    """Raise a FormatError at the first flagged cell of the boolean matrix
    ``bad``, in row-major order; ``problem`` is formatted with the cell,
    read back from the first record of ``blob`` that reaches its line."""
    if bad.any():
        index, col = np.argwhere(bad)[0]
        reader = _records(blob)
        row = next(row for row in reader if row and reader.line_num >= lines[index])
        raise FormatError(
            f"{path}: line {lines[index]}, column {col + 1}: " + problem.format(row[col])
        )


def _not_integer(values):
    return (values != np.round(values)) | (np.abs(values) >= MAX_EXACT_INTEGER)


def load_csv(spec: CsvFile) -> Dataset:
    """Read a rectangular numeric CSV as a vector dataset.

    A first row with any non-numeric cell is treated as a header and
    skipped. ``label_column`` selects a column (by index, or by name
    when a header is present) to extract as integer labels.
    """
    path, label_column = spec.path, spec.label_column
    header, matrix, lines, blob = _read_table(path)
    width = matrix.shape[1]
    labels = None
    if label_column is not None:
        if isinstance(label_column, str):
            if header is None or label_column not in header:
                raise FormatError(f"{path}: no header column named {label_column!r}")
            index = header.index(label_column)
        else:
            index = label_column
            if not 0 <= index < width:
                raise FormatError(f"{path}: label column {index} out of range for width {width}")
        if width == 1:
            raise FormatError(f"{path}: label column {label_column!r} is the only column")
        bad = _not_integer(matrix) & (np.arange(width) == index)
        _reject_cells(bad, lines, blob, path, "non-integral label {!r}")
        labels = matrix[:, index].astype(np.int64)
        matrix = np.delete(matrix, index, axis=1)
    try:
        return Dataset(matrix, VectorGeometry(matrix.shape[1]), labels, name="csv")
    except ContractError as exc:
        raise FormatError(f"{path}: {exc}") from None


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
    _, table, lines, blob = _read_table(path)
    if table.shape[1] != 2:
        raise FormatError(
            f"{path}: line {lines[0]}: expected 2 columns (sample_id, label), got {table.shape[1]}"
        )
    _reject_cells(_not_integer(table), lines, blob, path, "non-integral value {!r}")
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
    mean, std); constant columns are centered but left unscaled. A
    column with a non-finite value, or whose values are finite but too
    large to standardize in float64, is reported by index."""
    matrix = as_matrix(matrix)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = matrix.mean(axis=0)
        std = matrix.std(axis=0)
        std = np.where(std == 0.0, 1.0, std)
        out = (matrix - mean) / std
    bad = np.flatnonzero(~(np.isfinite(out).all(axis=0) & np.isfinite(std)))
    if bad.size:
        # A NaN or infinity in the input makes its column's output NaN too.
        nonfinite = np.flatnonzero(~np.isfinite(matrix).all(axis=0))
        if nonfinite.size:
            raise ContractError(f"standardize: column {int(nonfinite[0])} is not finite")
        raise DegenerateInputError(
            f"standardize: column {int(bad[0])} overflows float64 when standardized"
        )
    return out, mean, std
