"""Seeded input generators for the file-backed benchmark workloads.

The program under test never sees these generators: it reads only the
files they write, through its ``idx`` and ``csv`` dataset kinds. The
same seed always gives byte-identical files.

    python3 perfbench/inputs.py images --seed 3 --out DIR   # DIR/images.idx, DIR/labels.idx
    python3 perfbench/inputs.py csv --seed 3 --out DIR      # DIR/data.csv
"""

from __future__ import annotations

import argparse
import struct
from pathlib import Path

import numpy as np

IMAGE_SIDE = 64
IMAGE_CLASSES = 4
IMAGES_PER_CLASS = 64

CSV_CLUSTERS = 16
CSV_PER_CLUSTER = 256
CSV_DIM = 32
# Distance between any two cluster centres, in units of the unit noise.
CSV_SEPARATION = 20.0


def _bump(yy, xx, cy, cx, radius):
    return np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * radius**2))


def _class_template(label, yy, xx, dy, dx):
    """Mean image of one class, shifted by (dy, dx).

    Every template is symmetric under a horizontal flip, so the flip in
    the default image augmentation never turns one class into another.
    """
    if label == 0:  # one blob near the top
        return _bump(yy, xx, 0.25 + dy, 0.5, 0.12)
    if label == 1:  # one blob near the bottom
        return _bump(yy, xx, 0.75 + dy, 0.5, 0.12)
    if label == 2:  # a mirrored pair of blobs at mid height
        return _bump(yy, xx, 0.5 + dy, 0.2 + dx, 0.1) + _bump(yy, xx, 0.5 + dy, 0.8 - dx, 0.1)
    return np.exp(-((xx - 0.5) ** 2) / (2.0 * 0.06**2)) * np.ones_like(yy)  # vertical bar


def write_images(seed: int, out: Path) -> tuple[Path, Path]:
    """Write 4 classes x 64 grayscale 64x64 images as an IDX pair.

    Each image is its class template with a small random shift, a random
    contrast in [0.7, 1] and pixel noise (sigma 0.05), in shuffled order.
    """
    rng = np.random.default_rng(seed)
    grid = np.arange(IMAGE_SIDE) / (IMAGE_SIDE - 1.0)
    yy, xx = np.meshgrid(grid, grid, indexing="ij")
    images, labels = [], []
    for label in range(IMAGE_CLASSES):
        for _ in range(IMAGES_PER_CLASS):
            dy, dx = rng.uniform(-0.06, 0.06, size=2)
            image = _class_template(label, yy, xx, dy, dx) * rng.uniform(0.7, 1.0)
            image += rng.normal(0.0, 0.05, size=image.shape)
            images.append(image)
            labels.append(label)
    order = rng.permutation(len(labels))
    pixels = np.round(np.clip(np.array(images)[order], 0.0, 1.0) * 255.0).astype(np.uint8)
    labels = np.array(labels, dtype=np.uint8)[order]
    images_path, labels_path = out / "images.idx", out / "labels.idx"
    with open(images_path, "wb") as fh:
        fh.write(b"\x00\x00\x08\x03")
        fh.write(struct.pack(">3I", len(labels), IMAGE_SIDE, IMAGE_SIDE))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(b"\x00\x00\x08\x01")
        fh.write(struct.pack(">I", len(labels)))
        fh.write(labels.tobytes())
    return images_path, labels_path


def write_csv(seed: int, out: Path) -> Path:
    """Write 16 Gaussian blobs x 256 samples in 32-D as CSV.

    The centres are rows of a random orthogonal frame scaled so every
    pair is CSV_SEPARATION apart; noise is unit normal. A header names
    the columns and the last one, ``label``, holds the blob index.
    """
    rng = np.random.default_rng(seed)
    frame, _ = np.linalg.qr(rng.normal(size=(CSV_DIM, CSV_DIM)))
    centres = frame[:CSV_CLUSTERS] * (CSV_SEPARATION / np.sqrt(2.0))
    samples = np.repeat(centres, CSV_PER_CLUSTER, axis=0)
    samples += rng.normal(size=samples.shape)
    labels = np.repeat(np.arange(CSV_CLUSTERS), CSV_PER_CLUSTER)
    order = rng.permutation(len(labels))
    path = out / "data.csv"
    header = ",".join([f"x{i}" for i in range(CSV_DIM)] + ["label"])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row, label in zip(samples[order], labels[order]):
            fh.write(",".join(repr(float(v)) for v in row) + f",{label}\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=("images", "csv"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    args.out.mkdir(parents=True, exist_ok=True)
    written = write_images(args.seed, args.out) if args.kind == "images" else (write_csv(args.seed, args.out),)
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
