"""Stochastic view generation: correlated sample pairs for training.

A pipeline is an ordered list of (transform, probability) bound to the
dataset's geometry; each transform fires independently with its
probability. Vector data gets noise/mask/scale perturbations; image
data gets crop-resize, flip, brightness, and optional blur. Every
transform preserves dimensionality, so the model never sees a width
change.

The resized crop is ``R_h @ crop @ R_w^T`` and the blur
``K_h @ img @ K_w^T``, with one cached matrix per axis size (see
``_resize_matrix`` and ``_blur_matrix``).

Determinism contract: every random value of an epoch's views comes
from one Philox stream keyed by (seed, epoch). `epoch_draws` draws it
in whole arrays, transform by transform in pipeline order, with rows in
sample-index order; `pair_rng` takes one sample's share of it and
`make_pair` applies that share with no further draw. Identical
(pipeline, input, share) produce byte-identical views, and a sample's
views do not depend on batch order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .data import ImageGeometry
from .errors import ConfigError, ContractError, ShapeError

__all__ = [
    "TransformSpec",
    "AugmentationPipeline",
    "epoch_draws",
    "pair_rng",
    "make_pair",
    "default_vector_pipeline",
    "default_image_pipeline",
]

PAIR_MODES = ("two_views", "raw_second", "raw_both")

VECTOR_KINDS = {"gaussian_jitter", "coordinate_mask", "scale_jitter", "identity"}
IMAGE_KINDS = {"resized_crop", "horizontal_flip", "brightness_jitter", "gaussian_blur"}

# Images at or above this side length keep the blur stage by default;
# smaller ones drop it.
BLUR_MIN_SIDE = 64

AUGMENT_STREAM_TAG = 0x41475631


@dataclass(frozen=True)
class TransformSpec:
    """One transform. Build it through the factory named after its kind:
    the factory's annotated parameters are the kind's config schema."""

    kind: str
    sigma: float | None = None
    fraction: float | None = None
    low: float | None = None
    high: float | None = None
    min_area_fraction: float | None = None

    def __post_init__(self):
        if self.kind not in VECTOR_KINDS | IMAGE_KINDS:
            raise ConfigError(f"unknown transform kind {self.kind!r}")

    @classmethod
    def gaussian_jitter(cls, sigma: float):
        if not sigma > 0:
            raise ConfigError(f"gaussian_jitter: sigma must be positive, got {sigma}")
        return cls("gaussian_jitter", sigma=float(sigma))

    @classmethod
    def coordinate_mask(cls, fraction: float):
        if not 0 <= fraction < 1:
            raise ConfigError(f"coordinate_mask: fraction must be in [0, 1), got {fraction}")
        return cls("coordinate_mask", fraction=float(fraction))

    @classmethod
    def scale_jitter(cls, low: float, high: float):
        if not 0 < low <= high:
            raise ConfigError(f"scale_jitter: need 0 < low <= high, got ({low}, {high})")
        return cls("scale_jitter", low=float(low), high=float(high))

    @classmethod
    def resized_crop(cls, min_area_fraction: float):
        if not 0 < min_area_fraction <= 1:
            raise ConfigError(
                f"resized_crop: min_area_fraction must be in (0, 1], got {min_area_fraction}"
            )
        return cls("resized_crop", min_area_fraction=float(min_area_fraction))

    @classmethod
    def horizontal_flip(cls):
        return cls("horizontal_flip")

    @classmethod
    def brightness_jitter(cls, low: float, high: float):
        if not 0 <= low <= high:
            raise ConfigError(
                f"brightness_jitter: need 0 <= low <= high, got ({low}, {high})"
            )
        return cls("brightness_jitter", low=float(low), high=float(high))

    @classmethod
    def gaussian_blur(cls, sigma: float):
        if not sigma > 0:
            raise ConfigError(f"gaussian_blur: sigma must be positive, got {sigma}")
        return cls("gaussian_blur", sigma=float(sigma))

    @classmethod
    def identity(cls):
        return cls("identity")


@dataclass(frozen=True)
class AugmentationPipeline:
    transforms: tuple  # of (TransformSpec, apply_probability)
    geometry: object

    def __post_init__(self):
        object.__setattr__(self, "transforms", tuple(self.transforms))
        is_image = isinstance(self.geometry, ImageGeometry)
        for spec, probability in self.transforms:
            if not 0 <= probability <= 1:
                raise ConfigError(
                    f"transform {spec.kind}: probability must be in [0, 1], "
                    f"got {probability}"
                )
            if spec.kind in IMAGE_KINDS and not is_image:
                raise ConfigError(
                    f"transform {spec.kind} needs image geometry; dataset is vector-shaped"
                )


def _frozen(array):
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=256)
def _resize_matrix(in_size, out_size):
    """Bilinear resize along one axis as a dense (out_size, in_size)
    matrix: row o holds 1 - t at the lower source index of output o and
    t at the upper one, so each row is nonnegative and sums to 1."""
    pos = np.clip((np.arange(out_size) + 0.5) * in_size / out_size - 0.5, 0.0, in_size - 1.0)
    lower = np.floor(pos).astype(int)
    upper = np.minimum(lower + 1, in_size - 1)
    t = pos[:, None] - lower[:, None]
    cols = np.arange(in_size)
    return _frozen((1 - t) * (cols == lower[:, None]) + t * (cols == upper[:, None]))


@functools.lru_cache(maxsize=16)
def _blur_matrix(side, sigma):
    """A Gaussian blur with symmetric edges along one axis of length
    ``side``, folded into one (side, side) matrix: entry (i, j) sums the
    kernel taps of output i that read input j after symmetric padding.
    The padding map also covers a radius larger than the side."""
    radius = max(1, int(np.ceil(3.0 * sigma)))
    t = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 * (t / sigma) ** 2)
    kernel = kernel / kernel.sum()
    padded = np.pad(np.arange(side), radius, mode="symmetric")
    rows = np.arange(side)[:, None]
    matrix = np.zeros((side, side))
    np.add.at(matrix, (rows, padded[rows + np.arange(2 * radius + 1)]), kernel)
    return _frozen(matrix)


def _apply(spec: TransformSpec, x, geometry, params):
    """``spec`` on one view ``x`` with that view's drawn ``params``."""
    if spec.kind == "identity":
        return x
    if spec.kind == "gaussian_jitter":
        return x + params
    if spec.kind in ("coordinate_mask", "scale_jitter"):
        return x * params
    if spec.kind == "brightness_jitter":
        out = x * params
        np.maximum(out, 0.0, out=out)
        return np.minimum(out, 1.0, out=out)
    img = x.reshape(geometry.height, geometry.width)
    if spec.kind == "horizontal_flip":
        return img[:, ::-1].ravel()
    if spec.kind == "resized_crop":
        top, left, crop_h, crop_w = params
        if (crop_h, crop_w) == img.shape:
            return x.copy()
        crop = img[top : top + crop_h, left : left + crop_w]
        rows = _resize_matrix(crop_h, geometry.height)
        cols = _resize_matrix(crop_w, geometry.width)
        return (rows @ crop @ cols.T).ravel()
    if spec.kind == "gaussian_blur":
        rows = _blur_matrix(geometry.height, spec.sigma)
        cols = _blur_matrix(geometry.width, spec.sigma)
        return (rows @ img @ cols.T).ravel()
    raise ConfigError(f"unknown transform kind {spec.kind!r}")


def _draw_parameters(spec: TransformSpec, geometry, rng, n):
    """``spec``'s parameters for n samples x 2 views, indexed [sample][view]:
    jitter is the noise itself, a mask the boolean keep-mask, a crop its
    (top, left, height, width), and a kind that draws none has None."""
    if spec.kind == "gaussian_jitter":
        noise = rng.standard_normal((n, 2, geometry.size))
        noise *= spec.sigma
        return noise
    if spec.kind == "coordinate_mask":
        return rng.random((n, 2, geometry.size)) >= spec.fraction
    if spec.kind in ("scale_jitter", "brightness_jitter"):
        return rng.uniform(spec.low, spec.high, (n, 2)).tolist()
    if spec.kind == "resized_crop":
        side = np.sqrt(rng.uniform(spec.min_area_fraction, 1.0, (n, 2)))
        crop_h = np.maximum(1, np.rint(geometry.height * side).astype(np.int64))
        crop_w = np.maximum(1, np.rint(geometry.width * side).astype(np.int64))
        top = rng.integers(0, geometry.height - crop_h + 1)
        left = rng.integers(0, geometry.width - crop_w + 1)
        return np.stack([top, left, crop_h, crop_w], axis=-1).tolist()
    return [(None, None)] * n


def epoch_draws(pipeline: AugmentationPipeline, seed, epoch, n) -> list:
    """Every random value of one epoch's views of ``n`` samples, drawn in
    whole arrays from one Philox stream keyed by (seed, epoch).

    Per transform, in pipeline order: the gates of all n samples x 2
    views as one (n, 2) uniform array compared with the probability, then
    the kind's parameters. Rows are in sample-index order, so a sample's
    share does not depend on which batch takes it.
    """
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence((AUGMENT_STREAM_TAG, seed, epoch)))
    )
    draws = []
    for spec, probability in pipeline.transforms:
        gates = (rng.random((n, 2)) < probability).tolist()
        draws.append((gates, _draw_parameters(spec, pipeline.geometry, rng, n)))
    return draws


def pair_rng(draws, sample_index) -> list:
    """Sample ``sample_index``'s share of ``epoch_draws``: per transform,
    its two gates and its parameters for the two views."""
    return [(gates[sample_index], params[sample_index]) for gates, params in draws]


def _view(pipeline: AugmentationPipeline, x, share, view):
    """View ``view`` (0 or 1) of ``x``: each transform whose gate fired,
    in pipeline order, with that view's parameters."""
    out = x.copy()
    for (spec, _), (gates, params) in zip(pipeline.transforms, share):
        if gates[view]:
            out = _apply(spec, out, pipeline.geometry, params[view])
    if not np.isfinite(out).all():
        raise ContractError(f"make_pair: view {view}: {_non_finite_step(pipeline, x, share, view)}")
    return out


def _non_finite_step(pipeline: AugmentationPipeline, x, share, view) -> str:
    """The first step of view ``view`` whose output is not finite: the
    input or a transform. Makes the view again, so only the error path
    pays for a check per transform."""
    if not np.isfinite(x).all():
        return "input has non-finite values"
    for (spec, _), (gates, params) in zip(pipeline.transforms, share):
        if gates[view]:
            x = _apply(spec, x, pipeline.geometry, params[view])
            if not np.isfinite(x).all():
                break
    return f"transform {spec.kind} produced non-finite values"


def make_pair(pipeline: AugmentationPipeline, x, share, mode: str = "two_views"):
    """Two correlated views of one instance vector, from its ``pair_rng``
    share of the epoch's draws.

    "two_views" applies both views' draws; "raw_second" pairs the first
    view with the untouched input; "raw_both" returns the input twice
    (the no-augmentation control).
    """
    if mode not in PAIR_MODES:
        raise ConfigError(f"make_pair: unknown mode {mode!r}, expected one of {PAIR_MODES}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != pipeline.geometry.size:
        raise ShapeError(
            f"make_pair: expected a flat vector of length {pipeline.geometry.size}, "
            f"got shape {x.shape}"
        )
    if mode == "raw_both":
        return x.copy(), x.copy()
    view_a = _view(pipeline, x, share, 0)
    if mode == "raw_second":
        return view_a, x.copy()
    return view_a, _view(pipeline, x, share, 1)


def default_vector_pipeline(geometry) -> AugmentationPipeline:
    """Perturbations sized for standardized (unit-variance) features."""
    return AugmentationPipeline(
        transforms=(
            (TransformSpec.gaussian_jitter(0.2), 1.0),
            (TransformSpec.scale_jitter(0.8, 1.2), 0.5),
            (TransformSpec.coordinate_mask(0.1), 0.3),
        ),
        geometry=geometry,
    )


def default_image_pipeline(geometry) -> AugmentationPipeline:
    """Crop/flip/brightness stack; blur joins only for images with a side
    of at least BLUR_MIN_SIDE."""
    transforms = [
        (TransformSpec.resized_crop(0.5), 1.0),
        (TransformSpec.horizontal_flip(), 0.5),
        (TransformSpec.brightness_jitter(0.6, 1.4), 0.8),
    ]
    if max(geometry.height, geometry.width) >= BLUR_MIN_SIDE:
        transforms.append((TransformSpec.gaussian_blur(1.0), 0.5))
    return AugmentationPipeline(transforms=tuple(transforms), geometry=geometry)
