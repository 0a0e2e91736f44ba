"""Stochastic view generation: correlated sample pairs for training.

A pipeline is an ordered list of (transform, probability) bound to the
dataset's geometry; each transform fires independently with its
probability. Vector data gets noise/mask/scale perturbations; image
data gets crop-resize, flip, brightness, and optional blur. Every
transform preserves dimensionality, so the model never sees a width
change.

Determinism contract: identical (pipeline, input, generator state)
produce byte-identical views. `pair_rng` derives an independent
substream per (seed, epoch, sample), making augmentation results
independent of batch order.
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
    "sample_view",
    "make_pair",
    "pair_rng",
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
def _resize_axis(in_size, out_size):
    """Bilinear resize along one axis: the lower then the upper source
    index of every output position, and their weights 1 - t then t."""
    pos = np.clip((np.arange(out_size) + 0.5) * in_size / out_size - 0.5, 0.0, in_size - 1.0)
    lower = np.floor(pos).astype(int)
    upper = np.minimum(lower + 1, in_size - 1)
    t = pos - lower
    return _frozen(np.concatenate([lower, upper])), _frozen(np.concatenate([1 - t, t]))


def _bilinear_resize(img, out_h, out_w):
    """Two gathers, rows then columns, each followed by its weight, leave
    the four corner terms as quadrants; they are summed in the order
    g00 * (1 - wy) * (1 - wx) + g10 * wy * (1 - wx) + g01 * (1 - wy) * wx
    + g11 * wy * wx."""
    in_h, in_w = img.shape
    if (in_h, in_w) == (out_h, out_w):
        return img.copy()
    rows, wy = _resize_axis(in_h, out_h)
    cols, wx = _resize_axis(in_w, out_w)
    g = img[rows]
    g *= wy[:, None]
    g = g[:, cols]
    g *= wx
    top, bottom = g[:out_h], g[out_h:]
    out = top[:, :out_w] + bottom[:, :out_w]
    out += top[:, out_w:]
    out += bottom[:, out_w:]
    return out


@functools.lru_cache(maxsize=16)
def _blur_plan(height, width, sigma):
    """Kernel and flat gather maps of a separable blur with symmetric edges.

    Each pass is one np.convolve ("valid") over padded lines laid end to
    end. An output inside a line is the same dot over the same 2r+1 values
    that a separate per-line call takes, so the result is bit-exact with
    line-by-line convolution; the outputs that straddle two lines are
    never gathered. ``row_pad`` lays out the rows of the image with
    padded columns, ``col_pad`` the columns of the first pass's output
    with padded rows, and ``unpad`` reads the second pass back in row
    order. Symmetric index maps also cover a radius larger than a side.
    """
    radius = max(1, int(np.ceil(3.0 * sigma)))
    t = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 * (t / sigma) ** 2)
    kernel = kernel / kernel.sum()
    padded_w = width + 2 * radius
    padded_h = height + 2 * radius
    cols = np.pad(np.arange(width), radius, mode="symmetric")
    rows = np.pad(np.arange(height), radius, mode="symmetric")
    row_pad = np.arange(height)[:, None] * width + cols
    col_pad = rows * padded_w + np.arange(width)[:, None]
    unpad = np.arange(width) * padded_h + np.arange(height)[:, None]
    return tuple(_frozen(a) for a in (kernel, row_pad, col_pad, unpad))


def _apply(spec: TransformSpec, x, geometry, rng):
    if spec.kind == "identity":
        return x
    if spec.kind == "gaussian_jitter":
        return x + rng.normal(0.0, spec.sigma, size=x.shape)
    if spec.kind == "coordinate_mask":
        return x * (rng.random(x.shape) >= spec.fraction)
    if spec.kind == "scale_jitter":
        return x * rng.uniform(spec.low, spec.high)
    if spec.kind == "brightness_jitter":
        out = x * rng.uniform(spec.low, spec.high)
        return np.clip(out, 0.0, 1.0, out=out)
    img = x.reshape(geometry.height, geometry.width)
    if spec.kind == "horizontal_flip":
        return img[:, ::-1].ravel()
    if spec.kind == "resized_crop":
        area = rng.uniform(spec.min_area_fraction, 1.0)
        side = np.sqrt(area)
        crop_h = max(1, int(round(geometry.height * side)))
        crop_w = max(1, int(round(geometry.width * side)))
        top = rng.integers(0, geometry.height - crop_h + 1)
        left = rng.integers(0, geometry.width - crop_w + 1)
        crop = img[top : top + crop_h, left : left + crop_w]
        return _bilinear_resize(crop, geometry.height, geometry.width).ravel()
    if spec.kind == "gaussian_blur":
        kernel, row_pad, col_pad, unpad = _blur_plan(geometry.height, geometry.width, spec.sigma)
        horizontal = np.convolve(x[row_pad].ravel(), kernel, mode="valid")
        vertical = np.convolve(horizontal[col_pad].ravel(), kernel, mode="valid")
        return vertical[unpad].ravel()
    raise ConfigError(f"unknown transform kind {spec.kind!r}")


def sample_view(pipeline: AugmentationPipeline, x, rng) -> np.ndarray:
    """One stochastic view of a single instance vector: transforms fire
    independently with their probabilities, in pipeline order."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != pipeline.geometry.size:
        raise ShapeError(
            f"sample_view: expected a flat vector of length {pipeline.geometry.size}, "
            f"got shape {x.shape}"
        )
    out = x.copy()
    for spec, probability in pipeline.transforms:
        if rng.random() < probability:
            out = _apply(spec, out, pipeline.geometry, rng)
    if not np.all(np.isfinite(out)):
        raise ContractError("sample_view: transform produced non-finite values")
    return out


def make_pair(pipeline: AugmentationPipeline, x, rng, mode: str = "two_views"):
    """Two correlated views of one instance.

    "two_views" draws both views independently; "raw_second" pairs one
    drawn view with the untouched input; "raw_both" returns the input
    twice (the no-augmentation control).
    """
    if mode not in PAIR_MODES:
        raise ConfigError(f"make_pair: unknown mode {mode!r}, expected one of {PAIR_MODES}")
    x = np.asarray(x, dtype=np.float64)
    if mode == "raw_both":
        return x.copy(), x.copy()
    view_a = sample_view(pipeline, x, rng)
    if mode == "raw_second":
        return view_a, x.copy()
    return view_a, sample_view(pipeline, x, rng)


def pair_rng(seed, epoch, sample_index) -> np.random.Generator:
    """Independent substream for one sample's augmentation pair; derived
    from (seed, epoch, index) so results do not depend on batch order."""
    return np.random.default_rng(
        np.random.SeedSequence((AUGMENT_STREAM_TAG, seed, epoch, sample_index))
    )


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


def default_image_pipeline(geometry, include_blur=None) -> AugmentationPipeline:
    """Crop/flip/brightness stack; blur joins only for images with a side
    of at least BLUR_MIN_SIDE unless overridden."""
    if include_blur is None:
        include_blur = max(geometry.height, geometry.width) >= BLUR_MIN_SIDE
    transforms = [
        (TransformSpec.resized_crop(0.5), 1.0),
        (TransformSpec.horizontal_flip(), 0.5),
        (TransformSpec.brightness_jitter(0.6, 1.4), 0.8),
    ]
    if include_blur:
        transforms.append((TransformSpec.gaussian_blur(1.0), 0.5))
    return AugmentationPipeline(transforms=tuple(transforms), geometry=geometry)
