"""Stochastic view generation: correlated sample pairs for training.

A transform is one frozen dataclass per kind, a subclass of
``Transform``, holding the probability with which it fires and that kind's
parameters; its type and range checks run when it is built, so the
config parser reads it like any other section. Each kind also checks
the geometry, draws its parameters and makes its view. A pipeline is an
ordered tuple of transforms bound to the dataset's geometry; each
transform fires independently with its probability. Vector data gets
noise/mask/scale perturbations; image data gets crop-resize, flip,
brightness, and optional blur. Every transform preserves dimensionality,
so the model never sees a width change.

The resized crop is ``R_h @ crop @ R_w^T`` and the blur
``K_h @ img @ K_w^T``, with one cached matrix per axis size (see
``_resize_matrix`` and ``_blur_matrix``).

Determinism contract: every random value of an epoch's views comes
from one Philox stream keyed by (seed, epoch). `epoch_draws` draws it
in whole arrays, transform by transform in pipeline order, with rows in
sample-index order; `pair_rng` takes one sample's share of it and
`make_pair` applies that share with no further draw to the first
``augmented`` views of the pair (2, or fewer in an ablation mode that
leaves one or both as copies of the input). Identical
(pipeline, input, share) produce byte-identical views, and a sample's
views do not depend on batch order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .data import ImageGeometry
from .errors import ConfigError, ContractError, ShapeError
from .schema import check_fields, require

__all__ = [
    "Transform",
    "GaussianJitter", "CoordinateMask", "ScaleJitter",
    "ResizedCrop", "HorizontalFlip", "BrightnessJitter", "GaussianBlur",
    "AugmentationPipeline",
    "default_transforms",
    "epoch_draws",
    "pair_rng",
    "make_pair",
]

# Images at or above this side length keep the blur stage by default;
# smaller ones drop it.
BLUR_MIN_SIDE = 64
# A blur's radius may be at most this many times the longer image side.
BLUR_MAX_RADIUS_SIDES = 4

AUGMENT_STREAM_TAG = 0x41475631


@dataclass(frozen=True)
class Transform:
    """One transform of a view: fires with ``probability``. Its fields
    are its config keys, all required; each is type-checked against its
    annotation before any range check. An error names the field as
    ``<kind>.<field>``, which the config parser turns into the
    transform's path. Each kind draws its own parameters (``draw``) and
    makes one view with them (``apply``)."""

    kind: ClassVar[str]
    noun: ClassVar[str] = "transform"
    needs_image: ClassVar[bool] = False
    probability: float

    def __post_init__(self):
        check_fields(self, self.kind)
        require(0 <= self.probability <= 1, f"{self.kind}.probability", "must be in [0, 1]")

    def check(self, geometry, path):
        """A ``ConfigError`` at ``path`` unless this runs on ``geometry``."""
        message = f"transform {self.kind} needs image geometry; dataset is vector-shaped"
        require(isinstance(geometry, ImageGeometry) or not self.needs_image, path, message)

    def draw(self, geometry, rng, n):
        """Parameters for n samples x 2 views, indexed [sample][view]: a
        kind that draws none has None."""
        return [(None, None)] * n


@dataclass(frozen=True)
class GaussianJitter(Transform):
    kind = "gaussian_jitter"
    sigma: float

    def __post_init__(self):
        super().__post_init__()
        require(self.sigma > 0, f"{self.kind}.sigma", "must be positive")

    def draw(self, geometry, rng, n):
        noise = rng.standard_normal((n, 2, geometry.size))
        noise *= self.sigma
        return noise

    def apply(self, x, geometry, params):
        return x + params


@dataclass(frozen=True)
class CoordinateMask(Transform):
    kind = "coordinate_mask"
    fraction: float

    def __post_init__(self):
        super().__post_init__()
        require(0 <= self.fraction < 1, f"{self.kind}.fraction", "must be in [0, 1)")

    def draw(self, geometry, rng, n):
        return rng.random((n, 2, geometry.size)) >= self.fraction

    def apply(self, x, geometry, params):
        return x * params


@dataclass(frozen=True)
class ScaleJitter(Transform):
    kind = "scale_jitter"
    low: float
    high: float
    apply = CoordinateMask.apply

    def __post_init__(self):
        super().__post_init__()
        require(self.low > 0, f"{self.kind}.low", "must be positive")
        require(self.low <= self.high, f"{self.kind}.high", "must be at least low")

    def draw(self, geometry, rng, n):
        return rng.uniform(self.low, self.high, (n, 2)).tolist()


@dataclass(frozen=True)
class ResizedCrop(Transform):
    kind = "resized_crop"
    needs_image = True
    min_area_fraction: float

    def __post_init__(self):
        super().__post_init__()
        require(
            0 < self.min_area_fraction <= 1, f"{self.kind}.min_area_fraction", "must be in (0, 1]"
        )

    def draw(self, geometry, rng, n):
        side = np.sqrt(rng.uniform(self.min_area_fraction, 1.0, (n, 2)))
        crop_h = np.maximum(1, np.rint(geometry.height * side).astype(np.int64))
        crop_w = np.maximum(1, np.rint(geometry.width * side).astype(np.int64))
        top = rng.integers(0, geometry.height - crop_h + 1)
        left = rng.integers(0, geometry.width - crop_w + 1)
        return np.stack([top, left, crop_h, crop_w], axis=-1).tolist()

    def apply(self, x, geometry, params):
        top, left, crop_h, crop_w = params
        if (crop_h, crop_w) == (geometry.height, geometry.width):
            return x.copy()
        crop = x.reshape(geometry.height, geometry.width)[top : top + crop_h, left : left + crop_w]
        rows = _resize_matrix(crop_h, geometry.height)
        cols = _resize_matrix(crop_w, geometry.width)
        return (rows @ crop @ cols.T).ravel()


@dataclass(frozen=True)
class HorizontalFlip(Transform):
    kind = "horizontal_flip"
    needs_image = True

    def apply(self, x, geometry, params):
        return x.reshape(geometry.height, geometry.width)[:, ::-1].ravel()


@dataclass(frozen=True)
class BrightnessJitter(Transform):
    kind = "brightness_jitter"
    needs_image = True
    low: float
    high: float
    draw = ScaleJitter.draw

    def __post_init__(self):
        super().__post_init__()
        require(self.low >= 0, f"{self.kind}.low", "must be nonnegative")
        require(self.low <= self.high, f"{self.kind}.high", "must be at least low")

    def apply(self, x, geometry, params):
        out = x * params
        np.maximum(out, 0.0, out=out)
        return np.minimum(out, 1.0, out=out)


@dataclass(frozen=True)
class GaussianBlur(Transform):
    kind = "gaussian_blur"
    needs_image = True
    sigma: float

    def __post_init__(self):
        super().__post_init__()
        require(self.sigma > 0, f"{self.kind}.sigma", "must be positive")

    def check(self, geometry, path):
        super().check(geometry, path)
        # Building the blur's matrix takes memory in proportion to its
        # radius, max(1, ceil(3 sigma)). Against an integer bound, 3 sigma
        # is the same test, and it holds where the radius would overflow.
        side = max(geometry.height, geometry.width)
        bound = f"{BLUR_MAX_RADIUS_SIDES} x the longer image side ({side})"
        message = f"blur radius 3 x {self.sigma:g} exceeds {bound}"
        require(3.0 * self.sigma <= BLUR_MAX_RADIUS_SIDES * side, f"{path}.sigma", message)

    def apply(self, x, geometry, params):
        rows = _blur_matrix(geometry.height, self.sigma)
        cols = _blur_matrix(geometry.width, self.sigma)
        return (rows @ x.reshape(geometry.height, geometry.width) @ cols.T).ravel()


@dataclass(frozen=True)
class AugmentationPipeline:
    """A run's transforms bound to its dataset's geometry: what
    ``epoch_draws`` and ``make_pair`` take."""

    transforms: tuple
    geometry: object

    def __post_init__(self):
        for i, spec in enumerate(self.transforms):
            spec.check(self.geometry, f"augmentation.transforms[{i}]")


def default_transforms(geometry) -> tuple:
    """The "default" preset. Vectors get perturbations sized for
    standardized (unit-variance) features; images a crop/flip/brightness
    stack, with blur only for a side of at least BLUR_MIN_SIDE."""
    if not isinstance(geometry, ImageGeometry):
        return (
            GaussianJitter(probability=1.0, sigma=0.2),
            ScaleJitter(probability=0.5, low=0.8, high=1.2),
            CoordinateMask(probability=0.3, fraction=0.1),
        )
    transforms = (
        ResizedCrop(probability=1.0, min_area_fraction=0.5),
        HorizontalFlip(probability=0.5),
        BrightnessJitter(probability=0.8, low=0.6, high=1.4),
    )
    if max(geometry.height, geometry.width) >= BLUR_MIN_SIDE:
        transforms += (GaussianBlur(probability=0.5, sigma=1.0),)
    return transforms


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
    for spec in pipeline.transforms:
        gates = (rng.random((n, 2)) < spec.probability).tolist()
        draws.append((gates, spec.draw(pipeline.geometry, rng, n)))
    return draws


def pair_rng(draws, sample_index) -> list:
    """Sample ``sample_index``'s share of ``epoch_draws``: per transform,
    its two gates and its parameters for the two views."""
    return [(gates[sample_index], params[sample_index]) for gates, params in draws]


def _view(pipeline: AugmentationPipeline, x, share, view):
    """View ``view`` (0 or 1) of ``x``: each transform whose gate fired,
    in pipeline order, with that view's parameters."""
    out = x.copy()
    for spec, (gates, params) in zip(pipeline.transforms, share):
        if gates[view]:
            out = spec.apply(out, pipeline.geometry, params[view])
    if not np.isfinite(out).all():
        raise ContractError(f"make_pair: view {view}: {_non_finite_step(pipeline, x, share, view)}")
    return out


def _non_finite_step(pipeline: AugmentationPipeline, x, share, view) -> str:
    """The first step of view ``view`` whose output is not finite: the
    input or a transform. Makes the view again, so only the error path
    pays for a check per transform."""
    if not np.isfinite(x).all():
        return "input has non-finite values"
    for spec, (gates, params) in zip(pipeline.transforms, share):
        if gates[view]:
            x = spec.apply(x, pipeline.geometry, params[view])
            if not np.isfinite(x).all():
                break
    return f"transform {spec.kind} produced non-finite values"


def make_pair(pipeline: AugmentationPipeline, x, share, augmented: int):
    """Two correlated views of one instance vector, from its ``pair_rng``
    share of the epoch's draws.

    The first ``augmented`` views (2, 1 or 0) apply their draws; the
    others are copies of the input, so 0 is the no-augmentation control.
    """
    if augmented not in (0, 1, 2):
        raise ConfigError(f"make_pair: augmented must be 0, 1 or 2, got {augmented!r}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != pipeline.geometry.size:
        raise ShapeError(
            f"make_pair: expected a flat vector of length {pipeline.geometry.size}, "
            f"got shape {x.shape}"
        )
    view_a = _view(pipeline, x, share, 0) if augmented > 0 else x.copy()
    view_b = _view(pipeline, x, share, 1) if augmented > 1 else x.copy()
    return view_a, view_b
