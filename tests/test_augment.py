"""View generation: transform semantics, determinism, and geometry guards."""

import hashlib
import json
from dataclasses import fields

import numpy as np
import pytest

from dualclust.augment import (
    AugmentationPipeline,
    BrightnessJitter,
    CoordinateMask,
    GaussianBlur,
    GaussianJitter,
    HorizontalFlip,
    ResizedCrop,
    ScaleJitter,
    Transform,
    _resize_matrix,
    default_transforms,
    epoch_draws,
    make_pair,
    pair_rng,
)
from dualclust.data import ImageGeometry, VectorGeometry
from dualclust.errors import ConfigError, ContractError, ShapeError


def share(pipeline, seed=0, epoch=0, index=0):
    """Sample ``index``'s share of the (seed, epoch) draws of an epoch of
    ``index + 1`` samples."""
    return pair_rng(epoch_draws(pipeline, seed, epoch, index + 1), index)


def one_view(pipeline, x, seed=0, epoch=0, index=0):
    """The first view of sample ``index``'s pair."""
    return make_pair(pipeline, x, share(pipeline, seed, epoch, index), augmented=1)[0]


def jitter_pipeline(dim, sigma=0.1, probability=1.0):
    return _only(GaussianJitter(probability=probability, sigma=sigma), VectorGeometry(dim))


def default_pipeline(geometry):
    return AugmentationPipeline(default_transforms(geometry), geometry)


def _only(spec, geometry):
    return AugmentationPipeline((spec,), geometry)


CROP_0_2 = ResizedCrop(probability=1.0, min_area_fraction=0.2)

KINDS = Transform.__subclasses__()


def always(cls):
    """A transform of kind ``cls`` that always fires; each other field
    is 0.5, which is in range for every field of every kind."""
    return cls(**{**dict.fromkeys((f.name for f in fields(cls)), 0.5), "probability": 1.0})


def draw_then_apply(spec, geometry, x, n=3):
    """Every view of ``n`` samples: ``spec``'s draws, each applied to ``x``."""
    params = spec.draw(geometry, np.random.default_rng(2), n)
    return [spec.apply(x, geometry, params[i][view]) for i in range(n) for view in (0, 1)]


class TestTransformSpecValidation:
    """Each transform class checks its ranges when it is built, and
    names the field by the transform's kind."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: GaussianJitter(probability=1.0, sigma=0.0),
            lambda: CoordinateMask(probability=1.0, fraction=1.0),
            lambda: CoordinateMask(probability=1.0, fraction=-0.1),
            lambda: ScaleJitter(probability=1.0, low=0.0, high=1.0),
            lambda: ScaleJitter(probability=1.0, low=2.0, high=1.0),
            lambda: ResizedCrop(probability=1.0, min_area_fraction=0.0),
            lambda: ResizedCrop(probability=1.0, min_area_fraction=1.1),
            lambda: BrightnessJitter(probability=1.0, low=-0.5, high=1.0),
            lambda: GaussianBlur(probability=1.0, sigma=0.0),
            lambda: BrightnessJitter(probability=1.0, low=1.5, high=1.0),
        ],
    )
    def test_bad_parameters_rejected(self, factory):
        with pytest.raises(ConfigError, match=r"^config: [a-z_]+\.[a-z_]+: "):
            factory()

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match=r"^config: horizontal_flip\.probability: "):
            HorizontalFlip(probability=1.5)

    def test_image_transform_on_vector_geometry_rejected(self):
        with pytest.raises(ConfigError, match=r"transforms\[1\]: .* needs image geometry"):
            AugmentationPipeline(
                (ScaleJitter(probability=1.0, low=0.5, high=2.0), HorizontalFlip(probability=0.5)),
                VectorGeometry(4),
            )


class TestSampleView:
    """One view of one sample: the first view of its pair."""

    def test_zero_probabilities_return_input_exactly(self):
        pipeline = AugmentationPipeline(
            (
                GaussianJitter(probability=0.0, sigma=1.0),
                ScaleJitter(probability=0.0, low=0.5, high=2.0),
            ),
            VectorGeometry(5),
        )
        x = np.arange(5.0)
        out = one_view(pipeline, x, seed=0)
        np.testing.assert_array_equal(out, x)

    def test_flip_twice_restores_input(self):
        pipeline = _only(HorizontalFlip(probability=1.0), ImageGeometry(3, 4))
        x = np.arange(12.0)
        once = one_view(pipeline, x, seed=0)
        assert not np.array_equal(once, x)
        twice = one_view(pipeline, once, seed=1)
        np.testing.assert_array_equal(twice, x)

    def test_jitter_standard_deviation_matches_parameter(self):
        pipeline = jitter_pipeline(10_000, sigma=0.1)
        x = np.zeros(10_000)
        out = one_view(pipeline, x, seed=3)
        assert abs((out - x).std() - 0.1) <= 0.02

    def test_deterministic_given_seed(self):
        pipeline = default_pipeline(VectorGeometry(8))
        x = np.linspace(-1, 1, 8)
        a = one_view(pipeline, x, seed=99)
        b = one_view(pipeline, x, seed=99)
        assert a.tobytes() == b.tobytes()

    def test_application_count_is_binomial(self):
        # Doubling transform with p=0.3: count applications over n trials
        # and compare against the binomial mean within four standard
        # deviations.
        p, n = 0.3, 2000
        pipeline = _only(ScaleJitter(probability=p, low=2.0, high=2.0), VectorGeometry(3))
        x = np.ones(3)
        draws = epoch_draws(pipeline, 0, 0, n)
        applied = sum(
            make_pair(pipeline, x, pair_rng(draws, i), augmented=1)[0][0] == 2.0
            for i in range(n)
        )
        margin = 4.0 * np.sqrt(n * p * (1 - p))
        assert abs(applied - n * p) <= margin

    # Every kind, with no hand-written list: each kind that takes vector
    # data on a vector, and every kind on an image.
    @pytest.mark.parametrize("spec", [always(cls) for cls in KINDS if not cls.needs_image])
    def test_vector_transforms_preserve_dimension(self, spec):
        geometry = VectorGeometry(7)
        x = np.random.default_rng(1).uniform(size=7)
        views = [one_view(_only(spec, geometry), x), *draw_then_apply(spec, geometry, x)]
        for out in views:
            assert out.shape == (7,)
            assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("spec", [always(cls) for cls in KINDS])
    def test_image_transforms_preserve_dimension(self, spec):
        geometry = ImageGeometry(6, 5)
        x = np.random.default_rng(1).uniform(size=30)
        views = [one_view(_only(spec, geometry), x, seed=2), *draw_then_apply(spec, geometry, x)]
        for out in views:
            assert out.shape == (30,)
            assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("cls", KINDS, ids=lambda cls: cls.kind)
    def test_each_kind_makes_its_own_view(self, cls):
        # The base class has no view to fall back on: a kind without its
        # own apply would fail here, not blur or pass its input through.
        assert "apply" in vars(cls)
        assert not hasattr(Transform, "apply")

    @pytest.mark.parametrize(
        "cls", [cls for cls in KINDS if cls.needs_image], ids=lambda cls: cls.kind
    )
    def test_image_kinds_reject_vector_geometry(self, cls):
        path = r"^config: augmentation\.transforms\[0\]: transform [a-z_]+ needs image geometry"
        with pytest.raises(ConfigError, match=path):
            always(cls).check(VectorGeometry(7), "augmentation.transforms[0]")

    def test_coordinate_mask_zeroes_some_coordinates(self):
        pipeline = _only(CoordinateMask(probability=1.0, fraction=0.5), VectorGeometry(1000))
        out = one_view(pipeline, np.ones(1000), seed=4)
        zeroed = int((out == 0.0).sum())
        assert 350 <= zeroed <= 650
        assert set(np.unique(out)) <= {0.0, 1.0}

    def test_brightness_stays_in_pixel_range(self):
        pipeline = _only(BrightnessJitter(probability=1.0, low=0.5, high=1.8), ImageGeometry(4, 4))
        x = np.random.default_rng(5).uniform(size=16)
        draws = epoch_draws(pipeline, 1, 0, 20)
        for i in range(20):
            for out in make_pair(pipeline, x, pair_rng(draws, i), augmented=2):
                assert out.min() >= 0.0 and out.max() <= 1.0

    def test_blur_preserves_constant_image(self):
        pipeline = _only(GaussianBlur(probability=1.0, sigma=1.0), ImageGeometry(5, 6))
        out = one_view(pipeline, np.full(30, 0.7), seed=6)
        np.testing.assert_allclose(out, 0.7, rtol=0, atol=1e-12)

    def test_resized_crop_stays_within_value_range(self):
        pipeline = _only(ResizedCrop(probability=1.0, min_area_fraction=0.3), ImageGeometry(8, 8))
        x = np.random.default_rng(7).uniform(size=64)
        draws = epoch_draws(pipeline, 2, 0, 10)
        for i in range(10):
            for out in make_pair(pipeline, x, pair_rng(draws, i), augmented=2):
                assert out.min() >= x.min() - 1e-12
                assert out.max() <= x.max() + 1e-12

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_view_rejected(self, value):
        pipeline = _only(ScaleJitter(probability=1.0, low=2.0, high=2.0), VectorGeometry(3))
        with pytest.raises(ContractError, match="non-finite"):
            one_view(pipeline, np.array([1.0, value, 2.0]))

    def test_non_finite_view_names_the_first_transform_that_made_it(self):
        # The scale overflows to inf and the mask then turns some of it
        # into NaN; the error names the view and the scale, not the mask.
        pipeline = AugmentationPipeline(
            (
                GaussianJitter(probability=1.0, sigma=0.1),
                ScaleJitter(probability=1.0, low=1.7e308, high=1.7e308),
                CoordinateMask(probability=1.0, fraction=0.5),
            ),
            VectorGeometry(64),
        )
        x = np.full(64, 4.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(
                ContractError,
                match=r"^make_pair: view 0: transform scale_jitter produced non-finite values$",
            ):
                make_pair(pipeline, x, share(pipeline), augmented=2)

    def test_wrong_length_rejected(self):
        with pytest.raises(ShapeError):
            one_view(jitter_pipeline(5), np.ones(4), seed=0)


class TestMakePair:
    def test_raw_both_returns_input_twice(self):
        pipeline = jitter_pipeline(6)
        x = np.arange(6.0)
        a, b = make_pair(pipeline, x, share(pipeline), augmented=0)
        np.testing.assert_array_equal(a, x)
        np.testing.assert_array_equal(b, x)

    def test_raw_second_keeps_second_view_untouched(self):
        pipeline = jitter_pipeline(6)
        x = np.arange(6.0)
        a, b = make_pair(pipeline, x, share(pipeline, seed=1), augmented=1)
        np.testing.assert_array_equal(b, x)
        assert not np.array_equal(a, x)

    def test_two_views_differ_and_reproduce(self):
        pipeline = jitter_pipeline(6)
        x = np.arange(6.0)
        a1, b1 = make_pair(pipeline, x, share(pipeline, seed=7), augmented=2)
        a2, b2 = make_pair(pipeline, x, share(pipeline, seed=7), augmented=2)
        assert a1.tobytes() == a2.tobytes()
        assert b1.tobytes() == b2.tobytes()
        assert not np.array_equal(a1, b1)

    def test_unknown_mode_rejected(self):
        # A pair has two views: at most two of them are augmented.
        with pytest.raises(ConfigError, match="augmented must be 0, 1 or 2, got 3"):
            make_pair(jitter_pipeline(3), np.ones(3), share(jitter_pipeline(3)), augmented=3)

    def test_substreams_are_order_independent(self):
        # A sample's share is the same whichever order the samples are
        # taken in, and the next sample's differs.
        pipeline = jitter_pipeline(4)
        x = np.ones(4)
        draws = epoch_draws(pipeline, 3, 2, 32)
        late = make_pair(pipeline, x, pair_rng(draws, 17), augmented=2)
        early = make_pair(pipeline, x, pair_rng(draws, 17), augmented=2)
        np.testing.assert_array_equal(late[0], early[0])
        distinct = make_pair(pipeline, x, pair_rng(draws, 18), augmented=2)
        assert not np.array_equal(late[0], distinct[0])


class TestEpochDraws:
    def views(self, pipeline, samples, draws, order):
        return {
            int(i): make_pair(pipeline, samples[i], pair_rng(draws, int(i)), augmented=2)
            for i in order
        }

    @pytest.mark.parametrize(
        "geometry", [VectorGeometry(16), ImageGeometry(8, 8)], ids=["vector", "image_8x8"]
    )
    def test_views_do_not_depend_on_batch_order(self, geometry):
        pipeline = default_pipeline(geometry)
        n = 24
        samples = np.random.default_rng(11).uniform(size=(n, geometry.size))
        draws = epoch_draws(pipeline, 4, 1, n)
        in_order = self.views(pipeline, samples, draws, range(n))
        permuted = self.views(pipeline, samples, draws, np.random.default_rng(12).permutation(n))
        # Batches of 8 taken in a shuffled order, as train() takes them.
        batched = {}
        for start in (16, 0, 8):
            batched.update(self.views(pipeline, samples, draws, range(start + 7, start - 1, -1)))
        for i in range(n):
            for other in (permuted, batched):
                assert in_order[i][0].tobytes() == other[i][0].tobytes()
                assert in_order[i][1].tobytes() == other[i][1].tobytes()

    def test_epochs_and_sample_indices_give_different_views(self):
        pipeline = default_pipeline(VectorGeometry(16))
        x = np.linspace(-1.0, 1.0, 16)
        pairs = [
            make_pair(pipeline, x, pair_rng(epoch_draws(pipeline, seed, epoch, 8), index), 2)
            for seed, epoch, index in ((0, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 0))
        ]
        views = {view.tobytes() for pair in pairs for view in pair}
        assert len(views) == 2 * len(pairs)

    def test_masks_are_boolean_and_sized_per_view(self):
        pipeline = _only(CoordinateMask(probability=1.0, fraction=0.5), VectorGeometry(5))
        ((gates, keep),) = epoch_draws(pipeline, 0, 0, 7)
        assert np.shape(gates) == (7, 2)
        assert keep.dtype == np.bool_ and keep.shape == (7, 2, 5)


def reference_bilinear_crop(img, top, left, crop_h, crop_w):
    """The crop at (top, left) resized back to the image's shape, one
    output pixel at a time: half-pixel centres, source positions clamped
    to the crop, and the four neighbours weighted by their distances."""
    out_h, out_w = img.shape
    crop = img[top : top + crop_h, left : left + crop_w]

    def source(o, out_size, in_size):
        pos = min(max((o + 0.5) * in_size / out_size - 0.5, 0.0), in_size - 1.0)
        lower = int(np.floor(pos))
        return lower, min(lower + 1, in_size - 1), pos - lower

    out = np.empty((out_h, out_w))
    for r in range(out_h):
        r0, r1, ty = source(r, out_h, crop_h)
        for c in range(out_w):
            c0, c1, tx = source(c, out_w, crop_w)
            out[r, c] = (
                (1 - ty) * (1 - tx) * crop[r0, c0]
                + ty * (1 - tx) * crop[r1, c0]
                + (1 - ty) * tx * crop[r0, c1]
                + ty * tx * crop[r1, c1]
            )
    return out


def reference_blur(img, sigma):
    """Gaussian blur of radius max(1, ceil(3 sigma)) with symmetric edges,
    as a direct weighted sum over each output's window of the padded image."""
    radius = max(1, int(np.ceil(3.0 * sigma)))
    t = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 * (t / sigma) ** 2)
    kernel /= kernel.sum()
    padded = np.pad(img, radius, mode="symmetric")
    width = 2 * radius + 1
    out = np.empty(img.shape)
    for r in range(img.shape[0]):
        for c in range(img.shape[1]):
            out[r, c] = kernel @ padded[r : r + width, c : c + width] @ kernel
    return out


class TestMatrixKernels:
    """The resized crop and the blur are products with small dense
    matrices; each is checked against a direct per-pixel reference."""

    @pytest.mark.parametrize("in_size", [1, 2, 7, 17, 24, 64])
    @pytest.mark.parametrize("out_size", [1, 5, 17, 24, 64])
    def test_resize_rows_are_nonnegative_and_sum_to_one(self, in_size, out_size):
        matrix = _resize_matrix(in_size, out_size)
        assert matrix.shape == (out_size, in_size)
        assert (matrix >= 0.0).all()
        np.testing.assert_array_equal(matrix.sum(axis=1), 1.0)

    @pytest.mark.parametrize(
        "crop",
        [(2, 3, 9, 13), (0, 0, 17, 24), (3, 5, 1, 1), (4, 0, 13, 1), (16, 23, 1, 1)],
        ids=["inner", "full_size", "one_pixel", "one_column", "corner_pixel"],
    )
    def test_crop_matches_direct_bilinear_reference(self, crop):
        geometry = ImageGeometry(17, 24)
        img = np.random.default_rng(3).uniform(size=(17, 24))
        out = CROP_0_2.apply(img.ravel(), geometry, crop)
        assert out.shape == (17 * 24,)
        np.testing.assert_allclose(
            out.reshape(17, 24), reference_bilinear_crop(img, *crop), rtol=0, atol=1e-12
        )

    def test_full_size_crop_is_a_copy(self):
        geometry = ImageGeometry(17, 24)
        x = np.random.default_rng(4).uniform(size=17 * 24)
        out = CROP_0_2.apply(x, geometry, (0, 0, 17, 24))
        assert out.tobytes() == x.tobytes() and not np.shares_memory(out, x)

    @pytest.mark.parametrize(
        "height, width, sigma", [(20, 23, 2.5), (2, 3, 1.0), (64, 64, 1.0)],
        ids=["20x23_sigma_2_5", "radius_over_side", "64x64_sigma_1"],
    )
    def test_blur_matches_direct_symmetric_convolution(self, height, width, sigma):
        img = np.random.default_rng(5).uniform(size=(height, width))
        blur = GaussianBlur(probability=1.0, sigma=sigma)
        out = blur.apply(img.ravel(), ImageGeometry(height, width), None)
        np.testing.assert_allclose(
            out.reshape(height, width), reference_blur(img, sigma), rtol=0, atol=1e-12
        )


class TestDefaultPipelines:
    def test_vector_defaults_fit_geometry(self):
        pipeline = default_pipeline(VectorGeometry(12))
        out = one_view(pipeline, np.zeros(12), seed=0)
        assert out.shape == (12,)

    def test_small_images_skip_blur(self):
        pipeline = default_pipeline(ImageGeometry(8, 8))
        kinds = [spec.kind for spec in pipeline.transforms]
        assert "gaussian_blur" not in kinds

    def test_large_images_include_blur(self):
        pipeline = default_pipeline(ImageGeometry(64, 64))
        kinds = [spec.kind for spec in pipeline.transforms]
        assert "gaussian_blur" in kinds




# sha256 over every make_pair view and every pair's share of the epoch's
# draws, for the (seed, epoch, index) grid below; each (seed, epoch) is one
# epoch of 64 samples. Recorded when the draws became whole arrays from one
# Philox stream per epoch; any change to a view's bytes or to the draws
# changes the digest. The five image digests were re-recorded when the
# resized crop and the blur became products with small dense matrices. The
# blur matrix goes through np.exp, and the crop and blur through BLAS
# matrix products, so a platform whose libm or BLAS rounds differently in
# the last bit gives other image digests.
PINNED_GRID = [(s, e, i) for s in (0, 5) for e in (0, 3) for i in (0, 1, 2, 63)]
PINNED_CASES = {
    "vector_default": (
        lambda: default_pipeline(VectorGeometry(16)),
        "44d101d327a6c67d1d3b0f0706813c11fa5f31d3d7e5397a6565ce25d1d98089",
    ),
    "image_default_64_blur": (
        lambda: default_pipeline(ImageGeometry(64, 64)),
        "6c49e78225ea915f3d1ac86567758e3e81c8ed3c5a43b4659c59af4c6c8d3b57",
    ),
    "image_default_28_no_blur": (
        lambda: default_pipeline(ImageGeometry(28, 28)),
        "e6a83d4f4e79466f4bb2f5e1c057a620654f111345d95f632f8c84950a2b0c5b",
    ),
    "blur_sigma_2_5": (
        lambda: _only(GaussianBlur(probability=1.0, sigma=2.5), ImageGeometry(20, 23)),
        "26ef5e91eac48bb63af8f768efb6c0a6f1368f40ef8be261d2affb2f0024a33d",
    ),
    "blur_radius_over_side": (
        lambda: _only(GaussianBlur(probability=1.0, sigma=1.0), ImageGeometry(2, 3)),
        "d3c269e63a1e73896e5cb396a6c7111d2d7dee3ba7fefa216e06b951e9e4bea4",
    ),
    "resized_crop_0_2": (
        lambda: _only(CROP_0_2, ImageGeometry(17, 24)),
        "eabca5467c3f7baeb62b22f2731197ece2197c66c05cca53e7c24cc071146222",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_CASES))
def test_views_and_generator_states_match_pinned_digest(case):
    build, expected = PINNED_CASES[case]
    pipeline = build()
    size = pipeline.geometry.size
    x = np.random.default_rng(size).uniform(size=size)
    digest = hashlib.sha256()
    for seed, epoch, index in PINNED_GRID:
        pair_share = pair_rng(epoch_draws(pipeline, seed, epoch, 64), index)
        view_a, view_b = make_pair(pipeline, x, pair_share, augmented=2)
        digest.update(view_a.tobytes())
        digest.update(view_b.tobytes())
        for gates, params in pair_share:
            digest.update(json.dumps(gates).encode())
            if isinstance(params, np.ndarray):
                digest.update(params.tobytes())
            else:
                digest.update(json.dumps(params).encode())
    assert digest.hexdigest() == expected
