"""View generation: transform semantics, determinism, and geometry guards."""

import hashlib
import json

import numpy as np
import pytest

from dualclust.augment import (
    AugmentationPipeline,
    TransformSpec,
    default_image_pipeline,
    default_vector_pipeline,
    make_pair,
    pair_rng,
    sample_view,
)
from dualclust.data import ImageGeometry, VectorGeometry
from dualclust.errors import ConfigError, ShapeError


def jitter_pipeline(dim, sigma=0.1, probability=1.0):
    return AugmentationPipeline(
        transforms=((TransformSpec.gaussian_jitter(sigma), probability),),
        geometry=VectorGeometry(dim),
    )


class TestTransformSpecValidation:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: TransformSpec.gaussian_jitter(0.0),
            lambda: TransformSpec.coordinate_mask(1.0),
            lambda: TransformSpec.coordinate_mask(-0.1),
            lambda: TransformSpec.scale_jitter(0.0, 1.0),
            lambda: TransformSpec.scale_jitter(2.0, 1.0),
            lambda: TransformSpec.resized_crop(0.0),
            lambda: TransformSpec.resized_crop(1.1),
            lambda: TransformSpec.brightness_jitter(-0.5, 1.0),
            lambda: TransformSpec.gaussian_blur(0.0),
            lambda: TransformSpec("made_up"),
        ],
    )
    def test_bad_parameters_rejected(self, factory):
        with pytest.raises(ConfigError):
            factory()

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="probability"):
            AugmentationPipeline(
                transforms=((TransformSpec.identity(), 1.5),),
                geometry=VectorGeometry(3),
            )

    def test_image_transform_on_vector_geometry_rejected(self):
        with pytest.raises(ConfigError, match="image geometry"):
            AugmentationPipeline(
                transforms=((TransformSpec.horizontal_flip(), 0.5),),
                geometry=VectorGeometry(4),
            )


class TestSampleView:
    def test_zero_probabilities_return_input_exactly(self):
        pipeline = AugmentationPipeline(
            transforms=(
                (TransformSpec.gaussian_jitter(1.0), 0.0),
                (TransformSpec.scale_jitter(0.5, 2.0), 0.0),
            ),
            geometry=VectorGeometry(5),
        )
        x = np.arange(5.0)
        out = sample_view(pipeline, x, np.random.default_rng(0))
        np.testing.assert_array_equal(out, x)

    def test_flip_twice_restores_input(self):
        pipeline = AugmentationPipeline(
            transforms=((TransformSpec.horizontal_flip(), 1.0),),
            geometry=ImageGeometry(3, 4),
        )
        x = np.arange(12.0)
        once = sample_view(pipeline, x, np.random.default_rng(0))
        assert not np.array_equal(once, x)
        twice = sample_view(pipeline, once, np.random.default_rng(1))
        np.testing.assert_array_equal(twice, x)

    def test_jitter_standard_deviation_matches_parameter(self):
        pipeline = jitter_pipeline(10_000, sigma=0.1)
        x = np.zeros(10_000)
        out = sample_view(pipeline, x, np.random.default_rng(3))
        assert abs((out - x).std() - 0.1) <= 0.02

    def test_deterministic_given_seed(self):
        pipeline = default_vector_pipeline(VectorGeometry(8))
        x = np.linspace(-1, 1, 8)
        a = sample_view(pipeline, x, np.random.default_rng(99))
        b = sample_view(pipeline, x, np.random.default_rng(99))
        assert a.tobytes() == b.tobytes()

    def test_application_count_is_binomial(self):
        # Doubling transform with p=0.3: count applications over n trials
        # and compare against the binomial mean within four standard
        # deviations.
        p, n = 0.3, 2000
        pipeline = AugmentationPipeline(
            transforms=((TransformSpec.scale_jitter(2.0, 2.0), p),),
            geometry=VectorGeometry(3),
        )
        x = np.ones(3)
        applied = sum(
            sample_view(pipeline, x, pair_rng(0, 0, i))[0] == 2.0 for i in range(n)
        )
        margin = 4.0 * np.sqrt(n * p * (1 - p))
        assert abs(applied - n * p) <= margin

    @pytest.mark.parametrize(
        "spec",
        [
            TransformSpec.gaussian_jitter(0.5),
            TransformSpec.coordinate_mask(0.3),
            TransformSpec.scale_jitter(0.5, 1.5),
            TransformSpec.identity(),
        ],
    )
    def test_vector_transforms_preserve_dimension(self, spec):
        pipeline = AugmentationPipeline(
            transforms=((spec, 1.0),), geometry=VectorGeometry(7)
        )
        out = sample_view(pipeline, np.ones(7), np.random.default_rng(0))
        assert out.shape == (7,)

    @pytest.mark.parametrize(
        "spec",
        [
            TransformSpec.resized_crop(0.4),
            TransformSpec.horizontal_flip(),
            TransformSpec.brightness_jitter(0.5, 1.5),
            TransformSpec.gaussian_blur(1.2),
        ],
    )
    def test_image_transforms_preserve_dimension(self, spec):
        geometry = ImageGeometry(6, 5)
        pipeline = AugmentationPipeline(transforms=((spec, 1.0),), geometry=geometry)
        x = np.random.default_rng(1).uniform(size=30)
        out = sample_view(pipeline, x, np.random.default_rng(2))
        assert out.shape == (30,)
        assert np.all(np.isfinite(out))

    def test_coordinate_mask_zeroes_some_coordinates(self):
        pipeline = AugmentationPipeline(
            transforms=((TransformSpec.coordinate_mask(0.5), 1.0),),
            geometry=VectorGeometry(1000),
        )
        out = sample_view(pipeline, np.ones(1000), np.random.default_rng(4))
        zeroed = int((out == 0.0).sum())
        assert 350 <= zeroed <= 650
        assert set(np.unique(out)) <= {0.0, 1.0}

    def test_brightness_stays_in_pixel_range(self):
        pipeline = AugmentationPipeline(
            transforms=((TransformSpec.brightness_jitter(0.5, 1.8), 1.0),),
            geometry=ImageGeometry(4, 4),
        )
        x = np.random.default_rng(5).uniform(size=16)
        for i in range(20):
            out = sample_view(pipeline, x, pair_rng(1, 0, i))
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_blur_preserves_constant_image(self):
        pipeline = AugmentationPipeline(
            transforms=((TransformSpec.gaussian_blur(1.0), 1.0),),
            geometry=ImageGeometry(5, 6),
        )
        out = sample_view(pipeline, np.full(30, 0.7), np.random.default_rng(6))
        np.testing.assert_allclose(out, 0.7, rtol=0, atol=1e-12)

    def test_resized_crop_stays_within_value_range(self):
        pipeline = AugmentationPipeline(
            transforms=((TransformSpec.resized_crop(0.3), 1.0),),
            geometry=ImageGeometry(8, 8),
        )
        x = np.random.default_rng(7).uniform(size=64)
        for i in range(10):
            out = sample_view(pipeline, x, pair_rng(2, 0, i))
            assert out.min() >= x.min() - 1e-12
            assert out.max() <= x.max() + 1e-12

    def test_wrong_length_rejected(self):
        with pytest.raises(ShapeError):
            sample_view(jitter_pipeline(5), np.ones(4), np.random.default_rng(0))


class TestMakePair:
    def test_raw_both_returns_input_twice(self):
        pipeline = jitter_pipeline(6)
        x = np.arange(6.0)
        a, b = make_pair(pipeline, x, np.random.default_rng(0), mode="raw_both")
        np.testing.assert_array_equal(a, x)
        np.testing.assert_array_equal(b, x)

    def test_raw_second_keeps_second_view_untouched(self):
        pipeline = jitter_pipeline(6)
        x = np.arange(6.0)
        a, b = make_pair(pipeline, x, np.random.default_rng(1), mode="raw_second")
        np.testing.assert_array_equal(b, x)
        assert not np.array_equal(a, x)

    def test_two_views_differ_and_reproduce(self):
        pipeline = jitter_pipeline(6)
        x = np.arange(6.0)
        a1, b1 = make_pair(pipeline, x, pair_rng(7, 0, 0))
        a2, b2 = make_pair(pipeline, x, pair_rng(7, 0, 0))
        assert a1.tobytes() == a2.tobytes()
        assert b1.tobytes() == b2.tobytes()
        assert not np.array_equal(a1, b1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            make_pair(jitter_pipeline(3), np.ones(3), np.random.default_rng(0), mode="no")

    def test_substreams_are_order_independent(self):
        pipeline = jitter_pipeline(4)
        x = np.ones(4)
        late = make_pair(pipeline, x, pair_rng(3, 2, 17))
        early = make_pair(pipeline, x, pair_rng(3, 2, 17))
        np.testing.assert_array_equal(late[0], early[0])
        distinct = make_pair(pipeline, x, pair_rng(3, 2, 18))
        assert not np.array_equal(late[0], distinct[0])


class TestDefaultPipelines:
    def test_vector_defaults_fit_geometry(self):
        pipeline = default_vector_pipeline(VectorGeometry(12))
        out = sample_view(pipeline, np.zeros(12), np.random.default_rng(0))
        assert out.shape == (12,)

    def test_small_images_skip_blur(self):
        pipeline = default_image_pipeline(ImageGeometry(8, 8))
        kinds = [spec.kind for spec, _ in pipeline.transforms]
        assert "gaussian_blur" not in kinds

    def test_large_images_include_blur(self):
        pipeline = default_image_pipeline(ImageGeometry(64, 64))
        kinds = [spec.kind for spec, _ in pipeline.transforms]
        assert "gaussian_blur" in kinds


def _only(spec, geometry):
    return AugmentationPipeline(transforms=((spec, 1.0),), geometry=geometry)


# sha256 over every make_pair view and the generator state after each pair,
# for the (seed, epoch, index) grid below. Recorded before the image kernels
# became whole-array operations; any change to a view's bytes or to the
# draw sequence changes the digest. The blur kernel goes through np.exp and
# np.convolve's dot, so a platform whose libm or BLAS rounds differently in
# the last bit gives other blur digests.
PINNED_GRID = [(s, e, i) for s in (0, 5) for e in (0, 3) for i in (0, 1, 2, 63)]
PINNED_CASES = {
    "vector_default": (
        lambda: default_vector_pipeline(VectorGeometry(16)),
        "1c668bb65c4f62fb741c7afc76b70455a1df4ecb8e8fee22a4f7650a2f1c1ef9",
    ),
    "image_default_64_blur": (
        lambda: default_image_pipeline(ImageGeometry(64, 64)),
        "934b8bf3339f7154ec8cb7ce2d37cb3411ab43fccd92373d55acae091d7c50cd",
    ),
    "image_default_28_no_blur": (
        lambda: default_image_pipeline(ImageGeometry(28, 28)),
        "8a3e3452f5b790733c7e35d44c25825669d0c799c5c30727fce01ec7cb10897c",
    ),
    "blur_sigma_2_5": (
        lambda: _only(TransformSpec.gaussian_blur(2.5), ImageGeometry(20, 23)),
        "ab8e63c2909e6fb329864edfcae3ec749d5b736e6def719252c4b5e50d43a503",
    ),
    "blur_radius_over_side": (
        lambda: _only(TransformSpec.gaussian_blur(1.0), ImageGeometry(2, 3)),
        "cfa4576f740ad1323c2527624f8a7aa7fcc6466c7a1c4b5e112666bc1c655124",
    ),
    "resized_crop_0_2": (
        lambda: _only(TransformSpec.resized_crop(0.2), ImageGeometry(17, 24)),
        "6363de56b9c159fa31a93a936c49229c04886bcb8f90e6fed779eb4e4ecc86ad",
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
        rng = pair_rng(seed, epoch, index)
        view_a, view_b = make_pair(pipeline, x, rng)
        digest.update(view_a.tobytes())
        digest.update(view_b.tobytes())
        digest.update(json.dumps(rng.bit_generator.state, sort_keys=True).encode())
    assert digest.hexdigest() == expected
