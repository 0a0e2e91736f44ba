"""Optimizer, joint objective, training loop, and evaluation tests."""

import inspect
import re
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualclust.autodiff as ad
import dualclust.trainer
from dualclust.config import (
    ABLATION_MODES,
    AugmentationSection,
    ExperimentConfig,
    LossSection,
    ModelSection,
    TrainingSection,
    build_dataset,
)
from dualclust.data import CsvFile, Dataset, ImageGeometry, VectorGeometry
from dualclust.errors import ConfigError, ContractError, DegenerateInputError, DualclustError
from dualclust.losses import cluster_loss, instance_loss
from dualclust.metrics import clustering_accuracy
from dualclust.model import forward_graph, init_params, predict_assignments
from dualclust.trainer import (
    REPORT_COLUMNS,
    OptimizerState,
    TrainReport,
    adam_step,
    assign,
    evaluate,
    instance_space_assignments,
    loss_terms,
    train,
)

from helpers import reference_adam_step, stacked

TINY_MODEL = ModelSection(
    encoder_widths=(8,), cluster_count=3, instance_dim=6, head_hidden_dim=8, init_seed=0
)

BLOBS = {
    "kind": "gaussian_blobs",
    "k": 4,
    "n_per": 32,
    "dim": 8,
    "separation": 8.0,
    "sigma": 1.0,
    "seed": 3,
}


def small_config(**overrides):
    raw = {
        "dataset": dict(BLOBS),
        "model": {"encoder_widths": [32], "instance_dim": 16},
        "training": {"batch_size": 32, "epochs": 5},
        "seed": 0,
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in raw:
            raw[key] = {**raw[key], **value}
        else:
            raw[key] = value
    return ExperimentConfig.from_dict(raw)


def param_snapshot(params):
    return [(name, array.copy()) for name, array in params.arrays.items()]


def assert_params_equal(params, snapshot):
    for (name, array), (ref_name, ref) in zip(params.arrays.items(), snapshot):
        assert name == ref_name
        np.testing.assert_array_equal(array, ref, err_msg=name)


class TestOptimizerState:
    def test_defaults(self):
        state = OptimizerState.for_params(init_params(TINY_MODEL, 4), TrainingSection())
        assert state.settings == TrainingSection()
        assert state.settings.learning_rate == 0.0003
        assert state.settings.beta1 == 0.9
        assert state.settings.beta2 == 0.999
        assert state.settings.epsilon == 1e-8
        assert state.step == 0

    def test_accumulators_match_parameter_shapes(self):
        params = init_params(TINY_MODEL, 4)
        state = OptimizerState.for_params(params, TrainingSection())
        for moment in (state.m, state.v):
            assert moment.shape == params.flat.shape
            assert not np.shares_memory(moment, params.flat)
            assert not moment.any()


class TestAdamStep:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        params = init_params(TINY_MODEL, 4)
        state = OptimizerState.for_params(params, TrainingSection())
        before = param_snapshot(params)
        grads = [np.zeros_like(array) for _, array in params.arrays.items()]
        for _ in range(3):
            adam_step(params, grads, state)
        assert_params_equal(params, before)
        assert state.step == 3

    def test_first_step_matches_scalar_oracle(self):
        # Bias-corrected moments at step 1 reduce to m=g, v=g*g, so the
        # update is -lr * g / (|g| + eps) elementwise for any gradient.
        params = init_params(TINY_MODEL, 4)
        state = OptimizerState.for_params(params, TrainingSection())
        rng = np.random.default_rng(11)
        grads = [rng.normal(size=array.shape) for _, array in params.arrays.items()]
        before = param_snapshot(params)
        adam_step(params, grads, state)
        for (name, array), (_, old), g in zip(params.arrays.items(), before, grads):
            expected = old - state.settings.learning_rate * g / (np.abs(g) + state.settings.epsilon)
            np.testing.assert_allclose(array, expected, rtol=1e-12, err_msg=name)

    def test_hundred_steps_deterministic(self):
        results = []
        for _ in range(2):
            params = init_params(TINY_MODEL, 4)
            state = OptimizerState.for_params(params, TrainingSection())
            rng = np.random.default_rng(5)
            for _ in range(100):
                grads = [rng.normal(size=a.shape) for _, a in params.arrays.items()]
                adam_step(params, grads, state)
            results.append(param_snapshot(params))
        for (name, a), (_, b) in zip(results[0], results[1]):
            np.testing.assert_array_equal(a, b, err_msg=name)

    def test_fifty_steps_match_reference_bit_for_bit(self):
        # Random gradients with exact zeros (whole arrays and single
        # entries) and both signs of zero; the in-place step must give the
        # allocating expression's parameters and moments exactly.
        params = init_params(TINY_MODEL, 4)
        state = OptimizerState.for_params(params, TrainingSection(learning_rate=0.01))
        flat, m, v = params.flat.copy(), state.m.copy(), state.v.copy()
        rng = np.random.default_rng(21)
        for step in range(1, 51):
            grads = []
            for i, array in enumerate(params.arrays.values()):
                g = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=array.shape)
                g[rng.random(array.shape) < 0.3] = 0.0
                g[rng.random(array.shape) < 0.1] = -0.0
                grads.append(np.zeros(array.shape) if (i + step) % 5 == 0 else g)
            copies = [g.copy() for g in grads]
            adam_step(params, grads, state)
            reference_adam_step(flat, m, v, copies, step, 0.01, 0.9, 0.999, 1e-8)
            for g, copy in zip(grads, copies):
                np.testing.assert_array_equal(g, copy)
            assert state.step == step
            np.testing.assert_array_equal(params.flat, flat)
            np.testing.assert_array_equal(state.m, m)
            np.testing.assert_array_equal(state.v, v)
            for buffer in (state.grad, state.scratch):
                for other in (params.flat, state.m, state.v, *grads):
                    assert not np.shares_memory(buffer, other)
            assert not np.shares_memory(state.grad, state.scratch)

    def test_overflowing_square_stops_step_before_any_write(self):
        params = init_params(TINY_MODEL, 4)
        state = OptimizerState.for_params(params, TrainingSection())
        grads = [np.zeros_like(a) for a in params.arrays.values()]
        grads[3][0, 1] = 1e160  # finite, but (1 - beta2) g^2 is not
        before, m, v = params.flat.copy(), state.m.copy(), state.v.copy()
        with pytest.raises(DegenerateInputError, match=r"gradient of instance_head\.0\.bias overflows"):
            adam_step(params, grads, state)
        assert state.step == 0
        for array, ref in ((params.flat, before), (state.m, m), (state.v, v)):
            np.testing.assert_array_equal(array, ref)

    def test_gradient_count_mismatch_rejected(self):
        params = init_params(TINY_MODEL, 4)
        state = OptimizerState.for_params(params, TrainingSection())
        with pytest.raises(ContractError, match="gradients"):
            adam_step(params, [np.zeros((4, 8))], state)

    def test_gradient_shape_mismatch_rejected(self):
        params = init_params(TINY_MODEL, 4)
        state = OptimizerState.for_params(params, TrainingSection())
        grads = [np.zeros_like(a) for _, a in params.arrays.items()]
        grads[0] = np.zeros((2, 2))
        with pytest.raises(ContractError, match="shape"):
            adam_step(params, grads, state)


def random_views(seed, n=6, dim=5, m=4):
    """Stacked projections [z_a; z_b] and soft labels [y_a; y_b] of n pairs."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(2 * n, dim))
    y = ad.softmax_rows(rng.normal(size=(2 * n, m))).value
    return z, y


class TestTotalLoss:
    def test_both_terms_dropped_gives_zero(self):
        z, y = random_views(0)
        total = loss_terms(z, y, LossSection(), instance=False, cluster=False)[2]
        assert total.value[0, 0] == 0.0

    def test_cluster_only_equals_cluster_loss_exactly(self):
        z, y = random_views(1)
        total = loss_terms(z, y, LossSection(), instance=False, cluster=True)[2]
        direct = cluster_loss(y, LossSection())
        assert total.value[0, 0] == direct.value[0, 0]

    def test_instance_only_equals_instance_loss_exactly(self):
        z, y = random_views(2)
        total = loss_terms(z, y, LossSection(), instance=True, cluster=False)[2]
        direct = instance_loss(z, LossSection())
        assert total.value[0, 0] == direct.value[0, 0]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_sum_of_independently_computed_terms(self, seed):
        z, y = random_views(seed)
        total = float(loss_terms(z, y, LossSection(), True, True)[2].value[0, 0])
        parts = float(instance_loss(z, LossSection()).value[0, 0]) + float(
            cluster_loss(y, LossSection()).value[0, 0]
        )
        assert abs(total - parts) < 1e-14

    def test_custom_configs_are_honored(self):
        z, y = random_views(7)
        config = LossSection(
            instance_temperature=0.25, cluster_temperature=2.0, entropy_weight=0.5
        )
        total = float(loss_terms(z, y, config, True, True)[2].value[0, 0])
        parts = float(instance_loss(z, config).value[0, 0]) + float(
            cluster_loss(y, config).value[0, 0]
        )
        assert abs(total - parts) < 1e-14


class TestOnePassStep:
    """One forward pass over the 2B stacked views against the two-pass
    step it replaced, which ran the model once per view."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_two_pass_step(self, seed):
        rng = np.random.default_rng(seed)
        batch, dim = int(rng.integers(2, 33)), int(rng.integers(1, 20))
        widths = tuple(map(int, rng.integers(8, 40, size=rng.integers(1, 3))))
        params = init_params(
            ModelSection(
                encoder_widths=widths,
                cluster_count=int(rng.integers(2, 8)),
                instance_dim=int(rng.integers(2, 20)),
                head_hidden_dim=widths[-1],
                init_seed=seed,
            ),
            dim,
        )
        config = LossSection(
            instance_temperature=float(rng.uniform(0.1, 2.0)),
            cluster_temperature=float(rng.uniform(0.1, 2.0)),
            entropy_weight=float(rng.uniform(0.0, 2.0)),
            exclude_self_similarity=bool(seed % 2),
        )
        views_a, views_b = rng.normal(size=(batch, dim)), rng.normal(size=(batch, dim))

        one = params.nodes()
        _, z, y = forward_graph(one, np.vstack([views_a, views_b]))
        root_one = loss_terms(z, y, config, True, True)[2]
        ad.backward(root_one)

        two = params.nodes()
        _, z_a, y_a = forward_graph(two, views_a)
        _, z_b, y_b = forward_graph(two, views_b)
        root_two = loss_terms(stacked(z_a, z_b), stacked(y_a, y_b), config, True, True)[2]
        ad.backward(root_two)

        assert root_one.value[0, 0] == root_two.value[0, 0]
        for name in one:
            got, want = one[name].grad, two[name].grad
            scale = max(float(np.linalg.norm(want)), 1e-300)
            assert np.linalg.norm(got - want) <= 1e-12 * scale, name

    def test_train_runs_one_forward_pass_per_step(self, monkeypatch):
        calls = {"forward_graph": 0, "adam_step": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            original = getattr(dualclust.trainer, name)
            monkeypatch.setattr(dualclust.trainer, name, counted(name, original))
        config = small_config(training={"epochs": 2})
        train(config, build_dataset(config.dataset))
        # 128 samples in batches of 32, two epochs.
        assert calls == {"forward_graph": 8, "adam_step": 8}


LOCATED = re.compile(r"epoch \d+, (batch \d+|evaluation): \S")


def log_uniform(low_exponent, high_exponent):
    return st.floats(low_exponent, high_exponent).map(lambda e: 10.0**e)


@st.composite
def small_runs(draw):
    k = draw(st.integers(2, 5))
    n_per = draw(st.integers(-(-16 // k), 32 // k))
    raw = {
        "dataset": {**BLOBS, "k": k, "n_per": n_per, "seed": draw(st.integers(0, 3))},
        "model": {
            "encoder_widths": draw(st.lists(st.integers(1, 8), min_size=1, max_size=2)),
            "instance_dim": draw(st.integers(1, 8)),
        },
        "training": {
            "batch_size": draw(st.integers(2, min(16, k * n_per))),
            "epochs": draw(st.integers(1, 2)),
            "learning_rate": draw(log_uniform(-6.0, 300.0)),
        },
        "losses": {
            "instance_temperature": draw(log_uniform(-3.0, 3.0)),
            "cluster_temperature": draw(log_uniform(-3.0, 3.0)),
            "entropy_weight": draw(st.one_of(st.just(0.0), st.floats(0.0, 1e3))),
            "exclude_self_similarity": draw(st.booleans()),
            "literal_entropy_sign": draw(st.booleans()),
        },
        "ablation": draw(st.sampled_from(ABLATION_MODES)),
        "seed": draw(st.integers(0, 3)),
    }
    return ExperimentConfig.from_dict(raw)


@settings(max_examples=100, deadline=None)
@given(config=small_runs())
def test_train_ends_in_finite_report_or_located_error(config):
    # No errstate: every RuntimeWarning is an error under pytest, so a
    # non-finite value has to be stopped where it enters.
    dataset = build_dataset(config.dataset)
    try:
        _, report = train(config, dataset)
    except DualclustError as exc:
        assert LOCATED.match(str(exc)), str(exc)
        return
    assert len(report.records) == config.training.epochs
    for record in report.records:
        cells = [cell for cell in record.cells() if cell is not None]
        assert np.isfinite(cells).all(), record


class TestTrain:
    def test_zero_epochs_returns_initial_params(self):
        config = small_config(training={"epochs": 0})
        dataset = build_dataset(config.dataset)
        params, report = train(config, dataset)
        reference = init_params(config.resolve(dataset).model, dataset.dim)
        assert_params_equal(params, param_snapshot(reference))
        assert report.records == []

    def test_one_record_per_epoch(self):
        config = small_config(training={"epochs": 3})
        dataset = build_dataset(config.dataset)
        _, report = train(config, dataset)
        assert [r.epoch for r in report.records] == [0, 1, 2]

    def test_total_is_sum_of_terms_per_epoch(self):
        config = small_config(training={"epochs": 2})
        dataset = build_dataset(config.dataset)
        _, report = train(config, dataset)
        for record in report.records:
            assert abs(record.l_total - (record.l_ins + record.l_clu)) < 1e-12

    def test_determinism_bitwise(self):
        config = small_config(training={"epochs": 3})
        dataset = build_dataset(config.dataset)
        params_a, report_a = train(config, dataset)
        params_b, report_b = train(config, dataset)
        assert report_a.csv_text() == report_b.csv_text()
        assert_params_equal(params_a, param_snapshot(params_b))

    def test_seed_changes_outcome(self):
        config = small_config(training={"epochs": 2})
        dataset = build_dataset(config.dataset)
        _, report_a = train(config, dataset)
        _, report_b = train(small_config(training={"epochs": 2}, seed=1), dataset)
        assert report_a.csv_text() != report_b.csv_text()

    def test_batch_size_larger_than_dataset_rejected(self):
        config = small_config(training={"batch_size": 4096})
        dataset = build_dataset(config.dataset)
        with pytest.raises(ConfigError, match="batch_size"):
            train(config, dataset)

    def test_empty_dataset_rejected(self):
        dataset = Dataset(np.zeros((0, 3)), VectorGeometry(3))
        with pytest.raises(ContractError, match="empty"):
            train(small_config(), dataset)

    def test_degenerate_batch_reports_batch_index(self):
        # All-zero samples through zero-bias ReLU layers give zero-norm
        # instance rows in the very first batch.
        samples = np.zeros((8, 4))
        dataset = Dataset(samples, VectorGeometry(4))
        config = ExperimentConfig(
            dataset=CsvFile("unused.csv"),
            model=ModelSection(encoder_widths=(8,), instance_dim=4, cluster_count=2),
            training=TrainingSection(batch_size=4, epochs=1),
            augmentation=AugmentationSection(()),
        )
        with pytest.raises(DegenerateInputError, match=r"epoch 0, batch 0"):
            train(config, dataset)

    @pytest.mark.parametrize(
        "overrides, where",
        [
            (
                {"ablation": "ich_only", "training": {"learning_rate": 1e300}},
                "epoch 0, batch 1: instance_head.0: output",
            ),
            ({"losses": {"entropy_weight": 1e308}}, "epoch 0, batch 0: loss term l_clu"),
        ],
        ids=["extreme_learning_rate", "extreme_entropy_weight"],
    )
    def test_non_finite_step_stopped_before_adam(self, overrides, where):
        config = small_config(**overrides)
        with np.errstate(all="ignore"):
            with pytest.raises(DegenerateInputError, match=where + " is not finite"):
                train(config, build_dataset(config.dataset))

    def test_overflowing_soft_labels_stopped_with_location(self):
        # Parameters driven to overflow would give NaN soft-label rows; the
        # forward pass names the cluster-head layer before the softmax. The
        # instance head, frozen under cch_only, stays finite.
        config = small_config(ablation="cch_only", training={"learning_rate": 1e300})
        with np.errstate(all="ignore"):
            with pytest.raises(
                DegenerateInputError, match="epoch 0, batch 1: cluster_head.0: output is not"
            ):
                train(config, build_dataset(config.dataset))

    def test_overflowing_encoder_layer_named_without_warning(self):
        # No errstate here: a RuntimeWarning from an overflowing matmul
        # would fail the test. The head layers are checked like the
        # encoder's.
        for widths, learning_rate, where in (
            ([32, 32], 1e200, "encoder.1"),
            ([32], 1e300, "instance_head.0"),
        ):
            config = small_config(
                model={"encoder_widths": widths}, training={"learning_rate": learning_rate}
            )
            with pytest.raises(
                DegenerateInputError, match=f"epoch 0, batch 1: {where}: output is not finite"
            ):
                train(config, build_dataset(config.dataset))

    def test_section_built_in_python_is_checked(self):
        with pytest.raises(ConfigError, match="training.epochs: must be nonnegative"):
            config = replace(small_config(), training=TrainingSection(epochs=-1))
            train(config, build_dataset(config.dataset))

    def test_non_finite_gradient_named(self):
        params = init_params(TINY_MODEL, 4)
        state = OptimizerState.for_params(params, TrainingSection())
        grads = [np.zeros_like(a) for a in params.arrays.values()]
        grads[1][0, 2] = np.nan
        with pytest.raises(DegenerateInputError, match="gradient of encoder.0.bias is not finite"):
            adam_step(params, grads, state)

    def test_second_moment_overflow_stopped_with_location(self):
        # tau = 1e-300 keeps every loss finite, but the gradients' squares
        # overflow the second moment, which would freeze their parameters.
        config = small_config(losses={"instance_temperature": 1e-300})
        with pytest.raises(
            DegenerateInputError,
            match="epoch 0, batch 0: gradient of encoder.0.weight overflows Adam's second moment",
        ):
            train(config, build_dataset(config.dataset))

    def test_blobs_reach_high_accuracy(self):
        # Well-separated blobs should be solved on most seeds.
        config = small_config(training={"epochs": 30})
        dataset = build_dataset(config.dataset)
        hits = 0
        for seed in (0, 1, 2):
            _, report = train(small_config(training={"epochs": 30}, seed=seed), dataset)
            if report.records[-1].acc >= 0.9:
                hits += 1
        assert hits >= 2

    def test_loss_decreases_by_epoch_50(self):
        first, fiftieth = [], []
        for seed in (0, 1, 2):
            config = small_config(training={"epochs": 50}, seed=seed)
            dataset = build_dataset(config.dataset)
            _, report = train(config, dataset)
            first.append(report.records[0].l_total)
            fiftieth.append(report.records[49].l_total)
        assert np.median(fiftieth) < np.median(first)

    def test_ich_only_freezes_cluster_head(self):
        config = small_config(training={"epochs": 2}, ablation="ich_only")
        dataset = build_dataset(config.dataset)
        params, report = train(config, dataset)
        reference = init_params(config.resolve(dataset).model, dataset.dim)
        for (name, array), (_, ref) in zip(params.arrays.items(), param_snapshot(reference)):
            if name.startswith("cluster_head"):
                np.testing.assert_array_equal(array, ref, err_msg=name)
            elif name.endswith("weight"):
                assert not np.array_equal(array, ref), name
        for record in report.records:
            assert record.l_clu is None
            assert record.l_total == record.l_ins

    def test_cch_only_freezes_instance_head(self):
        config = small_config(training={"epochs": 2}, ablation="cch_only")
        dataset = build_dataset(config.dataset)
        params, report = train(config, dataset)
        reference = init_params(config.resolve(dataset).model, dataset.dim)
        for (name, array), (_, ref) in zip(params.arrays.items(), param_snapshot(reference)):
            if name.startswith("instance_head"):
                np.testing.assert_array_equal(array, ref, err_msg=name)
        for record in report.records:
            assert record.l_ins is None
            assert record.l_total == record.l_clu

    def test_raw_both_views_trains_without_error(self):
        config = small_config(training={"epochs": 2}, ablation="raw_both_views")
        dataset = build_dataset(config.dataset)
        _, report = train(config, dataset)
        # Identical views make every positive pair exact, for the instance
        # rows and for the cluster columns alike.
        for record in report.records:
            assert abs(record.pos_sim_inst - 1.0) < 1e-12
            assert abs(record.pos_sim_clu - 1.0) < 1e-12

    def test_unlabeled_dataset_leaves_metric_cells_empty(self):
        rng = np.random.default_rng(0)
        dataset = Dataset(rng.normal(size=(16, 4)), VectorGeometry(4))
        config = ExperimentConfig(
            dataset=CsvFile("unused.csv"),
            model=ModelSection(encoder_widths=(8,), instance_dim=4, cluster_count=3),
            training=TrainingSection(batch_size=8, epochs=2),
        )
        _, report = train(config, dataset)
        for record in report.records:
            assert record.nmi is None and record.acc is None and record.ari is None
        line = report.csv_text().splitlines()[1]
        assert ",,," in line

    def test_report_header_matches_columns(self):
        report = TrainReport([], np.zeros(0, dtype=np.int64))
        assert report.csv_text() == ",".join(REPORT_COLUMNS) + "\n"

    def test_each_epoch_trains_every_sample_once_in_its_own_seeded_order(self, monkeypatch):
        # The batches a run trains on, read off each step's sample indices:
        # 16 samples in batches of 4, for 3 epochs.
        def batches(**overrides):
            seen = []

            def spied(*args):
                seen.append(inspect.signature(step).bind(*args).arguments["indices"].copy())
                return step(*args)

            monkeypatch.setattr(dualclust.trainer, "_step", spied)
            raw = {"dataset": {"n_per": 4}, "training": {"batch_size": 4, "epochs": 3}}
            config = small_config(**{**raw, **overrides})
            train(config, build_dataset(config.dataset))
            return np.array(seen).reshape(3, 16)

        step = dualclust.trainer._step
        orders = batches()
        for order in orders:
            np.testing.assert_array_equal(np.sort(order), np.arange(16))
        assert len({order.tobytes() for order in orders}) == 3, "two epochs share an order"
        np.testing.assert_array_equal(batches(), orders)
        scale = [{"kind": "scale_jitter", "probability": 1.0, "low": 0.9, "high": 1.1}]
        np.testing.assert_array_equal(batches(augmentation={"transforms": scale}), orders)
        assert not np.array_equal(batches(seed=1), orders)

    def test_trailing_partial_batch_is_dropped(self, monkeypatch):
        # 16 samples in batches of 5: three full batches per epoch, so
        # every loss is computed at the configured batch size.
        sizes = []
        step = dualclust.trainer._step

        def spied(*args):
            sizes.append(len(inspect.signature(step).bind(*args).arguments["indices"]))
            return step(*args)

        monkeypatch.setattr(dualclust.trainer, "_step", spied)
        config = small_config(dataset={"n_per": 4}, training={"batch_size": 5, "epochs": 2})
        train(config, build_dataset(config.dataset))
        assert sizes == [5] * 6

    @pytest.mark.parametrize("ablation", ["full", "ich_only"])
    def test_step_graph_released_before_the_next_step_builds_its_own(
        self, monkeypatch, ablation
    ):
        # A step's projections are reachable only through its graph, so a
        # live weak reference to an earlier step's z means that step's
        # graph is still held while the next one is built.
        projections = []

        def checked(*args, **kwargs):
            outputs = forward_graph(*args, **kwargs)
            alive = [i for i, ref in enumerate(projections) if ref() is not None]
            assert not alive, f"step {len(projections)}: graphs of steps {alive} still alive"
            projections.append(weakref.ref(outputs[1].value))
            return outputs

        monkeypatch.setattr(dualclust.trainer, "forward_graph", checked)
        config = small_config(training={"batch_size": 8, "epochs": 2}, ablation=ablation)
        dataset = build_dataset(config.dataset)
        train(config, dataset)
        assert len(projections) == 2 * (dataset.n // 8)

    def test_memory_holds_one_view_buffer_at_64x64(self):
        # A run holds six copies of the flat parameter buffer (the
        # parameters, Adam's two moments and two work buffers, and the
        # step's gradients) and one (2, B, d) view buffer, which every
        # step refills. The margin of 7/8 of a view buffer bounds one
        # step's tape and the backward's temporaries. It does not show
        # that a step's graph is released before the next step builds its
        # own: the view buffer is shared, so a leaked graph holds no second
        # one. test_step_graph_released_before_the_next_step_builds_its_own
        # guards that.
        batch, side = 64, 64
        rng = np.random.default_rng(0)
        dataset = Dataset(rng.uniform(size=(2 * batch, side * side)), ImageGeometry(side, side))
        config = ExperimentConfig(
            dataset=CsvFile("unused.csv"),
            model=ModelSection(cluster_count=4),
            training=TrainingSection(batch_size=batch, epochs=2, learning_rate=1e-3),
        )
        train(config, dataset)  # warm the caches the augmentation keeps
        tracemalloc.start()
        try:
            params, _ = train(config, dataset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        view_bytes = 2 * batch * side * side * 8
        budget = 6 * params.flat.nbytes + view_bytes + view_bytes * 7 // 8
        assert peak <= budget, (peak, budget)


def identity_routing_params(permutation):
    """A hand-built model on 4-dim one-hot inputs whose predicted cluster
    is permutation[argmax coordinate]."""
    config = ModelSection(
        encoder_widths=(4,), cluster_count=4, instance_dim=4, head_hidden_dim=4, init_seed=0
    )
    params = init_params(config, 4)
    eye = np.eye(4)
    perm_matrix = eye[:, permutation]
    arrays = params.arrays
    for layer in ("encoder.0", "instance_head.0", "instance_head.1"):
        arrays[f"{layer}.weight"][:] = eye
        arrays[f"{layer}.bias"][:] = 0.0
    arrays["cluster_head.0.weight"][:] = 10.0 * eye
    arrays["cluster_head.0.bias"][:] = 0.0
    arrays["cluster_head.1.weight"][:] = 10.0 * perm_matrix
    arrays["cluster_head.1.bias"][:] = 0.0
    return params


class TestEvaluate:
    def test_permuted_truth_scores_one_on_all_metrics(self):
        labels = np.repeat(np.arange(4), 16)
        samples = np.eye(4)[labels]
        dataset = Dataset(samples, VectorGeometry(4), labels)
        params = identity_routing_params([2, 0, 3, 1])
        bundle, _ = evaluate(params, dataset, "full", 0)
        assert bundle["acc"] == 1.0
        assert bundle["nmi"] == 1.0
        assert bundle["ari"] == 1.0

    def test_single_cluster_on_balanced_four_classes(self):
        labels = np.repeat(np.arange(4), 16)
        samples = np.eye(4)[labels]
        dataset = Dataset(samples, VectorGeometry(4), labels)
        params = identity_routing_params([0, 1, 2, 3])
        for _, array in params.arrays.items():
            array[:] = 0.0  # uniform softmax rows; argmax tie -> cluster 0
        bundle, _ = evaluate(params, dataset, "full", 0)
        assert bundle["acc"] == 0.25

    def test_independent_assignments_have_near_zero_ari(self):
        rng = np.random.default_rng(42)
        routed = rng.integers(0, 4, size=1000)
        truth = rng.integers(0, 4, size=1000)
        dataset = Dataset(np.eye(4)[routed], VectorGeometry(4), truth)
        params = identity_routing_params([0, 1, 2, 3])
        bundle, _ = evaluate(params, dataset, "full", 0)
        assert -0.05 <= bundle["ari"] <= 0.05

    def test_unlabeled_dataset_rejected(self):
        dataset = Dataset(np.eye(4), VectorGeometry(4))
        with pytest.raises(ContractError, match="labels"):
            evaluate(identity_routing_params([0, 1, 2, 3]), dataset, "full", 0)

    def test_unknown_mode_rejected_as_in_the_config(self):
        # A misspelt mode must not fall through to the cluster head.
        dataset = Dataset(np.eye(4), VectorGeometry(4), np.arange(4))
        params = identity_routing_params([0, 1, 2, 3])
        message = r"^config: ablation: unknown mode 'ich_onyl', expected one of \("
        with pytest.raises(ConfigError, match=message):
            assign(params, dataset.samples, "ich_onyl", 0)
        with pytest.raises(ConfigError, match=message):
            evaluate(params, dataset, "ich_onyl", 0)

    @pytest.mark.parametrize("ablation", ["full", "ich_only"])
    def test_scores_the_modes_assignments(self, ablation):
        config = small_config(training={"epochs": 1}, ablation=ablation)
        dataset = build_dataset(config.dataset)
        params, _ = train(config, dataset)
        bundle, labels = evaluate(params, dataset, ablation, seed=3)
        if ablation == "ich_only":
            want = instance_space_assignments(params, dataset.samples, seed=3)
        else:
            want = predict_assignments(params, dataset.samples)
        np.testing.assert_array_equal(labels, want)
        np.testing.assert_array_equal(assign(params, dataset.samples, ablation, seed=3), want)
        assert bundle["acc"] == clustering_accuracy(dataset.labels, want)


class TestFinalAssignments:
    @pytest.mark.parametrize("ablation", ["full", "ich_only"])
    def test_report_keeps_the_final_models_assignments(self, ablation):
        config = small_config(training={"epochs": 2}, ablation=ablation)
        dataset = build_dataset(config.dataset)
        params, report = train(config, dataset)
        want = assign(params, dataset.samples, ablation, config.seed)
        np.testing.assert_array_equal(report.assignments, want)
        assert report.records[-1].acc == clustering_accuracy(dataset.labels, want)
        # ich_only scores its k-means assignments on the last epoch only.
        assert (report.records[0].acc is None) == (ablation == "ich_only")

    def test_unlabeled_run_evaluates_nothing(self):
        # No epoch is scored, and train() still assigns the final model,
        # by k-means in ich_only.
        config = small_config(
            training={"epochs": 1}, model={"cluster_count": 4}, ablation="ich_only"
        )
        dataset = build_dataset(config.dataset)
        unlabeled = Dataset(dataset.samples, dataset.geometry)
        params, report = train(config, unlabeled)
        want = instance_space_assignments(params, unlabeled.samples, config.seed)
        np.testing.assert_array_equal(report.assignments, want)
        assert report.records[-1].acc is None

    def test_run_of_no_epochs_assigns_the_initial_model(self):
        config = small_config(training={"epochs": 0})
        dataset = build_dataset(config.dataset)
        params, report = train(config, dataset)
        initial = init_params(config.resolve(dataset).model, dataset.dim)
        assert report.records == []
        np.testing.assert_array_equal(params.flat, initial.flat)
        want = predict_assignments(initial, dataset.samples)
        np.testing.assert_array_equal(report.assignments, want)


class TestInstanceSpaceAssignments:
    def test_recovers_blobs_after_instance_only_training(self):
        config = small_config(training={"epochs": 30}, ablation="ich_only")
        dataset = build_dataset(config.dataset)
        params, _ = train(config, dataset)
        labels = instance_space_assignments(params, dataset.samples, seed=0)
        assert clustering_accuracy(dataset.labels, labels) >= 0.9

    def test_overflowing_norms_keep_their_directions(self):
        # Scaling the last instance-head layer by 2**520 scales z exactly,
        # and its squared norms past the float range: the labels must not
        # change, and no overflow warning may be printed.
        config = small_config(ablation="ich_only")
        dataset = build_dataset(config.dataset)
        params = init_params(config.resolve(dataset).model, dataset.dim)
        want = instance_space_assignments(params, dataset.samples, seed=0)
        last = max(name for name in params.arrays if name.startswith("instance_head."))
        layer = last.rsplit(".", 1)[0]
        for name in (f"{layer}.weight", f"{layer}.bias"):
            params.arrays[name] *= 2.0**520
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = instance_space_assignments(params, dataset.samples, seed=0)
        assert len(np.unique(want)) == 4
        np.testing.assert_array_equal(got, want)

    def test_deterministic_in_seed(self):
        config = small_config(training={"epochs": 5})
        dataset = build_dataset(config.dataset)
        params, _ = train(config, dataset)
        a = instance_space_assignments(params, dataset.samples, seed=9)
        b = instance_space_assignments(params, dataset.samples, seed=9)
        np.testing.assert_array_equal(a, b)


class TestEntropyTermPreventsCollapse:
    # The acceptance gate's 4 well-separated blobs of 128, trained on the
    # cluster term alone for 50 epochs. Without the entropy term seeds 2
    # and 3 merge two blobs into one cluster and split another between the
    # two clusters left, so the smallest of the four holds at most
    # (512 - 256) / 3 = 85; with it both recover all four blobs exactly.
    GATE_BLOBS = {**BLOBS, "n_per": 128, "dim": 16, "separation": 10.0, "seed": 7}

    def run(self, seed, entropy_weight):
        config = ExperimentConfig.from_dict(
            {
                "dataset": self.GATE_BLOBS,
                "ablation": "cch_only",
                "training": {"epochs": 50},
                "losses": {"entropy_weight": entropy_weight},
                "seed": seed,
            }
        )
        _, report = train(config, build_dataset(config.dataset))
        return report.records[-1].acc, np.bincount(report.assignments, minlength=4).min()

    @pytest.mark.parametrize("seed", [2, 3])
    def test_without_the_entropy_term_the_clusters_collapse(self, seed):
        acc, smallest = self.run(seed, 0.0)
        assert acc < 0.8 and smallest < 100, (acc, smallest)

    @pytest.mark.parametrize("seed", [2, 3])
    def test_with_the_entropy_term_every_blob_is_a_cluster(self, seed):
        acc, smallest = self.run(seed, 1.0)
        assert acc == 1.0 and smallest == 128, (acc, smallest)
