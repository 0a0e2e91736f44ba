"""Optimizer, joint objective, training loop, and evaluation tests."""

import numpy as np
import pytest

import dualclust.autodiff as ad
from dualclust.config import (
    AugmentationSection,
    DatasetConfig,
    ExperimentConfig,
    ModelSection,
    TrainingSection,
    build_dataset,
)
from dualclust.data import Dataset, VectorGeometry
from dualclust.errors import ConfigError, ContractError, DegenerateInputError
from dualclust.losses import ClusterLossConfig, InstanceLossConfig, cluster_loss, instance_loss
from dualclust.metrics import clustering_accuracy
from dualclust.model import ModelConfig, init_params
from dualclust.trainer import (
    REPORT_COLUMNS,
    OptimizerState,
    TrainReport,
    adam_step,
    evaluate,
    instance_space_assignments,
    total_loss,
    train,
)

from helpers import reference_adam_step

TINY_MODEL = ModelConfig(
    input_dim=4, encoder_widths=(8,), cluster_count=3, instance_dim=6, init_seed=0
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
        state = OptimizerState.for_params(init_params(TINY_MODEL))
        assert state.learning_rate == 0.0003
        assert state.beta1 == 0.9
        assert state.beta2 == 0.999
        assert state.epsilon == 1e-8
        assert state.step == 0

    def test_accumulators_match_parameter_shapes(self):
        params = init_params(TINY_MODEL)
        state = OptimizerState.for_params(params)
        for moment in (state.m, state.v):
            assert moment.shape == params.flat.shape
            assert not np.shares_memory(moment, params.flat)
            assert not moment.any()


class TestAdamStep:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        params = init_params(TINY_MODEL)
        state = OptimizerState.for_params(params)
        before = param_snapshot(params)
        grads = [np.zeros_like(array) for _, array in params.arrays.items()]
        for _ in range(3):
            adam_step(params, grads, state)
        assert_params_equal(params, before)
        assert state.step == 3

    def test_first_step_matches_scalar_oracle(self):
        # Bias-corrected moments at step 1 reduce to m=g, v=g*g, so the
        # update is -lr * g / (|g| + eps) elementwise for any gradient.
        params = init_params(TINY_MODEL)
        state = OptimizerState.for_params(params)
        rng = np.random.default_rng(11)
        grads = [rng.normal(size=array.shape) for _, array in params.arrays.items()]
        before = param_snapshot(params)
        adam_step(params, grads, state)
        for (name, array), (_, old), g in zip(params.arrays.items(), before, grads):
            expected = old - state.learning_rate * g / (np.abs(g) + state.epsilon)
            np.testing.assert_allclose(array, expected, rtol=1e-12, err_msg=name)

    def test_hundred_steps_deterministic(self):
        results = []
        for _ in range(2):
            params = init_params(TINY_MODEL)
            state = OptimizerState.for_params(params)
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
        params = init_params(TINY_MODEL)
        state = OptimizerState.for_params(params, learning_rate=0.01)
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
        params = init_params(TINY_MODEL)
        state = OptimizerState.for_params(params)
        grads = [np.zeros_like(a) for a in params.arrays.values()]
        grads[3][0, 1] = 1e160  # finite, but (1 - beta2) g^2 is not
        before, m, v = params.flat.copy(), state.m.copy(), state.v.copy()
        with pytest.raises(DegenerateInputError, match=r"gradient of instance_head\.0\.bias overflows"):
            adam_step(params, grads, state)
        assert state.step == 0
        for array, ref in ((params.flat, before), (state.m, m), (state.v, v)):
            np.testing.assert_array_equal(array, ref)

    def test_gradient_count_mismatch_rejected(self):
        params = init_params(TINY_MODEL)
        state = OptimizerState.for_params(params)
        with pytest.raises(ContractError, match="gradients"):
            adam_step(params, [np.zeros((4, 8))], state)

    def test_gradient_shape_mismatch_rejected(self):
        params = init_params(TINY_MODEL)
        state = OptimizerState.for_params(params)
        grads = [np.zeros_like(a) for _, a in params.arrays.items()]
        grads[0] = np.zeros((2, 2))
        with pytest.raises(ContractError, match="shape"):
            adam_step(params, grads, state)


def random_views(seed, n=6, dim=5, m=4):
    rng = np.random.default_rng(seed)
    z_a = rng.normal(size=(n, dim))
    z_b = rng.normal(size=(n, dim))
    logits_a = ad.lift(rng.normal(size=(n, m)))
    logits_b = ad.lift(rng.normal(size=(n, m)))
    y_a = ad.softmax_rows(logits_a).value
    y_b = ad.softmax_rows(logits_b).value
    return z_a, z_b, y_a, y_b


class TestTotalLoss:
    def test_both_terms_dropped_gives_zero(self):
        z_a, z_b, y_a, y_b = random_views(0)
        total = total_loss(
            z_a, z_b, y_a, y_b, include_instance=False, include_cluster=False
        )
        assert total.value[0, 0] == 0.0

    def test_cluster_only_equals_cluster_loss_exactly(self):
        z_a, z_b, y_a, y_b = random_views(1)
        total = total_loss(z_a, z_b, y_a, y_b, include_instance=False)
        direct = cluster_loss(y_a, y_b)
        assert total.value[0, 0] == direct.value[0, 0]

    def test_instance_only_equals_instance_loss_exactly(self):
        z_a, z_b, y_a, y_b = random_views(2)
        total = total_loss(z_a, z_b, y_a, y_b, include_cluster=False)
        direct = instance_loss(z_a, z_b)
        assert total.value[0, 0] == direct.value[0, 0]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_sum_of_independently_computed_terms(self, seed):
        z_a, z_b, y_a, y_b = random_views(seed)
        total = float(total_loss(z_a, z_b, y_a, y_b).value[0, 0])
        parts = float(instance_loss(z_a, z_b).value[0, 0]) + float(
            cluster_loss(y_a, y_b).value[0, 0]
        )
        assert abs(total - parts) < 1e-14

    def test_custom_configs_are_honored(self):
        z_a, z_b, y_a, y_b = random_views(7)
        inst = InstanceLossConfig(temperature=0.25)
        clu = ClusterLossConfig(temperature=2.0, entropy_weight=0.5)
        total = float(total_loss(z_a, z_b, y_a, y_b, inst, clu).value[0, 0])
        parts = float(instance_loss(z_a, z_b, inst).value[0, 0]) + float(
            cluster_loss(y_a, y_b, clu).value[0, 0]
        )
        assert abs(total - parts) < 1e-14


class TestTrain:
    def test_zero_epochs_returns_initial_params(self):
        config = small_config(training={"epochs": 0})
        dataset = build_dataset(config.dataset)
        params, report = train(config, dataset)
        reference = init_params(config.resolve(dataset).model.model_config(dataset.dim))
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
            dataset=DatasetConfig(kind="csv", params={"path": "unused.csv"}),
            model=ModelSection(encoder_widths=(8,), instance_dim=4, cluster_count=2),
            training=TrainingSection(batch_size=4, epochs=1),
            augmentation=AugmentationSection(
                preset=None, transforms=({"kind": "identity", "probability": 1.0},)
            ),
        )
        with pytest.raises(DegenerateInputError, match=r"epoch 0, batch 0"):
            train(config, dataset)

    @pytest.mark.parametrize(
        "overrides, where",
        [
            (
                {"ablation": "ich_only", "training": {"learning_rate": 1e300}},
                "epoch 0, batch 1: loss term l_ins",
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

    def test_non_finite_gradient_named(self):
        params = init_params(TINY_MODEL)
        state = OptimizerState.for_params(params)
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
        reference = init_params(config.resolve(dataset).model.model_config(dataset.dim))
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
        reference = init_params(config.resolve(dataset).model.model_config(dataset.dim))
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
            dataset=DatasetConfig(kind="csv", params={"path": "unused.csv"}),
            model=ModelSection(encoder_widths=(8,), instance_dim=4, cluster_count=3),
            training=TrainingSection(batch_size=8, epochs=2),
        )
        _, report = train(config, dataset)
        for record in report.records:
            assert record.nmi is None and record.acc is None and record.ari is None
        line = report.csv_text().splitlines()[1]
        assert ",,," in line

    def test_report_header_matches_columns(self):
        assert TrainReport().csv_text() == ",".join(REPORT_COLUMNS) + "\n"


def identity_routing_params(permutation):
    """A hand-built model on 4-dim one-hot inputs whose predicted cluster
    is permutation[argmax coordinate]."""
    config = ModelConfig(
        input_dim=4,
        encoder_widths=(4,),
        cluster_count=4,
        instance_dim=4,
        head_hidden_dim=4,
        init_seed=0,
    )
    params = init_params(config)
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
        bundle = evaluate(params, dataset)
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
        bundle = evaluate(params, dataset)
        assert bundle["acc"] == 0.25

    def test_independent_assignments_have_near_zero_ari(self):
        rng = np.random.default_rng(42)
        routed = rng.integers(0, 4, size=1000)
        truth = rng.integers(0, 4, size=1000)
        dataset = Dataset(np.eye(4)[routed], VectorGeometry(4), truth)
        params = identity_routing_params([0, 1, 2, 3])
        bundle = evaluate(params, dataset)
        assert -0.05 <= bundle["ari"] <= 0.05

    def test_unlabeled_dataset_rejected(self):
        dataset = Dataset(np.eye(4), VectorGeometry(4))
        with pytest.raises(ContractError, match="labels"):
            evaluate(identity_routing_params([0, 1, 2, 3]), dataset)


class TestInstanceSpaceAssignments:
    def test_recovers_blobs_after_instance_only_training(self):
        config = small_config(training={"epochs": 30}, ablation="ich_only")
        dataset = build_dataset(config.dataset)
        params, _ = train(config, dataset)
        labels = instance_space_assignments(params, dataset.samples, 4, seed=0)
        assert clustering_accuracy(dataset.labels, labels) >= 0.9

    def test_deterministic_in_seed(self):
        config = small_config(training={"epochs": 5})
        dataset = build_dataset(config.dataset)
        params, _ = train(config, dataset)
        a = instance_space_assignments(params, dataset.samples, 4, seed=9)
        b = instance_space_assignments(params, dataset.samples, 4, seed=9)
        np.testing.assert_array_equal(a, b)
