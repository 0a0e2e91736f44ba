"""End-to-end command-line tests: artifacts, determinism, error paths."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dualclust
from dualclust.cli import main
from dualclust.config import ExperimentConfig, build_dataset
from dualclust.data import load_csv, read_label_csv, write_label_csv
from dualclust.metrics import ari, clustering_accuracy, nmi
from dualclust.trainer import REPORT_COLUMNS

from helpers import rewrite_header

BASE_CONFIG = {
    "dataset": {
        "kind": "gaussian_blobs",
        "k": 3,
        "n_per": 16,
        "dim": 6,
        "separation": 8.0,
        "sigma": 1.0,
        "seed": 2,
    },
    "model": {"encoder_widths": [16], "instance_dim": 8},
    "training": {"batch_size": 16, "epochs": 3},
    "seed": 1,
}

# sha256 of two artifacts of BASE_CONFIG runs at 10 epochs, keyed by the
# overrides of each run: the default `full` run, and a `cch_only` run with the
# other branch of both loss options. A change that alters any trained value,
# report cell or checkpoint byte changes them, so a refactor that must keep
# runs byte-identical is checked here. All four digests were last
# re-recorded when NT-Xent began to shift every logit by 1/tau, in place
# of each row's max, and to form its gradient as one product: views are
# unchanged, but the losses and gradients round differently (report cells
# moved by at most 8.9e-16 on these runs).
# Training goes through BLAS matmuls and libm exp/log, so a platform that
# rounds differently in the last bit gives other digests.
PINNED_RUNS = [
    (
        {},
        {
            "report.csv": "17c9915270577c82911a6c083d86969aa6578b3cf81a17b1ac07ecfaece73ddf",
            "checkpoint.bin": "d9bfe289fc1e9f37a8a2eec8febf9d2c00c8cf62310c29cbd0f912cc1dd9870e",
        },
    ),
    (
        {
            "ablation": "cch_only",
            "losses": {"exclude_self_similarity": False, "literal_entropy_sign": True},
        },
        {
            "report.csv": "507c0e1beec5f5bcf37e3c17c050d1ecc91546f8cb453917eeba1006c8f05576",
            "checkpoint.bin": "78ffc79f934a5ff35c2d1c4820e63ac3cf54e5620df5770eb7c3d47544dfcc8d",
        },
    ),
]


@pytest.fixture
def config_path(tmp_path):
    def write(out_dir=None, **overrides):
        raw = json.loads(json.dumps(BASE_CONFIG))
        for key, value in overrides.items():
            if isinstance(value, dict) and key in raw:
                raw[key].update(value)
            else:
                raw[key] = value
        if out_dir is not None:
            raw["out_dir"] = str(out_dir)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        return str(path)

    return write


class TestRun:
    def test_writes_all_artifacts(self, tmp_path, config_path):
        out = tmp_path / "run"
        assert main(["run", "--config", config_path(out_dir=out)]) == 0
        for name in (
            "config.resolved.json",
            "report.csv",
            "assignments.csv",
            "metrics.json",
            "checkpoint.bin",
        ):
            assert (out / name).exists(), name
        assert not (out / ".lock").exists()

    def test_metrics_json_schema_and_ranges(self, tmp_path, config_path):
        out = tmp_path / "run"
        main(["run", "--config", config_path(out_dir=out)])
        bundle = json.loads((out / "metrics.json").read_text())
        assert set(bundle) == {"nmi", "acc", "ari"}
        assert 0.0 <= bundle["nmi"] <= 1.0
        assert 0.0 <= bundle["acc"] <= 1.0
        assert -0.5 <= bundle["ari"] <= 1.0

    def test_report_header_and_row_count(self, tmp_path, config_path):
        out = tmp_path / "run"
        main(["run", "--config", config_path(out_dir=out)])
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == ",".join(REPORT_COLUMNS)
        assert len(lines) == 1 + 3  # header + one row per epoch

    def test_assignments_cover_every_sample(self, tmp_path, config_path):
        out = tmp_path / "run"
        main(["run", "--config", config_path(out_dir=out)])
        labels = read_label_csv(out / "assignments.csv")
        assert len(labels) == 48
        assert set(np.unique(labels)) <= {0, 1, 2}

    def test_identical_config_and_seed_byte_identical(self, tmp_path, config_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", config_path(out_dir=out_a)])
        main(["run", "--config", config_path(out_dir=out_b)])
        assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
        assert (
            out_a / "checkpoint.bin"
        ).read_bytes() == (out_b / "checkpoint.bin").read_bytes()

    def test_seed_override_changes_report(self, tmp_path, config_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", config_path(out_dir=out_a)])
        main(["run", "--config", config_path(out_dir=out_b), "--seed", "9"])
        assert (out_a / "report.csv").read_bytes() != (out_b / "report.csv").read_bytes()
        echoed = json.loads((out_b / "config.resolved.json").read_text())
        assert echoed["seed"] == 9

    def test_out_override_wins_over_config(self, tmp_path, config_path):
        out = tmp_path / "explicit"
        main(["run", "--config", config_path(out_dir=tmp_path / "ignored"), "--out", str(out)])
        assert (out / "metrics.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_missing_out_dir_fails(self, tmp_path, config_path, capsys):
        assert main(["run", "--config", config_path()]) == 1
        assert "out_dir" in capsys.readouterr().err

    def test_resolved_echo_reruns_identically(self, tmp_path, config_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", config_path(out_dir=out_a)])
        code = main(
            ["run", "--config", str(out_a / "config.resolved.json"), "--out", str(out_b)]
        )
        assert code == 0
        assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()

    def test_locked_directory_fails_without_clobbering(self, tmp_path, config_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / ".lock").write_text("1234")
        assert main(["run", "--config", config_path(out_dir=out)]) == 1
        assert "locked" in capsys.readouterr().err
        assert (out / ".lock").exists()
        assert not (out / "metrics.json").exists()

    def test_failed_run_leaves_no_metrics_json(self, tmp_path, config_path, capsys):
        out = tmp_path / "run"
        code = main(
            ["run", "--config", config_path(out_dir=out, training={"batch_size": 4096})]
        )
        assert code == 1
        assert "batch_size" in capsys.readouterr().err
        assert not (out / "metrics.json").exists()
        assert not (out / ".lock").exists()

    def test_unknown_config_key_fails_with_path(self, tmp_path, config_path, capsys):
        assert main(["run", "--config", config_path(out_dir=tmp_path, extra=1)]) == 1
        assert "extra" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, path",
        [
            ({"seed": -1}, "seed"),
            ({"model": {**BASE_CONFIG["model"], "init_seed": -3}}, "model.init_seed"),
            ({"dataset": {**BASE_CONFIG["dataset"], "seed": -2}}, "dataset.seed"),
            ({"dataset": {"kind": "two_moons", "n": 40, "noise": 0.1, "seed": -5}}, "dataset.seed"),
        ],
        ids=["seed", "init_seed", "blobs_seed", "moons_seed"],
    )
    def test_negative_seed_fails_with_path(self, tmp_path, capsys, section, path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**BASE_CONFIG, **section, "out_dir": str(tmp_path / "run")}))
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error [ConfigError]: config: {path}: must be nonnegative\n"

    def test_negative_seed_override_fails(self, tmp_path, config_path, capsys):
        assert main(["run", "--config", config_path(out_dir=tmp_path / "run"), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error [ConfigError]: config: seed: must be nonnegative\n"
        assert not (tmp_path / "run" / "metrics.json").exists()

    @pytest.mark.parametrize(
        "field, value",
        [("instance_dim", 0), ("encoder_widths", [0]), ("cluster_count", 1), ("head_hidden_dim", 0)],
    )
    def test_bad_model_setting_fails_before_any_artifact(
        self, tmp_path, config_path, capsys, field, value
    ):
        out = tmp_path / "run"
        assert main(["run", "--config", config_path(out_dir=out, model={field: value})]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [ConfigError]: config: model.{field}: "), err
        assert not out.exists() or not any(out.iterdir())

    def test_image_transform_on_vector_data_fails_before_any_artifact(
        self, tmp_path, config_path, capsys
    ):
        out = tmp_path / "run"
        flip = {"kind": "horizontal_flip", "probability": 0.5}
        path = config_path(out_dir=out, augmentation={"transforms": [flip]})
        assert main(["run", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [ConfigError]: config: augmentation.transforms[0]: "), err
        assert not out.exists() or not any(out.iterdir())

    def test_overflowing_view_fails_with_its_location(self, tmp_path, config_path, capsys):
        # No errstate: under pytest a RuntimeWarning is an error, so the
        # overflow must stay silent and end in the located ContractError.
        scale = {"kind": "scale_jitter", "probability": 1.0, "low": 1.7e308, "high": 1.7e308}
        path = config_path(
            out_dir=tmp_path / "run",
            dataset={"k": 2, "n_per": 8},
            augmentation={"transforms": [scale]},
        )
        assert main(["run", "--config", path]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"error \[ContractError\]: epoch 0, batch 0: sample (\d+): make_pair: view 0: "
            r"transform scale_jitter produced non-finite values\n",
            err,
        ), err

    def test_label_only_csv_fails_before_any_artifact(self, tmp_path, capsys):
        data = tmp_path / "labels.csv"
        data.write_text("label\n0\n1\n0\n1\n")
        out = tmp_path / "run"
        raw = {**BASE_CONFIG, "out_dir": str(out)}
        raw["dataset"] = {"kind": "csv", "path": str(data), "label_column": "label"}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [FormatError]: {data}: label column 'label' "), err
        assert not out.exists() or not any(out.iterdir())

    def test_ich_only_uses_kmeans_pathway(self, tmp_path, config_path):
        out = tmp_path / "run"
        code = main(
            [
                "run",
                "--config",
                config_path(out_dir=out, ablation="ich_only", training={"epochs": 20}),
            ]
        )
        assert code == 0
        bundle = json.loads((out / "metrics.json").read_text())
        # k-means over trained instance features separates these blobs.
        assert bundle["acc"] >= 0.9

    @pytest.mark.parametrize(
        "ablation", ["full", "ich_only", "cch_only", "raw_second_view", "raw_both_views"]
    )
    def test_last_report_row_has_the_metrics_json_metrics(self, tmp_path, config_path, ablation):
        # One assignment pathway: the last epoch's metric cells score the
        # assignments that assignments.csv and metrics.json are written from.
        out = tmp_path / "run"
        assert main(["run", "--config", config_path(out_dir=out, ablation=ablation)]) == 0
        rows = [line.split(",") for line in (out / "report.csv").read_text().splitlines()]
        header, *records = rows
        cells = [dict(zip(header, record)) for record in records]
        metrics = json.loads((out / "metrics.json").read_text())
        assert {key: float(cells[-1][key]) for key in metrics} == metrics
        labels = read_label_csv(out / "assignments.csv")
        truth = build_dataset(ExperimentConfig.from_dict(BASE_CONFIG).dataset).labels
        assert clustering_accuracy(truth, labels) == metrics["acc"]
        # ich_only never trains the cluster head: no earlier epoch is scored.
        earlier = {cell for row in cells[:-1] for cell in (row["nmi"], row["acc"], row["ari"])}
        assert (earlier == {""}) == (ablation == "ich_only")

    def test_artifacts_match_pinned_digest(self, tmp_path, config_path):
        for i, (overrides, pinned) in enumerate(PINNED_RUNS):
            out = tmp_path / f"run{i}"
            config = config_path(out_dir=out, training={"epochs": 10}, **overrides)
            assert main(["run", "--config", config]) == 0
            digests = {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in pinned}
            assert digests == pinned, overrides


class TestEval:
    def test_matches_run_metrics(self, tmp_path, config_path, capsys):
        out = tmp_path / "run"
        main(["run", "--config", config_path(out_dir=out)])
        capsys.readouterr()
        code = main(
            [
                "eval",
                "--config",
                config_path(out_dir=out),
                "--checkpoint",
                str(out / "checkpoint.bin"),
            ]
        )
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        stored = json.loads((out / "metrics.json").read_text())
        assert printed == stored

    @pytest.mark.parametrize("ablation", ["full", "ich_only", "cch_only"])
    def test_unlabeled_dataset_fails_in_every_mode(self, tmp_path, capsys, ablation):
        data = tmp_path / "unlabeled.csv"
        data.write_text("".join(f"{i % 3 * 9.0},{i % 2},{i % 5}\n" for i in range(48)))
        out = tmp_path / "run"
        raw = {**BASE_CONFIG, "dataset": {"kind": "csv", "path": str(data)}, "out_dir": str(out)}
        raw["model"] = {**raw["model"], "cluster_count": 3}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        assert main(["run", "--config", str(config)]) == 0
        bundle = json.loads((out / "metrics.json").read_text())
        assert bundle == {"nmi": None, "acc": None, "ari": None}
        capsys.readouterr()
        config.write_text(json.dumps({**raw, "ablation": ablation}))
        checkpoint = str(out / "checkpoint.bin")
        assert main(["eval", "--config", str(config), "--checkpoint", checkpoint]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [ContractError]: eval: the csv dataset of {config} ")
        assert "has no ground-truth labels" in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("instance_dim", 2.0),
            ("instance_dim", 8.0),  # the saved width as a float: once numpy's TypeError
            ("encoder_widths", [3.5]),
            ("encoder_widths", ["3"]),
            ("init_seed", -1),
            ("init_seed", 1.5),
            ("head_hidden_dim", None),
        ],
    )
    def test_bad_checkpoint_header_fails_with_path(self, tmp_path, config_path, capsys, key, value):
        out = tmp_path / "run"
        assert main(["run", "--config", config_path(out_dir=out)]) == 0
        broken = tmp_path / "broken.bin"
        rewrite_header(out / "checkpoint.bin", broken, lambda h: h["config"].update({key: value}))
        capsys.readouterr()
        assert main(["eval", "--config", config_path(), "--checkpoint", str(broken)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [FormatError]: checkpoint: header config"), err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "overrides, field, ours, theirs",
        [
            # Four blobs infer cluster_count 4; the checkpoint's run had three.
            ({"dataset": {"k": 4}}, "model.cluster_count", 4, 3),
            # Blobs 4 wide, where the checkpoint's encoder takes 6 inputs.
            ({"dataset": {"dim": 4}}, "model.input_dim", 4, 6),
        ],
    )
    def test_checkpoint_that_does_not_fit_the_config_fails_naming_both_files(
        self, tmp_path, config_path, capsys, overrides, field, ours, theirs
    ):
        out = tmp_path / "run"
        assert main(["run", "--config", config_path(out_dir=out)]) == 0
        checkpoint = str(out / "checkpoint.bin")
        config = config_path(**overrides)
        capsys.readouterr()
        assert main(["eval", "--config", config, "--checkpoint", checkpoint]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error [ConfigError]: eval: {field} is {ours} for {config} and its dataset, "
            f"but {theirs} in the checkpoint {checkpoint}\n"
        )

    def test_corrupt_checkpoint_fails(self, tmp_path, config_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"not a checkpoint")
        assert main(["eval", "--config", config_path(), "--checkpoint", str(bad)]) == 1
        assert "error" in capsys.readouterr().err


class TestMetricsCommand:
    def test_identical_files_score_one(self, tmp_path, capsys):
        path = tmp_path / "labels.csv"
        write_label_csv(path, [0, 1, 2, 0, 1, 2])
        assert main(["metrics", str(path), str(path)]) == 0
        bundle = json.loads(capsys.readouterr().out)
        assert bundle == {"nmi": 1.0, "acc": 1.0, "ari": 1.0}

    def test_matches_module_oracles(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        predicted = rng.integers(0, 3, size=30)
        truth = rng.integers(0, 3, size=30)
        pred_path, truth_path = tmp_path / "p.csv", tmp_path / "t.csv"
        write_label_csv(pred_path, predicted)
        write_label_csv(truth_path, truth)
        main(["metrics", str(pred_path), str(truth_path)])
        bundle = json.loads(capsys.readouterr().out)
        assert bundle["nmi"] == pytest.approx(nmi(truth, predicted), abs=1e-15)
        assert bundle["acc"] == pytest.approx(
            clustering_accuracy(truth, predicted), abs=1e-15
        )
        assert bundle["ari"] == pytest.approx(ari(truth, predicted), abs=1e-15)

    def test_all_distinct_predicted_labels_scored_without_padding(self, tmp_path, capsys):
        """2,000 singleton clusters against 10 classes: a one-to-one map
        matches at most one sample per class, and one of each class is
        always reachable, so ACC is 10 / 2,000. Padding the 2,000 x 10
        table to square would make this call take hours."""
        rng = np.random.default_rng(4)
        pred_path, truth_path = tmp_path / "p.csv", tmp_path / "t.csv"
        write_label_csv(pred_path, rng.permutation(2000))
        write_label_csv(truth_path, rng.permutation(np.arange(2000) % 10))
        assert main(["metrics", str(pred_path), str(truth_path)]) == 0
        assert json.loads(capsys.readouterr().out)["acc"] == 10 / 2000

    def test_length_mismatch_fails(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_label_csv(a, [0, 1, 0])
        write_label_csv(b, [0, 1])
        assert main(["metrics", str(a), str(b)]) == 1
        assert "length" in capsys.readouterr().err

    def test_empty_file_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        truth = tmp_path / "t.csv"
        write_label_csv(truth, [0, 1])
        assert main(["metrics", str(empty), str(truth)]) == 1
        assert "error" in capsys.readouterr().err


def test_scipy_stays_unloaded_through_run_and_metrics(tmp_path, config_path):
    """The package needs only numpy at run time; scipy is a test oracle."""
    config = config_path(out_dir=tmp_path / "out")
    labels = str(tmp_path / "out" / "assignments.csv")
    script = f"""
import sys
from dualclust import cli
loaded = ["scipy" in sys.modules]
assert cli.main(["run", "--config", {config!r}]) == 0
loaded.append("scipy" in sys.modules)
assert cli.main(["metrics", {labels!r}, {labels!r}]) == 0
loaded.append("scipy" in sys.modules)
print(loaded)
"""
    result = run_python(script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[False, False, False]"


def run_python(script, **env_overrides):
    """Run ``script`` in a fresh interpreter that imports this package."""
    src = str(Path(dualclust.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **env_overrides)
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )


def test_artifacts_do_not_depend_on_blas_threads(tmp_path):
    """Run artifacts are byte-identical under one and two BLAS threads. At
    B = 256 the 2B x 2B NT-Xent products are large enough to be threaded."""
    raw = {
        "dataset": {
            "kind": "gaussian_blobs",
            "k": 4,
            "n_per": 256,
            "dim": 16,
            "separation": 8.0,
            "sigma": 1.0,
            "seed": 0,
        },
        "model": {"encoder_widths": [32], "instance_dim": 16},
        "training": {"batch_size": 256, "epochs": 2},
        "ablation": "ich_only",
    }
    names = ("report.csv", "checkpoint.bin", "assignments.csv")
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        config = tmp_path / f"threads{threads}.json"
        config.write_text(json.dumps({**raw, "out_dir": str(out)}))
        argv = ["run", "--config", str(config)]
        script = f"from dualclust.cli import main; raise SystemExit(main({argv!r}))"
        result = run_python(script, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        assert result.returncode == 0, result.stderr
        digests.append({n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names})
    assert digests[0] == digests[1]


class TestGenerate:
    def test_vector_dataset_round_trips(self, tmp_path, config_path):
        out = tmp_path / "gen"
        assert main(["generate", "--config", config_path(), "--out", str(out)]) == 0
        dataset = load_csv(out / "data.csv", label_column=6)
        assert dataset.n == 48
        assert dataset.dim == 6
        assert len(np.unique(dataset.labels)) == 3

    def test_generated_data_trains(self, tmp_path, config_path):
        gen = tmp_path / "gen"
        main(["generate", "--config", config_path(), "--out", str(gen)])
        run_config = {
            "dataset": {
                "kind": "csv",
                "path": str(gen / "data.csv"),
                "label_column": 6,
            },
            "model": {"encoder_widths": [16], "instance_dim": 8},
            "training": {"batch_size": 16, "epochs": 2},
            "out_dir": str(tmp_path / "run"),
        }
        path = tmp_path / "from_csv.json"
        path.write_text(json.dumps(run_config))
        assert main(["run", "--config", str(path)]) == 0
        assert (tmp_path / "run" / "metrics.json").exists()
