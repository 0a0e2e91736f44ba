"""End-to-end command-line tests: artifacts, determinism, error paths."""

import json

import numpy as np
import pytest

from dualclust.cli import main
from dualclust.data import load_csv, read_label_csv, write_label_csv
from dualclust.metrics import ari, clustering_accuracy, nmi
from dualclust.trainer import REPORT_COLUMNS

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
