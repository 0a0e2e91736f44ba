"""Command-line experiment runner.

Subcommands: ``run`` (train + artifacts), ``eval`` (checkpoint ->
metrics), ``metrics`` (two label CSVs -> metric JSON), ``generate``
(synthesize a dataset to files). Artifacts are written atomically
(temp file + rename) so an interrupted run never leaves a
plausible-looking partial file, and an output directory is locked
against concurrent runs for its duration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, build_dataset, load_config
from .data import (
    Dataset,
    ImageGeometry,
    read_label_csv,
    save_csv,
    save_idx,
    write_label_csv,
)
from .errors import ConfigError, ContractError, DualclustError
from .model import load_checkpoint, save_checkpoint
from .trainer import assign, evaluate, metric_bundle, train

# Importable from here for perfbench/spans.py, which wraps them by name.
from .model import predict_assignments  # noqa: F401
from .trainer import instance_space_assignments  # noqa: F401

LOCK_NAME = ".lock"


def _atomic_write(writer, *paths: Path) -> None:
    """Run ``writer`` on a temporary sibling of each path, then rename
    each result into place, in order."""
    tmps = [path.with_name(path.name + ".tmp") for path in paths]
    writer(*tmps)
    for tmp, path in zip(tmps, paths):
        os.replace(tmp, path)


class _OutputLock:
    """Exclusive marker file guarding an output directory.

    Creation is O_EXCL so two concurrent runs cannot both hold it; a
    crash leaves the file behind, reported with removal instructions.
    """

    def __init__(self, out_dir: Path):
        self.path = out_dir / LOCK_NAME
        self.fd = None

    def __enter__(self):
        try:
            self.fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise ContractError(
                f"output directory {self.path.parent} is locked by another run "
                f"(delete {self.path} if that run is dead)"
            ) from None
        os.write(self.fd, str(os.getpid()).encode())
        return self

    def __exit__(self, *exc_info):
        if self.fd is not None:
            os.close(self.fd)
            os.unlink(self.path)
        return False


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    if getattr(args, "out", None) is not None:
        config = replace(config, out_dir=args.out)
    return config


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_run(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    if config.out_dir is None:
        raise ConfigError("config: out_dir is required (set it or pass --out)")
    dataset = build_dataset(config.dataset)
    config = config.resolve(dataset)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with _OutputLock(out):
        echo = _json_text(config.to_dict())
        _atomic_write(lambda p: p.write_text(echo), out / "config.resolved.json")
        params, report = train(config, dataset)
        # The last epoch's evaluation assigned the final model; a run that
        # evaluated nothing (no labels, or no epochs) assigns it here.
        assignments = report.assignments
        if assignments is None:
            assignments = assign(params, dataset.samples, config.ablation, config.seed)
        _atomic_write(lambda p: p.write_text(report.csv_text()), out / "report.csv")
        _atomic_write(lambda p: write_label_csv(p, assignments), out / "assignments.csv")
        _atomic_write(lambda p: save_checkpoint(p, params), out / "checkpoint.bin")
        # Metrics last: an aborted run leaves no metrics file at all.
        bundle = _json_text(metric_bundle(dataset.labels, assignments))
        _atomic_write(lambda p: p.write_text(bundle), out / "metrics.json")
    print(f"run complete: artifacts in {out}")
    return 0


def cmd_eval(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    dataset = build_dataset(config.dataset)
    if dataset.labels is None:
        raise ContractError(
            f"eval: the {config.dataset.kind} dataset of {args.config} has no "
            "ground-truth labels to score against"
        )
    config = config.resolve(dataset)
    params = load_checkpoint(args.checkpoint)
    _check_checkpoint(config, dataset, params, args)
    bundle, _ = evaluate(params, dataset, config.ablation, config.seed)
    print(_json_text(bundle), end="")
    return 0


def _check_checkpoint(config: ExperimentConfig, dataset: Dataset, params, args) -> None:
    """The checkpoint must hold the model that the resolved config gives
    for its dataset: same input width, same layout, same cluster count."""
    fields = [("model.input_dim", dataset.dim, params.input_dim)]
    for name in ("encoder_widths", "instance_dim", "head_hidden_dim", "cluster_count"):
        fields.append((f"model.{name}", getattr(config.model, name), getattr(params.config, name)))
    for field, ours, theirs in fields:
        if ours != theirs:
            raise ConfigError(
                f"eval: {field} is {ours} for {args.config} and its dataset, "
                f"but {theirs} in the checkpoint {args.checkpoint}"
            )


def cmd_metrics(args) -> int:
    predicted = read_label_csv(args.predicted)
    truth = read_label_csv(args.truth)
    if len(predicted) != len(truth):
        raise ContractError(
            f"metrics: label files disagree on length, {len(predicted)} vs {len(truth)}"
        )
    print(_json_text(metric_bundle(truth, predicted)), end="")
    return 0


def cmd_generate(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    if config.out_dir is None:
        raise ConfigError("config: out_dir is required (set it or pass --out)")
    dataset = build_dataset(config.dataset)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if isinstance(dataset.geometry, ImageGeometry):
        paths = [out / "images.idx"] + ([out / "labels.idx"] if dataset.labels is not None else [])
        _atomic_write(lambda images, labels=None: save_idx(images, dataset, labels), *paths)
        print(f"generated {dataset.n} images in {out}")
    else:
        matrix = dataset.samples
        if dataset.labels is not None:
            matrix = np.column_stack([dataset.samples, dataset.labels.astype(np.float64)])
        _atomic_write(lambda p: save_csv(p, matrix), out / "data.csv")
        print(f"generated {dataset.n} samples in {out / 'data.csv'}")
        if dataset.labels is not None:
            print(f"labels are column {dataset.dim} (last)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualclust",
        description="Contrastive clustering experiments: train, evaluate, score.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="train a model and write artifacts")
    run.add_argument("--config", required=True, help="path to a JSON config")
    run.add_argument("--seed", type=int, help="override the config seed")
    run.add_argument("--out", help="override the config output directory")
    run.set_defaults(handler=cmd_run)

    ev = sub.add_parser("eval", help="score a checkpoint against a labeled dataset")
    ev.add_argument("--config", required=True, help="config supplying the dataset")
    ev.add_argument("--checkpoint", required=True, help="checkpoint file to load")
    ev.add_argument("--seed", type=int, help="override the config seed")
    ev.set_defaults(handler=cmd_eval)

    met = sub.add_parser("metrics", help="score two (sample_id, cluster) CSVs")
    met.add_argument("predicted", help="predicted labels CSV")
    met.add_argument("truth", help="ground-truth labels CSV")
    met.set_defaults(handler=cmd_metrics)

    gen = sub.add_parser("generate", help="synthesize a dataset to files")
    gen.add_argument("--config", required=True, help="config supplying the dataset")
    gen.add_argument("--out", help="override the config output directory")
    gen.set_defaults(handler=cmd_generate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except DualclustError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error [OSError]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
