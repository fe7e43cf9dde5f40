"""Command-line bench harness.

Subcommands mirror the pipeline stages (gen-tasks, pretrain, finetune,
sample, merge, eval), plus `ablate` for sweeps and `report` to rebuild
reports from persisted artifacts. Each stage reads what the stages before it
persisted in the working directory through the runner's loaders: `merge` uses
the credible sets written by `sample`, and `eval` and `report` write the same
report files as `run_experiment`, the mask traces included. Every file records
the config keys of the stage that made it and of the stages before that one
(`pretrain` only the `train.` keys it reads), and every load compares them with
the config: changing a recorded key needs the first stage that records it run
again, and the stages after it; until then a later stage exits 2 naming the key
and that stage. `report` is recorded by no file. Every config key is also a flag
(`--family.num_tasks 4`); the CALMKIT_WORKDIR environment variable sets the
default working directory.

Exit codes: 0 success, 1 configuration error, 2 runtime/stage failure.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from ..nn import ContractError
from .config import (
    CONFIG_KEYS,
    ConfigError,
    ExperimentConfig,
    SUITES,
    build_config,
    default_config_text,
    parse_entries,
)
from .formats import FormatError
# wrapped by name in perfbench/tracing.py HOOKS; the runner's loaders call them
from .formats import load_checkpoint, load_tasks  # noqa: F401
from .runner import (
    CHECKPOINTS_FILE,
    CREDIBLE_FILE,
    DATASETS_FILE,
    MERGED_FILE,
    PRETRAINED_FILE,
    StageError,
    ablation_suite,
    load_checkpoints,
    load_credible,
    load_dataset,
    load_models,
    stage_evaluate,
    stage_finetune,
    stage_generate,
    stage_merge,
    stage_pretrain,
    stage_sample,
)


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", type=Path, default=None,
                        help="experiment config file (key = value lines)")
    parser.add_argument("--workdir", type=Path,
                        default=Path(os.environ.get("CALMKIT_WORKDIR", "calm_runs")),
                        help="artifact directory (default: $CALMKIT_WORKDIR or ./calm_runs)")
    for key in CONFIG_KEYS:
        parser.add_argument(f"--{key}", dest=f"cfg:{key}", metavar="VALUE", default=None,
                            help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calm-bench",
        description=("Reproducible desk-scale model merging benchmark. Any config key "
                     "can be passed as a flag, e.g. --seed 3 --family.num_tasks 4."),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "gen-tasks": "generate the synthetic task family and persist the dataset file",
        "pretrain": "train the shared pretrained model on the pooled train splits",
        "finetune": "fine-tune one model per task from the pretrained model",
        "sample": "score unlabeled pools and select credible sets",
        "merge": "merge the fine-tuned models with the configured method",
        "eval": "evaluate the merged model on every task's held-out test set",
        "ablate": "run an ablation suite (one swept axis, shared pipeline)",
        "report": "rewrite the reports of the merged model from persisted artifacts",
    }
    for name, description in descriptions.items():
        p = sub.add_parser(name, help=description)
        _add_common(p)
        if name == "ablate":
            p.add_argument("--suite", required=True,
                           help=f"one of: {', '.join(SUITES)}")
        if name == "report":
            p.add_argument("--defaults", action="store_true",
                           help="print the annotated default config and exit")
    return parser


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    entries: dict[str, str] = {}
    if args.config is not None:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{args.config}: not a UTF-8 text file ({exc})") from exc
        entries.update(parse_entries(text))
    for key in CONFIG_KEYS:
        value = getattr(args, f"cfg:{key}", None)
        if value is not None:
            entries[key] = value
    return build_config(entries)


def _run_command(args: argparse.Namespace) -> int:
    if args.command == "report" and args.defaults:
        sys.stdout.write(default_config_text())
        return 0
    config = resolve_config(args)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    if args.command == "gen-tasks":
        stage_generate(config, workdir)
        print(f"wrote {workdir / DATASETS_FILE}")
        return 0
    if args.command == "ablate":
        accuracies = ablation_suite(config, args.suite, workdir)
        print((workdir / "summary.csv").read_text(), end="")
        print(f"{len(accuracies)} points, mean accuracy {np.mean(accuracies):.4f}")
        return 0

    tasks = load_dataset(config, workdir)
    if args.command == "pretrain":
        stage_pretrain(config, workdir, tasks)
        print(f"wrote {workdir / PRETRAINED_FILE}")
    elif args.command == "finetune":
        (theta_pre,) = load_models(config, workdir / PRETRAINED_FILE, ["pretrained"])
        stage_finetune(config, workdir, tasks, theta_pre)
        print(f"wrote {workdir / CHECKPOINTS_FILE}")
    elif args.command == "sample":
        stage_sample(config, workdir, tasks, load_checkpoints(config, workdir))
        print(f"wrote {workdir / CREDIBLE_FILE}")
    elif args.command == "merge":
        stage_merge(config, workdir, tasks, load_checkpoints(config, workdir),
                    load_credible(config, workdir))
        print(f"wrote {workdir / MERGED_FILE}")
    else:  # eval and report: the same report, rebuilt from the persisted artifacts
        ckpt, credible = load_checkpoints(config, workdir), load_credible(config, workdir)
        (merged,) = load_models(config, workdir / MERGED_FILE, ["merged"])
        bundle = stage_evaluate(config, workdir, tasks, ckpt, merged, credible)
        print((workdir / "report.txt").read_text(), end="")
        if args.command == "eval":
            print(f"average accuracy: {bundle.average_accuracy:.4f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run_command(args)
    except (ConfigError, ContractError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (StageError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
