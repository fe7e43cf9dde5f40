"""The benchmark's workloads, each driven through calmkit's public entry points.

default      `run_experiment` on the default config: the run users make.
order        `ablation_suite(config, "order")`: one trained pipeline, then
             P(8,2) = 56 points of sample -> merge -> evaluate.
staged-wide  the staged CLI in-process (`cli.main`) on a (256, 256) MLP:
             gen-tasks, pretrain, finetune, sample, then merge + eval for
             avg, ta, ties and calm. Every command reads its inputs from disk.

An operation is one experiment, one suite point or one CLI command. It fails
on an exception, on a non-zero exit code, or when its report is malformed.
"""
from __future__ import annotations

import csv
import io
import math
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from calmkit.bench import cli
from calmkit.bench.config import build_config
from calmkit.bench.runner import ablation_suite, run_experiment

STAGED_COMMANDS = ([["gen-tasks"], ["pretrain"], ["finetune"], ["sample"]]
                   + [[command, "--method", method] for method in ("avg", "ta", "ties", "calm")
                      for command in ("merge", "eval")])
# The config seeds the benchmark runs on. Fine-tuning ends the pipeline with a
# StageError when a task misses the 0.90 accuracy floor, which the default
# config does on some seeds (2 of 150 random seeds; on 1206771713 task 7
# reaches 0.890). Every seed in range(CONFIG_SEEDS) completes all three
# workloads; `check_seeds.py` reruns that check.
CONFIG_SEEDS = 32
# (256, 256) at the default lr 0.05 misses the 0.90 fine-tune accuracy floor
WIDE_ENTRIES = {"train.hidden_dims": "256,256", "train.pretrain_lr": "0.02",
                "train.finetune_lr": "0.02"}


@dataclass
class Rep:
    """One repetition of a workload."""

    wall_s: float
    attempted: int
    failed: int = 0
    # per operation, the report bytes that must repeat exactly on every run
    outputs: dict[str, bytes] = field(default_factory=dict)
    accuracy: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def config_seed(seed: int) -> int:
    """The config seed of a benchmark `--seed`; seeds 0..CONFIG_SEEDS-1 map to themselves."""
    return seed % CONFIG_SEEDS


def check_report(data: bytes, num_tasks: int) -> tuple[float | None, list[str]]:
    """The average accuracy of a report.csv, and what is wrong with it."""
    try:
        rows = list(csv.reader(io.StringIO(data.decode("ascii"))))
        per_task = [float(acc) for _, acc in rows[1:-1]]
        tasks = [int(t) for t, _ in rows[1:-1]]
        label, average = rows[-1][0], float(rows[-1][1])
    except (ValueError, IndexError, UnicodeDecodeError) as exc:
        return None, [f"report.csv does not parse: {exc}"]
    if rows[0] != ["task", "accuracy"] or tasks != list(range(num_tasks)) or label != "average":
        return None, [f"report.csv does not hold a header, tasks 0..{num_tasks - 1} and "
                      "the average"]
    errors = []
    if any(not 0.0 <= a <= 1.0 for a in per_task):
        errors.append("report.csv has an accuracy outside [0, 1]")
    if average != float(np.mean(per_task)):
        errors.append(f"report.csv average {average!r} is not the mean of its tasks")
    return average, errors


def expected_counters(config, merges: int) -> dict[str, int]:
    """Exact work of one training pipeline plus `merges` CALM merges under `config`."""
    family, train, plan = config.family, config.train, config.plan
    tasks, seq = family.num_tasks, plan.num_sequential
    sgd_steps = (train.pretrain_epochs
                 * math.ceil(tasks * family.train_per_task / train.batch_size)
                 + tasks * train.finetune_epochs
                 * math.ceil(family.train_per_task / train.batch_size))
    visible = sum(tasks - seq + k for k in range(1, seq + 1))
    return {
        "tasks.sgd_steps": sgd_steps,
        "calm.objective_calls": merges * seq * plan.iterations_per_task,
        "calm.forward_passes": (merges * plan.iterations_per_task
                                * plan.batches_per_task * visible),
    }


def _failure(rep: Rep, what: str):
    rep.failed += 1
    rep.errors.append(f"{what}:\n{traceback.format_exc(limit=-3)}")


class Default:
    name = "default"

    def prepare(self, entries: dict[str, str]):
        return build_config(entries)

    def expected(self, config) -> dict[str, int]:
        return expected_counters(config, merges=1)

    def run(self, config, workdir: Path, tracer=None) -> Rep:
        start = perf_counter()
        try:
            with _span(tracer, "op.run_experiment"):
                run_experiment(config, workdir)
        except Exception:  # one failed operation; the run goes on
            rep = Rep(perf_counter() - start, attempted=1)
            _failure(rep, "run_experiment")
            return rep
        rep = Rep(perf_counter() - start, attempted=1)
        report = (workdir / "report.csv").read_bytes()
        average, errors = check_report(report, config.family.num_tasks)
        rep.outputs["report.csv"] = report
        if errors:
            rep.failed, rep.errors = 1, errors
        else:
            rep.accuracy["acc_calm"] = average
        return rep


class Order:
    name = "order"

    def prepare(self, entries: dict[str, str]):
        return build_config({**entries, "method": "calm"})

    def points(self, config) -> int:
        return math.perm(config.family.num_tasks, config.plan.num_sequential)

    def expected(self, config) -> dict[str, int]:
        return expected_counters(config, merges=self.points(config))

    def run(self, config, workdir: Path, tracer=None) -> Rep:
        points = self.points(config)
        start = perf_counter()
        try:
            with _span(tracer, "op.ablation_suite"):
                ablation_suite(config, "order", workdir)
        except Exception:
            rep = Rep(perf_counter() - start, attempted=points)
            done = len(list(workdir.glob("order_*/report.csv")))
            rep.failed = points - done
            rep.errors.append(f"ablation_suite stopped after {done} of {points} points:\n"
                              f"{traceback.format_exc(limit=-3)}")
            return rep
        rep = Rep(perf_counter() - start, attempted=points)
        summary = (workdir / "summary.csv").read_bytes()
        try:
            rows = list(csv.reader(io.StringIO(summary.decode("ascii"))))
            point_rows = [(sequence, float(value)) for sequence, value in rows[1:-2]]
        except (ValueError, UnicodeDecodeError) as exc:
            rep.failed = points
            rep.errors.append(f"summary.csv does not parse: {exc}")
            return rep
        averages = []
        for sequence, value in point_rows:
            report = (workdir / f"order_{sequence}" / "report.csv").read_bytes()
            average, errors = check_report(report, config.family.num_tasks)
            if average is not None and average != value:
                errors.append(f"point {sequence}: summary.csv says {value}, report.csv "
                              f"says {average!r}")
            rep.outputs[f"order_{sequence}/report.csv"] = report
            if errors:
                rep.failed += 1
                rep.errors.extend(errors)
            averages.append(value)
        accs = np.array(averages)
        if (len(point_rows) != points
                or rows[-2:] != [["mean", repr(float(accs.mean()))],
                                 ["std", repr(float(accs.std()))]]):
            rep.failed = points
            rep.errors.append(f"summary.csv does not hold {points} points with their mean and std")
            return rep
        rep.outputs["summary.csv"] = summary
        rep.accuracy["acc_calm"] = float(accs.mean())
        rep.accuracy["acc_order_std"] = float(accs.std())
        return rep


class StagedWide:
    name = "staged-wide"

    def prepare(self, entries: dict[str, str]):
        """The CLI flags of every command, and the config the CLI resolves from them."""
        flags = [arg for key, value in {**WIDE_ENTRIES, **entries}.items()
                 for arg in (f"--{key}", value)]
        args = cli.build_parser().parse_args(["gen-tasks", *flags])
        return flags, cli.resolve_config(args)

    def expected(self, prepared) -> dict[str, int]:
        return expected_counters(prepared[1], merges=1)

    def run(self, prepared, workdir: Path, tracer=None) -> Rep:
        flags, config = prepared
        rep = Rep(0.0, attempted=len(STAGED_COMMANDS))
        start = perf_counter()
        for command in STAGED_COMMANDS:
            argv = [command[0], *flags, "--workdir", str(workdir), *command[1:]]
            label = " ".join(command)
            sink = io.StringIO()
            try:
                with _span(tracer, f"op.cli.{command[0]}"), redirect_stdout(sink), \
                        redirect_stderr(sink):
                    code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects its arguments this way
                code = exc.code
            except Exception:
                _failure(rep, f"calm-bench {label}")
                continue
            if code != 0:
                rep.failed += 1
                rep.errors.append(f"calm-bench {label} exited with {code}: "
                                  f"{sink.getvalue().strip()}")
                continue
            if command[0] == "eval":
                method = command[2]
                report = (workdir / "report.csv").read_bytes()
                average, errors = check_report(report, config.family.num_tasks)
                rep.outputs[f"{method}/report.csv"] = report
                if errors:
                    rep.failed += 1
                    rep.errors.extend(errors)
                else:
                    rep.accuracy[f"acc_{method}"] = average
        rep.wall_s = perf_counter() - start
        return rep


WORKLOADS = {w.name: w for w in (Default(), Order(), StagedWide())}
