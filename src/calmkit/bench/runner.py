"""End-to-end experiment orchestration and ablation sweeps.

An experiment runs generate -> pretrain -> finetune -> sample -> merge ->
evaluate, persisting every stage's artifacts into one working directory; each
loader checks the config its file records against the running one. Any stage
failure is wrapped in StageError carrying the stage name. Ablation suites
rebuild the shared pipeline once and sweep a single axis. Every point runs
stage_merge and stage_evaluate in its own directory, which records its config, and
samples again there only when its sampling section differs from the shared one.
"""
from __future__ import annotations

import itertools
from contextlib import contextmanager
from pathlib import Path
from typing import Mapping

import numpy as np

from ..baselines import task_arithmetic, task_vector, ties_merge, weight_average
from ..calm import STRATEGIES, MergeResult, efficient_merge, sequential_merge
from ..nn import read_only
from ..sampling import CredibleSet, audit_accuracy, score_pool, select_cb_ems, select_ems
from ..tasks import Checkpoints, TaskData, finetune_all, generate_family, model_spec
from .config import ExperimentConfig, SUITES, ConfigError, apply_overrides, config_text
from .formats import (
    FormatError,
    check_made,
    load_checkpoint,
    load_credible_sets,
    load_tasks,
    save_checkpoint,
    save_credible_sets,
    save_tasks,
)
from .reports import (
    ReportBundle,
    _csv_lines,
    evaluate,
    layer_density,
    magnitude_overlap,
    write_report,
)

DATASETS_FILE = "datasets.calmdata"
PRETRAINED_FILE = "pretrained.calmckpt"
CHECKPOINTS_FILE = "checkpoints.calmckpt"
CREDIBLE_FILE = "credible.calmcred"
MERGED_FILE = "merged.calmckpt"
MASKS_FILE = "masks.calmckpt"


class StageError(RuntimeError):
    """A pipeline stage failed; the message names the stage, and the cause is the error."""


@contextmanager
def _stage(name: str):
    try:
        yield
    except Exception as exc:
        raise StageError(f"stage {name!r} failed: {exc}") from exc


def stage_generate(config: ExperimentConfig, workdir: Path) -> list[TaskData]:
    with _stage("generate"):
        tasks = generate_family(config.family)
        save_tasks(workdir / DATASETS_FILE, config, tasks)
    return tasks


def stage_pretrain(config: ExperimentConfig, workdir: Path, tasks: list[TaskData]) -> np.ndarray:
    # looked up at call time, so a wrapper installed on calmkit.tasks.pretrain sees the call
    from ..tasks import pretrain

    with _stage("pretrain"):
        spec = model_spec(config.family, config.train)
        theta_pre = pretrain(spec, tasks, config.train.pretrain_epochs,
                             config.train.pretrain_lr, config.train.batch_size,
                             config.family.seed)
        save_checkpoint(workdir / PRETRAINED_FILE, "pretrain", config, {"pretrained": theta_pre})
    return theta_pre


def stage_finetune(config: ExperimentConfig, workdir: Path, tasks: list[TaskData],
                   theta_pre: np.ndarray) -> Checkpoints:
    with _stage("finetune"):
        ckpt = finetune_all(model_spec(config.family, config.train), theta_pre, tasks,
                            config.train, config.family.seed)
        vectors = {"pretrained": ckpt.pretrained}
        for t, ft in enumerate(ckpt.finetuned):
            vectors[f"finetuned_{t:02d}"] = ft
        save_checkpoint(workdir / CHECKPOINTS_FILE, "finetune", config, vectors)
    return ckpt


def load_dataset(config: ExperimentConfig, workdir: Path) -> list[TaskData]:
    """The tasks that stage_generate persisted; their family must be the config's."""
    path = workdir / DATASETS_FILE
    made, tasks = load_tasks(path)
    check_made(path, "gen-tasks", made, config)
    return tasks


def load_models(config: ExperimentConfig, path: Path, names: list[str]) -> list[np.ndarray]:
    """The models a stage persisted under `names`, all the file holds, of the config's spec:
    the loader's fresh arrays, made read-only, whose length it checked against the header's."""
    stage, made, vectors = load_checkpoint(path)
    check_made(path, stage, made, config)
    if sorted(vectors) != sorted(names):
        raise FormatError(f"{path}: expected vectors {names}, got {sorted(vectors)}")
    return [read_only(vectors[name], np.float64) for name in names]


def load_checkpoints(config: ExperimentConfig, workdir: Path) -> Checkpoints:
    """The models that stage_finetune persisted."""
    names = [f"finetuned_{t:02d}" for t in range(config.family.num_tasks)]
    pretrained, *finetuned = load_models(config, workdir / CHECKPOINTS_FILE,
                                         ["pretrained", *names])
    return Checkpoints(model_spec(config.family, config.train), pretrained, tuple(finetuned))


def stage_sample(config: ExperimentConfig, workdir: Path, tasks: list[TaskData],
                 ckpt: Checkpoints) -> dict[int, CredibleSet]:
    with _stage("sample"):
        credible: dict[int, CredibleSet] = {}
        for task in tasks:
            scored = score_pool(ckpt.spec, ckpt.finetuned[task.task_id],
                                task.unlabeled_inputs, task.task_id)
            if config.sampling.mode == "ems":
                credible[task.task_id] = select_ems(scored, config.sampling.rate)
            else:
                credible[task.task_id] = select_cb_ems(scored, config.sampling.rate,
                                                       config.family.classes_per_task)
        save_credible_sets(workdir / CREDIBLE_FILE, config, credible)
    return credible


def load_credible(config: ExperimentConfig, workdir: Path) -> dict[int, CredibleSet]:
    """The credible sets stage_sample persisted."""
    path = workdir / CREDIBLE_FILE
    made, credible = load_credible_sets(path)
    check_made(path, "sample", made, config)
    return credible


def _mask_training_data(config: ExperimentConfig, tasks: list[TaskData],
                        credible: Mapping[int, CredibleSet]):
    """What the mask objective trains on, per the sampling.objective arm."""
    if config.sampling.objective == "pseudo":
        return {t: (tasks[t].unlabeled_inputs[cs.indices], cs.pseudo_labels)
                for t, cs in credible.items()}
    if config.sampling.objective == "supervised":
        return {t.task_id: (t.unlabeled_inputs, t.audit_labels) for t in tasks}
    return {t.task_id: (t.unlabeled_inputs, None) for t in tasks}


def merge_with_method(config: ExperimentConfig, tasks: list[TaskData], ckpt: Checkpoints,
                      credible: Mapping[int, CredibleSet]
                      ) -> tuple[np.ndarray, MergeResult | None]:
    if config.method == "avg":
        return weight_average(list(ckpt.finetuned)), None
    if config.method == "calm":
        result = sequential_merge(ckpt, config.plan, _mask_training_data(config, tasks, credible))
        return result.merged, result
    taus = (task_vector(ckpt.finetuned[t], ckpt.pretrained) for t in range(ckpt.num_tasks))
    if config.method == "ta":
        return task_arithmetic(ckpt.pretrained, taus, config.plan.lambda_efficient), None
    return ties_merge(ckpt.pretrained, taus, config.ties), None


def stage_merge(config: ExperimentConfig, workdir: Path, tasks: list[TaskData],
                ckpt: Checkpoints, credible: Mapping[int, CredibleSet]
                ) -> tuple[np.ndarray, MergeResult | None]:
    """Merge and persist the model; the masks file holds this merge's masks and their
    traces, or is absent."""
    with _stage("merge"):
        merged, result = merge_with_method(config, tasks, ckpt, credible)
        save_checkpoint(workdir / MERGED_FILE, "merge", config, {"merged": merged})
        if result is not None and result.steps:
            masks = {}
            for idx, step in enumerate(result.steps):
                key = f"step{idx:02d}_task{step.task_id:02d}"
                masks.update({key: step.mask, f"{key}.density_trace": step.density_trace,
                              f"{key}.objective_trace": step.objective_trace})
            save_checkpoint(workdir / MASKS_FILE, "merge", config, masks)
        else:
            (workdir / MASKS_FILE).unlink(missing_ok=True)
    return merged, result


def stage_evaluate(config: ExperimentConfig, workdir: Path, tasks: list[TaskData],
                   ckpt: Checkpoints, merged: np.ndarray,
                   credible: Mapping[int, CredibleSet]) -> ReportBundle:
    """Evaluate the merged model and write its reports; the mask diagnostics come from
    the masks file that stage_merge persisted, whose masks must hold only 0.0 and 1.0."""
    with _stage("evaluate"):
        per_task, average = evaluate(ckpt.spec, merged, tasks)
        bundle = ReportBundle(
            method=config.method,
            task_ids=tuple(t.task_id for t in tasks),
            per_task_accuracy=per_task,
            average_accuracy=average,
            pseudo_label_audit_accuracy=float(np.mean(
                [audit_accuracy(credible[t.task_id], t.audit_labels) for t in tasks])),
        )
        path = workdir / MASKS_FILE
        vectors = {}
        if set(config.report) - {"accuracy"} and path.exists():  # a mask diagnostic
            stage, made, vectors = load_checkpoint(path)
            check_made(path, stage, made, config)
        for key in [key for key in vectors if "." not in key]:  # the masks, not their traces
            task_id, mask = int(key.rsplit("task", 1)[1]), vectors[key] == 1.0
            if not np.all(mask | (vectors[key] == 0.0)):
                raise FormatError(f"{path}: mask {key!r} holds entries other than 0.0 and 1.0")
            for token in dict.fromkeys(config.report):  # each once, in order
                if token == "layer_density":
                    rows = enumerate(layer_density(mask, ckpt.spec))
                elif token == "magnitude_overlap":
                    rows = magnitude_overlap(mask, task_vector(ckpt.finetuned[task_id],
                                                               ckpt.pretrained))
                elif token != "accuracy":  # a trace, stored beside its mask
                    rows = enumerate(vectors[f"{key}.{token}"])
                else:
                    continue
                bundle.diagnostics.setdefault(token, {})[key] = list(rows)
        write_report(bundle, workdir)
    return bundle


def _shared_pipeline(config: ExperimentConfig, workdir: Path):
    tasks = stage_generate(config, workdir)
    theta_pre = stage_pretrain(config, workdir, tasks)
    ckpt = stage_finetune(config, workdir, tasks, theta_pre)
    credible = stage_sample(config, workdir, tasks, ckpt)
    return tasks, ckpt, credible


def run_experiment(config: ExperimentConfig, workdir: Path) -> ReportBundle:
    """The full pipeline; persists every artifact under workdir."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "config.resolved.txt").write_text(config_text(config))
    tasks, ckpt, credible = _shared_pipeline(config, workdir)
    merged, _ = stage_merge(config, workdir, tasks, ckpt, credible)
    return stage_evaluate(config, workdir, tasks, ckpt, merged, credible)


# one-axis suites: config key, summary.csv columns (the first is the swept value, a
# sequence's ids joined by "_"), and the (label, value) points drawn from the base config
_SWEEPS = {
    "sampling_rate": ("sampling.rate", ("rate", "average_accuracy", "audit_accuracy"),
                      lambda c: [(f"rate_{k / 10:.1f}", k / 10) for k in range(1, 11)]),
    "strategy": ("plan.strategy", ("strategy", "average_accuracy"),
                 lambda c: [(f"strategy_{s}", s) for s in STRATEGIES]),
    "order": ("plan.sequential_set", ("sequence", "average_accuracy"),
              lambda c: [("order_" + "_".join(map(str, p)), p) for p in itertools.permutations(
                  range(c.family.num_tasks), c.plan.num_sequential)]),
    "reg_coef": ("plan.l1_weight", ("l1_weight", "average_accuracy"),
                 lambda c: [(f"reg_{v}", v) for v in (0.5, 1.0, 2.0)]),
    "lr": ("plan.mask_lr", ("mask_lr", "average_accuracy"),
           lambda c: [(f"lr_{f}", c.plan.mask_lr * f) for f in (0.5, 1.0, 2.0)]),
}


def ablation_suite(config: ExperimentConfig, suite: str, workdir: Path) -> list[float]:
    """Sweep one axis with everything else fixed; returns the average accuracy of each
    summary row but `order`'s mean and std. Each point runs stage_merge and
    stage_evaluate in its own directory, which records its config."""
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; valid suites: {', '.join(SUITES)}")
    if suite in ("order", "components") and not config.plan.sequential_set:
        raise ConfigError(f"the {suite} suite merges the tasks of plan.sequential_set; "
                          "the set is empty")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    config = apply_overrides(config, {"method": "calm"})
    tasks, ckpt, credible = _shared_pipeline(config, workdir)

    def run_point(point_config: ExperimentConfig, label: str
                  ) -> tuple[ReportBundle, MergeResult | None]:
        directory, point_credible = workdir / label, credible
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "config.resolved.txt").write_text(config_text(point_config))
        if point_config.sampling != config.sampling:
            point_credible = stage_sample(point_config, directory, tasks, ckpt)
        merged, result = stage_merge(point_config, directory, tasks, ckpt, point_credible)
        return stage_evaluate(point_config, directory, tasks, ckpt, merged,
                              point_credible), result

    if suite in _SWEEPS:
        key, columns, points = _SWEEPS[suite]
        rows = [list(columns)]
        for label, value in points(config):
            bundle, _ = run_point(apply_overrides(config, {key: value}), label)
            cell = "_".join(map(str, value)) if isinstance(value, tuple) else value
            rows.append([cell, bundle.average_accuracy,
                         bundle.pseudo_label_audit_accuracy][:len(columns)])

    else:  # components: the one-step point's merged vector, then its parts
        point = apply_overrides(config, {"plan.sequential_set": config.plan.sequential_set[:1]})
        bundle, result = run_point(point, "components")
        j, mask = result.steps[0].task_id, result.steps[0].mask
        pre = ckpt.pretrained
        # the bulk vector that the merge started from, bit for bit
        taus = (task_vector(ckpt.finetuned[t], ckpt.pretrained)
                for t in point.plan.bulk_set(ckpt.num_tasks))
        tau_bulk = efficient_merge(ckpt.pretrained, taus, point.plan.lambda_efficient)
        tau_seq = task_vector(ckpt.finetuned[j], ckpt.pretrained)
        rows = [["configuration", "average_accuracy", "target_task_accuracy"]]
        for label, values in [("pre", pre), ("pre+tau_bulk", pre + tau_bulk),
                              ("pre+(1-M)*tau_bulk", pre + (1.0 - mask) * tau_bulk),
                              ("pre+tau_seq", pre + tau_seq),
                              ("pre+M*tau_seq", pre + mask * tau_seq)]:
            per_task, average = evaluate(ckpt.spec, values, tasks)
            rows.append([label, average, float(per_task[j])])
        rows.append(["pre+(1-M)*tau_bulk+M*tau_seq", bundle.average_accuracy,
                     float(bundle.per_task_accuracy[j])])

    accuracies = [row[1] for row in rows[1:]]
    if suite == "order":
        rows += [["mean", float(np.mean(accuracies))], ["std", float(np.std(accuracies))]]
    (workdir / "summary.csv").write_text(_csv_lines(rows))
    return accuracies
