"""Tests of the calm-bench harness: every route to a report writes the same bytes,
configs are checked when they are resolved, and each stage reads what the stage
before it persisted."""
import hashlib
import re
import shutil
import struct
import threading
import zlib
from types import SimpleNamespace

import numpy as np
import pytest

from calmkit import baselines, calm, nn, tasks
from calmkit.bench import cli
from calmkit.bench import config as config_module
from calmkit.bench import runner
from calmkit.bench.config import MAX_TASKS, build_config
from calmkit.bench.formats import MAGIC, load_checkpoint, load_credible_sets, save_checkpoint
from calmkit.bench.runner import (
    CHECKPOINTS_FILE,
    CREDIBLE_FILE,
    DATASETS_FILE,
    MASKS_FILE,
    MERGED_FILE,
    PRETRAINED_FILE,
    ablation_suite,
    run_experiment,
)
import reference

# the small config the benchmark's own tests run on
TINY = {
    "family.num_tasks": "3",
    "family.train_per_task": "40",
    "family.unlabeled_per_task": "40",
    "family.test_per_task": "40",
    "train.pretrain_epochs": "10",
    "train.finetune_epochs": "10",
    "train.accuracy_floor": "0.0",
    "plan.iterations_per_task": "4",
}
DIAGNOSTIC_REPORT = ("accuracy, layer_density, density_trace, objective_trace, "
                     "magnitude_overlap")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _cli(command: str, workdir, entries=None, *extra: str) -> int:
    flags = [arg for key, value in (entries or {}).items() for arg in (f"--{key}", value)]
    return cli.main([command, *flags, "--workdir", str(workdir), *extra])


def _staged(workdir, entries=None):
    for command in ("gen-tasks", "pretrain", "finetune", "sample"):
        assert _cli(command, workdir, entries) == 0


def _masks_sha(paths) -> str:
    """The masks of masks files, without their traces, in file order."""
    return _sha(b"".join(values.tobytes() for path in paths
                         for name, values in load_checkpoint(path)[2].items() if "." not in name))


def _reports(directory) -> dict[str, bytes]:
    paths = [directory / "report.txt", *sorted(directory.glob("*.csv"))]
    return {path.name: path.read_bytes() for path in paths}


@pytest.mark.parametrize("method", ["avg", "ta", "ties", "calm"])
def test_one_shot_eval_and_report_write_the_same_reports(method, tmp_path):
    entries = {**TINY, "method": method}
    run_experiment(build_config(entries), tmp_path / "one")
    staged = tmp_path / "staged"
    _staged(staged, entries)
    assert _cli("merge", staged, entries) == 0
    assert _cli("eval", staged, entries) == 0
    evaluated = _reports(staged)
    assert _cli("report", staged, entries) == 0
    assert evaluated == _reports(staged) == _reports(tmp_path / "one")
    assert b"pseudo_label_audit_accuracy" in evaluated["report.txt"]


def test_persisted_mask_diagnostics_match_the_one_shot_run(tmp_path):
    entries = {**TINY, "report": DIAGNOSTIC_REPORT}
    run_experiment(build_config(entries), tmp_path / "one")
    staged = tmp_path / "staged"
    _staged(staged, entries)
    assert _cli("merge", staged, entries) == 0
    assert _cli("eval", staged, entries) == 0
    evaluated = _reports(staged)
    assert _cli("report", staged, entries) == 0
    reported = _reports(staged)
    assert set(reported) == {"report.txt", "report.csv", "layer_density.csv",
                             "density_trace.csv", "objective_trace.csv",
                             "magnitude_overlap.csv"}
    assert evaluated == reported == _reports(tmp_path / "one")


@pytest.fixture(scope="module")
def tiny_calm(tmp_path_factory):
    """A one-shot calm run of TINY: its config, directory, tasks, loaded checkpoints and
    credible sets."""
    config, workdir = build_config(TINY), tmp_path_factory.mktemp("tiny_calm")
    run_experiment(config, workdir)
    return SimpleNamespace(config=config, workdir=workdir,
                           tasks=runner.load_dataset(config, workdir),
                           ckpt=runner.load_checkpoints(config, workdir),
                           credible=runner.load_credible(config, workdir))


def _taus(ckpt):
    return [baselines.task_vector(ft, ckpt.pretrained) for ft in ckpt.finetuned]


# every route that makes or loads a model, and the models it gives on the tiny_calm run
MODEL_ROUTES = {
    "init_params": lambda run: [nn.init_params(run.ckpt.spec, 0)],
    "pretrain": lambda run: [tasks.pretrain(run.ckpt.spec, run.tasks, 2)],
    "finetune_all": lambda run: list(tasks.finetune_all(
        run.ckpt.spec, run.ckpt.pretrained, run.tasks, run.config.train, 0).finetuned),
    "load_models pretrained": lambda run: runner.load_models(
        run.config, run.workdir / PRETRAINED_FILE, ["pretrained"]),
    "load_models checkpoints": lambda run: runner.load_models(
        run.config, run.workdir / CHECKPOINTS_FILE,
        ["pretrained", *(f"finetuned_{t:02d}" for t in range(3))]),
    "load_models merged": lambda run: runner.load_models(
        run.config, run.workdir / MERGED_FILE, ["merged"]),
    "weight_average": lambda run: [baselines.weight_average(list(run.ckpt.finetuned))],
    "task_arithmetic": lambda run: [baselines.task_arithmetic(run.ckpt.pretrained,
                                                              _taus(run.ckpt))],
    "ties_merge": lambda run: [baselines.ties_merge(run.ckpt.pretrained, _taus(run.ckpt))],
    "sequential_merge": lambda run: [calm.sequential_merge(
        run.ckpt, run.config.plan,
        runner._mask_training_data(run.config, run.tasks, run.credible)).merged],
}


@pytest.mark.parametrize("route", sorted(MODEL_ROUTES))
def test_every_model_is_a_read_only_contiguous_float64_vector_of_its_spec(route, tiny_calm):
    models = MODEL_ROUTES[route](tiny_calm)
    assert models
    for model in models:
        assert isinstance(model, np.ndarray) and model.dtype == np.float64
        assert model.shape == (tiny_calm.ckpt.spec.parameter_count,)
        assert model.flags.c_contiguous and not model.flags.writeable


def test_default_config_staged_reports_keep_their_hashes(tmp_path):
    # sha256 prefixes of report.csv, as the staged CLI wrote them before the
    # stages shared one report builder
    expected = {"avg": "365b306a877fa7d1", "ta": "2b9609b8c585f470",
                "ties": "dead7c0d119f6258", "calm": "3626e6f7983a0dea"}
    _staged(tmp_path)
    # the container's bytes (format version 2; version 1 read 3808bc38307e0c1d) and
    # its payload, the sets' indices, entropies and pseudo-labels, which did not move
    credible_file = tmp_path / CREDIBLE_FILE
    assert _sha(credible_file.read_bytes()) == "b4bf1cc2712811a1"
    _, credible = load_credible_sets(credible_file)
    assert _sha(b"".join(cs.indices.tobytes() + cs.entropies.tobytes()
                         + cs.pseudo_labels.tobytes()
                         for _, cs in sorted(credible.items()))) == "e5b66067ef51512f"
    for method, digest in expected.items():
        assert _cli("merge", tmp_path, {"method": method}) == 0
        assert _cli("eval", tmp_path, {"method": method}) == 0
        assert _sha((tmp_path / "report.csv").read_bytes()) == digest, method
    # the calm merge's files: binarize rounds r at exactly 0, so a reordered sum can
    # flip a mask coordinate without moving any accuracy in report.csv. The files'
    # bytes (version 1: 985c13132e5385ab and 4c0b1c72d2680eeb; with plan.num_sequential
    # in the header: 74cd41a45703d418 and 3a35f38de663e30f), then their payloads
    assert _sha((tmp_path / MASKS_FILE).read_bytes()) == "4e321953d101d885"
    assert _sha((tmp_path / MERGED_FILE).read_bytes()) == "f74492dffe9d4ba0"
    assert _masks_sha([tmp_path / MASKS_FILE]) == "c74d6fa22a4fa707"
    merged = load_checkpoint(tmp_path / MERGED_FILE)[2]["merged"]
    assert _sha(merged.tobytes()) == "6427c4d4d7d71ad6"


def test_default_config_text_keeps_its_hash(tmp_path, capsys):
    assert _cli("report", tmp_path, None, "--defaults") == 0
    # with plan.num_sequential in place of plan.sequential_set: 03f9f002a7b88c7e
    assert _sha(capsys.readouterr().out.encode()) == "af8b3b39999380e6"


@pytest.mark.parametrize("key,value", [
    ("ties.trim_fraction", "0"),
    ("ties.scale", "-1"),
    ("plan.lambda_efficient", "0"),
    ("plan.iterations_per_task", "0"),
    ("plan.init_active_fraction", "1.5"),
    ("plan.mask_lr", "nan"),
    ("plan.mask_lr", "0"),
    ("plan.mask_lr", "-500"),
    ("plan.l1_weight", "nan"),
    ("plan.lambda_efficient", "nan"),
    ("plan.lambda_efficient", "inf"),
    ("ties.scale", "nan"),
    ("seed", "-1"),
    ("seed", "99999999999999999999999"),
    ("train.pretrain_lr", "nan"),
    ("train.pretrain_lr", "0"),
    ("train.finetune_lr", "inf"),
    ("train.finetune_lr", "-0.05"),
    ("train.pretrain_epochs", "-1"),
    ("train.finetune_epochs", "-1"),
    ("train.accuracy_floor", "nan"),
    ("train.accuracy_floor", "1.5"),
    ("train.accuracy_floor", "-0.1"),
    ("family.cluster_sep", "nan"),
    ("family.noise_sigma", "nan"),
    ("family.task_offset", "nan"),
    ("family.task_offset", "inf"),
    ("train.hidden_dims", "0"),
    ("train.activation", "bogus"),
    ("plan.sequential_set", "1, 1"),
    ("plan.sequential_set", "8"),
    ("plan.sequential_set", "-1"),
    ("plan.sequential_set", "x"),
])
def test_invalid_plan_and_ties_values_are_config_errors(key, value, tmp_path, capsys):
    assert _cli("gen-tasks", tmp_path, {key: value}) == 1
    assert "configuration error" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("key,value", [
    ("family.num_tasks", "100000000"),
    ("family.num_tasks", str(MAX_TASKS + 1)),
    ("family.input_dim", str(2**32)),
    ("family.test_per_task", str(2**32)),
    ("train.hidden_dims", f"32, {2**32}"),
    ("train.pretrain_epochs", str(2**32)),
    ("train.finetune_epochs", str(2**32)),
    ("train.batch_size", str(2**32)),
    ("plan.sequential_set", f"0, {2**32}"),
    ("plan.iterations_per_task", "100000000000000000000"),
    ("plan.batches_per_task", "100000000000000000000"),
    ("plan.batch_size", str(2**32)),
])
def test_integer_keys_past_their_maximum_fail_before_the_partition(key, value, tmp_path,
                                                                   capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the partition was drawn")

    monkeypatch.setattr(config_module, "partition", never)
    assert _cli("gen-tasks", tmp_path, {key: value}) == 1
    assert "exceeds the maximum" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_the_largest_family_resolves():
    assert build_config({"family.num_tasks": str(MAX_TASKS)}).family.num_tasks == MAX_TASKS


def test_a_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"seed = 1\n# \xff\n")
    workdir = tmp_path / "run"
    assert _cli("gen-tasks", workdir, None, "--config", str(config)) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and str(config) in err
    assert not workdir.exists()


def test_a_default_run_starts_no_thread(tmp_path, monkeypatch):
    # at the default size the mask pass's blocks and the fine-tune stack's halves are
    # below the floor that binds a second slot, in the one-shot run and in the staged
    # finetune command: no pair runs, so no helper thread starts
    ran = reference.counted_pairs(monkeypatch)
    before = threading.active_count()
    run_experiment(build_config({}), tmp_path / "run")
    assert ran == []
    for command in ("gen-tasks", "pretrain", "finetune"):
        assert _cli(command, tmp_path / "staged") == 0
    assert ran == [] and threading.active_count() == before


@pytest.mark.parametrize("command", ["report", "eval", "merge"])
def test_a_command_on_a_missing_workdir_creates_nothing(command, tmp_path, capsys):
    # only gen-tasks makes the directory it writes; a command that reads first fails
    # with the missing file and leaves no empty directory behind
    workdir = tmp_path / "missing" / "run"
    assert _cli(command, workdir, TINY) == 2
    assert DATASETS_FILE in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


# sha256 prefixes of summary.csv on TINY, captured before the suites shared one sweep
SUITE_SUMMARIES = {
    "sampling_rate": "5775a019a2bccd1d",
    "strategy": "5e6dded302b84723",
    "order": "2c5111df5180abf3",
    "reg_coef": "7d09853fbd5ff6ce",
    "lr": "5f33b2de8ec33f0b",
    "components": "f72347932bce4617",
}


@pytest.mark.parametrize("suite", sorted(SUITE_SUMMARIES))
def test_suite_summaries_keep_their_bytes(suite, tmp_path):
    ablation_suite(build_config(TINY), suite, tmp_path)
    assert _sha((tmp_path / "summary.csv").read_bytes()) == SUITE_SUMMARIES[suite]


# three tasks at the default sizes, whose credible sets are larger than a batch; at
# this mask_lr the masks and accuracies move when any batch draw does (one number
# more drawn before each step changes both hashes)
ORDER_DRAWS = {"family.num_tasks": "3", "plan.iterations_per_task": "8",
               "plan.mask_lr": "100000"}


def test_order_suite_that_draws_batches_keeps_its_hashes(tmp_path):
    # sha256 prefixes captured with each batch the first rows of one permutation
    ablation_suite(build_config(ORDER_DRAWS), "order", tmp_path)
    masks = sorted(tmp_path.glob(f"order_*/{MASKS_FILE}"))
    assert len(masks) == 6
    # the files (format version 1: 70bf54b5d2649eb3; with plan.num_sequential in the
    # header: c96da41b838230fb), then their masks
    assert _sha(b"".join(path.read_bytes() for path in masks)) == "9125ca21acaaa6e4"
    assert _masks_sha(masks) == "1983186110b3594c"
    assert _sha((tmp_path / "summary.csv").read_bytes()) == "8c09e378c3d13111"


# sha256 prefixes of summary.csv and of every masks file, traces included, on
# ORDER_DRAWS: the strategy suite runs the only_mask and only_complement merges, and
# the components suite its arithmetic, on masks trained on drawn batches. Captured
# with masks held as float64 0/1 vectors, before they were bool arrays; the masks
# files read 11d854ace0d582ea and 565f1a86a47e7af0 with plan.num_sequential in the header
DRAWING_SUITES = {"strategy": ("2cdbeae7cfada8bc", "76af48e6e9adbe3e"),
                  "components": ("fef320f54213f25a", "e427cf45bf07f2d0")}
# and the sha256 prefix of each parameter vector the suite evaluates, in order: the
# strategy suite's three merges, and the components suite's six configurations, which
# its summary pins only to the resolution of the accuracies: its point's merged vector,
# evaluated first as the point's report, then the five parts of it
EVALUATED = {"strategy": ["a9896e0f666e447a", "b50dfe3df2a37616", "80d55b3f20be8626"],
             "components": ["409d978b0e98cc96", "4b14ea5ce58bde40", "ef47b1c93a410ceb",
                            "3288d79a731af2b0", "6cc2a169aee14ee1", "abcf98a555f6b255"]}


@pytest.mark.parametrize("suite", sorted(DRAWING_SUITES))
def test_suites_that_draw_batches_keep_their_hashes(suite, tmp_path, monkeypatch):
    evaluated, evaluate = [], runner.evaluate

    def hashed(spec, params, tasks):
        evaluated.append(_sha(params.tobytes()))
        return evaluate(spec, params, tasks)

    monkeypatch.setattr(runner, "evaluate", hashed)
    ablation_suite(build_config(ORDER_DRAWS), suite, tmp_path)
    masks = sorted(tmp_path.rglob(MASKS_FILE))
    summary_sha, masks_sha = DRAWING_SUITES[suite]
    assert _sha(b"".join(path.read_bytes() for path in masks)) == masks_sha
    assert _sha((tmp_path / "summary.csv").read_bytes()) == summary_sha
    assert evaluated == EVALUATED[suite]


def _rebuild(suite, point, rebuilt, *commands):
    """Run `commands` under the point's recorded config in `rebuilt`, beside copies of the
    four files that the suite's points share."""
    rebuilt.mkdir()
    for name in (DATASETS_FILE, PRETRAINED_FILE, CHECKPOINTS_FILE, CREDIBLE_FILE):
        shutil.copyfile(suite / name, rebuilt / name)
    for command in commands:
        assert _cli(command, rebuilt, None, "--config", str(point / "config.resolved.txt")) == 0


def test_each_order_point_is_rebuilt_from_its_own_config(tmp_path, capsys):
    suite = tmp_path / "suite"
    ablation_suite(build_config(ORDER_DRAWS), "order", suite)
    points = sorted(suite.glob("order_*"))
    configs = [point / "config.resolved.txt" for point in points]
    assert len({_sha(path.read_bytes()) for path in configs}) == len(points) == 6
    for point in points:
        rebuilt = tmp_path / point.name
        _rebuild(suite, point, rebuilt, "merge", "report")
        for name in (MERGED_FILE, MASKS_FILE, "report.csv"):
            assert (rebuilt / name).read_bytes() == (point / name).read_bytes(), name
    edited = tmp_path / "edited.cfg"
    edited.write_text(re.sub("plan.sequential_set = .*", "plan.sequential_set = 2, 1",
                             configs[0].read_text()))
    capsys.readouterr()
    assert _cli("eval", tmp_path / points[0].name, None, "--config", str(edited)) == 2
    assert ("made with plan.sequential_set = 0, 1, but the config gives 2, 1; run merge again"
            in capsys.readouterr().err)


def test_the_components_point_is_rebuilt_from_its_own_config(tmp_path):
    # the one-step merge runs in components/, under the config recorded there, and
    # leaves no merge file in the suite's root, which records no config
    suite, config = tmp_path / "suite", build_config(ORDER_DRAWS)
    ablation_suite(config, "components", suite)
    assert not (suite / MERGED_FILE).exists() and not (suite / MASKS_FILE).exists()
    point = suite / "components"
    first = config.plan.sequential_set[0]
    assert f"plan.sequential_set = {first}\n" in (point / "config.resolved.txt").read_text()
    _rebuild(suite, point, tmp_path / "rebuilt", "merge", "report")
    for name in (MERGED_FILE, MASKS_FILE, "report.csv"):
        assert (tmp_path / "rebuilt" / name).read_bytes() == (point / name).read_bytes(), name


@pytest.mark.parametrize("suite", ["order", "components"])
def test_components_suite_without_a_sequential_task_is_a_config_error(suite, tmp_path,
                                                                     capsys):
    entries = {**TINY, "plan.sequential_set": ""}
    assert _cli("ablate", tmp_path, entries, "--suite", suite) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "plan.sequential_set" in err
    assert not any(tmp_path.iterdir())


def test_order_suite_samples_once(tmp_path, monkeypatch):
    calls = []
    score_pool = runner.score_pool

    def counted(*args, **kwargs):
        calls.append(1)
        return score_pool(*args, **kwargs)

    monkeypatch.setattr(runner, "score_pool", counted)
    accuracies = ablation_suite(build_config(TINY), "order", tmp_path)
    assert len(calls) == int(TINY["family.num_tasks"])  # one pass, one call per task
    assert len(accuracies) == 6
    assert (tmp_path / CREDIBLE_FILE).exists()
    assert not list(tmp_path.glob(f"*/{CREDIBLE_FILE}"))


def test_ablate_prints_the_summary_then_the_mean_of_its_points(tmp_path, capsys):
    assert _cli("ablate", tmp_path, TINY, "--suite", "order") == 0
    summary = (tmp_path / "summary.csv").read_text()
    mean = float(summary.splitlines()[-2].removeprefix("mean,"))
    assert capsys.readouterr().out == summary + f"6 points, mean accuracy {mean:.4f}\n"


def test_merge_reads_the_persisted_credible_sets(tmp_path, monkeypatch):
    _staged(tmp_path, TINY)
    before = (tmp_path / CREDIBLE_FILE).read_bytes()

    def no_sampling(*args, **kwargs):
        raise AssertionError("merge sampled again")

    monkeypatch.setattr(runner, "score_pool", no_sampling)
    assert _cli("merge", tmp_path, TINY) == 0
    assert (tmp_path / CREDIBLE_FILE).read_bytes() == before


@pytest.mark.parametrize("key,value", [("sampling.rate", "0.5"), ("sampling.mode", "ems")])
def test_merge_rejects_credible_sets_of_another_sampling_config(key, value, tmp_path, capsys):
    _staged(tmp_path, TINY)
    capsys.readouterr()
    assert _cli("merge", tmp_path, {**TINY, key: value}) == 2
    assert "run sample again" in capsys.readouterr().err


@pytest.mark.parametrize("command,key,value,stage", [
    ("merge", "seed", "3", "gen-tasks"),
    ("eval", "family.cluster_sep", "1.7", "gen-tasks"),
    ("sample", "train.hidden_dims", "8", "pretrain"),
    ("finetune", "train.activation", "tanh", "pretrain"),
    ("merge", "train.finetune_lr", "0.02", "finetune"),
    ("sample", "train.finetune_epochs", "5", "finetune"),
    ("eval", "train.pretrain_epochs", "3", "pretrain"),
    ("eval", "sampling.rate", "0.5", "sample"),
    ("eval", "sampling.objective", "entropy", "sample"),
    ("eval", "plan.l1_weight", "3", "merge"),
    ("eval", "method", "ta", "merge"),
    ("report", "ties.scale", "0.5", "merge"),
])
def test_stages_reject_artifacts_made_under_another_config(command, key, value, stage,
                                                           tmp_path, capsys):
    _staged(tmp_path, TINY)
    assert _cli("merge", tmp_path, TINY) == 0
    capsys.readouterr()
    assert _cli(command, tmp_path, {**TINY, key: value}) == 2
    err = capsys.readouterr().err
    assert f"made with {key} = " in err and f"run {stage} again" in err
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("key,value", [("train.finetune_lr", "0.02"),
                                       ("train.head_mode", "per_task")])
def test_finetune_reads_a_pretrained_file_made_under_another_finetune_config(key, value,
                                                                            tmp_path):
    # the pretrained file records only the train keys that pretraining reads
    for command in ("gen-tasks", "pretrain"):
        assert _cli(command, tmp_path, TINY) == 0
    assert _cli("finetune", tmp_path, {**TINY, key: value}) == 0


def test_a_stage_writes_under_any_config_and_the_next_reader_compares(tmp_path, capsys):
    _staged(tmp_path, TINY)
    assert _cli("merge", tmp_path, {**TINY, "plan.mask_lr": "7"}) == 0
    capsys.readouterr()
    assert _cli("eval", tmp_path, TINY) == 2
    assert ("made with plan.mask_lr = 7.0, but the config gives 500.0; run merge again"
            in capsys.readouterr().err)
    # no file records `report`
    assert _cli("eval", tmp_path, {**TINY, "plan.mask_lr": "7",
                                   "report": DIAGNOSTIC_REPORT}) == 0


def test_a_merge_without_masks_removes_the_stale_masks(tmp_path):
    entries = {**TINY, "report": DIAGNOSTIC_REPORT}
    _staged(tmp_path, entries)
    assert _cli("merge", tmp_path, entries) == 0
    assert _cli("report", tmp_path, entries) == 0
    assert (tmp_path / MASKS_FILE).exists()
    assert (tmp_path / "layer_density.csv").exists()
    avg = {**entries, "method": "avg"}
    assert _cli("merge", tmp_path, avg) == 0
    assert not (tmp_path / MASKS_FILE).exists()
    assert _cli("report", tmp_path, avg) == 0
    assert set(_reports(tmp_path)) == {"report.txt", "report.csv"}


def test_a_merge_file_that_records_plan_num_sequential_is_a_format_error(tmp_path, capsys):
    # the key that sized the seeded sequence before plan.sequential_set named it
    _staged(tmp_path, TINY)
    assert _cli("merge", tmp_path, TINY) == 0
    path = tmp_path / MERGED_FILE
    raw = path.read_bytes()
    start = len(MAGIC) + 2
    (length,) = struct.unpack_from("<I", raw, start)
    header = re.sub(rb"plan\.sequential_set = [^\n]*", b"plan.num_sequential = 2",
                    raw[start + 4 : start + 4 + length])
    body = (raw[:start] + struct.pack("<I", len(header)) + header
            + raw[start + 4 + length : -4])
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))  # a valid CRC
    capsys.readouterr()
    assert _cli("eval", tmp_path, TINY) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "'plan.num_sequential'" in err
    assert "Traceback" not in err


def test_finetune_floor_miss_is_a_stage_error(tmp_path, capsys):
    entries = {**TINY, "train.pretrain_epochs": "0", "train.finetune_epochs": "0",
               "train.accuracy_floor": "0.9"}
    for command in ("gen-tasks", "pretrain"):
        assert _cli(command, tmp_path, entries) == 0
    capsys.readouterr()
    assert _cli("finetune", tmp_path, entries) == 2
    err = capsys.readouterr().err
    assert "stage 'finetune' failed" in err and "below the floor" in err


def test_a_diverging_pretrain_is_a_stage_error(tmp_path, capsys):
    entries = {**TINY, "train.pretrain_lr": "1e300"}  # finite and positive: a valid config
    assert _cli("gen-tasks", tmp_path, entries) == 0
    capsys.readouterr()
    assert _cli("pretrain", tmp_path, entries) == 2
    err = capsys.readouterr().err
    assert "stage 'pretrain' failed: training diverged" in err
    assert "Traceback" not in err
    assert not (tmp_path / PRETRAINED_FILE).exists()


def test_checkpoints_without_every_finetuned_model_are_a_format_error(tmp_path, capsys):
    _staged(tmp_path, TINY)
    path = tmp_path / CHECKPOINTS_FILE
    stage, made, vectors = load_checkpoint(path)
    del vectors["finetuned_01"]
    save_checkpoint(path, stage, made, vectors)
    capsys.readouterr()
    assert _cli("sample", tmp_path, TINY) == 2
    assert "finetuned_00" in capsys.readouterr().err



def test_a_loaded_mask_entry_other_than_0_or_1_is_a_stage_error(tmp_path, capsys):
    entries = {**TINY, "report": "accuracy,layer_density"}
    _staged(tmp_path, entries)
    assert _cli("merge", tmp_path, entries) == 0
    path = tmp_path / MASKS_FILE
    stage, made, vectors = load_checkpoint(path)
    key = min(name for name in vectors if "." not in name)
    vectors[key][0] = 0.5
    save_checkpoint(path, stage, made, vectors)  # a valid header and CRC
    capsys.readouterr()
    assert _cli("eval", tmp_path, entries) == 2
    err = capsys.readouterr().err
    assert f"mask {key!r} holds entries other than 0.0 and 1.0" in err
    assert "Traceback" not in err
