"""Properties of the artifact container: save/load round-trips are bit-exact, the
header holds the config that made the file in its one canonical spelling, and a
corrupt or truncated file is a FormatError (exit code 2), whatever its bytes
decode to, even when its CRC was recomputed to match."""
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from calmkit.bench import cli
from calmkit.bench.config import build_config
from calmkit.bench.formats import (
    FormatError,
    check_made,
    load_checkpoint,
    load_credible_sets,
    load_tasks,
    save_checkpoint,
    save_credible_sets,
    save_tasks,
)
from calmkit.bench.runner import DATASETS_FILE, MASKS_FILE, PRETRAINED_FILE
from calmkit.sampling import CredibleSet
from calmkit.tasks import generate_family, model_spec

# a two-task family and a tanh (4, 2) model, as config entries
SMALL = {"family.num_tasks": "2", "family.classes_per_task": "2", "family.input_dim": "3",
         "family.train_per_task": "6", "family.unlabeled_per_task": "6",
         "family.test_per_task": "6", "train.hidden_dims": "4,2"}
CONFIG = build_config({**SMALL, "seed": "4", "train.activation": "tanh"})
COUNT = model_spec(CONFIG.family, CONFIG.train).parameter_count


def _checkpoint(path):
    rng = np.random.default_rng(0)
    save_checkpoint(path, "finetune", CONFIG,
                    {"pretrained": rng.standard_normal(COUNT),
                     "finetuned_00": rng.standard_normal(COUNT)})


def _masks(path):
    rng = np.random.default_rng(2)
    save_checkpoint(path, "merge", CONFIG,
                    {"step00_task01": (rng.uniform(size=COUNT) < 0.3).astype(float),
                     "step00_task01.density_trace": rng.uniform(size=5),
                     "step00_task01.objective_trace": rng.standard_normal(4)})


def _tasks(path):
    save_tasks(path, CONFIG, generate_family(CONFIG.family))


def _credible(path):
    rng = np.random.default_rng(1)
    credible = {}
    for t, rows in ((0, 3), (1, 2)):
        credible[t] = CredibleSet(t, np.sort(rng.permutation(6)[:rows]), rng.uniform(0, 1, rows),
                                  rng.integers(0, 2, rows))
    save_credible_sets(path, CONFIG, credible)


# per file kind: how to write a small valid file, how to load it and how to save what
# a load returned
KINDS = {
    "checkpoint": (_checkpoint, load_checkpoint, save_checkpoint),
    "masks": (_masks, load_checkpoint, save_checkpoint),
    "tasks": (_tasks, load_tasks, save_tasks),
    "credible": (_credible, load_credible_sets, save_credible_sets),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("formats")
    out = {}
    for kind, (write, _, _) in KINDS.items():
        write(directory / kind)
        out[kind] = (directory / kind).read_bytes()
    return out


def _with_crc(payload: bytes) -> bytes:
    return payload + struct.pack("<I", zlib.crc32(payload))


def _header_end(raw: bytes) -> int:
    """The offset just past the text header: magic, version, length, then the text."""
    return 14 + struct.unpack_from("<I", raw, 10)[0]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_save_load_save_is_bit_exact(kind, files, tmp_path):
    _, load, save = KINDS[kind]
    (tmp_path / "a").write_bytes(files[kind])
    save(tmp_path / "b", *load(tmp_path / "a"))
    assert (tmp_path / "b").read_bytes() == files[kind]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(sorted(KINDS)), where=st.data(), value=st.integers(0, 255))
def test_a_mutated_byte_is_a_format_error_or_loads_what_it_says(kind, where, value, files,
                                                                tmp_path):
    raw = files[kind]
    # the header often, any byte before the CRC sometimes
    at = where.draw(st.one_of(st.integers(0, _header_end(raw) + 40),
                              st.integers(0, len(raw) - 5)))
    if raw[at] == value:
        return
    mutated = _with_crc(raw[:at] + bytes([value]) + raw[at + 1 : -4])
    _, load, save = KINDS[kind]
    (tmp_path / "mutated").write_bytes(mutated)
    try:
        loaded = load(tmp_path / "mutated")
    except FormatError:
        return
    # no silent repair: what loaded saves back to the same bytes
    save(tmp_path / "saved", *loaded)
    assert (tmp_path / "saved").read_bytes() == mutated


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(sorted(KINDS)), where=st.data(), recompute_crc=st.booleans())
def test_a_truncated_file_is_a_format_error(kind, where, recompute_crc, files, tmp_path):
    raw = files[kind]
    if recompute_crc:  # cut the body, then append its CRC
        truncated = _with_crc(raw[: where.draw(st.integers(0, len(raw) - 5))])
    else:
        truncated = raw[: where.draw(st.integers(0, len(raw) - 1))]
    (tmp_path / "truncated").write_bytes(truncated)
    with pytest.raises(FormatError):
        KINDS[kind][1](tmp_path / "truncated")


@settings(max_examples=50, deadline=None)
@given(vectors=st.dictionaries(
    st.text(max_size=8),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=COUNT,
             max_size=COUNT),
    max_size=3))
def test_checkpoint_round_trip_keeps_every_bit(vectors, tmp_path_factory):
    path = tmp_path_factory.mktemp("roundtrip") / "ckpt"
    save_checkpoint(path, "pretrain", CONFIG, {name: np.array(v) for name, v in vectors.items()})
    stage, made, loaded = load_checkpoint(path)
    assert stage == "pretrain" and made == CONFIG and list(loaded) == list(vectors)
    for name, values in vectors.items():
        assert loaded[name].tobytes() == np.array(values).tobytes()


def test_each_kind_records_the_keys_of_the_stages_that_made_it(files):
    def keys(kind):
        text = files[kind][14:_header_end(files[kind])].decode()
        return [line.split(" = ")[0] for line in text.splitlines()[1:]]

    def sections(kind):
        return list(dict.fromkeys(key.split(".")[0] for key in keys(kind)))

    assert sections("tasks") == ["seed", "family"]
    assert sections("checkpoint") == ["seed", "family", "train"]
    assert sections("credible") == ["seed", "family", "train", "sampling"]
    assert sections("masks") == ["seed", "method", "family", "train", "sampling", "plan",
                                 "ties"]
    assert all("report" not in keys(kind) for kind in KINDS)


def test_a_pretrained_file_records_only_the_train_keys_that_pretraining_reads(tmp_path):
    path = tmp_path / PRETRAINED_FILE
    save_checkpoint(path, "pretrain", CONFIG, {"pretrained": np.zeros(COUNT)})
    raw = path.read_bytes()
    keys = [line.split(" = ")[0] for line in raw[14:_header_end(raw)].decode().splitlines()[1:]]
    assert [key for key in keys if key.startswith("train.")] == [
        "train.hidden_dims", "train.activation", "train.pretrain_epochs", "train.pretrain_lr",
        "train.batch_size"]
    assert check_made(path, "pretrain", load_checkpoint(path)[1],
                      build_config({**SMALL, "seed": "4", "train.activation": "tanh",
                                    "train.finetune_lr": "0.02"})) is None


@pytest.mark.parametrize("changed, key, stage", [
    # `method` comes first in the config, but fine-tuning comes before the merge
    ({"method": "ta", "train.finetune_lr": "0.02"}, "train.finetune_lr", "finetune"),
    ({"plan.mask_lr": "7", "train.pretrain_lr": "0.2"}, "train.pretrain_lr", "pretrain"),
    ({"train.head_mode": "per_task", "seed": "5"}, "seed", "gen-tasks"),
    ({"ties.scale": "0.5", "sampling.rate": "0.5"}, "sampling.rate", "sample"),
    ({"method": "ta"}, "method", "merge"),
])
def test_check_made_names_the_first_stage_to_run_again(changed, key, stage):
    config = build_config({**SMALL, "seed": "4", "train.activation": "tanh", **changed})
    with pytest.raises(FormatError, match=f"made with {key} = .*; run {stage} again$"):
        check_made(MASKS_FILE, "merge", CONFIG, config)


def _with_header(raw: bytes, old: bytes, new: bytes) -> bytes:
    """`raw` with `old` replaced once in its text header, the length and CRC rewritten."""
    end = _header_end(raw)
    header = raw[14:end]
    assert header.count(old) == 1
    header = header.replace(old, new)
    return _with_crc(raw[:10] + struct.pack("<I", len(header)) + header + raw[end:-4])


@pytest.mark.parametrize("old, new", [
    (b"seed = 4\n", b"seed = 04\n"),
    (b"seed = 4\n", b"seed=4\n"),
    (b"seed = 4\n", b"seed = 4  # the config seed\n"),
    (b"family.cluster_sep = 1.6\n", b"family.cluster_sep = 1.60\n"),
    (b"family.cluster_sep = 1.6\n", b"family.cluster_sep = 16e-1\n"),
    (b"seed = 4\nfamily.num_tasks = 2\n", b"family.num_tasks = 2\nseed = 4\n"),
    (b"family.frame_align = 0.5\n", b""),
    (b"family.frame_align = 0.5\n", b"family.frame_align = 0.5\ntrain.batch_size = 64\n"),
    (b"family.frame_align = 0.5\n", b"family.frame_align = 0.5\nfamily.colour = red\n"),
    (b"gen-tasks\n", b"sample\n"),
])
def test_a_header_in_another_spelling_is_a_format_error(old, new, files, tmp_path):
    path = tmp_path / "respelled"
    path.write_bytes(_with_header(files["tasks"], old, new))
    with pytest.raises(FormatError, match="corrupt file"):
        load_tasks(path)


def _patched(raw: bytes, at: int, new: bytes) -> bytes:
    return _with_crc(raw[:at] + new + raw[at + len(new) : -4])


def _first_value(raw: bytes, name: bytes) -> int:
    """The offset of the first value of the 2-D array `name`: past the name, the dtype,
    the dimension count and the two dimensions."""
    return raw.index(name) + len(name) + 2 + 1 + 2 * 8


def _one_value_short(raw: bytes, name: bytes) -> bytes:
    """`raw` without the last value of `name`, its file's last array, with the array's one
    dimension and the CRC rewritten to agree."""
    at = raw.index(name) + len(name) + 2 + 1
    (count,) = struct.unpack_from("<Q", raw, at)
    return _with_crc(raw[:at] + struct.pack("<Q", count - 1) + raw[at + 8 : -12])


@pytest.mark.parametrize("file, command, old, new", [
    # the first byte of the first vector name: not UTF-8
    (PRETRAINED_FILE, "finetune", b"pretrained", b"\xff"),
    # input_dim 7 disagrees with the stored input arrays
    (DATASETS_FILE, "pretrain", b"family.input_dim = 3", b"family.input_dim = 7"),
    # classes_per_task 9 exceeds input_dim, which TaskFamily rejects
    (DATASETS_FILE, "pretrain", b"family.classes_per_task = 2", b"family.classes_per_task = 9"),
    # a NaN train input
    (DATASETS_FILE, "pretrain", b"task00.train_inputs", None),
    # a model one value short of its header's spec: the loader's length check is the only
    # one a loaded model meets
    (PRETRAINED_FILE, "finetune", b"pretrained", _one_value_short),
])
def test_corrupt_files_exit_2_through_the_cli(file, command, old, new, tmp_path, capsys):
    entries = [arg for key, value in SMALL.items() for arg in (f"--{key}", value)]
    entries += ["--workdir", str(tmp_path)]
    assert cli.main(["gen-tasks", *entries]) == 0
    assert cli.main(["pretrain", *entries]) == 0
    path = tmp_path / file
    raw = path.read_bytes()
    if new is None:
        path.write_bytes(_patched(raw, _first_value(raw, old), struct.pack("<d", np.nan)))
    elif callable(new):
        path.write_bytes(new(raw, old))
    else:
        path.write_bytes(_patched(raw, raw.index(old), new))
    capsys.readouterr()
    assert cli.main([command, *entries]) == 2
    err = capsys.readouterr().err
    assert f"{path}: corrupt file" in err
