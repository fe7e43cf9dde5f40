"""Properties of the binary file formats: save/load round-trips are bit-exact,
and a corrupt or truncated file is a FormatError (exit code 2), whatever its
bytes decode to, even when its CRC was recomputed to match."""
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from calmkit.bench import cli
from calmkit.bench.formats import (
    FormatError,
    load_checkpoint,
    load_credible_sets,
    load_tasks,
    save_checkpoint,
    save_credible_sets,
    save_tasks,
)
from calmkit.bench.runner import DATASETS_FILE, PRETRAINED_FILE
from calmkit.nn import ModelSpec
from calmkit.sampling import CredibleSet
from calmkit.tasks import TaskFamily, generate_family

SPEC = ModelSpec(3, (4, 2), 3, activation="tanh")
FAMILY = TaskFamily(num_tasks=2, classes_per_task=2, input_dim=3, train_per_task=6,
                    unlabeled_per_task=6, test_per_task=6, seed=4)
# the byte offset of the family header's classes_per_task and input_dim fields, and of
# the first task's first train input: past the magic, version, family, task_id and count
CLASSES_AT, INPUT_DIM_AT, TRAIN_INPUTS_AT = 14, 18, 8 + 2 + 64 + 4 + 8


def _checkpoint(path):
    rng = np.random.default_rng(0)
    save_checkpoint(path, SPEC, {"pretrained": rng.standard_normal(SPEC.parameter_count),
                                 "finetuned_00": rng.standard_normal(SPEC.parameter_count)})


def _tasks(path):
    save_tasks(path, FAMILY, generate_family(FAMILY))


def _credible(path):
    rng = np.random.default_rng(1)
    credible = {}
    for t, rows in ((0, 3), (2, 2)):
        credible[t] = CredibleSet(t, rng.permutation(9)[:rows], rng.uniform(0, 1, rows),
                                  rng.integers(0, 3, rows), 0.5, "cb_ems",
                                  rng.standard_normal((rows, 4)))
    save_credible_sets(path, credible)


# per file kind: how to write a small valid file, and how to save what a load returned
KINDS = {
    "checkpoint": (_checkpoint, load_checkpoint,
                   lambda path, loaded: save_checkpoint(path, *loaded)),
    "tasks": (_tasks, load_tasks, lambda path, loaded: save_tasks(path, *loaded)),
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


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_save_load_save_is_bit_exact(kind, files, tmp_path):
    _, load, save = KINDS[kind]
    (tmp_path / "a").write_bytes(files[kind])
    save(tmp_path / "b", load(tmp_path / "a"))
    assert (tmp_path / "b").read_bytes() == files[kind]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(sorted(KINDS)), where=st.data(), value=st.integers(0, 255))
def test_a_mutated_byte_is_a_format_error_or_loads_what_it_says(kind, where, value, files,
                                                                tmp_path):
    raw = files[kind]
    # the header often, any byte before the CRC sometimes
    at = where.draw(st.one_of(st.integers(0, 63), st.integers(0, len(raw) - 5)))
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
    save(tmp_path / "saved", loaded)
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
    st.lists(st.floats(allow_nan=False, allow_infinity=False),
             min_size=SPEC.parameter_count, max_size=SPEC.parameter_count),
    max_size=3))
def test_checkpoint_round_trip_keeps_every_bit(vectors, tmp_path_factory):
    path = tmp_path_factory.mktemp("roundtrip") / "ckpt"
    save_checkpoint(path, SPEC, {name: np.array(v) for name, v in vectors.items()})
    spec, loaded = load_checkpoint(path)
    assert spec == SPEC and list(loaded) == list(vectors)
    for name, values in vectors.items():
        assert loaded[name].tobytes() == np.array(values).tobytes()


# FAMILY and SPEC as config entries
SMALL = {"family.num_tasks": "2", "family.classes_per_task": "2", "family.input_dim": "3",
         "family.train_per_task": "6", "family.unlabeled_per_task": "6",
         "family.test_per_task": "6", "train.hidden_dims": "4,2"}


def _patched(raw: bytes, at: int, new: bytes) -> bytes:
    return _with_crc(raw[:at] + new + raw[at + len(new) : -4])


@pytest.mark.parametrize("file, command, at, new", [
    # the first byte of the first vector name: not UTF-8
    (PRETRAINED_FILE, "finetune", 10 + 8 + 4 * 2 + 5 + 4 + 2, b"\xff"),
    # input_dim 7 does not divide the stored input arrays
    (DATASETS_FILE, "pretrain", INPUT_DIM_AT, struct.pack("<I", 7)),
    # classes_per_task 99 exceeds input_dim, which TaskFamily rejects
    (DATASETS_FILE, "pretrain", CLASSES_AT, struct.pack("<I", 99)),
    # a NaN train input, which TaskData rejects
    (DATASETS_FILE, "pretrain", TRAIN_INPUTS_AT, struct.pack("<d", np.nan)),
])
def test_corrupt_files_exit_2_through_the_cli(file, command, at, new, tmp_path, capsys):
    entries = [arg for key, value in SMALL.items() for arg in (f"--{key}", value)]
    entries += ["--workdir", str(tmp_path)]
    assert cli.main(["gen-tasks", *entries]) == 0
    assert cli.main(["pretrain", *entries]) == 0
    path = tmp_path / file
    path.write_bytes(_patched(path.read_bytes(), at, new))
    capsys.readouterr()
    assert cli.main([command, *entries]) == 2
    err = capsys.readouterr().err
    assert f"{path}: corrupt file" in err
