"""One self-describing container for every artifact the pipeline persists.

A file is an 8-byte ASCII magic `CALMFILE`, a little-endian u16 format version,
a u32 byte length and the text header, a u32 array count and the named typed
arrays, then a CRC32 (u32, little-endian) over every preceding byte. An array
is a u16 byte length and its UTF-8 name, a 2-byte dtype (`f8` or `i8`, values
little-endian), a u8 dimension count and u64 dimensions, then its values in
row-major order, so save/load round-trips are bit-exact. Float arrays are finite;
integer arrays are non-empty, labels and pseudo-labels in [0, `family.classes_per_task`)
and credible indices in [0, `family.unlabeled_per_task`), strictly ascending per task.

The header's first line is the stage that made the file; the other lines are,
in `config_text` form, the config keys of that stage and the stages before it
(never `report`). By stage, the files, their keys and their arrays:

- gen-tasks, datasets.calmdata: `seed`, `family.*`; `taskTT.<field>` per task
  and `TaskData` array;
- pretrain, pretrained.calmckpt: and the `train.` keys it reads, `hidden_dims`,
  `activation`, `pretrain_epochs`, `pretrain_lr`, `batch_size`; one vector;
- finetune, checkpoints.calmckpt: and `train.*`; one vector per name;
- sample, credible.calmcred: and `sampling.*`; `taskTT.indices`, `.entropies`
  and `.pseudo_labels` per task;
- merge, merged/masks.calmckpt: and `method`, `plan.*`, `ties.*`; vectors, and
  each step's mask `stepII_taskTT` with its `.density_trace` and `.objective_trace`.

A loader builds the config from those entries and the defaults, so the family
and the model spec come from the header; a header that does not parse, that
`build_config` rejects or that `config_text` would spell otherwise is a
FormatError. `check_made` compares a header with the running config.
"""
from __future__ import annotations

import math
import struct
import zlib
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from typing import Mapping

import numpy as np

from ..sampling import CredibleSet
from ..tasks import TaskData, model_spec
from .config import ExperimentConfig, build_config, config_entries, parse_entries

MAGIC = b"CALMFILE"
FORMAT_VERSION = 2

_DTYPES = {b"f8": np.dtype("<f8"), b"i8": np.dtype("<i8")}
# the config sections and keys a file records, by the stage that made it, in pipeline order
_RECORDS = {"gen-tasks": ("seed", "family")}
_RECORDS["pretrain"] = _RECORDS["gen-tasks"] + tuple(f"train.{name}" for name in (
    "hidden_dims", "activation", "pretrain_epochs", "pretrain_lr", "batch_size"))
_RECORDS["finetune"] = _RECORDS["gen-tasks"] + ("train",)
_RECORDS["sample"] = _RECORDS["finetune"] + ("sampling",)
_RECORDS["merge"] = _RECORDS["sample"] + ("method", "plan", "ties")
_TASK_ARRAYS = tuple(f.name for f in fields(TaskData)[1:])
_CREDIBLE_ARRAYS = tuple(f.name for f in fields(CredibleSet)[1:])


class FormatError(ValueError):
    """Malformed, truncated, corrupted, or incompatible file."""


def _records(stage: str, key: str) -> bool:
    return key in _RECORDS[stage] or key.split(".")[0] in _RECORDS[stage]


def _recorded(stage: str, config: ExperimentConfig) -> dict[str, str]:
    return {key: value for key, value in config_entries(config).items() if _records(stage, key)}


def _header(stage: str, config: ExperimentConfig) -> bytes:
    lines = [stage, *(f"{key} = {value}" for key, value in _recorded(stage, config).items())]
    return ("\n".join(lines) + "\n").encode("utf-8")


def check_made(path: Path, stage: str, made: ExperimentConfig, config: ExperimentConfig):
    """Reject a file made by `stage` whose recorded keys differ from the config's, naming
    the first stage, in pipeline order, that records a differing key: the stage to run again."""
    asked = _recorded(stage, config)
    differ = {key: value for key, value in _recorded(stage, made).items() if value != asked[key]}
    for first in _RECORDS:
        for key in differ:
            if _records(first, key):
                raise FormatError(f"{path}: made with {key} = {differ[key]}, but the config "
                                  f"gives {asked[key]}; run {first} again")


def _expect(arrays: Mapping[str, np.ndarray], layout: Mapping[str, tuple]):
    """Arrays named as in `layout` and in its order, each of its dtype kind, shape (None: 1-D
    of any length) and bound: the float ones finite, the integer ones non-empty in [0, top)."""
    if list(arrays) != list(layout):
        raise FormatError(f"holds arrays {list(arrays)}, expected {list(layout)}")
    for name, (kind, shape, top) in layout.items():
        values = arrays[name]
        if values.dtype.kind != kind or values.shape != (shape or values.shape[:1]):
            raise FormatError(f"array {name!r} is {values.dtype} of shape {values.shape}, "
                              f"expected {kind}8 of shape {shape or '(any,)'}")
        if kind == "f" and not np.all(np.isfinite(values)):
            raise FormatError(f"array {name!r} contains non-finite values")
        if kind == "i" and not (values.size and 0 <= values.min() and values.max() < top):
            raise FormatError(f"array {name!r} is empty or holds values outside [0, {top})")


def _write(path: Path, stage: str, config: ExperimentConfig, arrays: Mapping[str, np.ndarray],
           layout):
    """Check the arrays, then write the container part by part, with the CRC of them all."""
    _expect(arrays, layout(config, arrays))
    header = _header(stage, config)
    parts = [MAGIC + struct.pack("<HI", FORMAT_VERSION, len(header)) + header
             + struct.pack("<I", len(arrays))]
    for name, values in arrays.items():
        code = values.dtype.kind.encode() + b"8"
        raw = name.encode("utf-8")
        parts += [struct.pack(f"<H{len(raw)}s2sB{values.ndim}Q", len(raw), raw, code,
                              values.ndim, *values.shape),
                  np.ascontiguousarray(values, dtype=_DTYPES[code])]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    with open(path, "wb") as out:
        out.writelines(parts)
        out.write(struct.pack("<I", crc))


@contextmanager
def _decoding(path: Path):
    """Report any failure to decode a file (a short record, bad UTF-8, a header the
    config rejects, values the record types reject) as a FormatError naming it."""
    try:
        yield
    except (ValueError, OverflowError, struct.error) as exc:
        raise FormatError(f"{path}: corrupt file: {exc}") from exc


def _read(path: Path, stages: tuple[str, ...], layout) -> tuple[str, ExperimentConfig, dict]:
    """The stage that made the file, the config its header records, and its arrays."""
    raw = Path(path).read_bytes()
    if raw[: len(MAGIC) + 2] != MAGIC + struct.pack("<H", FORMAT_VERSION):
        raise FormatError(f"{path}: starts with {raw[:10]!r}, not {MAGIC.decode('ascii')} and "
                          f"format version {FORMAT_VERSION}")
    if zlib.crc32(memoryview(raw)[:-4]) != struct.unpack("<I", raw[-4:])[0]:
        raise FormatError(f"{path}: checksum mismatch, file is corrupted")
    body, pos = memoryview(raw)[:-4], len(MAGIC) + 2

    def take(fmt: str) -> tuple:
        nonlocal pos
        values = struct.unpack_from(fmt, body, pos)
        pos += struct.calcsize(fmt)
        return values

    with _decoding(path):
        header = take(f"{take('<I')[0]}s")[0]
        stage, _, entries = header.decode("utf-8").partition("\n")
        if stage not in stages:
            raise FormatError(f"made by {stage!r}, expected {' or '.join(stages)}")
        made = build_config(parse_entries(entries))
        if _header(stage, made) != header:
            raise FormatError("the header is not in the spelling config_text gives")
        arrays: dict[str, np.ndarray] = {}
        for _ in range(take("<I")[0]):
            name = take(f"{take('<H')[0]}s")[0].decode("utf-8")
            code, ndim = take("<2sB")
            if code not in _DTYPES or name in arrays:
                raise FormatError(f"array {name!r} repeats or has an unknown dtype {code!r}")
            shape = take(f"<{ndim}Q")
            values = np.frombuffer(body, _DTYPES[code], math.prod(shape), pos)
            arrays[name] = values.reshape(shape).copy()
            pos += values.nbytes
        if pos != len(body):
            raise FormatError("trailing bytes after the last array")
        _expect(arrays, layout(made, arrays))
    return stage, made, arrays


def _task_layout(config: ExperimentConfig, names) -> dict[str, tuple]:
    family = config.family
    shapes = []
    for rows in (family.train_per_task, family.test_per_task, family.unlabeled_per_task):
        shapes += [("f", (rows, family.input_dim), None), ("i", (rows,), family.classes_per_task)]
    return {f"task{t:02d}.{name}": shape for t in range(family.num_tasks)
            for name, shape in zip(_TASK_ARRAYS, shapes)}


def save_tasks(path: Path, config: ExperimentConfig, tasks: list[TaskData]):
    """The generated task family: every task's split arrays."""
    _write(path, "gen-tasks", config, {f"task{task.task_id:02d}.{name}": getattr(task, name)
                                       for task in tasks for name in _TASK_ARRAYS}, _task_layout)


def load_tasks(path: Path) -> tuple[ExperimentConfig, list[TaskData]]:
    _, made, arrays = _read(path, ("gen-tasks",), _task_layout)
    with _decoding(path):
        return made, [TaskData(t, *(arrays[f"task{t:02d}.{name}"] for name in _TASK_ARRAYS))
                      for t in range(made.family.num_tasks)]


def _vector_layout(config: ExperimentConfig, names) -> dict[str, tuple]:
    count = model_spec(config.family, config.train).parameter_count
    return {name: ("f", None if "." in name else (count,), None) for name in names}


def save_checkpoint(path: Path, stage: str, config: ExperimentConfig,
                    vectors: Mapping[str, np.ndarray]):
    """Named parameter-length vectors (models or masks) that `stage` made, and the
    traces of masks, named `<mask>.<trace>`."""
    _write(path, stage, config, {name: np.asarray(values, dtype=np.float64)
                                 for name, values in vectors.items()}, _vector_layout)


def load_checkpoint(path: Path) -> tuple[str, ExperimentConfig, dict[str, np.ndarray]]:
    return _read(path, ("pretrain", "finetune", "merge"), _vector_layout)


def _credible_layout(config: ExperimentConfig, names) -> dict[str, tuple]:
    kinds = (("i", None, config.family.unlabeled_per_task), ("f", None, None),
             ("i", None, config.family.classes_per_task))
    return {f"task{t:02d}.{name}": kind for t in range(config.family.num_tasks)
            for name, kind in zip(_CREDIBLE_ARRAYS, kinds)}


def save_credible_sets(path: Path, config: ExperimentConfig, credible: Mapping[int, CredibleSet]):
    """One credible set per task of the family, by ascending task id."""
    _write(path, "sample", config, {f"task{t:02d}.{name}": getattr(cs, name)
                                    for t, cs in sorted(credible.items())
                                    for name in _CREDIBLE_ARRAYS}, _credible_layout)


def load_credible_sets(path: Path) -> tuple[ExperimentConfig, dict[int, CredibleSet]]:
    _, made, arrays = _read(path, ("sample",), _credible_layout)
    with _decoding(path):
        return made, {t: CredibleSet(t, *(arrays[f"task{t:02d}.{name}"]
                                          for name in _CREDIBLE_ARRAYS))
                      for t in range(made.family.num_tasks)}
