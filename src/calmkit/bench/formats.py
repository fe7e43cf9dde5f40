"""Binary file formats for checkpoints, datasets, and credible sets.

All files share the same envelope: an 8-byte ASCII magic, a little-endian u16
format version, a body, and a trailing CRC32 (u32, little-endian) over every
preceding byte. Floats are 64-bit little-endian throughout, so save/load
round-trips are bit-exact. Body layouts (integers little-endian; a str is a
u16 byte length and UTF-8 bytes, an f64[] or i64[] a u64 count and the values):

- spec: u32 input_dim, u32 n, n x u32 hidden_dims, u32 num_classes, u8
  activation (0 relu, 1 tanh).
- CALMCKPT: spec, u32 vector count, then per vector a unique str name and an
  f64[] of parameter_count finite values.
- CALMDATA: the family (u32 num_tasks, classes_per_task, input_dim; f64
  cluster_sep, task_offset, noise_sigma, frame_align; u32 train_per_task,
  unlabeled_per_task, test_per_task; i64 seed), then per task u32 task_id and
  the f64[]/i64[] pairs of `TaskData`, in its field order: train_inputs and
  train_labels, test_inputs and test_labels, unlabeled_inputs and audit_labels
  (inputs row-major, input_dim columns). `TaskData` checks them as they load: a
  non-finite input, or a label count that is not the row count, is a FormatError.
- CALMCRED: str mode, f64 rate, u32 set count, then per set, by ascending
  task_id: u32 task_id, i64[] indices, f64[] entropies, i64[] pseudo-labels,
  u64 input columns, f64[] inputs (row-major, one row per index).
"""
from __future__ import annotations

import dataclasses
import struct
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Mapping

import numpy as np

from ..nn import ModelSpec
from ..sampling import CredibleSet
from ..tasks import TaskData, TaskFamily

MAGIC_CHECKPOINT = b"CALMCKPT"
MAGIC_DATASET = b"CALMDATA"
MAGIC_CREDIBLE = b"CALMCRED"
FORMAT_VERSION = 1

_ACTIVATION_CODES = {"relu": 0, "tanh": 1}
_ACTIVATION_NAMES = {v: k for k, v in _ACTIVATION_CODES.items()}


class FormatError(ValueError):
    """Malformed, truncated, corrupted, or incompatible file."""


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise FormatError("string field too long")
    return struct.pack("<H", len(raw)) + raw


def _pack_f64(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    return struct.pack("<Q", arr.size) + arr.tobytes()


def _pack_i64(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr, dtype="<i8")
    return struct.pack("<Q", arr.size) + arr.tobytes()


class _Reader:
    def __init__(self, body: bytes):
        self.body = body
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.body):
            raise FormatError("file is truncated")
        out = self.body[self.pos : self.pos + count]
        self.pos += count
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def read_str(self) -> str:
        (length,) = self.unpack("<H")
        return self.take(length).decode("utf-8")

    def read_f64(self) -> np.ndarray:
        (count,) = self.unpack("<Q")
        return np.frombuffer(self.take(count * 8), dtype="<f8").astype(np.float64)

    def read_i64(self) -> np.ndarray:
        (count,) = self.unpack("<Q")
        return np.frombuffer(self.take(count * 8), dtype="<i8").astype(np.int64)

    def done(self):
        if self.pos != len(self.body):
            raise FormatError("trailing bytes after the last record")


def _write_file(path: Path, magic: bytes, body: bytes):
    payload = magic + struct.pack("<H", FORMAT_VERSION) + body
    payload += struct.pack("<I", zlib.crc32(payload))
    Path(path).write_bytes(payload)


def _read_file(path: Path, magic: bytes) -> _Reader:
    raw = Path(path).read_bytes()
    if len(raw) < len(magic) + 2 + 4:
        raise FormatError(f"{path}: file is truncated")
    if raw[: len(magic)] != magic:
        raise FormatError(
            f"{path}: bad magic {raw[:8]!r}, expected {magic.decode('ascii')}"
        )
    (version,) = struct.unpack("<H", raw[len(magic) : len(magic) + 2])
    if version != FORMAT_VERSION:
        raise FormatError(
            f"{path}: format version {version} is not supported (expected {FORMAT_VERSION})"
        )
    (stored_crc,) = struct.unpack("<I", raw[-4:])
    if zlib.crc32(raw[:-4]) != stored_crc:
        raise FormatError(f"{path}: checksum mismatch, file is corrupted")
    return _Reader(raw[len(magic) + 2 : -4])


@contextmanager
def _decoding(path: Path):
    """Report any failure to decode a body (a short record, bad UTF-8, array shapes,
    values the record types reject) as a FormatError that names the file."""
    try:
        yield
    except (ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: corrupt file: {exc}") from exc


def check_header(path: Path, section: str, found, expected):
    """Reject a file whose header record differs from the one the config makes."""
    for field in dataclasses.fields(expected):
        made, asked = getattr(found, field.name), getattr(expected, field.name)
        if made != asked:
            raise FormatError(f"{path}: made with {section}.{field.name} = {made!r}, but the "
                              f"config gives {asked!r}; run the stages before this one again")


def _pack_spec(spec: ModelSpec) -> bytes:
    body = struct.pack("<II", spec.input_dim, len(spec.hidden_dims))
    body += struct.pack(f"<{len(spec.hidden_dims)}I", *spec.hidden_dims) if spec.hidden_dims else b""
    body += struct.pack("<IB", spec.num_classes, _ACTIVATION_CODES[spec.activation])
    return body


def _read_spec(reader: _Reader) -> ModelSpec:
    input_dim, n_hidden = reader.unpack("<II")
    hidden = reader.unpack(f"<{n_hidden}I") if n_hidden else ()
    num_classes, act = reader.unpack("<IB")
    if act not in _ACTIVATION_NAMES:
        raise FormatError(f"unknown activation code {act}")
    return ModelSpec(input_dim, tuple(hidden), num_classes, _ACTIVATION_NAMES[act])


def _check_vector(spec: ModelSpec, name: str, values: np.ndarray) -> np.ndarray:
    """A checkpoint vector holds exactly parameter_count finite values."""
    if values.shape != (spec.parameter_count,):
        raise FormatError(
            f"vector {name!r} has shape {values.shape}, expected ({spec.parameter_count},)"
        )
    if not np.all(np.isfinite(values)):
        raise FormatError(f"vector {name!r} contains non-finite values")
    return values


def save_checkpoint(path: Path, spec: ModelSpec, vectors: Mapping[str, np.ndarray]):
    """Named flat float64 vectors bound to one model spec.

    Every vector must have exactly parameter_count entries and be finite;
    non-finite values are rejected before any byte is written.
    """
    body = _pack_spec(spec)
    body += struct.pack("<I", len(vectors))
    for name, values in vectors.items():
        values = _check_vector(spec, name, np.asarray(values, dtype=np.float64))
        body += _pack_str(name) + _pack_f64(values)
    _write_file(path, MAGIC_CHECKPOINT, body)


def load_checkpoint(path: Path) -> tuple[ModelSpec, dict[str, np.ndarray]]:
    reader = _read_file(path, MAGIC_CHECKPOINT)
    with _decoding(path):
        spec = _read_spec(reader)
        (count,) = reader.unpack("<I")
        vectors: dict[str, np.ndarray] = {}
        for _ in range(count):
            name = reader.read_str()
            if name in vectors:
                raise FormatError(f"vector {name!r} appears twice")
            vectors[name] = _check_vector(spec, name, reader.read_f64())
        reader.done()
    return spec, vectors


def _pack_family(family: TaskFamily) -> bytes:
    return struct.pack(
        "<IIIddddIIIq",
        family.num_tasks, family.classes_per_task, family.input_dim,
        family.cluster_sep, family.task_offset, family.noise_sigma, family.frame_align,
        family.train_per_task, family.unlabeled_per_task, family.test_per_task,
        family.seed,
    )


def _read_family(reader: _Reader) -> TaskFamily:
    (num_tasks, classes, input_dim, sep, offset, sigma, align,
     train_n, unlab_n, test_n, seed) = reader.unpack("<IIIddddIIIq")
    return TaskFamily(num_tasks, classes, input_dim, sep, offset, sigma, align,
                      train_n, unlab_n, test_n, seed)


def save_tasks(path: Path, family: TaskFamily, tasks: list[TaskData]):
    """Dataset container: the family header plus per-task split arrays."""
    if len(tasks) != family.num_tasks:
        raise FormatError(f"{len(tasks)} tasks for a family of {family.num_tasks}")
    body = _pack_family(family)
    for task in tasks:
        body += struct.pack("<I", task.task_id)
        body += _pack_f64(task.train_inputs) + _pack_i64(task.train_labels)
        body += _pack_f64(task.test_inputs) + _pack_i64(task.test_labels)
        body += _pack_f64(task.unlabeled_inputs) + _pack_i64(task.audit_labels)
    _write_file(path, MAGIC_DATASET, body)


def load_tasks(path: Path) -> tuple[TaskFamily, list[TaskData]]:
    reader = _read_file(path, MAGIC_DATASET)
    with _decoding(path):
        family = _read_family(reader)
        tasks = []
        for _ in range(family.num_tasks):
            (task_id,) = reader.unpack("<I")
            splits = []
            for _ in range(3):  # train, test, unlabeled: the inputs, then their labels
                splits += [reader.read_f64().reshape(-1, family.input_dim), reader.read_i64()]
            tasks.append(TaskData(task_id, *splits))
        reader.done()
    return family, tasks


def save_credible_sets(path: Path, credible: Mapping[int, CredibleSet]):
    """Credible-set container with a shared mode/rate header."""
    items = sorted(credible.items())
    if not items:
        raise FormatError("no credible sets to save")
    modes = {cs.mode for _, cs in items}
    rates = {cs.rate for _, cs in items}
    if len(modes) != 1 or len(rates) != 1:
        raise FormatError("credible sets in one file must share mode and rate")
    body = _pack_str(items[0][1].mode) + struct.pack("<d", items[0][1].rate)
    body += struct.pack("<I", len(items))
    for task_id, cs in items:
        body += struct.pack("<I", task_id)
        body += _pack_i64(cs.indices) + _pack_f64(cs.entropies) + _pack_i64(cs.pseudo_labels)
        body += struct.pack("<Q", cs.inputs.shape[1]) + _pack_f64(cs.inputs)
    _write_file(path, MAGIC_CREDIBLE, body)


def load_credible_sets(path: Path) -> dict[int, CredibleSet]:
    reader = _read_file(path, MAGIC_CREDIBLE)
    with _decoding(path):
        mode = reader.read_str()
        (rate,) = reader.unpack("<d")
        (count,) = reader.unpack("<I")
        out: dict[int, CredibleSet] = {}
        for _ in range(count):
            (task_id,) = reader.unpack("<I")
            if out and task_id <= max(out):
                raise FormatError(f"credible set {task_id} is out of order")
            indices = reader.read_i64()
            entropies = reader.read_f64()
            labels = reader.read_i64()
            (dim,) = reader.unpack("<Q")
            inputs = reader.read_f64().reshape(-1, dim)
            if not np.all(np.isfinite(inputs)):
                raise FormatError(f"credible set {task_id} contains non-finite inputs")
            out[task_id] = CredibleSet(task_id, indices, entropies, labels, rate, mode, inputs)
        reader.done()
    return out
