"""tools/time_objective.py's mask and model digests, on hand-made masks and models, and
its arguments; no worker runs."""
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "time_objective.py"
_spec = importlib.util.spec_from_file_location("time_objective", TOOL)
time_objective = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(time_objective)


def test_every_mask_form_gives_the_same_digest():
    # a tree's masks are bool arrays, float64 0/1 arrays, or holders of one in `.m`
    rng = np.random.default_rng(0)
    masks = [rng.random(709) < 0.3, np.zeros(709, bool), np.ones(3, bool)]
    floats = [np.where(mask, 1.0, 0.0) for mask in masks]
    holders = [SimpleNamespace(m=values) for values in floats]
    digest = time_objective.masks_sha(masks)
    assert digest == time_objective.masks_sha(floats) == time_objective.masks_sha(holders)
    assert digest == time_objective._sha(b"".join(values.tobytes() for values in floats))
    assert digest != time_objective.masks_sha(masks[:2])


def test_a_model_array_and_an_older_tree_s_holder_give_the_same_bytes():
    # a tree's models are read-only (P,) arrays, or, in older trees, holders of one
    model = np.random.default_rng(1).standard_normal(709)
    model.flags.writeable = False
    assert time_objective._model_bytes(model) == model.tobytes()
    assert time_objective._model_bytes(SimpleNamespace(values=model)) == model.tobytes()


@pytest.mark.parametrize("size", ["96,,96", "x", "0", "64,-1", "", "1.5"])
def test_a_malformed_size_exits_2_before_any_worker_starts(size, monkeypatch, capsys):
    def never(*args):
        raise AssertionError("a worker was started")

    monkeypatch.setattr(time_objective, "_start", never)
    with pytest.raises(SystemExit) as exited:
        time_objective.main(["--src", "side=src", "--sizes", "32", size])
    assert exited.value.code == 2
    assert "positive widths" in capsys.readouterr().err


def test_any_size_resolves_and_only_32_keeps_the_default_lr():
    assert time_objective.hidden_size(" 96, 96") == "96,96"
    assert time_objective.size_entries("32") == {"train.hidden_dims": "32"}
    for size in ("96,96", "64", "1024,1024"):
        entries = time_objective.size_entries(size)
        assert entries["train.pretrain_lr"] == entries["train.finetune_lr"] == "0.02"


def test_the_quartiles_keep_the_first_repeat():
    summary = time_objective._quartiles([0.9, 0.2, 0.3, 0.25, 0.22])
    assert summary["first"] == 0.9 and summary["median"] == 0.25


class StubSpeed:
    """A `HostSpeed` stand-in: one sample before the region, one added inside it, and a
    fixed factor over the samples it is asked about."""

    FACTOR = 1.25

    def __init__(self):
        self.samples, self.entered, self.since = [1e-4], 0, None

    def __enter__(self):
        self.entered += 1
        return self

    def __exit__(self, *exc):
        return False

    def factor(self, since: int) -> float:
        self.since = since
        return self.FACTOR


def test_a_timed_region_records_its_seconds_times_the_probe_s_factor(monkeypatch):
    def never(*args):
        raise AssertionError("a worker was started")

    monkeypatch.setattr(time_objective, "_start", never)
    speed = StubSpeed()
    result, usage = time_objective._timed(speed, lambda x: speed.samples.append(x) or x, 2e-4)
    assert result == 2e-4 and speed.entered == 1
    # the factor covers the samples taken from the region's start on
    assert speed.since == 1
    assert set(usage) == set(time_objective.USAGE)
    assert usage["corrected_s"] == usage["s"] * StubSpeed.FACTOR


def test_the_probe_is_perfbench_s_host_speed():
    speed = time_objective._host_speed()
    assert type(speed).__name__ == "HostSpeed" and speed.samples == []
    assert speed.factor(0) == 1.0
