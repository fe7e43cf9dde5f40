"""tools/time_objective.py's mask digest, on hand-made masks; no worker runs."""
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np

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
