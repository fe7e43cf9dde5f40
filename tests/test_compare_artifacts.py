"""tools/compare_artifacts.py, the byte-identity gate, on hand-made trees; no worker runs."""
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_artifacts.py"
_spec = importlib.util.spec_from_file_location("compare_artifacts", TOOL)
compare_artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_artifacts)


def write_tree(root: Path, files: dict) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def report(average: float) -> str:
    return f"task,accuracy\n0,0.5\naverage,{average!r}\n"


def summary(mean: float) -> str:
    return f"point,accuracy\n0_1,0.5\nmean,{mean!r}\nstd,0.01\n"


def sides(tmp_path: Path, parent: dict, change: dict) -> dict:
    return {"parent": write_tree(tmp_path / "parent", parent),
            "change": write_tree(tmp_path / "change", change)}


class TestCompare:
    def test_equal_trees_list_nothing(self, tmp_path):
        files = {"default/seed00/report.csv": report(0.9), "order/seed00/masks.calmckpt": "m"}
        assert compare_artifacts.compare(sides(tmp_path, files, dict(files))) == []

    def test_differing_and_missing_files_are_listed(self, tmp_path):
        parent = {"a/same.txt": "x", "a/bytes.txt": "1", "a/only_parent.txt": "p"}
        change = {"a/same.txt": "x", "a/bytes.txt": "2", "b/only_change.txt": "c"}
        assert compare_artifacts.compare(sides(tmp_path, parent, change)) == [
            "a/bytes.txt: change differs from parent",
            "a/only_parent.txt: missing on change",
            "b/only_change.txt: missing on parent",
        ]


class TestTally:
    def test_one_line_per_file_name(self, tmp_path):
        parent = {f"default/seed0{s}/{name}": name for s in range(3)
                  for name in ("credible.calmcred", "report.csv")}
        change = {**parent, "default/seed01/credible.calmcred": "x",
                  "default/seed02/credible.calmcred": "y", "order/seed00/masks.calmckpt": "m"}
        assert compare_artifacts.tally(sides(tmp_path, parent, change)) == [
            "credible.calmcred: 2 of 3 differ",
            "masks.calmckpt: 1 of 1 differ",
            "report.csv: 0 of 3 differ",
        ]

    def test_more_than_two_sides_name_the_side(self, tmp_path):
        roots = sides(tmp_path, {"a/report.csv": "1"}, {"a/report.csv": "2"})
        roots["same"] = write_tree(tmp_path / "same", {"a/report.csv": "1"})
        assert compare_artifacts.tally(roots) == ["report.csv: 1 of 1 differ on change",
                                                  "report.csv: 0 of 1 differ on same"]


    def test_a_container_whose_arrays_all_match_differs_in_its_header_only(self, tmp_path):
        parent = {"a/merged.calmckpt": "1", "b/merged.calmckpt": "1", "c/merged.calmckpt": "1"}
        change = {"a/merged.calmckpt": "2", "b/merged.calmckpt": "2", "c/merged.calmckpt": "1"}
        payloads = {"parent": {rel: {"merged": "m"} for rel in parent},
                    "change": {"a/merged.calmckpt": {"merged": "m"},
                               "b/merged.calmckpt": {"merged": "x"},
                               "c/merged.calmckpt": {"merged": "m"}}}
        roots = sides(tmp_path, parent, change)
        assert compare_artifacts.compare(roots, payloads) == [
            "a/merged.calmckpt: change differs from parent in its header only",
            "b/merged.calmckpt: change differs from parent",
        ]
        assert compare_artifacts.tally(roots, payloads=payloads) == [
            "merged.calmckpt: 2 of 3 differ (1 header only)"]

    def test_one_line_per_workload_group(self, tmp_path):
        parent = {"default/seed00/report.csv": "1", "order/seed00/summary.csv": "s",
                  "branches/tanh/seed00/report.csv": "t", "branches/wide/seed00/report.csv": "w"}
        change = {**parent, "branches/wide/seed00/report.csv": "x"}
        assert compare_artifacts.tally(sides(tmp_path, parent, change),
                                       compare_artifacts.workload) == [
            "branches/: 1 of 2 differ",
            "default/: 0 of 1 differ",
            "order/: 0 of 1 differ",
        ]


def test_order_points_without_credible_sets_are_stated_not_differing(tmp_path):
    parent = {"order/seed00/credible.calmcred": "shared",
              "order/seed00/order_0_1/credible.calmcred": "shared",
              "order/seed00/order_0_1/report.csv": "r",
              "default/seed00/credible.calmcred": "c"}
    change = {"order/seed00/credible.calmcred": "shared",
              "order/seed00/order_0_1/report.csv": "r"}
    roots = sides(tmp_path, parent, change)
    # a credible-set file missing anywhere else still counts
    assert compare_artifacts.compare(roots) == [
        "default/seed00/credible.calmcred: missing on change"]
    assert compare_artifacts.tally(roots) == [
        "credible.calmcred: 1 of 3 differ (1 missing as stated)",
        "report.csv: 0 of 1 differ",
    ]


def test_the_components_point_s_reports_are_stated_as_added(tmp_path):
    # a parent whose components point ran no stage_evaluate wrote none of its reports
    shared = {"suites/components/summary.csv": "s",
              "suites/components/components/merged.calmckpt": "m"}
    added = {f"suites/components/components/{name}": "r" for name in (
        "report.csv", "report.txt", "layer_density.csv", "density_trace.csv",
        "objective_trace.csv", "magnitude_overlap.csv")}
    roots = sides(tmp_path, shared, {**shared, **added, "suites/lr/report.csv": "r"})
    # a file added anywhere else still counts
    assert compare_artifacts.compare(roots) == ["suites/lr/report.csv: missing on parent"]
    assert compare_artifacts.tally(roots, compare_artifacts.workload) == [
        "suites/: 1 of 9 differ (6 added as stated)"]
    assert "report.csv: 1 of 2 differ (1 added as stated)" in compare_artifacts.tally(roots)


def test_leaves_are_every_array_by_its_path():
    import numpy as np

    from calmkit.sampling import CredibleSet

    sets = {3: CredibleSet(3, np.array([1]), np.array([0.5]), np.array([0]))}
    found = dict(compare_artifacts.leaves(({"merged": np.zeros(2)}, [sets], "header", 7)))
    assert list(found) == ["0.merged", "1.0.3.indices", "1.0.3.entropies",
                           "1.0.3.pseudo_labels"]


class TestComparePayloads:
    def test_equal_arrays_and_one_sided_leaves(self):
        parent = {"a/credible.calmcred": {"0.indices": "i", "0.inputs": "x"},
                  "a/masks.calmckpt": {"step00_task01": "m"},
                  "b/credible.calmcred": {"0.indices": "j"}}
        change = {"a/credible.calmcred": {"0.indices": "i"},
                  "a/masks.calmckpt": {"step00_task01": "m",
                                       "step00_task01.density_trace": "d",
                                       "step00_task01.objective_trace": "o"}}
        assert compare_artifacts.compare_payloads({"parent": parent, "change": change}) == (
            [], ["payload: 0 of 2 arrays differ",
                 "payload: density_trace only on change (1 arrays)",
                 "payload: inputs only on parent (1 arrays)",
                 "payload: objective_trace only on change (1 arrays)"])

    def test_a_differing_array_is_listed(self):
        parent = {"a/merged.calmckpt": {"merged": "1"}}
        change = {"a/merged.calmckpt": {"merged": "2"}}
        assert compare_artifacts.compare_payloads({"parent": parent, "change": change}) == (
            ["a/merged.calmckpt merged: change differs from parent"],
            ["payload: 1 of 1 arrays differ"])


def test_every_branch_resolves_to_a_config_of_its_own():
    from calmkit.bench.config import build_config

    runs = [{}, *compare_artifacts.BRANCHES.values(), compare_artifacts.WIDE]
    configs = {repr(build_config({"report": compare_artifacts.TRACED_REPORT, **overrides}))
               for overrides in runs}
    assert len(configs) == len(runs)


class TestPairedAccuracy:
    def test_equal_averages_print_nothing(self, tmp_path):
        files = {f"default/seed0{s}/report.csv": report(0.9 + s / 100) for s in range(3)}
        files["order/seed00/summary.csv"] = summary(0.93)
        assert compare_artifacts.paired_accuracy(sides(tmp_path, files, dict(files))) == []

    def test_a_difference_of_1e_13_is_no_change(self, tmp_path):
        roots = sides(tmp_path, {"default/seed00/report.csv": report(0.9)},
                      {"default/seed00/report.csv": report(0.9 + 1e-13)})
        assert compare_artifacts.paired_accuracy(roots) == []

    def test_three_default_seeds(self, tmp_path):
        # paired differences +0.01, -0.01, +0.03: mean 0.01, standard deviation 0.02
        before, after = (0.90, 0.95, 0.80), (0.91, 0.94, 0.83)
        roots = sides(tmp_path,
                      {f"default/seed0{s}/report.csv": report(a) for s, a in enumerate(before)},
                      {f"default/seed0{s}/report.csv": report(a) for s, a in enumerate(after)})
        assert compare_artifacts.paired_accuracy(roots) == [
            "default seed00, change: 0.900000 -> 0.910000 (+0.010000)",
            "default seed01, change: 0.950000 -> 0.940000 (-0.010000)",
            "default seed02, change: 0.800000 -> 0.830000 (+0.030000)",
            "default, change against parent: mean 0.883333 -> 0.893333, paired difference "
            "+0.010000 (standard error 0.011547; 2 rose, 1 fell, 0 same)",
        ]

    def test_order_summaries_count_a_1e_13_difference_as_same(self, tmp_path):
        # paired differences 0 (after rounding) and +0.002: mean 0.001, standard error 0.001
        roots = sides(tmp_path,
                      {"order/seed00/summary.csv": summary(0.95),
                       "order/seed01/summary.csv": summary(0.93)},
                      {"order/seed00/summary.csv": summary(0.95 + 1e-13),
                       "order/seed01/summary.csv": summary(0.932)})
        assert compare_artifacts.paired_accuracy(roots) == [
            "order seed00, change: 0.950000 -> 0.950000 (+0.000000)",
            "order seed01, change: 0.930000 -> 0.932000 (+0.002000)",
            "order, change against parent: mean 0.940000 -> 0.941000, paired difference "
            "+0.001000 (standard error 0.001000; 1 rose, 0 fell, 1 same)",
        ]


@pytest.mark.parametrize("argv", [["--src", "parent=src"], ["--src", "a=src", "--src", "a=x"]])
def test_fewer_than_two_sides_is_a_usage_error(argv):
    with pytest.raises(SystemExit) as exit_info:
        compare_artifacts.main(argv)
    assert exit_info.value.code == 2


def test_a_workdir_holding_a_side_is_a_usage_error(tmp_path):
    (tmp_path / "parent").mkdir()
    with pytest.raises(SystemExit) as exit_info:
        compare_artifacts.main(["--src", "parent=src", "--src", "change=src",
                                "--workdir", str(tmp_path)])
    assert exit_info.value.code == 2
