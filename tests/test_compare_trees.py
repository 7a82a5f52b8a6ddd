import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "compare_trees.py"
spec = importlib.util.spec_from_file_location("compare_trees", SCRIPT)
compare_trees = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_trees)

CSV = "t,df1,u1,settled\n0,0.001,-0,true\n0.01,0.002,0.5,true\n0.02,-0.004,1,false\n"
REPORT = {"results": {"pi": {"iae": 2.0, "t_s": 3.5, "name": "pi"}}, "runs": [{"j": 1.0}, {"j": 4.0}]}


def write_tree(root: pathlib.Path, csv_text: str, report: dict, extra: str = "") -> pathlib.Path:
    (root / "case").mkdir(parents=True)
    (root / "case" / "trajectory.csv").write_text(csv_text)
    (root / "case" / "report.json").write_text(json.dumps(report))
    (root / "case" / "stdout.txt").write_text("ok\n" + extra)
    return root


def run(tmp_path, csv_text=CSV, report=REPORT, extra=""):
    parent = write_tree(tmp_path / "parent", CSV, REPORT)
    change = write_tree(tmp_path / "change", csv_text, report, extra)
    lines, structural = compare_trees.compare(parent, change)
    return lines, structural, compare_trees.main([str(parent), str(change)])


def test_equal_trees(tmp_path):
    lines, structural, code = run(tmp_path)
    assert (lines, structural, code) == (["3 files: 3 byte-equal, 0 not; 0 structural differences"], 0, 0)


def test_value_changes_are_measured(tmp_path):
    # df1: a ninth-digit change in row 2 (|change| 4e-12 over the peak 0.004);
    # u1: a -0 turned 0 in row 1 and 1 turned 1.25 in row 3; settled: a text change in row 2
    csv_text = "t,df1,u1,settled\n0,0.001,0,true\n0.01,0.002000000004,0.5,false\n0.02,-0.004,1.25,false\n"
    report = {"results": {"pi": {"iae": 2.000000002, "t_s": 3.5, "name": "pid"}}, "runs": [{"j": 1.5}, {"j": 5.0}]}
    lines, structural, code = run(tmp_path, csv_text, report)
    assert (structural, code) == (0, 0)
    assert lines == [
        "case/report.json: differs",
        "  3 values changed, largest relative change 0.5",
        "  results.pi.iae: 1 changed, largest relative 1e-09",
        "  results.pi.name: 1 text changes",
        "  runs[*].j: 2 changed, largest relative 0.5",
        "case/trajectory.csv: differs",
        "  2 of 3 rows differ in value",
        "  df1: 1 changed, largest |change|/peak 1e-09",
        "  u1: 1 changed, largest |change|/peak 0.25, 1 -0/0 flips",
        "  settled: 1 text changes",
        "3 files: 1 byte-equal, 2 not; 0 structural differences",
    ]


def test_a_zero_flip_alone_changes_no_row(tmp_path):
    lines, _, code = run(tmp_path, CSV.replace("-0,", "0,"))
    assert code == 0
    assert lines[1:3] == ["  0 of 3 rows differ in value", "  u1: 1 -0/0 flips"]


@pytest.mark.parametrize(
    "csv_text, report, extra, message",
    [
        (CSV.replace("df1", "df2"), REPORT, "", "  STRUCTURAL: header differs"),
        (CSV + "0.03,0,0,true\n", REPORT, "", "  STRUCTURAL: row count differs: 3 -> 4"),
        (CSV, {**REPORT, "extra": 1}, "", "  STRUCTURAL: extra: key only in CHANGE"),
        (CSV, {**REPORT, "runs": [{"j": 1.0}]}, "", "  STRUCTURAL: runs: list length differs: 2 -> 1"),
        (CSV, {**REPORT, "results": {"pi": {"iae": None, "t_s": 3.5, "name": "pi"}}}, "", "  STRUCTURAL: results.pi.iae: null differs"),
        (CSV, REPORT, "more\n", "  STRUCTURAL: line count differs: 1 -> 2"),
    ],
)
def test_structural_differences_exit_nonzero(tmp_path, csv_text, report, extra, message):
    lines, structural, code = run(tmp_path, csv_text, report, extra)
    assert message in lines
    assert (structural, code) == (1, 1)


def test_a_file_on_one_side(tmp_path):
    parent = write_tree(tmp_path / "parent", CSV, REPORT)
    change = write_tree(tmp_path / "change", CSV, REPORT)
    (change / "case" / "new.csv").write_text("a\n1\n")
    lines, structural = compare_trees.compare(parent, change)
    assert lines == ["case/new.csv: STRUCTURAL: only in CHANGE", "4 files: 3 byte-equal, 1 not; 1 structural differences"]
    assert compare_trees.main([str(parent), str(change)]) == 1
    assert compare_trees.main([str(parent)]) == 2
