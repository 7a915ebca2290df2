"""``benchmarks/pairs.py --trace`` on canned results: the per-layer
table and its trajectory row, with no benchmark run."""

import importlib.util
import json
import shutil
import statistics
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "pairs", ROOT / "benchmarks" / "pairs.py"
)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in CONTRACT["per_layer"]]
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
#: parent then change value of hierarchy.fit_s, pair by pair.
FIT_S = [(0.70, 0.35), (0.60, 0.40), (0.90, 0.30), (0.50, 0.60)]


def _traced(fit_s: float, other: float) -> dict:
    """One workload's ``run.py --trace 1`` result object."""
    values = {name: other for name in PER_LAYER}
    values["hierarchy.fit_s"] = fit_s
    values["cluster.evictions"] = 0.0
    return {
        "correct": True, "attempted": 10, "failed": 0,
        "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()},
    }


def _canned():
    return [
        (
            {w: _traced(parent, 1.0) for w in WORKLOADS},
            {w: _traced(change, 2.0) for w in WORKLOADS},
        )
        for parent, change in FIT_S
    ]


def test_per_layer_rows_and_table():
    rows = pairs.compare(CONTRACT, _canned(), trace=True)
    assert len(rows) == len(WORKLOADS) * len(PER_LAYER)
    assert all(row["verdict"] is None for row in rows)
    fit = next(
        r for r in rows
        if r["workload"] == WORKLOADS[0] and r["metric"] == "hierarchy.fit_s"
    )
    assert fit["wins"] == 3  # lower is better; the last pair lost
    assert fit["ratio"] == statistics.median([c / p for p, c in FIT_S])
    zero = next(r for r in rows if r["metric"] == "cluster.evictions")
    assert zero["ratio"] is None and zero["ratios"] == [None] * len(FIT_S)

    lines = pairs.table(rows)
    assert "verdict" not in lines[0]
    assert lines[0].count("|") == lines[1].count("|") == 8
    row = next(l for l in lines if "`hierarchy.fit_s`" in l)
    q1, med, q3 = pairs.quartiles([p for p, _ in FIT_S])
    assert row.count("|") == 8
    assert f"| {med:.6g} [{q1:.6g}–{q3:.6g}] | 0.375 | 3/4 |" in row
    assert row.endswith("| 0.500 0.667 0.333 1.200 |")


def test_end_to_end_table_keeps_its_verdicts():
    results = {
        "correct": True, "attempted": 1, "failed": 0,
        "metrics": {
            m["name"]: {"value": 1.0, "unit": m["unit"]}
            for m in CONTRACT["end_to_end"]
        },
    }
    rows = pairs.compare(CONTRACT, [({"serve_local": results},) * 2])
    assert {row["verdict"] for row in rows} <= {"equal", "within bound"}
    assert "| verdict |" in pairs.table(rows)[0]


def _in_git_checkout() -> bool:
    if shutil.which("git") is None:
        return False
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
        capture_output=True,
    )
    return done.returncode == 0


@pytest.mark.skipif(not _in_git_checkout(), reason="needs git and a commit")
def test_trace_flag_end_to_end(monkeypatch, tmp_path, capsys):
    canned = _canned()
    calls = []

    def fake_run(tree, seed, workload, smoke, trace=False):
        calls.append((tree.name, seed, trace))
        return canned[seed][tree.name == "change"]

    monkeypatch.setattr(pairs, "export_revision", lambda rev, dest: None)
    monkeypatch.setattr(pairs, "export_working_tree", lambda dest: None)
    monkeypatch.setattr(pairs, "run_tree", fake_run)
    trajectory = tmp_path / "trajectory.jsonl"
    code = pairs.main(
        ["HEAD", "--trace", "--pairs", "4", "--append", str(trajectory)]
    )
    assert code == 0
    # alternating order, every run traced
    assert [c[0] for c in calls] == ["parent", "change", "change", "parent"] * 2
    assert all(trace for _, _, trace in calls)
    out = capsys.readouterr().out.splitlines()
    assert "`run.py --trace 1`" in out[0]
    assert sum(line.startswith("| `") for line in out) == (
        len(WORKLOADS) * len(PER_LAYER)
    )
    (line,) = trajectory.read_text().splitlines()
    written = json.loads(line)
    assert written["provenance"]["trace"] is True
    fit = written["workloads"][WORKLOADS[0]]["hierarchy.fit_s"]
    assert fit["wins"] == 3 and fit["pairs"] == 4 and fit["verdict"] is None
    q1, med, q3 = pairs.quartiles([p for p, _ in FIT_S])
    assert (fit["parent_q1"], fit["parent"], fit["parent_q3"]) == (q1, med, q3)
    assert fit["ratio"] == statistics.median([c / p for p, c in FIT_S])


def _end_to_end(throughput: float) -> dict:
    return {
        "correct": True, "attempted": 1, "failed": 0,
        "metrics": {
            m["name"]: {"value": throughput if m["name"] == "throughput_rps"
                        else 1.0, "unit": m["unit"]}
            for m in CONTRACT["end_to_end"]
        },
    }


def test_trajectory_row_lets_the_gain_rule_be_checked():
    """A row keeps what the claimed-gain rule reads: wins, pairs, both
    medians and the parent's quartiles. Recomputed from the row alone,
    the rule gives the verdict the table gave."""
    parent = [100.0, 104.0, 98.0, 101.0, 99.0, 103.0, 97.0, 102.0, 100.0, 96.0]
    change = [p * 1.2 for p in parent[:-1]] + [90.0]
    canned = [({"serve_learn": _end_to_end(p)}, {"serve_learn": _end_to_end(c)})
              for p, c in zip(parent, change)]
    rows = pairs.compare(CONTRACT, canned)
    row = pairs.trajectory_row("a", "b", {}, rows)
    entry = row["workloads"]["serve_learn"]["throughput_rps"]
    assert entry["verdict"] == "better"
    assert entry["wins"] == 9 and entry["pairs"] == 10
    assert entry["ratio"] == statistics.median(
        [c / p for p, c in zip(parent, change)]
    )
    gain = entry["change"] - entry["parent"]
    assert gain > entry["parent_q3"] - entry["parent_q1"]
    assert entry["wins"] >= pairs.WIN_SHARE * entry["pairs"]


@pytest.mark.parametrize("factor, word", [(1.01, "better"), (0.99, None)])
def test_resolvable_gain_is_the_smallest_the_rule_calls_better(factor, word):
    """``resolvable`` is the parent's IQR over its median: a change that
    wins every pair reads ``better`` just above that gain and not just
    below it. The table shows it as ``min gain``; the trajectory row
    keeps it."""
    parent = [100.0, 104.0, 98.0, 101.0, 99.0, 103.0, 97.0, 102.0, 100.0, 96.0]
    q1, med, q3 = pairs.quartiles(parent)
    shift = factor * (q3 - q1)
    canned = [({"serve_learn": _end_to_end(p)},
               {"serve_learn": _end_to_end(p + shift)}) for p in parent]
    rows = pairs.compare(CONTRACT, canned)
    row = next(r for r in rows if r["metric"] == "throughput_rps")
    assert row["resolvable"] == (q3 - q1) / med
    assert row["wins"] == len(parent)
    assert (row["verdict"] == "better") is (word == "better")
    lines = pairs.table(rows)
    assert "| min gain |" in lines[0]
    assert lines[0].count("|") == lines[1].count("|") == 10
    shown = next(line for line in lines if "`throughput_rps`" in line)
    assert f"| {(q3 - q1) / med:.1%} |" in shown
    exact = next(line for line in lines if "`accuracy`" in line)
    assert exact.split("|")[4].strip() == "-"
    entry = pairs.trajectory_row("a", "b", {}, rows)["workloads"]["serve_learn"]
    assert entry["throughput_rps"]["resolvable"] == row["resolvable"]
    assert entry["accuracy"]["resolvable"] is None


def test_no_gain_is_resolvable_under_ten_pairs_or_in_a_trace():
    few = [({"serve_learn": _end_to_end(p)}, {"serve_learn": _end_to_end(p)})
           for p in (100.0, 110.0, 90.0)]
    assert all(r["resolvable"] is None for r in pairs.compare(CONTRACT, few))
    traced = pairs.compare(CONTRACT, _canned(), trace=True)
    assert all(r["resolvable"] is None for r in traced)
