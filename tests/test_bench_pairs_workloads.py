"""``benchmarks/pairs.py --workload`` given more than once: each side
runs ``run.py`` once per named workload, in the pair's alternating
order, and one table covers them all. Canned ``run.py`` output, no
benchmark run."""

import importlib.util
import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "pairs", ROOT / "benchmarks" / "pairs.py"
)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in CONTRACT["end_to_end"]]


def _result() -> dict:
    """One workload's ``run.py --workload W`` output object."""
    return {
        "correct": True, "attempted": 1, "failed": 0,
        "metrics": {k: {"value": 1.0, "unit": "-"} for k in END_TO_END},
    }


def test_repeated_workload_runs_each_per_side(monkeypatch, capsys):
    runs = []

    def fake_run(command, cwd, capture_output, text):
        workload = command[command.index("--workload") + 1]
        runs.append((Path(cwd).name, workload))
        return subprocess.CompletedProcess(
            command, 0, stdout=json.dumps(_result()) + "\n", stderr=""
        )

    monkeypatch.setattr(pairs, "git", lambda *args: "abc1234")
    monkeypatch.setattr(pairs, "export_revision", lambda rev, dest: None)
    monkeypatch.setattr(pairs, "export_working_tree", lambda dest: None)
    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    code = pairs.main([
        "HEAD", "--pairs", "2", "--workload", "serve_local",
        "--workload", "serve_escalate", "--workload", "serve_local",
    ])
    assert code == 0
    # the duplicate is dropped; each side runs both, sides alternate
    both = ["serve_local", "serve_escalate"]
    assert runs == (
        [("parent", w) for w in both] + [("change", w) for w in both]
        + [("change", w) for w in both] + [("parent", w) for w in both]
    )
    rows = [l for l in capsys.readouterr().out.splitlines()
            if l.startswith("| `")]
    # BENCHMARK.json order, end-to-end metrics plus `failed`
    assert [r.split("`")[1] for r in rows] == (
        ["serve_escalate"] * (len(END_TO_END) + 1)
        + ["serve_local"] * (len(END_TO_END) + 1)
    )


def test_a_broken_workload_breaks_the_side(monkeypatch):
    def fake_run(command, cwd, capture_output, text):
        workload = command[command.index("--workload") + 1]
        out = "" if workload == "serve_escalate" else json.dumps(_result())
        return subprocess.CompletedProcess(command, 1, stdout=out, stderr="")

    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    assert pairs.run_tree(
        Path("tree"), 0, ["serve_local", "serve_escalate"], smoke=False
    ) == {}
    assert set(pairs.run_tree(Path("tree"), 0, ["serve_local"], False)) == {
        "serve_local"
    }
