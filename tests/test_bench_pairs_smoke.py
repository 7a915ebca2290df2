"""Tier-1 smoke for the paired-run tool: one ``--smoke`` pair, HEAD
against the working tree, must print the full table with every exact
metric equal, and append the matching row to the trajectory."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _in_git_checkout() -> bool:
    if shutil.which("git") is None:
        return False
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
        capture_output=True,
    )
    return done.returncode == 0


@pytest.mark.skipif(not _in_git_checkout(), reason="needs git and a commit")
def test_smoke_pair_against_head(tmp_path):
    trajectory = tmp_path / "results" / "trajectory.jsonl"
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "pairs.py"), "HEAD",
         "--smoke", "--append", str(trajectory)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("Provenance: parent ")
    rows = [line for line in lines if line.startswith("| `")]
    # four workloads x (seven end-to-end metrics + failed)
    assert len(rows) == 4 * 8
    for row in rows:
        if any(f"`{key}`" in row for key in
               ("accuracy", "wire_bytes_per_query", "failed")):
            assert "| equal |" in row, row
        assert "/1 |" in row, row
        # one pair: every ratio is the median ratio
        assert row.split("|")[-2].strip() in row.split("|")[-4], row
    (line,) = trajectory.read_text().splitlines()
    written = json.loads(line)
    assert written["provenance"]["smoke"] is True
    assert written["provenance"]["pairs"] == 1
    assert len(written["workloads"]) == 4
    for metrics in written["workloads"].values():
        assert len(metrics) == 8
        for key in ("accuracy", "wire_bytes_per_query", "failed"):
            assert metrics[key]["verdict"] == "equal"
            assert metrics[key]["parent"] == metrics[key]["change"]
