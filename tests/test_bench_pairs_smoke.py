"""Tier-1 smoke for the paired-run tool: one ``--smoke`` pair, HEAD
against the working tree, must print the full table with every exact
metric equal."""

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
def test_smoke_pair_against_head():
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "pairs.py"), "HEAD",
         "--smoke"],
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
            assert row.endswith("| equal |"), row
        assert "/1 |" in row, row
