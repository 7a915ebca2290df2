"""Static-analysis ratchet: lint the tree and persist per-rule counts.

Runs ``repro lint --flow`` (all 10 rules, dataflow included) over
``src/`` plus the fixture self-tests, times the full pass, and writes
``BENCH_lint.json`` so the finding counts are comparable across PRs:
the tree must stay at zero unsuppressed findings while the fixture
suite keeps proving the analyses still detect their defect classes.
"""

from __future__ import annotations

import time
from pathlib import Path

from _common import run_once, save_json

from repro.analysis import FLOW_RULE_IDS, RULE_INDEX, lint_paths
from repro.analysis.fixtures import FIXTURES, run_fixtures

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"


def _lint_tree() -> dict:
    t0 = time.perf_counter()
    findings = lint_paths([str(SRC)], flow=True)
    elapsed = time.perf_counter() - t0
    by_rule = {rule_id: 0 for rule_id in sorted(RULE_INDEX)}
    for finding in findings:
        by_rule[finding.rule_id] = by_rule.get(finding.rule_id, 0) + 1
    n_files = sum(1 for _ in SRC.rglob("*.py"))
    return {
        "elapsed_s": round(elapsed, 3),
        "files": n_files,
        "findings_total": len(findings),
        "findings_by_rule": by_rule,
        "flow_rules": list(FLOW_RULE_IDS),
    }


def _fixture_results() -> dict:
    results = run_fixtures()
    return {
        "total": len(FIXTURES),
        "passed": sum(1 for _, _, ok in results if ok),
        "cases": {
            case.name: {
                "rule": case.rule_id,
                "expected_lines": list(case.expect),
                "flagged_lines": sorted(f.line for f in findings),
                "ok": ok,
            }
            for case, findings, ok in results
        },
    }


def bench_lint_flow(benchmark):
    tree = run_once(benchmark, _lint_tree)
    fixtures = _fixture_results()
    payload = {"tree": tree, "fixtures": fixtures}
    save_json("BENCH_lint", payload)
    # Ratchet: the tree stays clean, the detectors stay sharp.
    assert tree["findings_total"] == 0
    assert fixtures["passed"] == fixtures["total"]
