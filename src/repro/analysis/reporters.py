"""Render lint findings for humans (text) and tools (JSON)."""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, Sequence

from repro.analysis.engine import Finding

__all__ = ["render_text", "render_json", "summarize"]


def summarize(findings: Sequence[Finding]) -> Dict[str, object]:
    """Counts by severity and by rule, plus the total."""
    by_severity = Counter(f.severity for f in findings)
    by_rule = Counter(f.rule_id for f in findings)
    return {
        "total": len(findings),
        "by_severity": dict(sorted(by_severity.items())),
        "by_rule": dict(sorted(by_rule.items())),
    }


def render_text(findings: Sequence[Finding]) -> str:
    """One ``path:line:col: RULE [severity] message`` line per finding.

    Ends with a one-line summary; reports a clean run explicitly so an
    empty result is distinguishable from a crashed one.
    """
    if not findings:
        return "repro lint: no findings"
    lines = [finding.format() for finding in findings]
    summary = summarize(findings)
    by_rule = ", ".join(
        f"{rule}={count}"
        for rule, count in summary["by_rule"].items()  # type: ignore[union-attr]
    )
    lines.append(
        f"repro lint: {summary['total']} finding(s) ({by_rule})"
    )
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], indent: int = 2) -> str:
    """Stable machine-readable report (schema version 2).

    Version 2 adds ``end_line`` to every finding and an optional
    ``extra`` object carrying rule-specific evidence (the REPRO111
    interleaving witness, the REPRO113 collision partners).
    """
    payload = {
        "version": 2,
        "summary": summarize(findings),
        "findings": [finding.to_dict() for finding in findings],
    }
    return json.dumps(payload, indent=indent, sort_keys=False)
