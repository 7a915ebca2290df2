"""Static analysis for the EdgeHD reproduction: ``repro lint``.

A small pluggable AST lint engine (:mod:`repro.analysis.engine`) plus
the repo-specific rules (:mod:`repro.analysis.rules`) that pin the
conventions the reproduction's guarantees rest on — RNG discipline,
asyncio hygiene in the serving runtime, packed-payload dtype
contracts, greppable metric names, and defensive API hygiene.

Run it from the command line::

    repro lint src/                 # humans
    repro lint src/ --format json   # tools
    repro lint src/ --select REPRO101,REPRO105
    repro lint --list-rules

or programmatically::

    from repro.analysis import lint_paths
    findings = lint_paths(["src"])

``tests/test_analysis_selfcheck.py`` runs the engine over ``src/`` as
a tier-1 smoke: the repository itself must stay finding-free.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

from repro.analysis.engine import (
    PARSE_ERROR_ID,
    SEVERITIES,
    FileContext,
    Finding,
    LintEngine,
    Rule,
)
from repro.analysis.flow import (
    FLOW_RULE_IDS,
    AwaitBoundaryRaceRule,
    ControlFlowGraph,
    RngTagCollisionRule,
    SharedMemoryWriteRule,
    build_cfg,
    flow_rules,
)
from repro.analysis.reporters import render_json, render_text, summarize
from repro.analysis.rules import (
    DEFAULT_RULES,
    RULE_INDEX,
    AsyncBlockingCallRule,
    ObsLiteralNameRule,
    PackedDtypeRule,
    RngDisciplineRule,
    SilentBroadExceptRule,
    UnvalidatedArrayApiRule,
    default_rules,
)

__all__ = [
    "Finding",
    "FileContext",
    "LintEngine",
    "Rule",
    "PARSE_ERROR_ID",
    "SEVERITIES",
    "DEFAULT_RULES",
    "RULE_INDEX",
    "FLOW_RULE_IDS",
    "default_rules",
    "flow_rules",
    "build_cfg",
    "ControlFlowGraph",
    "select_rules",
    "lint_paths",
    "render_text",
    "render_json",
    "summarize",
    "RngDisciplineRule",
    "AsyncBlockingCallRule",
    "PackedDtypeRule",
    "ObsLiteralNameRule",
    "SilentBroadExceptRule",
    "UnvalidatedArrayApiRule",
    "AwaitBoundaryRaceRule",
    "SharedMemoryWriteRule",
    "RngTagCollisionRule",
]


def select_rules(
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    flow: bool = False,
) -> List[Rule]:
    """Instantiate the default rules filtered by id.

    ``select`` keeps only the named rules; ``ignore`` drops the named
    ones; both accept ids case-insensitively. Unknown ids raise so a
    typo cannot silently disable enforcement. ``flow=True`` adds the
    dataflow rules (REPRO111-113); naming a dataflow rule in
    ``select`` enables it without the flag.
    """
    known = {rid.upper() for rid in RULE_INDEX}
    for group in (select or []), (ignore or []):
        unknown = {rid.upper() for rid in group} - known
        if unknown:
            raise ValueError(
                f"unknown rule id(s) {sorted(unknown)}; known: {sorted(known)}"
            )
    pool = default_rules()
    if flow or select:
        pool.extend(flow_rules())
    keep = {rid.upper() for rid in select} if select else known
    if select is None and not flow:
        keep -= set(FLOW_RULE_IDS)
    drop = {rid.upper() for rid in ignore} if ignore else set()
    return [
        rule for rule in pool
        if rule.rule_id in keep and rule.rule_id not in drop
    ]


def lint_paths(
    paths: Iterable[Union[str, "object"]],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    flow: bool = False,
) -> List[Finding]:
    """Lint files/directories with the (filtered) default rule set."""
    engine = LintEngine(select_rules(select, ignore, flow=flow))
    return engine.lint_paths([str(p) for p in paths])
