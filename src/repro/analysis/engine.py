"""Pluggable AST lint engine for repo-specific invariants.

The reproduction's headline guarantees (served answers identical to the
offline walk, dense/packed backend equivalence, seeded reproducibility
of every figure) rest on coding conventions — all randomness flows
through :mod:`repro.utils.rng`, packed payloads keep their uint64
discipline, ``repro.serve`` coroutines never block the event loop.
This module provides the machinery to *enforce* those conventions:

* :class:`Rule` — the plug-in unit: an id, a severity, a description,
  an autofix hint and a set of AST node types it wants to observe.
* :class:`LintEngine` — parses each file once, walks the tree once,
  and dispatches every node to the rules interested in its type while
  maintaining the enclosing-function stack in the shared
  :class:`FileContext`.
* Suppression — a ``# repro-lint: disable=RULE[,RULE...]`` comment on
  a line suppresses those rules for that line; the same comment in the
  leading comment block of a file suppresses them for the whole file.
  ``disable=all`` suppresses every rule.

The concrete rules live in :mod:`repro.analysis.rules`; reporters in
:mod:`repro.analysis.reporters`; the CLI front end is
``repro lint`` (see :mod:`repro.cli`).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "LintEngine",
    "PARSE_ERROR_ID",
    "SEVERITIES",
]

#: Recognized severities, most severe first.
SEVERITIES = ("error", "warning")

#: Rule id reported for files that fail to parse.
PARSE_ERROR_ID = "REPRO100"

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    severity: str
    message: str
    autofix_hint: str = ""
    #: last line of the offending statement (0 = same as ``line``);
    #: suppression comments anywhere in the span apply.
    end_line: int = 0
    #: structured rule-specific evidence (interleaving witness for
    #: REPRO111, colliding tag sites for REPRO113, ...); rendered
    #: verbatim by the JSON reporter.
    extra: Optional[Dict[str, object]] = None

    def format(self) -> str:
        """``path:line:col: RULE [severity] message`` (+ optional hint)."""
        text = (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} [{self.severity}] {self.message}"
        )
        if self.autofix_hint:
            text += f" (fix: {self.autofix_hint})"
        return text

    def span(self) -> Tuple[int, int]:
        """Inclusive ``(first, last)`` line range of the finding."""
        return self.line, max(self.line, self.end_line)

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "severity": self.severity,
            "message": self.message,
            "autofix_hint": self.autofix_hint,
            "end_line": max(self.line, self.end_line),
        }
        if self.extra is not None:
            payload["extra"] = self.extra
        return payload

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)


def _parse_suppressions(
    lines: Sequence[str],
) -> Tuple[Set[str], Dict[int, Set[str]]]:
    """Extract file-level and per-line rule suppressions.

    Returns ``(file_rules, {line_no: rules})`` with 1-based line
    numbers. A whole-line ``# repro-lint: disable=...`` comment inside
    the leading comment block applies to the entire file; any other
    occurrence applies to its own line.
    """
    file_rules: Set[str] = set()
    line_rules: Dict[int, Set[str]] = {}
    in_header = True
    for i, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if in_header and stripped and not stripped.startswith("#"):
            in_header = False
        match = _SUPPRESS_RE.search(raw)
        if not match:
            continue
        rules = {
            token.strip().upper()
            for token in match.group(1).split(",")
            if token.strip()
        }
        if in_header and stripped.startswith("#"):
            file_rules |= rules
        else:
            line_rules.setdefault(i, set()).update(rules)
    return file_rules, line_rules


class FileContext:
    """Everything a rule may need about the file under analysis.

    Exposes the parsed tree, raw source lines, import-alias resolution
    (``import numpy as np`` makes ``np.random.default_rng`` resolve to
    ``numpy.random.default_rng``) and the stack of enclosing function
    definitions, which the engine maintains during the walk.
    """

    def __init__(self, path: Union[str, Path], source: str) -> None:
        self.path = str(path)
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree: ast.Module = ast.parse(source, filename=self.path)
        #: local alias -> dotted module path, from ``import x.y as z``.
        self.aliases: Dict[str, str] = {}
        #: local name -> dotted origin, from ``from x import y [as z]``.
        self.from_imports: Dict[str, str] = {}
        self._collect_imports()
        self.file_suppressions, self.line_suppressions = _parse_suppressions(
            self.lines
        )
        #: enclosing (Async)FunctionDef stack, innermost last; the
        #: engine pushes/pops while walking.
        self.func_stack: List[Union[ast.FunctionDef, ast.AsyncFunctionDef]] = []

    # ------------------------------------------------------------------
    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else local
                    self.aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.from_imports[local] = f"{node.module}.{alias.name}"

    # ------------------------------------------------------------------
    def dotted_name(self, expr: ast.expr) -> Optional[str]:
        """Resolve ``np.random.default_rng`` -> ``numpy.random.default_rng``.

        Walks an Attribute/Name chain and maps its head through the
        file's import aliases. Returns ``None`` for expressions that
        are not plain dotted names (subscripts, calls, literals).
        """
        parts: List[str] = []
        node = expr
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        head = node.id
        parts.append(self.aliases.get(head, self.from_imports.get(head, head)))
        return ".".join(reversed(parts))

    @staticmethod
    def terminal_name(expr: ast.expr) -> Optional[str]:
        """Last attribute/name segment of a callee (``x.y.z`` -> ``z``)."""
        if isinstance(expr, ast.Attribute):
            return expr.attr
        if isinstance(expr, ast.Name):
            return expr.id
        return None

    # ------------------------------------------------------------------
    def in_async_function(self) -> bool:
        """True when the walk is inside an ``async def`` body."""
        return any(
            isinstance(f, ast.AsyncFunctionDef) for f in self.func_stack
        )

    # ------------------------------------------------------------------
    def is_suppressed(
        self, rule_id: str, line: int, end_line: int = 0
    ) -> bool:
        """True when ``rule_id`` is disabled anywhere in the statement span.

        ``end_line`` extends the check over multi-line statements: a
        ``# repro-lint: disable=...`` comment on *any* physical line of
        the statement (e.g. the closing paren of a wrapped call)
        suppresses the finding, matching how humans naturally place
        the comment.
        """
        rule_id = rule_id.upper()
        if rule_id in self.file_suppressions or "ALL" in self.file_suppressions:
            return True
        last = max(line, end_line)
        for at, scope in self.line_suppressions.items():
            if line <= at <= last and (rule_id in scope or "ALL" in scope):
                return True
        return False


class Rule:
    """Base class / protocol for lint rules.

    Subclasses set the class attributes and implement
    :meth:`on_node` for the node types named in :attr:`node_types`;
    :meth:`finish_file` runs after each file's walk for rules with
    file-level findings.
    """

    rule_id: str = "REPRO000"
    severity: str = "error"
    description: str = ""
    autofix_hint: str = ""
    #: AST node classes this rule wants to observe.
    node_types: Tuple[type, ...] = ()

    def on_node(self, ctx: FileContext, node: ast.AST) -> Iterator[Finding]:
        """Called for every node matching :attr:`node_types`."""
        return iter(())

    def finish_file(self, ctx: FileContext) -> Iterator[Finding]:
        """Called after the walk; override for file-level findings."""
        return iter(())

    def finish_project(
        self, contexts: Sequence[FileContext]
    ) -> Iterator[Finding]:
        """Called once after every file was walked, with all contexts.

        Override for whole-program analyses (cross-file handoff
        summaries, global RNG-tag collection). Findings are attributed
        to — and suppressible in — the file named by their ``path``.
        """
        return iter(())

    # ------------------------------------------------------------------
    def finding(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: str,
        extra: Optional[Dict[str, object]] = None,
    ) -> Finding:
        """Build a :class:`Finding` for ``node`` with this rule's metadata."""
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            severity=self.severity,
            message=message,
            autofix_hint=self.autofix_hint,
            end_line=getattr(node, "end_lineno", 0) or 0,
            extra=extra,
        )


class LintEngine:
    """Run a set of :class:`Rule` instances over files or source text."""

    def __init__(self, rules: Sequence[Rule]) -> None:
        ids = [rule.rule_id for rule in rules]
        duplicates = {rid for rid in ids if ids.count(rid) > 1}
        if duplicates:
            raise ValueError(f"duplicate rule ids: {sorted(duplicates)}")
        for rule in rules:
            if rule.severity not in SEVERITIES:
                raise ValueError(
                    f"{rule.rule_id}: severity must be one of {SEVERITIES}, "
                    f"got {rule.severity!r}"
                )
        self.rules: List[Rule] = list(rules)

    # ------------------------------------------------------------------
    def lint_source(
        self, source: str, path: Union[str, Path] = "<string>"
    ) -> List[Finding]:
        """Lint one file's source text; parse errors become findings."""
        findings, ctx = self._lint_one(source, path)
        contexts = [ctx] if ctx is not None else []
        findings.extend(self._project_findings(contexts))
        return sorted(findings, key=Finding.sort_key)

    def _lint_one(
        self, source: str, path: Union[str, Path]
    ) -> Tuple[List[Finding], Optional[FileContext]]:
        """Per-file passes only; project rules run in the caller."""
        try:
            ctx = FileContext(path, source)
        except SyntaxError as exc:
            return [
                Finding(
                    path=str(path),
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    rule_id=PARSE_ERROR_ID,
                    severity="error",
                    message=f"file does not parse: {exc.msg}",
                )
            ], None
        findings: List[Finding] = []
        self._walk(ctx, ctx.tree, findings)
        for rule in self.rules:
            findings.extend(
                f for f in rule.finish_file(ctx)
                if not ctx.is_suppressed(f.rule_id, f.line, f.end_line)
            )
        return findings, ctx

    def _project_findings(
        self, contexts: Sequence[FileContext]
    ) -> List[Finding]:
        """Run :meth:`Rule.finish_project` hooks, applying suppressions."""
        by_path = {ctx.path: ctx for ctx in contexts}
        findings: List[Finding] = []
        for rule in self.rules:
            for finding in rule.finish_project(contexts):
                ctx = by_path.get(finding.path)
                if ctx is not None and ctx.is_suppressed(
                    finding.rule_id, finding.line, finding.end_line
                ):
                    continue
                findings.append(finding)
        return findings

    def lint_paths(self, paths: Iterable[Union[str, Path]]) -> List[Finding]:
        """Lint files and (recursively) directories of ``*.py`` files."""
        findings: List[Finding] = []
        contexts: List[FileContext] = []
        for target in self._iter_files(paths):
            per_file, ctx = self._lint_one(
                Path(target).read_text(encoding="utf-8"), target
            )
            findings.extend(per_file)
            if ctx is not None:
                contexts.append(ctx)
        findings.extend(self._project_findings(contexts))
        return sorted(findings, key=Finding.sort_key)

    @staticmethod
    def _iter_files(paths: Iterable[Union[str, Path]]) -> List[Path]:
        files: List[Path] = []
        for raw in paths:
            path = Path(raw)
            if path.is_dir():
                files.extend(sorted(path.rglob("*.py")))
            elif path.suffix == ".py":
                files.append(path)
            elif not path.exists():
                raise FileNotFoundError(f"no such file or directory: {path}")
        return files

    # ------------------------------------------------------------------
    def _walk(
        self, ctx: FileContext, node: ast.AST, findings: List[Finding]
    ) -> None:
        for rule in self.rules:
            if rule.node_types and isinstance(node, rule.node_types):
                for finding in rule.on_node(ctx, node):
                    if not ctx.is_suppressed(
                        finding.rule_id, finding.line, finding.end_line
                    ):
                        findings.append(finding)
        is_func = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if is_func:
            ctx.func_stack.append(node)  # type: ignore[arg-type]
        for child in ast.iter_child_nodes(node):
            self._walk(ctx, child, findings)
        if is_func:
            ctx.func_stack.pop()
