"""Await-boundary dataflow analyses for the serving stack.

PR 8 fixed a real race by hand: ``ServingRuntime._forward`` appended to
``req.charged_path`` *after* ``await queue.put(req)`` — by the time the
producer coroutine resumed, the consumer may already have dequeued the
request and keyed fault-corruption replay off the un-appended path.
Per-node AST matching cannot see that defect class: it lives in the
*order* of a handoff, a suspension point, and a mutation. This module
supplies the machinery that can:

* :func:`build_cfg` — a per-function control-flow graph whose basic
  blocks are split at ``await`` points (any statement containing an
  ``await`` is a block of its own), with ``normal``, ``exception`` and
  ``back`` edge kinds. Exception edges carry the state from *before*
  each statement of the raising block, which encodes the queueing
  contract (``ShedError``/``QueueTimeout`` are raised before the item
  is enqueued, so a failed handoff never escapes the item).
* :func:`solve_forward` — a worklist fixpoint over such a CFG for
  monotone per-name fact maps.
* Three project-wide rules built on top:

  - **REPRO111** (:class:`AwaitBoundaryRaceRule`) — in ``async def``
    bodies under ``repro.serve``, flag mutations of an object that was
    already handed to another task (``queue.put``/``put_nowait``,
    ``asyncio.ensure_future``/``create_task``, or a call into a
    function whose interprocedural *handoff summary* says a parameter
    escapes) once an await boundary has passed. The diagnostic carries
    an interleaving witness: handoff line, the consumer step, and the
    racing mutation line.
  - **REPRO112** (:class:`SharedMemoryWriteRule`) — writes through
    arrays obtained from ``SharedModelStore.attach``/``node_views``/
    ``attach_packed`` (contractually read-only in workers), including
    in-place numpy mutators, ``numpy.copyto``-style writers,
    ``flags.writeable = True`` casts, and training entry points on a
    classifier after ``attach_model``.
  - **REPRO113** (:class:`RngTagCollisionRule`) — whole-program
    collection of ``derive_rng(seed, tag)`` call sites; duplicate
    literal tags, duplicate f-string skeletons, literals that an
    f-string pattern can also produce, and f-strings with adjacent
    holes all silently correlate streams that must stay independent.

Known imprecision (by design): aliasing through container membership
(``bucket.append(req)``) is not tracked, mutation inside helper calls
is not summarized, and every ``await`` is treated as a potential
suspension point even when the awaited coroutine completes
synchronously. REPRO111 is the serving stack's only guard for this race
class: ``tests/test_analysis_flow.py`` re-plants the pre-fix ``_forward``
in a copy of the live ``runtime.py`` and pins that it is flagged.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.analysis.engine import FileContext, Finding, Rule

__all__ = [
    "NORMAL",
    "EXCEPTION",
    "BACK",
    "BasicBlock",
    "ControlFlowGraph",
    "build_cfg",
    "solve_forward",
    "HandoffSummary",
    "compute_handoff_summaries",
    "AwaitBoundaryRaceRule",
    "SharedMemoryWriteRule",
    "RngTagCollisionRule",
    "flow_rules",
    "FLOW_RULE_IDS",
]

#: CFG edge kinds.
NORMAL = "normal"
EXCEPTION = "exception"
BACK = "back"

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

# getattr keeps the module importable (and type-checkable) on older
# interpreters that lack TryStar (3.11+) / Match (3.10+).
_TRY_TYPES: Tuple[type, ...] = (ast.Try,) + (
    (getattr(ast, "TryStar"),) if hasattr(ast, "TryStar") else ()
)
_MATCH_TYPES: Tuple[type, ...] = (
    (getattr(ast, "Match"),) if hasattr(ast, "Match") else ()
)

_SCOPE_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


# ----------------------------------------------------------------------
# CFG construction
# ----------------------------------------------------------------------
@dataclass
class BasicBlock:
    """A run of statements with no internal suspension point.

    ``statements`` holds the AST nodes the transfer function must
    interpret; compound statements contribute only their *header* (an
    ``ast.For`` node stands for its target binding and iterable read,
    an ``ast.excepthandler`` for its name binding, a synthesized
    ``ast.Expr`` for a branch test) — their bodies live in other
    blocks.
    """

    index: int
    statements: List[ast.AST] = field(default_factory=list)
    #: True when the block is a single await-carrying statement.
    has_await: bool = False
    #: ``(successor_index, kind)`` with kind in NORMAL/EXCEPTION/BACK.
    successors: List[Tuple[int, str]] = field(default_factory=list)


@dataclass
class ControlFlowGraph:
    """Per-function CFG with await points as basic-block boundaries."""

    function: FunctionNode
    blocks: List[BasicBlock]
    entry: int
    exit: int

    def block(self, index: int) -> BasicBlock:
        return self.blocks[index]


def _shallow_walk(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested defs/classes."""
    stack: List[ast.AST] = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(child, _SCOPE_TYPES):
                continue
            stack.append(child)


def _contains_await(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Await) for n in _shallow_walk(node))


class _CFGBuilder:
    def __init__(self, func: FunctionNode) -> None:
        self.func = func
        self.blocks: List[BasicBlock] = []
        #: (continue_target, break_target) for enclosing loops.
        self.loop_stack: List[Tuple[int, int]] = []
        #: handler-entry blocks of enclosing ``try`` bodies.
        self.handler_stack: List[List[int]] = []
        self.entry = self._new_block()
        self.exit = self._new_block()

    # -- plumbing ------------------------------------------------------
    def _new_block(self) -> int:
        block = BasicBlock(index=len(self.blocks))
        self.blocks.append(block)
        return block.index

    def _edge(self, src: Optional[int], dst: int, kind: str = NORMAL) -> None:
        if src is None:
            return
        pair = (dst, kind)
        if pair not in self.blocks[src].successors:
            self.blocks[src].successors.append(pair)

    def _split(self, cur: int) -> int:
        nxt = self._new_block()
        self._edge(cur, nxt)
        return nxt

    def _exception_edges(self, cur: int) -> None:
        for entries in self.handler_stack:
            for handler_entry in entries:
                self._edge(cur, handler_entry, EXCEPTION)

    def _place(
        self, node: ast.AST, cur: int, has_await: Optional[bool] = None
    ) -> int:
        """Append ``node`` to the open block, isolating await points."""
        if has_await is None:
            has_await = _contains_await(node)
        if has_await:
            if self.blocks[cur].statements:
                cur = self._split(cur)
            self.blocks[cur].statements.append(node)
            self.blocks[cur].has_await = True
            self._exception_edges(cur)
            return self._split(cur)
        self.blocks[cur].statements.append(node)
        self._exception_edges(cur)
        return cur

    def _place_test(self, test: ast.expr, cur: int) -> int:
        synthetic = ast.copy_location(ast.Expr(value=test), test)
        return self._place(synthetic, cur)

    # -- statement dispatch --------------------------------------------
    def _seq(
        self, stmts: Sequence[ast.stmt], cur: Optional[int]
    ) -> Optional[int]:
        for stmt in stmts:
            if cur is None:
                cur = self._new_block()  # unreachable; never gets a state
            cur = self._stmt(stmt, cur)
        return cur

    def _stmt(self, stmt: ast.stmt, cur: int) -> Optional[int]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, cur)
        if isinstance(stmt, ast.While):
            return self._while(stmt, cur)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, cur)
        if isinstance(stmt, _TRY_TYPES):
            return self._try(stmt, cur)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, cur)
        if _MATCH_TYPES and isinstance(stmt, _MATCH_TYPES):
            return self._match(stmt, cur)
        if isinstance(stmt, ast.Return):
            cur = self._place(stmt, cur)
            self._edge(cur, self.exit)
            return None
        if isinstance(stmt, ast.Raise):
            cur = self._place(stmt, cur)
            self._edge(cur, self.exit)
            return None
        if isinstance(stmt, ast.Break):
            if self.loop_stack:
                self._edge(cur, self.loop_stack[-1][1])
            return None
        if isinstance(stmt, ast.Continue):
            if self.loop_stack:
                self._edge(cur, self.loop_stack[-1][0], BACK)
            return None
        return self._place(stmt, cur)

    def _if(self, stmt: ast.If, cur: int) -> Optional[int]:
        cur = self._place_test(stmt.test, cur)
        then_entry = self._new_block()
        self._edge(cur, then_entry)
        then_exit = self._seq(stmt.body, then_entry)
        else_exit: Optional[int]
        if stmt.orelse:
            else_entry = self._new_block()
            self._edge(cur, else_entry)
            else_exit = self._seq(stmt.orelse, else_entry)
        else:
            else_exit = cur
        if then_exit is None and else_exit is None:
            return None
        join = self._new_block()
        self._edge(then_exit, join)
        self._edge(else_exit, join)
        return join

    def _while(self, stmt: ast.While, cur: int) -> Optional[int]:
        header = self._split(cur)
        hcur = self._place_test(stmt.test, header)
        after = self._new_block()
        self._edge(hcur, after)
        body_entry = self._new_block()
        self._edge(hcur, body_entry)
        self.loop_stack.append((header, after))
        body_exit = self._seq(stmt.body, body_entry)
        self.loop_stack.pop()
        self._edge(body_exit, header, BACK)
        if stmt.orelse:
            return self._seq(stmt.orelse, after)
        return after

    def _for(self, stmt: Union[ast.For, ast.AsyncFor], cur: int) -> Optional[int]:
        header = self._split(cur)
        has_await = isinstance(stmt, ast.AsyncFor) or _contains_await(stmt.iter)
        hcur = self._place(stmt, header, has_await=has_await)
        after = self._new_block()
        self._edge(hcur, after)
        body_entry = self._new_block()
        self._edge(hcur, body_entry)
        self.loop_stack.append((header, after))
        body_exit = self._seq(stmt.body, body_entry)
        self.loop_stack.pop()
        self._edge(body_exit, header, BACK)
        if stmt.orelse:
            return self._seq(stmt.orelse, after)
        return after

    def _try(self, stmt: Any, cur: int) -> Optional[int]:
        # ``stmt`` is ast.Try or ast.TryStar (absent from 3.10 stubs).
        body_entry = self._new_block()
        self._edge(cur, body_entry)
        handler_entries = [self._new_block() for _ in stmt.handlers]
        self.handler_stack.append(handler_entries)
        body_exit = self._seq(stmt.body, body_entry)
        self.handler_stack.pop()
        # ``else`` runs after the body, outside this try's handlers.
        if stmt.orelse and body_exit is not None:
            body_exit = self._seq(stmt.orelse, body_exit)
        exits: List[Optional[int]] = [body_exit]
        for handler, handler_entry in zip(stmt.handlers, handler_entries):
            hcur = self._place(handler, handler_entry, has_await=False)
            exits.append(self._seq(handler.body, hcur))
        if stmt.finalbody:
            final_entry = self._new_block()
            for exit_block in exits:
                self._edge(exit_block, final_entry)
            return self._seq(stmt.finalbody, final_entry)
        live = [e for e in exits if e is not None]
        if not live:
            return None
        join = self._new_block()
        for exit_block in live:
            self._edge(exit_block, join)
        return join

    def _with(
        self, stmt: Union[ast.With, ast.AsyncWith], cur: int
    ) -> Optional[int]:
        has_await = isinstance(stmt, ast.AsyncWith) or any(
            _contains_await(item.context_expr) for item in stmt.items
        )
        cur = self._place(stmt, cur, has_await=has_await)
        return self._seq(stmt.body, cur)

    def _match(self, stmt: Any, cur: int) -> Optional[int]:
        # ``stmt`` is ast.Match (absent from the 3.9 stubs mypy uses).
        cur = self._place_test(stmt.subject, cur)
        join = self._new_block()
        self._edge(cur, join)  # no case matched
        for case in stmt.cases:
            case_entry = self._new_block()
            self._edge(cur, case_entry)
            self._edge(self._seq(case.body, case_entry), join)
        return join

    # ------------------------------------------------------------------
    def build(self) -> ControlFlowGraph:
        tail = self._seq(self.func.body, self.entry)
        self._edge(tail, self.exit)
        return ControlFlowGraph(
            function=self.func,
            blocks=self.blocks,
            entry=self.entry,
            exit=self.exit,
        )


def build_cfg(func: FunctionNode) -> ControlFlowGraph:
    """Build the await-aware CFG of one function definition."""
    return _CFGBuilder(func).build()


# ----------------------------------------------------------------------
# Generic forward worklist solver
# ----------------------------------------------------------------------
#: A dataflow state: tracked local name -> analysis-specific fact.
State = Dict[str, object]

#: transfer(block, in_state) -> (normal_out, exception_out)
TransferFn = Callable[[BasicBlock, State], Tuple[State, State]]

#: merge two facts for the same name at a join point.
FactMerge = Callable[[object, object], object]


def merge_states(a: State, b: State, merge_fact: FactMerge) -> State:
    """Key-wise union of two states (facts merged on collision)."""
    merged = dict(a)
    for name, fact in b.items():
        existing = merged.get(name)
        merged[name] = fact if existing is None else merge_fact(existing, fact)
    return merged


def solve_forward(
    cfg: ControlFlowGraph,
    entry_state: State,
    transfer: TransferFn,
    merge_fact: FactMerge,
) -> Dict[int, State]:
    """Worklist fixpoint; returns the IN state of every reached block.

    Facts must be monotone under ``merge_fact`` (the iteration count is
    additionally bounded, so a non-monotone transfer degrades to an
    under-approximation instead of hanging).
    """
    in_states: Dict[int, State] = {cfg.entry: entry_state}
    pending: deque[int] = deque([cfg.entry])
    budget = 64 * max(len(cfg.blocks), 1)
    while pending and budget > 0:
        budget -= 1
        index = pending.popleft()
        block = cfg.blocks[index]
        out_normal, out_exception = transfer(block, in_states[index])
        for successor, kind in block.successors:
            incoming = out_exception if kind == EXCEPTION else out_normal
            old = in_states.get(successor)
            new = (
                incoming
                if old is None
                else merge_states(old, incoming, merge_fact)
            )
            if old is None or new != old:
                in_states[successor] = new
                if successor not in pending:
                    pending.append(successor)
    return in_states


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def _snippet(node: ast.AST, limit: int = 60) -> str:
    try:
        text = ast.unparse(node)
    except (ValueError, AttributeError):  # pragma: no cover - synthetic nodes
        text = type(node).__name__
    text = " ".join(text.split())
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _base_name(expr: ast.expr) -> Tuple[Optional[str], bool]:
    """Root ``Name`` of an attribute/subscript chain, + subscript flag."""
    through_subscript = False
    node: ast.expr = expr
    while True:
        if isinstance(node, ast.Attribute):
            node = node.value
        elif isinstance(node, ast.Subscript):
            through_subscript = True
            node = node.value
        else:
            break
    if isinstance(node, ast.Name):
        return node.id, through_subscript
    return None, through_subscript


def _target_names(target: ast.expr) -> List[str]:
    """Plain names bound by an assignment/loop target."""
    names: List[str] = []
    stack: List[ast.expr] = [target]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, (ast.Tuple, ast.List)):
            stack.extend(node.elts)
        elif isinstance(node, ast.Starred):
            stack.append(node.value)
    return names


def _calls_in(node: ast.AST) -> Iterator[ast.Call]:
    for sub in _shallow_walk(node):
        if isinstance(sub, ast.Call):
            yield sub


def _awaited_call_ids(node: ast.AST) -> Set[int]:
    return {
        id(sub.value)
        for sub in _shallow_walk(node)
        if isinstance(sub, ast.Await) and isinstance(sub.value, ast.Call)
    }


def _under(ctx: FileContext, *segments: str) -> bool:
    """True when ``ctx.path`` contains the given directory run."""
    parts = ctx.path.replace("\\", "/").split("/")
    n = len(segments)
    return any(
        parts[i : i + n] == list(segments)
        for i in range(len(parts) - n + 1)
    )


def _functions(tree: ast.Module) -> Iterator[FunctionNode]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# ----------------------------------------------------------------------
# Interprocedural handoff summaries
# ----------------------------------------------------------------------
#: escape kinds, ordered: "whole" implies "elements".
_WHOLE = "whole"
_ELEMENTS = "elements"

_QUEUE_HANDOFFS = frozenset({"put", "put_nowait"})
_TASK_SPAWNS = frozenset({"ensure_future", "create_task"})


@dataclass(frozen=True)
class HandoffSummary:
    """Which parameters of a function escape to another task.

    ``escaping`` maps a parameter name to ``"whole"`` (the object
    itself is handed off) or ``"elements"`` (its members are — mutating
    the container stays safe, mutating a member races).
    """

    name: str
    params: Tuple[str, ...]
    escaping: Mapping[str, str]


def _param_names(func: FunctionNode) -> Tuple[str, ...]:
    args = func.args
    ordered = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    return tuple(a.arg for a in ordered)


def _merge_kind(a: Optional[str], b: str) -> str:
    return _WHOLE if _WHOLE in (a, b) else _ELEMENTS


def _bind_call_args(
    call: ast.Call, summary: HandoffSummary
) -> Dict[str, ast.expr]:
    """Map call arguments onto the summary's parameter names."""
    params = list(summary.params)
    if (
        isinstance(call.func, ast.Attribute)
        and params
        and params[0] in ("self", "cls")
    ):
        params = params[1:]
    bound: Dict[str, ast.expr] = {}
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            break
        if i < len(params):
            bound[params[i]] = arg
    for keyword in call.keywords:
        if keyword.arg:
            bound[keyword.arg] = keyword.value
    return bound


def _direct_handoffs(
    call: ast.Call,
) -> Optional[Tuple[List[ast.expr], str]]:
    """Escaping argument expressions of a built-in handoff call.

    Returns ``(escaping_args, consumer_description)`` or ``None``.
    """
    terminal = FileContext.terminal_name(call.func)
    if terminal in _QUEUE_HANDOFFS and isinstance(call.func, ast.Attribute):
        return list(call.args), "the queue consumer"
    if terminal in _TASK_SPAWNS and call.args:
        inner = call.args[0]
        if isinstance(inner, ast.Call):
            args = list(inner.args) + [
                kw.value for kw in inner.keywords if kw.arg
            ]
            return args, "the spawned task"
        return [inner], "the spawned task"
    return None


def _summary_handoffs(
    call: ast.Call, summaries: Mapping[str, HandoffSummary]
) -> List[Tuple[ast.expr, str]]:
    """``(escaping_arg, kind)`` pairs for a call into a summarized fn."""
    terminal = FileContext.terminal_name(call.func)
    if terminal is None or terminal not in summaries:
        return []
    summary = summaries[terminal]
    bound = _bind_call_args(call, summary)
    return [
        (bound[param], kind)
        for param, kind in summary.escaping.items()
        if param in bound
    ]


def _function_escapes(
    func: FunctionNode, summaries: Mapping[str, HandoffSummary]
) -> Dict[str, str]:
    """Flow-insensitive escaping-parameter set of one function.

    Local names reaching a handoff propagate backwards through simple
    aliases (``a = b``) and loop membership (``for x in c`` makes an
    escape of ``x`` an *elements* escape of ``c``).
    """
    escaped: Dict[str, str] = {}

    def mark(expr: ast.expr, kind: str) -> None:
        if isinstance(expr, ast.Name):
            escaped[expr.id] = _merge_kind(escaped.get(expr.id), kind)

    aliases: List[Tuple[str, str]] = []  # (target, source): target = source
    members: List[Tuple[str, str]] = []  # (item, container): for item in c
    for node in _shallow_walk(func):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    aliases.append((target.id, node.value.id))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if isinstance(node.target, ast.Name) and isinstance(
                node.iter, ast.Name
            ):
                members.append((node.target.id, node.iter.id))
        elif isinstance(node, ast.Call):
            direct = _direct_handoffs(node)
            if direct is not None:
                for arg in direct[0]:
                    mark(arg, _WHOLE)
            for arg, kind in _summary_handoffs(node, summaries):
                mark(arg, kind)
    # Backward propagation to a fixpoint (tiny graphs; bounded passes).
    for _ in range(len(aliases) + len(members) + 1):
        changed = False
        for target, source in aliases:
            if target in escaped:
                merged = _merge_kind(escaped.get(source), escaped[target])
                if escaped.get(source) != merged:
                    escaped[source] = merged
                    changed = True
        for item, container in members:
            if item in escaped and escaped.get(container) != _merge_kind(
                escaped.get(container), _ELEMENTS
            ):
                escaped[container] = _merge_kind(
                    escaped.get(container), _ELEMENTS
                )
                changed = True
        if not changed:
            break
    params = _param_names(func)
    return {p: escaped[p] for p in params if p in escaped}


def compute_handoff_summaries(
    contexts: Sequence[FileContext],
) -> Dict[str, HandoffSummary]:
    """Fixpoint handoff summaries for every function in the project.

    Keyed by bare function name (same-named functions merge their
    escaping sets — conservative for the analysis). Only functions
    with at least one escaping parameter appear.
    """
    funcs: List[FunctionNode] = []
    for ctx in contexts:
        funcs.extend(_functions(ctx.tree))
    summaries: Dict[str, HandoffSummary] = {}
    for _ in range(10):
        changed = False
        for func in funcs:
            escaping = _function_escapes(func, summaries)
            if not escaping:
                continue
            existing = summaries.get(func.name)
            if existing is not None:
                merged = dict(existing.escaping)
                for param, kind in escaping.items():
                    merged[param] = _merge_kind(merged.get(param), kind)
                escaping = merged
            if existing is None or dict(existing.escaping) != escaping:
                summaries[func.name] = HandoffSummary(
                    name=func.name,
                    params=(
                        existing.params
                        if existing is not None
                        else _param_names(func)
                    ),
                    escaping=escaping,
                )
                changed = True
        if not changed:
            break
    return summaries


# ----------------------------------------------------------------------
# REPRO111 — await-boundary race
# ----------------------------------------------------------------------
_MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "clear",
        "add",
        "discard",
        "popitem",
        "setdefault",
        "sort",
        "reverse",
        "fill",
    }
)


@dataclass(frozen=True)
class EscapeFact:
    """A local name whose object another task may already hold."""

    line: int
    handoff: str
    consumer: str
    #: True once a suspension point passed since the handoff — only
    #: then can the consumer actually have interleaved.
    crossed: bool
    #: the object itself escaped (vs. only its members).
    whole: bool
    elements: bool


def _merge_escape(a: object, b: object) -> object:
    fa, fb = a, b
    assert isinstance(fa, EscapeFact) and isinstance(fb, EscapeFact)
    first = fa if fa.line <= fb.line else fb
    return EscapeFact(
        line=first.line,
        handoff=first.handoff,
        consumer=first.consumer,
        crossed=fa.crossed or fb.crossed,
        whole=fa.whole or fb.whole,
        elements=fa.elements or fb.elements,
    )


#: (node, base_name, through_subscript, description)
_Mutation = Tuple[ast.AST, str, bool, str]


def _mutations(stmt: ast.AST) -> Iterator[_Mutation]:
    """Attribute/subscript stores, aug-assigns and mutating calls."""
    targets: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    elif isinstance(stmt, ast.AugAssign):
        targets = [stmt.target]
    elif isinstance(stmt, ast.Delete):
        targets = list(stmt.targets)
    for target in targets:
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            base, through = _base_name(target)
            if base is not None:
                yield target, base, through, _snippet(stmt)
        elif isinstance(target, ast.Name) and isinstance(stmt, ast.AugAssign):
            yield target, target.id, False, _snippet(stmt)
    for call in _calls_in(stmt):
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS:
            base, through = _base_name(func.value)
            if base is not None:
                yield call, base, through, _snippet(call)


#: report(node, name, description, fact)
_RaceSink = Callable[[ast.AST, str, str, EscapeFact], None]


class _EscapeAnalysis:
    """Forward escape analysis of one ``async def`` body."""

    def __init__(
        self, ctx: FileContext, summaries: Mapping[str, HandoffSummary]
    ) -> None:
        self.ctx = ctx
        self.summaries = summaries

    # -- per-statement transfer ----------------------------------------
    def _escapes_of(
        self, stmt: ast.AST
    ) -> List[Tuple[str, str, ast.Call, bool]]:
        """``(name, kind, call, awaited)`` handoffs inside ``stmt``."""
        awaited = _awaited_call_ids(stmt)
        out: List[Tuple[str, str, ast.Call, bool]] = []
        for call in _calls_in(stmt):
            direct = _direct_handoffs(call)
            if direct is not None:
                for arg in direct[0]:
                    if isinstance(arg, ast.Name):
                        out.append(
                            (arg.id, _WHOLE, call, id(call) in awaited)
                        )
            for arg, kind in _summary_handoffs(call, self.summaries):
                if isinstance(arg, ast.Name):
                    out.append((arg.id, kind, call, id(call) in awaited))
        return out

    def _consumer_of(self, call: ast.Call) -> str:
        direct = _direct_handoffs(call)
        if direct is not None:
            return direct[1]
        terminal = FileContext.terminal_name(call.func)
        return f"the task receiving `{terminal}`'s handoff"

    def _bindings(self, state: State, stmt: ast.AST) -> None:
        if isinstance(stmt, ast.Assign):
            source = (
                stmt.value.id if isinstance(stmt.value, ast.Name) else None
            )
            for target in stmt.targets:
                if isinstance(target, ast.Name) and source in state:
                    state[target.id] = state[source]
                    continue
                for name in _target_names(target):
                    state.pop(name, None)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(stmt.target, ast.Name):
                state.pop(stmt.target.id, None)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            container_fact: Optional[EscapeFact] = None
            if isinstance(stmt.iter, ast.Name):
                fact = state.get(stmt.iter.id)
                if isinstance(fact, EscapeFact) and (
                    fact.whole or fact.elements
                ):
                    container_fact = fact
            for name in _target_names(stmt.target):
                if container_fact is not None:
                    # members of a handed-off container are themselves
                    # visible to the consumer.
                    state[name] = replace(
                        container_fact, whole=True, elements=True
                    )
                else:
                    state.pop(name, None)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    for name in _target_names(item.optional_vars):
                        state.pop(name, None)
        elif isinstance(stmt, ast.excepthandler):
            handler_name = getattr(stmt, "name", None)
            if isinstance(handler_name, str):
                state.pop(handler_name, None)
        elif isinstance(stmt, _SCOPE_TYPES):
            state.pop(getattr(stmt, "name", ""), None)

    def _effect_nodes(self, stmt: ast.AST) -> List[ast.AST]:
        """Sub-nodes whose calls/mutations this block owns.

        Compound headers contribute only their header expressions;
        their bodies live in other blocks.
        """
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return [stmt.iter]
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return [item.context_expr for item in stmt.items]
        if isinstance(stmt, (ast.excepthandler,) + _SCOPE_TYPES):
            return []
        return [stmt]

    def transfer(
        self,
        block: BasicBlock,
        in_state: State,
        report: Optional[_RaceSink] = None,
    ) -> Tuple[State, State]:
        state: State = dict(in_state)
        exception_state: State = dict(in_state)
        for stmt in block.statements:
            # exception edges carry the union of *pre*-statement states:
            # a handoff that raised never surrendered its item.
            exception_state = merge_states(
                exception_state, state, _merge_escape
            )
            effects = self._effect_nodes(stmt)
            if report is not None:
                for node in effects:
                    for mut_node, base, through, desc in _mutations(node):
                        fact = state.get(base)
                        if not isinstance(fact, EscapeFact) or not fact.crossed:
                            continue
                        if fact.whole or (fact.elements and through):
                            report(mut_node, base, desc, fact)
            self._bindings(state, stmt)
            for node in effects:
                for name, kind, call, was_awaited in self._escapes_of(node):
                    fact = EscapeFact(
                        line=call.lineno,
                        handoff=_snippet(call),
                        consumer=self._consumer_of(call),
                        crossed=was_awaited,
                        whole=kind == _WHOLE,
                        elements=True,
                    )
                    existing = state.get(name)
                    state[name] = (
                        fact
                        if existing is None
                        else _merge_escape(existing, fact)
                    )
            if any(_contains_await(node) for node in effects) or (
                isinstance(stmt, (ast.AsyncFor, ast.AsyncWith))
            ):
                state = {
                    name: replace(fact, crossed=True)
                    for name, fact in state.items()
                    if isinstance(fact, EscapeFact)
                }
        return state, exception_state

    # -- driver --------------------------------------------------------
    def analyze(self, func: ast.AsyncFunctionDef) -> List[Finding]:
        cfg = build_cfg(func)
        in_states = solve_forward(
            cfg,
            entry_state={},
            transfer=lambda block, state: self.transfer(block, state),
            merge_fact=_merge_escape,
        )
        findings: List[Finding] = []
        seen: Set[Tuple[int, int, str]] = set()

        def report(
            node: ast.AST, name: str, desc: str, fact: EscapeFact
        ) -> None:
            line = getattr(node, "lineno", func.lineno)
            col = getattr(node, "col_offset", 0)
            if (line, col, name) in seen:
                return
            seen.add((line, col, name))
            witness = [
                {
                    "step": 1,
                    "task": "this coroutine",
                    "line": fact.line,
                    "event": f"hands `{name}` off: {fact.handoff}",
                },
                {
                    "step": 2,
                    "task": fact.consumer,
                    "line": None,
                    "event": (
                        f"may run at the await boundary and read `{name}`"
                    ),
                },
                {
                    "step": 3,
                    "task": "this coroutine",
                    "line": line,
                    "event": f"resumes and mutates: {desc}",
                },
            ]
            rule = AwaitBoundaryRaceRule
            findings.append(
                Finding(
                    path=self.ctx.path,
                    line=line,
                    col=col,
                    rule_id=rule.rule_id,
                    severity=rule.severity,
                    message=(
                        f"`{desc}` mutates `{name}` after it was handed "
                        f"off at line {fact.line} (`{fact.handoff}`); "
                        f"{fact.consumer} may have observed the "
                        f"pre-mutation state (witness: handoff@L"
                        f"{fact.line} -> consumer reads -> mutate@L{line})"
                    ),
                    autofix_hint=rule.autofix_hint,
                    end_line=getattr(node, "end_lineno", 0) or 0,
                    extra={"witness": witness},
                )
            )

        for index, in_state in in_states.items():
            self.transfer(cfg.blocks[index], in_state, report=report)
        return findings


class AwaitBoundaryRaceRule(Rule):
    """REPRO111: shared-state mutation after an await-boundary handoff.

    Only ``async def`` bodies under ``repro.serve`` are analyzed — the
    single-event-loop serving runtime is where a consumer coroutine
    can interleave between a handoff and a late mutation.
    """

    rule_id = "REPRO111"
    severity = "error"
    description = (
        "in repro.serve coroutines, objects handed to another task "
        "(queue.put / ensure_future / summarized handoffs) must not be "
        "mutated after an await boundary"
    )
    autofix_hint = (
        "mutate before the handoff and undo on a failed handoff, or "
        "hand off an immutable snapshot"
    )
    node_types = ()

    def finish_project(
        self, contexts: Sequence[FileContext]
    ) -> Iterator[Finding]:
        summaries = compute_handoff_summaries(contexts)
        for ctx in contexts:
            if not _under(ctx, "repro", "serve"):
                continue
            analysis = _EscapeAnalysis(ctx, summaries)
            for func in _functions(ctx.tree):
                if isinstance(func, ast.AsyncFunctionDef):
                    yield from analysis.analyze(func)


# ----------------------------------------------------------------------
# REPRO112 — writes through shared-memory model views
# ----------------------------------------------------------------------
#: calls whose result is an attached (read-only) shared view.
_TAINT_SOURCES = frozenset({"attach", "node_views", "attach_packed"})

#: in-place ndarray methods that write through the buffer.
_NDARRAY_WRITERS = frozenset(
    {"fill", "sort", "partition", "put", "itemset", "resize", "setfield"}
)

#: numpy module-level writers: terminal name -> written arg index.
_NUMPY_WRITERS = {"copyto": 0, "put": 0, "place": 0, "putmask": 0}

#: repo kernel writers: terminal name -> written arg index.
_KERNEL_WRITERS = {"pack_bits_into": 1}

#: training entry points that write through an attached model.
_TRAINING_CALLS = frozenset(
    {"fit_initial", "retrain", "update", "set_model", "binarize_model"}
)


@dataclass(frozen=True)
class TaintFact:
    """A name holding (a view into) attached shared-memory state."""

    line: int
    origin: str
    #: receiver of ``attach_model`` — a serve-only classifier.
    attached_model: bool = False


def _merge_taint(a: object, b: object) -> object:
    fa, fb = a, b
    assert isinstance(fa, TaintFact) and isinstance(fb, TaintFact)
    first = fa if fa.line <= fb.line else fb
    return TaintFact(
        line=first.line,
        origin=first.origin,
        attached_model=fa.attached_model or fb.attached_model,
    )


class _TaintAnalysis:
    """Per-function taint of shared-memory views and attached models."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.findings: List[Finding] = []
        self._seen: Set[Tuple[int, int]] = set()

    # -- helpers -------------------------------------------------------
    def _source_call(self, node: ast.expr) -> Optional[str]:
        if not isinstance(node, ast.Call):
            return None
        terminal = FileContext.terminal_name(node.func)
        if terminal in _TAINT_SOURCES:
            return terminal
        return None

    def _tainted_base(
        self, state: State, expr: ast.expr
    ) -> Optional[Tuple[str, TaintFact]]:
        base, _ = _base_name(expr)
        if base is None:
            return None
        fact = state.get(base)
        if isinstance(fact, TaintFact):
            return base, fact
        return None

    def _report(
        self, node: ast.AST, message: str, fact: TaintFact
    ) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if (line, col) in self._seen:
            return
        self._seen.add((line, col))
        rule = SharedMemoryWriteRule
        self.findings.append(
            Finding(
                path=self.ctx.path,
                line=line,
                col=col,
                rule_id=rule.rule_id,
                severity=rule.severity,
                message=(
                    f"{message} (view obtained from `{fact.origin}` at "
                    f"line {fact.line}; shared model replicas are "
                    f"read-only in workers)"
                ),
                autofix_hint=rule.autofix_hint,
                end_line=getattr(node, "end_lineno", 0) or 0,
            )
        )

    # -- transfer ------------------------------------------------------
    def _check_writes(self, state: State, stmt: ast.AST) -> None:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, ast.AugAssign):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Subscript) or (
                isinstance(stmt, ast.AugAssign)
                and isinstance(target, (ast.Attribute, ast.Name))
            ):
                hit = self._tainted_base(state, target)
                if hit is not None:
                    self._report(
                        target,
                        f"`{_snippet(stmt)}` writes through a shared-"
                        f"memory view `{hit[0]}`",
                        hit[1],
                    )
            if (
                isinstance(target, ast.Attribute)
                and target.attr == "writeable"
                and isinstance(stmt, ast.Assign)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is True
            ):
                hit = self._tainted_base(state, target)
                if hit is not None:
                    self._report(
                        target,
                        f"`{_snippet(stmt)}` strips the read-only guard "
                        f"from shared view `{hit[0]}`",
                        hit[1],
                    )
        for call in _calls_in(stmt):
            func = call.func
            terminal = FileContext.terminal_name(func)
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _NDARRAY_WRITERS
            ):
                hit = self._tainted_base(state, func.value)
                if hit is not None:
                    self._report(
                        call,
                        f"in-place `{func.attr}()` on shared view "
                        f"`{hit[0]}`",
                        hit[1],
                    )
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "setflags"
                and any(
                    kw.arg == "write"
                    and isinstance(kw.value, ast.Constant)
                    and bool(kw.value.value)
                    for kw in call.keywords
                )
            ):
                hit = self._tainted_base(state, func.value)
                if hit is not None:
                    self._report(
                        call,
                        f"`setflags(write=True)` strips the read-only "
                        f"guard from shared view `{hit[0]}`",
                        hit[1],
                    )
            arg_index: Optional[int] = None
            if terminal in _NUMPY_WRITERS:
                dotted = self.ctx.dotted_name(func)
                if dotted is not None and dotted.startswith("numpy."):
                    arg_index = _NUMPY_WRITERS[terminal]
            elif terminal in _KERNEL_WRITERS:
                arg_index = _KERNEL_WRITERS[terminal]
            if arg_index is not None and arg_index < len(call.args):
                hit = self._tainted_base(state, call.args[arg_index])
                if hit is not None:
                    self._report(
                        call,
                        f"`{terminal}()` writes into shared view "
                        f"`{hit[0]}`",
                        hit[1],
                    )
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _TRAINING_CALLS
            ):
                hit = self._tainted_base(state, func.value)
                if hit is not None and hit[1].attached_model:
                    self._report(
                        call,
                        f"training call `{func.attr}()` on `{hit[0]}` "
                        f"after `attach_model` would write through the "
                        f"attached views",
                        hit[1],
                    )

    def _bindings(self, state: State, stmt: ast.AST) -> None:
        if isinstance(stmt, ast.Assign):
            origin = self._source_call(stmt.value)
            propagated: Optional[TaintFact] = None
            if origin is None and isinstance(
                stmt.value, (ast.Name, ast.Attribute, ast.Subscript)
            ):
                hit = self._tainted_base(state, stmt.value)
                if hit is not None:
                    propagated = hit[1]
            for target in stmt.targets:
                names = _target_names(target)
                for name in names:
                    if origin is not None:
                        state[name] = TaintFact(
                            line=stmt.value.lineno, origin=origin
                        )
                    elif propagated is not None and isinstance(
                        target, ast.Name
                    ):
                        state[name] = propagated
                    else:
                        state.pop(name, None)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            state.pop(stmt.target.id, None)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            for name in _target_names(stmt.target):
                state.pop(name, None)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    for name in _target_names(item.optional_vars):
                        state.pop(name, None)
        # Receiver of attach_model becomes a serve-only classifier.
        for call in _calls_in(stmt):
            func = call.func
            if isinstance(func, ast.Attribute) and func.attr == "attach_model":
                base, _ = _base_name(func.value)
                if base is not None:
                    existing = state.get(base)
                    line = (
                        existing.line
                        if isinstance(existing, TaintFact)
                        else call.lineno
                    )
                    state[base] = TaintFact(
                        line=line, origin="attach_model", attached_model=True
                    )

    def transfer(
        self, block: BasicBlock, in_state: State, check: bool = False
    ) -> Tuple[State, State]:
        state: State = dict(in_state)
        exception_state: State = dict(in_state)
        for stmt in block.statements:
            exception_state = merge_states(
                exception_state, state, _merge_taint
            )
            if check and not isinstance(
                stmt, (ast.excepthandler,) + _SCOPE_TYPES
            ):
                self._check_writes(state, stmt)
            if not isinstance(stmt, (ast.excepthandler,) + _SCOPE_TYPES):
                self._bindings(state, stmt)
        return state, exception_state

    def analyze(self, func: FunctionNode) -> List[Finding]:
        cfg = build_cfg(func)
        in_states = solve_forward(
            cfg,
            entry_state={},
            transfer=lambda block, state: self.transfer(block, state),
            merge_fact=_merge_taint,
        )
        self.findings = []
        self._seen = set()
        for index, in_state in in_states.items():
            self.transfer(cfg.blocks[index], in_state, check=True)
        return self.findings


class SharedMemoryWriteRule(Rule):
    """REPRO112: writes through attached shared-memory model views."""

    rule_id = "REPRO112"
    severity = "error"
    description = (
        "arrays obtained from SharedModelStore.attach / node_views / "
        "attach_packed are read-only shared replicas; no subscript "
        "store, in-place mutator, writeable cast or training call may "
        "write through them"
    )
    autofix_hint = (
        "copy() the view before mutating, or publish a new store "
        "generation from the owner"
    )
    node_types = ()

    def finish_file(self, ctx: FileContext) -> Iterator[Finding]:
        for func in _functions(ctx.tree):
            yield from _TaintAnalysis(ctx).analyze(func)


# ----------------------------------------------------------------------
# REPRO113 — derive_rng tag collisions
# ----------------------------------------------------------------------
#: marker standing for one interpolation hole in an f-string tag.
_HOLE = "\x00"


@dataclass(frozen=True)
class _TagSite:
    path: str
    line: int
    col: int
    end_line: int
    #: literal text, with holes as :data:`_HOLE` for f-strings.
    pattern: str
    is_fstring: bool
    display: str

    def location(self) -> str:
        return f"{self.path}:{self.line}"


def _tag_expression(call: ast.Call) -> Optional[ast.expr]:
    if len(call.args) >= 2 and not isinstance(call.args[1], ast.Starred):
        return call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "tag":
            return keyword.value
    return None


def _tag_site(ctx: FileContext, call: ast.Call) -> Optional[_TagSite]:
    expr = _tag_expression(call)
    if expr is None:
        return None
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return _TagSite(
            path=ctx.path,
            line=call.lineno,
            col=call.col_offset,
            end_line=getattr(call, "end_lineno", 0) or 0,
            pattern=expr.value,
            is_fstring=False,
            display=repr(expr.value),
        )
    if isinstance(expr, ast.JoinedStr):
        parts: List[str] = []
        for value in expr.values:
            if isinstance(value, ast.Constant) and isinstance(
                value.value, str
            ):
                parts.append(value.value)
            else:
                parts.append(_HOLE)
        return _TagSite(
            path=ctx.path,
            line=call.lineno,
            col=call.col_offset,
            end_line=getattr(call, "end_lineno", 0) or 0,
            pattern="".join(parts),
            is_fstring=True,
            display=_snippet(expr),
        )
    # Dynamic tags (plain names, calls) are deliberately not compared:
    # their values are unknowable statically and flagging every helper
    # wrapper would drown the signal.
    return None


def _skeleton_matches(skeleton: str, literal: str) -> bool:
    """Can the f-string ``skeleton`` produce ``literal``?"""
    chunks = skeleton.split(_HOLE)
    if len(chunks) == 1:
        return skeleton == literal
    text = literal
    head = chunks[0]
    if not text.startswith(head):
        return False
    text = text[len(head):]
    tail = chunks[-1]
    for chunk in chunks[1:-1]:
        if chunk == "":
            continue
        at = text.find(chunk)
        if at < 0:
            return False
        text = text[at + len(chunk):]
    return text.endswith(tail) if tail else True


class RngTagCollisionRule(Rule):
    """REPRO113: colliding ``derive_rng(seed, tag)`` tag expressions.

    Two call sites drawing from the same ``(seed, tag)`` pair observe
    the *same* stream — chaos decisions, workload arrivals and dataset
    splits silently correlate, which breaks the independent-stream
    contract :func:`repro.utils.rng.derive_rng` exists to provide.
    """

    rule_id = "REPRO113"
    severity = "error"
    description = (
        "derive_rng tags must be unique per logical stream: duplicate "
        "literals, duplicate f-string skeletons, literal/f-string "
        "overlaps and separator-free interpolations all correlate "
        "streams"
    )
    autofix_hint = (
        "give each call site a distinct tag prefix (and separate "
        "interpolated fields with literal separators)"
    )
    node_types = ()

    def _finding(
        self, site: _TagSite, message: str, others: Sequence[_TagSite]
    ) -> Finding:
        extra: Dict[str, object] = {
            "tag": site.display,
            "collides_with": [o.location() for o in others],
        }
        return Finding(
            path=site.path,
            line=site.line,
            col=site.col,
            rule_id=self.rule_id,
            severity=self.severity,
            message=message,
            autofix_hint=self.autofix_hint,
            end_line=site.end_line,
            extra=extra,
        )

    def finish_project(
        self, contexts: Sequence[FileContext]
    ) -> Iterator[Finding]:
        sites: List[_TagSite] = []
        for ctx in contexts:
            for call in (
                n for n in ast.walk(ctx.tree) if isinstance(n, ast.Call)
            ):
                if FileContext.terminal_name(call.func) != "derive_rng":
                    continue
                site = _tag_site(ctx, call)
                if site is not None:
                    sites.append(site)
        # (a)+(b): identical patterns (literal or skeleton) at >= 2 sites.
        by_pattern: Dict[Tuple[bool, str], List[_TagSite]] = {}
        for site in sites:
            by_pattern.setdefault(
                (site.is_fstring, site.pattern), []
            ).append(site)
        for (is_fstring, _), group in sorted(
            by_pattern.items(), key=lambda kv: kv[0][1]
        ):
            distinct = {(s.path, s.line) for s in group}
            if len(distinct) < 2:
                continue
            kind = "f-string skeleton" if is_fstring else "literal tag"
            for site in group:
                others = [
                    o
                    for o in group
                    if (o.path, o.line) != (site.path, site.line)
                ]
                yield self._finding(
                    site,
                    f"duplicate {kind} {site.display} also used at "
                    f"{', '.join(o.location() for o in others)}: both "
                    f"sites draw the same stream under one seed",
                    others,
                )
        # (c): a literal an f-string skeleton can also produce.
        fstrings = [s for s in sites if s.is_fstring]
        for site in sites:
            if site.is_fstring:
                continue
            overlaps = [
                f
                for f in fstrings
                if _skeleton_matches(f.pattern, site.pattern)
            ]
            if overlaps:
                yield self._finding(
                    site,
                    f"literal tag {site.display} is also producible by "
                    f"the f-string tag at "
                    f"{', '.join(o.location() for o in overlaps)}: the "
                    f"streams can silently coincide",
                    overlaps,
                )
        # (d): adjacent interpolation holes inside one f-string.
        for site in fstrings:
            if _HOLE * 2 in site.pattern:
                yield self._finding(
                    site,
                    f"f-string tag {site.display} interpolates two "
                    f"fields with no separator: distinct argument "
                    f"pairs can render the same tag",
                    [],
                )


# ----------------------------------------------------------------------
def flow_rules() -> List[Rule]:
    """Fresh instances of the dataflow rules (``repro lint --flow``)."""
    return [
        AwaitBoundaryRaceRule(),
        SharedMemoryWriteRule(),
        RngTagCollisionRule(),
    ]


#: ids of the dataflow rules, for CLI gating.
FLOW_RULE_IDS: Tuple[str, ...] = tuple(
    rule.rule_id for rule in flow_rules()
)
