"""Repo-specific lint rules protecting the reproduction's invariants.

Each rule pins one convention the paper-level guarantees depend on
(see DESIGN.md for the rule -> invariant map):

=========  =======================  ==========================================
id         name                     invariant protected
=========  =======================  ==========================================
REPRO101   rng-discipline           all randomness derives from
                                    ``utils.rng.derive_rng`` (seeded figures)
REPRO102   async-blocking-call      ``serve`` coroutines never block the loop
REPRO104   packed-dtype-discipline  uint64 word arrays never leak into float
                                    math without ``unpack_bits``
REPRO105   obs-literal-names        metric/span names stay greppable
REPRO107   silent-broad-except      hot paths never swallow errors silently
REPRO108   unvalidated-array-api    public array APIs validate their input
REPRO110   process-boundary         ``multiprocessing`` process / shared-memory
                                    primitives stay inside the serving cluster
=========  =======================  ==========================================

The dataflow rules REPRO111 (await-boundary-race), REPRO112
(shared-memory-write) and REPRO113 (rng-tag-collision) live in
:mod:`repro.analysis.flow` and are enabled with ``repro lint --flow``
(or by naming them in ``--select``).

Suppress a rule for one line with a trailing
``# repro-lint: disable=REPRO10x`` comment, or for a whole file by
putting the same comment in the leading comment block.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Sequence

from repro.analysis.engine import FileContext, Finding, Rule
from repro.analysis.flow import flow_rules

__all__ = [
    "RngDisciplineRule",
    "AsyncBlockingCallRule",
    "PackedDtypeRule",
    "ObsLiteralNameRule",
    "SilentBroadExceptRule",
    "UnvalidatedArrayApiRule",
    "ProcessBoundaryRule",
    "DEFAULT_RULES",
    "RULE_INDEX",
    "default_rules",
]


def _in_module(ctx: FileContext, *suffix: str) -> bool:
    """True when ``ctx.path`` ends with the given path segments."""
    parts = ctx.path.replace("\\", "/").split("/")
    return parts[-len(suffix):] == list(suffix)


def _under_package(ctx: FileContext, *segments: str) -> bool:
    """True when ``ctx.path`` contains the given directory run."""
    parts = ctx.path.replace("\\", "/").split("/")
    n = len(segments)
    return any(
        parts[i : i + n] == list(segments) for i in range(len(parts) - n + 1)
    )


class RngDisciplineRule(Rule):
    """All randomness must flow through :func:`repro.utils.rng.derive_rng`.

    Direct ``numpy.random`` calls either touch hidden global state
    (legacy API — breaks seeded reproducibility outright) or mint
    generators whose streams are not derived from the experiment seed
    (``default_rng`` outside ``utils/rng.py`` — two components seeded
    with the same small int silently share a stream). The stdlib
    ``random`` module is banned for the same reason.
    """

    rule_id = "REPRO101"
    severity = "error"
    description = (
        "numpy.random.* / stdlib random used directly; randomness must "
        "derive from utils.rng"
    )
    autofix_hint = "use repro.utils.rng.derive_rng(seed, tag=...)"
    node_types = (ast.Call, ast.Import, ast.ImportFrom)

    def on_node(self, ctx: FileContext, node: ast.AST) -> Iterator[Finding]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield self.finding(
                        ctx, node, "stdlib 'random' import is banned"
                    )
            return
        if isinstance(node, ast.ImportFrom):
            if node.module == "random":
                yield self.finding(
                    ctx, node, "stdlib 'random' import is banned"
                )
            return
        assert isinstance(node, ast.Call)
        name = ctx.dotted_name(node.func)
        if not name or not name.startswith(("numpy.random.", "random.")):
            return
        if name.startswith("random."):
            yield self.finding(ctx, node, f"stdlib call {name}() is banned")
            return
        if name == "numpy.random.default_rng":
            if _in_module(ctx, "repro", "utils", "rng.py"):
                return
            yield self.finding(
                ctx,
                node,
                "numpy.random.default_rng() outside utils/rng.py mints an "
                "untagged generator stream",
            )
            return
        yield self.finding(
            ctx, node, f"legacy global-state call {name}() is banned"
        )


class AsyncBlockingCallRule(Rule):
    """No blocking calls inside ``async def`` bodies.

    A single ``time.sleep`` or synchronous file read inside a serve
    coroutine stalls *every* node server sharing the event loop; the
    simulated store-and-forward delays must go through
    ``asyncio.sleep`` so concurrent transfers overlap as they would on
    real links.
    """

    rule_id = "REPRO102"
    severity = "error"
    description = "blocking call inside an async function"
    autofix_hint = (
        "use asyncio.sleep / run_in_executor, or move the I/O out of "
        "the coroutine"
    )
    node_types = (ast.Call,)

    _BLOCKING_DOTTED = {
        "time.sleep",
        "subprocess.run",
        "subprocess.Popen",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "os.system",
        "socket.create_connection",
        "urllib.request.urlopen",
    }
    _BLOCKING_METHODS = {
        "read_text",
        "write_text",
        "read_bytes",
        "write_bytes",
    }

    def on_node(self, ctx: FileContext, node: ast.AST) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        if not ctx.in_async_function():
            return
        name = ctx.dotted_name(node.func)
        if name == "open" or (name and name in self._BLOCKING_DOTTED):
            yield self.finding(
                ctx, node, f"blocking call {name}() inside 'async def'"
            )
            return
        terminal = ctx.terminal_name(node.func)
        if isinstance(node.func, ast.Attribute) and (
            terminal in self._BLOCKING_METHODS or terminal == "open"
        ):
            yield self.finding(
                ctx,
                node,
                f"blocking file I/O .{terminal}() inside 'async def'",
            )


class PackedDtypeRule(Rule):
    """Bit-packed uint64 word arrays must not silently enter float math.

    The packed kernel's correctness argument (``dot = D - 2*popcount``)
    lives entirely in uint64 space; casting a ``*_words`` / ``packed*``
    array to float reinterprets bit patterns as magnitudes and produces
    garbage similarities. The only sanctioned exit is
    :func:`repro.core.kernels.unpack_bits`.
    """

    rule_id = "REPRO104"
    severity = "error"
    description = "packed uint64 payload cast to float without unpack_bits"
    autofix_hint = "unpack first via repro.core.kernels.unpack_bits(...)"
    node_types = (ast.Call,)

    _NAME_RE = re.compile(r"(^|_)(packed|words?)($|_)|packed", re.IGNORECASE)

    @classmethod
    def _is_packed_name(cls, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name):
            return bool(cls._NAME_RE.search(expr.id))
        if isinstance(expr, ast.Attribute):
            return bool(cls._NAME_RE.search(expr.attr))
        return False

    @staticmethod
    def _is_float_dtype(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id == "float"
        if isinstance(expr, ast.Attribute):
            return expr.attr.startswith(("float", "double"))
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return expr.value.startswith("float")
        return False

    def on_node(self, ctx: FileContext, node: ast.AST) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        func = node.func
        # packed_words.astype(float...) / .view(float...)
        if (
            isinstance(func, ast.Attribute)
            and func.attr in {"astype", "view"}
            and self._is_packed_name(func.value)
            and node.args
            and self._is_float_dtype(node.args[0])
        ):
            yield self.finding(
                ctx,
                node,
                f"{ctx.terminal_name(func.value)}.{func.attr}(float) "
                "reinterprets packed words as magnitudes",
            )
            return
        # np.asarray(packed_words, dtype=float...)
        dotted = ctx.dotted_name(func)
        if dotted in {"numpy.asarray", "numpy.array"} and node.args:
            if not self._is_packed_name(node.args[0]):
                return
            for kw in node.keywords:
                if kw.arg == "dtype" and self._is_float_dtype(kw.value):
                    yield self.finding(
                        ctx,
                        node,
                        "float coercion of a packed word array",
                    )


class ObsLiteralNameRule(Rule):
    """Metric and span names must be (prefix-)literal strings.

    ``repro stats`` output is only useful if every metric name can be
    found by grepping the source. A name is compliant when it is a
    string literal, or an f-string whose *leading* segment is a dotted
    literal prefix (the sanctioned low-cardinality pattern, e.g.
    ``f"serve.decided.l{level}"``). The ``repro.obs`` implementation
    modules are exempt — their name parameters are the plumbing.
    """

    rule_id = "REPRO105"
    severity = "error"
    description = "metric/span name is not a greppable string literal"
    autofix_hint = (
        "use a string literal, or an f-string with a dotted literal "
        "prefix for per-level suffixes"
    )
    node_types = (ast.Call,)

    _OBS_HELPERS = {
        "incr",
        "observe",
        "gauge_set",
        "gauge_add",
        "span",
        "traced",
    }
    _REGISTRY_METHODS = {"counter", "gauge", "histogram"}

    def on_node(self, ctx: FileContext, node: ast.AST) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        if _under_package(ctx, "repro", "obs"):
            return
        dotted = ctx.dotted_name(node.func) or ""
        terminal = ctx.terminal_name(node.func)
        is_obs_helper = (
            dotted.startswith("repro.obs.") and terminal in self._OBS_HELPERS
        )
        is_registry = (
            isinstance(node.func, ast.Attribute)
            and terminal in self._REGISTRY_METHODS
        )
        if not (is_obs_helper or is_registry):
            return
        if not node.args:
            return
        name = node.args[0]
        if isinstance(name, ast.Constant) and isinstance(name.value, str):
            return
        if isinstance(name, ast.JoinedStr) and name.values:
            head = name.values[0]
            if (
                isinstance(head, ast.Constant)
                and isinstance(head.value, str)
                and "." in head.value
            ):
                return
        yield self.finding(
            ctx,
            node,
            f"{terminal}() name must be a string literal (or an f-string "
            "with a dotted literal prefix)",
        )


class SilentBroadExceptRule(Rule):
    """No broad ``except`` that swallows the error without a trace.

    A bare ``except:`` / ``except Exception:`` whose body neither
    re-raises nor logs hides real failures inside the hot paths —
    a dropped message or NaN similarity would surface as a silently
    wrong accuracy number instead of an error.
    """

    rule_id = "REPRO107"
    severity = "error"
    description = "broad except swallows the error without raise or log"
    autofix_hint = (
        "catch the specific exception, or re-raise / log inside the handler"
    )
    node_types = (ast.ExceptHandler,)

    _LOG_METHODS = {
        "debug",
        "info",
        "warning",
        "warn",
        "error",
        "exception",
        "critical",
    }

    def _is_broad(self, ctx: FileContext, handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        types = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        for node in types:
            if ctx.dotted_name(node) in {"Exception", "BaseException"}:
                return True
        return False

    def _handles_error(self, handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(ast.Module(body=handler.body, type_ignores=[])):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Call):
                terminal = FileContext.terminal_name(node.func)
                if terminal in self._LOG_METHODS:
                    return True
        return False

    def on_node(self, ctx: FileContext, node: ast.AST) -> Iterator[Finding]:
        assert isinstance(node, ast.ExceptHandler)
        if self._is_broad(ctx, node) and not self._handles_error(node):
            yield self.finding(
                ctx,
                node,
                "broad exception handler neither re-raises nor logs",
            )


class UnvalidatedArrayApiRule(Rule):
    """Public array-taking APIs must validate what they coerce.

    A public function that calls ``np.asarray`` / ``np.stack`` /
    ``np.atleast_*`` on one of its parameters, but contains neither a
    ``check_*`` call (:mod:`repro.utils.validation`) nor any ``raise``,
    silently accepts garbage shapes — the error then surfaces levels
    away as a broadcasting crash or, worse, a wrong number.
    """

    rule_id = "REPRO108"
    severity = "warning"
    description = "public API coerces an array argument without validation"
    autofix_hint = (
        "route the argument through repro.utils.validation (check_matrix, "
        "check_vector, check_labels, ...) or raise on invalid input"
    )
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    _COERCIONS = {
        "numpy.asarray",
        "numpy.array",
        "numpy.stack",
        "numpy.atleast_1d",
        "numpy.atleast_2d",
    }

    def on_node(self, ctx: FileContext, node: ast.AST) -> Iterator[Finding]:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if node.name.startswith("_"):
            return
        params = {
            a.arg
            for a in (
                node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            )
            if a.arg not in {"self", "cls"}
        }
        if not params:
            return
        coercions: List[ast.Call] = []
        validated = False
        raises = False
        for sub in ast.walk(node):
            if isinstance(sub, ast.Raise):
                raises = True
            elif isinstance(sub, ast.Call):
                terminal = ctx.terminal_name(sub.func)
                if terminal and terminal.startswith("check_"):
                    validated = True
                dotted = ctx.dotted_name(sub.func)
                if (
                    dotted in self._COERCIONS
                    and sub.args
                    and isinstance(sub.args[0], ast.Name)
                    and sub.args[0].id in params
                ):
                    coercions.append(sub)
        if validated or raises:
            return
        for call in coercions:
            arg = call.args[0]
            assert isinstance(arg, ast.Name)
            yield self.finding(
                ctx,
                call,
                f"{node.name}() coerces parameter {arg.id!r} without any "
                "validation or error path",
            )


class ProcessBoundaryRule(Rule):
    """Process management stays inside the serving-cluster subsystem.

    ``multiprocessing`` primitives (``Process``, queues,
    ``shared_memory``) carry sharp lifecycle edges: leaked segments
    survive the interpreter, forked children inherit BLAS thread pools,
    and resource-tracker interactions differ by start method. The repo
    keeps all of that behind :mod:`repro.serve.cluster` /
    :mod:`repro.serve.shard` (and the zero-copy attach helpers in
    :mod:`repro.core.kernels`), so importing ``multiprocessing``
    anywhere else re-opens a boundary the cluster subsystem exists to
    close. The import is the enforcement point — any use starts with
    one, and flagging it avoids alias-chasing.
    """

    rule_id = "REPRO110"
    severity = "error"
    description = (
        "multiprocessing imported outside the serving cluster; process "
        "and shared-memory management belong to repro.serve.cluster"
    )
    autofix_hint = (
        "route process work through repro.serve.cluster / "
        "repro.serve.shard (or extend that subsystem)"
    )
    node_types = (ast.Import, ast.ImportFrom)

    _ALLOWED = (
        ("repro", "serve", "cluster.py"),
        ("repro", "serve", "shard.py"),
        ("repro", "core", "kernels.py"),
    )

    def _allowed(self, ctx: FileContext) -> bool:
        return any(_in_module(ctx, *suffix) for suffix in self._ALLOWED)

    def on_node(self, ctx: FileContext, node: ast.AST) -> Iterator[Finding]:
        if self._allowed(ctx):
            return
        if isinstance(node, ast.Import):
            for alias in node.names:
                if (
                    alias.name == "multiprocessing"
                    or alias.name.startswith("multiprocessing.")
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"import {alias.name} outside the cluster "
                        "subsystem crosses the process-management "
                        "boundary",
                    )
            return
        assert isinstance(node, ast.ImportFrom)
        module = node.module or ""
        if module == "multiprocessing" or module.startswith("multiprocessing."):
            yield self.finding(
                ctx,
                node,
                f"from {module} import ... outside the cluster subsystem "
                "crosses the process-management boundary",
            )


def default_rules() -> List[Rule]:
    """Fresh instances of every built-in rule (engine runs are stateful)."""
    return [
        RngDisciplineRule(),
        AsyncBlockingCallRule(),
        PackedDtypeRule(),
        ObsLiteralNameRule(),
        SilentBroadExceptRule(),
        UnvalidatedArrayApiRule(),
        ProcessBoundaryRule(),
    ]


#: One shared default instance list (suitable for one-shot engine runs).
DEFAULT_RULES: Sequence[Rule] = tuple(default_rules())

#: id -> rule class, for --select / --ignore and the rule table. Spans
#: both the default pack and the dataflow rules (``--flow``).
RULE_INDEX: Dict[str, type] = {
    rule.rule_id: type(rule)
    for rule in (*DEFAULT_RULES, *flow_rules())
}
