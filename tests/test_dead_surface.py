"""Guard: no definition in ``src/repro`` survives only for its tests.

Walks ``src/repro`` with :mod:`ast` and collects every module-level
function and class plus the non-dunder methods of those classes. A
definition is *reached* when its name appears, outside its own body,
as an ``ast.Name``, an ``ast.Attribute`` or a string constant in any
file under ``src/repro``, ``benchmarks/`` or ``examples/``. Import
statements and ``__all__`` do not count: re-exporting a name is not
running it. Names are matched, not resolved, so one caller of
``predict`` reaches every ``predict``; the guard catches surface that
nothing names, which is what grows unnoticed.

An unreached definition fails the test unless :data:`ALLOWED` names it
with a reason. An allowlist entry that is reached, or no longer
exists, fails it too, so the list cannot go stale.

The same rule holds for settable values: every defaulted field of a
``src/repro`` dataclass whose name ends in ``Config`` or ``Plan`` must
be set by keyword somewhere in those files, or be named in
:data:`UNSET_KNOBS` with a reason.
"""

from __future__ import annotations

import ast
import functools
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
SCANNED = (SRC, REPO_ROOT / "benchmarks", REPO_ROOT / "examples")

_ALGEBRA = "hypervector algebra PAPER.md section 3 lists; tests pin it"
_ITEM_4_5 = "ROADMAP items 4 and 5: pricing and the platform charge"
_HELPER = "helper tests read; deleting it would only move code into tests"

#: Qualified name -> why it stays although nothing outside tests runs it.
ALLOWED: Dict[str, str] = {
    # Oracles and paper algebra.
    "repro.core.hypervector.cosine": _ALGEBRA,
    "repro.core.hypervector.similarity_matrix": _ALGEBRA,
    "repro.core.hypervector.bind": _ALGEBRA,
    "repro.core.hypervector.permute": _ALGEBRA,
    "repro.core.hypervector.random_gaussian": _ALGEBRA,
    "repro.core.encoding.RBFEncoder.kernel_approximation":
        "Eq. 1: the kernel the RBF encoder approximates",
    "repro.obs.openmetrics.parse_openmetrics":
        "oracle: round-trips the OpenMetrics exposition",
    "repro.serve.tracing.semantic_timeline":
        "oracle: same-seed chaos comparisons",
    "repro.core.predictor.Predictor":
        "the protocol test_predictor_protocol.py checks every model against",
    # Open ROADMAP items.
    "repro.hierarchy.control.run_replacement_scenario":
        "ROADMAP items 1 and 6: the post-respawn leg",
    "repro.serve.faults.FaultPlan.replacement":
        "ROADMAP items 1 and 6: the post-respawn leg",
    "repro.serve.faults.FaultPlan.respawn_times":
        "ROADMAP items 1 and 6: the post-respawn leg",
    "repro.hierarchy.deployment.SimulatedDeployment":
        "ROADMAP item 8's drivers",
    "repro.network.failure.flip_dimensions":
        "ROADMAP item 3: the served bit-flip curve",
    "repro.core.kernels.unpack_bits": "ROADMAP items 1 and 2",
    "repro.serve.shard.SharedModelStore.packed_words":
        "ROADMAP items 1 and 2",
    "repro.hardware.ops.compression_ops": _ITEM_4_5,
    "repro.hardware.fpga.FPGADesign.training_cycles": _ITEM_4_5,
    "repro.hardware.energy.CostBreakdown.speedup_over": _ITEM_4_5,
    "repro.hardware.energy.CostBreakdown.energy_efficiency_over": _ITEM_4_5,
    "repro.hardware.ops.OpCounts.total_ops": _ITEM_4_5,
    # Helpers that tests read.
    "repro.core.encoding.Encoder.encode_one": _HELPER,
    "repro.core.online.ResidualAccumulator.is_empty": _HELPER,
    "repro.hierarchy.topology.Hierarchy.internal_nodes": _HELPER,
    "repro.hierarchy.federation.LazyEncodings.n_materialized": _HELPER,
    "repro.serve.batcher.MicroBatcher.mean_batch_size": _HELPER,
    "repro.serve.registry.ReplicaRegistry.lease_remaining": _HELPER,
    # Called by a library.
    "repro.serve.queueing._Landing._put": "asyncio.Queue calls it",
}


def _is_all(node: ast.AST) -> bool:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _walk_names(node: ast.AST) -> Iterator[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _names(node: ast.AST) -> Counter:
    """Every name ``node`` mentions, minus those in ``__all__``. Import
    statements hold only ``ast.alias`` nodes, so they add nothing."""
    found = Counter(_walk_names(node))
    for sub in ast.walk(node):
        if _is_all(sub):
            found.subtract(_walk_names(sub))
    return found


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


_Def = Tuple[str, str, Counter]  # (qualified name, name, names in its body)


def _definitions(tree: ast.Module, module: str) -> Iterator[_Def]:
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if not isinstance(node, funcs + (ast.ClassDef,)):
            continue
        yield f"{module}.{node.name}", node.name, _names(node)
        if not isinstance(node, ast.ClassDef):
            continue
        for member in node.body:
            if isinstance(member, funcs) and not (
                member.name.startswith("__") and member.name.endswith("__")
            ):
                yield (
                    f"{module}.{node.name}.{member.name}",
                    member.name,
                    _names(member),
                )


@functools.lru_cache(maxsize=None)
def _scan() -> Tuple[List[str], set]:
    """(unreached qualified names, every qualified name defined)."""
    mentions: Counter = Counter()
    defs: List[_Def] = []
    for root in SCANNED:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            mentions.update(_names(tree))
            if root == SRC:
                defs.extend(_definitions(tree, _module_name(path)))
    unreached = sorted(
        qualname for qualname, name, own in defs
        if mentions[name] - own[name] <= 0
    )
    return unreached, {qualname for qualname, _, _ in defs}


def test_every_definition_is_reached_or_allowed():
    unreached, _ = _scan()
    extra = [name for name in unreached if name not in ALLOWED]
    assert extra == [], (
        "defined in src/repro but named by nothing outside tests "
        "(delete it, or add it to ALLOWED with a reason):\n  "
        + "\n  ".join(extra)
    )


def test_allowlist_is_not_stale():
    unreached, defined = _scan()
    missing = sorted(set(ALLOWED) - defined)
    reached = sorted(set(ALLOWED) & defined - set(unreached))
    assert missing == [], f"ALLOWED names what no longer exists: {missing}"
    assert reached == [], f"ALLOWED names what something now runs: {reached}"


_ITEM_1 = "ROADMAP item 1: removed with the cluster"
_SEC_VI_A = "Sec. VI-A parameter, checkpointed in EdgeHDFederation.spec()"
_DAMAGE = "ROADMAP items 3 and 6: the damage faults TestDamageReplayOracle uses"

#: ``Class.field`` -> why the default stays although nothing sets it.
UNSET_KNOBS: Dict[str, str] = {
    "ClusterConfig.heartbeat_interval_s": _ITEM_1,
    "ClusterConfig.heartbeat_timeout_s": _ITEM_1,
    "ClusterConfig.ready_timeout_s": _ITEM_1,
    "ClusterConfig.respawn": _ITEM_1,
    "ServeConfig.max_level": "ROADMAP item 6: the oracle's caps",
    "FaultPlan.block_loss": _DAMAGE,
    "FaultPlan.block_size": _DAMAGE,
    "EdgeHDConfig.compression_count": _SEC_VI_A,
    "EdgeHDConfig.confidence_threshold": _SEC_VI_A,
    "EdgeHDConfig.sparsity": _SEC_VI_A,
    "EdgeHDConfig.retrain_learning_rate": _SEC_VI_A,
    "EdgeHDConfig.encoder": _SEC_VI_A,
    "EdgeHDConfig.projection_nonzeros": _SEC_VI_A,
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = getattr(target, "id", None) or getattr(target, "attr", None)
        if name == "dataclass":
            return True
    return False


@functools.lru_cache(maxsize=None)
def _knob_scan() -> Tuple[List[str], set]:
    """(unset ``Class.field`` knobs, every knob defined)."""
    knobs: List[Tuple[str, str]] = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (
                isinstance(node, ast.ClassDef)
                and node.name.endswith(("Config", "Plan"))
                and _is_dataclass(node)
            ):
                knobs.extend(
                    (node.name, member.target.id)
                    for member in node.body
                    if isinstance(member, ast.AnnAssign)
                    and isinstance(member.target, ast.Name)
                    and member.value is not None
                )
    set_by_class = set()
    set_by_replace = set()
    for root in SCANNED:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            for call in ast.walk(tree):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                # ``**spec`` has arg None: a forwarded dict sets nothing
                # this scan can name.
                fields = {kw.arg for kw in call.keywords if kw.arg}
                if name == "replace":
                    set_by_replace |= fields
                else:
                    set_by_class |= {(name, f) for f in fields}
    unset = sorted(
        f"{cls}.{field}" for cls, field in knobs
        if (cls, field) not in set_by_class and field not in set_by_replace
    )
    return unset, {f"{cls}.{field}" for cls, field in knobs}


def test_every_config_knob_is_set_or_allowed():
    unset, _ = _knob_scan()
    extra = [name for name in unset if name not in UNSET_KNOBS]
    assert extra == [], (
        "defaulted Config/Plan fields that no file in src/, benchmarks/ "
        "or examples/ sets by keyword (make them constants, or add them "
        "to UNSET_KNOBS with a reason):\n  " + "\n  ".join(extra)
    )


def test_unset_knobs_are_not_stale():
    unset, defined = _knob_scan()
    missing = sorted(set(UNSET_KNOBS) - defined)
    now_set = sorted(set(UNSET_KNOBS) & defined - set(unset))
    assert missing == [], f"UNSET_KNOBS names no defaulted field: {missing}"
    assert now_set == [], f"UNSET_KNOBS names what some file now sets: {now_set}"
