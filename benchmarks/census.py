"""Driver census: which ``src/repro`` functions does no driver run?

Runs every driver of the repo -- the e2e benchmark smoke, the examples,
the side-bench smokes, the figure benches, every CLI subcommand -- with
a ``sys.setprofile`` hook installed in each Python process, then lists
the outermost functions of ``src/repro`` whose code object never
started. A function nested inside one that never ran is not counted
again.

A function no driver runs must be held by something: an entry of
:data:`HELD` (an open ROADMAP item, an oracle, a hook that a library
calls) or of ``tests/test_dead_surface.ALLOWED``. ``--check`` exits 1
when one is held by nothing, or when a ``HELD`` entry now runs or no
longer exists.

The drivers run in a copy of the working tree under a temporary
directory, so the figure benches' quick-scale reports do not overwrite
``benchmarks/results/``. About 3 min on two cores::

    PYTHONPATH=src python benchmarks/census.py           # report
    PYTHONPATH=src python benchmarks/census.py --check   # CI gate

The hook: a ``sitecustomize.py`` first on ``PYTHONPATH`` calls
:func:`install`, which records the code object of every ``call`` event
(``threading.setprofile`` covers threads started later) and writes the
ones under ``$REPRO_CENSUS_PREFIX`` as ``file line name`` rows at exit.
Cluster workers leave through ``os._exit``, which skips ``atexit``, so
``os._exit`` and ``multiprocessing.util._exit_function`` dump too.
pytest-benchmark pauses any profiler while it times a benchmark, so the
figure benches run with ``--benchmark-disable``.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent

_ITEM_1 = "ROADMAP item 1: removed with the cluster"
_ITEM_1_2 = "ROADMAP items 1 and 2: the packed search backend"
_ITEM_2 = "ROADMAP item 2: the packed search backend and SearchSpec"
_ITEM_4_5 = "ROADMAP items 4 and 5: pricing and the platform charge"
_ITEM_6 = "ROADMAP item 6: the post-respawn leg"
_ITEM_8 = "ROADMAP item 8: SimulatedDeployment and the wire only it calls"
_ALGEBRA = "hypervector algebra PAPER.md section 3 lists; tests pin it"
_ORACLE = "helper of parse_openmetrics, the oracle ALLOWED holds"

#: Qualified name (a function, a class or a module) -> what holds it
#: although no driver runs it. An entry holds every function under it.
HELD: Dict[str, str] = {
    # Open ROADMAP items.
    "repro.serve.cluster.ClusterRuntime._answer_locally": _ITEM_1,
    "repro.serve.cluster.ClusterRuntime.zero_copy": _ITEM_1,
    "repro.serve.shard.SharedModelStore.name": _ITEM_1,
    "repro.serve.shard.SharedModelStore.__enter__": _ITEM_1,
    "repro.serve.shard.SharedModelStore.__exit__": _ITEM_1,
    "repro.serve.shard.SharedModelStore.packed_words": _ITEM_1_2,
    "repro.serve.registry.ReplicaRegistry.__len__": _ITEM_1,
    "repro.serve.registry.ReplicaRegistry.get": _ITEM_1,
    "repro.core.kernels": _ITEM_2,
    "repro.core.search.SearchSpec.to_metadata": _ITEM_2,
    "repro.core.search.set_default_search": _ITEM_2,
    "repro.core.model.EdgeHDModel.search": _ITEM_2,
    "repro.hardware": _ITEM_4_5,
    "repro.hierarchy.control.run_replacement_scenario": _ITEM_6,
    "repro.hierarchy.control._serve_phase": _ITEM_6,
    "repro.hierarchy.control.TopologyController.fail": _ITEM_6,
    "repro.hierarchy.control.TopologyController.detect_failures": _ITEM_6,
    "repro.hierarchy.control.TopologyController.heartbeat_active": _ITEM_6,
    "repro.hierarchy.control.TopologyController.respawn": _ITEM_6,
    "repro.hierarchy.checkpoint.validate_topology_meta": _ITEM_6,
    "repro.serve.faults.FaultPlan.replacement": _ITEM_6,
    "repro.serve.faults.FaultPlan.respawn_times": _ITEM_6,
    "repro.hierarchy.deployment": _ITEM_8,
    "repro.network.protocol": _ITEM_8,
    "repro.core.packing": _ITEM_8,
    # Paper algebra and oracles.
    "repro.core.hypervector.bundle": _ALGEBRA,
    "repro.core.hypervector.cosine_many": _ALGEBRA,
    "repro.obs.openmetrics._unescape": _ORACLE,
    "repro.obs.openmetrics._parse_value": _ORACLE,
    # Hooks and arms that src/repro gives no input.
    "repro.analysis.engine.Rule.on_node":
        "base-class hook: the engine calls each rule's override",
    "repro.analysis.flow._CFGBuilder._match":
        "the CFG's arm for `match`, which `repro lint PATH` meets in "
        "user code; src/repro has no match statement",
}


# ----------------------------------------------------------------------
# the hook (runs inside every driver process)
# ----------------------------------------------------------------------
def install() -> None:
    """Record every function call of this process; dump at exit.

    Reads ``REPRO_CENSUS_DIR`` (where to write) and
    ``REPRO_CENSUS_PREFIX`` (record only code under this directory);
    does nothing when either is unset.
    """
    out_dir = os.environ.get("REPRO_CENSUS_DIR")
    prefix = os.environ.get("REPRO_CENSUS_PREFIX")
    if not out_dir or not prefix:
        return
    token = os.urandom(4).hex()
    seen: Set[object] = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    def dump() -> None:
        rows = sorted({
            f"{code.co_filename}\t{code.co_firstlineno}\t{code.co_name}"
            for code in list(seen)
            if code.co_filename.startswith(prefix)
        })
        path = Path(out_dir) / f"{token}-{os.getpid()}.tsv"
        path.write_text("".join(row + "\n" for row in rows))

    real_exit = os._exit

    def exit_after_dump(code: int) -> None:
        dump()
        real_exit(code)

    os._exit = exit_after_dump
    import multiprocessing.util as mp_util

    real_exit_function = mp_util._exit_function

    def exit_function(*args, **kwargs):
        try:
            return real_exit_function(*args, **kwargs)
        finally:
            dump()

    mp_util._exit_function = exit_function
    atexit.register(dump)
    sys.setprofile(hook)
    threading.setprofile(hook)


def write_hook(hook_dir: Path) -> None:
    """A ``sitecustomize.py`` in ``hook_dir`` that calls :func:`install`."""
    hook_dir.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(__file__, hook_dir / "_repro_census.py")
    (hook_dir / "sitecustomize.py").write_text(
        "import _repro_census\n_repro_census.install()\n"
    )


def hook_env(
    hook_dir: Path, out_dir: Path, prefix: Path, pythonpath: Sequence[Path]
) -> Dict[str, str]:
    """Environment of a driver process recorded by the hook."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        str(p) for p in [hook_dir, *pythonpath]
    )
    env["REPRO_CENSUS_DIR"] = str(out_dir)
    env["REPRO_CENSUS_PREFIX"] = str(prefix)
    return env


def read_records(out_dir: Path, prefix: Path) -> Set[Tuple[str, int, str]]:
    """Every ``(file relative to prefix, first line, name)`` recorded."""
    records: Set[Tuple[str, int, str]] = set()
    for path in out_dir.glob("*.tsv"):
        for row in path.read_text().splitlines():
            filename, line, name = row.split("\t")
            rel = Path(filename).relative_to(prefix).as_posix()
            records.add((rel, int(line), name))
    return records


# ----------------------------------------------------------------------
# the functions of a package, and which of them never ran
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Function:
    """One ``def`` of the package, keyed as its code object is."""

    path: str  # relative to the package's parent directory
    line: int  # co_firstlineno: the first decorator's line, if decorated
    name: str
    qualname: str  # dotted: module, enclosing classes and functions
    lines: int
    outer: Optional["Function"]  # the innermost enclosing function
    stub: bool  # abstract, or a body of only a docstring, ``...``,
    # ``pass`` or ``raise NotImplementedError``: a hook others fill in


def _is_stub(node: ast.AST) -> bool:
    for deco in node.decorator_list:
        if getattr(deco, "id", getattr(deco, "attr", None)) == "abstractmethod":
            return True
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ):
        body = body[1:]  # the docstring
    for stmt in body:
        if isinstance(stmt, ast.Pass) or (
            isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
        ):
            continue
        if isinstance(stmt, ast.Raise) and "NotImplementedError" in ast.dump(
            stmt
        ):
            continue
        return False
    return True


def _module_name(rel: Path) -> str:
    parts = rel.with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def functions(package_dir: Path) -> List[Function]:
    """Every function and method under ``package_dir``, nested ones too."""
    found: List[Function] = []
    base = package_dir.parent

    def walk(node: ast.AST, scope: str, path: str, outer) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [
                    d.lineno for d in child.decorator_list
                ])
                fn = Function(
                    path, line, child.name, f"{scope}.{child.name}",
                    child.end_lineno - line + 1, outer, _is_stub(child),
                )
                found.append(fn)
                walk(child, fn.qualname, path, fn)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{scope}.{child.name}", path, outer)
            else:
                walk(child, scope, path, outer)

    for file in sorted(package_dir.rglob("*.py")):
        rel = file.relative_to(base)
        tree = ast.parse(file.read_text(encoding="utf-8"), str(file))
        walk(tree, _module_name(rel), rel.as_posix(), None)
    return found


def never_run(
    fns: Iterable[Function], records: Set[Tuple[str, int, str]]
) -> List[Function]:
    """The outermost functions whose code object no process recorded."""
    unrun = [f for f in fns if (f.path, f.line, f.name) not in records]
    missing = set(unrun)

    def outermost(fn: Function) -> bool:
        outer = fn.outer
        while outer is not None:
            if outer in missing:
                return False
            outer = outer.outer
        return True

    return [f for f in unrun if outermost(f)]


def _holder(qualname: str, table: Dict[str, str]) -> Optional[str]:
    """The entry of ``table`` that names ``qualname`` or an enclosing
    class or module of it."""
    parts = qualname.split(".")
    for end in range(len(parts), 0, -1):
        key = ".".join(parts[:end])
        if key in table:
            return key
    return None


def check(
    fns: Sequence[Function],
    records: Set[Tuple[str, int, str]],
    held: Dict[str, str],
    allowed: Dict[str, str],
    out=sys.stdout,
) -> int:
    """Print the census; 1 when something is unheld or a hold is stale."""
    unrun = never_run(fns, records)
    groups: Dict[str, List[Function]] = {}
    unheld: List[Function] = []
    for fn in unrun:
        key = _holder(fn.qualname, held)
        if fn.stub:
            groups.setdefault("stub: an abstract or protocol hook", []).append(
                fn
            )
        elif key is not None:
            groups.setdefault(f"HELD: {held[key]}", []).append(fn)
        elif _holder(fn.qualname, allowed) is not None:
            groups.setdefault("ALLOWED in test_dead_surface", []).append(fn)
        else:
            unheld.append(fn)
    ran = sum((f.path, f.line, f.name) in records for f in fns)
    print(
        f"{len(fns)} functions, {ran} ran; {len(unrun)} outermost "
        f"functions never ran ({sum(f.lines for f in unrun)} lines)",
        file=out,
    )
    for reason, members in sorted(groups.items()):
        lines = sum(f.lines for f in members)
        print(f"  {len(members):3d} fns {lines:4d} lines  {reason}", file=out)
    defined = {f.qualname for f in fns}
    held_unrun = {k for f in unrun if (k := _holder(f.qualname, held))}
    stale = sorted(
        f"{key} ({'runs' if _exists(key, defined) else 'gone'})"
        for key in held if key not in held_unrun
    )
    for fn in unheld:
        print(f"UNHELD {fn.qualname}  {fn.path}:{fn.line} ({fn.lines} lines)",
              file=out)
    for entry in stale:
        print(f"STALE HELD {entry}", file=out)
    print(f"{len(unheld)} functions ({sum(f.lines for f in unheld)} lines) "
          f"neither run nor held; {len(stale)} stale HELD entries", file=out)
    return 1 if unheld or stale else 0


def _exists(key: str, defined: Set[str]) -> bool:
    return any(q == key or q.startswith(key + ".") for q in defined)


# ----------------------------------------------------------------------
# the drivers
# ----------------------------------------------------------------------
_FIGURE_BENCHES = (
    "bench_fig7_accuracy.py", "bench_fig8_pecan_online.py",
    "bench_fig9_online_steps.py", "bench_fig10_efficiency.py",
    "bench_fig11_bandwidth.py", "bench_fig12_robustness.py",
    "bench_fig13_depth.py", "bench_table2_hierarchy_accuracy.py",
    "bench_ablations.py", "bench_scaling_extension.py",
)

_PLANTED = '''\
import time


async def handler():
    time.sleep(1)
'''


def drivers() -> List[Tuple[List[str], Dict[str, str]]]:
    """``(argv, extra env)`` of every driver, run in the copied tree."""
    py = sys.executable
    cli = [py, "-m", "repro"]
    obs_on = {"REPRO_OBS": "1"}
    quick = {"EDGEHD_BENCH_SCALE": "quick"}
    small = ["--dimension", "256", "--scale", "0.02", "--epochs", "2"]
    serve = [*cli, "serve-bench", "--dataset", "APRI", "--dimension", "256",
             "--scale", "0.05", "--max-train", "500", "--max-test", "150",
             "--epochs", "2", "--rate", "2000"]
    topo = ["--dataset", "PDP", *small]
    pytest = [py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
              "--benchmark-disable"]
    runs: List[Tuple[List[str], Dict[str, str]]] = [
        ([py, "benchmarks/e2e/run.py", "--smoke"], {}),
        ([py, "benchmarks/e2e/run.py", "--smoke", "--trace", "1"], {}),
    ]
    runs += [
        ([py, f"examples/{name}"], {})
        for name in ("quickstart.py", "smart_home.py", "online_feedback.py",
                     "failure_injection.py", "hardware_exploration.py")
    ]
    runs += [([py, "examples/reproduce_paper.py", "--quick"], {})]
    runs += [
        ([py, f"benchmarks/{name}", "--smoke"], {})
        for name in ("bench_chaos_serving.py", "bench_obs_overhead.py",
                     "bench_packed_kernel.py", "bench_serving.py")
    ]
    # the full chaos grid is the one driver of its per-cell accuracy and
    # of the request trace's by_request / faults
    runs += [([py, "benchmarks/bench_chaos_serving.py"], quick)]
    runs += [([*pytest, "benchmarks/bench_lint.py"], {})]
    runs += [([*pytest, f"benchmarks/{name}"], quick) for name in _FIGURE_BENCHES]
    runs += [
        ([*cli, "reproduce", "--quick"], {}),
        ([*cli, "datasets"], {}),
        ([*cli, "train", "--dataset", "PDP", *small, "--save", "m.npz"], {}),
        ([*cli, "federate", "--dataset", "PDP", *small], obs_on),
        ([*cli, "stats"], {}),
        ([*cli, "stats", "--merge", "repro-obs-stats.json",
          "repro-obs-stats.json", "--format", "openmetrics"], {}),
        ([*serve, "--trace", "t.jsonl", "--openmetrics", "om.txt"], {}),
        ([*serve, "--faults", "--fault-drop", "0.3", "--fault-crash", "1",
          "--fault-seed", "42", "--trace", "f.jsonl"], {}),
        ([*serve, "--closed-loop"], {}),
        ([*serve, "--workers", "2"], {}),
        ([*serve, "--workers", "2", "--faults", "--fault-drop", "0",
          "--fault-crash", "1"], {}),
        ([*cli, "serve-report", "t.jsonl", "--slo-ms", "25"], {}),
        ([*cli, "serve-report", "f.jsonl"], {}),
        ([*cli, "report", "--output", "report.md"], {}),
        ([*cli, "topology", "checkpoint", "topo.npz", *topo], {}),
        ([*cli, "topology", "restore", "topo.npz", *topo], {}),
        ([*cli, "topology", "join", "topo.npz", *topo], {}),
        ([*cli, "topology", "drain", "topo.npz", "--leaf", "2", *topo], {}),
        ([*cli, "lint", "src"], {}),
        ([*cli, "lint", "src", "--flow"], {}),
        ([*cli, "lint", "src", "--list-rules"], {}),
        ([*cli, "lint", "planted.py"], {}),
        ([*cli, "lint", "planted.py", "--format", "json"], {}),
    ]
    return runs


def run_drivers(work: Path, hook_dir: Path, out_dir: Path) -> None:
    prefix = work / "src" / "repro"
    env = hook_env(hook_dir, out_dir, prefix, [work / "src"])
    (work / "planted.py").write_text(_PLANTED)
    for argv, extra in drivers():
        shown = " ".join(argv[1:])
        print(f"[census] {shown}", flush=True)
        proc = subprocess.run(
            argv, cwd=work, env={**env, **extra}, timeout=900,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        # the planted finding is the one driver that must exit 1
        if proc.returncode != ("planted.py" in argv):
            sys.stderr.write(proc.stderr[-4000:])
            raise SystemExit(
                f"census: driver exited {proc.returncode}: {shown}"
            )


def _allowed() -> Dict[str, str]:
    spec = importlib.util.spec_from_file_location(
        "test_dead_surface", ROOT / "tests" / "test_dead_surface.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ALLOWED


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 on a function neither run nor held, or a stale HELD",
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="repro-census-") as tmp:
        work = Path(tmp) / "tree"
        shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis",
            ".benchmarks",
        ))
        hook_dir, out_dir = Path(tmp) / "hook", Path(tmp) / "records"
        out_dir.mkdir()
        write_hook(hook_dir)
        run_drivers(work, hook_dir, out_dir)
        prefix = work / "src"
        records = read_records(out_dir, prefix)
        status = check(
            functions(work / "src" / "repro"), records, HELD, _allowed()
        )
    return status if args.check else 0


if __name__ == "__main__":
    raise SystemExit(main())
