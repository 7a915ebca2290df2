"""The repo's benchmark: four serving workloads, measured from outside.

    python3 benchmarks/e2e/run.py                      # all four, end to end
    python3 benchmarks/e2e/run.py --trace 1            # all four, per layer
    python3 benchmarks/e2e/run.py --workload serve_local --seed 3
    python3 benchmarks/e2e/run.py --check-repeat [--runs K] [--workload NAME]
    python3 benchmarks/e2e/run.py --smoke              # small, same code path

With ``--workload`` the run happens in this process, which must be
fresh: BLAS threads are pinned before numpy loads and peak RSS is the
process's own. Without it every workload gets a subprocess of its own.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; see README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: must read the same in every run of one seed, whatever the host does.
EXACT = ("accuracy", "wire_bytes_per_query")


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def describe_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"  # git would search the directories above
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def run_one(args: argparse.Namespace, contract: dict) -> int:
    started = time.perf_counter()
    for var in BLAS_THREADS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy

    import harness
    import layers

    import_s = time.perf_counter() - started
    scale = harness.SMOKE if args.smoke else harness.FULL
    hooks = None
    if args.trace:
        # One cycle: the probes, not repetition, fill a traced run.
        scale = dataclasses.replace(scale, cycles=1)
        hooks = layers.TraceHooks(
            *((20, 5) if args.smoke else (200, 50))
        )
    run = harness.run_workload(
        harness.WORKLOADS[args.workload], scale, args.seed, args.seconds,
        hooks=hooks, corrupt_expected=args.corrupt_expected,
    )
    if args.trace:
        values = layers.per_layer(run, hooks, import_s)
        declared = contract["per_layer"]
    else:
        values = run.end_to_end(import_s)
        declared = contract["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        sys.exit(
            "metrics measured and metrics declared in BENCHMARK.json differ: "
            f"{sorted(set(values) ^ {m['name'] for m in declared})}"
        )
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }
    result = {
        "correct": run.correct,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": metrics,
    }

    results = harness.RESULTS_DIR
    results.mkdir(exist_ok=True)
    suffix = "_smoke" if args.smoke else ""
    if args.trace:
        (results / f"trace_{args.workload}{suffix}.json").write_text(
            json.dumps(run.spans.spans)
        )
    if not args.smoke:
        record = {
            "provenance": {
                "commit": describe_commit(),
                "host": platform.node(),
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "blas_threads": {v: os.environ[v] for v in BLAS_THREADS},
                "seed": args.seed,
                "seconds": args.seconds,
                "queries_per_burst": run.n,
                "wall_clock": time.strftime(
                    "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
                ),
            },
            "workload": args.workload,
            "trace": args.trace,
            **result,
            "metrics": {name: m["value"] for name, m in metrics.items()},
        }
        with open(results / "history.jsonl", "a") as history:
            history.write(json.dumps(record) + "\n")

    for name, metric in metrics.items():
        print(f"{args.workload:<17} {name:<40} "
              f"{metric['value']:>14.6g} {metric['unit']}")
    print(f"{args.workload:<17} attempted {run.tally.attempted} "
          f"failed {run.tally.failed}")
    for note in run.tally.notes:
        print(f"{args.workload:<17} FAILED {note}")
    print(json.dumps(result))
    return 0 if run.correct else 1


# ----------------------------------------------------------------------
# every workload, each in a fresh subprocess
# ----------------------------------------------------------------------
def run_child(
    args: argparse.Namespace, workload: str, echo: bool
) -> Optional[dict]:
    """Run one workload in its own process; None when it broke."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if echo:
        print("\n".join(lines[:-1]))
    sys.stderr.write(done.stderr)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"{workload}: no result (exit code {done.returncode})")
        return None
    if done.returncode != 0:
        result["correct"] = False
    return result


def run_all(args: argparse.Namespace, workloads: List[str]) -> int:
    results = {name: run_child(args, name, echo=True) for name in workloads}
    ran = [r for r in results.values() if r is not None]
    summary = {
        "correct": len(ran) == len(results) and all(r["correct"] for r in ran),
        "attempted": sum(r["attempted"] for r in ran),
        "failed": sum(r["failed"] for r in ran),
        "workloads": results,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


# ----------------------------------------------------------------------
# --check-repeat: do two sets of runs of the same code agree?
# ----------------------------------------------------------------------
def check_repeat(
    args: argparse.Namespace, contract: dict, workloads: List[str]
) -> int:
    """Two sets of K runs, interleaved A B A B so that both see the
    same hours of a host whose speed drifts over minutes."""
    sets: Dict[str, Dict[str, List[dict]]] = {
        label: {name: [] for name in workloads} for label in "AB"
    }
    ok = True
    for index in range(args.runs):
        for label in "AB":
            for name in workloads:
                result = run_child(args, name, echo=False)
                if result is None or not result["correct"]:
                    print(f"run {index}{label} {name}: failed")
                    ok = False
                    continue
                sets[label][name].append(
                    {k: m["value"] for k, m in result["metrics"].items()}
                )
                print(f"run {index}{label} {name}: done", flush=True)

    def quartiles(values: List[float]) -> str:
        if len(values) < 2:
            return "-"
        q1, _, q3 = statistics.quantiles(values, n=4)
        return f"{q1:.6g}..{q3:.6g}"

    print(f"{'workload':<17} {'metric':<26} {'median A':>12} {'median B':>12} "
          f"{'B/A-1':>8} {'bound':>6}  quartiles A | B")
    for name in workloads:
        for metric in contract["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a = [r[key] for r in sets["A"][name]]
            b = [r[key] for r in sets["B"][name]]
            if not a or not b:
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            diff = med_b / med_a - 1.0
            verdict = ""
            if key in EXACT and len(set(a + b)) != 1:
                verdict = "  NOT BIT-EQUAL"
            elif abs(diff) > bound:
                verdict = "  BEYOND BOUND"
            ok = ok and not verdict
            print(f"{name:<17} {key:<26} {med_a:>12.6g} {med_b:>12.6g} "
                  f"{diff:>+8.2%} {bound:>6.0%}  "
                  f"{quartiles(a)} | {quartiles(b)}{verdict}")
    print("check-repeat:", "agree" if ok else "DISAGREE")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: draws the burst requests and their order")
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"],
                        help="measured time to aim for; scales the query counts")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: one traced cycle, per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes, same code path, nothing recorded")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--runs", type=int, default=3,
                        help="runs per set for --check-repeat")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help=argparse.SUPPRESS)  # proves the check can fail
    args = parser.parse_args(argv)
    workloads = [args.workload] if args.workload else names
    if args.check_repeat:
        args.trace = 0  # the bounds are on the end-to-end metrics
        return check_repeat(args, contract, workloads)
    if args.workload:
        return run_one(args, contract)
    return run_all(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
