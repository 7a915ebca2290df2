"""Paired runs of the repo's benchmark: a parent commit against this tree.

    python3 benchmarks/pairs.py PARENT                    # 10 pairs, seeds 0-9
    python3 benchmarks/pairs.py PARENT --pairs 12 --seeds 20-31
    python3 benchmarks/pairs.py PARENT --workload serve_local
    python3 benchmarks/pairs.py PARENT --workload serve_local \
        --workload serve_escalate                         # claim + bypass
    python3 benchmarks/pairs.py HEAD --smoke              # one --smoke pair
    python3 benchmarks/pairs.py PARENT --append           # + trajectory row
    python3 benchmarks/pairs.py PARENT --trace            # per-layer table

PARENT is any git revision. It is exported with ``git archive``; the
change is the working tree (tracked and untracked, not ignored files),
copied likewise, so neither run writes into this checkout. Each tree
runs its own ``benchmarks/e2e/run.py``. Pair i uses the i-th seed and
runs the parent first when i is even, the change first when it is odd,
so both sides see the same drift of the host. ``--workload`` may be
given more than once: each side then runs ``run.py --workload W`` for
each named workload in turn, so a claimed workload and the one that
bypasses the change share one alternating run.

The output is a markdown table with a provenance line. For every
workload and end-to-end metric of ``BENCHMARK.json`` it gives the
parent's median and quartiles, the smallest gain the rule below could
call ``better`` in this run (``min gain``: the parent's interquartile
range over its median; ``-`` for exact metrics and under ten pairs),
the change's median, the pairs the change won (ties count for neither)
and the median per-pair ratio change/parent, then every per-pair ratio
in pair order. The verdict:

* ``accuracy``, ``wire_bytes_per_query`` and ``failed`` must be equal
  in every pair: ``equal`` or ``DIFFERS``;
* ``better`` when the change won at least nine tenths of ten or more
  pairs and the medians differ by more than the parent's
  interquartile range (the rule a claimed gain must meet);
* otherwise ``unresolved`` when the parent's interquartile range
  exceeds the metric's bound, unless every change run beats every
  parent run: the spread cannot tell "unchanged" from a regression;
* ``WORSE`` when the change's median is worse by more than the bound;
* ``within bound`` otherwise.

``--trace`` runs both trees at ``run.py --trace 1`` instead and tables
``BENCHMARK.json``'s per-layer metrics the same way, with no verdict:
they have no bounds. It attributes an end-to-end change to its layers.

``--append [PATH]`` also adds one JSON line to the trajectory, by
default the committed ``benchmarks/results/trajectory.jsonl``: the two
commits, the provenance, and per workload and metric both medians, the
parent's quartiles, the wins, the median per-pair ratio, the verdict
and the smallest resolvable gain (``resolvable``, null where the table
shows ``-``).

Exit status 1 when a run broke or an exact metric differs; timing
verdicts do not set it.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
RUNNER = Path("benchmarks") / "e2e" / "run.py"
TRAJECTORY = ROOT / "benchmarks" / "results" / "trajectory.jsonl"
#: compared for equality, pair by pair, rather than for speed.
EXACT = ("accuracy", "wire_bytes_per_query", "failed")
#: a gain needs this share of at least this many pairs won.
WIN_SHARE, MIN_PAIRS = 0.9, 10

Results = Dict[str, dict]  # workload -> run.py's result object


def git(*args: str) -> str:
    done = subprocess.run(
        ["git", "-C", str(ROOT), *args],
        capture_output=True, text=True, check=True,
    )
    return done.stdout.strip()


def export_revision(rev: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def export_working_tree(dest: Path) -> None:
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file may be deleted in the tree
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def run_tree(
    tree: Path, seed: int, workloads: List[str], smoke: bool,
    trace: bool = False,
) -> Results:
    """One run of a tree's benchmark, one ``run.py`` per named workload
    (one for all of them when none is named); an empty dict when any
    run broke."""
    results: Results = {}
    for workload in workloads or [None]:
        command = [sys.executable, str(tree / RUNNER), "--seed", str(seed)]
        command += ["--workload", workload] if workload else []
        command += ["--smoke"] if smoke else []
        command += ["--trace", "1"] if trace else []
        done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        try:
            last = json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.stderr.write(done.stderr)
            return {}
        ran = last["workloads"] if "workloads" in last else {workload: last}
        results.update((name, r) for name, r in ran.items() if r is not None)
    return results


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def wins_and_ratio(
    better: str, parent: List[float], change: List[float]
) -> Tuple[int, Optional[float]]:
    """(pairs the change won, median ratio change/parent)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ratios = [c / p for p, c in zip(parent, change) if p != 0]
    return wins, statistics.median(ratios) if ratios else None


def verdict(
    name: str, better: str, bound: float,
    parent: List[float], change: List[float],
) -> Tuple[str, int, Optional[float]]:
    """(verdict, pairs won, median ratio change/parent)."""
    sign = 1.0 if better == "higher" else -1.0
    wins, ratio = wins_and_ratio(better, parent, change)
    if name in EXACT:
        return ("equal" if parent == change else "DIFFERS"), wins, ratio
    q1, med_p, q3 = quartiles(parent)
    gain = sign * (statistics.median(change) - med_p)
    every_run_better = all(
        sign * (c - p) > 0 for p in parent for c in change
    )
    if len(parent) >= MIN_PAIRS and wins >= WIN_SHARE * len(parent) \
            and gain > q3 - q1:
        return "better", wins, ratio
    if med_p and (q3 - q1) / abs(med_p) > bound and not every_run_better:
        return "unresolved", wins, ratio
    if med_p and gain / abs(med_p) < -bound:
        return "WORSE", wins, ratio
    return "within bound", wins, ratio


def resolvable(name: str, parent: List[float]) -> Optional[float]:
    """The smallest gain, as a share of the parent's median, that the
    claimed-gain rule could call ``better`` in this run: the parent's
    interquartile range over its median. None for an exact metric, a
    zero median or fewer than ``MIN_PAIRS`` pairs, where no gain can."""
    q1, med_p, q3 = quartiles(parent)
    if name in EXACT or len(parent) < MIN_PAIRS or not med_p:
        return None
    return (q3 - q1) / abs(med_p)


def metric_value(result: dict, key: str) -> float:
    if key == "failed":
        return float(result["failed"])
    return float(result["metrics"][key]["value"])


def compare(
    contract: dict,
    pairs: List[Tuple[Results, Results]],
    trace: bool = False,
) -> List[dict]:
    """Per workload and metric: both sides' values, wins, ratios, verdict.

    With ``trace`` the metrics are the per-layer ones, and the verdict
    and the resolvable gain are None.
    """
    metrics = contract["per_layer"] if trace else contract["end_to_end"] + [
        {"name": "failed", "unit": "count", "better": "lower", "bound": 0.0}
    ]
    rows = []
    for workload in [w["name"] for w in contract["workloads"]]:
        both = [(p[workload], c[workload]) for p, c in pairs
                if workload in p and workload in c]
        if not both:
            continue
        for metric in metrics:
            key = metric["name"]
            parent = [metric_value(p, key) for p, _ in both]
            change = [metric_value(c, key) for _, c in both]
            if trace:
                word = None
                wins, ratio = wins_and_ratio(metric["better"], parent, change)
            else:
                word, wins, ratio = verdict(
                    key, metric["better"], metric["bound"], parent, change
                )
            rows.append({
                "workload": workload, "metric": key,
                "parent": parent, "change": change, "verdict": word,
                "wins": wins, "ratio": ratio,
                "ratios": [c / p if p else None for p, c in zip(parent, change)],
                "resolvable": None if trace else resolvable(key, parent),
            })
    return rows


def table(rows: List[dict]) -> List[str]:
    """The markdown table of :func:`compare`'s rows (no verdict and no
    resolvable-gain column when they have no verdict)."""
    judged = all(row["verdict"] is not None for row in rows)
    verdict_head = " verdict |" if judged else ""
    gain_head = " min gain |" if judged else ""
    lines = [
        f"| workload | metric | parent median [q1–q3] |{gain_head} "
        f"change median | wins | ratio |{verdict_head} every ratio |",
        "|---|---|---|---|---|---|" + "---|" * (3 if judged else 1),
    ]
    for row in rows:
        q1, med, q3 = quartiles(row["parent"])
        shown = "-" if row["ratio"] is None else f"×{row['ratio']:.3f}"
        every = " ".join(
            "-" if r is None else f"{r:.3f}" for r in row["ratios"]
        )
        gain = "-" if row["resolvable"] is None else f"{row['resolvable']:.1%}"
        lines.append(
            f"| `{row['workload']}` | `{row['metric']}` "
            f"| {med:.6g} [{q1:.6g}–{q3:.6g}] "
            + (f"| {gain} " if judged else "")
            + f"| {statistics.median(row['change']):.6g} "
            f"| {row['wins']}/{len(row['parent'])} | {shown} "
            + (f"| {row['verdict']} " if judged else "")
            + f"| {every} |"
        )
    return lines


def trajectory_row(
    parent: str, change: str, provenance: dict, rows: List[dict]
) -> dict:
    """One line of the trajectory: what the table says, as medians,
    with the parent's quartiles and the median per-pair ratio, so the
    rule a claimed gain must meet can be checked from the row alone."""
    workloads: Dict[str, dict] = {}
    for row in rows:
        q1, med, q3 = quartiles(row["parent"])
        workloads.setdefault(row["workload"], {})[row["metric"]] = {
            "parent": med,
            "parent_q1": q1,
            "parent_q3": q3,
            "change": statistics.median(row["change"]),
            "wins": row["wins"],
            "pairs": len(row["parent"]),
            "ratio": row["ratio"],
            "verdict": row["verdict"],
            "resolvable": row["resolvable"],
        }
    return {"parent": parent, "change": change,
            "provenance": provenance, "workloads": workloads}


def package(name: str) -> str:
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return "absent"


def parse_seeds(text: Optional[str], count: int) -> List[int]:
    if text is None:
        return list(range(count))
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise SystemExit(f"--seeds {text}: empty range")
    return [seeds[i % len(seeds)] for i in range(count)]


def main(argv: Optional[List[str]] = None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", help="A-B: the seeds, in order "
                        "(default 0 to pairs-1; reused when fewer)")
    parser.add_argument("--workload", action="append", default=[],
                        choices=[w["name"] for w in contract["workloads"]],
                        help="run only this workload (repeatable)")
    parser.add_argument("--smoke", action="store_true",
                        help="one pair of run.py --smoke")
    parser.add_argument("--trace", action="store_true",
                        help="run.py --trace 1: the per-layer table")
    parser.add_argument("--append", nargs="?", const=TRAJECTORY,
                        type=Path, metavar="PATH",
                        help="add a row to the trajectory "
                        f"(default {TRAJECTORY.relative_to(ROOT)})")
    args = parser.parse_args(argv)
    count = 1 if args.smoke else args.pairs
    if count < 1:
        parser.error("--pairs must be at least 1")
    seeds = parse_seeds(args.seeds, count)
    workloads = list(dict.fromkeys(args.workload))
    parent_commit = git("rev-parse", "--short", args.parent)
    change_commit = git("describe", "--always", "--dirty")

    pairs: List[Tuple[Results, Results]] = []
    broken = False
    with tempfile.TemporaryDirectory(prefix="pairs-") as workdir:
        trees = {"parent": Path(workdir) / "parent",
                 "change": Path(workdir) / "change"}
        export_revision(args.parent, trees["parent"])
        export_working_tree(trees["change"])
        for index, seed in enumerate(seeds):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            got: Dict[str, Results] = {}
            for side in order:
                got[side] = run_tree(
                    trees[side], seed, workloads, args.smoke, args.trace
                )
                ok = bool(got[side]) and all(
                    r["correct"] for r in got[side].values()
                )
                broken = broken or not ok
                print(f"pair {index} seed {seed} {side}: "
                      f"{'done' if ok else 'BROKE'}", file=sys.stderr, flush=True)
            pairs.append((got["parent"], got["change"]))

    provenance = {
        "pairs": count, "seeds": [seeds[0], seeds[-1]],
        "smoke": args.smoke, "trace": args.trace, "host": platform.node(),
        "cores": os.cpu_count(), "python": platform.python_version(),
        "numpy": package("numpy"), "scipy": package("scipy"),
        "time": time.strftime("%Y-%m-%dT%H:%MZ", time.gmtime()),
    }
    flags = (" --smoke" if args.smoke else "") + (" --trace 1" if args.trace else "")
    print(
        f"Provenance: parent `{parent_commit}` vs change `{change_commit}`; "
        f"{count} pair(s), seeds {seeds[0]}–{seeds[-1]}, order alternating; "
        f"`run.py{flags}` at its default "
        f"--seconds; host {provenance['host']}, {provenance['cores']} cores, "
        f"python {provenance['python']}, numpy {provenance['numpy']}, "
        f"scipy {provenance['scipy']}; {provenance['time']}."
    )
    print()
    rows = compare(contract, pairs, args.trace)
    print("\n".join(table(rows)))
    if args.append is not None:
        args.append.parent.mkdir(parents=True, exist_ok=True)
        with open(args.append, "a") as handle:
            handle.write(json.dumps(trajectory_row(
                parent_commit, change_commit, provenance, rows
            )) + "\n")
    exact_ok = all(row["verdict"] != "DIFFERS" for row in rows)
    return 1 if broken or not exact_ok else 0


if __name__ == "__main__":
    sys.exit(main())
