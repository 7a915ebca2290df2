"""Command-line interface for the EdgeHD reproduction.

Subcommands
-----------
``train``
    Train a centralized EdgeHD model on a Table-I dataset stand-in and
    optionally save the class hypervectors to an ``.npz`` checkpoint.
``federate``
    Run federated training over a STAR/TREE/PECAN hierarchy and report
    per-level accuracy and communication volume.
``serve-bench``
    Train a federation and serve its test set live through the asyncio
    runtime (:mod:`repro.serve`): micro-batching, bounded queues, and a
    per-stage latency breakdown with p50/p95/p99. ``--trace`` writes
    the *request-level* trace (one event per line, fault events
    included), and ``--openmetrics`` a Prometheus-scrapable exposition
    whose labeled gauges are replayed from that trace.
``serve-report``
    Offline analysis of a ``serve-bench --trace`` file: per-stage
    latency breakdown, critical-path attribution per percentile band,
    degradation root causes, SLO attainment (``--slo-ms``) and one
    full request timeline (``--request`` to pick one).
``reproduce``
    Regenerate one (or all) of the paper's tables/figures.
``datasets``
    List the Table-I dataset registry.
``report``
    Stitch saved benchmark reports into one markdown document.
``stats``
    Render the metrics registry dumped by an instrumented run
    (``--format table|json|openmetrics``); ``--merge a.json b.json``
    folds several dumps first (counters add, gauges last-writer,
    histogram buckets sum).
``lint``
    Run the repo-specific AST invariant checker
    (:mod:`repro.analysis`) over source paths.
``topology``
    Elastic topology control plane: ``checkpoint`` trains a federation
    and saves full topology state (format 4), ``restore`` loads and
    describes it, ``join`` / ``drain`` admit or remove an end node at
    runtime (retraining only the dirtied nodes) and re-checkpoint.

Observability
-------------
With ``REPRO_OBS=1`` the ``train`` / ``federate`` / ``serve-bench`` /
``reproduce`` commands record metrics and spans (see :mod:`repro.obs`)
and dump the registry to ``repro-obs-stats.json`` on exit; ``repro
stats`` pretty-prints the dump. ``serve-bench --trace`` or
``--openmetrics`` implies ``REPRO_OBS=1``. ``-v`` / ``-vv`` turn on
INFO / DEBUG logging for the ``repro.*`` namespace.

Examples
--------
::

    python -m repro.cli datasets
    python -m repro.cli train --dataset ISOLET --dimension 2000
    python -m repro.cli -v federate --dataset PDP --topology tree
    REPRO_OBS=1 python -m repro.cli federate --dataset PDP
    python -m repro.cli stats
    python -m repro.cli reproduce --figure table2 --quick
    python -m repro.cli serve-bench --faults --trace t.jsonl
    python -m repro.cli serve-report t.jsonl --slo-ms 25
    python -m repro.cli stats --merge w0.json w1.json --format openmetrics
    python -m repro.cli lint src/ --format json
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

import repro.obs as obs
from repro.config import EdgeHDConfig
from repro.core.model import EdgeHDModel
from repro.core.search import BACKENDS, SearchSpec, set_default_search
from repro.data import DATASETS, dataset_names, load_dataset, partition_features
from repro.hierarchy import (
    EdgeHDFederation,
    HierarchicalInference,
    build_pecan,
    build_star,
    build_tree,
)
from repro.network.medium import MEDIA

__all__ = ["main", "build_parser"]

logger = logging.getLogger(__name__)


def _configure_logging(verbosity: int) -> None:
    """Route ``repro.*`` diagnostics to stderr at the requested level."""
    if verbosity <= 0:
        return
    level = logging.INFO if verbosity == 1 else logging.DEBUG
    root = logging.getLogger("repro")
    root.setLevel(level)
    if not any(isinstance(h, logging.StreamHandler) for h in root.handlers):
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s")
        )
        root.addHandler(handler)


def _add_search_args(p: argparse.ArgumentParser) -> None:
    """The associative-search flag (train/reproduce/serve-bench)."""
    p.add_argument(
        "--search-backend", default=None, choices=BACKENDS,
        help="associative-search backend (default: dense)",
    )


def _search_spec_from_args(args: argparse.Namespace) -> Optional[SearchSpec]:
    """SearchSpec for --search-backend; None when the flag is absent."""
    if args.search_backend is None:
        return None
    return SearchSpec(backend=args.search_backend)


def _cmd_datasets(args: argparse.Namespace) -> int:
    print(f"{'name':<8} {'features':>8} {'classes':>7} {'end nodes':>9} "
          f"{'train':>8} {'test':>8}  description")
    for name in dataset_names():
        spec = DATASETS[name]
        nodes = spec.n_end_nodes if spec.is_hierarchical else "-"
        print(
            f"{name:<8} {spec.n_features:>8} {spec.n_classes:>7} "
            f"{nodes!s:>9} {spec.paper_train_size:>8} "
            f"{spec.paper_test_size:>8}  {spec.description}"
        )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    data = load_dataset(
        args.dataset, scale=args.scale,
        max_train=args.max_train, max_test=args.max_test, seed=args.seed,
    )
    search = _search_spec_from_args(args)
    model = EdgeHDModel(
        data.n_features, data.n_classes,
        dimension=args.dimension, encoder=args.encoder,
        sparsity=args.sparsity, seed=args.seed, search=search,
    )
    report = model.fit(
        data.train_x, data.train_y, retrain_epochs=args.epochs
    )
    accuracy = model.accuracy(data.test_x, data.test_y)
    print(
        f"{args.dataset}: initial {report.initial_accuracy:.3f} -> "
        f"trained {report.final_accuracy:.3f} (train), "
        f"test accuracy {accuracy:.3f} "
        f"[search: {model.search.describe()}]"
    )
    if args.save:
        model.save_model(args.save)
        print(f"model saved to {args.save}")
    return 0


def _is_hierarchical(dataset: str) -> bool:
    """Whether ``dataset`` can be federated; says why not on stderr."""
    if DATASETS[dataset].is_hierarchical:
        return True
    print(
        f"error: {dataset} has no end-node layout; choose one of "
        f"PECAN/PAMAP2/APRI/PDP", file=sys.stderr,
    )
    return False


def _build_federation(args: argparse.Namespace, data) -> EdgeHDFederation:
    """The untrained federation the topology / model flags describe."""
    n_end_nodes = DATASETS[args.dataset].n_end_nodes
    if args.topology == "star":
        hierarchy = build_star(n_end_nodes)
    elif args.topology == "pecan":
        hierarchy = build_pecan(n_appliances=n_end_nodes)
    else:
        hierarchy = build_tree(n_end_nodes)
    config = EdgeHDConfig(
        dimension=args.dimension, retrain_epochs=args.epochs,
        batch_size=args.batch_size, seed=args.seed,
    )
    return EdgeHDFederation(
        hierarchy, partition_features(data.n_features, n_end_nodes),
        data.n_classes, config,
    )


def _cmd_federate(args: argparse.Namespace) -> int:
    if not _is_hierarchical(args.dataset):
        return 2
    data = load_dataset(
        args.dataset, scale=args.scale,
        max_train=args.max_train, max_test=args.max_test, seed=args.seed,
    )
    federation = _build_federation(args, data)
    hierarchy = federation.hierarchy
    report = federation.fit_offline(data.train_x, data.train_y)
    print(
        f"{args.dataset} over {args.topology.upper()} "
        f"({len(hierarchy.nodes)} nodes, depth {hierarchy.depth}):"
    )
    for level, acc in federation.accuracy_by_level(
        data.test_x, data.test_y
    ).items():
        print(f"  level {level}: accuracy {acc:.3f}")
    print(
        f"  training traffic: {report.total_bytes / 1024:.1f} KiB "
        f"in {len(report.messages)} messages"
    )
    inference = HierarchicalInference(federation)
    accuracy, outcome = inference.evaluate(data.test_x, data.test_y)
    print(
        f"  escalating inference: accuracy {accuracy:.3f}, "
        f"{outcome.total_bytes / 1024:.1f} KiB escalation traffic"
    )
    # Replay both phases over the chosen medium so the run also reports
    # (and, under REPRO_OBS, records) network-level delivery counters.
    from repro.network.medium import get_medium
    from repro.network.simulator import NetworkSimulator

    simulator = NetworkSimulator(hierarchy, get_medium(args.medium))
    training = simulator.simulate_upward_pass(report.messages)
    queries = simulator.simulate_independent(outcome.messages)
    replay = training.merge(queries)
    pct = replay.latency_percentiles()
    print(
        f"  {args.medium} replay: {replay.makespan_s * 1e3:.1f} ms makespan, "
        f"{replay.energy_j * 1e3:.2f} mJ, {replay.delivered} messages delivered"
    )
    print(
        f"  per-message latency: p50 {pct['p50']:.2f} ms, "
        f"p95 {pct['p95']:.2f} ms, p99 {pct['p99']:.2f} ms"
    )
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    """Train a federation and drive it through the serving runtime."""
    if not _is_hierarchical(args.dataset):
        return 2
    if args.workers > 1 and args.closed_loop:
        print("error: cluster serving is open-loop only", file=sys.stderr)
        return 2
    if args.workers > 1 and args.trace:
        print(
            "error: request tracing stops at the cluster router "
            "(single-process feature); drop --trace or --workers",
            file=sys.stderr,
        )
        return 2
    fault_plan = None
    if args.faults:
        from repro.serve import FaultPlan

        crashes = {
            int(nid): (0.0, float("inf")) for nid in (args.fault_crash or [])
        }
        fault_plan = FaultPlan(
            seed=args.seed if args.fault_seed is None else args.fault_seed,
            drop_probability=args.fault_drop,
            dimension_loss=args.fault_dim_loss,
            latency_jitter_s=args.fault_jitter_ms * 1e-3,
            crash_windows=crashes,
        )
        if args.workers > 1:
            try:
                fault_plan.validate_for_cluster(args.workers)
            except ValueError as exc:
                hint = (
                    "; with --workers pass --fault-drop 0 (its default "
                    "is 0.1)" if args.fault_drop else ""
                )
                print(f"error: {exc}{hint}", file=sys.stderr)
                return 2
    data = load_dataset(
        args.dataset, scale=args.scale,
        max_train=args.max_train, max_test=args.max_test, seed=args.seed,
    )
    federation = _build_federation(args, data)
    federation.fit_offline(data.train_x, data.train_y)

    from repro.network.medium import get_medium
    from repro.serve import ServeConfig, ServingRuntime, make_workload

    try:
        search = _search_spec_from_args(args)
        inference = HierarchicalInference(
            federation,
            confidence_threshold=args.threshold,
            search=search,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = make_workload(
        data.test_x, inference, seed=args.seed, labels=data.test_y
    )
    serve_config = ServeConfig(
        max_batch=args.max_batch,
        queue_depth=args.queue_depth,
        policy=args.policy,
    )
    print(
        f"{args.dataset} over {args.topology.upper()} "
        f"({len(federation.hierarchy.nodes)} nodes), "
        f"search {inference.search.describe()}, "
        f"threshold {args.threshold}, medium {args.medium}"
    )
    if fault_plan is not None:
        crashed = sorted(fault_plan.crash_windows) or "none"
        what = "replicas" if args.workers > 1 else "nodes"
        print(
            f"faults: drop {fault_plan.drop_probability:.2f}, "
            f"dim loss {fault_plan.dimension_loss:.2f}, "
            f"jitter <= {fault_plan.latency_jitter_s * 1e3:.1f} ms, "
            f"crashed {what} {crashed}"
        )
    if args.workers > 1:
        from repro.serve import ClusterConfig, ClusterRuntime

        try:
            cluster = ClusterConfig(workers=args.workers)
            runtime = ClusterRuntime(
                inference, get_medium(args.medium), serve_config,
                cluster=cluster, fault_plan=fault_plan,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(
            f"cluster: {cluster.workers} workers, "
            f"open loop at {args.rate:.0f} req/s"
        )
        with runtime:
            result = runtime.serve_open_loop(
                workload, rate_rps=args.rate, seed=args.seed
            )
    else:
        runtime = ServingRuntime(
            inference, get_medium(args.medium), serve_config,
            fault_plan=fault_plan,
        )
        if args.closed_loop:
            print(f"closed loop: {args.clients} clients")
            result = runtime.serve_closed_loop(
                workload, n_clients=args.clients
            )
        else:
            print(f"open loop: Poisson arrivals at {args.rate:.0f} req/s")
            result = runtime.serve_open_loop(
                workload, rate_rps=args.rate, seed=args.seed
            )
    print(result.summary())
    if result.n_answered:
        served_labels = [r.label for r in result.answered]
        truth = data.test_y[[r.index for r in result.answered]]
        import numpy as np

        accuracy = float(np.mean(np.asarray(served_labels) == truth))
        print(f"accuracy (answered): {accuracy:.3f}")
    if obs.enabled():
        if args.trace and result.traces is not None:
            written = result.traces.export_jsonl(args.trace)
            print(
                f"[obs] {written} trace events "
                f"({result.traces.n_requests} requests, "
                f"{result.traces.dropped} dropped) written to {args.trace} "
                f"(view: repro serve-report {args.trace})"
            )
        telemetry = result.telemetry
        if telemetry is not None:
            # the series' final values reach the stats dump and the
            # OpenMetrics exposition as labeled gauges
            telemetry.publish()
        if args.openmetrics:
            out = Path(args.openmetrics)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(obs.render_openmetrics())
            print(f"[obs] OpenMetrics exposition written to {out}")
    return 0


def _cmd_serve_report(args: argparse.Namespace) -> int:
    """Render the per-stage / critical-path report from a trace file."""
    from repro.serve.report import serve_report

    source = Path(args.trace_file)
    if not source.exists():
        print(f"error: trace file {source} not found", file=sys.stderr)
        return 2
    try:
        report = serve_report(
            source, slo_ms=args.slo_ms, request_id=args.request
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report)
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments import (
        STANDARD,
        ExperimentScale,
        format_figure7,
        format_figure8,
        format_figure9,
        format_figure10,
        format_figure11,
        format_figure12,
        format_figure13,
        format_table2,
        run_figure7,
        run_figure8,
        run_figure9,
        run_figure10,
        run_figure11,
        run_figure12,
        run_figure13,
        run_table2,
    )

    quick = ExperimentScale(
        name="quick", data_scale=0.05, max_train=700, max_test=250,
        dimension=1024, retrain_epochs=5, batch_size=10,
    )
    scale = quick if args.quick else STANDARD
    search = _search_spec_from_args(args)
    registry: Dict[str, Callable[[], str]] = {
        "fig7": lambda: format_figure7(run_figure7(scale=scale)),
        "table2": lambda: format_table2(run_table2(scale=scale)),
        "fig8": lambda: format_figure8(run_figure8(scale=scale)),
        "fig9": lambda: format_figure9(run_figure9(scale=scale, n_steps=5)),
        "fig10": lambda: format_figure10(run_figure10()),
        "fig11": lambda: format_figure11(run_figure11()),
        "fig12": lambda: format_figure12(run_figure12(scale=scale)),
        "fig13": lambda: format_figure13(run_figure13(scale=scale)),
    }
    targets = registry if args.figure == "all" else {args.figure: registry[args.figure]}
    # Experiment runners build their own models; the process-default
    # spec is the hook that applies --search-backend to all of them.
    previous = set_default_search(search) if search is not None else None
    try:
        if search is not None:
            print(f"search: {search.describe()}")
        for name, runner in targets.items():
            print(f"\n=== {name} ===")
            print(runner())
    finally:
        if previous is not None:
            set_default_search(previous)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.report import collect_reports, render_markdown

    sections = collect_reports(Path(args.results_dir))
    markdown = render_markdown(
        sections,
        heading="EdgeHD measured results",
        preamble=(
            "Generated from `pytest benchmarks/` reports in "
            f"`{args.results_dir}`."
        ),
    )
    if args.output:
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(markdown)
        print(f"wrote {args.output} ({len(sections)} sections)")
    else:
        print(markdown)
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    from repro.hierarchy import (
        CheckpointError,
        OnlineLearner,
        TopologyController,
    )

    if not _is_hierarchical(args.dataset):
        return 2
    data = load_dataset(
        args.dataset, scale=args.scale,
        max_train=args.max_train, max_test=args.max_test, seed=args.seed,
    )

    def describe(controller: TopologyController) -> None:
        hierarchy = controller.federation.hierarchy
        print(
            f"  topology: {len(hierarchy.nodes)} nodes "
            f"({len(hierarchy.leaves())} end nodes), depth {hierarchy.depth}"
        )
        states = sorted(
            (nid, state.value) for nid, state in controller.states.items()
        )
        print("  states: " + ", ".join(f"{n}:{s}" for n, s in states))
        print(f"  fingerprint: {controller.fingerprint()}")

    if args.action == "checkpoint":
        federation = _build_federation(args, data)
        controller = TopologyController(
            federation, data.train_x, data.train_y,
            learner=OnlineLearner(federation),
        )
        controller.fit()
        controller.checkpoint(args.path)
        print(f"{args.dataset}: topology checkpoint written to {args.path}")
        describe(controller)
        return 0

    try:
        controller = TopologyController.restore(
            args.path, data.train_x, data.train_y
        )
    except (CheckpointError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.action == "restore":
        print(f"{args.path}: topology state restored")
        describe(controller)
        return 0

    try:
        if args.action == "join":
            parent = (
                args.parent
                if args.parent is not None
                else controller.federation.hierarchy.root_id
            )
            join = controller.join(parent, epochs=args.epochs)
            print(
                f"joined end node {join.node_id} under {parent}: "
                f"{len(join.columns)} features from donors "
                f"{list(join.donors)}, {len(join.refit_nodes)} nodes refit"
            )
        else:  # drain
            if args.leaf is None:
                print("error: drain requires --leaf", file=sys.stderr)
                return 2
            drain = controller.drain(args.leaf, epochs=args.epochs)
            print(
                f"drained end node {args.leaf}: removed "
                f"{list(drain.removed_nodes)}, columns redistributed to "
                f"{list(drain.recipients)}, "
                f"{len(drain.refit_nodes)} nodes refit"
            )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = args.out or args.path
    controller.checkpoint(out)
    print(f"updated topology checkpoint written to {out}")
    describe(controller)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    fmt = "json" if args.json else args.format
    if args.merge:
        registry = None
        for raw in args.merge:
            path = Path(raw)
            if not path.exists():
                print(f"error: stats file {path} not found", file=sys.stderr)
                return 2
            loaded = obs.load_stats(path)
            if registry is None:
                registry = loaded
            else:
                try:
                    registry.merge(loaded)
                except (TypeError, ValueError) as exc:
                    print(f"error merging {path}: {exc}", file=sys.stderr)
                    return 2
        assert registry is not None
        origin = f"merged from {len(args.merge)} dumps"
    else:
        source = Path(args.input) if args.input else obs.default_stats_path()
        if source.exists():
            registry = obs.load_stats(source)
            origin = f"loaded from {source}"
        elif args.input:
            print(f"error: stats file {source} not found", file=sys.stderr)
            return 2
        else:
            # No dump on disk: fall back to this process's (likely
            # empty) registry so `repro stats` is still usable
            # programmatically.
            registry = obs.get_registry()
            origin = "in-process registry (no stats file found; run an " \
                     "instrumented command with REPRO_OBS=1 first)"
    if fmt == "openmetrics":
        rendered = obs.render_openmetrics(registry)
    else:
        rendered = obs.render_stats(registry, as_json=(fmt == "json"))
    if args.output:
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(rendered + ("" if rendered.endswith("\n") else "\n"))
        print(f"wrote {out}")
        return 0
    print(rendered)
    if fmt == "table":
        print(f"\n[{origin}]")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the AST invariant checker; exit 1 on any finding."""
    from repro.analysis import (
        RULE_INDEX,
        LintEngine,
        default_rules,
        flow_rules,
        render_json,
        render_text,
        select_rules,
    )

    if args.list_rules:
        print(f"{'id':<10} {'severity':<8} description")
        for rule in default_rules() + flow_rules():
            print(f"{rule.rule_id:<10} {rule.severity:<8} {rule.description}")
        return 0
    if args.fixtures:
        from repro.analysis.fixtures import run_fixtures

        failed = 0
        for case, findings, ok in run_fixtures():
            got = tuple(sorted(f.line for f in findings))
            status = "ok" if ok else "FAIL"
            print(
                f"{status:<5} {case.rule_id} {case.name}: expected lines "
                f"{list(case.expect)}, got {list(got)}"
            )
            failed += 0 if ok else 1
        print(
            f"repro lint --fixtures: "
            f"{'all pinned behaviours hold' if not failed else f'{failed} fixture(s) drifted'}"
        )
        return 1 if failed else 0
    split = lambda raw: [t.strip() for t in raw.split(",") if t.strip()]
    try:
        rules = select_rules(
            select=split(args.select) if args.select else None,
            ignore=split(args.ignore) if args.ignore else None,
            flow=args.flow,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not rules:
        print(
            f"error: no rules left after filtering; known ids: "
            f"{', '.join(sorted(RULE_INDEX))}",
            file=sys.stderr,
        )
        return 2
    try:
        findings = LintEngine(rules).lint_paths(args.paths)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings))
    return 1 if findings else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="EdgeHD reproduction CLI"
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log repro.* diagnostics to stderr (-v INFO, -vv DEBUG)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the Table-I dataset registry")

    def add_data_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dataset", default="PDP", choices=dataset_names())
        p.add_argument("--scale", type=float, default=0.1)
        p.add_argument("--max-train", type=int, default=2000)
        p.add_argument("--max-test", type=int, default=600)
        p.add_argument("--dimension", type=int, default=4000)
        p.add_argument("--epochs", type=int, default=10)
        p.add_argument("--seed", type=int, default=7)

    def add_layout_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--topology", default="tree", choices=("star", "tree", "pecan"),
            help="hierarchy layout to train",
        )
        p.add_argument("--batch-size", type=int, default=10)

    train = sub.add_parser("train", help="train a centralized EdgeHD model")
    add_data_args(train)
    _add_search_args(train)
    train.add_argument(
        "--encoder", default="rbf",
        choices=("rbf", "cos-sin", "linear", "id-level"),
    )
    train.add_argument("--sparsity", type=float, default=0.8)
    train.add_argument("--save", default=None, help="checkpoint path (.npz)")

    federate = sub.add_parser("federate", help="federated hierarchical training")
    add_data_args(federate)
    add_layout_args(federate)
    federate.add_argument(
        "--medium", default="wifi-802.11ac", choices=tuple(MEDIA),
        help="medium for the network replay summary",
    )

    serve_bench = sub.add_parser(
        "serve-bench",
        help="serve escalating inference live (micro-batching, backpressure)",
    )
    add_data_args(serve_bench)
    add_layout_args(serve_bench)
    serve_bench.add_argument(
        "--medium", default="wifi-802.11ac", choices=tuple(MEDIA)
    )
    _add_search_args(serve_bench)
    serve_bench.add_argument(
        "--threshold", type=float, default=0.8,
        help="escalation confidence threshold",
    )
    serve_bench.add_argument("--max-batch", type=int, default=32)
    serve_bench.add_argument("--queue-depth", type=int, default=64)
    serve_bench.add_argument(
        "--policy", default="block", choices=("block", "shed")
    )
    serve_bench.add_argument(
        "--rate", type=float, default=500.0,
        help="open-loop Poisson arrival rate (req/s)",
    )
    serve_bench.add_argument(
        "--closed-loop", action="store_true",
        help="closed loop instead of open-loop arrivals",
    )
    serve_bench.add_argument(
        "--clients", type=int, default=4,
        help="in-flight requests in closed-loop mode",
    )
    serve_bench.add_argument(
        "--workers", type=int, default=1,
        help="worker processes; > 1 serves through the multi-process "
             "cluster with shared-memory model replicas",
    )
    serve_bench.add_argument(
        "--faults", action="store_true",
        help="serve through deterministic chaos (FaultPlan)",
    )
    serve_bench.add_argument(
        "--fault-drop", type=float, default=0.1,
        help="per-attempt escalation drop probability",
    )
    serve_bench.add_argument(
        "--fault-dim-loss", type=float, default=0.0,
        help="fraction of hypervector dimensions lost per hop",
    )
    serve_bench.add_argument(
        "--fault-jitter-ms", type=float, default=0.0,
        help="max uniform extra uplink delay (ms)",
    )
    serve_bench.add_argument(
        "--fault-crash", type=int, action="append", metavar="NODE",
        help="crash this node for the whole run (repeatable; never root). "
             "With --workers > 1 the id names a worker replica instead",
    )
    serve_bench.add_argument(
        "--fault-seed", type=int, default=None,
        help="fault stream seed (defaults to --seed)",
    )
    serve_bench.add_argument(
        "--trace", default=None, metavar="PATH",
        help="enable observability and write the request trace (JSONL), "
        "the input of serve-report",
    )
    serve_bench.add_argument(
        "--openmetrics", default=None, metavar="PATH",
        help="write an OpenMetrics text exposition of the run's metrics",
    )

    serve_report = sub.add_parser(
        "serve-report",
        help="per-stage latency, critical-path and SLO report from a "
             "serve-bench --trace file",
    )
    serve_report.add_argument(
        "trace_file", metavar="TRACE",
        help="request-trace JSONL written by serve-bench --trace",
    )
    serve_report.add_argument(
        "--slo-ms", type=float, default=None,
        help="latency target for the SLO attainment section",
    )
    serve_report.add_argument(
        "--request", type=int, default=None, metavar="ID",
        help="render this request's timeline (default: a degraded or "
             "the slowest request)",
    )

    report = sub.add_parser(
        "report", help="aggregate saved benchmark reports into markdown"
    )
    report.add_argument("--results-dir", default="benchmarks/results")
    report.add_argument("--output", default=None)

    reproduce = sub.add_parser("reproduce", help="regenerate paper results")
    reproduce.add_argument(
        "--figure", default="all",
        choices=("all", "fig7", "table2", "fig8", "fig9", "fig10",
                 "fig11", "fig12", "fig13"),
    )
    reproduce.add_argument("--quick", action="store_true")
    _add_search_args(reproduce)

    topology = sub.add_parser(
        "topology",
        help="elastic topology control plane: join/drain/checkpoint/restore",
    )
    topology.add_argument(
        "action", choices=("join", "drain", "checkpoint", "restore"),
        help="checkpoint: train + save full topology state; restore: "
             "load + describe; join/drain: mutate a saved topology and "
             "re-checkpoint",
    )
    topology.add_argument(
        "path", help="topology checkpoint file (.npz, format 4)"
    )
    add_data_args(topology)
    add_layout_args(topology)
    topology.add_argument(
        "--parent", type=int, default=None,
        help="join: gateway to graft under (default: the central node)",
    )
    topology.add_argument(
        "--leaf", type=int, default=None, help="drain: end node to remove"
    )
    topology.add_argument(
        "--out", default=None,
        help="join/drain: write the updated checkpoint here "
             "(default: overwrite PATH)",
    )

    stats = sub.add_parser(
        "stats", help="show metrics recorded by an instrumented run"
    )
    stats.add_argument(
        "--input", default=None, metavar="PATH",
        help="stats dump to render (default: repro-obs-stats.json or "
             "$REPRO_OBS_STATS)",
    )
    stats.add_argument(
        "--json", action="store_true",
        help="raw JSON output (alias for --format json)",
    )
    stats.add_argument(
        "--format", default="table",
        choices=("table", "json", "openmetrics"),
        help="output format (openmetrics = Prometheus text exposition)",
    )
    stats.add_argument(
        "--merge", nargs="+", default=None, metavar="PATH",
        help="merge these stats dumps before rendering (counters add, "
             "gauges last-writer, histogram buckets sum)",
    )
    stats.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the rendered output to a file instead of stdout",
    )

    lint = sub.add_parser(
        "lint",
        help="repo-specific AST invariant checker (repro.analysis)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"], metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    lint.add_argument("--format", default="text", choices=("text", "json"))
    lint.add_argument(
        "--select", default=None, metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--ignore", default=None, metavar="IDS",
        help="comma-separated rule ids to skip",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit",
    )
    lint.add_argument(
        "--flow", action="store_true",
        help="also run the dataflow analyses (REPRO111-113: await-"
             "boundary races, shared-memory writes, RNG tag collisions)",
    )
    lint.add_argument(
        "--fixtures", action="store_true",
        help="self-test: lint the pinned defect fixtures and verify "
             "each rule still flags (exit 1 on drift)",
    )
    return parser


_HANDLERS = {
    "datasets": _cmd_datasets,
    "report": _cmd_report,
    "train": _cmd_train,
    "federate": _cmd_federate,
    "serve-bench": _cmd_serve_bench,
    "serve-report": _cmd_serve_report,
    "reproduce": _cmd_reproduce,
    "stats": _cmd_stats,
    "lint": _cmd_lint,
    "topology": _cmd_topology,
}

#: commands that record metrics and persist them on exit.
_INSTRUMENTED = {"train", "federate", "serve-bench", "reproduce"}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(args.verbose)
    if getattr(args, "trace", None) or getattr(args, "openmetrics", None):
        obs.enable()
    code = _HANDLERS[args.command](args)
    if args.command in _INSTRUMENTED and obs.enabled():
        stats_path = obs.dump_stats()
        print(f"[obs] metrics written to {stats_path} (view: repro stats)")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
