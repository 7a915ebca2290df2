"""Tests for the dataflow engine and the REPRO111-113 analyses."""

import ast
import json
import re
from pathlib import Path

from repro.analysis import FLOW_RULE_IDS, lint_paths, select_rules
from repro.analysis.engine import LintEngine
from repro.analysis.fixtures import FIXTURES, PREFIX_FORWARD, run_fixtures
from repro.analysis.flow import (
    BACK,
    EXCEPTION,
    NORMAL,
    build_cfg,
    compute_handoff_summaries,
    flow_rules,
)
from repro.analysis.reporters import render_json

SERVE_PATH = "src/repro/serve/module.py"
RUNTIME = Path(__file__).resolve().parents[1] / "src/repro/serve/runtime.py"

# ``_forward`` charges the escalation edge, then hands the request over:
#     if via_edge is not None:
#         req.charged_path.append(via_edge)
#     try:
#         await queue.put(...)
CHARGE_THEN_PUT = re.compile(
    r"^(?P<ind>[ ]+)if via_edge is not None:\n"
    r"(?P=ind)    req\.charged_path\.append\(via_edge\)\n"
    r"(?P=ind)try:\n(?P<put>(?P=ind)    await queue\.put\(.*\)\n)",
    re.MULTILINE,
)


def _cfg_of(source):
    func = ast.parse(source).body[0]
    return build_cfg(func)


def _lint(source, path=SERVE_PATH, rule_id=None):
    rules = flow_rules()
    if rule_id is not None:
        rules = [r for r in rules if r.rule_id == rule_id]
    return LintEngine(rules).lint_source(source, path=path)


class TestCFG:
    def test_linear_body_is_one_block(self):
        cfg = _cfg_of("def f(x):\n    a = x\n    b = a + 1\n    return b\n")
        populated = [b for b in cfg.blocks if b.statements]
        assert len(populated) == 1
        assert len(populated[0].statements) == 3

    def test_await_statement_gets_its_own_block(self):
        cfg = _cfg_of(
            "async def f(q, x):\n"
            "    a = x\n"
            "    await q.put(a)\n"
            "    b = a\n"
            "    return b\n"
        )
        await_blocks = [b for b in cfg.blocks if b.has_await]
        assert len(await_blocks) == 1
        assert len(await_blocks[0].statements) == 1
        # the await block has a normal successor carrying the tail
        kinds = {kind for _, kind in await_blocks[0].successors}
        assert NORMAL in kinds

    def test_if_branches_rejoin(self):
        cfg = _cfg_of(
            "def f(x):\n"
            "    if x:\n"
            "        y = 1\n"
            "    else:\n"
            "        y = 2\n"
            "    return y\n"
        )
        # both arms must reach the exit block
        reachable = set()
        stack = [cfg.entry]
        while stack:
            i = stack.pop()
            if i in reachable:
                continue
            reachable.add(i)
            stack.extend(s for s, _ in cfg.blocks[i].successors)
        assert cfg.exit in reachable

    def test_while_creates_back_edge(self):
        cfg = _cfg_of("def f(n):\n    while n:\n        n -= 1\n    return n\n")
        kinds = {
            kind for b in cfg.blocks for _, kind in b.successors
        }
        assert BACK in kinds

    def test_try_body_edges_into_handler(self):
        cfg = _cfg_of(
            "def f(q):\n"
            "    try:\n"
            "        x = q.pop()\n"
            "    except IndexError:\n"
            "        x = None\n"
            "    return x\n"
        )
        kinds = {kind for b in cfg.blocks for _, kind in b.successors}
        assert EXCEPTION in kinds


class TestAwaitBoundaryRace:
    def test_prefix_forward_fixture_is_flagged(self):
        findings = _lint(PREFIX_FORWARD, rule_id="REPRO111")
        assert len(findings) == 1
        (f,) = findings
        assert "charged_path.append" in f.message
        assert "queue.put" in f.message

    def test_witness_names_handoff_consumer_and_mutation(self):
        (f,) = _lint(PREFIX_FORWARD, rule_id="REPRO111")
        witness = f.extra["witness"]
        assert [w["step"] for w in witness] == [1, 2, 3]
        assert "queue.put(req" in witness[0]["event"]
        assert witness[1]["task"] == "the queue consumer"
        assert witness[2]["line"] == f.line
        assert "charged_path.append" in witness[2]["event"]

    def test_replanted_forward_in_live_runtime_is_flagged(self, tmp_path):
        """REPRO111 is the only guard for this race: moving the live
        ``_forward``'s charge after its ``await queue.put`` is flagged
        on the moved line, and the unedited file stays clean."""
        live = RUNTIME.read_text()

        def charge_after_put(m):
            ind = m["ind"] + "    "
            return (
                m["ind"] + "try:\n" + m["put"]
                + ind + "if via_edge is not None:\n"
                + ind + "    req.charged_path.append(via_edge)\n"
            )

        replanted, n_edits = CHARGE_THEN_PUT.subn(charge_after_put, live)
        assert n_edits == 1

        def lint_copy(source, name):
            pkg = tmp_path / name / "repro" / "serve"
            pkg.mkdir(parents=True)
            (pkg / "runtime.py").write_text(source)
            return lint_paths([str(pkg / "runtime.py")], flow=True)

        assert lint_copy(live, "live") == []
        findings = lint_copy(replanted, "replanted")
        lines = replanted.splitlines()
        moved = 1 + next(
            i for i, line in enumerate(lines)
            if line.strip() == "req.charged_path.append(via_edge)"
        )
        assert "await queue.put(" in lines[moved - 3]
        assert any(
            f.rule_id == "REPRO111" and f.line == moved for f in findings
        ), "\n".join(f.format() for f in findings)

    def test_mutate_before_await_is_clean(self):
        src = (
            "async def f(q, req, edge):\n"
            "    req.charged_path.append(edge)\n"
            "    await q.put(req)\n"
        )
        assert _lint(src, rule_id="REPRO111") == []

    def test_pop_on_exception_edge_is_clean(self):
        # the PR-8 fix: a failed put never surrendered the item, so the
        # undo in the except arm is not a race
        src = (
            "async def f(q, req, edge):\n"
            "    req.charged_path.append(edge)\n"
            "    try:\n"
            "        await q.put(req)\n"
            "    except Exception:\n"
            "        req.charged_path.pop()\n"
            "        raise\n"
        )
        assert _lint(src, rule_id="REPRO111") == []

    def test_ensure_future_argument_escapes(self):
        src = (
            "import asyncio\n"
            "async def f(worker, batch):\n"
            "    asyncio.ensure_future(worker(batch))\n"
            "    await asyncio.sleep(0)\n"
            "    batch.append(1)\n"
        )
        findings = _lint(src, rule_id="REPRO111")
        assert [f.line for f in findings] == [5]

    def test_receiver_of_spawned_call_does_not_escape(self):
        src = (
            "import asyncio\n"
            "async def f(self, x):\n"
            "    asyncio.ensure_future(self.deliver(x))\n"
            "    await asyncio.sleep(0)\n"
            "    self.count += 1\n"
        )
        assert _lint(src, rule_id="REPRO111") == []

    def test_interprocedural_handoff_summary(self):
        src = (
            "async def hand_off(q, item):\n"
            "    await q.put(item)\n"
            "\n"
            "async def caller(q, req):\n"
            "    await hand_off(q, req)\n"
            "    req.decided = 1\n"
        )
        findings = _lint(src, rule_id="REPRO111")
        assert [f.line for f in findings] == [6]

    def test_only_serve_package_is_analyzed(self):
        findings = _lint(
            PREFIX_FORWARD,
            path="src/repro/core/module.py",
            rule_id="REPRO111",
        )
        assert findings == []

    def test_sync_functions_are_not_analyzed(self):
        src = (
            "def f(q, req, edge):\n"
            "    q.put_nowait(req)\n"
            "    req.charged_path.append(edge)\n"
        )
        assert _lint(src, rule_id="REPRO111") == []

    def test_loop_rebinding_kills_the_fact(self):
        # each iteration's req is a fresh object; the append at the top
        # of the next iteration must not be charged to the previous put
        src = (
            "async def f(q, cohort, edge):\n"
            "    for req in cohort:\n"
            "        req.charged_path.append(edge)\n"
            "        await q.put(req)\n"
        )
        assert _lint(src, rule_id="REPRO111") == []

    def test_suppression_spans_multiline_statement(self):
        src = (
            "async def f(q, req):\n"
            "    await q.put(req)\n"
            "    req.charged_path.append(  # repro-lint: disable=REPRO111\n"
            "        (1, 0)\n"
            "    )\n"
        )
        assert _lint(src, rule_id="REPRO111") == []

    def test_summaries_find_escaping_parameters(self):
        source = (
            "async def hand_off(q, item):\n"
            "    await q.put(item)\n"
        )
        ctxs = []
        engine = LintEngine([])
        findings, ctx = engine._lint_one(source, SERVE_PATH)
        assert findings == [] and ctx is not None
        summaries = compute_handoff_summaries([ctx])
        assert summaries["hand_off"].escaping == {"item": "whole"}


class TestSharedMemoryWrite:
    def test_subscript_store_through_attach_view(self):
        src = (
            "from repro.serve.shard import SharedModelStore\n"
            "def f(name, layout):\n"
            "    model, normalized, packed = SharedModelStore.attach(name, layout)\n"
            "    model[0] = 1.0\n"
        )
        findings = _lint(src, rule_id="REPRO112")
        assert [f.line for f in findings] == [4]

    def test_copy_then_write_is_clean(self):
        src = (
            "from repro.serve.shard import SharedModelStore\n"
            "def f(name, layout):\n"
            "    model, normalized, packed = SharedModelStore.attach(name, layout)\n"
            "    local = model.copy()\n"
            "    local[0] = 1.0\n"
            "    return local\n"
        )
        assert _lint(src, rule_id="REPRO112") == []

    def test_writeable_cast_is_flagged(self):
        src = (
            "def f(store, node):\n"
            "    view = store.node_views(node)\n"
            "    view.flags.writeable = True\n"
        )
        findings = _lint(src, rule_id="REPRO112")
        assert [f.line for f in findings] == [3]
        assert "read-only guard" in findings[0].message

    def test_numpy_copyto_into_view_is_flagged(self):
        src = (
            "import numpy as np\n"
            "def f(store, node, fresh):\n"
            "    view = store.node_views(node)\n"
            "    np.copyto(view, fresh)\n"
        )
        findings = _lint(src, rule_id="REPRO112")
        assert [f.line for f in findings] == [4]

    def test_queue_put_is_not_numpy_put(self):
        src = (
            "def f(queue, store, node):\n"
            "    view = store.node_views(node)\n"
            "    queue.put(view)\n"
        )
        assert _lint(src, rule_id="REPRO112") == []

    def test_training_call_after_attach_model(self):
        src = (
            "def f(clf, model, normalized, packed, x, y):\n"
            "    clf.attach_model(model, normalized, packed)\n"
            "    clf.retrain(x, y)\n"
        )
        findings = _lint(src, rule_id="REPRO112")
        assert [f.line for f in findings] == [3]
        assert "retrain" in findings[0].message

    def test_inference_after_attach_model_is_clean(self):
        src = (
            "def f(clf, model, normalized, packed, x):\n"
            "    clf.attach_model(model, normalized, packed)\n"
            "    return clf.predict(x)\n"
        )
        assert _lint(src, rule_id="REPRO112") == []


class TestRngTagCollision:
    def test_duplicate_literals_flag_both_sites(self):
        src = (
            "from repro.utils.rng import derive_rng\n"
            "def a(seed):\n"
            "    return derive_rng(seed, 'faults')\n"
            "def b(seed):\n"
            "    return derive_rng(seed, tag='faults')\n"
        )
        findings = _lint(src, rule_id="REPRO113")
        assert sorted(f.line for f in findings) == [3, 5]
        assert all("collides_with" in f.extra for f in findings)

    def test_collision_extra_names_partner_site(self):
        src = (
            "from repro.utils.rng import derive_rng\n"
            "def a(seed):\n"
            "    return derive_rng(seed, 'faults')\n"
            "def b(seed):\n"
            "    return derive_rng(seed, 'faults')\n"
        )
        findings = _lint(src, rule_id="REPRO113")
        first = next(f for f in findings if f.line == 3)
        assert first.extra["collides_with"] == [f"{SERVE_PATH}:5"]

    def test_distinct_literals_are_clean(self):
        src = (
            "from repro.utils.rng import derive_rng\n"
            "def a(seed):\n"
            "    return derive_rng(seed, 'faults')\n"
            "def b(seed):\n"
            "    return derive_rng(seed, 'workload')\n"
        )
        assert _lint(src, rule_id="REPRO113") == []

    def test_literal_matching_fstring_skeleton(self):
        src = (
            "from repro.utils.rng import derive_rng\n"
            "def a(seed, node):\n"
            "    return derive_rng(seed, f'node-{node}')\n"
            "def b(seed):\n"
            "    return derive_rng(seed, 'node-7')\n"
        )
        findings = _lint(src, rule_id="REPRO113")
        assert [f.line for f in findings] == [5]
        assert "producible" in findings[0].message

    def test_adjacent_holes_are_flagged(self):
        src = (
            "from repro.utils.rng import derive_rng\n"
            "def a(seed, level, node):\n"
            "    return derive_rng(seed, f'n{level}{node}')\n"
        )
        findings = _lint(src, rule_id="REPRO113")
        assert [f.line for f in findings] == [3]
        assert "no separator" in findings[0].message

    def test_dynamic_tags_are_ignored(self):
        src = (
            "from repro.utils.rng import derive_rng\n"
            "def a(seed, tag):\n"
            "    return derive_rng(seed, tag)\n"
            "def b(seed, tag):\n"
            "    return derive_rng(seed, tag)\n"
        )
        assert _lint(src, rule_id="REPRO113") == []

    def test_collision_across_files(self):
        engine = LintEngine(
            [r for r in flow_rules() if r.rule_id == "REPRO113"]
        )
        src_a = "from repro.utils.rng import derive_rng\nr = derive_rng(1, 'x')\n"
        src_b = "from repro.utils.rng import derive_rng\nr = derive_rng(2, 'x')\n"
        _, ctx_a = engine._lint_one(src_a, "src/repro/a.py")
        _, ctx_b = engine._lint_one(src_b, "src/repro/b.py")
        findings = engine._project_findings([ctx_a, ctx_b])
        assert sorted(f.path for f in findings) == [
            "src/repro/a.py",
            "src/repro/b.py",
        ]


class TestFixturesAndWiring:
    def test_all_fixtures_hold(self):
        results = run_fixtures()
        assert len(results) == len(FIXTURES)
        failed = [case.name for case, _, ok in results if not ok]
        assert failed == []

    def test_flow_rules_are_not_in_defaults(self):
        default_ids = {r.rule_id for r in select_rules()}
        assert default_ids.isdisjoint(FLOW_RULE_IDS)

    def test_flow_flag_enables_dataflow_rules(self):
        ids = {r.rule_id for r in select_rules(flow=True)}
        assert set(FLOW_RULE_IDS) <= ids

    def test_selecting_a_flow_rule_enables_it_without_the_flag(self):
        rules = select_rules(select=["REPRO113"])
        assert [r.rule_id for r in rules] == ["REPRO113"]

    def test_lint_paths_flow_over_fixture_file(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "serve"
        pkg.mkdir(parents=True)
        target = pkg / "bad.py"
        target.write_text(PREFIX_FORWARD)
        findings = lint_paths([str(tmp_path)], flow=True)
        assert [f.rule_id for f in findings] == ["REPRO111"]

    def test_json_report_carries_the_witness(self):
        findings = _lint(PREFIX_FORWARD, rule_id="REPRO111")
        payload = json.loads(render_json(findings))
        assert payload["version"] == 2
        entry = payload["findings"][0]
        assert entry["extra"]["witness"][0]["step"] == 1
        assert entry["end_line"] >= entry["line"]
