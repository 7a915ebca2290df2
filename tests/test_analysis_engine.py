"""Engine mechanics: suppression comments, rule selection, parse
errors, reporters, and the ``repro lint`` CLI surface."""

import json
import textwrap

import pytest

import repro.cli as cli
from repro.analysis import (
    PARSE_ERROR_ID,
    Finding,
    LintEngine,
    default_rules,
    lint_source,
    render_json,
    render_text,
    select_rules,
    summarize,
)


def findings_for(source, path="<string>"):
    return lint_source(textwrap.dedent(source), path=path)


class TestSuppression:
    def test_line_suppression(self):
        findings = findings_for(
            """
            import numpy as np
            a = np.random.rand(3)  # repro-lint: disable=REPRO101
            b = np.random.rand(3)
            """
        )
        assert [f.rule_id for f in findings] == ["REPRO101"]
        assert findings[0].line == 4

    def test_line_suppression_multiple_rules(self):
        findings = findings_for(
            """
            import numpy as np

            async def f():
                open(np.random.rand(3))  # repro-lint: disable=REPRO101, REPRO102
            """
        )
        assert findings == []

    def test_multiline_statement_suppressed_on_first_line(self):
        findings = findings_for(
            """
            import numpy as np
            a = np.random.rand(  # repro-lint: disable=REPRO101
                3,
                4,
            )
            """
        )
        assert findings == []

    def test_multiline_statement_suppressed_on_inner_line(self):
        # the offending call starts on the assignment line but the
        # comment sits two lines later, still inside the statement span
        findings = findings_for(
            """
            import numpy as np
            a = np.random.rand(
                3,
                4,  # repro-lint: disable=REPRO101
            )
            """
        )
        assert findings == []

    def test_multiline_suppression_does_not_leak_past_statement(self):
        findings = findings_for(
            """
            import numpy as np
            a = np.random.rand(
                3,  # repro-lint: disable=REPRO101
            )
            b = np.random.rand(3)
            """
        )
        assert [f.line for f in findings] == [6]

    def test_finding_span_covers_multiline_statement(self):
        findings = findings_for(
            """
            import numpy as np
            a = np.random.rand(
                3,
                4,
            )
            """
        )
        (f,) = findings
        assert f.span() == (3, 6)

    def test_file_level_suppression_in_header(self):
        findings = findings_for(
            """
            # Fixture module exercising legacy RNG on purpose.
            # repro-lint: disable=REPRO101
            import numpy as np

            a = np.random.rand(3)
            b = np.random.rand(3)
            """
        )
        assert findings == []

    def test_disable_all(self):
        findings = findings_for(
            """
            import numpy as np
            a = np.random.rand(3)  # repro-lint: disable=all
            """
        )
        assert findings == []

    def test_suppression_is_rule_specific(self):
        findings = findings_for(
            """
            import numpy as np
            a = np.random.rand(3)  # repro-lint: disable=REPRO104
            """
        )
        assert [f.rule_id for f in findings] == ["REPRO101"]


class TestEngineBasics:
    def test_parse_error_becomes_finding(self):
        findings = lint_source("def broken(:\n", path="bad.py")
        assert len(findings) == 1
        assert findings[0].rule_id == PARSE_ERROR_ID
        assert findings[0].severity == "error"

    def test_findings_sorted_by_position(self):
        findings = findings_for(
            """
            import numpy as np

            def late(packed):
                return packed.astype(float), np.random.rand(3)

            a = np.random.rand(3)
            """
        )
        positions = [(f.line, f.col, f.rule_id) for f in findings]
        assert positions == sorted(positions)

    def test_lint_paths_missing_path_raises(self, tmp_path):
        engine = LintEngine(default_rules())
        with pytest.raises(FileNotFoundError):
            engine.lint_paths([str(tmp_path / "nope")])

    def test_lint_paths_walks_directories(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "good.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "bad.py").write_text("import random\n")
        (tmp_path / "pkg" / "notes.txt").write_text("import random\n")
        engine = LintEngine(default_rules())
        findings = engine.lint_paths([str(tmp_path)])
        assert [f.rule_id for f in findings] == ["REPRO101"]
        assert findings[0].path.endswith("bad.py")


class TestSelection:
    def test_select_restricts_rules(self):
        rules = select_rules(select=["REPRO101"])
        assert [r.rule_id for r in rules] == ["REPRO101"]

    def test_ignore_removes_rules(self):
        rules = select_rules(ignore=["repro108"])
        assert "REPRO108" not in {r.rule_id for r in rules}
        assert len(rules) == len(default_rules()) - 1

    def test_unknown_rule_id_raises(self):
        with pytest.raises(ValueError, match="REPRO999"):
            select_rules(select=["REPRO999"])
        with pytest.raises(ValueError, match="unknown"):
            select_rules(ignore=["nope"])

    def test_selected_engine_only_reports_selected(self):
        source = textwrap.dedent(
            """
            import numpy as np

            def f(packed):
                return packed.astype(float), np.random.rand(3)
            """
        )
        engine = LintEngine(select_rules(select=["REPRO104"]))
        findings = engine.lint_source(source, path="<string>")
        assert [f.rule_id for f in findings] == ["REPRO104"]


class TestReporters:
    def _sample(self):
        return [
            Finding(
                path="src/x.py",
                line=3,
                col=5,
                rule_id="REPRO101",
                severity="error",
                message="legacy RNG",
                autofix_hint="use derive_rng",
            ),
            Finding(
                path="src/y.py",
                line=9,
                col=1,
                rule_id="REPRO108",
                severity="warning",
                message="unvalidated input",
            ),
        ]

    def test_summarize(self):
        summary = summarize(self._sample())
        assert summary["total"] == 2
        assert summary["by_severity"] == {"error": 1, "warning": 1}
        assert summary["by_rule"] == {"REPRO101": 1, "REPRO108": 1}

    def test_render_text_lists_each_finding(self):
        text = render_text(self._sample())
        assert "src/x.py:3:5: REPRO101 [error] legacy RNG" in text
        assert "(fix: use derive_rng)" in text
        assert "2 finding(s)" in text

    def test_render_text_clean(self):
        assert "no findings" in render_text([])

    def test_render_json_schema(self):
        payload = json.loads(render_json(self._sample()))
        assert payload["version"] == 2
        assert payload["summary"]["total"] == 2
        assert payload["findings"][0] == {
            "path": "src/x.py",
            "line": 3,
            "col": 5,
            "rule": "REPRO101",
            "severity": "error",
            "message": "legacy RNG",
            "autofix_hint": "use derive_rng",
            "end_line": 3,
        }


class TestCli:
    def test_lint_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        rc = cli.main(["lint", str(target)])
        assert rc == 0
        assert "no findings" in capsys.readouterr().out

    def test_lint_dirty_file_exits_one(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("import random\n")
        rc = cli.main(["lint", str(target)])
        assert rc == 1
        assert "REPRO101" in capsys.readouterr().out

    def test_lint_json_format(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("import random\n")
        rc = cli.main(["lint", str(target), "--format", "json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["by_rule"] == {"REPRO101": 1}

    def test_lint_ignore_flag(self, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text("import random\n")
        assert cli.main(["lint", str(target), "--ignore", "REPRO101"]) == 0

    def test_lint_select_flag(self, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text(
            "import random\ndef f(packed):\n    return packed.astype(float)\n"
        )
        assert cli.main(["lint", str(target), "--select", "REPRO104"]) == 1

    def test_lint_unknown_rule_exits_two(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        rc = cli.main(["lint", str(target), "--select", "REPRO999"])
        assert rc == 2
        assert "REPRO999" in capsys.readouterr().err

    def test_lint_missing_path_exits_two(self, tmp_path, capsys):
        rc = cli.main(["lint", str(tmp_path / "missing")])
        assert rc == 2
        assert "missing" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        rc = cli.main(["lint", "--list-rules"])
        assert rc == 0
        out = capsys.readouterr().out
        for rule in default_rules():
            assert rule.rule_id in out
        for rule_id in ("REPRO111", "REPRO112", "REPRO113"):
            assert rule_id in out

    def test_flow_flag_runs_dataflow_rules(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro" / "serve"
        pkg.mkdir(parents=True)
        target = pkg / "bad.py"
        target.write_text(
            "async def f(q, req, edge):\n"
            "    await q.put(req)\n"
            "    req.charged_path.append(edge)\n"
        )
        assert cli.main(["lint", str(tmp_path)]) == 0  # default: off
        capsys.readouterr()
        rc = cli.main(["lint", str(tmp_path), "--flow"])
        assert rc == 1
        assert "REPRO111" in capsys.readouterr().out

    def test_flow_json_includes_witness(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro" / "serve"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(
            "async def f(q, req, edge):\n"
            "    await q.put(req)\n"
            "    req.charged_path.append(edge)\n"
        )
        rc = cli.main(
            ["lint", str(tmp_path), "--flow", "--format", "json"]
        )
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["extra"]["witness"][1]["task"]

    def test_selecting_flow_rule_without_flag(self, tmp_path):
        target = tmp_path / "tags.py"
        target.write_text(
            "from repro.utils.rng import derive_rng\n"
            "a = derive_rng(1, 'x')\n"
            "b = derive_rng(2, 'x')\n"
        )
        assert cli.main(["lint", str(target), "--select", "REPRO113"]) == 1

    def test_fixtures_self_test_passes(self, capsys):
        rc = cli.main(["lint", "--fixtures"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "all pinned behaviours hold" in out
        assert "REPRO111 prefix-forward-race" in out
