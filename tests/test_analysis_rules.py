"""Fixture tests for every repro-lint rule: one firing and one clean
case per rule, plus edge cases around each rule's documented
relaxations (f-string metric prefixes, the utils/rng.py exemption,
shape-agnostic suppressions)."""

import textwrap

import pytest

from repro.analysis import (
    DEFAULT_RULES,
    RULE_INDEX,
    LintEngine,
    default_rules,
)


def findings_for(source, path="<string>"):
    source = textwrap.dedent(source)
    return LintEngine(default_rules()).lint_source(source, path=path)


def rule_ids(findings):
    return [f.rule_id for f in findings]


class TestRngDiscipline:
    def test_fires_on_legacy_module_call(self):
        findings = findings_for(
            """
            import numpy as np
            values = np.random.rand(10)
            """
        )
        assert rule_ids(findings) == ["REPRO101"]
        assert "legacy" in findings[0].message

    def test_fires_on_seed_call(self):
        findings = findings_for(
            """
            import numpy
            numpy.random.seed(0)
            """
        )
        assert rule_ids(findings) == ["REPRO101"]

    def test_fires_on_default_rng_outside_utils_rng(self):
        findings = findings_for(
            """
            import numpy as np

            def make(seed):
                return np.random.default_rng(seed)
            """,
            path="src/repro/core/widget.py",
        )
        assert rule_ids(findings) == ["REPRO101"]
        assert "derive_rng" in findings[0].autofix_hint

    def test_default_rng_allowed_inside_utils_rng(self):
        findings = findings_for(
            """
            import numpy as np

            def derive_rng(seed, tag=""):
                return np.random.default_rng(seed)
            """,
            path="src/repro/utils/rng.py",
        )
        assert findings == []

    def test_fires_on_stdlib_random_import(self):
        assert rule_ids(findings_for("import random\n")) == ["REPRO101"]
        assert rule_ids(
            findings_for("from random import choice\n")
        ) == ["REPRO101"]

    def test_clean_derive_rng_usage(self):
        findings = findings_for(
            """
            from repro.utils.rng import derive_rng

            def make(seed):
                return derive_rng(seed, "component")
            """
        )
        assert findings == []

    def test_fires_on_default_rng_in_fault_plan(self):
        """A chaos-harness jitter helper drawing from a raw generator
        (instead of derive_rng) must trip the discipline rule."""
        findings = findings_for(
            """
            import numpy as np

            def jitter_s(self, edge, index, attempt):
                rng = np.random.default_rng()
                return float(rng.uniform(0.0, self.latency_jitter_s))
            """,
            path="src/repro/serve/faults.py",
        )
        assert rule_ids(findings) == ["REPRO101"]

    def test_clean_derived_fault_stream(self):
        """The real FaultPlan idiom — a stream derived from the plan
        seed and a structural tag — is clean."""
        findings = findings_for(
            """
            from repro.utils.rng import derive_rng

            def jitter_s(self, edge, index, attempt):
                rng = derive_rng(
                    self.seed, f"jitter:{edge[0]}->{edge[1]}:{index}:{attempt}"
                )
                return float(rng.uniform(0.0, self.latency_jitter_s))
            """,
            path="src/repro/serve/faults.py",
        )
        assert findings == []

    def test_generator_annotation_is_not_a_call(self):
        findings = findings_for(
            """
            import numpy as np

            def consume(rng: np.random.Generator) -> None:
                assert isinstance(rng, np.random.Generator)
            """
        )
        assert findings == []


class TestAsyncBlocking:
    def test_fires_on_time_sleep_in_async_def(self):
        findings = findings_for(
            """
            import time

            async def handler():
                time.sleep(0.1)
            """
        )
        assert "REPRO102" in rule_ids(findings)

    def test_fires_on_open_in_async_def(self):
        findings = findings_for(
            """
            async def handler(path):
                with open(path) as fh:
                    return fh.read()
            """
        )
        assert "REPRO102" in rule_ids(findings)

    def test_fires_on_path_write_text_in_async_def(self):
        findings = findings_for(
            """
            async def handler(path):
                path.write_text("x")
            """
        )
        assert "REPRO102" in rule_ids(findings)

    def test_clean_sleep_in_sync_def_and_asyncio_sleep(self):
        findings = findings_for(
            """
            import asyncio
            import time

            def warmup():
                time.sleep(0.1)

            async def handler():
                await asyncio.sleep(0.1)
            """
        )
        assert findings == []


class TestPackedDtype:
    def test_fires_on_astype_float_of_words(self):
        findings = findings_for(
            """
            def leak(packed_words):
                return packed_words.astype(float)
            """
        )
        assert "REPRO104" in rule_ids(findings)

    def test_fires_on_asarray_float_of_packed(self):
        findings = findings_for(
            """
            import numpy as np

            def leak(packed):
                return np.asarray(packed, dtype=np.float64)
            """
        )
        assert "REPRO104" in rule_ids(findings)

    def test_fires_on_attribute_receiver(self):
        findings = findings_for(
            """
            import numpy as np

            def leak(model):
                return model.words.astype(np.float32)
            """
        )
        assert "REPRO104" in rule_ids(findings)

    def test_clean_unpack_then_float(self):
        findings = findings_for(
            """
            import numpy as np
            from repro.core.kernels import unpack_bits

            def ok(packed):
                dense = unpack_bits(packed)
                return dense.astype(np.float64)
            """
        )
        assert rule_ids(findings) == []

    def test_clean_uint64_view(self):
        findings = findings_for(
            """
            import numpy as np

            def ok(packed_bytes):
                return packed_bytes.view(np.uint64)
            """
        )
        assert findings == []


class TestObsLiteralNames:
    def test_fires_on_variable_metric_name(self):
        findings = findings_for(
            """
            import repro.obs as obs

            def record(name):
                obs.incr(name)
            """
        )
        assert "REPRO105" in rule_ids(findings)

    def test_fires_on_fstring_without_literal_prefix(self):
        findings = findings_for(
            """
            import repro.obs as obs

            def record(level):
                obs.incr(f"{level}.count")
            """
        )
        assert "REPRO105" in rule_ids(findings)

    def test_clean_literal_and_dotted_fstring_prefix(self):
        findings = findings_for(
            """
            import repro.obs as obs

            def record(level):
                obs.incr("serve.requests")
                obs.incr(f"serve.decided.l{level}")
            """
        )
        assert findings == []

    def test_fires_on_registry_method_with_variable(self):
        findings = findings_for(
            """
            def record(registry, name):
                registry.counter(name).inc()
            """
        )
        assert "REPRO105" in rule_ids(findings)

    def test_obs_package_itself_is_exempt(self):
        findings = findings_for(
            """
            def incr(name, amount=1):
                _registry.counter(name).inc(amount)
            """,
            path="src/repro/obs/runtime.py",
        )
        assert findings == []


class TestSilentBroadExcept:
    def test_fires_on_bare_except_pass(self):
        findings = findings_for(
            """
            def risky():
                try:
                    return 1 / 0
                except:
                    pass
            """
        )
        assert "REPRO107" in rule_ids(findings)

    def test_fires_on_except_exception_swallow(self):
        findings = findings_for(
            """
            def risky():
                try:
                    return compute()
                except Exception:
                    return None
            """
        )
        assert "REPRO107" in rule_ids(findings)

    def test_clean_when_logged_or_reraised(self):
        findings = findings_for(
            """
            import logging

            logger = logging.getLogger(__name__)

            def risky():
                try:
                    return compute()
                except Exception:
                    logger.exception("compute failed")
                    raise
            """
        )
        assert findings == []

    def test_clean_specific_exception(self):
        findings = findings_for(
            """
            def lookup(d, key):
                try:
                    return d[key]
                except KeyError:
                    return None
            """
        )
        assert findings == []


class TestUnvalidatedArrayApi:
    def test_fires_on_public_silent_coercion(self):
        findings = findings_for(
            """
            import numpy as np

            def transform(features):
                return np.asarray(features) * 2
            """
        )
        assert "REPRO108" in rule_ids(findings)

    def test_clean_with_check_helper(self):
        findings = findings_for(
            """
            import numpy as np
            from repro.utils.validation import check_matrix

            def transform(features):
                mat = check_matrix("features", features)
                return np.asarray(mat) * 2
            """
        )
        assert findings == []

    def test_clean_with_manual_raise(self):
        findings = findings_for(
            """
            import numpy as np

            def transform(features):
                arr = np.asarray(features)
                if arr.ndim != 2:
                    raise ValueError("need a matrix")
                return arr
            """
        )
        assert findings == []

    def test_private_functions_are_exempt(self):
        findings = findings_for(
            """
            import numpy as np

            def _transform(features):
                return np.asarray(features)
            """
        )
        assert findings == []

    def test_local_variables_do_not_fire(self):
        findings = findings_for(
            """
            import numpy as np

            def summarize(responses):
                values = [r.latency for r in responses]
                return np.asarray(values)
            """
        )
        assert findings == []


class TestProcessBoundary:
    def test_fires_on_plain_import(self):
        findings = findings_for(
            """
            import multiprocessing

            def spawn():
                return multiprocessing.Process(target=print)
            """
        )
        assert rule_ids(findings) == ["REPRO110"]
        assert "cluster" in findings[0].autofix_hint

    def test_fires_on_shared_memory_import(self):
        findings = findings_for(
            """
            from multiprocessing import shared_memory
            shm = shared_memory.SharedMemory(create=True, size=8)
            """
        )
        assert rule_ids(findings) == ["REPRO110"]

    def test_fires_on_submodule_from_import(self):
        findings = findings_for(
            """
            from multiprocessing.shared_memory import SharedMemory
            """,
            path="src/repro/serve/runtime.py",
        )
        assert rule_ids(findings) == ["REPRO110"]

    def test_cluster_module_is_allowed(self):
        findings = findings_for(
            """
            import multiprocessing
            from multiprocessing import shared_memory
            """,
            path="src/repro/serve/cluster.py",
        )
        assert findings == []

    def test_shard_and_kernels_modules_are_allowed(self):
        source = """
            from multiprocessing import shared_memory
            """
        for path in (
            "src/repro/serve/shard.py",
            "src/repro/core/kernels.py",
        ):
            assert findings_for(source, path=path) == []

    def test_unrelated_imports_do_not_fire(self):
        findings = findings_for(
            """
            import multiprocessing_utils
            from concurrent.futures import ProcessPoolExecutor
            """
        )
        assert findings == []


class TestRuleRegistry:
    def test_seven_rules_with_unique_ids(self):
        ids = [rule.rule_id for rule in DEFAULT_RULES]
        assert len(ids) == len(set(ids)) == 7
        # the index additionally knows the dataflow rules (--flow)
        from repro.analysis import FLOW_RULE_IDS

        assert set(RULE_INDEX) == set(ids) | set(FLOW_RULE_IDS)
        assert len(FLOW_RULE_IDS) == 3

    def test_every_rule_documents_itself(self):
        for rule in DEFAULT_RULES:
            assert rule.description, rule.rule_id
            assert rule.autofix_hint, rule.rule_id
            assert rule.severity in ("error", "warning")
            assert rule.node_types, rule.rule_id

    def test_default_rules_returns_fresh_instances(self):
        first, second = default_rules(), default_rules()
        assert {type(r) for r in first} == {type(r) for r in second}
        assert all(a is not b for a, b in zip(first, second))

    def test_duplicate_rule_ids_rejected(self):
        rules = default_rules()
        with pytest.raises(ValueError, match="duplicate"):
            LintEngine(rules + [type(rules[0])()])
