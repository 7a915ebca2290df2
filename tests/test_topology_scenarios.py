"""End-to-end topology replacement scenarios (ISSUE 10 satellite 1).

The full elastic lifecycle under chaos: a trained hierarchy serves and
learns online; mid-run an end node crashes, the lease monitor detects
it, a replacement respawns from the latest checkpoint and catches up by
replaying the feedback journal. The suite pins the three contracts the
control plane exists for:

* **zero lost requests** — every request of the mid-outage workload
  gets a terminal response (degraded is fine, lost is not);
* **bit-exact recovery** — after catch-up, answers and models are
  bit-identical to a same-seed run that never crashed;
* **determinism** — two same-seed scenario runs produce the same
  scenario fingerprint.

Everything runs on the virtual clock of
:func:`repro.hierarchy.control.run_replacement_scenario`, so these are
deterministic despite exercising detection timing.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.config import EdgeHDConfig
from repro.data import make_classification
from repro.data.partition import partition_features
from repro.hierarchy import (
    EdgeHDFederation,
    HierarchicalInference,
    OnlineLearner,
    ScenarioSpec,
    TopologyController,
    build_tree,
    run_replacement_scenario,
)

pytestmark = pytest.mark.scenario

N_FEATURES = 16
N_CLASSES = 3
SPEC = ScenarioSpec(
    n_steps=3, crash_step=1, seed=5, lease_timeout_s=0.5,
    heartbeat_period_s=0.25, drop_probability=0.1,
)


@pytest.fixture(scope="module")
def scenario_data():
    x, y = make_classification(
        n_samples=360, n_features=N_FEATURES, n_classes=N_CLASSES,
        seed=23, name="scenario-fixture",
    )
    train_x, train_y = x[:240], y[:240]
    stream_x, stream_y = x[240:320], y[240:320]
    serve_x = x[320:]
    return train_x, train_y, stream_x, stream_y, serve_x


def fresh_controller(scenario_data):
    """A trained controller + inference (same seed every call)."""
    train_x, train_y = scenario_data[0], scenario_data[1]
    config = EdgeHDConfig(
        dimension=512, batch_size=10, retrain_epochs=4, seed=17,
        confidence_threshold=0.3,
    )
    hierarchy = build_tree(4)
    partition = partition_features(N_FEATURES, 4)
    hierarchy.allocate_dimensions(config.dimension, partition.feature_counts())
    federation = EdgeHDFederation(hierarchy, partition, N_CLASSES, config)
    controller = TopologyController(
        federation, train_x, train_y,
        learner=OnlineLearner(federation),
        lease_timeout_s=SPEC.lease_timeout_s,
    )
    controller.fit()
    return controller, HierarchicalInference(federation)


def run(scenario_data, tmp_path, tag, *, inject_crash=True):
    controller, inference = fresh_controller(scenario_data)
    _, _, stream_x, stream_y, serve_x = scenario_data
    result = run_replacement_scenario(
        controller, inference, stream_x, stream_y, serve_x,
        tmp_path / f"{tag}.npz", SPEC, inject_crash=inject_crash,
    )
    return controller, result


class TestReplacementScenario:
    def test_zero_lost_requests_under_chaos(self, scenario_data, tmp_path):
        _, result = run(scenario_data, tmp_path, "chaos")
        assert result.n_lost_outage == 0
        assert result.n_lost_final == 0
        # the crash actually happened and was recovered from
        assert result.detected_at_s is not None
        assert any(e.startswith("fail:") for e in result.events)
        assert any(e.startswith("respawn:") for e in result.events)

    def test_catch_up_replays_journal(self, scenario_data, tmp_path):
        _, result = run(scenario_data, tmp_path, "replay")
        # The victim stays in the query pool, so the crash step produces
        # feedback for it on both sides of the crash — the journal
        # replay path must carry real events, not vacuously pass.
        assert result.n_replayed >= 1

    def test_recovery_bit_identical_to_uninterrupted_run(
        self, scenario_data, tmp_path
    ):
        crashed_ctl, crashed = run(scenario_data, tmp_path, "crashed")
        clean_ctl, clean = run(
            scenario_data, tmp_path, "clean", inject_crash=False
        )
        # post-catch-up serving answers are bit-identical to the run
        # that never crashed...
        assert (
            crashed.final_serve.fingerprint()
            == clean.final_serve.fingerprint()
        )
        # ...because every model ends bit-identical.
        for nid in crashed_ctl.federation.classifiers:
            assert np.array_equal(
                crashed_ctl.federation.classifiers[nid].class_hypervectors,
                clean_ctl.federation.classifiers[nid].class_hypervectors,
            ), f"node {nid} model diverged across the crash"

    def test_same_seed_runs_have_identical_fingerprints(
        self, scenario_data, tmp_path
    ):
        _, first = run(scenario_data, tmp_path, "fp-a")
        _, second = run(scenario_data, tmp_path, "fp-b")
        assert first.fingerprint == second.fingerprint
        assert first.events == second.events
        assert first.n_replayed == second.n_replayed

    def test_crash_run_fingerprint_differs_from_baseline(
        self, scenario_data, tmp_path
    ):
        _, crashed = run(scenario_data, tmp_path, "diff-a")
        _, clean = run(
            scenario_data, tmp_path, "diff-b", inject_crash=False
        )
        assert crashed.fingerprint != clean.fingerprint


@pytest.mark.slow
class TestClusterReplacement:
    def test_worker_respawn_keeps_fleet_whole(self, scenario_data):
        import time

        from repro.network.medium import get_medium
        from repro.serve import ServeConfig, make_workload
        from repro.serve.cluster import ClusterConfig, ClusterRuntime
        from repro.serve.faults import FaultPlan

        controller, inference = fresh_controller(scenario_data)
        serve_x = scenario_data[4]
        # replica 0 dies at t=0 and never comes back by itself; the
        # router must evict it and spawn a replacement.
        plan = FaultPlan.replacement(0, 0.0, 1e9, seed=3)
        assert plan.respawn_times() == {0: 1e9}
        workload = make_workload(serve_x, inference, seed=7)
        cluster = ClusterConfig(
            workers=2, heartbeat_timeout_s=0.6,
            heartbeat_interval_s=0.05, respawn=True,
        )
        with ClusterRuntime(
            inference, get_medium("wired-1gbps"),
            ServeConfig(max_batch=16, queue_depth=1024),
            cluster, fault_plan=plan,
        ) as runtime:
            result = runtime.serve_open_loop(workload, rate_rps=400.0, seed=1)
            assert result.n_total == len(workload)  # zero lost
            assert runtime.n_respawned >= 1
            assert runtime.registry.n_evicted >= 1
            # the replacement inherited the evicted worker's CPU under
            # a fresh, never-reused id
            cpu = runtime._cpu_of_replica[0]
            assert runtime._cpu_of_replica[2] == cpu
            # give the replacement time to come up, then serve again:
            # the router registers it and the fleet is whole again.
            time.sleep(1.0)
            second = runtime.serve_open_loop(workload, rate_rps=400.0, seed=2)
            assert second.n_total == len(workload)
            assert 2 in runtime.registry
            if cpu is not None:
                pid = runtime._procs[2].pid
                assert os.sched_getaffinity(pid) == {cpu}
