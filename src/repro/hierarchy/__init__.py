"""Hierarchy-level orchestration: topology, federation, inference, online."""

from repro.hierarchy.checkpoint import (
    CheckpointError,
    TopologyCheckpoint,
    load_topology_state,
    save_topology_state,
)
from repro.hierarchy.control import (
    DrainResult,
    FeedbackEvent,
    JoinResult,
    NodeState,
    ScenarioResult,
    ScenarioSpec,
    TopologyController,
    TransitionRecord,
    run_replacement_scenario,
)
from repro.hierarchy.deployment import DeploymentReport, SimulatedDeployment
from repro.hierarchy.federation import (
    EdgeHDFederation,
    FederatedTrainingReport,
    batch_groups,
)
from repro.hierarchy.inference import HierarchicalInference, InferenceOutcome
from repro.hierarchy.online import OnlineLearner, OnlineSession, OnlineStepMetrics
from repro.hierarchy.topology import (
    Hierarchy,
    Node,
    build_deep_tree,
    build_pecan,
    build_star,
    build_tree,
)

__all__ = [
    "CheckpointError",
    "TopologyCheckpoint",
    "load_topology_state",
    "save_topology_state",
    "DrainResult",
    "FeedbackEvent",
    "JoinResult",
    "NodeState",
    "ScenarioResult",
    "ScenarioSpec",
    "TopologyController",
    "TransitionRecord",
    "run_replacement_scenario",
    "DeploymentReport",
    "SimulatedDeployment",
    "EdgeHDFederation",
    "FederatedTrainingReport",
    "batch_groups",
    "HierarchicalInference",
    "InferenceOutcome",
    "OnlineLearner",
    "OnlineSession",
    "OnlineStepMetrics",
    "Hierarchy",
    "Node",
    "build_deep_tree",
    "build_pecan",
    "build_star",
    "build_tree",
]
