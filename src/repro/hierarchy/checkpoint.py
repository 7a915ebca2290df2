"""Checkpointing a trained federation.

:func:`save_topology_state` / :func:`load_topology_state` persist the
*entire* control-plane state: hierarchy structure (with id gaps from
drained nodes), feature partition, configuration, per-node lifecycle
states, class hypervectors, and — when an online learner is passed —
its residual stacks with their true per-class counts plus the
propagation counter. The file is self-describing:
:func:`load_topology_state` rebuilds the federation from the file
alone, which is what lets a crashed node respawn and a whole deployment
restore bit-exactly (the ``1/(1 + decay·t)`` learning-rate schedule
depends on the propagation count, so residual replay only reproduces
the uninterrupted run if that counter rides along). Saving without a
learner is the models-only checkpoint; :func:`validate_topology_meta`
checks a loaded file against a live federation.

The loader raises :class:`CheckpointError` with the offending file
path and expected-vs-found context on every failure path — a corrupted,
truncated or version-mismatched checkpoint must never load silently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

import numpy as np

from repro.core.online import ResidualAccumulator
from repro.hierarchy.federation import EdgeHDFederation
from repro.hierarchy.online import OnlineLearner
from repro.hierarchy.topology import Hierarchy
from repro.utils.files import savez_atomic

__all__ = [
    "save_topology_state",
    "load_topology_state",
    "validate_topology_meta",
    "TopologyCheckpoint",
    "CheckpointError",
]

#: 3: the config block has no ``binarize`` key (every encoding is bipolar).
TOPOLOGY_FORMAT_VERSION = 3


class CheckpointError(ValueError):
    """Checkpoint file is malformed or does not match the federation."""


# ----------------------------------------------------------------------
# low-level readers: every failure names the file and the reason
# ----------------------------------------------------------------------
def _open_archive(path: Path):
    try:
        return np.load(str(path), allow_pickle=False)
    except Exception as exc:
        raise CheckpointError(
            f"{path}: not a readable checkpoint archive ({exc})"
        ) from exc


def _read_array(data, key: str, path: Path) -> np.ndarray:
    try:
        return data[key]
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(
            f"{path}: failed to read array {key!r} — archive truncated "
            f"or corrupted ({exc})"
        ) from exc


def _read_meta(data, path: Path) -> dict:
    if "meta" not in data:
        raise CheckpointError(
            f"{path}: missing metadata block — expected a 'meta' entry, "
            f"found {sorted(data.files)}"
        )
    raw = _read_array(data, "meta", path)
    try:
        meta = json.loads(bytes(raw).decode("utf-8"))
    except Exception as exc:
        raise CheckpointError(
            f"{path}: corrupted metadata block ({exc})"
        ) from exc
    if not isinstance(meta, dict):
        raise CheckpointError(
            f"{path}: metadata must be a JSON object, found "
            f"{type(meta).__name__}"
        )
    return meta


# ----------------------------------------------------------------------
# full topology state
# ----------------------------------------------------------------------
@dataclass
class TopologyCheckpoint:
    """Decoded content of a topology checkpoint."""

    meta: dict
    models: Dict[int, np.ndarray]
    node_states: Dict[int, str]
    journal_seq: int
    #: None when the checkpoint was saved without an online learner.
    learner_params: Optional[dict]
    propagations: int
    #: exact per-node accumulators (true per-class counts), not the
    #: lossy :meth:`~repro.core.online.ResidualAccumulator.load` form.
    residuals: Dict[int, ResidualAccumulator]
    #: reconstructed federation with models installed; None when the
    #: caller asked for metadata/arrays only (``reconstruct=False``).
    federation: Optional[EdgeHDFederation]

    def build_learner(self) -> Optional[OnlineLearner]:
        """Recreate the online learner exactly as checkpointed.

        Residual stacks, per-class counts and the propagation counter
        install verbatim; the learner is constructed with
        ``normalize=False`` and the flag restored afterwards, because
        the constructor's renormalize-on-attach would perturb the
        already-normalized restored models at the last ulp.
        """
        if self.learner_params is None:
            return None
        if self.federation is None:
            raise RuntimeError(
                "checkpoint was loaded with reconstruct=False; no "
                "federation to attach a learner to"
            )
        p = self.learner_params
        learner = OnlineLearner(
            self.federation,
            learning_rate=float(p["learning_rate"]),
            feedback_includes_label=bool(p["feedback_includes_label"]),
            aggregate_children=bool(p["aggregate_children"]),
            normalize=False,
        )
        learner.normalize = bool(p["normalize"])
        learner.learning_rate_decay = float(p["learning_rate_decay"])
        learner._propagations = int(p["propagations"])
        for node_id, saved in self.residuals.items():
            learner.residuals[node_id] = saved.copy()
        return learner


def _topology_metadata(
    federation: EdgeHDFederation,
    node_states: Mapping[int, str],
    journal_seq: int,
    learner: Optional[OnlineLearner],
) -> dict:
    meta = {
        "format_version": TOPOLOGY_FORMAT_VERSION,
        "kind": "topology",
        **federation.spec(),
        "node_states": {str(nid): state for nid, state in node_states.items()},
        "journal_seq": int(journal_seq),
        "node_dimensions": {
            str(nid): node.dimension
            for nid, node in federation.hierarchy.nodes.items()
        },
        "learner": None,
    }
    if learner is not None:
        meta["learner"] = {
            "learning_rate": learner.learning_rate,
            "feedback_includes_label": learner.feedback_includes_label,
            "aggregate_children": learner.aggregate_children,
            "normalize": learner.normalize,
            "learning_rate_decay": learner.learning_rate_decay,
            "propagations": learner._propagations,
            "feedback_counts": {
                str(nid): acc.feedback_count
                for nid, acc in learner.residuals.items()
            },
        }
    return meta


def save_topology_state(
    federation: EdgeHDFederation,
    path: Union[str, Path],
    *,
    learner: Optional[OnlineLearner] = None,
    node_states: Optional[Mapping[int, str]] = None,
    journal_seq: int = 0,
) -> None:
    """Persist the full control-plane state as a checkpoint.

    ``node_states`` maps node id to a lifecycle-state string (defaults
    to ``"active"`` for every node); ``journal_seq`` records how much of
    the control plane's feedback journal the checkpoint covers, so a
    respawned node knows where residual replay must start.

    The archive lands at exactly ``path`` (no suffix is appended) by
    rename from a sibling ``<name>.tmp``: a save that fails part-way
    leaves whatever was at ``path`` before untouched.
    """
    states = dict(node_states or {})
    for nid in federation.hierarchy.nodes:
        states.setdefault(nid, "active")
    unknown = set(states) - set(federation.hierarchy.nodes)
    if unknown:
        raise ValueError(f"node_states references unknown nodes {sorted(unknown)}")
    if learner is not None and learner.federation is not federation:
        raise ValueError("learner is attached to a different federation")
    arrays: Dict[str, np.ndarray] = {}
    for node_id, classifier in federation.classifiers.items():
        if classifier.class_hypervectors is None:
            raise RuntimeError(
                f"node {node_id} is untrained; run fit_offline() first"
            )
        arrays[f"model_{node_id}"] = classifier.class_hypervectors
    if learner is not None:
        for node_id, acc in learner.residuals.items():
            arrays[f"resneg_{node_id}"] = acc.negative
            arrays[f"respos_{node_id}"] = acc.positive
            arrays[f"resnegc_{node_id}"] = acc.negative_counts
            arrays[f"resposc_{node_id}"] = acc.positive_counts
    meta = _topology_metadata(federation, states, journal_seq, learner)
    arrays["meta"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    savez_atomic(path, **arrays)


def validate_topology_meta(
    meta: dict, federation: EdgeHDFederation, path: Union[str, Path]
) -> None:
    """Check a checkpoint's structure against a live federation.

    Used on respawn: the node catching up from the checkpoint must be
    rejoining the same deployment the checkpoint describes.
    """
    for key, want in federation.spec().items():
        if meta.get(key) != want:
            raise CheckpointError(
                f"{path}: topology checkpoint mismatch on {key!r}: "
                f"saved {meta.get(key)!r} vs federation {want!r}"
            )


def load_topology_state(
    path: Union[str, Path], *, reconstruct: bool = True
) -> TopologyCheckpoint:
    """Decode a checkpoint; optionally rebuild the federation from it.

    With ``reconstruct=True`` (default) the hierarchy, partition,
    config and per-node models are turned back into a live
    :class:`EdgeHDFederation` — encoders and projections regenerate
    from the node-id-keyed seeds, so the restored system is
    bit-identical to the one that was saved. ``reconstruct=False``
    decodes metadata and arrays only (cheap), for respawn flows that
    validate against an already-live federation.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no checkpoint at {path}")
    with _open_archive(path) as data:
        meta = _read_meta(data, path)
        version = meta.get("format_version")
        if version != TOPOLOGY_FORMAT_VERSION:
            raise CheckpointError(
                f"{path}: unsupported topology checkpoint version: expected "
                f"{TOPOLOGY_FORMAT_VERSION}, found {version!r}"
            )
        for key in ("config", "hierarchy", "partition", "n_classes"):
            if key not in meta:
                raise CheckpointError(
                    f"{path}: metadata missing required key {key!r} — "
                    f"found keys {sorted(meta)}"
                )
        federation: Optional[EdgeHDFederation] = None
        try:
            if reconstruct:
                federation = EdgeHDFederation.from_spec(meta)
                hierarchy = federation.hierarchy
            else:
                hierarchy = Hierarchy.from_spec(meta["hierarchy"])
        except Exception as exc:
            raise CheckpointError(
                f"{path}: invalid topology description ({exc})"
            ) from exc
        node_ids = sorted(hierarchy.nodes)
        models: Dict[int, np.ndarray] = {}
        for node_id in node_ids:
            key = f"model_{node_id}"
            if key not in data:
                raise CheckpointError(
                    f"{path}: checkpoint missing model for node {node_id} — "
                    f"expected arrays for nodes {node_ids}, found entries "
                    f"{sorted(data.files)}"
                )
            models[node_id] = np.array(
                _read_array(data, key, path), dtype=np.float64
            )
        learner_params = meta.get("learner")
        residuals: Dict[int, ResidualAccumulator] = {}
        if learner_params is not None:
            counts = learner_params.get("feedback_counts", {})
            for node_id in node_ids:
                parts = {}
                for prefix in ("resneg", "respos", "resnegc", "resposc"):
                    key = f"{prefix}_{node_id}"
                    if key not in data:
                        raise CheckpointError(
                            f"{path}: checkpoint missing residual array "
                            f"{key!r} for node {node_id} — found entries "
                            f"{sorted(data.files)}"
                        )
                    parts[prefix] = np.array(_read_array(data, key, path))
                shapes = {prefix: arr.shape for prefix, arr in parts.items()}
                stack = shapes["resneg"]
                if len(stack) != 2 or shapes != {
                    "resneg": stack, "respos": stack,
                    "resnegc": stack[:1], "resposc": stack[:1],
                }:
                    raise CheckpointError(
                        f"{path}: residual arrays for node {node_id} have "
                        f"shapes {shapes} — expected two (K, d) stacks and "
                        "two (K,) counts"
                    )
                acc = ResidualAccumulator(*stack)
                acc.negative = parts["resneg"].astype(np.float64)
                acc.positive = parts["respos"].astype(np.float64)
                acc.negative_counts = parts["resnegc"].astype(np.int64)
                acc.positive_counts = parts["resposc"].astype(np.int64)
                acc.feedback_count = int(counts.get(str(node_id), 0))
                residuals[node_id] = acc
            learner_params = dict(learner_params)
    node_states = {
        int(nid): str(state)
        for nid, state in meta.get("node_states", {}).items()
    }
    if federation is not None:
        saved_dims = meta.get("node_dimensions", {})
        for node_id in node_ids:
            node = hierarchy.nodes[node_id]
            saved = saved_dims.get(str(node_id))
            if saved is not None and int(saved) != node.dimension:
                raise CheckpointError(
                    f"{path}: node {node_id} reconstructs with dimension "
                    f"{node.dimension} but the checkpoint recorded {saved} — "
                    "allocation drift; the file does not describe this build"
                )
            model = models[node_id]
            if model.shape != (int(meta["n_classes"]), node.dimension):
                raise CheckpointError(
                    f"{path}: model for node {node_id} has shape "
                    f"{model.shape}, expected "
                    f"{(int(meta['n_classes']), node.dimension)}"
                )
            federation.classifiers[node_id].set_model(model)
    return TopologyCheckpoint(
        meta=meta,
        models=models,
        node_states=node_states,
        journal_seq=int(meta.get("journal_seq", 0)),
        learner_params=learner_params,
        propagations=(
            int(learner_params["propagations"]) if learner_params else 0
        ),
        residuals=residuals,
        federation=federation,
    )
