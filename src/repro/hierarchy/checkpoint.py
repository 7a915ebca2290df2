"""Checkpointing a trained federation.

:func:`save_topology_state` / :func:`load_topology_state` persist the
*entire* control-plane state: hierarchy structure (with id gaps from
drained nodes), feature partition, configuration, per-node lifecycle
states, class hypervectors, non-root forwarded batches (packed bits, with
the training set's digest) and — when an online learner is passed — its
non-empty residual stacks with their true per-class counts plus the
propagation counter. The file is self-describing:
:func:`load_topology_state` rebuilds the federation from the file
alone, which is what lets a crashed node respawn and a whole deployment
restore bit-exactly (the ``1/(1 + decay·t)`` learning-rate schedule
depends on the propagation count, so residual replay only reproduces
the uninterrupted run if that counter rides along). Saving without a
learner or forwards is the models-only checkpoint; :func:`validate_topology_meta`
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

#: 4: forwards and training digest added, empty residuals left out.
TOPOLOGY_FORMAT_VERSION = 4
_RESIDUAL_PREFIXES = ("resneg", "respos", "resnegc", "resposc")


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
    #: non-root node id -> ``np.packbits(forwards > 0, axis=1)``.
    forwards: Dict[int, np.ndarray]
    #: reconstructed federation with models installed; None when the
    #: caller asked for metadata/arrays only (``reconstruct=False``).
    federation: Optional[EdgeHDFederation]

    def unpack_forwards(self) -> Dict[int, np.ndarray]:
        """:attr:`forwards` as the bipolar int8 rows that were saved."""
        unpacked: Dict[int, np.ndarray] = {}
        for nid, bits in self.forwards.items():
            dim = int(self.meta["node_dimensions"][str(nid)])
            unpacked[nid] = np.unpackbits(bits, axis=1, count=dim).view(np.int8) * 2 - 1
        return unpacked

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
    training_digest: Optional[str],
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
        "training_digest": training_digest,
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
    forwards: Optional[Mapping[int, np.ndarray]] = None,
    training_digest: Optional[str] = None,
) -> None:
    """Persist the full control-plane state as a checkpoint.

    ``node_states`` maps node id to a lifecycle-state string (defaults
    to ``"active"`` for every node); ``journal_seq`` records how much of
    the control plane's feedback journal the checkpoint covers, so a
    respawned node knows where residual replay must start. ``forwards``
    (bipolar, by node id) and ``training_digest`` spare restore an encode.

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
    for node_id, rows in (forwards or {}).items():
        if node_id != federation.hierarchy.root_id:
            arrays[f"fwd_{node_id}"] = np.packbits(rows > 0, axis=1)
    if learner is not None:
        for node_id, acc in learner.residuals.items():
            stacks = (acc.negative, acc.positive,
                      acc.negative_counts, acc.positive_counts)
            # Left out when bit-equal to the empty one the loader makes.
            if acc.feedback_count or any(a.view(np.uint64).any() for a in stacks):
                for prefix, array in zip(_RESIDUAL_PREFIXES, stacks):
                    arrays[f"{prefix}_{node_id}"] = array
    meta = _topology_metadata(federation, states, journal_seq, learner, training_digest)
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
        for key in ("config", "hierarchy", "partition", "n_classes", "node_dimensions"):
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
        dims = {n: int(meta["node_dimensions"].get(str(n), 0)) for n in node_ids}
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
        forwards: Dict[int, np.ndarray] = {}
        for node_id in node_ids if meta.get("training_digest") else ():
            if node_id == hierarchy.root_id:
                continue
            key, width = f"fwd_{node_id}", -(-dims[node_id] // 8)
            bits = _read_array(data, key, path) if key in data else np.empty(0)
            if bits.ndim != 2 or bits.shape[1] != width:
                raise CheckpointError(
                    f"{path}: forwards {key!r} have shape {bits.shape} (empty: "
                    f"missing), expected (n_batches, {width}) packed bytes"
                )
            forwards[node_id] = bits
        learner_params = meta.get("learner")
        residuals: Dict[int, ResidualAccumulator] = {}
        if learner_params is not None:
            counts = learner_params.get("feedback_counts", {})
            for node_id in node_ids:
                # An accumulator without feedback is saved as no arrays.
                k, d = int(meta["n_classes"]), dims[node_id]
                parts = {}
                for prefix in _RESIDUAL_PREFIXES:
                    key = f"{prefix}_{node_id}"
                    if key in data:
                        parts[prefix] = np.array(_read_array(data, key, path))
                    elif counts.get(str(node_id), 0):
                        raise CheckpointError(
                            f"{path}: checkpoint missing residual array "
                            f"{key!r} for node {node_id} — found entries "
                            f"{sorted(data.files)}"
                        )
                    else:
                        parts[prefix] = np.zeros((k,) if prefix[-1] == "c" else (k, d))
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
        for node_id in node_ids:
            node = hierarchy.nodes[node_id]
            if dims[node_id] != node.dimension:
                raise CheckpointError(
                    f"{path}: node {node_id} reconstructs with dimension "
                    f"{node.dimension} but the checkpoint recorded "
                    f"{dims[node_id]} — "
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
        forwards=forwards,
        federation=federation,
    )
