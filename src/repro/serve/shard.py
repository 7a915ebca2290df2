"""Shared-memory model shards for the multi-process serving cluster.

A trained federation's learned state is, per node, three matrices: the
float64 class hypervectors, their pre-normalized rows (dense cosine
path), and the bit-packed uint64 sign model (popcount path). A
:class:`SharedModelStore` lays all three out for *every* node in one
``multiprocessing.shared_memory`` block and hands out a JSON-safe
manifest of offsets. Worker processes rebuild the federation's
*structure* from seeds (encoders and projections regenerate
deterministically, exactly as :mod:`repro.hierarchy.checkpoint`
assumes) and then :meth:`attach` + :meth:`install` the learned state as
**read-only zero-copy views** — no model matrix is ever pickled to or
duplicated in a worker, no matter how many replicas run.

Every worker holds the *full* store, not a slice of it: any replica
can take any batch, and the upper-tier models are shared read-only by
all replicas — the
shared-memory realization of the paper's hierarchy, where gateway and
central models serve every subtree below them.

Lifecycle: the router :meth:`publish`\\ es (owner), workers
:meth:`attach` (read-only). ``close()`` detaches a mapping;
``unlink()`` (owner only) releases the segment. The store is a context
manager over that lifecycle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

from repro.core.hypervector import normalize_rows
from repro.core.kernels import (
    PackedBits,
    attach_packed,
    pack_bits_into,
    packed_nbytes,
    words_per_row,
)

if TYPE_CHECKING:  # runtime import would cycle through repro.hierarchy
    from repro.hierarchy.federation import EdgeHDFederation

__all__ = ["SharedModelStore", "NodeLayout"]

_FORMAT_VERSION = 1
_F64 = 8


@dataclass(frozen=True)
class NodeLayout:
    """Byte offsets of one node's three model matrices in the block."""

    node_id: int
    dimension: int
    model_offset: int
    normalized_offset: int
    packed_offset: int

    def to_dict(self) -> dict:
        return {
            "node_id": self.node_id,
            "dimension": self.dimension,
            "model_offset": self.model_offset,
            "normalized_offset": self.normalized_offset,
            "packed_offset": self.packed_offset,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NodeLayout":
        return cls(
            node_id=int(data["node_id"]),
            dimension=int(data["dimension"]),
            model_offset=int(data["model_offset"]),
            normalized_offset=int(data["normalized_offset"]),
            packed_offset=int(data["packed_offset"]),
        )


def _plan_layout(
    n_classes: int, node_dimensions: Dict[int, int]
) -> Tuple[Dict[int, NodeLayout], int]:
    """Assign offsets node by node; every matrix is 8-byte aligned.

    float64 and uint64 elements are both 8 bytes wide, so packing the
    matrices back to back keeps natural alignment with zero padding.
    """
    layouts: Dict[int, NodeLayout] = {}
    offset = 0
    for node_id in sorted(node_dimensions):
        dim = node_dimensions[node_id]
        dense = n_classes * dim * _F64
        packed = packed_nbytes(n_classes, dim)
        layouts[node_id] = NodeLayout(
            node_id=node_id,
            dimension=dim,
            model_offset=offset,
            normalized_offset=offset + dense,
            packed_offset=offset + 2 * dense,
        )
        offset += 2 * dense + packed
    return layouts, offset


class SharedModelStore:
    """Packed + dense model replicas over one shared-memory block."""

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        n_classes: int,
        layouts: Dict[int, NodeLayout],
        nbytes: int,
        owner: bool,
    ) -> None:
        self._shm = shm
        self.n_classes = int(n_classes)
        self.layouts = layouts
        self.nbytes = int(nbytes)
        self._owner = bool(owner)
        self._closed = False

    # ------------------------------------------------------------------
    # publish / attach
    # ------------------------------------------------------------------
    @classmethod
    def publish(cls, federation: "EdgeHDFederation") -> "SharedModelStore":
        """Copy a trained federation's models into a fresh shared block.

        The one-and-only copy: publishing writes each node's class
        hypervectors, their normalized rows and the packed sign model
        into the segment; every subsequent :meth:`attach` is a view.
        Raises ``RuntimeError`` on untrained nodes, mirroring
        :func:`repro.hierarchy.checkpoint.save_topology_state`.
        """
        node_dimensions: Dict[int, int] = {}
        for node_id, clf in federation.classifiers.items():
            if clf.class_hypervectors is None:
                raise RuntimeError(
                    f"node {node_id} is untrained; run fit_offline() first"
                )
            node_dimensions[node_id] = clf.dimension
        layouts, nbytes = _plan_layout(federation.n_classes, node_dimensions)
        shm = shared_memory.SharedMemory(create=True, size=max(nbytes, 1))
        store = cls(
            shm, federation.n_classes, layouts, nbytes, owner=True
        )
        for node_id, layout in layouts.items():
            clf = federation.classifiers[node_id]
            model, normalized, packed = store._views(layout, writable=True)
            model[:] = clf.class_hypervectors
            normalized[:] = normalize_rows(clf.class_hypervectors)
            pack_bits_into(clf.class_hypervectors, packed.words)
        return store

    @classmethod
    def attach(cls, manifest: dict) -> "SharedModelStore":
        """Map an existing store from its :meth:`manifest` (read-only)."""
        if manifest.get("format_version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported store manifest version "
                f"{manifest.get('format_version')}"
            )
        # Python < 3.13 registers attached segments with the resource
        # tracker as if this process owned them — a spawn-child tracker
        # then unlinks the block at exit while the owner still uses it.
        # Suppress registration entirely; only the publishing owner
        # manages the segment lifetime (3.13+ has track=False for this).
        try:
            shm = shared_memory.SharedMemory(name=manifest["name"], track=False)
        except TypeError:  # pragma: no cover - interpreter < 3.13
            from multiprocessing import resource_tracker

            original_register = resource_tracker.register
            resource_tracker.register = lambda *args, **kwargs: None
            try:
                shm = shared_memory.SharedMemory(name=manifest["name"])
            finally:
                resource_tracker.register = original_register
        layouts = {
            int(key): NodeLayout.from_dict(value)
            for key, value in manifest["nodes"].items()
        }
        return cls(
            shm,
            int(manifest["n_classes"]),
            layouts,
            int(manifest["nbytes"]),
            owner=False,
        )

    def manifest(self) -> dict:
        """JSON-safe attachment recipe (ships in the pickled worker spec)."""
        return {
            "format_version": _FORMAT_VERSION,
            "name": self._shm.name,
            "nbytes": self.nbytes,
            "n_classes": self.n_classes,
            "nodes": {
                str(node_id): layout.to_dict()
                for node_id, layout in self.layouts.items()
            },
        }

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def _views(
        self, layout: NodeLayout, writable: bool = False
    ) -> Tuple[np.ndarray, np.ndarray, PackedBits]:
        shape = (self.n_classes, layout.dimension)
        count = shape[0] * shape[1]
        buf = self._shm.buf
        model = np.frombuffer(
            buf, dtype=np.float64, count=count, offset=layout.model_offset
        ).reshape(shape)
        normalized = np.frombuffer(
            buf, dtype=np.float64, count=count,
            offset=layout.normalized_offset,
        ).reshape(shape)
        packed = attach_packed(
            buf, self.n_classes, layout.dimension,
            offset=layout.packed_offset,
        )
        if not writable:
            model.flags.writeable = False
            normalized.flags.writeable = False
            packed.words.flags.writeable = False
        return model, normalized, packed

    def node_views(
        self, node_id: int
    ) -> Tuple[np.ndarray, np.ndarray, PackedBits]:
        """Read-only ``(model, normalized, packed)`` views for one node."""
        if node_id not in self.layouts:
            raise KeyError(f"store holds no model for node {node_id}")
        return self._views(self.layouts[node_id])

    def install(self, federation: "EdgeHDFederation") -> dict:
        """Attach every node's shared model into ``federation``.

        Returns an evidence report the worker ships back to the router:
        per-store byte size, node count, and whether every installed
        array is a true zero-copy view into the shared block (no
        ``OWNDATA``, memory shared with the segment buffer).
        """
        expected = set(federation.classifiers)
        if expected != set(self.layouts):
            raise ValueError(
                f"store layout covers nodes {sorted(self.layouts)} but the "
                f"federation has {sorted(expected)}"
            )
        probe = np.frombuffer(self._shm.buf, dtype=np.uint8)
        zero_copy = True
        for node_id, clf in federation.classifiers.items():
            layout = self.layouts[node_id]
            if clf.dimension != layout.dimension:
                raise ValueError(
                    f"node {node_id}: store dimension {layout.dimension} "
                    f"!= classifier dimension {clf.dimension}"
                )
            model, normalized, packed = self.node_views(node_id)
            clf.attach_model(model, normalized, packed)
            zero_copy = zero_copy and not model.flags.owndata
            zero_copy = zero_copy and np.shares_memory(model, probe)
            zero_copy = zero_copy and np.shares_memory(packed.words, probe)
        return {
            "nodes": len(self.layouts),
            "nbytes": self.nbytes,
            "zero_copy": bool(zero_copy),
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._shm.name

    def packed_words(self, node_id: int) -> int:
        """uint64 words per packed row at ``node_id`` (introspection)."""
        return words_per_row(self.layouts[node_id].dimension)

    def close(self) -> None:
        """Detach this process's mapping (views become invalid).

        If installed views still reference the block (classifiers keep
        them until the process exits), the mmap cannot be unmapped yet;
        the store drops its handles instead and the OS reclaims the
        mapping at process exit.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except BufferError:
            self._shm._mmap = None
            if self._shm._fd >= 0:
                os.close(self._shm._fd)
                self._shm._fd = -1

    def unlink(self) -> None:
        """Release the segment itself. Owner only; call after close."""
        if not self._owner:
            raise RuntimeError("only the publishing owner may unlink")
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __enter__(self) -> "SharedModelStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
        if self._owner:
            self.unlink()
