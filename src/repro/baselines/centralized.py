"""Centralized learning baseline (Fig. 1b).

Every end node ships its *raw sensor data* through the hierarchy to the
central node, which encodes, trains and serves the single global model.
This is the configuration EdgeHD is measured against in Figs. 10/11/13:
the classifier itself can be HD (HD-GPU / HD-FPGA) or a DNN (DNN-GPU);
the communication pattern is what distinguishes it from EdgeHD.
Centralized HD is an :class:`~repro.core.model.EdgeHDModel` trained on
all features plus the traffic :func:`centralized_upload_messages`
prices; this module holds only the latter.
"""

from __future__ import annotations

from typing import List

from repro.core.model import raw_data_bytes
from repro.data.partition import FeaturePartition
from repro.hierarchy.topology import Hierarchy
from repro.network.message import Message, MessageKind

__all__ = ["centralized_upload_messages"]


def centralized_upload_messages(
    hierarchy: Hierarchy,
    partition: FeaturePartition,
    n_samples: int,
    kind: MessageKind = MessageKind.RAW_DATA,
) -> List[Message]:
    """Messages for shipping all raw data to the central node.

    Each end node sends ``n_samples x n_i`` floats; every intermediate
    hop forwards the aggregate of its subtree (store-and-forward
    through gateways, as in the TREE topology discussion of Fig. 10).
    """
    if n_samples < 0:
        raise ValueError("n_samples must be >= 0")
    messages: List[Message] = []
    subtree_bytes: dict[int, int] = {}
    for node_id in hierarchy.postorder():
        node = hierarchy.nodes[node_id]
        if node.is_leaf:
            n_local = len(partition.columns(node.leaf_index))
            subtree_bytes[node_id] = raw_data_bytes(n_samples, n_local)
        else:
            subtree_bytes[node_id] = sum(
                subtree_bytes[c] for c in node.children
            )
        if node.parent is not None:
            messages.append(
                Message(
                    source=node_id,
                    destination=node.parent,
                    kind=kind,
                    payload_bytes=subtree_bytes[node_id],
                )
            )
    return messages
