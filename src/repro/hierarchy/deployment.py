"""Simulated distributed deployment: EdgeHD over real wire frames.

:class:`SimulatedDeployment` executes the federated training pass the
way a real rollout would: every transfer is *serialized* into a
protocol frame (:mod:`repro.network.protocol`), optionally corrupted by
the failure model, carried through the discrete-event simulator, and
*deserialized* on the receiving node — nothing is shared through
Python references. This closes the loop between the algorithmic layer
(which the unit tests cover) and the transport layer (which the cost
models charge): the class hypervectors the central node ends up with
are reconstructed purely from bytes that crossed the simulated network.

It drives the same per-node training step as
:meth:`EdgeHDFederation.fit_offline` — on a clean network the two end
with bit-identical models — and is used by the integration tests and
the failure-injection studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.hierarchy.federation import EdgeHDFederation
from repro.network.failure import FailureModel
from repro.network.medium import Medium
from repro.network.message import Message, MessageKind
from repro.network.protocol import ProtocolError, decode_frame, encode_frame
from repro.network.simulator import NetworkSimulator, SimulationResult
from repro.utils.rng import derive_rng

__all__ = ["SimulatedDeployment", "DeploymentReport"]


@dataclass
class DeploymentReport:
    """Outcome of a deployed (wire-level) training pass."""

    simulation: SimulationResult
    frames_sent: int = 0
    frames_corrupted: int = 0
    bytes_on_wire: int = 0
    node_train_accuracy: Dict[int, float] = field(default_factory=dict)


class SimulatedDeployment:
    """Run federated EdgeHD training through serialized network frames.

    Parameters
    ----------
    federation:
        An (untrained) federation holding the per-node artifacts.
    medium:
        Link model used to charge time/energy for each frame.
    failure_model:
        Optional whole-frame drop model. A dropped frame that exhausts
        its retries is *lost*: the parent trains without that child's
        contribution (zeros), exercising the paper's harsh-network
        story end to end.
    corrupt_bits:
        Probability that a delivered frame arrives with payload
        corruption. Corrupted frames fail their CRC and are treated as
        lost (a real receiver would NACK; we model the pessimistic
        case).
    """

    def __init__(
        self,
        federation: EdgeHDFederation,
        medium: Medium,
        failure_model: Optional[FailureModel] = None,
        corrupt_bits: float = 0.0,
        max_retries: int = 3,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= corrupt_bits <= 1.0:
            raise ValueError("corrupt_bits must be in [0, 1]")
        self.federation = federation
        self.medium = medium
        self.simulator = NetworkSimulator(
            federation.hierarchy, medium,
            failure_model=failure_model, max_retries=max_retries,
        )
        self.corrupt_bits = float(corrupt_bits)
        self._rng = derive_rng(seed, "deployment-corruption")

    # ------------------------------------------------------------------
    def _ship(
        self,
        report: DeploymentReport,
        messages: List[Message],
        source: int,
        destination: int,
        kind: MessageKind,
        data: np.ndarray,
    ) -> np.ndarray:
        """Frame ``data``, charge it, return what the receiver decodes,
        in ``data``'s dtype (a float32 model frame comes back float64).

        A frame that fails its CRC is lost: the receiver sees zeros.
        """
        frame = encode_frame(kind, data)
        report.frames_sent += 1
        report.bytes_on_wire += len(frame)
        messages.append(
            Message(source, destination, kind, payload_bytes=len(frame))
        )
        if self.corrupt_bits > 0.0 and self._rng.random() < self.corrupt_bits:
            # Flip one payload byte — the CRC will catch it.
            buf = bytearray(frame)
            idx = int(self._rng.integers(0, len(buf)))
            buf[idx] ^= 0xFF
            frame = bytes(buf)
        try:
            return decode_frame(frame).data.astype(data.dtype)
        except ProtocolError:
            report.frames_corrupted += 1
            return np.zeros(data.shape, dtype=data.dtype)

    # ------------------------------------------------------------------
    def train(self, train_x: np.ndarray, train_y: np.ndarray) -> DeploymentReport:
        """Execute the bottom-up training pass over the wire.

        The training is :meth:`EdgeHDFederation.train_node`, exactly as
        in :meth:`~EdgeHDFederation.fit_offline`; only the transport
        differs — what a node ships crosses the (lossy) network as
        serialized frames, and its parent trains on what it decoded.
        """
        federation = self.federation
        hierarchy = federation.hierarchy
        mat, y, groups = federation.training_inputs(train_x, train_y)
        report = DeploymentReport(
            simulation=SimulationResult(0, 0, 0, 0, 0, 0, 0)
        )
        messages: List[Message] = []

        # Per node, the (class model, batch hypervectors) its parent decoded.
        received: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for node_id in hierarchy.postorder():
            node = hierarchy.nodes[node_id]
            model, batches, accuracy = federation.train_node(
                node_id, mat, y, groups, federation.config.retrain_epochs,
                [received[c][0] for c in node.children],
                [received[c][1] for c in node.children],
            )
            report.node_train_accuracy[node_id] = accuracy
            if node.parent is not None:
                received[node_id] = (
                    self._ship(
                        report, messages, node_id, node.parent,
                        MessageKind.CLASS_MODEL, model,
                    ),
                    self._ship(
                        report, messages, node_id, node.parent,
                        MessageKind.BATCH_HYPERVECTORS, batches,
                    ),
                )
        report.simulation = self.simulator.simulate_upward_pass(messages)
        return report
