"""Global EdgeHD configuration defaults.

Section VI-A of the paper fixes the parameters used throughout the
evaluation unless otherwise noted:

* hypervector dimensionality ``D = 4000``
* retraining batch size ``B = 75`` (batch hypervectors, Sec. IV-B)
* inference compression count ``m = 25`` (position-HV binding, Sec. IV-C)
* confidence threshold ``0.75`` (escalation decision, Sec. IV-C)
* encoder weight sparsity ``80%`` (Sec. V-A / VI-B)
* 20 retraining epochs (Sec. III-B)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

from repro.utils.validation import check_positive, check_probability


@dataclass(frozen=True)
class EdgeHDConfig:
    """Bundle of the tunable EdgeHD parameters with paper defaults."""

    dimension: int = 4000
    batch_size: int = 75
    compression_count: int = 25
    confidence_threshold: float = 0.75
    sparsity: float = 0.8
    retrain_epochs: int = 20
    retrain_learning_rate: float = 1.0
    encoder: str = "rbf"  # "rbf" | "cos-sin" | "linear" | "id-level"
    #: non-zeros per row of the hierarchical ternary projection (sparse
    #: JL regime): each output dimension mixes this many input
    #: dimensions. Keeps gateway compute linear in D instead of D^2.
    projection_nonzeros: int = 64
    seed: Optional[int] = 0x5EED

    def __post_init__(self) -> None:
        check_positive("dimension", self.dimension)
        check_positive("batch_size", self.batch_size)
        check_positive("compression_count", self.compression_count)
        check_probability("confidence_threshold", self.confidence_threshold)
        check_probability("sparsity", self.sparsity)
        check_positive("retrain_epochs", self.retrain_epochs, allow_zero=True)
        check_positive("retrain_learning_rate", self.retrain_learning_rate)
        check_positive("projection_nonzeros", self.projection_nonzeros)
        if self.encoder not in {"rbf", "cos-sin", "linear", "id-level"}:
            raise ValueError(f"unknown encoder {self.encoder!r}")

    def with_overrides(self, **kwargs: Any) -> "EdgeHDConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


DEFAULT_CONFIG = EdgeHDConfig()
