"""Class-hypervector quantization for storage-constrained nodes.

The FPGA design (Sec. V) stores class and residual hypervectors in
on-chip BRAM with narrow fixed-point elements. This module provides
the symmetric linear quantizer that maps a trained float model into
``n_bits`` integers (and back), the BRAM saving, and the induced
similarity error — letting a deployment trade model memory for a
bounded accuracy cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.classifier import HDClassifier
from repro.utils.validation import check_matrix

__all__ = ["QuantizedModel", "quantize_model", "dequantize_model", "quantize_classifier"]


@dataclass(frozen=True)
class QuantizedModel:
    """A quantized class-hypervector stack."""

    codes: np.ndarray  # (n_classes, dimension) signed integers
    scales: np.ndarray  # (n_classes,) per-class dequantization scale
    n_bits: int

    @property
    def n_classes(self) -> int:
        return int(self.codes.shape[0])

    def storage_bits(self) -> int:
        """On-chip bits: codes + one float32 scale per class."""
        return self.codes.size * self.n_bits + 32 * self.n_classes

    def compression_ratio(self) -> float:
        """Bits saved vs float32 storage."""
        return (self.codes.size * 32) / max(1, self.storage_bits() - 32 * self.n_classes)


def quantize_model(model: np.ndarray, n_bits: int = 8) -> QuantizedModel:
    """Symmetric per-class linear quantization to ``n_bits`` integers."""
    if not 2 <= n_bits <= 16:
        raise ValueError(f"n_bits must be in [2, 16], got {n_bits}")
    mat = check_matrix("model", model)
    cap = 2 ** (n_bits - 1) - 1
    max_abs = np.abs(mat).max(axis=1)
    scales = np.where(max_abs > 0, max_abs / cap, 1.0)
    codes = np.clip(np.round(mat / scales[:, None]), -cap, cap).astype(np.int32)
    return QuantizedModel(codes=codes, scales=scales, n_bits=n_bits)


def dequantize_model(quantized: QuantizedModel) -> np.ndarray:
    """Reconstruct the float model (with quantization error)."""
    return quantized.codes.astype(np.float64) * quantized.scales[:, None]


def quantize_classifier(
    classifier: HDClassifier, n_bits: int = 8
) -> tuple[HDClassifier, QuantizedModel]:
    """Return a copy of ``classifier`` running on a quantized model.

    Cosine similarity is scale-invariant per class, so per-class
    symmetric quantization preserves the associative search up to
    rounding noise — at 8 bits the accuracy loss is typically
    unmeasurable while BRAM drops 4x (the FPGA design's operating
    point).
    """
    if classifier.class_hypervectors is None:
        raise RuntimeError("classifier is not fitted")
    quantized = quantize_model(classifier.class_hypervectors, n_bits=n_bits)
    clone = HDClassifier(
        classifier.n_classes, classifier.dimension,
        confidence_temperature=classifier.confidence_temperature,
        search=classifier.search,
    )
    clone.set_model(dequantize_model(quantized))
    return clone, quantized
