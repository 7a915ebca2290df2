"""Lightweight argument-validation helpers used across the library."""

from __future__ import annotations

from typing import Any

import numpy as np


def check_positive(name: str, value: float, allow_zero: bool = False) -> float:
    """Validate that ``value`` is a positive (or non-negative) number."""
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if allow_zero:
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    elif value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value


def check_probability(name: str, value: float) -> float:
    """Validate that ``value`` lies in [0, 1]."""
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return float(value)


def check_vector(name: str, value: Any, length: int | None = None) -> np.ndarray:
    """Coerce ``value`` to a 1-D float array, optionally of fixed length."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if length is not None and arr.shape[0] != length:
        raise ValueError(
            f"{name} must have length {length}, got {arr.shape[0]}"
        )
    return arr


def check_matrix(
    name: str, value: Any, cols: int | None = None,
    dtype: type | None = np.float64,
) -> np.ndarray:
    """Coerce ``value`` to a 2-D array, optionally with fixed columns.

    float64 by default; ``dtype=None`` keeps the array's own dtype.
    """
    arr = np.asarray(value, dtype=dtype)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if cols is not None and arr.shape[1] != cols:
        raise ValueError(
            f"{name} must have {cols} columns, got {arr.shape[1]}"
        )
    return arr


def check_fitted(obj: Any, attr: str) -> None:
    """Raise if ``obj`` has not been fitted (``attr`` is missing/None)."""
    if getattr(obj, attr, None) is None:
        raise RuntimeError(
            f"{type(obj).__name__} is not fitted; call fit() first"
        )


def check_labels(name: str, labels: Any, n_classes: int | None = None) -> np.ndarray:
    """Coerce labels to a 1-D int array of non-negative class indices."""
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        if not np.all(arr == np.floor(arr)):
            raise ValueError(f"{name} must contain integer class indices")
    arr = arr.astype(np.int64)
    if arr.size and arr.min() < 0:
        raise ValueError(f"{name} must be non-negative class indices")
    if n_classes is not None and arr.size and arr.max() >= n_classes:
        raise ValueError(
            f"{name} contains label {arr.max()} >= n_classes={n_classes}"
        )
    return arr
