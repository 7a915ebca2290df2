"""Hypervector algebra: the primitive operations of HD computing.

Hypervectors are plain 1-D numpy arrays. Three families appear in the
paper:

* **bipolar** hypervectors with elements in {-1, +1} — encoded samples,
  queries, position hypervectors;
* **integer** hypervectors — class hypervectors and residual
  hypervectors produced by bundling (element-wise addition);
* **real** hypervectors — intermediate encoder outputs before the
  ``sign()`` binarization.

The operations implemented here mirror Section II/III of the paper:

* :func:`bind` — element-wise multiplication; associates two
  hypervectors. Self-inverse for bipolar vectors.
* :func:`bundle` — element-wise addition; aggregates information
  (the "memory" operation used to build class hypervectors).
* :func:`permute` — cyclic shift; encodes sequence positions.
* :func:`cosine` / :func:`similarity_matrix` — the similarity metric
  used by the associative search.
* :func:`random_bipolar` / :func:`random_gaussian` — i.i.d. random
  hypervectors, nearly orthogonal in high dimension (Kanerva).
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from repro.utils.rng import SeedLike, derive_rng

__all__ = [
    "random_bipolar",
    "random_gaussian",
    "bind",
    "bundle",
    "permute",
    "sign_binarize",
    "cosine",
    "cosine_many",
    "similarity_matrix",
    "hamming_similarity",
    "normalize_rows",
]


def random_bipolar(
    dimension: int, count: int | None = None, seed: SeedLike = None, tag: str = "bipolar"
) -> np.ndarray:
    """Draw random {-1, +1} hypervector(s).

    Returns shape ``(dimension,)`` when ``count`` is None, else
    ``(count, dimension)``.
    """
    if dimension <= 0:
        raise ValueError(f"dimension must be positive, got {dimension}")
    rng = derive_rng(seed, tag)
    shape = (dimension,) if count is None else (count, dimension)
    return rng.choice(np.array([-1, 1], dtype=np.int8), size=shape).astype(np.int8)


def random_gaussian(
    dimension: int, count: int | None = None, seed: SeedLike = None, tag: str = "gauss"
) -> np.ndarray:
    """Draw random standard-normal hypervector(s)."""
    if dimension <= 0:
        raise ValueError(f"dimension must be positive, got {dimension}")
    rng = derive_rng(seed, tag)
    shape = (dimension,) if count is None else (count, dimension)
    return rng.standard_normal(shape)


def bind(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise multiplication (association / XOR analogue)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(
            f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}"
        )
    return a * b


def bundle(vectors: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Element-wise sum (aggregation / memory operation).

    Accepts a sequence of 1-D hypervectors or a 2-D stack; returns the
    integer/real superposition. Bundling preserves similarity to each
    component: ``cosine(bundle(H), H_i) > 0`` in expectation.
    """
    arr = np.asarray(vectors)
    if arr.ndim == 1:
        return arr.copy()
    if arr.ndim != 2:
        raise ValueError(f"expected 1-D or 2-D input, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError("cannot bundle an empty set of hypervectors")
    # Promote small integer dtypes so sums do not overflow.
    if np.issubdtype(arr.dtype, np.integer):
        return arr.sum(axis=0, dtype=np.int64)
    return arr.sum(axis=0)


def permute(a: np.ndarray, shift: int = 1) -> np.ndarray:
    """Cyclic shift along the last axis (position encoding)."""
    # Shape- and dtype-agnostic by contract: np.roll works elementwise
    # on any array, so coercion *is* the whole interface.
    return np.roll(np.asarray(a), shift, axis=-1)  # repro-lint: disable=REPRO108


def sign_binarize(a: np.ndarray) -> np.ndarray:
    """Map to {-1, +1} by sign; zeros and NaNs break ties.

    Ties alternate +1, -1 by position along the last axis (not the flat
    index), so a row binarizes alike in any batch: any row subset
    binarizes bit-identically to the full batch, which the served and
    offline walks rely on. All +1 would correlate hypervectors.
    """
    # Elementwise on any shape by contract; no structure to validate.
    a = np.asarray(a)  # repro-lint: disable=REPRO108
    # Not np.sign: casting its NaN to int8 is implementation-defined.
    out = (a > 0).view(np.int8) - (a < 0).view(np.int8)
    if a.ndim and np.count_nonzero(out) < out.size:  # a tie to break
        np.copyto(out, _alternating(a.shape[-1]), where=out == 0)
    return out


@functools.lru_cache(maxsize=16)
def _alternating(width: int) -> np.ndarray:
    """``+1, -1, +1, ...`` as int8, ``width`` long: the tie-break row."""
    row = (1 - 2 * (np.arange(width) & 1)).astype(np.int8)
    row.flags.writeable = False
    return row


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity between two hypervectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b / (na * nb))


def cosine_many(queries: np.ndarray, references: np.ndarray) -> np.ndarray:
    """Cosine similarities between rows of ``queries`` and ``references``.

    Returns shape ``(n_queries, n_references)``. Zero-norm rows yield 0.
    """
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    r = np.atleast_2d(np.asarray(references, dtype=np.float64))
    if q.shape[1] != r.shape[1]:
        raise ValueError(
            f"dimension mismatch: {q.shape[1]} vs {r.shape[1]}"
        )
    qn = np.linalg.norm(q, axis=1, keepdims=True)
    rn = np.linalg.norm(r, axis=1, keepdims=True)
    qn[qn == 0] = 1.0
    rn[rn == 0] = 1.0
    return (q / qn) @ (r / rn).T


def similarity_matrix(vectors: np.ndarray) -> np.ndarray:
    """Pairwise cosine-similarity matrix of a 2-D stack of hypervectors."""
    return cosine_many(vectors, vectors)


def hamming_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Fraction of matching elements between two bipolar hypervectors."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ValueError("empty hypervectors")
    return float(np.mean(a == b))


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """L2-normalize each row; zero rows are left as zeros.

    This is the FPGA pre-normalization trick (Sec. V-B): normalizing the
    class hypervectors once after training turns cosine similarity into
    a plain dot product at query time.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected 2-D input, got shape {m.shape}")
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms
