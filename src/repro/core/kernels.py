"""Bit-packed popcount inference kernel (SHEARer-style, paper Sec. V).

Associative search over bipolar hypervectors reduces to bit
operations: with queries and class hypervectors in {-1, +1}, the dot
product is ``D - 2 * hamming_distance``, and the hamming distance of
two bit-packed vectors is ``popcount(a XOR b)``. Packing 64 elements
per ``uint64`` word shrinks the working set 64x versus float64 and
replaces the multiply-accumulate with XOR + popcount — the same
transformation SHEARer (Khaleghi et al.) and XL-HD exploit on FPGAs
and in-memory accelerators, realized here with NumPy word operations.

The sign convention is fixed once for the whole kernel: an element is
packed as bit ``1`` iff it is ``> 0`` (zeros become ``-1`` bits), so
packing is deterministic for arbitrary real input and exactly
invertible for bipolar input.

Rows are padded with zero bits up to a whole number of words. Padding
bits XOR to zero between any two packed rows, so they never contribute
mismatches and no masking is needed in the hot loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "WORD_BITS",
    "PackedBits",
    "attach_packed",
    "pack_bits",
    "pack_bits_into",
    "packed_nbytes",
    "unpack_bits",
    "popcount_u64",
    "packed_hamming",
    "packed_dot",
    "packed_similarities",
    "words_per_row",
]

#: Elements packed per machine word.
WORD_BITS = 64

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")
#: Per-byte popcount table, the fallback for NumPy < 2.0.
_POPCOUNT8 = np.array(
    [bin(i).count("1") for i in range(256)], dtype=np.uint8
)


def words_per_row(dimension: int) -> int:
    """uint64 words needed for one ``dimension``-element row."""
    if dimension <= 0:
        raise ValueError(f"dimension must be positive, got {dimension}")
    return (dimension + WORD_BITS - 1) // WORD_BITS


@dataclass(frozen=True)
class PackedBits:
    """A batch of hypervectors packed one bit per element.

    ``words`` has shape ``(n_rows, words_per_row(dimension))`` and
    dtype ``uint64``; trailing pad bits are zero.
    """

    words: np.ndarray
    dimension: int

    def __post_init__(self) -> None:
        if self.words.ndim != 2 or self.words.dtype != np.uint64:
            raise ValueError(
                f"words must be a 2-D uint64 array, got "
                f"{self.words.dtype} with shape {self.words.shape}"
            )
        if self.words.shape[1] != words_per_row(self.dimension):
            raise ValueError(
                f"expected {words_per_row(self.dimension)} words per row "
                f"for dimension {self.dimension}, got {self.words.shape[1]}"
            )

    @property
    def n_rows(self) -> int:
        return self.words.shape[0]

    @property
    def n_words(self) -> int:
        return self.words.shape[1]

    def nbytes(self) -> int:
        return self.words.nbytes


def pack_bits(matrix: np.ndarray) -> PackedBits:
    """Pack rows of ``matrix`` into uint64 bitplanes (bit = element > 0).

    Accepts a 1-D hypervector or a 2-D ``(n_rows, dimension)`` batch of
    any numeric dtype; bipolar input round-trips exactly through
    :func:`unpack_bits`.
    """
    arr = np.asarray(matrix)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"expected a 1-D or 2-D array, got shape {arr.shape}")
    if arr.shape[1] == 0:
        raise ValueError("cannot pack zero-dimensional hypervectors")
    dimension = arr.shape[1]
    bits = (arr > 0).astype(np.uint8)
    packed = np.packbits(bits, axis=1)
    pad = (-packed.shape[1]) % (WORD_BITS // 8)
    if pad:
        packed = np.pad(packed, ((0, 0), (0, pad)))
    words = np.ascontiguousarray(packed).view(np.uint64)
    return PackedBits(words=words, dimension=dimension)


def packed_nbytes(n_rows: int, dimension: int) -> int:
    """Bytes of the uint64 word matrix for ``n_rows`` packed rows.

    The size contract shared by :func:`pack_bits_into` and
    :func:`attach_packed`: callers placing packed models into shared
    memory reserve exactly this many bytes per model.
    """
    if n_rows < 0:
        raise ValueError(f"n_rows must be >= 0, got {n_rows}")
    return n_rows * words_per_row(dimension) * (WORD_BITS // 8)


def pack_bits_into(matrix: np.ndarray, out_words: np.ndarray) -> PackedBits:
    """Pack ``matrix`` writing the words into a caller-owned buffer.

    ``out_words`` must be a contiguous ``(n_rows, words_per_row)``
    uint64 array — typically a view over a ``multiprocessing.
    shared_memory`` block — so publishing a packed model into shared
    memory needs no intermediate copy beyond the pack itself. Returns a
    :class:`PackedBits` whose ``words`` *is* ``out_words``.
    """
    packed = pack_bits(matrix)
    if out_words.shape != packed.words.shape or out_words.dtype != np.uint64:
        raise ValueError(
            f"out_words must be uint64 with shape {packed.words.shape}, "
            f"got {out_words.dtype} with shape {out_words.shape}"
        )
    out_words[:] = packed.words
    return PackedBits(words=out_words, dimension=packed.dimension)


def attach_packed(
    buffer, n_rows: int, dimension: int, offset: int = 0
) -> PackedBits:
    """Zero-copy :class:`PackedBits` view over an existing buffer.

    ``buffer`` is any object exposing the buffer protocol — in the
    serving cluster, the ``buf`` of an attached ``multiprocessing.
    shared_memory`` block. The returned words array is a *view*: no
    bytes are copied, and mutating the underlying buffer is visible to
    every attached process (the cluster therefore marks its views
    read-only). ``offset`` is in bytes from the start of the buffer.
    """
    if offset < 0:
        raise ValueError(f"offset must be >= 0, got {offset}")
    n_words = words_per_row(dimension)
    words = np.frombuffer(
        buffer, dtype=np.uint64, count=n_rows * n_words, offset=offset
    ).reshape(n_rows, n_words)
    return PackedBits(words=words, dimension=dimension)


def unpack_bits(packed: PackedBits) -> np.ndarray:
    """Inverse of :func:`pack_bits`: a ``(n_rows, dimension)`` ±1 int8 batch."""
    as_bytes = packed.words.view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1)[:, : packed.dimension]
    return np.where(bits == 1, 1, -1).astype(np.int8)


def popcount_u64(words: np.ndarray) -> np.ndarray:
    """Per-word population count of a uint64 array (any shape)."""
    # Any-shape uint64 coercion is the documented contract.
    words = np.asarray(words, dtype=np.uint64)  # repro-lint: disable=REPRO108
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words)
    as_bytes = words.reshape(-1).view(np.uint8)
    counts = _POPCOUNT8[as_bytes].reshape(*words.shape, 8)
    return counts.sum(axis=-1, dtype=np.uint64)


def packed_hamming(queries: PackedBits, references: PackedBits) -> np.ndarray:
    """Pairwise bit-mismatch counts, shape ``(n_queries, n_references)``.

    Iterates over whichever side has fewer rows (in inference that is
    the class matrix), keeping the temporary XOR buffer at one
    ``(n_rows, n_words)`` block instead of a cubic broadcast.
    """
    if queries.dimension != references.dimension:
        raise ValueError(
            f"dimension mismatch: {queries.dimension} vs {references.dimension}"
        )
    out = np.empty((queries.n_rows, references.n_rows), dtype=np.int64)
    if queries.n_rows <= references.n_rows:
        for i in range(queries.n_rows):
            mism = popcount_u64(references.words ^ queries.words[i])
            out[i, :] = mism.sum(axis=1, dtype=np.int64)
    else:
        for j in range(references.n_rows):
            mism = popcount_u64(queries.words ^ references.words[j])
            out[:, j] = mism.sum(axis=1, dtype=np.int64)
    return out


def packed_dot(queries: PackedBits, references: PackedBits) -> np.ndarray:
    """Pairwise bipolar dot products: ``D - 2 * hamming``; int64 matrix."""
    return queries.dimension - 2 * packed_hamming(queries, references)


def packed_similarities(
    queries: PackedBits, references: PackedBits
) -> np.ndarray:
    """Pairwise similarity ``dot / D`` as float64.

    For bipolar rows every norm is ``sqrt(D)``, so ``dot / D`` *is* the
    cosine similarity — the packed path computes the same quantity as
    the dense cosine kernel, exactly (integer arithmetic, one final
    division).
    """
    return packed_dot(queries, references) / float(queries.dimension)
