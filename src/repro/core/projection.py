"""Ternary random projection for holographic hierarchical encoding.

Section IV-A: a gateway concatenates the hypervectors received from its
children and multiplies the concatenation by a random matrix with
elements drawn from {-1, 0, +1}. The node keeps the real projection
for its own classifier; the copy it forwards is binarized with
``sign()`` by :class:`~repro.hierarchy.federation.LazyEncodings`. The
projection mixes every input dimension into every output dimension, so
the result is *holographic* — losing any subset of output dimensions
degrades all features uniformly instead of wiping out one child's
information (the robustness experiment of Fig. 12 hinges on this).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import weakref
from types import ModuleType
from typing import Optional

import numpy as np

from repro.utils.rng import SeedLike, derive_rng
from repro.utils.validation import check_matrix, check_probability

__all__ = ["TernaryProjection", "concatenate_hypervectors"]


def _load_sparsetools() -> ModuleType:
    """scipy's compiled CSR kernels, loaded from their file. Importing
    ``scipy.sparse`` for them would clone numpy's namespace (its
    ``array_api_compat`` imports ``numpy.f2py``, ``numpy.testing``,
    ``numpy.ma``, ...): 14 MiB resident and 0.2 s that no projection
    uses. Neither ``scipy`` nor ``scipy.sparse`` is imported here; a
    process that already imported them shares their module."""
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError("scipy is not installed", name=name)
    directory = os.path.join(scipy.submodule_search_locations[0], "sparse")
    spec = importlib.machinery.PathFinder.find_spec(name, [directory])
    if spec is None or spec.loader is None:
        raise ImportError(f"no {name} extension in {directory}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_sparsetools = _load_sparsetools()

#: Cells drawn per block of rows: bounds the construction's scratch (a
#: float64 uniform, three masks, the non-zeros' positions, rows, columns
#: and signs) to at most 40 bytes a cell, 1.25 MiB while an input row
#: fits in a block (one row a block past that).
_DRAW_BLOCK_CELLS = 1 << 15

#: Bytes a float product's block of rows holds on average: its matrix
#: data as float64 and its rows of the product. Converting a whole int16
#: matrix takes 8 bytes a non-zero: 2 MB at a root of 4,096 dimensions
#: (64 non-zeros a row), even for one row's product.
_UPCAST_BLOCK_BYTES = 1 << 20

#: The CSR-times-dense kernel, ``csr_matvecs``, costs about the same
#: for 4 to 8 int16 columns (4000 x 4000 root matrix: 0.6 ms) and runs
#: fastest past that when their number is a multiple of this SIMD width
#: (7 columns 1.19 ms, 8 0.61 ms), so int16 operands of more than
#: ``_MATVEC_COLUMNS`` columns are padded with zero columns to one.
#: float64 keeps its width (2 rows: 0.61 ms, padded to 8: 1.43 ms).
PAD_WIDTH = 8

#: Up to this many int16 columns, one ``csr_matvec`` a column (root
#: matrix: 0.17 ms) beats one ``csr_matvecs`` call.
_MATVEC_COLUMNS = 3


def _draw_ternary_csr(
    rng: np.random.Generator,
    out_dimension: int,
    in_dimension: int,
    zero_fraction: float,
) -> _TernaryCSR:
    """``rng.choice([-1, 0, 1], size=(out, in), p=...)``, drawn as CSR.

    ``Generator.choice`` with ``p`` draws one uniform ``u`` per cell, in
    C order, and picks index ``cdf.searchsorted(u, side="right")`` of
    the normalised CDF: the number of CDF entries ``<= u``. With three
    entries, the last exactly 1.0, that is ``(u >= cdf[0]) + (u >=
    cdf[1])``, so index 0 (-1) is ``u < cdf[0]`` and index 2 (+1) is
    ``u >= cdf[1]``. Applying that map to consecutive blocks of rows of
    the same stream yields the identical matrix without ever holding a
    full-size temporary, and only the non-zeros are kept: int32 columns
    and one bool sign each, returned as int16 ±1. ``indptr`` is
    int32 like the columns: the kernels convert every index array to
    the widest index type given, on every call.
    """
    nonzero = (1.0 - zero_fraction) / 2.0
    cdf = np.array([nonzero, zero_fraction, nonzero], dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    block_rows = max(1, _DRAW_BLOCK_CELLS // in_dimension)
    counts: list[np.ndarray] = [np.zeros(1, dtype=np.int64)]
    indices: list[np.ndarray] = []
    signs: list[np.ndarray] = []
    for start in range(0, out_dimension, block_rows):
        rows = min(block_rows, out_dimension - start)
        uniform = rng.random((rows, in_dimension))
        positive = uniform >= cdf[1]
        flat = np.flatnonzero((uniform < cdf[0]) | positive)
        counts.append(np.bincount(flat // in_dimension, minlength=rows))
        indices.append((flat % in_dimension).astype(np.int32))
        signs.append(positive.ravel()[flat])
    columns = np.concatenate(indices)
    del indices
    return _TernaryCSR(
        np.where(np.concatenate(signs), np.int16(1), np.int16(-1)), columns,
        np.cumsum(np.concatenate(counts), dtype=np.int32),
        (out_dimension, in_dimension),
    )


class _TernaryCSR:
    """The drawn matrix in CSR form, ``out x in``: ±1 ``data``, int32
    column ``indices`` and row pointers ``indptr``. ``@`` runs
    sparsetools' ``csr_matvec`` for one column (and for each of up to
    ``_MATVEC_COLUMNS`` int16 columns) and ``csr_matvecs`` for more,
    which sum each output row over that row's own non-zeros in index
    order. An operand of the data's dtype is multiplied in one
    call. A float64 operand meets int16 data one block of rows at a
    time, on the block's ``indptr``/``indices`` slices and its data as
    float64, so no float64 copy of the whole data forms and the product
    is bit-equal to a float64 matrix's."""

    def __init__(
        self, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
        shape: tuple[int, int],
    ) -> None:
        self.data, self.indices, self.indptr, self.shape = data, indices, indptr, shape

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    #: The number of stored values, as scipy counts a sparse matrix's.
    size = nnz

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __matmul__(self, operand: np.ndarray) -> np.ndarray:
        rows, cols = self.shape
        if operand.shape[0] != cols:  # the kernels index it unchecked
            raise ValueError(f"operand has {operand.shape[0]} rows, not {cols}")
        width = operand.shape[1] if operand.ndim == 2 else 1
        kernel, vectors = (
            (_sparsetools.csr_matvec, ()) if width == 1
            else (_sparsetools.csr_matvecs, (width,))
        )
        product = np.zeros((rows, *operand.shape[1:]), dtype=operand.dtype)
        if 1 < width <= _MATVEC_COLUMNS and operand.dtype == self.data.dtype:
            for k in range(width):
                product[:, k] = self @ operand[:, k]
            return product
        flat = np.ascontiguousarray(operand).ravel()
        if operand.dtype == self.data.dtype:
            kernel(rows, cols, *vectors, self.indptr, self.indices, self.data,
                   flat, product.ravel())
            return product
        step = max(
            1, _UPCAST_BLOCK_BYTES * rows // (8 * (self.nnz + rows * width))
        )
        for lo in range(0, rows, step):
            hi = min(lo + step, rows)
            start, end = self.indptr[lo], self.indptr[hi]
            kernel(
                hi - lo, cols, *vectors,
                self.indptr[lo:hi + 1] - start, self.indices[start:end],
                self.data[start:end].astype(np.float64), flat,
                product[lo:hi].ravel(),
            )
        return product


class _Draw:
    """The matrix a (seed, out, in, zero fraction) key draws. Projections
    with the same key share one while it is alive, so its arrays are
    frozen."""

    def __init__(
        self, seed: SeedLike, out_dimension: int, in_dimension: int,
        zero_fraction: float,
    ) -> None:
        self.matrix = _draw_ternary_csr(
            derive_rng(seed, "ternary-projection"),
            out_dimension, in_dimension, zero_fraction,
        )
        for array in (self.matrix.data, self.matrix.indices, self.matrix.indptr):
            array.flags.writeable = False
        counts = np.diff(self.matrix.indptr)
        #: ``256 +`` each row's sum (:meth:`TernaryProjection.project`),
        #: or None when a row has more than 127 positive or 127 negative
        #: coefficients. A row of at most 254 non-zeros sums in int16.
        self.lane_offset: Optional[np.ndarray] = None
        if counts.max() <= 254:
            sums = self.matrix @ np.ones(in_dimension, dtype=np.int16)
            if (counts + np.abs(sums)).max() <= 254:
                self.lane_offset = 256 + sums
                self.lane_offset.flags.writeable = False


#: The live draws by (int seed, out, in, zero fraction), held weakly:
#: once no projection holds a draw, the next build draws it again.
_LIVE_DRAWS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def concatenate_hypervectors(parts: list[np.ndarray]) -> np.ndarray:
    """Concatenate per-child hypervectors along the last axis.

    Accepts a list of 1-D hypervectors (one query) or of 2-D stacks with
    equal row counts (a batch per child). This is the *non-holographic*
    aggregation used as the ablation baseline in Fig. 12.
    """
    if not parts:
        raise ValueError("need at least one hypervector to concatenate")
    arrays = [np.asarray(p) for p in parts]
    ndims = {a.ndim for a in arrays}
    if ndims == {1}:
        return np.concatenate(arrays)
    if ndims == {2}:
        rows = {a.shape[0] for a in arrays}
        if len(rows) != 1:
            raise ValueError(f"children sent unequal batch sizes: {sorted(rows)}")
        return np.concatenate(arrays, axis=1)
    raise ValueError("all parts must be 1-D, or all 2-D with equal rows")


class TernaryProjection:
    """Variance-preserving random {-1, 0, +1} projection.

    Parameters
    ----------
    in_dimension, out_dimension:
        Input (concatenated) and output dimensionalities. In the paper
        the projection is square (output keeps ``d_1 + d_2``), but a
        rectangular projection is allowed so parents can re-target any
        dimensionality.
    zero_fraction:
        Probability of a zero entry; the remaining mass splits evenly
        between -1 and +1. Sparse projections are cheaper on the FPGA.
    seed:
        Deterministic basis seed — all replicas of a gateway regenerate
        the same matrix offline. Within a process, an integer seed's
        matrix is drawn once: a projection built while one with the same
        seed, dimensions and zero fraction is alive shares its frozen
        (read-only) CSR arrays instead of redrawing them. Once no
        projection holds a draw, the next build draws again.
    """

    def __init__(
        self,
        in_dimension: int,
        out_dimension: int,
        zero_fraction: float = 1.0 / 3.0,
        seed: SeedLike = None,
    ) -> None:
        if in_dimension <= 0 or out_dimension <= 0:
            raise ValueError(
                f"dimensions must be positive, got {in_dimension}, {out_dimension}"
            )
        check_probability("zero_fraction", zero_fraction)
        if zero_fraction >= 1.0:
            raise ValueError("zero_fraction must be < 1 (matrix would be all-zero)")
        self.in_dimension = int(in_dimension)
        self.out_dimension = int(out_dimension)
        self.zero_fraction = float(zero_fraction)
        shape = (self.out_dimension, self.in_dimension, self.zero_fraction)
        # Only an integer seed names a matrix; a Generator draws anew.
        key = (int(seed), *shape) if isinstance(seed, (int, np.integer)) else None
        # Holding the draw is what keeps it in the memo.
        self._draw = _LIVE_DRAWS.get(key) or _Draw(seed, *shape)
        if key is not None:
            _LIVE_DRAWS[key] = self._draw
        #: The {-1, 0, +1} matrix as CSR, ``out x in``: only the
        #: non-zeros are stored (what ships to the FPGA) and multiplied,
        #: as int16. Read-only: other projections may hold the same
        #: arrays.
        self.matrix = self._draw.matrix
        # Variance-preserving scale: each output element sums
        # ~in_dim * (1 - zero_fraction) random +/-1 contributions, so
        # dividing by sqrt of that keeps the element variance of the
        # input. Without it, projected values drown any un-projected
        # sibling hypervector they are later concatenated with.
        self._scale = 1.0 / np.sqrt(in_dimension * (1.0 - zero_fraction))

    def project(self, hypervectors: np.ndarray) -> np.ndarray:
        """Project (a batch of) concatenated hypervectors.

        Returns the variance-preserving real projection, float64; 1-D
        input yields 1-D output. Integer-valued input (every bipolar
        hypervector) sums exactly in any order, so its projection is
        bit-equal to a dense product; real-valued input may differ from
        one in the last bit.

        Bipolar int8 rows travel two to an int16 word, one byte each
        holding ``x > 0``; the kernel returns ``z_2k + 256 z_2k+1``, ``z``
        a row's coefficients summed over its set bits, and ``y = 2z -
        row sum`` is exact while ``_Draw.lane_offset`` is set. Unpaired
        rows (an odd one out, or a batch of 7 or 8, where pairing saves
        no kernel time) ride a word each as their int8 values. Other
        int8 batches, real input and matrices past the lane bound
        multiply in float64 (:class:`_TernaryCSR`); integer sums are
        exact on both paths, so they give the same bytes. Each output
        row is summed on its own, so neither its batch nor the
        :data:`PAD_WIDTH` padding can change it.
        """
        arr = np.asarray(hypervectors)
        single = arr.ndim == 1
        # M @ X^T streams each output row's non-zeros once over a
        # C-ordered (in, batch) operand; the result goes back to the
        # C-ordered (batch, out) layout the dense product had.
        mat = check_matrix("hypervectors", arr, cols=self.in_dimension, dtype=None)
        offset = self._draw.lane_offset
        n = mat.shape[0]
        pairs = n // 2 if n > PAD_WIDTH or n - n // 2 <= _MATVEC_COLUMNS else 0
        if offset is not None and mat.dtype == np.int8 and (
            not pairs or not np.count_nonzero(np.abs(mat[:2 * pairs]) != 1)
        ):
            words = n - pairs
            width = words if words <= _MATVEC_COLUMNS else -(-words // PAD_WIDTH) * PAD_WIDTH
            operand = np.zeros((self.in_dimension, width), dtype=np.int16)
            if pairs:
                bits = np.greater(mat[:2 * pairs], 0).view(np.uint8)
                packed = np.multiply(bits[1::2], 256, dtype=np.int16)
                packed += bits[0::2]
                operand[:, :pairs] = packed.T
                del bits, packed
            operand[:, pairs:words] = mat[2 * pairs:].T
            product = self.matrix @ operand
            del operand
            projected = np.empty((n, self.out_dimension))
            np.multiply(  # the unpaired rows, before the words are biased
                product[:, pairs:words].T, self._scale, out=projected[2 * pairs:]
            )
            if pairs:
                lanes = product.view(np.uint16)
                lanes += 0x8080
                # low byte first, whatever the host's order
                biased = lanes.astype("<u2", copy=False).view(np.uint8)
                exact = np.left_shift(  # 2(z + 128) - (256 + row sum)
                    biased[:, :2 * pairs].T, 1, dtype=np.int16, order="C"
                )
                del product, lanes, biased
                exact -= offset
                projected[:2 * pairs] = exact
                projected[:2 * pairs] *= self._scale
        else:
            operand = np.array(mat.T, dtype=np.float64, order="C")
            product = self.matrix @ operand
            del operand
            projected = np.multiply(product.T, self._scale, order="C")
        return projected[0] if single else projected

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TernaryProjection({self.in_dimension}->{self.out_dimension}, "
            f"zero_fraction={self.zero_fraction:.2f})"
        )
