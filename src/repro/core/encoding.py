"""Feature-to-hypervector encoders.

Four encoders are provided:

* :class:`RBFEncoder` — the paper's main contribution (Sec. III-A): a
  random-Fourier-feature map ``h_i = cos(B_i . F + b_i)`` whose inner
  products approximate the RBF (Gaussian) kernel (Rahimi & Recht;
  Eq. 1-2 in the paper). Supports the *sparse* weight layout used by
  the FPGA design (Sec. V-A): each weight row keeps a contiguous run of
  ``(1 - s) * n`` non-zeros starting at a random index.
* :class:`CosSinEncoder` — the exact variant printed in the paper,
  ``h_i = cos(B_i . F + b) * sin(B_i . F)``.
* :class:`LinearEncoder` — the baseline random-projection encoder
  (the "linear encoding" HD baseline of [36] the paper compares
  against): ``H = sign(B . F)``.
* :class:`IDLevelEncoder` — classic ID-level record encoding
  (Kanerva-style): quantize each feature into levels, bind the level
  hypervector with a per-feature ID hypervector, and bundle.

All encoders share the :class:`Encoder` interface: ``encode`` maps an
``(n_samples, n_features)`` matrix to ``(n_samples, dimension)``
bipolar hypervectors, the ``sign()`` of the real map (Sec. III-A).
Encoders are deterministic given their seed, so every
node in a hierarchy can regenerate the same basis offline, exactly as
the paper assumes ("generated once offline", Sec. III-A).
"""

from __future__ import annotations

import abc

import numpy as np

import repro.obs as obs
from repro.core.hypervector import random_bipolar, sign_binarize
from repro.utils.rng import SeedLike, derive_rng
from repro.utils.validation import check_matrix, check_probability, check_vector

__all__ = [
    "Encoder",
    "RBFEncoder",
    "CosSinEncoder",
    "LinearEncoder",
    "IDLevelEncoder",
    "make_encoder",
]

#: Cells per block of the binarized RBF map's parity: bounds its
#: temporaries (two float64 arrays, two int32, one mask: 25 bytes a
#: cell) to 400 KiB, and keeps them in cache.
_SIGN_BLOCK_CELLS = 1 << 14
#: Cells per chunk of rows whose phases (1 MiB of float64) the binarized
#: RBF map holds at once: a served batch of 32 rows at D <= 4096 is one.
_PHASE_CHUNK_CELLS = 1 << 17
#: Half-width, in units of p/π, of the band around the zeros of cos
#: (p = (k + 1/2)π) inside which a cell's sign comes from ``np.cos``.
_ZERO_BAND = 1e-6
#: A batch with any |p| at or beyond this, or any non-finite p, takes
#: ``np.cos`` throughout.
_PARITY_LIMIT = float(1 << 20)
#: The sign of cos p by the parity of the integer nearest p/π.
_SIGN_OF_PARITY = np.array([1, -1], dtype=np.int8)


def _cos_signs(phase: np.ndarray, out: np.ndarray) -> None:
    """Write the sign of ``np.cos(phase)`` into ``out`` as int8 ±1, for
    a 2-D block of finite phases below ``_PARITY_LIMIT`` in magnitude.

    cos p > 0 exactly when the integer nearest p/π is even, so the sign
    is a parity and no cosine is evaluated. For |p| < 2^20 the computed
    p/π is within ~1e-10 of the true quotient, four orders of magnitude
    inside ``_ZERO_BAND``: a cell outside the band cannot round to the
    wrong integer, and there |cos p| >= sin(1e-6 π), far above any
    ``np.cos`` error, so both agree. Cells inside the band take
    ``np.cos``. No finite double is a zero of cos, so no cell is 0 and
    :func:`sign_binarize`'s tie-break never applies.
    """
    turns = phase * (1.0 / np.pi)
    nearest = np.rint(turns)
    turns -= nearest
    np.abs(turns, out=turns)
    near_zero = turns > 0.5 - _ZERO_BAND
    np.take(_SIGN_OF_PARITY, nearest.astype(np.int32) & 1, out=out, mode="clip")
    if np.count_nonzero(near_zero):
        rows, cols = np.nonzero(near_zero)
        out[rows, cols] = np.where(np.cos(phase[rows, cols]) > 0, 1, -1)


class Encoder(abc.ABC):
    """Common interface for feature-space -> hyperspace maps."""

    def __init__(self, n_features: int, dimension: int) -> None:
        if n_features <= 0:
            raise ValueError(f"n_features must be positive, got {n_features}")
        if dimension <= 0:
            raise ValueError(f"dimension must be positive, got {dimension}")
        self.n_features = int(n_features)
        self.dimension = int(dimension)

    @abc.abstractmethod
    def _transform(self, features: np.ndarray) -> np.ndarray:
        """Map ``(n_samples, n_features)`` to real ``(n_samples, D)``."""

    def _binarized(self, features: np.ndarray) -> np.ndarray:
        """``sign_binarize(self._transform(features))``; encoders with a
        cheaper exact route to the signs override it."""
        return sign_binarize(self._transform(features))

    def encode(self, features: np.ndarray) -> np.ndarray:
        """Encode a batch of feature vectors into hypervectors.

        Accepts a single vector or a matrix; always returns a 2-D array
        of shape ``(n_samples, dimension)`` whose elements are bipolar
        int8 in {-1, +1}: :meth:`_binarized` of the real map.
        """
        mat = check_matrix("features", features, cols=self.n_features)
        with obs.span("encode", encoder=type(self).__name__, n=mat.shape[0]):
            encoded = self._binarized(mat)
        obs.incr("core.encode.calls")
        obs.incr("core.encode.samples", mat.shape[0])
        return encoded

    def encode_one(self, features: np.ndarray) -> np.ndarray:
        """Encode a single feature vector; returns a 1-D hypervector."""
        vec = check_vector("features", features, length=self.n_features)
        return self.encode(vec.reshape(1, -1))[0]


class RBFEncoder(Encoder):
    """Random-Fourier-feature encoder approximating the RBF kernel.

    ``H_D(F) = sqrt(2/D) * cos(B . F + b)`` with ``B ~ N(0, 1/gamma^2)``
    rows and ``b ~ U(0, 2*pi)`` (Eq. 2). ``gamma`` is the kernel length
    scale (``w`` in the paper); larger gamma means a narrower kernel.

    With ``sparsity > 0`` each weight row zeroes all but a contiguous
    block of ``ceil((1-s)*n)`` entries starting at a random offset —
    the exact sparse-weight layout of the FPGA design (Sec. V-A), which
    stores each row as a dense run plus a ``log2(n)``-bit start index.
    """

    def __init__(
        self,
        n_features: int,
        dimension: int,
        gamma: float = 1.0,
        sparsity: float = 0.0,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(n_features, dimension)
        if gamma <= 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        check_probability("sparsity", sparsity)
        self.gamma = float(gamma)
        self.sparsity = float(sparsity)
        rng = derive_rng(seed, "rbf-encoder")
        self.weights = rng.standard_normal((dimension, n_features)) * gamma
        self.bias = rng.uniform(0.0, 2.0 * np.pi, size=dimension)
        if sparsity > 0.0:
            self.block_length = max(1, int(np.ceil((1.0 - sparsity) * n_features)))
            self.block_starts = rng.integers(0, n_features, size=dimension)
            mask = np.zeros((dimension, n_features), dtype=bool)
            cols = (
                self.block_starts[:, None] + np.arange(self.block_length)[None, :]
            ) % n_features
            rows = np.repeat(np.arange(dimension), self.block_length)
            mask[rows, cols.ravel()] = True
            self.weights *= mask
            # Rescale so the non-zero block keeps unit marginal variance.
            self.weights *= np.sqrt(n_features / self.block_length)
        else:
            self.block_length = n_features
            self.block_starts = np.zeros(dimension, dtype=np.int64)

    def _phase(self, features: np.ndarray) -> np.ndarray:
        """``B . F + b``: the argument of the cosine."""
        return features @ self.weights.T + self.bias

    def _transform(self, features: np.ndarray) -> np.ndarray:
        return np.sqrt(2.0 / self.dimension) * np.cos(self._phase(features))

    def _binarized(self, features: np.ndarray) -> np.ndarray:
        # Only the signs are kept, and √(2/D)·cos p has the sign of cos p,
        # a parity of p/π: see _cos_signs. A row's signs depend on that
        # row alone, so a training set is taken a chunk of rows at a time
        # and never holds its N x D phases; the parity runs over blocks
        # of rows so its temporaries stay small.
        chunk = max(1, _PHASE_CHUNK_CELLS // self.dimension)
        if features.shape[0] > chunk:
            return np.concatenate([
                self._binarized(features[first:first + chunk])
                for first in range(0, features.shape[0], chunk)
            ])
        phase = self._phase(features)
        if phase.size and not (
            np.maximum.reduce(np.abs(phase), axis=None) < _PARITY_LIMIT
        ):
            # huge or non-finite phases (a nan fails the test)
            return super()._binarized(features)
        out = np.empty(phase.shape, dtype=np.int8)
        step = max(1, _SIGN_BLOCK_CELLS // self.dimension)
        for start in range(0, phase.shape[0], step):
            block = slice(start, start + step)
            _cos_signs(phase[block], out[block])
        return out

    def kernel_approximation(self, a: np.ndarray, b: np.ndarray) -> float:
        """Approximate ``exp(-gamma^2 ||a-b||^2 / 2)`` via inner product.

        Reads the real map (:meth:`_transform`), not the bipolar
        encoding; used by tests to verify Eq. 1.
        """
        mat = check_matrix("pair", np.stack([np.asarray(a), np.asarray(b)]), cols=self.n_features)
        enc = self._transform(mat)
        return float(enc[0] @ enc[1])


class CosSinEncoder(Encoder):
    """The paper's printed encoding variant.

    ``h_i = cos(B_i . F + b) * sin(B_i . F)`` (Sec. III-A). Behaves like
    a phase-shifted random Fourier feature; kept as a faithful
    alternative to :class:`RBFEncoder` and exercised by the ablation
    bench.
    """

    def __init__(
        self,
        n_features: int,
        dimension: int,
        gamma: float = 1.0,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(n_features, dimension)
        if gamma <= 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        self.gamma = float(gamma)
        rng = derive_rng(seed, "cos-sin-encoder")
        self.weights = rng.standard_normal((dimension, n_features)) * gamma
        self.bias = rng.uniform(0.0, 2.0 * np.pi, size=dimension)

    def _transform(self, features: np.ndarray) -> np.ndarray:
        projection = features @ self.weights.T
        return np.cos(projection + self.bias) * np.sin(projection)


class LinearEncoder(Encoder):
    """Baseline linear random-projection encoder ([36] in the paper).

    ``H = sign(B . F)`` — a linear map followed by binarization. The
    paper reports EdgeHD's non-linear encoding beats this by ~4.7%
    accuracy on average (Fig. 7).
    """

    def __init__(
        self,
        n_features: int,
        dimension: int,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(n_features, dimension)
        rng = derive_rng(seed, "linear-encoder")
        self.weights = rng.standard_normal((dimension, n_features))

    def _transform(self, features: np.ndarray) -> np.ndarray:
        return features @ self.weights.T


class IDLevelEncoder(Encoder):
    """Classic ID-level (record) encoding.

    Each feature index gets a random bipolar *ID* hypervector; the
    feature's value is quantized into one of ``n_levels`` *level*
    hypervectors built by progressive bit-flipping so nearby levels
    stay similar. A sample is the bundle of ID (x) level bindings.
    Included for completeness as the second classical HD baseline.
    """

    def __init__(
        self,
        n_features: int,
        dimension: int,
        n_levels: int = 32,
        value_range: tuple[float, float] = (-3.0, 3.0),
        seed: SeedLike = None,
    ) -> None:
        super().__init__(n_features, dimension)
        if n_levels < 2:
            raise ValueError(f"n_levels must be >= 2, got {n_levels}")
        lo, hi = value_range
        if not lo < hi:
            raise ValueError(f"invalid value_range {value_range}")
        self.n_levels = int(n_levels)
        self.value_range = (float(lo), float(hi))
        rng = derive_rng(seed, "id-level-encoder")
        self.id_vectors = random_bipolar(dimension, n_features, rng, tag="ids")
        # Level hypervectors: start random, flip D/(2*(L-1)) positions per step
        # so level 0 and level L-1 are near-orthogonal.
        levels = np.empty((n_levels, dimension), dtype=np.int8)
        levels[0] = random_bipolar(dimension, seed=rng, tag="level0")
        flips_per_step = max(1, dimension // (2 * (n_levels - 1)))
        order = rng.permutation(dimension)
        for level in range(1, n_levels):
            levels[level] = levels[level - 1]
            start = (level - 1) * flips_per_step
            chosen = order[start % dimension : start % dimension + flips_per_step]
            levels[level, chosen] = -levels[level, chosen]
        self.level_vectors = levels

    def _quantize(self, features: np.ndarray) -> np.ndarray:
        lo, hi = self.value_range
        scaled = (np.clip(features, lo, hi) - lo) / (hi - lo)
        return np.minimum((scaled * self.n_levels).astype(np.int64), self.n_levels - 1)

    def _transform(self, features: np.ndarray) -> np.ndarray:
        levels = self._quantize(features)  # (n_samples, n_features)
        out = np.zeros((features.shape[0], self.dimension), dtype=np.int64)
        for j in range(self.n_features):
            out += self.id_vectors[j][None, :] * self.level_vectors[levels[:, j]]
        return out.astype(np.float64)


def make_encoder(
    kind: str,
    n_features: int,
    dimension: int,
    sparsity: float = 0.0,
    seed: SeedLike = None,
) -> Encoder:
    """Factory mapping config names to encoder instances.

    ``gamma`` is ``1/sqrt(n_features)``, which keeps the RBF kernel
    bandwidth comparable across datasets of different widths.
    """
    if n_features <= 0:
        raise ValueError(f"n_features must be positive, got {n_features}")
    gamma = 1.0 / np.sqrt(n_features)
    if kind == "rbf":
        return RBFEncoder(
            n_features, dimension, gamma=gamma, sparsity=sparsity, seed=seed,
        )
    if kind == "cos-sin":
        return CosSinEncoder(n_features, dimension, gamma=gamma, seed=seed)
    if kind == "linear":
        return LinearEncoder(n_features, dimension, seed=seed)
    if kind == "id-level":
        return IDLevelEncoder(n_features, dimension, seed=seed)
    raise ValueError(f"unknown encoder kind {kind!r}")
