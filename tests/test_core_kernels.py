"""Unit + property tests for the bit-packed popcount kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.kernels as kernels
from repro.core.hypervector import random_bipolar
from repro.core.kernels import (
    PackedBits,
    pack_bits,
    packed_dot,
    packed_hamming,
    packed_similarities,
    popcount_u64,
    unpack_bits,
    words_per_row,
)


class TestWordsPerRow:
    @pytest.mark.parametrize(
        "dim,expected",
        [(1, 1), (63, 1), (64, 1), (65, 2), (128, 2), (10000, 157)],
    )
    def test_values(self, dim, expected):
        assert words_per_row(dim) == expected

    @pytest.mark.parametrize("dim", [0, -1])
    def test_invalid(self, dim):
        with pytest.raises(ValueError):
            words_per_row(dim)


class TestPackUnpack:
    @pytest.mark.parametrize("dim", [1, 7, 8, 63, 64, 65, 100, 1000])
    def test_roundtrip_2d(self, dim):
        batch = random_bipolar(dim, count=5, seed=dim)
        packed = pack_bits(batch)
        assert packed.n_rows == 5
        assert packed.n_words == words_per_row(dim)
        assert np.array_equal(unpack_bits(packed), batch)

    def test_roundtrip_1d(self):
        hv = random_bipolar(130, seed=3)
        packed = pack_bits(hv)
        assert packed.n_rows == 1
        assert np.array_equal(unpack_bits(packed)[0], hv)

    def test_sign_convention_zero_is_minus_one(self):
        packed = pack_bits(np.array([[1.0, 0.0, -1.0, 2.5]]))
        assert np.array_equal(unpack_bits(packed)[0], [1, -1, -1, 1])

    def test_pad_bits_are_zero(self):
        # dim=1 with the single bit set: the other 63 bits must be 0.
        packed = pack_bits(np.array([[1.0]]))
        assert popcount_u64(packed.words).sum() == 1

    def test_3d_rejected(self):
        with pytest.raises(ValueError):
            pack_bits(np.ones((2, 3, 4)))

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            pack_bits(np.empty((2, 0)))

    def test_nbytes_64x_smaller_than_float64(self):
        batch = random_bipolar(4096, count=8, seed=9).astype(np.float64)
        assert pack_bits(batch).nbytes() * 64 == batch.nbytes


class TestPackedBitsValidation:
    def test_wrong_ndim(self):
        with pytest.raises(ValueError):
            PackedBits(words=np.zeros(4, dtype=np.uint64), dimension=64)

    def test_wrong_dtype(self):
        with pytest.raises(ValueError):
            PackedBits(words=np.zeros((1, 1), dtype=np.int64), dimension=64)

    def test_wrong_word_count(self):
        with pytest.raises(ValueError):
            PackedBits(words=np.zeros((1, 2), dtype=np.uint64), dimension=64)


class TestPopcount:
    def test_known_values(self):
        words = np.array([0, 1, 3, 2**64 - 1], dtype=np.uint64)
        assert popcount_u64(words).tolist() == [0, 1, 2, 64]

    def test_matches_python_bin(self):
        rng = np.random.default_rng(4)
        words = rng.integers(0, 2**64, size=(3, 5), dtype=np.uint64)
        expected = np.vectorize(lambda w: bin(int(w)).count("1"))(words)
        assert np.array_equal(popcount_u64(words), expected)

    def test_lut_fallback_matches(self, monkeypatch):
        rng = np.random.default_rng(5)
        words = rng.integers(0, 2**64, size=(2, 7), dtype=np.uint64)
        fast = popcount_u64(words)
        monkeypatch.setattr(kernels, "_HAS_BITWISE_COUNT", False)
        assert np.array_equal(popcount_u64(words), fast)


def _brute_hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.array([[int(np.sum(x != y)) for y in b] for x in a])


class TestPackedKernels:
    @pytest.mark.parametrize("dim", [5, 64, 65, 200])
    @pytest.mark.parametrize("nq,nr", [(3, 7), (7, 3)])  # both loop branches
    def test_hamming_matches_brute_force(self, dim, nq, nr):
        queries = random_bipolar(dim, count=nq, seed=dim + nq)
        refs = random_bipolar(dim, count=nr, seed=dim + nr + 100)
        ham = packed_hamming(pack_bits(queries), pack_bits(refs))
        assert ham.shape == (nq, nr)
        assert np.array_equal(ham, _brute_hamming(queries, refs))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            packed_hamming(
                pack_bits(np.ones((1, 64))), pack_bits(np.ones((1, 65)))
            )

    def test_dot_matches_dense_exactly(self):
        queries = random_bipolar(333, count=6, seed=1).astype(np.int64)
        refs = random_bipolar(333, count=4, seed=2).astype(np.int64)
        dots = packed_dot(pack_bits(queries), pack_bits(refs))
        assert np.array_equal(dots, queries @ refs.T)

    def test_similarities_equal_cosine(self):
        # For bipolar rows every norm is sqrt(D), so dot/D == cosine.
        queries = random_bipolar(512, count=6, seed=3).astype(np.float64)
        refs = random_bipolar(512, count=4, seed=4).astype(np.float64)
        sims = packed_similarities(pack_bits(queries), pack_bits(refs))
        qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
        rn = refs / np.linalg.norm(refs, axis=1, keepdims=True)
        assert np.allclose(sims, qn @ rn.T, atol=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(
        dim=st.integers(min_value=1, max_value=150),
        nq=st.integers(min_value=1, max_value=5),
        nr=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_dot_property(self, dim, nq, nr, seed):
        queries = random_bipolar(dim, count=nq, seed=seed).astype(np.int64)
        refs = random_bipolar(dim, count=nr, seed=seed + 1).astype(np.int64)
        dots = packed_dot(pack_bits(queries), pack_bits(refs))
        assert np.array_equal(dots, queries @ refs.T)
        # dot = D - 2*hamming, so D - dot is always even.
        assert ((dim - dots) % 2 == 0).all()

    def test_padding_never_leaks(self):
        # All-(-1) rows at an off-word dimension: hamming must be 0,
        # not pick up pad-bit mismatches.
        a = pack_bits(-np.ones((2, 65)))
        assert np.array_equal(packed_hamming(a, a), np.zeros((2, 2)))
