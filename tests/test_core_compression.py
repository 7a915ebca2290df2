"""Unit tests for position-hypervector compression (Eq. 3-4)."""

import numpy as np
import pytest

from repro.core.compression import (
    CompressedBatch,
    PositionCodebook,
    compressed_bundle_bytes,
)
from repro.core.hypervector import (
    hamming_similarity,
    random_bipolar,
    sign_binarize,
)


@pytest.fixture(scope="module")
def queries():
    return random_bipolar(4000, count=25, seed=1).astype(np.float64)


class TestCompressDecompress:
    def test_roundtrip_beats_chance(self, queries):
        """Per-element fidelity at m=10 is ~PHI(1/3) ~ 0.63 (Eq. 4).

        Decoding is noisy by design; what matters is that every decoded
        element is biased toward the original (well above the 0.5 of an
        unrelated hypervector).
        """
        book = PositionCodebook(4000, 25, seed=2)
        batch = book.compress(queries[:10])
        decoded = book.decompress(batch)
        assert decoded.shape == (10, 4000)
        for original, recovered in zip(queries[:10], decoded):
            assert hamming_similarity(original, recovered) > 0.58

    def test_decoded_query_classifies_like_original(self, queries):
        """The associative search is robust to decode interference:
        a decoded query lands on the same class as the original."""
        from repro.core.classifier import HDClassifier

        dim = 4000
        model = random_bipolar(dim, count=3, seed=20).astype(float)
        clf = HDClassifier(3, dim).set_model(model)
        # Queries correlated with their class hypervector.
        rng = np.random.default_rng(21)
        originals = np.where(
            rng.random((9, dim)) < 0.85, model[np.arange(9) % 3], -model[np.arange(9) % 3]
        )
        book = PositionCodebook(dim, 9, seed=22)
        decoded = book.decompress(book.compress(originals), binarize=False)
        before = clf.predict(originals).labels
        after = clf.predict(decoded).labels
        assert np.mean(before == after) >= 8 / 9

    def test_more_vectors_more_noise(self, queries):
        """Eq. 4: interference grows with the number of compressed HVs."""
        book = PositionCodebook(4000, 25, seed=3)
        few = book.decompress(book.compress(queries[:3]))
        many = book.decompress(book.compress(queries[:25]))
        fidelity_few = np.mean(
            [hamming_similarity(q, d) for q, d in zip(queries[:3], few)]
        )
        fidelity_many = np.mean(
            [hamming_similarity(q, d) for q, d in zip(queries[:25], many)]
        )
        assert fidelity_few > fidelity_many

    def test_single_vector_exact(self):
        book = PositionCodebook(256, 4, seed=4)
        hv = random_bipolar(256, seed=5).astype(float)
        batch = book.compress(hv.reshape(1, -1))
        decoded = book.decompress(batch)
        assert np.array_equal(decoded[0], hv.astype(np.int8))

    def test_non_binarized_decode_signal_noise(self):
        """Signal term has unit magnitude; noise std ~ sqrt(m-1)."""
        dim, m = 20_000, 10
        book = PositionCodebook(dim, m, seed=8)
        vectors = random_bipolar(dim, count=m, seed=9).astype(float)
        batch = book.compress(vectors)
        decoded = book.decompress(batch, binarize=False)
        noise = decoded - vectors
        assert abs(noise.std() - book.expected_noise_std(m)) < 0.3


class TestWireAccounting:
    def test_compressed_batch_elements(self, queries):
        book = PositionCodebook(4000, 25, seed=10)
        batch = book.compress(queries)
        # One bundle of D integers regardless of m.
        assert batch.bundle.shape == (4000,)
        assert batch.count == 25
        assert batch.dimension == 4000


class TestValidation:
    def test_capacity_exceeded(self, queries):
        book = PositionCodebook(4000, 5, seed=12)
        with pytest.raises(ValueError):
            book.compress(queries[:6])

    def test_empty_batch(self):
        book = PositionCodebook(64, 4, seed=13)
        with pytest.raises(ValueError):
            book.compress(np.empty((0, 64)))

    def test_dimension_mismatch_on_decode(self):
        book = PositionCodebook(64, 4, seed=14)
        batch = CompressedBatch(bundle=np.zeros(32), count=2)
        with pytest.raises(ValueError):
            book.decompress(batch)

    def test_bad_count_on_decode(self):
        book = PositionCodebook(64, 4, seed=15)
        batch = CompressedBatch(bundle=np.zeros(64), count=9)
        with pytest.raises(ValueError):
            book.decompress(batch)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            PositionCodebook(0, 4)
        with pytest.raises(ValueError):
            PositionCodebook(64, 0)

    def test_expected_noise_invalid_count(self):
        book = PositionCodebook(64, 4, seed=16)
        with pytest.raises(ValueError):
            book.expected_noise_std(0)

    def test_sender_receiver_same_seed_interoperate(self, queries):
        sender = PositionCodebook(4000, 25, seed=77)
        receiver = PositionCodebook(4000, 25, seed=77)
        batch = sender.compress(queries[:8])
        decoded = receiver.decompress(batch)
        fidelity = np.mean(
            [hamming_similarity(q, d) for q, d in zip(queries[:8], decoded)]
        )
        # m=8: expected per-element fidelity PHI(1/sqrt(7)) ~ 0.65.
        assert fidelity > 0.6


class TestByteAccounting:
    """Wire-size arithmetic of compressed bundles (Eq. 3 accounting)."""

    def test_bundle_bytes_formula(self):
        # m = 25: elements lie in [-25, 25], 51 symbols -> 6 bits each.
        assert compressed_bundle_bytes(4000, 25) == (4000 * 6 + 7) // 8
        # m = 1: 3 symbols -> 2 bits each.
        assert compressed_bundle_bytes(4000, 1) == (4000 * 2 + 7) // 8
        # Rounding up to whole bytes.
        assert compressed_bundle_bytes(3, 1) == 1

    def test_saving_vs_uncompressed_queries(self):
        """One m=25 bundle beats shipping 25 bit-packed queries ~4x
        (and naive 32-bit elements by ~5x per element)."""
        from repro.core.model import hypervector_bytes

        dimension, m = 4000, 25
        bundle = compressed_bundle_bytes(dimension, m)
        uncompressed = m * hypervector_bytes(dimension, bipolar=True)
        assert uncompressed / bundle > 4.0
        naive_int32 = dimension * 4
        assert naive_int32 / bundle > 5.0

    def test_bundle_bytes_grows_with_count(self):
        sizes = [compressed_bundle_bytes(4000, m) for m in (1, 3, 25, 100)]
        assert sizes == sorted(sizes)
        assert sizes[0] < sizes[-1]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            compressed_bundle_bytes(0, 25)
        with pytest.raises(ValueError):
            compressed_bundle_bytes(4000, 0)

    def test_partial_count_roundtrip(self, queries):
        """A bundle filled below capacity decodes its actual count and
        is cheaper on the wire than a full one."""
        book = PositionCodebook(4000, 25, seed=12)
        partial = book.compress(queries[:7])
        assert partial.count == 7
        decoded = book.decompress(partial)
        assert decoded.shape == (7, 4000)
        # Row i is the bundle unbound by position i, for every i < count.
        for index in range(partial.count):
            np.testing.assert_array_equal(
                decoded[index],
                sign_binarize(partial.bundle * book.positions[index]),
            )
        fidelity = np.mean(
            [
                hamming_similarity(q, d)
                for q, d in zip(queries[:7], decoded)
            ]
        )
        assert fidelity > 0.6
        # Fewer vectors -> fewer symbols per element -> fewer bytes.
        assert compressed_bundle_bytes(4000, 7) < compressed_bundle_bytes(
            4000, 25
        )

    def test_bundle_element_range_supports_packing(self, queries):
        """Every bundle element fits the advertised symbol alphabet."""
        book = PositionCodebook(4000, 25, seed=13)
        batch = book.compress(queries)
        assert np.abs(batch.bundle).max() <= batch.count
        assert np.array_equal(batch.bundle, np.round(batch.bundle))
