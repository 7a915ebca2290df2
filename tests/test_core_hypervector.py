"""Unit tests for the hypervector algebra primitives."""

import warnings

import numpy as np
import pytest

from repro.core.hypervector import (
    bind,
    bundle,
    cosine,
    cosine_many,
    hamming_similarity,
    normalize_rows,
    permute,
    random_bipolar,
    random_gaussian,
    sign_binarize,
    similarity_matrix,
)


class TestRandomHypervectors:
    def test_bipolar_values(self):
        hv = random_bipolar(1000, seed=1)
        assert hv.shape == (1000,)
        assert set(np.unique(hv)) <= {-1, 1}

    def test_bipolar_stack_shape(self):
        stack = random_bipolar(500, count=7, seed=1)
        assert stack.shape == (7, 500)

    def test_bipolar_deterministic(self):
        a = random_bipolar(256, seed=42)
        b = random_bipolar(256, seed=42)
        assert np.array_equal(a, b)

    def test_bipolar_different_seeds_differ(self):
        a = random_bipolar(256, seed=1)
        b = random_bipolar(256, seed=2)
        assert not np.array_equal(a, b)

    def test_bipolar_near_orthogonal(self):
        stack = random_bipolar(10_000, count=5, seed=3)
        sims = similarity_matrix(stack)
        off_diag = sims[~np.eye(5, dtype=bool)]
        assert np.all(np.abs(off_diag) < 0.05)

    def test_gaussian_moments(self):
        hv = random_gaussian(50_000, seed=4)
        assert abs(hv.mean()) < 0.02
        assert abs(hv.std() - 1.0) < 0.02

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            random_bipolar(0)
        with pytest.raises(ValueError):
            random_gaussian(-5)


class TestBind:
    def test_self_inverse(self):
        a = random_bipolar(512, seed=5)
        b = random_bipolar(512, seed=6)
        assert np.array_equal(bind(bind(a, b), b), a)

    def test_commutative(self):
        a = random_bipolar(512, seed=7)
        b = random_bipolar(512, seed=8)
        assert np.array_equal(bind(a, b), bind(b, a))

    def test_bound_is_dissimilar_to_inputs(self):
        a = random_bipolar(10_000, seed=9)
        b = random_bipolar(10_000, seed=10)
        bound = bind(a, b)
        assert abs(cosine(bound, a)) < 0.05
        assert abs(cosine(bound, b)) < 0.05

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bind(random_bipolar(10, seed=1), random_bipolar(11, seed=1))


class TestBundle:
    def test_bundle_preserves_similarity(self):
        stack = random_bipolar(10_000, count=9, seed=11)
        total = bundle(stack)
        for row in stack:
            assert cosine(total, row) > 0.2

    def test_bundle_single_vector(self):
        hv = random_bipolar(64, seed=12)
        assert np.array_equal(bundle(hv), hv)

    def test_bundle_is_elementwise_sum(self):
        stack = np.array([[1, -1, 1], [1, 1, -1], [-1, 1, 1]], dtype=np.int8)
        assert np.array_equal(bundle(stack), np.array([1, 1, 1]))

    def test_bundle_promotes_integer_dtype(self):
        stack = np.ones((300, 4), dtype=np.int8)
        result = bundle(stack)
        assert result.dtype == np.int64
        assert np.all(result == 300)

    def test_bundle_empty_raises(self):
        with pytest.raises(ValueError):
            bundle(np.empty((0, 16)))

    def test_bundle_3d_raises(self):
        with pytest.raises(ValueError):
            bundle(np.zeros((2, 2, 2)))


class TestPermute:
    def test_roundtrip(self):
        hv = random_bipolar(128, seed=13)
        assert np.array_equal(permute(permute(hv, 5), -5), hv)

    def test_permuted_is_dissimilar(self):
        hv = random_bipolar(10_000, seed=14)
        assert abs(cosine(permute(hv, 1), hv)) < 0.05

    def test_zero_shift_identity(self):
        hv = random_bipolar(64, seed=15)
        assert np.array_equal(permute(hv, 0), hv)


class TestSignBinarize:
    def test_output_bipolar(self):
        out = sign_binarize(np.array([0.5, -2.0, 3.1, -0.1]))
        assert np.array_equal(out, np.array([1, -1, 1, -1]))

    def test_zero_handling_deterministic(self):
        out = sign_binarize(np.zeros(10))
        assert set(np.unique(out)) <= {-1, 1}

    def test_matrix_input(self):
        out = sign_binarize(np.array([[1.0, -1.0], [-0.5, 2.0]]))
        assert out.shape == (2, 2)
        assert out.dtype == np.int8

    def test_nan_is_a_tie_without_a_cast_warning(self):
        # NaN is neither > 0 nor < 0: it takes the tie-break (+1 at even
        # columns, -1 at odd ones), and no invalid cast is attempted.
        a = np.array([[np.nan, np.nan, 2.0, np.nan],
                      [-1.0, np.nan, -0.0, -np.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sign_binarize(a)
        assert out.dtype == np.int8
        assert np.array_equal(out, [[1, -1, 1, -1], [-1, -1, 1, -1]])

    def test_nonzero_values_keep_their_sign(self, rng):
        a = rng.standard_normal((7, 33)).astype(np.float32)
        a[a > 1.5] = np.inf
        assert np.array_equal(sign_binarize(a), np.sign(a).astype(np.int8))
        ints = rng.integers(1, 5, size=40) * rng.choice([-1, 1], size=40)
        assert np.array_equal(sign_binarize(ints), np.sign(ints))


class TestCosine:
    def test_identical(self):
        hv = random_bipolar(512, seed=16)
        assert cosine(hv, hv) == pytest.approx(1.0)

    def test_opposite(self):
        hv = random_bipolar(512, seed=17)
        assert cosine(hv, -hv) == pytest.approx(-1.0)

    def test_zero_vector(self):
        assert cosine(np.zeros(16), np.ones(16)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cosine(np.ones(4), np.ones(5))

    def test_cosine_many_matches_scalar(self):
        q = random_gaussian(64, count=3, seed=18)
        r = random_gaussian(64, count=4, seed=19)
        sims = cosine_many(q, r)
        assert sims.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                assert sims[i, j] == pytest.approx(cosine(q[i], r[j]))

    def test_cosine_many_zero_rows(self):
        q = np.zeros((2, 8))
        r = np.ones((1, 8))
        assert np.all(cosine_many(q, r) == 0.0)

    def test_similarity_matrix_symmetric(self):
        stack = random_gaussian(128, count=6, seed=20)
        sims = similarity_matrix(stack)
        assert np.allclose(sims, sims.T)
        assert np.allclose(np.diag(sims), 1.0)


class TestHamming:
    def test_identical(self):
        hv = random_bipolar(256, seed=21)
        assert hamming_similarity(hv, hv) == 1.0

    def test_opposite(self):
        hv = random_bipolar(256, seed=22)
        assert hamming_similarity(hv, -hv) == 0.0

    def test_random_pair_half(self):
        a = random_bipolar(20_000, seed=23)
        b = random_bipolar(20_000, seed=24)
        assert abs(hamming_similarity(a, b) - 0.5) < 0.02

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            hamming_similarity(np.array([]), np.array([]))


class TestNormalizeRows:
    def test_unit_norms(self):
        m = random_gaussian(32, count=5, seed=25)
        normalized = normalize_rows(m)
        assert np.allclose(np.linalg.norm(normalized, axis=1), 1.0)

    def test_zero_row_unchanged(self):
        m = np.vstack([np.zeros(8), np.ones(8)])
        normalized = normalize_rows(m)
        assert np.all(normalized[0] == 0.0)

    def test_1d_raises(self):
        with pytest.raises(ValueError):
            normalize_rows(np.ones(8))
