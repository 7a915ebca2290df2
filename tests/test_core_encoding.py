"""Unit tests for the feature-to-hypervector encoders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoding import (
    _PARITY_LIMIT,
    _PHASE_CHUNK_CELLS,
    _SIGN_BLOCK_CELLS,
    CosSinEncoder,
    Encoder,
    IDLevelEncoder,
    LinearEncoder,
    RBFEncoder,
    make_encoder,
)
from repro.core.hypervector import sign_binarize


@pytest.fixture(scope="module")
def features(rng=np.random.default_rng(0)):
    return rng.standard_normal((40, 12))


class TestRBFEncoder:
    def test_output_shape_and_values(self, features):
        enc = RBFEncoder(12, 400, seed=1)
        out = enc.encode(features)
        assert out.shape == (40, 400)
        assert set(np.unique(out)) <= {-1, 1}

    def test_single_vector(self, features):
        enc = RBFEncoder(12, 128, seed=1)
        one = enc.encode_one(features[0])
        assert one.shape == (128,)
        assert np.array_equal(one, enc.encode(features[:1])[0])

    def test_deterministic(self, features):
        a = RBFEncoder(12, 256, seed=9).encode(features)
        b = RBFEncoder(12, 256, seed=9).encode(features)
        assert np.array_equal(a, b)

    def test_kernel_approximation(self):
        """Eq. 1: inner products approximate the Gaussian kernel."""
        gamma = 0.5
        enc = RBFEncoder(6, 20_000, gamma=gamma, seed=2)
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = rng.standard_normal(6)
            b = rng.standard_normal(6)
            expected = np.exp(-(gamma**2) * np.sum((a - b) ** 2) / 2.0)
            approx = enc.kernel_approximation(a, b)
            assert approx == pytest.approx(expected, abs=0.05)

    def test_similar_inputs_similar_encodings(self):
        enc = RBFEncoder(8, 4000, gamma=0.3, seed=4)
        base = np.ones(8)
        near = base + 0.01
        far = base + 10.0
        e_base = enc.encode_one(base).astype(float)
        e_near = enc.encode_one(near).astype(float)
        e_far = enc.encode_one(far).astype(float)
        sim_near = e_base @ e_near / 4000
        sim_far = e_base @ e_far / 4000
        assert sim_near > sim_far
        assert sim_near > 0.9

    def test_sparsity_zeroes_weights(self):
        enc = RBFEncoder(100, 300, sparsity=0.8, seed=5)
        nonzero_per_row = np.count_nonzero(enc.weights, axis=1)
        assert np.all(nonzero_per_row <= enc.block_length)
        assert enc.block_length == 20

    def test_sparsity_block_contiguous_mod_n(self):
        enc = RBFEncoder(10, 50, sparsity=0.5, seed=6)
        for row, start in zip(enc.weights, enc.block_starts):
            expect = set((start + np.arange(enc.block_length)) % 10)
            actual = set(np.flatnonzero(row))
            assert actual <= expect

    def test_sparse_encoder_still_learns_similarity(self):
        enc = RBFEncoder(16, 4000, gamma=0.3, sparsity=0.8, seed=8)
        base = np.zeros(16)
        e0 = enc.encode_one(base).astype(float)
        e1 = enc.encode_one(base + 0.01).astype(float)
        assert e0 @ e1 / 4000 > 0.9

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            RBFEncoder(4, 16, gamma=0.0)

    def test_invalid_sparsity(self):
        with pytest.raises(ValueError):
            RBFEncoder(4, 16, sparsity=1.5)

    def test_wrong_feature_count(self, features):
        enc = RBFEncoder(12, 64, seed=1)
        with pytest.raises(ValueError):
            enc.encode(features[:, :5])


def _assert_cosine_signs(enc, x):
    """Binarized ``encode`` is the reference map's signs, bit for bit."""
    with np.errstate(invalid="ignore"):
        expected = sign_binarize(enc._transform(x))
        got = enc.encode(x)
    assert got.dtype == expected.dtype == np.int8
    assert np.array_equal(got, expected)


def _phase_encoder(phases):
    """An encoder whose zero feature row has exactly ``phases``: with
    unit weights and a zero input, ``B . F + b`` is the bias itself."""
    enc = RBFEncoder(1, len(phases), seed=0)
    enc.weights = np.ones((len(phases), 1))
    enc.bias = np.asarray(phases, dtype=np.float64)
    x = np.zeros((2, 1))
    assert np.array_equal(enc._phase(x)[0], enc.bias, equal_nan=True)
    return enc, x


class TestBinarizedRBFExact:
    """``encode`` takes the cosine's sign from the parity of p/π; every
    cell must come out as ``sign_binarize`` of the cosine would have it."""

    @settings(deadline=None, max_examples=60)
    @given(
        rows=st.integers(min_value=1, max_value=40),
        n_features=st.integers(min_value=1, max_value=20),
        dimension=st.integers(min_value=1, max_value=300),
        gamma=st.floats(min_value=1e-3, max_value=1e3),
        sparsity=st.sampled_from([0.0, 0.5, 0.9]),
        scale=st.sampled_from([1e-6, 1.0, 30.0, 1e4, 1e7]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_matches_cosine_signs(
        self, rows, n_features, dimension, gamma, sparsity, scale, seed
    ):
        enc = RBFEncoder(
            n_features, dimension, gamma=gamma, sparsity=sparsity, seed=seed
        )
        x = np.random.default_rng(seed).standard_normal((rows, n_features))
        _assert_cosine_signs(enc, x * scale)

    @pytest.mark.parametrize(
        "rows, dimension",
        [(150, 1000), (3, _SIGN_BLOCK_CELLS + 3), (0, 100)],
        ids=["many-blocks", "row-longer-than-a-block", "empty-batch"],
    )
    def test_batch_sizes(self, rows, dimension):
        enc = RBFEncoder(8, dimension, gamma=0.4, seed=3)
        x = np.random.default_rng(4).standard_normal((rows, 8)) * 5.0
        _assert_cosine_signs(enc, x)

    def test_phases_a_few_ulps_from_the_zeros_of_cos(self):
        ks = np.concatenate([
            np.arange(-40, 40), [1000, -12345, 2**17 + 1, -(2**18) + 3, 333000],
        ])
        zeros = (ks + 0.5) * np.pi
        phases = [zeros]
        for direction in (np.inf, -np.inf):
            step = zeros
            for _ in range(4):
                step = np.nextafter(step, direction)
                phases.append(step)
        # just either side of the guard band, in units of p/π
        for offset in (0.5 - 1e-6, 0.5 - 0.9e-6, 0.5 - 1.1e-6):
            phases += [(ks + offset) * np.pi, (ks + 1 - offset) * np.pi]
        phases = np.concatenate(phases)
        assert np.abs(phases).max() < _PARITY_LIMIT  # the parity path
        _assert_cosine_signs(*_phase_encoder(phases))

    def test_large_phases_take_the_cosine(self):
        limit = 2.0 ** 20
        phases = np.array([
            limit, -limit, np.nextafter(limit, 0), np.nextafter(-limit, 0),
            limit + 0.3, 1e9 + 0.25, -7.5e12, 1e17, 1e300, -1e308,
        ])
        _assert_cosine_signs(*_phase_encoder(np.repeat(phases, 3)))

    def test_non_finite_phases_break_ties_by_position(self):
        # nan, cos(±inf) = nan, is neither > 0 nor < 0, so it takes
        # sign_binarize's positional tie-break: +1 at even columns, -1
        # at odd ones.
        phases = np.array([np.nan, np.nan, np.inf, np.inf, -np.inf, -np.inf,
                           0.0, np.pi])
        enc, x = _phase_encoder(phases)
        _assert_cosine_signs(enc, x)
        with np.errstate(invalid="ignore"):
            assert np.array_equal(
                enc.encode(x)[0], [1, -1, 1, -1, 1, -1, 1, -1]
            )

    def test_non_finite_features(self):
        enc = RBFEncoder(6, 50, sparsity=0.5, seed=5)
        x = np.random.default_rng(6).standard_normal((4, 6))
        x[0, 0], x[1, 3], x[2, 5] = np.nan, np.inf, -np.inf
        _assert_cosine_signs(enc, x)

    @pytest.mark.parametrize("odd_row", [None, "nan", "huge"])
    def test_chunks_equal_row_by_row(self, monkeypatch, odd_row):
        """A training set spans several chunks of phases. Every row gets
        the signs it gets alone, also when a nan or huge phase sends
        its chunk, and only that chunk, to ``np.cos``."""
        dimension = 1200
        chunk = _PHASE_CHUNK_CELLS // dimension
        enc = RBFEncoder(12, dimension, gamma=0.4, seed=7)
        x = np.random.default_rng(8).standard_normal((3 * chunk + 5, 12))
        if odd_row == "nan":
            x[chunk + 3, 4] = np.nan
        elif odd_row == "huge":
            x[chunk + 3] *= 1e7
        fallbacks = []
        cosine = Encoder._binarized

        def spy(self, rows):
            fallbacks.append(len(rows))
            return cosine(self, rows)

        with np.errstate(invalid="ignore"):
            alone = np.concatenate([enc.encode(row[None, :]) for row in x])
            monkeypatch.setattr(Encoder, "_binarized", spy)
            got = enc.encode(x)
        assert np.array_equal(got, alone)
        assert fallbacks == ([] if odd_row is None else [chunk])
        _assert_cosine_signs(enc, x)

    def test_encode_memory_is_bounded_by_one_float_array(self, traced_peak):
        """A training set's encode holds one chunk of phases and its int8
        signs per chunk, then joined: less than one float64 array of the
        output's shape. The
        whole set's phases, twice, took it past two."""
        enc = RBFEncoder(60, 1200, seed=9)
        x = np.random.default_rng(10).standard_normal((1250, 60))
        out, peak = traced_peak(lambda: enc.encode(x))
        assert peak <= 8 * out.size


class TestCosSinEncoder:
    def test_shape_and_binarize(self, features):
        enc = CosSinEncoder(12, 200, seed=10)
        out = enc.encode(features)
        assert out.shape == (40, 200)
        assert set(np.unique(out)) <= {-1, 1}

    def test_non_binarized_range(self, features):
        enc = CosSinEncoder(12, 200, seed=10)
        out = enc._transform(features)
        # cos(a+b) * sin(a) is bounded by 1 in magnitude.
        assert np.all(np.abs(out) <= 1.0 + 1e-12)

    def test_deterministic(self, features):
        a = CosSinEncoder(12, 100, seed=11).encode(features)
        b = CosSinEncoder(12, 100, seed=11).encode(features)
        assert np.array_equal(a, b)


class TestLinearEncoder:
    def test_shape(self, features):
        enc = LinearEncoder(12, 300, seed=12)
        assert enc.encode(features).shape == (40, 300)

    def test_is_linear_before_binarization(self, features):
        enc = LinearEncoder(12, 64, seed=13)
        a = enc._transform(features[:1])
        b = enc._transform(2.0 * features[:1])
        assert np.allclose(b, 2.0 * a)

    def test_sign_invariance_to_scaling(self, features):
        """A linear encoder cannot distinguish x from 2x after sign()."""
        enc = LinearEncoder(12, 256, seed=14)
        assert np.array_equal(
            enc.encode(features[:1]), enc.encode(3.0 * features[:1])
        )


class TestIDLevelEncoder:
    def test_shape_and_values(self, features):
        enc = IDLevelEncoder(12, 500, seed=15)
        out = enc.encode(features)
        assert out.shape == (40, 500)
        assert set(np.unique(out)) <= {-1, 1}

    def test_nearby_levels_similar(self):
        enc = IDLevelEncoder(1, 4000, n_levels=16, value_range=(0.0, 1.0), seed=16)
        lv = enc.level_vectors.astype(float)
        sim_adjacent = lv[0] @ lv[1] / 4000
        sim_far = lv[0] @ lv[15] / 4000
        assert sim_adjacent > sim_far

    def test_quantization_clips(self):
        enc = IDLevelEncoder(2, 64, value_range=(-1.0, 1.0), seed=17)
        levels = enc._quantize(np.array([[-100.0, 100.0]]))
        assert levels[0, 0] == 0
        assert levels[0, 1] == enc.n_levels - 1

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            IDLevelEncoder(4, 16, n_levels=1)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            IDLevelEncoder(4, 16, value_range=(1.0, 1.0))


class TestFactory:
    @pytest.mark.parametrize(
        "kind,cls",
        [
            ("rbf", RBFEncoder),
            ("cos-sin", CosSinEncoder),
            ("linear", LinearEncoder),
            ("id-level", IDLevelEncoder),
        ],
    )
    def test_kinds(self, kind, cls):
        enc = make_encoder(kind, 10, 64, seed=1)
        assert isinstance(enc, cls)
        assert enc.n_features == 10
        assert enc.dimension == 64

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_encoder("fourier", 10, 64)

    def test_default_gamma_scales_with_features(self):
        wide = make_encoder("rbf", 400, 64, seed=1)
        narrow = make_encoder("rbf", 4, 64, seed=1)
        assert isinstance(wide, RBFEncoder) and isinstance(narrow, RBFEncoder)
        assert wide.gamma < narrow.gamma

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            make_encoder("rbf", 0, 64)
        with pytest.raises(ValueError):
            make_encoder("rbf", 10, 0)
