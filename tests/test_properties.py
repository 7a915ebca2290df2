"""Property-based tests (hypothesis) on core HD invariants.

These check the mathematical contracts the system's correctness rests
on, across randomly generated shapes and values rather than fixed
examples: bind algebra, bundle similarity, projection geometry,
compression decode bias, dimension allocation, and batch grouping.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.classifier import softmax_confidence
from repro.core.compression import PositionCodebook
from repro.core.hypervector import (
    bind,
    bundle,
    cosine,
    permute,
    random_bipolar,
    sign_binarize,
)
from repro.core.projection import TernaryProjection, concatenate_hypervectors
from repro.hierarchy.federation import batch_groups
from repro.hierarchy.topology import build_deep_tree, build_star, build_tree
from repro.network.failure import drop_dimensions
from repro.utils.rng import spawn_seeds

dims = st.integers(min_value=16, max_value=512)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


@st.composite
def bipolar_pair(draw):
    dim = draw(dims)
    s1, s2 = draw(seeds), draw(seeds)
    return (
        random_bipolar(dim, seed=s1, tag="a").astype(float),
        random_bipolar(dim, seed=s2, tag="b").astype(float),
    )


class TestBindProperties:
    @given(bipolar_pair())
    @settings(max_examples=30, deadline=None)
    def test_bind_self_inverse(self, pair):
        a, b = pair
        assert np.array_equal(bind(bind(a, b), b), a)

    @given(bipolar_pair())
    @settings(max_examples=30, deadline=None)
    def test_bind_preserves_bipolarity(self, pair):
        a, b = pair
        assert set(np.unique(bind(a, b))) <= {-1.0, 1.0}

    @given(bipolar_pair(), seeds)
    @settings(max_examples=20, deadline=None)
    def test_bind_distributes_over_bundle(self, pair, seed):
        a, b = pair
        c = random_bipolar(len(a), seed=seed, tag="c").astype(float)
        left = bind(c, a + b)
        right = bind(c, a) + bind(c, b)
        assert np.allclose(left, right)


class TestBundleProperties:
    @given(st.integers(min_value=2, max_value=20), seeds)
    @settings(max_examples=20, deadline=None)
    def test_bundle_similar_to_members(self, count, seed):
        stack = random_bipolar(4096, count=count, seed=seed).astype(float)
        total = bundle(stack)
        sims = [cosine(total, row) for row in stack]
        # Expected similarity ~ 1/sqrt(count); allow generous slack.
        assert min(sims) > 1.0 / np.sqrt(count) - 0.3

    @given(st.permutations(list(range(6))), seeds)
    @settings(max_examples=20, deadline=None)
    def test_bundle_order_invariant(self, perm, seed):
        stack = random_bipolar(128, count=6, seed=seed).astype(float)
        assert np.allclose(bundle(stack), bundle(stack[list(perm)]))


class TestPermuteProperties:
    @given(dims, st.integers(min_value=-64, max_value=64), seeds)
    @settings(max_examples=30, deadline=None)
    def test_permute_preserves_multiset(self, dim, shift, seed):
        hv = random_bipolar(dim, seed=seed)
        assert sorted(permute(hv, shift)) == sorted(hv)

    @given(dims, st.integers(min_value=0, max_value=32), seeds)
    @settings(max_examples=30, deadline=None)
    def test_permute_invertible(self, dim, shift, seed):
        hv = random_bipolar(dim, seed=seed)
        assert np.array_equal(permute(permute(hv, shift), -shift), hv)


class TestSignProperties:
    @given(
        arrays(
            np.float64,
            st.integers(min_value=1, max_value=64),
            elements=st.floats(-100, 100, allow_nan=False),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_sign_idempotent(self, values):
        once = sign_binarize(values)
        twice = sign_binarize(once.astype(float))
        assert np.array_equal(once, twice)

    @given(
        arrays(
            np.float64,
            st.integers(min_value=1, max_value=64),
            elements=st.floats(0.01, 100, allow_nan=False),
        ),
        st.floats(0.01, 10),
    )
    @settings(max_examples=30, deadline=None)
    def test_sign_scale_invariant(self, values, scale):
        assert np.array_equal(
            sign_binarize(values), sign_binarize(values * scale)
        )


class TestSoftmaxProperties:
    @given(
        arrays(
            np.float64,
            st.tuples(
                st.integers(min_value=1, max_value=8),
                st.integers(min_value=2, max_value=10),
            ),
            elements=st.floats(-1, 1, allow_nan=False),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_are_distributions(self, sims):
        conf = softmax_confidence(sims)
        assert np.allclose(conf.sum(axis=1), 1.0)
        assert np.all(conf >= 0.0)

    @given(
        arrays(
            np.float64, (3, 4), elements=st.floats(-1, 1, allow_nan=False)
        ),
        st.floats(-5, 5, allow_nan=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_shift_invariance(self, sims, shift):
        assert np.allclose(
            softmax_confidence(sims), softmax_confidence(sims + shift)
        )


class TestProjectionProperties:
    @given(
        st.integers(min_value=64, max_value=256),
        st.integers(min_value=64, max_value=256),
        seeds,
    )
    @settings(max_examples=15, deadline=None)
    def test_projection_linear(self, in_dim, out_dim, seed):
        proj = TernaryProjection(in_dim, out_dim, seed=seed)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(in_dim)
        b = rng.standard_normal(in_dim)
        assert np.allclose(
            proj.project(a + b), proj.project(a) + proj.project(b)
        )

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_projection_roughly_preserves_norm_ratio(self, seed):
        """JL flavour: relative norms survive the projection."""
        proj = TernaryProjection(2048, 2048, seed=seed)
        rng = np.random.default_rng(seed)
        small = rng.standard_normal(2048)
        big = 10.0 * rng.standard_normal(2048)
        ratio = np.linalg.norm(proj.project(big)) / np.linalg.norm(
            proj.project(small)
        )
        assert 5.0 < ratio < 20.0

    @given(
        st.lists(
            st.integers(min_value=4, max_value=64), min_size=1, max_size=5
        ),
        seeds,
    )
    @settings(max_examples=30, deadline=None)
    def test_concat_length(self, sizes, seed):
        parts = [
            random_bipolar(s, seed=seed + i, tag=f"p{i}").astype(float)
            for i, s in enumerate(sizes)
        ]
        assert concatenate_hypervectors(parts).shape == (sum(sizes),)


class TestCompressionProperties:
    @given(
        st.integers(min_value=1, max_value=12),
        seeds,
    )
    @settings(max_examples=15, deadline=None)
    def test_decode_biased_toward_original(self, count, seed):
        dim = 4096
        book = PositionCodebook(dim, count, seed=seed)
        vectors = random_bipolar(dim, count=count, seed=seed, tag="v").astype(float)
        decoded = book.decompress(book.compress(vectors), binarize=False)
        # Per Eq. 4: E[decoded * original] = 1 per element.
        bias = np.mean(decoded * vectors)
        assert bias == pytest.approx(1.0, abs=0.2)

    @given(st.integers(min_value=2, max_value=10), seeds)
    @settings(max_examples=15, deadline=None)
    def test_compression_linear_additive(self, count, seed):
        dim = 256
        book = PositionCodebook(dim, count, seed=seed)
        vectors = random_bipolar(dim, count=count, seed=seed, tag="w").astype(float)
        bundle_all = book.compress(vectors).bundle
        manual = sum(
            book.positions[i].astype(float) * vectors[i] for i in range(count)
        )
        assert np.allclose(bundle_all, manual)


class TestFailureProperties:
    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=32, max_value=512),
        seeds,
    )
    @settings(max_examples=30, deadline=None)
    def test_drop_count_exact(self, fraction, dim, seed):
        hv = random_bipolar(dim, seed=seed).astype(float)
        damaged = drop_dimensions(hv, fraction, seed=seed)
        assert np.sum(damaged == 0.0) == round(fraction * dim)


class TestTopologyProperties:
    @given(st.integers(min_value=1, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_star_and_tree_leaf_counts(self, n):
        assert len(build_star(n).leaves()) == n
        assert len(build_tree(n).leaves()) == n

    @given(
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=20, deadline=None)
    def test_deep_tree_depth_and_leaves(self, n, depth):
        h = build_deep_tree(n, depth=depth)
        assert h.depth == depth
        assert len(h.leaves()) == n

    @given(
        st.lists(st.integers(min_value=1, max_value=50), min_size=2, max_size=8),
        st.integers(min_value=100, max_value=10_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_dimension_allocation_sums(self, counts, total):
        h = build_star(len(counts))
        h.allocate_dimensions(total, counts)
        root_dim = h.nodes[h.root_id].dimension
        leaf_sum = sum(h.nodes[l].dimension for l in h.leaves())
        assert root_dim == leaf_sum
        # Rounding + the 8-dim floor keep the root near the target D.
        assert abs(root_dim - total) <= 8 * len(counts)


class TestBatchGroupProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=100),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_of_indices(self, labels, batch_size):
        y = np.array(labels)
        groups = batch_groups(y, batch_size)
        seen = np.concatenate([idx for _, idx in groups]) if groups else np.array([])
        assert sorted(seen.tolist()) == list(range(len(labels)))
        for cls, idx in groups:
            assert len(idx) <= batch_size
            assert np.all(y[idx] == cls)


class TestRngProperties:
    @given(seeds, st.integers(min_value=1, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_spawned_seeds_unique(self, seed, count):
        spawned = spawn_seeds(seed, count)
        assert len(set(spawned)) == count
