"""Unit tests for ternary holographic projection and concatenation."""

import copy
import gc
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from conftest import csr_dense
import repro.core.projection as projection_module
from repro.core.hypervector import cosine, random_bipolar, sign_binarize
from repro.core.projection import (
    PAD_WIDTH,
    _LIVE_DRAWS,
    TernaryProjection,
    _draw_ternary_csr,
    concatenate_hypervectors,
)
from repro.utils.rng import derive_rng


class TestConcatenate:
    def test_1d_parts(self):
        a = np.ones(4)
        b = -np.ones(6)
        out = concatenate_hypervectors([a, b])
        assert out.shape == (10,)
        assert np.all(out[:4] == 1) and np.all(out[4:] == -1)

    def test_2d_parts(self):
        a = np.ones((3, 4))
        b = np.zeros((3, 2))
        out = concatenate_hypervectors([a, b])
        assert out.shape == (3, 6)

    def test_unequal_rows_raises(self):
        with pytest.raises(ValueError):
            concatenate_hypervectors([np.ones((3, 4)), np.ones((2, 4))])

    def test_mixed_ndim_raises(self):
        with pytest.raises(ValueError):
            concatenate_hypervectors([np.ones(4), np.ones((2, 4))])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            concatenate_hypervectors([])


def _reference_matrix(in_dim, out_dim, zero_fraction, seed):
    """The dense draw the sparse construction must reproduce."""
    nonzero = (1.0 - zero_fraction) / 2.0
    return derive_rng(seed, "ternary-projection").choice(
        np.array([-1, 0, 1], dtype=np.int8),
        size=(out_dim, in_dim),
        p=[nonzero, zero_fraction, nonzero],
    )


def _reachable_arrays(obj, seen=None):
    """Every ndarray reachable from ``obj``'s attributes, recursively."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        return
    if isinstance(obj, (list, tuple)):
        children = list(obj)
    elif isinstance(obj, dict):
        children = list(obj.values())
    elif hasattr(obj, "__dict__"):
        children = list(vars(obj).values())
    else:
        return
    for child in children:
        yield from _reachable_arrays(child, seen)


class TestSparseDraw:
    """The CSR draw is ``Generator.choice``'s matrix, cell for cell."""

    @pytest.mark.parametrize(
        "in_dim, out_dim, zero_fraction",
        [
            (1, 1, 1.0 / 3.0),
            # 32 rows a block, and the last block is partial.
            (1000, 3151, 1.0 / 3.0),
            # in_dim below projection_nonzeros: no zeros at all.
            (48, 40, 0.0),
            (300, 200, 1.0 / 3.0),
            (4000, 4000, 1.0 - 64 / 4000),
        ],
    )
    def test_equals_choice(self, in_dim, out_dim, zero_fraction):
        proj = TernaryProjection(
            in_dim, out_dim, zero_fraction=zero_fraction, seed=21
        )
        reference = _reference_matrix(in_dim, out_dim, zero_fraction, 21)
        assert proj.matrix.shape == reference.shape
        assert np.array_equal(csr_dense(proj.matrix), reference)
        assert proj.matrix.nnz == np.count_nonzero(reference)

    @pytest.mark.parametrize(
        "cells", [1, 12, 7 * 13], ids=["one-cell", "in-minus-one", "7-rows"]
    )
    def test_any_block_equals_choice(self, monkeypatch, cells):
        """Blocks smaller than a row (one row each), or whole rows not
        dividing ``out`` (40 = 5 blocks of 7 and one of 5), draw the
        same matrix, and
        leave a passed Generator where drawing ``out x in`` uniforms
        at once leaves it."""
        monkeypatch.setattr(projection_module, "_DRAW_BLOCK_CELLS", cells)
        rng = derive_rng(31, "ternary-projection")
        matrix = _draw_ternary_csr(rng, 40, 13, 1.0 / 3.0)
        assert np.array_equal(
            csr_dense(matrix), _reference_matrix(13, 40, 1.0 / 3.0, 31)
        )
        whole = derive_rng(31, "ternary-projection")
        whole.random((40, 13))
        assert rng.bit_generator.state == whole.bit_generator.state

    def test_draw_memory_is_bounded_by_its_output(self, traced_peak):
        """Beside the output's 12 bytes a non-zero, the draw holds each
        non-zero's int32 column and bool sign twice at most (per block,
        then joined), plus a fixed block scratch: under twice the output
        for the root-sized matrix. Blocks of 2**20 float64 uniforms took
        it past 6x."""
        matrix, peak = traced_peak(lambda: _draw_ternary_csr(
            derive_rng(32, "ternary-projection"), 4000, 4000, 1.0 - 64 / 4000
        ))
        output = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        assert peak <= 2 * output

    @pytest.mark.parametrize("rows", ["1d", 1, 32])
    def test_project_equals_dense_product(self, rows):
        proj = TernaryProjection(
            600, 500, zero_fraction=1.0 - 64 / 600, seed=22)
        dense_t = csr_dense(proj.matrix).T.astype(np.float64)
        shape = (600,) if rows == "1d" else (rows, 600)
        bipolar = random_bipolar(600, count=int(np.prod(shape)) // 600, seed=23)
        bipolar = bipolar.reshape(shape)
        for x in (bipolar, bipolar.astype(np.float64)):
            got = proj.project(x)
            assert got.shape == shape[:-1] + (500,)
            assert np.array_equal(got, (x @ dense_t) * proj._scale)
        real = np.random.default_rng(24).standard_normal(shape)
        np.testing.assert_allclose(
            proj.project(real), (real @ dense_t) * proj._scale, rtol=1e-12
        )

    def test_binarized_projection_equals_dense(self):
        """The copy an internal node forwards, the sign of its
        projection, is the sign of the dense product."""
        proj = TernaryProjection(200, 150, seed=25)
        x = random_bipolar(200, count=8, seed=26)
        dense = (x @ csr_dense(proj.matrix).T.astype(np.float64)) * proj._scale
        assert np.array_equal(
            sign_binarize(proj.project(x)), sign_binarize(dense)
        )

    def test_no_dense_operand_kept(self):
        """A dense cache of the root-sized projection would be 122 MiB."""
        proj = TernaryProjection(4000, 4000, zero_fraction=1.0 - 64 / 4000, seed=27)
        proj.project(random_bipolar(4000, count=32, seed=28))
        proj.project(random_bipolar(4000, seed=29))
        biggest = max(a.nbytes for a in _reachable_arrays(proj))
        assert biggest <= 4 * 2 ** 20


class _WidthRecorder:
    """Stands in for a CSR matrix and records each operand's width and
    dtype."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.dtype = matrix.data.dtype
        self.widths = []
        self.operand_dtypes = []

    def __matmul__(self, operand):
        self.widths.append(operand.shape[1])
        self.operand_dtypes.append(operand.dtype)
        return self.matrix @ operand


class TestPaddedWidth:
    """The batch axis is padded to PAD_WIDTH; no bit of the output moves."""

    @pytest.mark.parametrize("binarize", [False, True])
    @pytest.mark.parametrize("dtype", [np.int8, np.float64])
    def test_width_sweep_equals_dense(self, dtype, binarize):
        """``binarize`` compares the forwarded copy, the projection's
        sign."""
        proj = TernaryProjection(
            600, 500, zero_fraction=1.0 - 64 / 600, seed=35
        )
        assert proj.matrix.data.dtype == np.int16
        dense_t = csr_dense(proj.matrix).T.astype(np.float64)
        x = random_bipolar(600, count=40, seed=36).astype(dtype)
        for width in range(1, 41):
            rows = x[:width]
            want = (rows.astype(np.float64) @ dense_t) * proj._scale
            got = proj.project(rows)
            if binarize:
                got, want = sign_binarize(got), sign_binarize(want)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), width

    @pytest.mark.parametrize("dtype", [np.int8, np.float64])
    def test_operand_padded_to_simd_width(self, dtype):
        """Bipolar int8 rows travel two to an int16 word, except that 7
        or 8 rows ride a word each (four words cost the kernel what
        eight do); more than three words are padded to a multiple of
        PAD_WIDTH. A float64 operand keeps its width (padding only slows
        its kernel)."""
        proj = TernaryProjection(
            600, 500, zero_fraction=1.0 - 64 / 600, seed=37)
        recorder = _WidthRecorder(proj.matrix)
        proj.matrix = recorder
        x = random_bipolar(600, count=17, seed=38).astype(dtype)
        widths = (1, 2, 3, 5, 7, 8, 9, 16, 17)
        for width in widths:
            proj.project(x[:width])
        assert PAD_WIDTH == 8
        if dtype is np.int8:
            assert recorder.widths == [1, 1, 2, 3, 8, 8, 8, 8, 16]
            assert set(recorder.operand_dtypes) == {np.dtype(np.int16)}
        else:
            assert recorder.widths == list(widths)

    @pytest.mark.parametrize("rows", range(2, PAD_WIDTH))
    def test_unpadded_float_equals_scipy(self, rows):
        """The float operand's own width sums each element in the same
        order as scipy's float64 CSR product, bit for bit."""
        proj = TernaryProjection(
            600, 500, zero_fraction=1.0 - 64 / 600, seed=39)
        m = proj.matrix
        reference = csr_matrix(
            (m.data.astype(np.float64), m.indices, m.indptr), shape=m.shape
        )
        x = np.random.default_rng(40).standard_normal((rows, 600))
        want = np.multiply((reference @ x.T).T, proj._scale, order="C")
        assert proj.project(x).tobytes() == want.tobytes()


class TestInt16Path:
    """int8 input is multiplied in int16; every bit matches float64."""

    @pytest.mark.parametrize("magnitude", [1, 127])
    @pytest.mark.parametrize("binarize", [False, True])
    def test_int8_equals_float64(self, magnitude, binarize):
        """``binarize`` compares the forwarded copy, the projection's
        sign."""
        proj = TernaryProjection(
            600, 500, zero_fraction=1.0 - 64 / 600, seed=30
        )
        assert proj.matrix.data.dtype == np.int16
        x = (magnitude * random_bipolar(600, count=9, seed=31)).astype(np.int8)
        for rows in (x, x[0]):
            got, want = proj.project(rows), proj.project(rows.astype(np.float64))
            if binarize:
                got, want = sign_binarize(got), sign_binarize(want)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("in_dim, int_path", [(127, True), (255, False)])
    def test_overflow_bound(self, in_dim, int_path):
        """No zeros: every row has ``in_dim`` non-zeros, so 127 keeps
        every row's positive and negative terms within a byte lane and
        255 cannot. An input of -128 where a row is +1 and +127 where it
        is -1 (and the mirror image) drives that row's sum to its
        extreme, one row at a time (the int16 path's odd row out) and
        as a batch (the float path: the rows are not bipolar)."""
        proj = TernaryProjection(in_dim, 8, zero_fraction=0.0, seed=32)
        assert proj.matrix.data.dtype == np.int16
        assert (proj._draw.lane_offset is not None) is int_path
        signs = csr_dense(proj.matrix).astype(np.int64)
        x = np.concatenate([
            np.where(signs[:4] > 0, -128, 127), np.where(signs[4:] > 0, 127, -128),
        ]).astype(np.int8)
        got = proj.project(x)
        assert np.array_equal(got, proj.project(x.astype(np.float64)))
        sums = np.diag(x.astype(np.int64) @ signs.T)
        assert np.all(np.abs(sums) >= 127 * in_dim)
        assert np.array_equal(np.diag(got), sums * proj._scale)
        for i in range(8):
            assert proj.project(x[i]).tobytes() == got[i].tobytes()

    def test_dense_rows_fall_back_and_agree(self):
        """Rows of 300 non-zeros exceed a byte lane: int8 input takes
        the float path, on the same int16 data."""
        proj = TernaryProjection(300, 40, zero_fraction=0.0, seed=33)
        assert proj.matrix.data.dtype == np.int16
        assert proj._draw.lane_offset is None
        x = (127 * csr_dense(proj.matrix)[:6]).astype(np.int8)
        got = proj.project(x)
        assert np.array_equal(got, proj.project(x.astype(np.float64)))
        assert np.array_equal(
            np.diag(got[:, :6]), np.full(6, 127 * 300) * proj._scale
        )

    @pytest.mark.parametrize("rows", ["1d", 1, 7, 8, 126])
    def test_float_input_equals_float64_twin(self, rows):
        """Float input multiplies the one int16 matrix, its data
        converted to float64 a block of rows at a time, byte for byte as
        scipy's ``csr_matrix`` holding a float64 copy of it; bipolar
        int8 input keeps an int16 operand."""
        proj = TernaryProjection(
            4000, 4000, zero_fraction=1.0 - 64 / 4000, seed=48)
        assert proj.matrix.data.dtype == np.int16
        twin = copy.copy(proj)
        twin.matrix = csr_matrix(
            (proj.matrix.data.astype(np.float64), proj.matrix.indices,
             proj.matrix.indptr), shape=proj.matrix.shape,
        )
        shape = (4000,) if rows == "1d" else (rows, 4000)
        x = np.random.default_rng(49).standard_normal(shape)
        assert proj.project(x).tobytes() == twin.project(x).tobytes()
        recorder = _WidthRecorder(proj.matrix)
        proj.matrix = recorder
        proj.project(np.where(x > 0, 1, -1).astype(np.int8))
        proj.project(x)
        assert recorder.operand_dtypes == [np.int16, np.float64]

    def test_projection_holds_one_matrix(self, traced_peak):
        """A root-sized projection holds one CSR: an int16 ±1 and an
        int32 column per non-zero, plus ``indptr``. A float64 matrix
        beside its int16 twin held 14 bytes a non-zero."""
        gc.collect()

        def build():
            start = tracemalloc.get_traced_memory()[0]
            proj = TernaryProjection(
                4000, 4000, zero_fraction=1.0 - 64 / 4000, seed=50
            )
            return proj, tracemalloc.get_traced_memory()[0] - start

        (proj, held), _ = traced_peak(build)
        matrix = proj.matrix
        assert held <= 6 * matrix.nnz + matrix.indptr.nbytes + 2 ** 16

    @pytest.mark.parametrize("dtype", [np.int16, np.float64])
    def test_operand_rows_must_match_columns(self, dtype):
        """The kernels read the operand at every column index unchecked:
        a short operand is refused, not read past its end."""
        proj = TernaryProjection(600, 500, zero_fraction=1.0 - 64 / 600,
                                 seed=51)
        assert proj.matrix.data.dtype == np.int16
        for shape in ((599, 8), (599,)):
            with pytest.raises(ValueError, match="599 rows"):
                proj.matrix @ np.zeros(shape, dtype=dtype)

    def test_int8_shape_checks(self):
        proj = TernaryProjection(10, 10, seed=34)
        with pytest.raises(ValueError, match="10 columns"):
            proj.project(np.ones((2, 11), dtype=np.int8))
        with pytest.raises(ValueError, match="2-D"):
            proj.project(np.ones((2, 2, 10), dtype=np.int8))


class TestPackedWords:
    """Bipolar int8 rows travel two to an int16 word through the int16
    data; every other input takes the float path. Both give the bytes of
    a float64 product."""

    @pytest.mark.parametrize("dimension", [600, 1600, 4000])
    def test_bipolar_sweep_equals_float64(self, dimension):
        """Each output row is summed on its own, so the float64
        projection of all 130 rows holds every width's answer."""
        proj = TernaryProjection(
            dimension, dimension, zero_fraction=1.0 - 64 / dimension, seed=52
        )
        assert proj._draw.lane_offset is not None
        x = random_bipolar(dimension, count=130, seed=53)
        want = proj.project(x.astype(np.float64))
        for width in range(1, 131):
            got = proj.project(x[:width])
            assert got.tobytes() == want[:width].tobytes(), width
        assert proj.project(x[0]).tobytes() == want[0].tobytes()

    def test_row_past_the_lane_bound_takes_the_float_path(self):
        """254 non-zeros a row pass the row-length check, but a row with
        128 positive terms would carry out of its byte lane."""
        proj = TernaryProjection(254, 8, zero_fraction=0.0, seed=54)
        signs = csr_dense(proj.matrix)
        assert (signs > 0).sum(axis=1).max() > 127
        assert proj._draw.lane_offset is None
        x = random_bipolar(254, count=9, seed=55)
        want = (x @ signs.T.astype(np.float64)) * proj._scale
        for width in (1, 2, 3, 9):
            assert proj.project(x[:width]).tobytes() == want[:width].tobytes()

    @pytest.mark.parametrize("extremes", [(-128, 127), (-127, 127)])
    def test_int8_extremes_equal_float64(self, extremes):
        """±127 and -128 rows: alone (the odd row out), as a batch (not
        bipolar, so the float path), and as the odd row behind a pair of
        bipolar rows (the packed path)."""
        proj = TernaryProjection(600, 500, zero_fraction=1.0 - 64 / 600, seed=56)
        rng = np.random.default_rng(57)
        wild = rng.choice(np.array(extremes, dtype=np.int8), size=(3, 600))
        mixed = np.concatenate([random_bipolar(600, count=2, seed=58), wild[:1]])
        for x in (wild[0], wild[:1], wild, mixed):
            got = proj.project(x)
            assert got.tobytes() == proj.project(x.astype(np.float64)).tobytes()


class TestScipyKernelContract:
    """The packed path needs scipy's int16 ``csr_matvec`` and
    ``csr_matvecs`` to return ``z_a + 256 z_b`` exactly for two byte
    lanes at their bound, +-127; a release that accumulates int16
    differently fails here by name."""

    def test_int16_kernels_return_the_two_lane_composite(self):
        kernels = projection_module._sparsetools
        half = np.arange(254) < 127
        data = np.where(half, 1, -1).astype(np.int16)  # 127 +1s, 127 -1s
        indices = np.arange(254, dtype=np.int32)
        indptr = np.array([0, 254], dtype=np.int32)
        # lane a picks the +1 terms and lane b the -1 terms, then the
        # mirror image: (z_a, z_b) = (127, -127) and (-127, 127)
        words = [
            half.astype(np.int16) + 256 * (~half).astype(np.int16),
            (~half).astype(np.int16) + 256 * half.astype(np.int16),
        ]
        want = [127 - 256 * 127, -127 + 256 * 127]
        for word, expected in zip(words, want):
            out = np.zeros(1, dtype=np.int16)
            kernels.csr_matvec(1, 254, indptr, indices, data, word, out)
            assert int(out[0]) == expected
        for width in (2, 8):
            operand = np.zeros((254, width), dtype=np.int16)
            operand[:, 0], operand[:, 1] = words
            out = np.zeros(width, dtype=np.int16)
            kernels.csr_matvecs(
                1, 254, width, indptr, indices, data, operand.ravel(), out
            )
            assert out[:2].tolist() == want
        # and the decode reads the lanes back by arithmetic
        lanes = (np.array(want) + 0x8080) % 2 ** 16
        assert ((lanes % 256) - 128).tolist() == [127, -127]
        assert ((lanes // 256) - 128).tolist() == [-127, 127]


class TestSharedDraw:
    """One draw per live (int seed, out, in, zero fraction), frozen, and
    gone once no projection holds it."""

    def test_identical_live_projections_share_the_matrices(self):
        a = TernaryProjection(300, 200, zero_fraction=0.5, seed=40)
        b = TernaryProjection(300, 200, zero_fraction=0.5, seed=np.int64(40))
        assert a is not b
        assert a.matrix is b.matrix and a.matrix.data.dtype == np.int16

    @pytest.mark.parametrize("other", [
        dict(seed=42), dict(in_dimension=301), dict(out_dimension=201),
        dict(zero_fraction=0.25),
    ])
    def test_different_keys_never_share(self, other):
        base = dict(in_dimension=300, out_dimension=200, zero_fraction=0.5,
                    seed=41)
        changed = {**base, **other}
        a = TernaryProjection(**base)
        b = TernaryProjection(**changed)
        assert a.matrix is not b.matrix
        assert np.array_equal(csr_dense(b.matrix), _reference_matrix(
            changed["in_dimension"], changed["out_dimension"],
            changed["zero_fraction"], changed["seed"],
        ))

    def test_generator_seeds_never_share(self):
        a = TernaryProjection(100, 80, seed=np.random.default_rng(43))
        b = TernaryProjection(100, 80, seed=np.random.default_rng(43))
        assert a.matrix is not b.matrix
        assert np.array_equal(csr_dense(a.matrix), csr_dense(b.matrix))

    def test_released_draw_leaves_the_memo_and_is_drawn_again(self):
        """Once no projection holds a draw the memo forgets it, so the
        next build (a new cycle's fit) draws again, bit for bit."""
        gc.collect()
        before = set(_LIVE_DRAWS.keys())
        key = (44, 200, 300, 0.5)
        first = TernaryProjection(300, 200, zero_fraction=0.5, seed=44)
        assert set(_LIVE_DRAWS.keys()) == before | {key}
        old = csr_dense(first.matrix)
        del first
        gc.collect()
        assert set(_LIVE_DRAWS.keys()) == before
        again = TernaryProjection(300, 200, zero_fraction=0.5, seed=44)
        assert np.array_equal(csr_dense(again.matrix), old)
        assert np.array_equal(
            csr_dense(again.matrix), _reference_matrix(300, 200, 0.5, 44)
        )

    def test_shared_arrays_are_read_only(self):
        proj = TernaryProjection(600, 500, zero_fraction=1.0 - 64 / 600,
                                 seed=46)
        assert proj.matrix.data.dtype == np.int16
        for array in (proj.matrix.data, proj.matrix.indices, proj.matrix.indptr):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]
        x = random_bipolar(600, count=3, seed=47)
        assert np.array_equal(proj.project(x), proj.project(x.astype(float)))


class TestTernaryProjection:
    def test_matrix_values(self):
        proj = TernaryProjection(100, 80, seed=1)
        assert set(np.unique(csr_dense(proj.matrix))) <= {-1, 0, 1}
        assert proj.matrix.shape == (80, 100)

    def test_zero_fraction_respected(self):
        proj = TernaryProjection(1000, 500, zero_fraction=0.5, seed=2)
        zero_rate = np.mean(csr_dense(proj.matrix) == 0)
        assert abs(zero_rate - 0.5) < 0.05

    def test_binarized_output(self):
        """The projection is real; the copy a node forwards is its sign."""
        proj = TernaryProjection(64, 64, seed=3)
        out = proj.project(random_bipolar(64, seed=4).astype(float))
        assert out.shape == (64,) and out.dtype == np.float64
        assert set(np.unique(sign_binarize(out))) <= {-1, 1}

    def test_batch_projection(self):
        proj = TernaryProjection(32, 48, seed=5)
        out = proj.project(np.ones((7, 32)))
        assert out.shape == (7, 48)

    def test_deterministic(self):
        """Equal to a draw taken straight from the seed's stream: a
        second projection would share the first one's draw."""
        direct = _draw_ternary_csr(
            derive_rng(6, "ternary-projection"), 64, 64, 1.0 / 3.0
        )
        proj = TernaryProjection(64, 64, seed=6)
        assert np.array_equal(csr_dense(proj.matrix), csr_dense(direct))

    def test_variance_preserving(self):
        """Non-binarized projection keeps per-element variance ~input's."""
        proj = TernaryProjection(2000, 2000, seed=7)
        inputs = random_bipolar(2000, count=50, seed=8).astype(float)
        out = proj.project(inputs)
        assert abs(out.std() - 1.0) < 0.15

    def test_similarity_preserved(self):
        """Similar inputs stay similar after projection (JL-style)."""
        proj = TernaryProjection(4000, 4000, seed=9)
        base = random_bipolar(4000, seed=10).astype(float)
        noisy = base.copy()
        flip = np.random.default_rng(11).choice(4000, 200, replace=False)
        noisy[flip] *= -1
        assert cosine(proj.project(base), proj.project(noisy)) > 0.8

    def test_dissimilarity_preserved(self):
        proj = TernaryProjection(4000, 4000, seed=12)
        a = random_bipolar(4000, seed=13).astype(float)
        b = random_bipolar(4000, seed=14).astype(float)
        assert abs(cosine(proj.project(a), proj.project(b))) < 0.1

    def test_holographic_spread(self):
        """Every output element mixes many input elements.

        Zeroing one input block must perturb (almost) all outputs a
        little instead of wiping a contiguous region — the property the
        Fig. 12 robustness relies on.
        """
        proj = TernaryProjection(1000, 1000, seed=15)
        x = random_bipolar(1000, seed=16).astype(float)
        damaged = x.copy()
        damaged[:500] = 0.0
        full = proj.project(x)
        partial = proj.project(damaged)
        # The surviving half keeps substantial global similarity.
        assert cosine(full, partial) > 0.5
        changed = np.mean(np.abs(full - partial) > 1e-12)
        assert changed > 0.95

    def test_rectangular_projection(self):
        proj = TernaryProjection(100, 30, seed=17)
        assert proj.project(np.ones(100)).shape == (30,)

    def test_wrong_input_dimension(self):
        proj = TernaryProjection(10, 10, seed=19)
        with pytest.raises(ValueError):
            proj.project(np.ones(11))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            TernaryProjection(0, 10)
        with pytest.raises(ValueError):
            TernaryProjection(10, 0)
        with pytest.raises(ValueError):
            TernaryProjection(10, 10, zero_fraction=1.0)
        with pytest.raises(ValueError):
            TernaryProjection(10, 10, zero_fraction=-0.1)
