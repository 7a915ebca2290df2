"""Unit tests for the HD classifier (training, retraining, inference)."""

import numpy as np
import pytest

from repro.core.classifier import (
    HDClassifier,
    _add_ordered,
    _block_rows,
    _exact_in_any_order,
    _row_norms,
    _unit_rows,
    softmax_confidence,
)
from repro.core.encoding import RBFEncoder
from repro.core.hypervector import cosine_many, normalize_rows
from repro.data import HIERARCHY_DATASETS
from repro.experiments.accuracy import run_table2
from repro.experiments.harness import ExperimentScale


@pytest.fixture(scope="module")
def encoded_problem():
    """A 3-class problem already encoded into hyperspace."""
    rng = np.random.default_rng(1)
    n_per_class, n_features, dim = 60, 10, 600
    centers = rng.standard_normal((3, n_features)) * 3.0
    xs, ys = [], []
    for cls in range(3):
        xs.append(centers[cls] + rng.standard_normal((n_per_class, n_features)))
        ys.append(np.full(n_per_class, cls))
    x = np.vstack(xs)
    y = np.concatenate(ys)
    encoder = RBFEncoder(n_features, dim, gamma=0.3, seed=2)
    return encoder.encode(x), y, dim


class TestSoftmaxConfidence:
    def test_rows_sum_to_one(self):
        sims = np.array([[0.9, 0.1, 0.0], [0.2, 0.3, 0.25]])
        conf = softmax_confidence(sims)
        assert np.allclose(conf.sum(axis=1), 1.0)

    def test_sharper_margin_higher_confidence(self):
        wide = softmax_confidence(np.array([[0.9, 0.0]]), temperature=0.05)
        narrow = softmax_confidence(np.array([[0.51, 0.49]]), temperature=0.05)
        assert wide[0, 0] > narrow[0, 0]

    def test_temperature_sharpens(self):
        sims = np.array([[0.6, 0.4]])
        hot = softmax_confidence(sims, temperature=1.0)
        cold = softmax_confidence(sims, temperature=0.01)
        assert cold[0, 0] > hot[0, 0]

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            softmax_confidence(np.array([[1.0, 0.0]]), temperature=0.0)

    def test_mean_invariance(self):
        """Adding a constant to all similarities must not change output."""
        sims = np.array([[0.3, 0.1, 0.2]])
        shifted = sims + 5.0
        assert np.allclose(
            softmax_confidence(sims), softmax_confidence(shifted)
        )


def _reference_softmax(similarities, temperature):
    """softmax_confidence as numpy's mean, max and sum wrappers wrote it."""
    sims = np.atleast_2d(np.asarray(similarities, dtype=np.float64))
    centered = sims - sims.mean(axis=1, keepdims=True)
    scaled = centered / temperature
    scaled -= scaled.max(axis=1, keepdims=True)
    exp = np.exp(scaled)
    return exp / exp.sum(axis=1, keepdims=True)


def _reference_unit_rows(rows):
    """_unit_rows as np.linalg.norm and a masked assignment wrote it."""
    floats = rows.astype(np.float64)
    norms = np.linalg.norm(floats, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return floats / norms


class TestReductionRewrites:
    """The ufunc reductions the search runs in place of numpy's wrappers
    give the wrappers' bytes."""

    @staticmethod
    def _matrices():
        rng = np.random.default_rng(60)
        return [
            rng.standard_normal((1, 4000)),
            rng.standard_normal((32, 1600)) * 1e3,
            rng.integers(-1, 2, (7, 800)).astype(np.float64),
            np.zeros((2, 5)),
            np.array([[np.inf, 1.0], [np.nan, 0.0], [1e-300, 0.0]]),
        ]

    def test_row_norms_equal_linalg_norm(self):
        for rows in self._matrices():
            want = np.linalg.norm(rows, axis=1, keepdims=True)
            assert _row_norms(rows).tobytes() == want.tobytes()

    def test_unit_rows_equal_the_masked_division(self):
        bipolar = np.random.default_rng(61).choice(
            np.array([-1, 1], dtype=np.int8), size=(3, 64)
        )
        for rows in [*self._matrices(), bipolar]:
            with np.errstate(invalid="ignore"):
                got, want = _unit_rows(rows), _reference_unit_rows(rows)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("temperature", [0.05, 1.0, 3.7])
    def test_softmax_equals_the_wrapper_expressions(self, temperature):
        rng = np.random.default_rng(62)
        for sims in (
            rng.uniform(-1, 1, (1, 5)), rng.uniform(-1, 1, (32, 12)),
            rng.uniform(-1, 1, 7), np.zeros((2, 3)),
        ):
            got = softmax_confidence(sims, temperature)
            assert got.tobytes() == _reference_softmax(sims, temperature).tobytes()


class TestInitialTraining:
    def test_fit_initial_bundles_per_class(self):
        clf = HDClassifier(2, 4)
        enc = np.array([[1, 1, -1, -1], [1, -1, 1, -1], [-1, -1, 1, 1]], dtype=float)
        y = np.array([0, 0, 1])
        clf.fit_initial(enc, y)
        assert np.array_equal(clf.class_hypervectors[0], enc[0] + enc[1])
        assert np.array_equal(clf.class_hypervectors[1], enc[2])

    def test_initial_accuracy_reasonable(self, encoded_problem):
        enc, y, dim = encoded_problem
        clf = HDClassifier(3, dim).fit_initial(enc, y)
        assert clf.accuracy(enc, y) > 0.8

    def test_mismatched_lengths(self):
        clf = HDClassifier(2, 8)
        with pytest.raises(ValueError):
            clf.fit_initial(np.ones((3, 8)), np.array([0, 1]))

    def test_label_out_of_range(self):
        clf = HDClassifier(2, 8)
        with pytest.raises(ValueError):
            clf.fit_initial(np.ones((2, 8)), np.array([0, 5]))

    def test_wrong_dimension(self):
        clf = HDClassifier(2, 8)
        with pytest.raises(ValueError):
            clf.fit_initial(np.ones((2, 9)), np.array([0, 1]))


class TestRetrain:
    def test_retrain_improves_training_accuracy(self, encoded_problem):
        enc, y, dim = encoded_problem
        clf = HDClassifier(3, dim).fit_initial(enc, y)
        initial = clf.accuracy(enc, y)
        history = clf.retrain(enc, y, epochs=10)
        assert clf.accuracy(enc, y) >= initial
        assert len(history) <= 10

    def test_retrain_early_stops_at_perfect(self, encoded_problem):
        enc, y, dim = encoded_problem
        clf = HDClassifier(3, dim).fit_initial(enc, y)
        history = clf.retrain(enc, y, epochs=100)
        if history and history[-1] == 1.0:
            assert len(history) < 100

    def test_retrain_before_fit_raises(self):
        clf = HDClassifier(2, 8)
        with pytest.raises(RuntimeError):
            clf.retrain(np.ones((2, 8)), np.array([0, 1]))

    def test_retrain_zero_epochs_noop(self, encoded_problem):
        enc, y, dim = encoded_problem
        clf = HDClassifier(3, dim).fit_initial(enc, y)
        before = clf.class_hypervectors.copy()
        assert clf.retrain(enc, y, epochs=0) == []
        assert np.array_equal(clf.class_hypervectors, before)

    @pytest.mark.parametrize("rate", [0.0, -0.5, np.nan, np.inf])
    def test_retrain_rejects_bad_learning_rate(self, encoded_problem, rate):
        enc, y, dim = encoded_problem
        clf = HDClassifier(3, dim).fit_initial(enc, y)
        before = clf.class_hypervectors.copy()
        with pytest.raises(ValueError, match="learning_rate"):
            clf.retrain(enc, y, epochs=2, learning_rate=rate)
        assert np.array_equal(clf.class_hypervectors, before)

    def test_retrain_empty_set(self, encoded_problem):
        enc, y, dim = encoded_problem
        clf = HDClassifier(3, dim).fit_initial(enc, y)
        assert clf.retrain(enc[:0], y[:0], epochs=3) == []


def _scatter_fit_initial(enc, y, n_classes):
    """The bundling rule as ``np.add.at`` states it: the oracle."""
    model = np.zeros((n_classes, enc.shape[1]))
    np.add.at(model, y, np.asarray(enc, dtype=np.float64))
    return model


def _scatter_retrain(model, enc, y, epochs, learning_rate):
    """Batched retraining by ``cosine_many`` and ``np.add.at`` /
    ``np.subtract.at``: the oracle. Also returns, per epoch, how many
    update rows each class received."""
    enc = np.asarray(enc, dtype=np.float64)
    history, touched = [], []
    for _ in range(epochs):
        preds = np.argmax(cosine_many(enc, model), axis=1)
        wrong = np.flatnonzero(preds != y)
        history.append(1.0 - wrong.size / enc.shape[0])
        touched.append(
            np.bincount(y[wrong], minlength=model.shape[0])
            + np.bincount(preds[wrong], minlength=model.shape[0])
        )
        if wrong.size:
            updates = learning_rate * enc[wrong]
            np.add.at(model, y[wrong], updates)
            np.subtract.at(model, preds[wrong], updates)
        if history[-1] == 1.0:
            break
    return model, history, touched


class TestOrderedUpdate:
    """The ordered per-class sum gives the bits of the scatter rule."""

    N_CLASSES, N_SAMPLES, EPOCHS = 4, 600, 5

    def _problem(self, dtype, dimension):
        # Random labels over three classes and rank-2 noise (nothing
        # to memorise) keep every epoch busy; the shared positive
        # offset keeps the empty fourth class (a zero row, cosine 0)
        # below every trained one at the first epoch.
        rng = np.random.default_rng(dimension)
        noise = rng.standard_normal((self.N_SAMPLES, 2)) @ rng.standard_normal(
            (2, dimension)
        )
        enc = np.abs(noise + 3.0)
        if dtype == "int8":
            enc = np.rint(enc).astype(np.int8)
        y = rng.integers(0, self.N_CLASSES - 1, size=self.N_SAMPLES)
        return enc, y

    @pytest.mark.parametrize("dimension", [1, 2, 17, 600])
    @pytest.mark.parametrize("learning_rate", [1.0, 0.3])
    @pytest.mark.parametrize("dtype", ["float64", "int8"])
    def test_matches_scatter_rule(self, dtype, learning_rate, dimension):
        enc, y = self._problem(dtype, dimension)
        clf = HDClassifier(self.N_CLASSES, dimension).fit_initial(enc, y)
        expected = _scatter_fit_initial(enc, y, self.N_CLASSES)
        assert clf.class_hypervectors.tobytes() == expected.tobytes()

        history = clf.retrain(
            enc, y, epochs=self.EPOCHS, learning_rate=learning_rate
        )
        expected, expected_history, touched = _scatter_retrain(
            expected, enc, y, self.EPOCHS, learning_rate
        )
        assert history == expected_history
        assert clf.class_hypervectors.tobytes() == expected.tobytes()
        # The cases the blocking must get right: a class no update
        # reaches, and one whose updates span more than one block.
        assert touched[0].min() == 0
        assert touched[0].max() > 128

    #: (model, scale) per cell, and whether the update is exact in any
    #: order (the one-hot product) or must keep the ordered sum.
    CELLS = {
        "integer": (lambda m: m, 1.0, True),
        "integer-scale-2": (lambda m: m, 2.0, True),
        "learning-rate-0.3": (lambda m: m, 0.3, False),
        "non-integer-model": (lambda m: m + 0.1, 1.0, False),
        "near-2**53": (lambda m: m + (2.0**53 - 16), 1.0, False),
        "negative-zero": (lambda m: np.where(m == 0, -0.0, m), 1.0, False),
    }

    @pytest.mark.parametrize("cell", list(CELLS))
    def test_update_path_matches_scatter_rule(self, cell):
        """Each path, and the choice between them, against the scatter
        rule bit for bit; the last class takes no update."""
        shape_model, scale, exact = self.CELLS[cell]
        rng = np.random.default_rng(11)
        n, dimension = 700, 33
        samples = rng.integers(-128, 128, size=(n, dimension), dtype=np.int8)
        samples[:, 0] = 0  # the column where a -0.0 model cell survives
        samples[:, 1] = rng.choice([-128, 127], size=n)
        rows = rng.permutation(n + 100)[:n] % n
        # class 0 only gains, 1 gains and loses, 2 only loses, 3 rests
        add_to = rng.integers(0, 2, size=n)
        subtract_from = rng.integers(1, 3, size=n)
        base = rng.integers(-3, 4, size=(self.N_CLASSES, dimension)).astype(float)
        base[:, 0] = 0.0
        model = shape_model(base)
        expected = model.copy()
        updates = scale * samples[rows].astype(np.float64)
        np.add.at(expected, add_to, updates)
        np.subtract.at(expected, subtract_from, updates)

        assert _exact_in_any_order(model, samples, 2 * n, scale) is exact
        got = model.copy()
        _add_ordered(got, samples, rows, add_to, subtract_from, scale=scale)
        assert got.tobytes() == expected.tobytes()
        assert got[-1].tobytes() == model[-1].tobytes()


class TestInference:
    def test_predict_shapes(self, encoded_problem):
        enc, y, dim = encoded_problem
        clf = HDClassifier(3, dim).fit_initial(enc, y)
        result = clf.predict(enc[:10])
        assert result.labels.shape == (10,)
        assert result.similarities.shape == (10, 3)
        assert result.confidences.shape == (10, 3)
        assert result.top_confidence.shape == (10,)

    def test_top_confidence_is_argmax_confidence(self, encoded_problem):
        enc, y, dim = encoded_problem
        clf = HDClassifier(3, dim).fit_initial(enc, y)
        result = clf.predict(enc[:5])
        for i in range(5):
            assert result.top_confidence[i] == result.confidences[i].max()

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            HDClassifier(2, 8).predict(np.ones((1, 8)))

    def test_accuracy_empty_raises(self, encoded_problem):
        enc, y, dim = encoded_problem
        clf = HDClassifier(3, dim).fit_initial(enc, y)
        with pytest.raises(ValueError):
            clf.accuracy(enc[:0], y[:0])

    def test_similarities_are_cosine(self, encoded_problem):
        enc, y, dim = encoded_problem
        clf = HDClassifier(3, dim).fit_initial(enc, y)
        sims = clf.similarities(enc[:3])
        assert np.all(sims <= 1.0 + 1e-9)
        assert np.all(sims >= -1.0 - 1e-9)


def _float_copy_unit_rows(rows):
    """Unit rows from a float64 copy of the rows: the formula the
    integer and blocked paths must reproduce bit for bit."""
    enc = np.asarray(rows, dtype=np.float64)
    norms = np.linalg.norm(enc, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return enc / norms


def _float_copy_retrain(model, rows, y, epochs):
    """Batched retraining on :func:`_float_copy_unit_rows`."""
    unit = _float_copy_unit_rows(rows)
    history = []
    for _ in range(epochs):
        preds = np.argmax(unit @ normalize_rows(model).T, axis=1)
        wrong = np.flatnonzero(preds != y)
        history.append(1.0 - wrong.size / y.size)
        if wrong.size:
            _add_ordered(model, rows, wrong, y[wrong], preds[wrong])
        if history[-1] == 1.0:
            break
    return model, history


class TestUnitRows:
    """Norms taken in row blocks change no bit, integer rows included."""

    DIMENSION = 257

    @pytest.mark.parametrize("kind", ["int8", "int8-bipolar", "int16"])
    def test_inference_and_retrain_equal_float_copy(self, kind):
        rng = np.random.default_rng(12)
        if kind == "int16":  # squares past int8's range
            rows = rng.integers(-(2**15), 2**15, size=(600, self.DIMENSION))
        elif kind == "int8":
            rows = rng.integers(-128, 128, size=(600, self.DIMENSION))
            rows[1], rows[2] = -128, 127
        else:
            rows = rng.choice([-1, 1], size=(600, self.DIMENSION))
        rows = rows.astype(kind.split("-")[0])
        rows[0] = 0
        y = rng.integers(0, 3, size=rows.shape[0])
        clf = HDClassifier(3, self.DIMENSION).fit_initial(rows, y)
        want = _float_copy_unit_rows(rows) @ clf._normalized.T
        result = clf.predict(rows)
        assert result.similarities.tobytes() == want.tobytes()
        assert np.array_equal(result.labels, np.argmax(want, axis=1))
        assert result.confidences.tobytes() == softmax_confidence(
            want, temperature=clf.confidence_temperature
        ).tobytes()
        assert np.array_equal(clf.predict_labels(rows), result.labels)
        assert clf.accuracy(rows, y) == float(np.mean(result.labels == y))
        model, history = _float_copy_retrain(
            clf.class_hypervectors.copy(), rows, y, epochs=5
        )
        assert clf.retrain(rows, y, epochs=5) == history
        assert clf.class_hypervectors.tobytes() == model.tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [1, 33, 512])
    def test_float_rows_equal_linalg_norm(self, n, order):
        """512 rows at D=1200 span five blocks; a Fortran-ordered array,
        whose sums follow its layout, is normed in one call."""
        rows = np.random.default_rng(n).standard_normal((n, 1200))
        rows = np.asarray(rows, order=order)
        rows[0] = 0.0
        got = _unit_rows(rows)
        assert got.tobytes() == _float_copy_unit_rows(rows).tobytes()

    def test_retrain_memory_is_one_float_array_of_the_rows(self, traced_peak):
        """Batched retraining on int8 rows keeps one float64 array of
        their shape, the unit rows, and the update's product blocks of
        ``_PRODUCT_BLOCK_BYTES``: within 1.25 such arrays at this size.
        A float copy and its squares took it past two."""
        rng = np.random.default_rng(13)
        rows = rng.choice(np.array([-1, 1], dtype=np.int8), size=(1250, 1200))
        y = rng.integers(0, 2, size=rows.shape[0])
        clf = HDClassifier(2, 1200).fit_initial(rows, y)
        _, peak = traced_peak(lambda: clf.retrain(rows, y, epochs=3))
        assert peak <= 1.25 * 8 * rows.size


    @pytest.mark.parametrize("kind", ["retrain", "accuracy"])
    def test_training_memory_is_one_block(self, kind, traced_peak):
        """Batched retraining and training-set accuracy on int8 rows
        classify one ``_PRODUCT_BLOCK_BYTES`` block of float64 rows at a
        time: they rise by at most 2 MiB plus n x k similarities and n
        norms in float64. A float64 copy of the rows took 11.4 MiB."""
        rng = np.random.default_rng(14)
        rows = rng.choice(np.array([-1, 1], dtype=np.int8), size=(1250, 1200))
        y = rng.integers(0, 5, size=rows.shape[0])
        clf = HDClassifier(5, 1200).fit_initial(rows, y)
        if kind == "retrain":
            _, peak = traced_peak(lambda: clf.retrain(rows, y, epochs=3))
        else:
            _, peak = traced_peak(lambda: clf.accuracy(rows, y))
        n, k = rows.shape[0], clf.n_classes
        assert peak <= 2 * 2 ** 20 + 8 * n * k + 8 * n, peak


def _whole_array_retrain(model, rows, y, epochs, learning_rate):
    """Batched retraining as one product of all the unit rows an epoch:
    the expressions the blocked argmax replaced, verbatim."""
    unit = _unit_rows(rows)
    history = []
    for _ in range(epochs):
        sims = unit @ normalize_rows(model).T
        preds = np.argmax(sims, axis=1)
        wrong = np.flatnonzero(preds != y)
        history.append(1.0 - wrong.size / rows.shape[0])
        if wrong.size:
            _add_ordered(
                model, rows, wrong, y[wrong], preds[wrong], scale=learning_rate,
            )
        if history[-1] == 1.0:
            break
    return model, history


def _whole_array_labels(clf, rows):
    """``predict_labels`` as one product of all the unit rows, verbatim."""
    return np.argmax(clf.similarities(rows), axis=1)


#: Table II's pipeline at tier-1 size. A block of 341-dimension rows is
#: 384 rows, fewer than a leaf's 1,200 samples, so calls cross blocks
#: (PECAN's 8-dimension leaves do not; its root and centralized model do).
_PIN_SCALE = ExperimentScale(
    name="pin", data_scale=0.2, max_train=1200, max_test=300,
    dimension=1024, retrain_epochs=5, batch_size=10,
)


class TestBlockedArgmax:
    """The argmax taken one row block at a time equals the one taken over
    a single whole-array product: models, histories and labels."""

    @pytest.mark.parametrize("dtype", [np.int8, np.float64])
    @pytest.mark.parametrize("offset", [-1, 0, 1, "3x+7"])
    def test_row_counts_around_the_block_boundary(self, offset, dtype):
        dimension = 800
        step = _block_rows(dimension)
        n = 3 * step + 7 if offset == "3x+7" else step + offset
        rng = np.random.default_rng(15)
        rows = rng.choice([-1, 1], size=(n, dimension)).astype(dtype)
        if dtype == np.float64:  # an internal node's raw projections
            rows *= rng.random((n, dimension))
        y = rng.integers(0, 5, size=n)
        clf = HDClassifier(5, dimension).fit_initial(rows, y)
        model, history = _whole_array_retrain(
            clf.class_hypervectors.copy(), rows, y, 8, 0.5
        )
        assert clf.retrain(rows, y, epochs=8, learning_rate=0.5) == history
        assert clf.class_hypervectors.tobytes() == model.tobytes()
        want = _whole_array_labels(clf, rows)
        assert np.array_equal(clf.predict_labels(rows), want)
        assert clf.accuracy(rows, y) == float(np.mean(want == y))

    @pytest.mark.parametrize("seed", [7, 8, 9])
    @pytest.mark.parametrize("dataset", HIERARCHY_DATASETS)
    def test_table2_runs_equal_whole_array(self, dataset, seed, monkeypatch):
        """Every batched ``retrain`` and every ``predict_labels`` of a
        Table II run, hierarchy and centralized model alike."""
        retrain, predict_labels = HDClassifier.retrain, HDClassifier.predict_labels
        spans = []

        def checked_retrain(self, encoded, labels, epochs=20,
                            learning_rate=1.0):
            before = self.class_hypervectors.copy()
            history = retrain(self, encoded, labels, epochs, learning_rate)
            model, want = _whole_array_retrain(
                before, np.asarray(encoded), np.asarray(labels),
                epochs, learning_rate,
            )
            assert history == want
            assert self.class_hypervectors.tobytes() == model.tobytes()
            spans.append(len(encoded) > _block_rows(self.dimension))
            return history

        def checked_labels(self, encoded, search=None):
            labels = predict_labels(self, encoded, search=search)
            assert np.array_equal(labels, _whole_array_labels(self, encoded))
            spans.append(len(encoded) > _block_rows(self.dimension))
            return labels

        monkeypatch.setattr(HDClassifier, "retrain", checked_retrain)
        monkeypatch.setattr(HDClassifier, "predict_labels", checked_labels)
        run_table2(datasets=[dataset], scale=_PIN_SCALE, seed=seed)
        assert any(spans), "no call spanned two blocks"


class TestModelManagement:
    def test_set_model_shape_check(self):
        clf = HDClassifier(3, 8)
        with pytest.raises(ValueError):
            clf.set_model(np.ones((2, 8)))
        with pytest.raises(ValueError):
            clf.set_model(np.ones((3, 9)))

    def test_set_model_copies(self):
        clf = HDClassifier(2, 4)
        model = np.ones((2, 4))
        clf.set_model(model)
        model[0, 0] = 99.0
        assert clf.class_hypervectors[0, 0] == 1.0

    def test_copy_is_independent(self, encoded_problem):
        enc, y, dim = encoded_problem
        clf = HDClassifier(3, dim).fit_initial(enc, y)
        clone = clf.copy()
        clone.class_hypervectors[0, 0] += 100.0
        assert clf.class_hypervectors[0, 0] != clone.class_hypervectors[0, 0]

    def test_copy_unfitted(self):
        clone = HDClassifier(2, 8).copy()
        assert clone.class_hypervectors is None

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            HDClassifier(1, 8)
        with pytest.raises(ValueError):
            HDClassifier(2, 0)
        with pytest.raises(ValueError):
            HDClassifier(2, 8, confidence_temperature=0.0)
