"""Dense vs packed backend equivalence on binarized models.

The contract (see HDClassifier): after ``binarize_model()``, dense
cosine and the XOR+popcount kernel compute the same similarities on
bipolar queries, so predictions — and therefore every hierarchical
escalation decision built on their confidences — must coincide.
"""

import numpy as np
import pytest

import repro.obs as obs
from repro.core.classifier import HDClassifier
from repro.core.encoding import RBFEncoder
from repro.core.hypervector import random_bipolar
from repro.core.kernels import pack_bits, packed_dot
from repro.core.search import SearchSpec
from repro.data import make_classification, partition_features
from repro.hierarchy import (
    EdgeHDFederation,
    HierarchicalInference,
    build_tree,
)


DENSE = SearchSpec(backend="dense")
PACKED = SearchSpec(backend="packed")


def _binarize(encoded: np.ndarray) -> np.ndarray:
    """Kernel sign convention: > 0 maps to +1, everything else to -1."""
    return np.where(np.asarray(encoded) > 0, 1.0, -1.0)


def _untied(clf: HDClassifier, queries: np.ndarray) -> np.ndarray:
    """Mask of queries whose top similarity is unique.

    Computed with the exact integer kernel. On tied rows the dense
    backend's argmax depends on ~1e-16 float rounding, so the
    equivalence guarantee is scoped to untied rows — where it is
    *exact* — plus the weaker guarantee that tied rows still pick a
    maximal class under both backends.
    """
    dots = packed_dot(pack_bits(queries), pack_bits(clf.class_hypervectors))
    return (dots == dots.max(axis=1, keepdims=True)).sum(axis=1) == 1


def _assert_equivalent_labels(clf, queries):
    dense = clf.predict_labels(queries, search=DENSE)
    packed = clf.predict_labels(queries, search=PACKED)
    mask = _untied(clf, queries)
    # The overwhelming majority of real queries are untied; guard the
    # test's own strength.
    assert mask.mean() > 0.9
    assert np.array_equal(dense[mask], packed[mask])
    # Tied rows: both backends still picked a maximal class.
    dots = packed_dot(pack_bits(queries), pack_bits(clf.class_hypervectors))
    top = dots.max(axis=1)
    rows = np.arange(len(queries))
    assert (dots[rows, dense] == top).all()
    assert (dots[rows, packed] == top).all()


@pytest.fixture(scope="module")
def trained_binary_classifier():
    """An HDClassifier trained on encoded data, then binarized."""
    x, y = make_classification(
        n_samples=300, n_features=12, n_classes=4, seed=21, name="equiv"
    )
    encoder = RBFEncoder(12, 768, seed=22)
    enc = _binarize(encoder.encode(x))
    clf = HDClassifier(4, 768).fit_initial(enc, y)
    clf.retrain(enc, y, epochs=5)
    clf.binarize_model()
    return clf, enc, y


class TestClassifierEquivalence:
    def test_similarities_match(self, trained_binary_classifier):
        clf, enc, _ = trained_binary_classifier
        dense = clf.similarities(enc, search=DENSE)
        packed = clf.similarities(enc, search=PACKED)
        assert np.allclose(dense, packed, atol=1e-12)

    def test_labels_identical(self, trained_binary_classifier):
        clf, enc, _ = trained_binary_classifier
        _assert_equivalent_labels(clf, enc)

    def test_confidences_match(self, trained_binary_classifier):
        clf, enc, _ = trained_binary_classifier
        assert np.allclose(
            clf.predict_proba(enc, search=DENSE),
            clf.predict_proba(enc, search=PACKED),
            atol=1e-9,
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_labels_identical_fresh_queries(
        self, trained_binary_classifier, seed
    ):
        clf, _, _ = trained_binary_classifier
        queries = random_bipolar(768, count=200, seed=seed).astype(float)
        _assert_equivalent_labels(clf, queries)

    def test_default_backend_constructor(self, trained_binary_classifier):
        clf, enc, _ = trained_binary_classifier
        packed_clf = clf.copy()
        packed_clf.search = PACKED
        assert np.array_equal(
            packed_clf.predict_labels(enc),
            clf.predict_labels(enc, search=PACKED),
        )

    def test_unknown_backend_rejected(self, trained_binary_classifier):
        clf, enc, _ = trained_binary_classifier
        with pytest.raises(ValueError):
            clf.predict(enc, search=SearchSpec(backend="sparse"))
        with pytest.raises(ValueError):
            HDClassifier(2, 64, search=SearchSpec(backend="sparse"))


@pytest.fixture(scope="module")
def binarized_federation():
    """A trained 3-leaf TREE federation with every node binarized."""
    from repro.config import EdgeHDConfig
    from repro.data import load_dataset

    data = load_dataset(
        "APRI", scale=0.1, max_train=700, max_test=250, seed=31
    )
    config = EdgeHDConfig(
        dimension=512, batch_size=10, retrain_epochs=5, seed=33
    )
    partition = partition_features(data.n_features, 3)
    federation = EdgeHDFederation(
        build_tree(3), partition, data.n_classes, config
    )
    federation.fit_offline(data.train_x, data.train_y)
    for clf in federation.classifiers.values():
        clf.binarize_model()
    return federation, data


class TestHierarchicalEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identical_escalation_decisions(self, binarized_federation, seed):
        federation, data = binarized_federation
        encodings = {
            node_id: _binarize(enc)
            for node_id, enc in federation.encode_all(data.test_x).items()
        }
        outcomes = {}
        for spec in (DENSE, PACKED):
            inference = HierarchicalInference(
                federation, confidence_threshold=0.6, search=spec
            )
            outcomes[spec.backend] = inference.run(
                data.test_x, seed=seed, encodings=encodings
            )
        dense, packed = outcomes["dense"], outcomes["packed"]
        assert np.array_equal(dense.labels, packed.labels)
        assert np.array_equal(dense.deciding_node, packed.deciding_node)
        assert np.array_equal(dense.deciding_level, packed.deciding_level)
        assert np.allclose(dense.confidence, packed.confidence, atol=1e-9)
        # Same escalations => same wire traffic, message for message.
        assert dense.messages == packed.messages

    def test_invalid_backend_rejected(self, binarized_federation):
        federation, _ = binarized_federation
        with pytest.raises(ValueError):
            HierarchicalInference(
                federation, search=SearchSpec(backend="dense2")
            )


class TestPackedObservability:
    def test_packed_path_increments_counters(self, binarized_federation):
        federation, data = binarized_federation
        inference = HierarchicalInference(
            federation, confidence_threshold=0.95, search=PACKED
        )
        was_enabled = obs.enabled()
        obs.enable()
        try:
            before = obs.snapshot()
            outcome = inference.run(data.test_x[:64], seed=7)
            after = obs.snapshot()
        finally:
            if not was_enabled:
                obs.disable()

        def value(snap, name):
            return snap.get(name, {}).get("value", 0)

        delta = value(after, "core.similarity.packed_queries") - value(
            before, "core.similarity.packed_queries"
        )
        # The cohort walk classifies each query once at its entry node
        # plus once per escalation hop — never the whole batch at every
        # node.
        expected = 64 + sum(outcome.escalations.values())
        assert delta == expected
        assert delta < 64 * len(federation.classifiers)
        assert value(after, "core.similarity.queries") >= value(
            before, "core.similarity.queries"
        ) + delta
        assert (
            value(after, "hierarchy.inference.queries")
            - value(before, "hierarchy.inference.queries")
            == 64
        )
        # Threshold 0.95 forces escalations on this small model.
        escalated = sum(
            value(after, k) - value(before, k)
            for k in after
            if k.startswith("hierarchy.escalations.l")
        )
        assert escalated > 0
