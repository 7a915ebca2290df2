"""SearchSpec API contract: validation and resolution order."""

import dataclasses

import numpy as np
import pytest

from repro.core.classifier import HDClassifier
from repro.core.hypervector import random_bipolar
from repro.core.kernels import pack_bits, packed_similarities
from repro.core.model import EdgeHDModel
from repro.core.search import (
    BACKENDS,
    SearchSpec,
    get_default_search,
    resolve_search,
    set_default_search,
)


@pytest.fixture(autouse=True)
def _isolate_search_state():
    """Each test sees the stock process default."""
    previous = set_default_search(SearchSpec())
    yield
    set_default_search(previous)


class TestSearchSpecValidation:
    def test_default_is_dense_unpruned(self):
        spec = SearchSpec()
        assert spec.backend == "dense"
        assert [f.name for f in dataclasses.fields(spec)] == ["backend"]

    def test_constants(self):
        assert BACKENDS == ("dense", "packed")

    @pytest.mark.parametrize("backend", ["gpu", "", "DENSE"])
    def test_rejects_unknown_backend(self, backend):
        with pytest.raises(ValueError, match="backend must be one of"):
            SearchSpec(backend=backend)

    def test_rejects_unknown_prune(self):
        # PR 19 removed the prune modes: the keyword itself is unknown.
        with pytest.raises(TypeError, match="prune"):
            SearchSpec(backend="packed", prune="exact")  # type: ignore[call-arg]

    def test_frozen(self):
        spec = SearchSpec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.backend = "packed"

    def test_describe_forms(self):
        assert SearchSpec().describe() == "dense"
        assert SearchSpec(backend="packed").describe() == "packed"

    def test_to_metadata_roundtrips(self):
        spec = SearchSpec(backend="packed")
        meta = spec.to_metadata()
        assert SearchSpec(**meta) == spec
        assert set(meta) == {"backend"}


class TestResolveSearch:
    def test_spec_wins_outright(self):
        spec = SearchSpec(backend="packed")
        assert resolve_search(spec) is spec

    def test_falls_back_to_default_argument(self):
        default = SearchSpec(backend="packed")
        assert resolve_search(None, default=default) is default

    def test_falls_back_to_process_default(self):
        assert resolve_search() is get_default_search()
        installed = SearchSpec(backend="packed")
        set_default_search(installed)
        assert resolve_search() is installed

    def test_rejects_non_spec_search(self):
        for bad in (42, "packed"):
            with pytest.raises(TypeError, match="must be a SearchSpec"):
                resolve_search(bad)  # type: ignore[arg-type]


class TestProcessDefault:
    def test_set_returns_previous(self):
        stock = get_default_search()
        installed = SearchSpec(backend="packed")
        assert set_default_search(installed) == stock
        assert get_default_search() is installed

    def test_set_rejects_non_spec(self):
        with pytest.raises(TypeError, match="must be a SearchSpec"):
            set_default_search("packed")  # type: ignore[arg-type]


class TestObjectIntegration:
    def _fitted(self, dimension=256, n_classes=4, **kwargs):
        clf = HDClassifier(n_classes, dimension, **kwargs)
        clf.set_model(
            random_bipolar(
                dimension, count=n_classes, seed=3
            ).astype(float)
        )
        return clf

    def test_classifier_resolution_order_per_call_wins(self):
        clf = self._fitted(search=SearchSpec(backend="dense"))
        # Real-valued queries: the packed path sign-quantizes them, so
        # its similarities are not the dense cosines.
        queries = np.random.default_rng(9).normal(size=(8, 256))
        sims = clf.similarities(queries, search=SearchSpec(backend="packed"))
        np.testing.assert_array_equal(
            sims,
            packed_similarities(
                pack_bits(queries), pack_bits(clf.class_hypervectors)
            ),
        )
        assert not np.array_equal(sims, clf.similarities(queries))

    def test_classifier_built_from_process_default(self):
        set_default_search(SearchSpec(backend="packed"))
        clf = self._fitted()
        assert clf.search == SearchSpec(backend="packed")

    def test_model_conforms_to_search_aware_protocol(self):
        model = EdgeHDModel(n_features=8, n_classes=3, dimension=128, seed=1)
        assert model.search == SearchSpec()
        with pytest.raises(TypeError, match="SearchSpec"):
            model.search = "packed"  # type: ignore[assignment]
        model.search = SearchSpec(backend="packed")
        assert model.classifier.search.backend == "packed"
