"""Unit tests for utilities: rng, tables, validation, config."""

import dataclasses

import numpy as np
import pytest

from repro.config import DEFAULT_CONFIG, EdgeHDConfig
from repro.utils.rng import derive_rng, spawn_seeds
from repro.utils.tables import format_table
from repro.utils.validation import (
    check_fitted,
    check_labels,
    check_matrix,
    check_positive,
    check_probability,
    check_vector,
)


class TestRng:
    def test_same_seed_tag_same_stream(self):
        a = derive_rng(7, "x").random(5)
        b = derive_rng(7, "x").random(5)
        assert np.array_equal(a, b)

    def test_different_tags_different_streams(self):
        a = derive_rng(7, "x").random(5)
        b = derive_rng(7, "y").random(5)
        assert not np.array_equal(a, b)

    def test_nearby_seeds_unrelated(self):
        a = derive_rng(100, "t").random(1000)
        b = derive_rng(101, "t").random(1000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert derive_rng(gen) is gen

    def test_generator_with_tag_derives(self):
        gen = np.random.default_rng(1)
        derived = derive_rng(gen, "sub")
        assert derived is not gen

    def test_none_uses_default(self):
        a = derive_rng(None, "z").random(3)
        b = derive_rng(None, "z").random(3)
        assert np.array_equal(a, b)

    def test_bad_seed_type(self):
        with pytest.raises(TypeError):
            derive_rng("seed", "x")

    def test_spawn_seeds(self):
        seeds = spawn_seeds(5, 10)
        assert len(seeds) == 10
        assert len(set(seeds)) == 10

    def test_spawn_seeds_deterministic(self):
        assert spawn_seeds(5, 4) == spawn_seeds(5, 4)

    def test_spawn_negative_count(self):
        with pytest.raises(ValueError):
            spawn_seeds(1, -1)


class TestTables:
    def test_format_table_basic(self):
        out = format_table(["a", "bb"], [[1, 2.5], [3, 4.125]], ndigits=2)
        assert "| a | bb   |" in out
        assert "4.12" in out

    def test_title(self):
        out = format_table(["x"], [[1]], title="My Table")
        assert out.startswith("My Table")

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])


class TestValidation:
    def test_check_positive(self):
        assert check_positive("x", 1.5) == 1.5
        with pytest.raises(ValueError):
            check_positive("x", 0)
        assert check_positive("x", 0, allow_zero=True) == 0
        with pytest.raises(ValueError):
            check_positive("x", float("nan"))

    def test_check_probability(self):
        assert check_probability("p", 0.5) == 0.5
        with pytest.raises(ValueError):
            check_probability("p", -0.1)
        with pytest.raises(ValueError):
            check_probability("p", 1.1)

    def test_check_vector(self):
        v = check_vector("v", [1, 2, 3], length=3)
        assert v.dtype == np.float64
        with pytest.raises(ValueError):
            check_vector("v", [[1, 2]])
        with pytest.raises(ValueError):
            check_vector("v", [1, 2], length=3)

    def test_check_matrix(self):
        m = check_matrix("m", [[1, 2], [3, 4]], cols=2)
        assert m.shape == (2, 2)
        promoted = check_matrix("m", [1, 2, 3])
        assert promoted.shape == (1, 3)
        with pytest.raises(ValueError):
            check_matrix("m", [[1, 2]], cols=3)
        with pytest.raises(ValueError):
            check_matrix("m", np.zeros((2, 2, 2)))

    def test_check_fitted(self):
        class Thing:
            model = None

        with pytest.raises(RuntimeError):
            check_fitted(Thing(), "model")
        thing = Thing()
        thing.model = 1
        check_fitted(thing, "model")

    def test_check_labels(self):
        y = check_labels("y", [0, 1, 2], n_classes=3)
        assert y.dtype == np.int64
        with pytest.raises(ValueError):
            check_labels("y", [0.5, 1.0])
        with pytest.raises(ValueError):
            check_labels("y", [-1, 0])
        with pytest.raises(ValueError):
            check_labels("y", [0, 3], n_classes=3)
        with pytest.raises(ValueError):
            check_labels("y", [[0, 1]])

    def test_check_labels_float_integers_ok(self):
        y = check_labels("y", np.array([0.0, 1.0, 2.0]))
        assert np.array_equal(y, [0, 1, 2])


class TestConfig:
    def test_paper_defaults(self):
        """Sec. VI-A default parameters."""
        assert DEFAULT_CONFIG.dimension == 4000
        assert DEFAULT_CONFIG.batch_size == 75
        assert DEFAULT_CONFIG.compression_count == 25
        assert DEFAULT_CONFIG.confidence_threshold == 0.75
        assert DEFAULT_CONFIG.sparsity == 0.8
        assert DEFAULT_CONFIG.retrain_epochs == 20

    def test_with_overrides(self):
        cfg = DEFAULT_CONFIG.with_overrides(dimension=1000)
        assert cfg.dimension == 1000
        assert cfg.batch_size == DEFAULT_CONFIG.batch_size
        assert DEFAULT_CONFIG.dimension == 4000  # original untouched

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_CONFIG.dimension = 1

    def test_validation(self):
        with pytest.raises(ValueError):
            EdgeHDConfig(dimension=0)
        with pytest.raises(ValueError):
            EdgeHDConfig(confidence_threshold=2.0)
        with pytest.raises(ValueError):
            EdgeHDConfig(encoder="mystery")
        with pytest.raises(ValueError):
            EdgeHDConfig(sparsity=1.5)
