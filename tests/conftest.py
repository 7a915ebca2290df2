"""Shared fixtures: small datasets and trained federations.

Fixtures are deliberately small (hundreds of samples, D in the low
hundreds) so the full suite stays fast; the benchmarks exercise
paper-scale parameters.
"""

from __future__ import annotations

import os
import platform
import tracemalloc

import numpy as np
import pytest
import scipy
from scipy.sparse import csr_matrix

from repro.config import EdgeHDConfig
from repro.core import projection
from repro.data import load_dataset, make_classification, partition_features
from repro.hierarchy import (
    EdgeHDFederation,
    Hierarchy,
    HierarchicalInference,
    build_tree,
)


#: BLAS / OpenMP thread settings that can change kernel choice and timing.
_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def pytest_report_header(config):
    """Name the numeric stack in the log: CI installs numpy and scipy
    unpinned, and the bit-exactness pins rest on their kernels (the
    sparsetools binary that runs the int16 CSR product among them)."""
    threads = " ".join(
        f"{name}={os.environ.get(name, '-')}" for name in _THREAD_VARS
    )
    return [
        f"numeric stack: python {platform.python_version()}, "
        f"numpy {np.__version__}, scipy {scipy.__version__}",
        f"CSR kernels: {projection._sparsetools.__file__}",
        f"BLAS threads: {threads}",
    ]


def pytest_terminal_summary(terminalreporter, config):
    """``-q`` (the configured default) hides the header: repeat it last."""
    if config.get_verbosity() < 0:
        for line in pytest_report_header(config):
            terminalreporter.write_line(line)


def csr_dense(matrix) -> np.ndarray:
    """A projection's CSR matrix as a dense array, built by
    ``scipy.sparse``: an oracle that shares nothing with the kernels'
    caller under test."""
    return csr_matrix(
        (matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape
    ).toarray()


@pytest.fixture(scope="session")
def small_data():
    """A small non-linearly separable dataset (features, labels)."""
    return make_classification(
        n_samples=400, n_features=20, n_classes=3, seed=11, name="fixture"
    )


@pytest.fixture(scope="session")
def small_split(small_data):
    """(train_x, train_y, test_x, test_y) split of small_data."""
    x, y = small_data
    return x[:300], y[:300], x[300:], y[300:]


@pytest.fixture(scope="session")
def apri_small():
    """Scaled-down APRI stand-in (36 features, 2 classes, 3 end nodes)."""
    return load_dataset("APRI", scale=0.1, max_train=900, max_test=300, seed=5)


@pytest.fixture(scope="session")
def small_config():
    return EdgeHDConfig(
        dimension=1024, batch_size=10, retrain_epochs=8, seed=17
    )


@pytest.fixture(scope="session")
def trained_federation(apri_small, small_config):
    """A 3-end-node TREE federation trained on the APRI stand-in."""
    partition = partition_features(apri_small.n_features, 3)
    hierarchy = build_tree(3)
    federation = EdgeHDFederation(
        hierarchy, partition, apri_small.n_classes, small_config
    )
    report = federation.fit_offline(apri_small.train_x, apri_small.train_y)
    return federation, report, apri_small


@pytest.fixture(scope="session")
def ragged_cells(apri_small, small_config):
    """Offline walks over a ragged tree, one per escalation-policy cell.

    Depth 4 with a leaf under the root and a leaf under the level-3
    gateway, so some parents sit more than one level above a child and
    ``max_level`` can fall *between* them — the only way a query meets
    a node above the cap. Cells are threshold x ``min_level`` x
    ``max_level`` minus the combinations ``effective_cap`` rejects;
    each is ``(name, inference, max_level, workload, offline outcome)``.
    The serving equivalence tests feed every cell to each runner.
    """
    from repro.serve import make_workload

    hierarchy = Hierarchy()
    root = hierarchy.add_node()
    level3 = hierarchy.add_node(root)
    hierarchy.add_node(root, leaf_index=0)
    level2 = hierarchy.add_node(level3)
    hierarchy.add_node(level3, leaf_index=1)
    hierarchy.add_node(level2, leaf_index=2)
    hierarchy.add_node(level2, leaf_index=3)
    hierarchy.finalize()
    assert hierarchy.depth == 4
    federation = EdgeHDFederation(
        hierarchy,
        partition_features(apri_small.n_features, 4),
        apri_small.n_classes,
        small_config,
    )
    federation.fit_offline(apri_small.train_x, apri_small.train_y)
    features = apri_small.test_x[:48]
    cells = []
    for threshold in (0.3, 0.9, 1.0):
        for min_level in (1, 2, 3):
            inference = HierarchicalInference(
                federation, confidence_threshold=threshold,
                min_level=min_level,
            )
            workload = make_workload(features, inference, seed=9)
            for max_level in (None, 1, 2, 3, 4):
                if max_level is not None and max_level < min_level:
                    continue
                offline = inference.run(
                    features, start_leaves=workload.start_leaves,
                    max_level=max_level,
                )
                cells.append((
                    f"{threshold}/{min_level}/{max_level}",
                    inference, max_level, workload, offline,
                ))
    assert len(cells) == 36
    # The fall-through must run: somewhere the root decides although it
    # sits above the cap (e.g. 0.3/2/2: the root's own leaf only senses).
    assert any(
        max_level is not None
        and np.any(
            (offline.deciding_node == root)
            & (offline.deciding_level > max_level)
        )
        for _, _, max_level, _, offline in cells
    )
    return cells


@pytest.fixture()
def rng():
    return np.random.default_rng(123)


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` -> ``(fn(), bytes)``: how far the traced heap
    rose above its level at the call while ``fn`` ran. numpy reports
    its array buffers to ``tracemalloc``, so this is the peak of every
    array ``fn`` allocates, kept or not."""

    def measure(fn):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            result = fn()
            return result, tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()

    return measure
