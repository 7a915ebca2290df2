"""Guard: the program loads scipy's compiled CSR kernels, not ``scipy.sparse``.

Importing ``scipy.sparse`` runs its vendored ``array_api_compat.numpy``,
which clones numpy's namespace and so imports ``numpy.f2py``,
``numpy.testing``, ``numpy.ma`` and more: about 14 MiB resident and
0.2 s in every process. ``repro.core.projection`` loads only the
``scipy/sparse/_sparsetools`` extension. Each import check runs in a
fresh interpreter, because this test process imports ``scipy.sparse``
for its oracle.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.core.projection as projection_module
from repro.core.projection import TernaryProjection

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def test_serving_imports_leave_scipy_sparse_out():
    loaded = json.loads(_run(
        "import json, sys\n"
        "import repro, repro.serve, repro.hierarchy, repro.data\n"
        "print(json.dumps([name for name in ('scipy.sparse', 'numpy.f2py')"
        " if name in sys.modules]))\n"
    ))
    assert loaded == []


#: Fits a small federation, walks it offline and serves one burst;
#: prints which of numpy's optional subpackages the process loaded.
_FIT_WALK_SERVE = """
import json, sys
import numpy as np
from repro.config import EdgeHDConfig
from repro.data import make_classification, partition_features
from repro.hierarchy import EdgeHDFederation, HierarchicalInference, build_tree
from repro.network.medium import get_medium
from repro.serve import ServeConfig, ServingRuntime, make_workload
x, y = make_classification(
    n_samples=120, n_features=12, n_classes=3, seed=4, name="footprint")
federation = EdgeHDFederation(
    build_tree(3), partition_features(12, 3), 3,
    EdgeHDConfig(dimension=256, batch_size=10, retrain_epochs=1, seed=5))
federation.fit_offline(x, y)
inference = HierarchicalInference(federation)
inference.run(x[:40], start_leaves=np.full(40, federation.hierarchy.leaves()[0]))
runtime = ServingRuntime(
    inference, get_medium("wired-1gbps"), ServeConfig(max_batch=8))
result = runtime.serve_open_loop(make_workload(x[:40], inference, seed=6),
                                 rate_rps=2000.0, seed=6)
assert result.n_total == 40
print(json.dumps([name for name in ('numpy.ma', 'scipy.sparse')
                  if name in sys.modules]))
"""


def test_fit_walk_and_serve_leave_numpy_ma_out():
    """Under numpy 2.4 a bare ``np.unique`` imports ``numpy.ma``
    (1.25 MiB resident, 8 ms): fitting, the offline walk and serving
    sort their ids with ``bincount`` instead."""
    assert json.loads(_run(_FIT_WALK_SERVE)) == []


#: Projects int8 and float64 rows and checks both against the dense
#: product of scipy's own densified matrix; then checks that
#: ``scipy.sparse``'s ``@`` still works beside the loaded kernels.
_PROJECT_AND_MULTIPLY = """
import numpy as np
from repro.core.hypervector import random_bipolar
from repro.core.projection import TernaryProjection
proj = TernaryProjection(600, 500, zero_fraction=1.0 - 64 / 600, seed=22)
m = proj.matrix
assert m.data.dtype == np.int16
csr = scipy.sparse.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)
dense_t = csr.toarray().T.astype(np.float64)
x = random_bipolar(600, count=9, seed=23)
for rows in (x, x[0], x.astype(np.float64), x[0].astype(np.float64)):
    want = (rows.astype(np.float64) @ dense_t) * proj._scale
    assert proj.project(rows).tobytes() == want.tobytes()
assert np.array_equal(csr @ x.T.astype(np.int16), (x @ dense_t).T)
"""


@pytest.mark.parametrize("scipy_first", [True, False], ids=["before", "after"])
def test_scipy_sparse_imported_before_or_after(scipy_first):
    """Either order projects bit for bit, and a process that imported
    ``scipy.sparse`` first lends its kernels module to the projection."""
    if scipy_first:
        code = (
            "import sys, scipy.sparse\n"
            "import repro.core.projection as p\n"
            "assert p._sparsetools is sys.modules['scipy.sparse._sparsetools']\n"
        )
    else:
        code = "import repro.core.projection\nimport scipy.sparse\n"
    _run(code + _PROJECT_AND_MULTIPLY)


def test_missing_kernels_raise_import_error(monkeypatch, tmp_path):
    """A scipy without the extension fails at import, naming where it
    looked; there is no second kernel path to fall back to."""
    fake = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    fake.submodule_search_locations = [str(tmp_path)]
    monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools")
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: fake)
    with pytest.raises(ImportError, match=str(tmp_path / "sparse")):
        projection_module._load_sparsetools()


def test_size_counts_the_stored_values():
    """``benchmarks/e2e/layers.py`` reads ``projection.matrix.size`` for
    ``core.project.operand_mib``: the stored values, as scipy counts a
    sparse matrix's, not the dense ``out x in``."""
    matrix = TernaryProjection(600, 500, zero_fraction=0.5, seed=5).matrix
    assert matrix.size == matrix.nnz == np.diff(matrix.indptr).sum()
    assert matrix.size < 600 * 500
