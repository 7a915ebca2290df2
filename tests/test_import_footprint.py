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


#: Projects int8 and float64 rows and checks both against the dense
#: product of scipy's own densified matrix; then checks that
#: ``scipy.sparse``'s ``@`` still works beside the loaded kernels.
_PROJECT_AND_MULTIPLY = """
import numpy as np
from repro.core.hypervector import random_bipolar
from repro.core.projection import TernaryProjection
proj = TernaryProjection(600, 500, zero_fraction=1.0 - 64 / 600, seed=22)
m = proj.matrix
assert m.dtype == np.int16
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
