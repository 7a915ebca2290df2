"""The driver census (``benchmarks/census.py``) on a tiny package.

The census itself runs every driver (minutes; CI's ``census`` job).
These tests run only its hook and its bookkeeping: one driver process,
that forks one child, over a five-function package.
"""

import importlib.util
import io
import subprocess
import sys
from pathlib import Path

import pytest

_CENSUS = Path(__file__).resolve().parent.parent / "benchmarks" / "census.py"

_MODULE = '''\
import functools


def deco(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        return fn(*args)
    return wrapper


def used():
    return 1


def unused():
    return 2


@deco
@deco
def decorated():
    return 3


def parent_unrun():
    def child():
        return 4
    return child


def child_only():
    return 5
'''

_DRIVER = '''\
import os

import pkg.mod as mod

mod.used()
mod.decorated()
pid = os.fork()
if pid == 0:
    mod.child_only()
    os._exit(0)
os.waitpid(pid, 0)
'''


@pytest.fixture(scope="module")
def census():
    spec = importlib.util.spec_from_file_location("census", _CENSUS)
    module = importlib.util.module_from_spec(spec)
    sys.modules["census"] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def ran(census, tmp_path_factory):
    """(functions of the package, records of one driver run)."""
    root = tmp_path_factory.mktemp("census")
    (root / "pkg").mkdir()
    (root / "pkg" / "__init__.py").write_text("")
    (root / "pkg" / "mod.py").write_text(_MODULE)
    (root / "driver.py").write_text(_DRIVER)
    hook_dir, out_dir = root / "hook", root / "records"
    out_dir.mkdir()
    census.write_hook(hook_dir)
    env = census.hook_env(hook_dir, out_dir, root / "pkg", [root])
    subprocess.run(
        [sys.executable, "driver.py"], cwd=root, env=env, check=True,
        timeout=60,
    )
    records = census.read_records(out_dir, root)
    return census.functions(root / "pkg"), records


def _never_run(census, ran):
    fns, records = ran
    return sorted(f.qualname for f in census.never_run(fns, records))


def test_an_unrun_function_is_listed(census, ran):
    assert "pkg.mod.unused" in _never_run(census, ran)


def test_a_decorated_function_that_ran_is_not_listed(census, ran):
    never = _never_run(census, ran)
    assert "pkg.mod.decorated" not in never
    assert "pkg.mod.used" not in never


def test_a_nested_function_of_an_unrun_parent_counts_once(census, ran):
    never = _never_run(census, ran)
    assert "pkg.mod.parent_unrun" in never
    assert "pkg.mod.parent_unrun.child" not in never


def test_a_child_leaving_by_os_exit_reports_its_calls(census, ran):
    assert "pkg.mod.child_only" not in _never_run(census, ran)


def test_check_fails_on_unheld_and_on_stale_holds(census, ran):
    fns, records = ran
    held = {"pkg.mod.unused": "test", "pkg.mod.parent_unrun": "test"}
    assert census.check(fns, records, held, {}, out=io.StringIO()) == 0
    assert census.check(
        fns, records, {"pkg.mod.unused": "test"}, {}, out=io.StringIO()
    ) == 1
    for stale in ("pkg.mod.used", "pkg.mod.gone"):
        out = io.StringIO()
        status = census.check(
            fns, records, {**held, stale: "test"}, {}, out=out
        )
        assert status == 1
        assert f"STALE HELD {stale}" in out.getvalue()
