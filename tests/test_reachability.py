"""The reachability table (``tools/reachability.py``) and its recorder.

The full run over every entry point takes minutes and is CI's
``reachability`` job. Here: every ``KEEP`` entry names a ``src/``
definition and carries checkable evidence, and the recorder, run on a
small synthetic package, flags a function that never ran and an entry
that went stale.
"""

from __future__ import annotations

import ast
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("reachability", ROOT / "tools" / "reachability.py")
reachability = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reachability)

KEEP = reachability.KEEP


def _test_node_exists(node: str) -> bool:
    """``tests/x.py::Class::test[param]`` names a test function there."""
    path, *names = node.split("::")
    file = ROOT / path
    if not (path.startswith("tests/") and file.is_file() and names):
        return False
    names[-1] = names[-1].partition("[")[0]
    scope: ast.AST = ast.parse(file.read_text())
    for name in names:
        found = [
            child for child in ast.iter_child_nodes(scope)
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)) and child.name == name
        ]
        if not found:
            return False
        scope = found[0]
    return isinstance(scope, ast.FunctionDef)


def test_every_entry_names_a_src_definition():
    defined = reachability.units(reachability.PACKAGE)
    assert sorted(set(KEEP) - set(defined)) == []


@pytest.mark.parametrize("name", sorted(
    name for name, why in KEEP.items() if isinstance(why, (reachability.Error, reachability.Oracle))
))
def test_an_error_or_oracle_entry_names_an_existing_test(name):
    assert _test_node_exists(KEEP[name].test), KEEP[name].test


@pytest.mark.parametrize("name", sorted(
    name for name, why in KEEP.items() if isinstance(why, reachability.Docs)
))
def test_a_docs_entry_names_a_page_that_shows_it(name):
    page = ROOT / KEEP[name].page
    assert page.is_file(), KEEP[name].page
    assert name.rpartition(".")[2].rpartition("::")[2] in page.read_text()


def test_every_entry_has_a_known_kind_and_a_reason():
    kinds = (reachability.Error, reachability.Declaration, reachability.Oracle, reachability.Docs)
    for name, why in KEEP.items():
        assert isinstance(why, kinds), name
        assert all(str(value).strip() for value in vars(why).values()), name


PACKAGE = '''\
import multiprocessing
from concurrent.futures import ProcessPoolExecutor


def used():
    def nested():
        return 1
    return nested()


def never():
    return 2


def kept():
    raise RuntimeError("an error path")


def ran_but_kept():
    return 3


def in_worker(x):
    return x + 1


class K:
    def __init__(self):
        self.x = 1

    def method(self):
        return self.x

    def __repr__(self):
        return "K()"


def run_in_a_spawned_worker():
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(in_worker, [1]))
'''

SCRIPT = '''\
from pkg import mod

if __name__ == "__main__":
    mod.used()
    mod.ran_but_kept()
    mod.K()
    assert mod.run_in_a_spawned_worker() == [2]
'''


@pytest.fixture(scope="module")
def synthetic(tmp_path_factory):
    """``(package dir, never-run units)`` of a recorded synthetic run."""
    tmp = tmp_path_factory.mktemp("reach")
    src = tmp / "src"
    (src / "pkg").mkdir(parents=True)
    (src / "pkg" / "__init__.py").write_text("")
    (src / "pkg" / "mod.py").write_text(PACKAGE)
    (tmp / "main.py").write_text(SCRIPT)
    out, work = tmp / "recordings", tmp / "work"
    out.mkdir()
    work.mkdir()
    entry = reachability.Entry("synthetic", ("{py}", str(tmp / "main.py")))
    failed = reachability.run_entries([entry], out, src, src / "pkg", work)
    assert failed == []
    assert len(list(out.glob("*.txt"))) >= 2, "the spawned worker wrote no recording"
    ran = reachability.read_recordings(out)
    return src / "pkg", reachability.never_run(src / "pkg", ran)


class TestRecorder:
    def test_the_never_run_functions_are_found(self, synthetic):
        _package, missing = synthetic
        # nested() counts with used(); __repr__ is exempt; in_worker ran
        # only in the spawned worker.
        assert sorted(missing) == ["mod.py::K.method", "mod.py::kept", "mod.py::never"]

    def test_an_unjustified_function_and_a_stale_entry_both_fail(self, synthetic, capsys):
        package, missing = synthetic
        why = reachability.Declaration("synthetic")
        keep = {"mod.py::kept": why, "mod.py::ran_but_kept": why, "mod.py::gone": why}
        unjustified, stale = reachability.check(missing, keep, reachability.units(package))
        assert unjustified == ["mod.py::K.method", "mod.py::never"]
        assert stale == ["mod.py::gone", "mod.py::ran_but_kept"]
        assert reachability.report(missing, keep, package) == 1

    def test_a_complete_table_passes(self, synthetic):
        package, missing = synthetic
        keep = {name: reachability.Declaration("synthetic") for name in missing}
        assert reachability.report(missing, keep, package) == 0
