"""The ratchet on code that only tests reach.

Every module-level function, class and method under ``src/`` must be
referenced from ``src/``, ``examples/``, ``tools/`` or ``benchmarks/``
somewhere outside its own definition; tests do not count as a caller.
A reference is an identifier in code or inside a string literal (a
``getattr`` target, a registry key), taken by name: ``x.close`` keeps
every ``close`` method alive. A docstring (the first string statement
of a module, class or function) is documentation, not a caller. The
import and ``__all__`` lines of an ``__init__.py``, and the name table
it hands :func:`repro.lazy_exports`, only re-export a name and are not
references. Dunder methods are called by the language
and are not checked.

Every defaulted parameter of such a function or method must be set
somewhere in the same trees: its name is a keyword argument of a call,
a string key of a dict literal or of a ``d["key"] = ...`` store, or a
call to the function's name (the class name for ``__init__``) passes
it by position. A default nobody overrides is a constant.

A name or parameter with no caller that must stay goes in
:data:`ALLOWLIST` or :data:`PARAMETER_ALLOWLIST` with its reason; an
entry that is no longer needed fails as well.
"""

from __future__ import annotations

import ast
import pathlib
import re
from typing import Dict, Iterator, List, Set, Tuple

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src", "examples", "tools", "benchmarks")

#: qualified name (``function``, ``Class`` or ``Class.method``) -> why it
#: stays without a caller.
ALLOWLIST = {
    "RenoCC": "registered by @register_cc; make_congestion_control reaches it by name",
    "CubicCC": "registered by @register_cc; make_congestion_control reaches it by name",
    "DCTCPCC": "registered by @register_cc; make_congestion_control reaches it by name",
    "write_trace": "docs/workloads.md and CI's workload-smoke job write traces with it",
}

#: ``qualified name(parameter)`` -> why its default stays overridable
#: although nothing outside the tests overrides it.
PARAMETER_ALLOWLIST = {
    "CampaignLog.__init__(clock)": "the seam through which tests substitute a fake wall clock",
    "main(argv)": "the seam through which tests drive the CLI without a process (sys.argv otherwise)",
}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

Owners = Tuple[str, ...]
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_reexport(node: ast.stmt) -> bool:
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    return isinstance(node, ast.Assign) and (
        any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
        or _lazy_exports_call(node) is not None
    )


def _lazy_exports_call(node: ast.stmt):
    """The ``lazy_exports(...)`` call an ``__init__.py`` assigns, if
    ``node`` is that assignment."""
    value = getattr(node, "value", None)
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
            and value.func.id == "lazy_exports":
        return value
    return None


def _docstrings(tree: ast.AST) -> Set[int]:
    """``id`` of every docstring constant under ``tree``."""
    found: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef) + _FUNCTIONS) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                found.add(id(first.value))
    return found


def _identifiers(tree: ast.AST, docstrings: Set[int]) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                names.update(_IDENT.findall(node.value))
    return names


def _sources(root: pathlib.Path) -> Iterator[Tuple[str, ast.Module]]:
    for top in SCANNED:
        for path in sorted((root / top).rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            yield rel, ast.parse(path.read_text(), rel)


def _scan(root: pathlib.Path) -> Tuple[List[Tuple[str, str]], Dict[str, Dict[str, Set[Owners]]]]:
    """``(definitions, references)``: every checked definition as
    ``(file, qualified name)``, and per file each identifier with the
    definitions enclosing its occurrences (``()`` at module level)."""
    definitions: List[Tuple[str, str]] = []
    references: Dict[str, Dict[str, Set[Owners]]] = {}
    for rel, tree in _sources(root):
        refs: Dict[str, Set[Owners]] = {}
        in_init = rel.endswith("__init__.py")
        docstrings = _docstrings(tree)

        def note(node: ast.AST, owners: Owners) -> None:
            for name in _identifiers(node, docstrings):
                refs.setdefault(name, set()).add(owners)

        for stmt in tree.body:
            if in_init and _is_reexport(stmt):
                call = _lazy_exports_call(stmt)
                if call is not None:
                    note(call.func, ())  # the resolver is called; its name table is not
                continue
            if isinstance(stmt, _FUNCTIONS):
                definitions.append((rel, stmt.name))
                note(stmt, (stmt.name,))
            elif isinstance(stmt, ast.ClassDef):
                definitions.append((rel, stmt.name))
                for item in stmt.decorator_list + stmt.bases + stmt.keywords:
                    note(item, (stmt.name,))
                for member in stmt.body:
                    if isinstance(member, _FUNCTIONS):
                        qualified = f"{stmt.name}.{member.name}"
                        if not (member.name.startswith("__") and member.name.endswith("__")):
                            definitions.append((rel, qualified))
                        note(member, (stmt.name, qualified))
                    else:
                        note(member, (stmt.name,))
            else:
                note(stmt, ())
        references[rel] = refs
    return [d for d in definitions if d[0].startswith("src/")], references


def unreferenced(root: pathlib.Path = ROOT) -> Dict[str, str]:
    """qualified name -> defining file, for every definition in ``src/``
    that nothing outside its own definition names."""
    definitions, references = _scan(root)
    out: Dict[str, str] = {}
    for rel, qualified in definitions:
        name = qualified.rpartition(".")[2]
        referenced = any(
            owners_seen
            and (path != rel or any(qualified not in owners for owners in owners_seen))
            for path, refs in references.items()
            for owners_seen in (refs.get(name),)
        )
        if not referenced:
            out[qualified] = rel
    return out


def _callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _defaulted(function: ast.FunctionDef, is_method: bool) -> Iterator[Tuple[str, int]]:
    """``(name, position)`` of each defaulted parameter; ``position`` is
    its index among the positional arguments a caller passes (``-1``
    for keyword-only)."""
    args = function.args
    positional = args.posonlyargs + args.args
    skip = 1 if is_method and positional and not _is_staticmethod(function) else 0
    first_default = len(positional) - len(args.defaults)
    for index in range(first_default, len(positional)):
        yield positional[index].arg, index - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, -1


def _is_staticmethod(function: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in function.decorator_list)


def unset_parameters(root: pathlib.Path = ROOT) -> Dict[str, str]:
    """``qualified name(parameter)`` -> defining file, for every
    defaulted parameter of a function or method in ``src/`` that nothing
    in the scanned trees sets (keyword, dict key, or position)."""
    keys: Set[str] = set()
    #: callee name -> the most positional arguments any call passes
    #: (a starred argument counts as every position).
    widest: Dict[str, float] = {}
    parameters: List[Tuple[str, str, str, str, int]] = []
    for rel, tree in _sources(root):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                keys.update(kw.arg for kw in node.keywords if kw.arg)
                if any(isinstance(arg, ast.Starred) for arg in node.args):
                    count = float("inf")
                else:
                    count = len(node.args)
                name = _callee(node)
                widest[name] = max(widest.get(name, 0), count)
            elif isinstance(node, ast.Dict):
                keys.update(
                    key.value for key in node.keys if isinstance(key, ast.Constant) and isinstance(key.value, str)
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)
                    ):
                        keys.add(target.slice.value)
        if not rel.startswith("src/"):
            continue
        for stmt in tree.body:
            if isinstance(stmt, _FUNCTIONS):
                for param, position in _defaulted(stmt, is_method=False):
                    parameters.append((rel, stmt.name, stmt.name, param, position))
            elif isinstance(stmt, ast.ClassDef):
                for member in stmt.body:
                    if isinstance(member, _FUNCTIONS):
                        callee = stmt.name if member.name == "__init__" else member.name
                        qualified = f"{stmt.name}.{member.name}"
                        for param, position in _defaulted(member, is_method=True):
                            parameters.append((rel, qualified, callee, param, position))
    return {
        f"{qualified}({param})": rel
        for rel, qualified, callee, param, position in parameters
        if param not in keys and not (position >= 0 and widest.get(callee, 0) > position)
    }


def test_src_has_no_code_that_only_tests_reach():
    dead = unreferenced()
    flagged = {name: path for name, path in dead.items() if name not in ALLOWLIST}
    assert not flagged, (
        "defined in src/ but called only from tests (or not at all); delete them, "
        "or add them to ALLOWLIST with the reason they stay:\n"
        + "\n".join(f"  {path}: {name}" for name, path in sorted(flagged.items()))
    )
    stale = sorted(set(ALLOWLIST) - set(dead))
    assert not stale, f"ALLOWLIST entries that now have a caller or no definition: {stale}"


def test_src_has_no_default_that_only_tests_override():
    unset = unset_parameters()
    flagged = {name: path for name, path in unset.items() if name not in PARAMETER_ALLOWLIST}
    assert not flagged, (
        "defaulted parameters in src/ that only tests set (or nothing); make them "
        "constants, or add them to PARAMETER_ALLOWLIST with the reason they stay:\n"
        + "\n".join(f"  {path}: {name}" for name, path in sorted(flagged.items()))
    )
    stale = sorted(set(PARAMETER_ALLOWLIST) - set(unset))
    assert not stale, f"PARAMETER_ALLOWLIST entries that are now set or gone: {stale}"


def _tree(root: pathlib.Path, files: Dict[str, str]) -> pathlib.Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    for top in SCANNED:
        (root / top).mkdir(exist_ok=True)
    return root


class TestRatchet:
    """The two checks on synthetic trees."""

    def test_a_name_only_a_docstring_mentions_is_flagged(self, tmp_path):
        root = _tree(tmp_path, {
            "src/pkg/mod.py": '"""Call :func:`helper` or :func:`used`."""\n'
                              "def helper():\n    pass\n\n"
                              "def used():\n    pass\n",
            "tools/run.py": '"""helper"""\nfrom pkg.mod import used\nused()\n',
        })
        assert unreferenced(root) == {"helper": "src/pkg/mod.py"}

    def test_a_string_that_is_not_a_docstring_still_refers(self, tmp_path):
        root = _tree(tmp_path, {
            "src/pkg/mod.py": "def helper():\n    pass\n\nTABLE = {'helper': 1}\n",
        })
        assert unreferenced(root) == {}

    SOURCE = (
        "def f(a, b=1, *, c=2):\n    pass\n\n"
        "class K:\n    def __init__(self, x=0):\n        pass\n"
    )

    def test_an_unset_defaulted_parameter_is_flagged(self, tmp_path):
        root = _tree(tmp_path, {"src/pkg/mod.py": self.SOURCE, "tools/run.py": "f(1)\nK()\n"})
        assert unset_parameters(root) == {
            "f(b)": "src/pkg/mod.py",
            "f(c)": "src/pkg/mod.py",
            "K.__init__(x)": "src/pkg/mod.py",
        }

    @pytest.mark.parametrize("use, cleared", [
        ("f(1, c=3)\n", "f(c)"),
        ("opts = {'b': 2}\n", "f(b)"),
        ("opts = {}\nopts['x'] = 1\n", "K.__init__(x)"),
        ("f(1, 2)\n", "f(b)"),
        ("K(5)\n", "K.__init__(x)"),
    ])
    def test_a_keyword_a_dict_key_or_a_position_sets_it(self, tmp_path, use, cleared):
        root = _tree(tmp_path, {"src/pkg/mod.py": self.SOURCE, "examples/use.py": use})
        unset = unset_parameters(root)
        assert cleared not in unset
        assert len(unset) == 2

    def test_tests_do_not_set_a_parameter(self, tmp_path):
        root = _tree(tmp_path, {"src/pkg/mod.py": self.SOURCE, "tests/test_mod.py": "f(1, 2, c=3)\nK(5)\n"})
        assert set(unset_parameters(root)) == {"f(b)", "f(c)", "K.__init__(x)"}
