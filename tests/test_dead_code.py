"""The ratchet on code that only tests reach.

Every module-level function, class and method under ``src/`` must be
referenced from ``src/``, ``examples/``, ``tools/`` or ``benchmarks/``
somewhere outside its own definition; tests do not count as a caller.
A reference is an identifier in code or inside a string literal (a
``getattr`` target, a registry key, a docstring cross-reference), taken
by name: ``x.close`` keeps every ``close`` method alive. The import and
``__all__`` lines of an ``__init__.py`` only re-export a name and are
not references. Dunder methods are called by the language and are not
checked. A name with no caller that must stay goes in :data:`ALLOWLIST`
with its reason; an entry that is no longer needed fails as well.
"""

from __future__ import annotations

import ast
import pathlib
import re
from typing import Dict, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src", "examples", "tools", "benchmarks")

#: qualified name (``function``, ``Class`` or ``Class.method``) -> why it
#: stays without a caller.
ALLOWLIST = {
    "RenoCC": "registered by @register_cc; make_congestion_control reaches it by name",
    "CubicCC": "registered by @register_cc; make_congestion_control reaches it by name",
    "DCTCPCC": "registered by @register_cc; make_congestion_control reaches it by name",
    "write_trace": "docs/workloads.md and CI's workload-smoke job write traces with it",
    "describe_connection": "docs/usage.md shows it as the ss -ti view of a live connection",
    "Sketch.merge_series": "docs/observability.md documents it for folding worker families",
}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

Owners = Tuple[str, ...]


def _is_reexport(node: ast.stmt) -> bool:
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
    )


def _identifiers(tree: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(_IDENT.findall(node.value))
    return names


def _scan() -> Tuple[List[Tuple[str, str]], Dict[str, Dict[str, Set[Owners]]]]:
    """``(definitions, references)``: every checked definition as
    ``(file, qualified name)``, and per file each identifier with the
    definitions enclosing its occurrences (``()`` at module level)."""
    definitions: List[Tuple[str, str]] = []
    references: Dict[str, Dict[str, Set[Owners]]] = {}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            rel = str(path.relative_to(ROOT))
            tree = ast.parse(path.read_text(), rel)
            refs: Dict[str, Set[Owners]] = {}
            in_init = path.name == "__init__.py"

            def note(node: ast.AST, owners: Owners) -> None:
                for name in _identifiers(node):
                    refs.setdefault(name, set()).add(owners)

            for stmt in tree.body:
                if in_init and _is_reexport(stmt):
                    continue
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    definitions.append((rel, stmt.name))
                    note(stmt, (stmt.name,))
                elif isinstance(stmt, ast.ClassDef):
                    definitions.append((rel, stmt.name))
                    for item in stmt.decorator_list + stmt.bases + stmt.keywords:
                        note(item, (stmt.name,))
                    for member in stmt.body:
                        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
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


def unreferenced() -> Dict[str, str]:
    """qualified name -> defining file, for every definition in ``src/``
    that nothing outside its own definition names."""
    definitions, references = _scan()
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
