"""Every public class, function and method of the library has a user outside the tests.

A public module-level class or function of ``seriesbench``, or a public
method of one of its public module-level classes, that nothing in ``src/``,
``demos/`` or ``bench/`` names is code that only tests use: either delete it
or, if it is an oracle entry point the tests check the library through, name
it below with the reason.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "seriesbench"

ORACLE_ENTRY_POINTS = {
    "align_metrics.dtw": "the one-pair case of dtw_score; the acceptance criteria check DTW values through it",
    "align_metrics.crps_instance": "the one-ensemble case of crps_score; the acceptance criteria check CRPS through it",
    "protocols.dknn": "the one-row case of dknn_values; the acceptance criteria check dknn through it",
    "protocols.hamming": "the attribute distance; the acceptance criteria check that it is a metric",
    "tensorfile.read_splits": "reads splits.json back; the acceptance criteria check the 6:1:1 splits with it",
}


def _referenced_names() -> set[str]:
    names: set[str] = set()
    for root in (REPO / "src", REPO / "demos", REPO / "bench"):
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names.update(part for alias in node.names for part in alias.name.split("."))
    return names


def _is_public_function(node: ast.stmt) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")


def _public_definitions(path: Path):
    """(qualified name, name) of each public class and function of a module and each public method of its classes."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if _is_public_function(node):
            yield f"{path.stem}.{node.name}", node.name
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}", node.name
            for item in filter(_is_public_function, node.body):
                yield f"{path.stem}.{node.name}.{item.name}", item.name


def _unreferenced_public_definitions() -> set[str]:
    referenced = _referenced_names()
    return {
        qualified
        for path in PACKAGE.glob("*.py")
        for qualified, name in _public_definitions(path)
        if name not in referenced
    }


def test_every_public_function_outside_the_allowlist_has_a_library_caller():
    test_only = sorted(_unreferenced_public_definitions() - ORACLE_ENTRY_POINTS.keys())
    assert not test_only, f"public classes, functions and methods that only tests use: {test_only}"


def test_allowlist_names_only_uncalled_functions():
    # an entry that gained a caller, or whose function is gone, no longer belongs here
    stale = sorted(ORACLE_ENTRY_POINTS.keys() - _unreferenced_public_definitions())
    assert not stale, f"allowlisted functions that now have a caller or no longer exist: {stale}"
