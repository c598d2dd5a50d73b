"""Every public class, function and method of the library has a user outside the tests.

A public module-level class or function of ``seriesbench``, or a public
method of one of its public module-level classes, that nothing in ``src/``,
``demos/`` or ``bench/`` names is code that only tests use: either delete it
or, if it is an oracle entry point the tests check the library through, name
it below with the reason.

A bare name cannot tell two classes apart: a method or property that only
tests call hides behind a same-named method, property or field of another
class.  So each public method or property whose name another class of the
package also defines names, below, a module that reaches it.

A private module-level function, class or constant, or a private method of a
module-level class, that nothing in ``src/seriesbench`` reads is dead code,
such as a helper left behind when its caller went.
"""

import ast
from collections import Counter
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

# method or property with a shared name -> a module, relative to the repo, that reaches it
SHARED_MEMBER_USERS = {
    "core.AttributeSchema.to_dict": "src/seriesbench/tensorfile.py",
    "core.AttributeSchema.from_dict": "src/seriesbench/tensorfile.py",
    "schema_discovery.LabelIndex.to_dict": "src/seriesbench/cli.py",
    "schema_discovery.LabelIndex.from_dict": "src/seriesbench/cli.py",
}


def _names_in(path: Path) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):  # not an assignment
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
    return names


def _attributes_in(path: Path) -> set[str]:
    return {node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(node, ast.Attribute)}


def _referenced_names() -> set[str]:
    return {
        name for root in (REPO / "src", REPO / "demos", REPO / "bench") for path in root.rglob("*.py")
        for name in _names_in(path)
    }


def _is_public_function(node: ast.stmt) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")


def _classes():
    """(module, class node) of each module-level class of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                yield path.stem, node


def _public_definitions():
    """(qualified name, name) of each public class and function of a module and each public method of its classes."""
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if _is_public_function(node):
                yield f"{path.stem}.{node.name}", node.name
    for module, node in _classes():
        if not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name
            for item in filter(_is_public_function, node.body):
                yield f"{module}.{node.name}.{item.name}", item.name


def _member_names(node: ast.ClassDef) -> set[str]:
    """The methods, properties, fields and class attributes a class defines."""
    names = set()
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(item.name)
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            names.add(item.target.id)
        elif isinstance(item, ast.Assign):
            names.update(t.id for t in item.targets if isinstance(t, ast.Name))
    return names


def _shared_public_members() -> dict[str, str]:
    """Qualified name -> name of each public method or property that another class also defines."""
    classes = list(_classes())
    counts = Counter(name for _, node in classes for name in _member_names(node))
    return {
        f"{module}.{node.name}.{item.name}": item.name
        for module, node in classes
        if not node.name.startswith("_")
        for item in filter(_is_public_function, node.body)
        if counts[item.name] > 1
    }


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_definitions():
    """(qualified name, name) of each private function, class and constant of a module and method of its classes."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            yield from ((f"{path.stem}.{name}", name) for name in names if _is_private(name))
    for module, node in _classes():
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_private(item.name):
                yield f"{module}.{node.name}.{item.name}", item.name


def _unreferenced_public_definitions() -> set[str]:
    referenced = _referenced_names()
    return {qualified for qualified, name in _public_definitions() if name not in referenced}


def test_every_public_function_outside_the_allowlist_has_a_library_caller():
    test_only = sorted(_unreferenced_public_definitions() - ORACLE_ENTRY_POINTS.keys())
    assert not test_only, f"public classes, functions and methods that only tests use: {test_only}"


def test_allowlist_names_only_uncalled_functions():
    # an entry that gained a caller, or whose function is gone, no longer belongs here
    stale = sorted(ORACLE_ENTRY_POINTS.keys() - _unreferenced_public_definitions())
    assert not stale, f"allowlisted functions that now have a caller or no longer exist: {stale}"


def test_every_shared_member_name_names_its_user():
    shared = _shared_public_members()
    unlisted = sorted(shared.keys() - SHARED_MEMBER_USERS.keys())
    assert not unlisted, f"methods or properties whose name another class shares, with no user named: {unlisted}"
    stale = sorted(SHARED_MEMBER_USERS.keys() - shared.keys())
    assert not stale, f"listed members that no longer exist or no longer share their name: {stale}"
    unused = sorted(
        f"{qualified} in {user}"
        for qualified, user in SHARED_MEMBER_USERS.items()
        if shared[qualified] not in _attributes_in(REPO / user)
    )
    assert not unused, f"named users that do not reference the member: {unused}"


def test_every_private_definition_is_read_in_the_library():
    # a private helper or constant that nothing reads is left over from code that went
    loaded = {name for path in PACKAGE.glob("*.py") for name in _names_in(path)}
    dead = sorted(qualified for qualified, name in _private_definitions() if name not in loaded)
    assert not dead, f"private functions, classes, constants and methods that nothing in the library reads: {dead}"
