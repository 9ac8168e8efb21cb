"""Guard against regrowth of code that only tests reach.

Every top-level function and class in ``src/lefbench/``, and every method
and property of a top-level class except the dunder methods, must be
referenced somewhere in the package besides its own definition; a helper
that only a test needs lives in ``tests/``.  Every annotated class-level
field of a top-level class (a record field) must be read as an
attribute somewhere in the package: one that only its constructor touches
is dead.  Every name a module assigns at top level, dunder names skipped,
must be read somewhere in the package.  Every top-level function and class
of the test helper modules (HELPERS) must be reached from some test module,
directly or through other helpers.  References are read from the syntax
tree (names and attribute accesses), so a mention in a comment or a
docstring does not count, and neither does an import or an assignment.
"""

import ast
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "lefbench"
HELPERS = ("oracles.py", "scen.py")

# bench/tracer.py times minimal_position as a span of its own (its SPANS
# table, guarded by test_bench_contract.py); the package reduces pairs
# through intersection_profile instead.  _Parser.error overrides
# argparse.ArgumentParser.error, which argparse calls on a usage error.
ALLOWED = {"minimal_position", "_Parser.error"}


def _fields(tree: ast.Module):
    """(qualified name, name) of each annotated class-level field of a
    top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, ast.AnnAssign)
                        and isinstance(member.target, ast.Name)):
                    yield f"{node.name}.{member.target.id}", member.target.id


def _definitions(tree: ast.Module):
    """(qualified name, name) of each top-level def and class and of each
    method and property of a top-level class, dunder methods skipped."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, ast.FunctionDef)
                        and not member.name.startswith("__")):
                    yield f"{node.name}.{member.name}", member.name


def _assignments(tree: ast.Module):
    """Each name a top-level assignment binds, dunder names skipped."""
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        for target in targets:
            for name in ast.walk(target):
                if (isinstance(name, ast.Name)
                        and not name.id.startswith("__")):
                    yield name.id


def _parse(src: Path) -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(src.glob("*.py"))}


def unreferenced_definitions(src: Path) -> list[str]:
    """module:name of each definition (_definitions) that nothing in src
    uses."""
    trees = _parse(src)
    used = Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used[node.id] += 1
            elif isinstance(node, ast.Attribute):
                used[node.attr] += 1
    return [f"{module}:{qualified}"
            for module, tree in trees.items()
            for qualified, name in _definitions(tree)
            if not used[name] and qualified not in ALLOWED]


def unread_fields(src: Path) -> list[str]:
    """module:Class.field of each annotated field (_fields) that nothing in
    src reads as an attribute (``obj.field``)."""
    trees = _parse(src)
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    return [f"{module}:{qualified}"
            for module, tree in trees.items()
            for qualified, name in _fields(tree) if name not in read]


def unread_assignments(src: Path) -> list[str]:
    """module:name of each top-level assigned name (_assignments) that
    nothing in src reads, as a name or as an attribute."""
    trees = _parse(src)
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module}:{name}"
            for module, tree in trees.items()
            for name in _assignments(tree) if name not in read]


def _names(node: ast.AST) -> set[str]:
    """Each name and attribute that node reads or writes."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def unreachable_helpers(tests: Path) -> list[str]:
    """module:name of each top-level function and class of the HELPERS
    modules that no tests/test_*.py module reaches, directly or through
    the bodies of other helpers it reaches."""
    helpers: dict[str, list[tuple[str, set[str]]]] = {}
    for module in HELPERS:
        tree = ast.parse((tests / module).read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                helpers.setdefault(node.name, []).append(
                    (module, _names(node)))
    todo = [name for p in sorted(tests.glob("test_*.py"))
            for name in _names(ast.parse(p.read_text(encoding="utf-8")))]
    reached = set()
    while todo:
        name = todo.pop()
        if name in helpers and name not in reached:
            reached.add(name)
            todo.extend(n for _, body in helpers[name] for n in body)
    return [f"{module}:{name}" for name, defs in helpers.items()
            for module, _ in defs if name not in reached]


def test_every_top_level_definition_is_used_in_the_package():
    assert len(list(SRC.glob("*.py"))) > 10
    assert unreferenced_definitions(SRC) == []


def test_every_field_is_read_in_the_package():
    assert unread_fields(SRC) == []


def test_every_top_level_assignment_is_read_in_the_package():
    assert unread_assignments(SRC) == []


def test_every_test_helper_is_reached_from_a_test():
    assert unreachable_helpers(TESTS) == []
