"""Guard against regrowth of code that only tests reach.

Every top-level function and class in ``src/lefbench/`` must be referenced
somewhere in the package besides its own definition; a helper that only a
test needs lives in ``tests/``.  References are read from the syntax tree
(names and attribute accesses), so a mention in a comment or a docstring
does not count, and neither does an import.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lefbench"

# bench/tracer.py times minimal_position as a span of its own (its SPANS
# table, guarded by test_bench_contract.py); the package reduces pairs
# through intersection_profile instead
ALLOWED = {"minimal_position"}


def unreferenced_definitions(src: Path) -> list[str]:
    """module:name of each top-level def or class that nothing in src uses."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(src.glob("*.py"))}
    used = Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used[node.id] += 1
            elif isinstance(node, ast.Attribute):
                used[node.attr] += 1
    return [f"{module}:{node.name}"
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not used[node.name] and node.name not in ALLOWED]


def test_every_top_level_definition_is_used_in_the_package():
    assert len(list(SRC.glob("*.py"))) > 10
    assert unreferenced_definitions(SRC) == []
