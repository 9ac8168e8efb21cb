"""Guard against tuples built from generator expressions in the package.

``tuple(<generator expression>)`` and a starred generator expression in a
call (``f(*(... for ...))``) build a tuple from an iterator whose length
is unknown.  CPython allocates such a tuple at length 10 and resizes it,
so it leaves the length-10 free list and, when freed, joins the free list
of its final length.  Only a full garbage collection empties the tuple
free lists, and a process that repeats requests without leaving cyclic
garbage runs none: each such tuple a request builds then stays on a free
list that only grows, up to its cap of 2000 entries per length.  Build
the tuple from a list comprehension (``tuple([...])``, ``f(*[...])``),
which has its length when the tuple is made.  The syntax tree is read, so
a mention in a comment or a docstring does not count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lefbench"


def generator_tuples(src: Path) -> list[str]:
    """module:line of each tuple(<generator expression>) call and each
    starred generator-expression argument in src."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            if (isinstance(node.func, ast.Name) and node.func.id == "tuple"
                    and node.args
                    and isinstance(node.args[0], ast.GeneratorExp)):
                found.append(f"{path.name}:{node.lineno}")
            found += [f"{path.name}:{arg.lineno}" for arg in node.args
                      if isinstance(arg, ast.Starred)
                      and isinstance(arg.value, ast.GeneratorExp)]
    return found


def test_no_tuple_is_built_from_a_generator_expression():
    assert len(list(SRC.glob("*.py"))) > 10
    assert generator_tuples(SRC) == []


def test_the_guard_finds_both_forms(tmp_path):
    (tmp_path / "m.py").write_text(
        "a = tuple(x for x in y)\n"
        "b = lcm(*(x for x in y))\n"
        "c = tuple([x for x in y])\n"
        "d = lcm(*[x for x in y])\n", encoding="utf-8")
    assert generator_tuples(tmp_path) == ["m.py:1", "m.py:2"]
