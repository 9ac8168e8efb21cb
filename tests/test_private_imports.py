"""Guard against one module of the package importing another's private name.

A name that begins with an underscore is its module's own: the module may
change or delete it without looking elsewhere.  A rule that two modules
need is public in the module that owns it (exactgeom's exact predicates,
for one).  The syntax tree is read, so a mention in a comment or a
docstring does not count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lefbench"


def private_imports(src: Path) -> list[str]:
    """module:line:name of each private name that a module of src imports
    with ``from ... import``."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                found += [f"{path.name}:{node.lineno}:{alias.name}"
                          for alias in node.names
                          if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name():
    assert len(list(SRC.glob("*.py"))) > 10
    assert private_imports(SRC) == []


def test_the_guard_finds_private_names(tmp_path):
    (tmp_path / "m.py").write_text(
        "from .disc import PlanarArc, _touch\n"
        "from os import _exit as leave\n"
        "from __future__ import annotations\n"
        "if True:\n"
        "    from .oracle import _pair\n", encoding="utf-8")
    assert private_imports(tmp_path) == [
        "m.py:1:_touch", "m.py:2:_exit", "m.py:5:_pair"]
