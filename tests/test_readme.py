"""The README's library tour runs as written, and every public name has a user."""

import ast
import re
from pathlib import Path

import cbforms

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from cbforms import *", namespace)
    assert len(set(cbforms.__all__)) == len(cbforms.__all__)
    assert [name for name in cbforms.__all__ if name not in namespace] == []



def test_every_exported_name_has_a_user_outside_the_tests():
    # a public name must be read somewhere a user of the package meets
    # it: package code, the scripts, the README tour or the benchmark
    # harness (which wraps functions by name).  Definitions, imports and
    # the export list do not count; a name only tests read belongs in
    # tests/oracles.py.
    root = README.parent
    sources = [path.read_text() for pattern in ("src/cbforms/*.py", "scripts/*.py",
                                                "perfbench/*.py")
               for path in sorted(root.glob(pattern)) if path.name != "__init__.py"]
    sources += re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    used = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    assert [name for name in cbforms.__all__ if name not in used] == []
