"""The README's library tour runs as written against the public API."""

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
