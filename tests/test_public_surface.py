"""The package's public surface and the README's library example."""

import ast
import re
from pathlib import Path

import netdisplay

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "True"


def test_all_names_resolve_once():
    names = netdisplay.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(netdisplay, name), name


def test_every_public_import_is_exported():
    init = Path(netdisplay.__file__).read_text(encoding="utf-8")
    imported = {
        alias.asname or alias.name
        for node in ast.parse(init).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert public <= set(netdisplay.__all__), sorted(public - set(netdisplay.__all__))
