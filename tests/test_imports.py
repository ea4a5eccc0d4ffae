"""Every module of the package and of the tests reads each name it
imports, so a deletion cannot leave a dead import behind.  A name listed
in the module's `__all__` counts as read: the module re-exports it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unread_imports(source: str) -> list[str]:
    imported, read = {}, set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


def test_the_scan_finds_an_unread_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys\nfrom json import dumps as d, loads\n"
              "__all__ = ['loads']\nprint(sys.argv, d)\n")
    assert unread_imports(source) == ["os (line 2)"]


def test_every_import_is_read():
    paths = sorted([*ROOT.glob("src/subreg/*.py"), *ROOT.glob("tests/*.py")])
    assert len(paths) > 10
    unread = {str(p.relative_to(ROOT)): unread_imports(p.read_text())
              for p in paths}
    assert {p: names for p, names in unread.items() if names} == {}
