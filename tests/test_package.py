"""The package's public names and imports."""
import ast
import re
from pathlib import Path

import wlsynth

PACKAGE = Path(wlsynth.__file__).parent


def test_every_export_resolves():
    """Each name in `wlsynth.__all__` is an attribute of the package, so a
    removed export cannot linger as a string."""
    missing = [name for name in wlsynth.__all__ if not hasattr(wlsynth, name)]
    assert not missing


def _unused_imports(source: str) -> list[str]:
    """The names that the module-level imports of `source` bind and nothing
    in it reads, by ast.Name, or as a string in `__all__`, unless the
    import's line carries `# noqa: F401` and a reason after it."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and not re.search(r"# noqa: F401\s+\S", lines[alias.lineno - 1]):
                unused.append(f"line {alias.lineno}: {name}")
    return unused


def test_no_unused_module_imports():
    """Every module-level import of the package is read somewhere in its
    module; one kept for an outside reader says why with `# noqa: F401`."""
    unused = {path.name: names for path in sorted(PACKAGE.glob("*.py"))
              if (names := _unused_imports(path.read_text()))}
    assert not unused


def test_unused_import_check_flags_and_spares():
    source = ("from __future__ import annotations\nimport os\nimport re  # noqa: F401 kept\n"
              "import sys  # noqa: F401\nfrom json import dumps, loads\n"
              "__all__ = ['dumps']\nprint(loads)\n")
    assert _unused_imports(source) == ["line 2: os", "line 4: sys"]
