"""The package's public names and imports."""
import ast
import re
from pathlib import Path

import pytest

import wlsynth
from conftest import run_fresh, write_bench_inputs
from wlsynth.cli import FLAGS, STAGES, main

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


def test_only_trace_writes_csv():
    """Every CSV byte the package writes goes through `trace.write_columns`:
    trace.py is the one module that imports csv and the one that names
    csv.writer."""
    importers, writers = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        if any(isinstance(node, ast.Import) and "csv" in [alias.name for alias in node.names]
               or isinstance(node, ast.ImportFrom) and node.module == "csv"
               for node in ast.walk(ast.parse(source))):
            importers.append(path.name)
        if "csv.writer" in source:
            writers.append(path.name)
    assert importers == writers == ["trace.py"]


def test_unused_import_check_flags_and_spares():
    source = ("from __future__ import annotations\nimport os\nimport re  # noqa: F401 kept\n"
              "import sys  # noqa: F401\nfrom json import dumps, loads\n"
              "__all__ = ['dumps']\nprint(loads)\n")
    assert _unused_imports(source) == ["line 2: os", "line 4: sys"]


def test_import_loads_neither_numpy_ma_nor_the_thread_pool():
    assert run_fresh("import sys, wlsynth.cli\n"
                     "print('numpy.ma' in sys.modules, 'concurrent.futures' in sys.modules)"
                     ) == ["False", "False"]


@pytest.mark.parametrize("inputs, flags, commands", [
    ("demo", (), ("pipeline",)),
    ("demo", ("--skip-ta",), ("pipeline",)),
    ("select_gap", (), ("pipeline",)),  # a gap the augmenter closes: clustering and a re-solve
    # a standalone augment relaxes --catalog itself to decide the bad windows
    ("select_gap", (), ("ingest", "targets", "augment")),
])
def test_serial_pipeline_loads_no_module(tmp_path, monkeypatch, inputs, flags, commands):
    """Every module a `--jobs 1` pipeline, or a chain of stages, runs is
    loaded by `import wlsynth.cli`."""
    if inputs == "demo":
        assert main(["demo", "--out", str(tmp_path)]) == 0
        paths = [tmp_path / f"demo_{name}" for name in ("config.txt", "trace.csv", "catalog.csv")]
    else:
        _, root = write_bench_inputs(tmp_path, monkeypatch, inputs)
        paths = [root / name for name in ("config.txt", "trace.csv", "catalog.csv")]
    files = {"--trace": str(paths[1]), "--catalog": str(paths[2])}
    argvs = [[command, "--config", str(paths[0]), "--out", str(tmp_path / "out"), "--jobs", "1",
              *(arg for flag in (FLAGS if command == "pipeline" else STAGES[command][2])
                if flag in files for arg in (flag, files[flag])), *flags]
             for command in commands]
    assert run_fresh("import contextlib, io, sys\n"
                     "from wlsynth.cli import main\n"
                     "before = set(sys.modules)\n"
                     "with contextlib.redirect_stdout(io.StringIO()):\n"
                     f"    codes = [main(argv) for argv in {argvs!r}]\n"
                     "print(*codes, *sorted(set(sys.modules) - before))"
                     ) == ["0"] * len(commands)
