"""Rules on the library source itself."""

import ast
import importlib.util
from pathlib import Path

import lpl

SOURCES = sorted(Path(lpl.__file__).parent.rglob("*.py"))


def test_library_has_no_assert_statements():
    # An assert vanishes under `python -O`; invariants raise typed errors instead.
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def unused_imports(path):
    """Module-level imported names that the module never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_library_has_no_unused_imports():
    # __init__.py imports names only to export them.
    modules = [path for path in SOURCES if path.name != "__init__.py"]
    assert len(modules) > 1
    assert [entry for path in modules for entry in unused_imports(path)] == []


def test_tracer_targets_exist():
    # The benchmark's tracer patches these names by lookup in each module's and
    # class's __dict__; a missing one breaks traced runs, so it fails here first.
    path = Path(__file__).parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{owner.__name__}.{attr}"
        for _, module, attr, importers in tracing.FUNCTIONS
        for owner in (module, *importers)
        if attr not in vars(owner)
    ]
    missing += [
        f"{cls.__name__}.{attr}"
        for _, cls, attrs in tracing.METHODS
        for attr in attrs
        if attr not in vars(cls)
    ]
    assert tracing.FUNCTIONS and tracing.METHODS
    assert missing == []
