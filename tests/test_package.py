"""The package's public surface: what ``__init__`` imports is what it exports,
and every name the benchmark tracer reads still exists."""
import ast
import importlib
import importlib.util
from pathlib import Path

import shiftmetrics


def test_public_surface_is_consistent():
    names = shiftmetrics.__all__
    assert all(hasattr(shiftmetrics, name) for name in names)
    assert len(names) == len(set(names))
    tree = ast.parse(Path(shiftmetrics.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(names) == imported


def test_benchmark_tracer_names_resolve():
    """Every function the benchmark tracer hooks or sums still exists, so a
    deletion in the package cannot silently zero a per-layer metric."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # reads its tables only; installs nothing

    def resolves(layer: str, name: str) -> bool:
        owner = importlib.import_module(f"shiftmetrics.{layer}")
        cls, methods = tracer.CLASSMETHODS.get(layer, (None, ()))
        return callable(getattr(getattr(owner, cls) if name in methods else owner, name, None))

    classmethods = {layer: methods for layer, (_, methods) in tracer.CLASSMETHODS.items()}
    names = [*tracer.HOOKS, *(("cylinders", name) for name in tracer.WINDOW_FUNCTIONS)]
    for table in (tracer.PRIVATE, classmethods):
        names += [(layer, name) for layer, listed in table.items() for name in listed]
    assert [f"{layer}.{name}" for layer, name in names if not resolves(layer, name)] == []
