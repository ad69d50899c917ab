"""The package's public surface: what ``__init__`` imports is what it exports."""
import ast
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
