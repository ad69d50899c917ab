"""The package's public surface: what ``__init__`` imports is what it exports,
every name the benchmark tracer reads still exists, and every exported
function and method is reached by some report."""
import ast
import functools
import importlib
import importlib.util
import inspect
import sys
import tempfile
from pathlib import Path

import shiftmetrics
from shiftmetrics.estimators import identity_names
from test_golden import CASES, render, write_inputs

#: exported functions and class methods that no golden report calls, and why each stays
KEPT = {
    "pointwise_dimension": "hooked by the benchmark tracer",
    "brin_katok_local": "hooked by the benchmark tracer",
    "neutralized_brin_katok": "hooked by the benchmark tracer",
    "alpha_estimation_entropy": "hooked by the benchmark tracer",
    "enumerate_log_masses": "hooked by the benchmark tracer",
    "count_words": "hooked by the benchmark tracer",
    "minimal_cover_log_count": "hooked by the benchmark tracer",
    "sample_point": "hooked by the benchmark tracer",
    "sample_typical": "hooked by the benchmark tracer",
    "average_over_typical": "hooked by the benchmark tracer",
    "box_dimension": "the README quickstart calls it",
    "point_from_window": "the public way to build a checked point from a window",
    "ShiftSpace.is_admissible": "point_from_window checks a window from outside with it",
    "ShiftSpace._symbol_indices": "point_from_window checks a window from outside with it",
    "support_word_count": "runs only past the transition-count bound",
    "Point.agrees_with": "README \"API changes\" names it as the replacement for agrees_on",
}


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


def test_every_exported_function_is_reached_by_a_report():
    """Test-only code belongs in ``tests/reference.py``: each golden case is
    rendered once under a profiler, and every plain function in ``__all__``
    and every method and property of a class in it must be called by some
    case or be listed in ``KEPT``."""
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp:
        inputs = write_inputs(Path(tmp))
        previous = sys.getprofile()
        sys.setprofile(record)
        try:
            for name in CASES:
                render(name, "json", inputs)
        finally:
            sys.setprofile(previous)
    functions = {
        name: obj
        for name in shiftmetrics.__all__
        if inspect.isfunction(obj := getattr(shiftmetrics, name))
    }
    for name in shiftmetrics.__all__:
        if inspect.isclass(cls := getattr(shiftmetrics, name)):
            functions.update(_methods(cls))
    unreached = sorted(name for name, f in functions.items() if f.__code__ not in called)
    assert unreached == sorted(KEPT)


def _methods(cls):
    """Each method and property ``cls`` defines, as ``Class.name``.  Dunder
    protocol methods other than ``__getitem__`` (the generated ``__init__``,
    ``__eq__``, ``__hash__``, ``__repr__``, ``__post_init__``, ...) are exempt
    as a group: they run whenever an instance is built or compared."""
    for name, attr in vars(cls).items():
        if name.startswith("__") and name.endswith("__") and name != "__getitem__":
            continue
        if isinstance(attr, property):
            attr = attr.fget
        elif isinstance(attr, functools.cached_property):
            attr = attr.func
        elif isinstance(attr, (classmethod, staticmethod)):
            attr = attr.__func__
        if inspect.isfunction(attr):
            yield f"{cls.__name__}.{name}", attr


#: attributes only the module that builds them reads: a space's input matrix
#: and walk tables, and a measure's log tables
PRIVATE_VIEWS = {
    "shiftspace.py": {"transition", "_succ", "_pred", "_n_succ", "_n_pred", "_alive_mask"},
    "measures.py": {"_log_pi", "_log_P"},
}


def test_graph_and_log_tables_stay_in_their_modules():
    """No ``src/`` module reads another module's tables: the graph format
    stays in ``shiftspace`` (other modules read ``adjacency`` or ``label``)
    and the log tables in ``measures``."""
    reads = []
    for path in sorted(Path(shiftmetrics.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            for owner, names in PRIVATE_VIEWS.items():
                if node.attr in names and path.name != owner:
                    reads.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert reads == []


#: the functions that may seed a NumPy generator: the one walk behind both
#: samplers, and frink's synthetic quasi-metric sample
SEEDED_STREAMS = {("shiftspace.py", "_walk"), ("cli.py", "_run_frink")}


def _callers(callee: str) -> set[tuple[str, str]]:
    """The (file, top-level definition) pairs of ``src/`` that call ``callee``,
    as a plain name or an attribute."""
    calls = set()
    for path in sorted(Path(shiftmetrics.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    if name == callee:
                        calls.add((path.name, getattr(top, "name", f"line {node.lineno}")))
    return calls


def test_seeded_stream_has_one_home():
    """``src/`` calls ``default_rng`` only in ``shiftspace._walk`` (the
    stream of every sampled point) and in ``cli._run_frink``'s synthetic
    sample, so the exact-stream contract has one implementation."""
    assert _callers("default_rng") == SEEDED_STREAMS


#: the one function that may call ``np.linalg.lstsq``: the fit kernel
#: behind every slope
LEAST_SQUARES = {("estimators.py", "_fit_rows")}


def test_least_squares_has_one_home():
    """``src/`` calls ``lstsq`` only in ``estimators._fit_rows``, so every
    slope, one-row fits and half fits included, is one least-squares solve."""
    assert _callers("lstsq") == LEAST_SQUARES


def test_default_rates_have_one_reader():
    """Across ``src/`` and ``scripts/``, only ``estimators.Kind`` (its
    ``rate_from``) reads ``DEFAULT_RATES``, so every run that takes a rate
    falls back to the same default in the same way."""
    scripts = Path(__file__).resolve().parent.parent / "scripts"
    paths = [*Path(shiftmetrics.__file__).parent.glob("*.py"), *scripts.glob("*.py")]
    readers = set()
    for path in sorted(paths):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    continue
                # a name read, an attribute read, or an imported name
                names = (getattr(node, field, None) for field in ("id", "attr", "name"))
                if "DEFAULT_RATES" in names:
                    readers.add((path.name, getattr(top, "name", f"line {node.lineno}")))
    assert readers == {("estimators.py", "Kind")}


#: the private builders that turn a ladder into cylinder windows
LADDER_BUILDERS = {"_ball_ladder", "_shrinking_ladder", "_alpha_ladder"}


def test_kind_ladder_builds_every_ladder():
    """Across ``src/`` and ``scripts/``, only ``estimators.Kind.ladder``
    reads the three ladder builders, so a kind, a rate and a ladder become
    windows in one place, under one rate rule."""
    scripts = Path(__file__).resolve().parent.parent / "scripts"
    paths = [*Path(shiftmetrics.__file__).parent.glob("*.py"), *scripts.glob("*.py")]
    readers = set()
    for path in sorted(paths):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            members = top.body if isinstance(top, ast.ClassDef) else [top]
            for member in members:
                scope = getattr(member, "name", f"line {member.lineno}")
                if member is not top:
                    scope = f"{top.name}.{scope}"
                for node in ast.walk(member):
                    # a name read, an attribute read, or an imported name; not a definition
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                        continue
                    if isinstance(node, (ast.Name, ast.Attribute, ast.alias)):
                        names = {getattr(node, field, None) for field in ("id", "attr", "name")}
                        if names & LADDER_BUILDERS:
                            readers.add((path.name, scope))
    assert readers == {("estimators.py", "Kind.ladder")}


def test_one_reader_behind_every_kind():
    """In ``src/`` only ``estimate_kind`` and ``standard_bundle`` call
    ``_read_kind``, so a kind's ladder is read one way whichever entry built it."""
    callers = set()
    for path in sorted(Path(shiftmetrics.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_read_kind":
                    callers.add((path.name, top.name))
    assert callers == {("estimators.py", "estimate_kind"), ("estimators.py", "standard_bundle")}


def test_readme_quickstart_runs_and_every_relation_passes(capsys):
    """The Python block under "## Library quickstart" in README.md runs as
    written, and prints a passing line for every relation of a full bundle."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library quickstart\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md quickstart", "exec"), {"__name__": "quickstart"})
    relations = [line for line in capsys.readouterr().out.splitlines() if " (rel " in line]
    assert len(relations) == len(identity_names(shiftmetrics.estimators.KINDS))
    assert [line for line in relations if ": pass (rel " not in line] == []
