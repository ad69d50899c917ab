"""Byte-for-byte gate on the CLI reports.

Each case runs one subcommand at a small configuration and compares its JSON
and CSV reports, and its exit code, with the fixtures under ``tests/golden``.
Input files are written to a temporary directory; its path, which the report
embeds in ``config``, is the only thing replaced (by ``$INPUTS``) before the
comparison.

A change that is meant to alter report bytes regenerates the fixtures with

    PYTHONPATH=src python tests/test_golden.py

and says why in its description.
"""
from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from shiftmetrics.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
PLACEHOLDER = "$INPUTS"
INPUTS = {
    "golden.sft": "2\n1 1\n1 0\n",
    "markov.json": '{"type": "markov", "P": [[0.5, 0.5], [1.0, 0.0]]}',
    "skewed.json": '{"type": "bernoulli", "weights": [0.3, 0.7]}',
    "three.json": '{"type": "bernoulli", "weights": [0.2, 0.3, 0.5]}',
    "markov-three.json": (
        '{"type": "markov", "P": [[0.2, 0.5, 0.3], [0.4, 0.1, 0.5], [0.3, 0.3, 0.4]]}'
    ),
}
GOLDEN = "sft:$INPUTS/golden.sft"
MARKOV = "$INPUTS/markov.json"
SKEWED = "$INPUTS/skewed.json"
THREE = "$INPUTS/three.json"
MARKOV_THREE = "$INPUTS/markov-three.json"

#: case name -> (argv, expected exit code); ``$INPUTS`` stands for the input directory
CASES = {
    "dim-space": (["dim", "--space", GOLDEN, "--j-max", "16"], 0),
    "dim-space-fail": (["dim", "--j-max", "16", "--tol", "1e-9"], 1),
    "dim-measure": (
        ["dim", "--space", GOLDEN, "--measure", MARKOV, "--n-points", "3"],
        0,
    ),
    "entropy-space": (["entropy", "--space", GOLDEN, "--t-max", "30"], 0),
    "entropy-measure": (
        ["entropy", "--measure", SKEWED, "--n-points", "3", "--t-max", "80", "--seed", "2"],
        0,
    ),
    "katok": (
        ["katok", "--measure", SKEWED, "--t-min", "300", "--t-max", "420", "--t-step", "60"],
        0,
    ),
    "katok-three-symbol": (
        ["katok", "--space", "full:3", "--measure", THREE,
         "--t-min", "4", "--t-max", "12", "--t-step", "1"],
        0,
    ),
    "katok-three-state-markov": (
        ["katok", "--space", "full:3", "--measure", MARKOV_THREE,
         "--t-min", "4", "--t-max", "12", "--t-step", "1"],
        0,
    ),
    "katok-rate": (
        ["katok", "--space", GOLDEN, "--measure", MARKOV, "--r", "0.05",
         "--t-min", "300", "--t-max", "420", "--t-step", "60", "--tol", "0.05"],
        0,
    ),
    "brin-katok": (
        ["brin-katok", "--space", GOLDEN, "--measure", MARKOV, "--n-points", "3",
         "--horizon", "120"],
        0,
    ),
    "brin-katok-three-state-markov": (
        ["brin-katok", "--space", "full:3", "--measure", MARKOV_THREE, "--n-points", "3"],
        0,
    ),
    "neutralized-space": (["neutralized", "--space", GOLDEN, "--r", "0.2", "--t-max", "60"], 0),
    "neutralized-measure": (
        ["neutralized", "--measure", SKEWED, "--n-points", "3", "--t-max", "80"],
        0,
    ),
    "estimation-space": (["estimation", "--alpha", "0.1"], 0),
    "estimation-measure": (
        ["estimation", "--measure", SKEWED, "--n-points", "3", "--mode", "one-sided",
         "--b", "1.3", "--t-max", "60"],
        0,
    ),
    "estimation-two-exponents": (["estimation", "--a", "1.2", "--b", "1.9"], 0),
    "estimation-two-exponents-measure": (
        ["estimation", "--space", GOLDEN, "--measure", MARKOV, "--n-points", "3",
         "--a", "1.2", "--b", "1.9"],
        0,
    ),
    "metric-verify": (["metric-verify", "--space", GOLDEN, "--n-points", "20"], 0),
    # the only case where swapping a and b in the certificate's rho shows
    "metric-verify-two-exponents": (["metric-verify", "--a", "1.2", "--b", "1.9"], 0),
    "frink": (["frink", "--n-samples", "2", "--sample-size", "20", "--seed", "1"], 0),
    "relations-space": (["relations", "--space", GOLDEN], 0),
    "relations-measure": (["relations", "--measure", SKEWED, "--n-points", "3"], 0),
    "relations-named-tol": (
        ["relations", "--tol", "spanning-entropy = oracle entropy=1e-30"],
        1,
    ),
    "solve-r": (["solve-5-23", "--a", "1.3", "--b", "1.9", "--r", "0.05"], 0),
    "solve-alpha": (["solve-5-23", "--a", "1.3", "--b", "1.9", "--alpha", "0.1"], 0),
    "solve-no-solution": (["solve-5-23", "--a", "1.3", "--b", "1.9", "--r", "0.3"], 1),
}
FORMATS = ("json", "csv")


def render(name: str, fmt: str, inputs: Path) -> tuple[int, str]:
    """Run one case with its inputs under ``inputs``; return (exit code, report)."""
    argv, _ = CASES[name]
    argv = [arg.replace(PLACEHOLDER, str(inputs)) for arg in argv] + ["--format", fmt]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, buf.getvalue().replace(str(inputs), PLACEHOLDER)


def write_inputs(directory: Path) -> Path:
    for filename, text in INPUTS.items():
        (directory / filename).write_text(text, encoding="utf-8")
    return directory


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("inputs"))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_fixture(name, fmt, inputs):
    code, text = render(name, fmt, inputs)
    assert code == CASES[name][1]
    assert text.encode("utf-8") == (GOLDEN_DIR / f"{name}.{fmt}").read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        directory = write_inputs(Path(tmp))
        for case in sorted(CASES):
            for fmt in FORMATS:
                code, text = render(case, fmt, directory)
                if code != CASES[case][1]:
                    sys.exit(f"{case}: exit {code}, expected {CASES[case][1]}")
                (GOLDEN_DIR / f"{case}.{fmt}").write_bytes(text.encode("utf-8"))
