"""The scripts under ``scripts/`` run and print their frozen output."""
import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

#: ``convergence_study.py --quantity Q`` output at its defaults (full:2, a = b = 1.3)
CONVERGENCE = {
    "box": (
        "box on full:2: target 5.283854\n"
        "2^-8 .. 2^-12    slope=5.200000  rel=1.59e-02  rms=3.92e-01\n"
        "2^-8 .. 2^-16    slope=5.233333  rel=9.56e-03  rms=3.97e-01\n"
        "2^-8 .. 2^-20    slope=5.241758  rel=7.97e-03  rms=3.98e-01\n"
        "2^-8 .. 2^-24    slope=5.274510  rel=1.77e-03  rms=3.94e-01\n"
        "2^-8 .. 2^-28    slope=5.275325  rel=1.61e-03  rms=4.13e-01\n"
        "2^-8 .. 2^-32    slope=5.273846  rel=1.89e-03  rms=3.99e-01\n"
        "2^-8 .. 2^-36    slope=5.283744  rel=2.08e-05  rms=4.04e-01\n"
        "2^-8 .. 2^-40    slope=5.285428  rel=2.98e-04  rms=4.03e-01\n"
    ),
    "entropy": (
        "entropy on full:2: target 0.693147\n"
        "depths 10..25    slope=0.693147  rel=1.60e-16  rms=3.79e-15\n"
        "depths 10..40    slope=0.693147  rel=1.60e-16  rms=1.38e-15\n"
        "depths 10..55    slope=0.693147  rel=0.00e+00  rms=5.48e-15\n"
        "depths 10..70    slope=0.693147  rel=0.00e+00  rms=5.51e-16\n"
        "depths 10..85    slope=0.693147  rel=3.20e-16  rms=1.36e-14\n"
        "depths 10..100   slope=0.693147  rel=3.20e-16  rms=2.30e-14\n"
    ),
    "neutralized": (
        "neutralized on full:2: target 0.957340\n"
        "depths 20..50    slope=0.970406  rel=1.36e-02  rms=1.71e-14\n"
        "depths 20..70    slope=0.970406  rel=1.36e-02  rms=5.80e-15\n"
        "depths 20..90    slope=0.970406  rel=1.36e-02  rms=5.76e-15\n"
        "depths 20..110   slope=0.962844  rel=5.75e-03  rms=3.55e-01\n"
        "depths 20..130   slope=0.957319  rel=2.21e-05  rms=3.95e-01\n"
        "depths 20..150   slope=0.956695  rel=6.73e-04  rms=3.68e-01\n"
    ),
    "alpha": (
        "alpha on full:2: target 0.957340\n"
        "depths 20..50    slope=0.928817  rel=2.98e-02  rms=3.80e-01\n"
        "depths 20..70    slope=0.934758  rel=2.36e-02  rms=3.31e-01\n"
        "depths 20..90    slope=0.945651  rel=1.22e-02  rms=3.59e-01\n"
        "depths 20..110   slope=0.952762  rel=4.78e-03  rms=3.83e-01\n"
        "depths 20..130   slope=0.957319  rel=2.21e-05  rms=3.95e-01\n"
        "depths 20..150   slope=0.956391  rel=9.91e-04  rms=4.37e-01\n"
    ),
}


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("quantity", sorted(CONVERGENCE))
def test_convergence_study_output(quantity):
    study = load_script("convergence_study")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert study.main(["--quantity", quantity]) == 0
    assert out.getvalue() == CONVERGENCE[quantity]


def test_convergence_study_on_a_zero_target(tmp_path, capsys):
    # the 2-cycle has entropy 0: the error is read on the scale VERIFY_TOL
    cycle = tmp_path / "cycle.txt"
    cycle.write_text("2\n0 1\n1 0\n", encoding="utf-8")
    study = load_script("convergence_study")
    assert study.main(["--quantity", "box", "--space", f"sft:{cycle}"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"box on sft:{cycle}: target 0.000000"
    assert len(lines) == 9
    for line in lines[1:]:
        rel = float(line.split("rel=")[1].split()[0])
        assert rel < 1e-3, line


@pytest.mark.parametrize(
    "args, message",
    [
        (["--quantity", "alpha", "--alpha", "5"], "alpha must be finite and in [0, 0.262364)"),
        (["--a", "0.5"], "a must be finite and > 1, got 0.5"),
        (["--space", "full:x"], "full:M needs an integer alphabet size"),
    ],
    ids=["alpha-past-its-regime", "base-below-one", "bad-space"],
)
def test_convergence_study_refuses_with_exit_two(args, message, capsys):
    study = load_script("convergence_study")
    assert study.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err
