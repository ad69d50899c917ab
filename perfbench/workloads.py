"""The benchmark's workloads: seeded inputs, the operation list, and the
per-operation correctness gate.

A workload is built into a directory from one integer seed.  Building
writes every file the program reads (SFT files and measure JSON files) and
draws every per-operation ``--seed``; the same seed always gives the same
files and the same argument lists.  Each operation carries the closed-form
value its report's ``target`` must show, computed here independently of the
package, so the gate checks more than the package's own verdicts.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: CLI defaults the targets below assume: a = b = 1.3, two-sided metric,
#: shrinking rate r = 0.05 and discount rate alpha = 0.1.
A = B = 1.3
K = 1.0 / math.log(A) + 1.0 / math.log(B)
R = 0.05
ALPHA = 0.1
K_ALPHA = 1.0 / (math.log(A) + ALPHA) + 1.0 / (math.log(B) + ALPHA)

#: Ones per row of the generated large-alphabet SFTs.  Constant row sums
#: make the spectral radius exactly this value, so h_top = ln(d) is known in
#: closed form and every seed costs the same big-integer work.
ROW_ONES = 4
LARGE_ALPHABETS = (16, 24, 32)

TARGET_RTOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the target value its report must carry."""

    argv: tuple[str, ...]
    target: float

    @property
    def label(self) -> str:
        return " ".join(Path(a).name if "/" in a else a for a in self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, Path], list[Op]]


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def is_primitive(adjacency: np.ndarray) -> bool:
    """Irreducible and aperiodic: some power of the 0/1 matrix is all positive.

    By Wielandt's bound a primitive M x M matrix has A^n > 0 for every
    n >= (M - 1)^2 + 1, so squaring until the exponent passes the bound
    decides it.
    """
    m = adjacency.shape[0]
    power = (adjacency > 0).astype(np.int64)
    exponent = 1
    while exponent < (m - 1) ** 2 + 1:
        power = ((power @ power) > 0).astype(np.int64)
        exponent *= 2
    return bool(power.all())


def regular_sft(m: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Random primitive 0/1 matrix with exactly ``d`` ones in every row."""
    for _ in range(1000):
        mat = np.zeros((m, m), dtype=np.int64)
        for row in mat:
            row[rng.choice(m, size=d, replace=False)] = 1
        if is_primitive(mat):
            return mat
    raise RuntimeError(f"no primitive {m}x{m} matrix with {d} ones per row in 1000 draws")


#: The 3-state chain of measure-suite.  Its Katok cover runs on the
#: enumeration backend, whose cost depends on how many words share a mass;
#: the seed only relabels the states, which keeps that cost, the entropy and
#: the cover counts the same for every seed.
MARKOV_3 = np.array([[0.2, 0.5, 0.3], [0.4, 0.1, 0.5], [0.3, 0.3, 0.4]])


def relabelled(P: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The chain with its states permuted at random."""
    perm = rng.permutation(P.shape[0])
    return P[np.ix_(perm, perm)]


def write_sft(path: Path, mat: np.ndarray) -> str:
    rows = "\n".join(" ".join(str(int(v)) for v in row) for row in mat)
    path.write_text(f"{mat.shape[0]}\n{rows}\n", encoding="utf-8")
    return f"sft:{path}"


def write_measure(path: Path, spec: dict) -> str:
    path.write_text(json.dumps(spec) + "\n", encoding="utf-8")
    return str(path)


def bernoulli_entropy(weights) -> float:
    return -sum(p * math.log(p) for p in weights if p > 0)


def markov_entropy(P: np.ndarray) -> float:
    m = P.shape[0]
    # stationary vector: pi (P - I) = 0 with sum(pi) = 1
    system = np.vstack([P.T - np.eye(m), np.ones(m)])
    rhs = np.concatenate([np.zeros(m), [1.0]])
    pi = np.linalg.lstsq(system, rhs, rcond=None)[0]
    return float(-(pi @ (P * np.log(P)).sum(axis=1)))


GOLDEN = np.array([[1, 1], [1, 0]])
GOLDEN_H_TOP = math.log((1.0 + math.sqrt(5.0)) / 2.0)
GOLDEN_MARKOV = np.array([[0.5, 0.5], [1.0, 0.0]])
GOLDEN_MARKOV_H = 2.0 / 3.0 * math.log(2.0)


def _op_seeds(rng: np.random.Generator, n: int) -> list[str]:
    return [str(int(s)) for s in rng.integers(0, 1_000_000, size=n)]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _identity_targets(h: float) -> dict[str, float]:
    """Report target of each single-quantity subcommand at CLI defaults."""
    return {
        "dim": K * h,
        "entropy": h,
        "brin-katok": h,
        "katok": h,
        "neutralized": (1.0 + R * K) * h,
        "estimation": K * h / K_ALPHA,
    }


def build_measure_suite(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    golden = write_sft(work / "golden.txt", GOLDEN)
    markov_golden = write_measure(
        work / "markov-golden.json", {"type": "markov", "P": GOLDEN_MARKOV.tolist()}
    )
    bern37 = write_measure(work / "bernoulli-37.json", {"type": "bernoulli", "weights": [0.3, 0.7]})
    bern235 = write_measure(
        work / "bernoulli-235.json", {"type": "bernoulli", "weights": [0.2, 0.3, 0.5]}
    )
    P3 = relabelled(MARKOV_3, rng)
    markov3 = write_measure(work / "markov-3.json", {"type": "markov", "P": P3.tolist()})
    cases = [
        (golden, markov_golden, GOLDEN_H_TOP, GOLDEN_MARKOV_H),
        ("full:2", bern37, math.log(2.0), bernoulli_entropy([0.3, 0.7])),
    ]
    quantities = ("dim", "brin-katok", "neutralized", "estimation", "katok")
    seeds = iter(_op_seeds(rng, len(cases) * (len(quantities) + 1)))
    ops = []
    for space, measure, h_top, h_mu in cases:
        targets = _identity_targets(h_mu)
        for q in quantities:
            argv = (q, "--space", space, "--measure", measure, "--seed", next(seeds))
            ops.append(Op(argv, targets[q]))
        argv = ("relations", "--space", space, "--measure", measure, "--seed", next(seeds))
        ops.append(Op(argv, h_top))
    depths = ("--t-min", "4", "--t-max", "12", "--t-step", "1")
    for measure, h_mu in ((bern235, bernoulli_entropy([0.2, 0.3, 0.5])), (markov3, markov_entropy(P3))):
        ops.append(Op(("katok", "--space", "full:3", "--measure", measure) + depths, h_mu))
    return ops


METRIC_PAIRS = 5


def build_metrics_and_counts(seed: int, work: Path) -> list[Op]:
    """frink and metric-verify ops, then the space-only identities on
    seeded large-alphabet SFTs."""
    rng = np.random.default_rng(seed)
    golden = write_sft(work / "golden.txt", GOLDEN)
    seeds = iter(_op_seeds(rng, 2 * METRIC_PAIRS))
    ops = []
    for i in range(METRIC_PAIRS):
        space = "full:2" if i % 2 == 0 else golden
        ops.append(Op(("frink", "--space", space, "--n-samples", "2", "--seed", next(seeds)), 4.0))
        ops.append(
            Op(
                ("metric-verify", "--space", golden, "--n-points", "1000", "--seed", next(seeds)),
                0.0,
            )
        )
    h = math.log(ROW_ONES)
    targets = _identity_targets(h)
    for m in LARGE_ALPHABETS:
        space = write_sft(work / f"sft-{m}.txt", regular_sft(m, ROW_ONES, rng))
        seeds = iter(_op_seeds(rng, 5))
        for q in ("dim", "entropy", "neutralized", "estimation"):
            ops.append(Op((q, "--space", space, "--seed", next(seeds)), targets[q]))
        ops.append(Op(("relations", "--space", space, "--seed", next(seeds)), h))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "measure-suite",
            "measure identities on golden-mean SFT + Markov and full:2 + Bernoulli, plus "
            "3-symbol Katok covers: sampling, per-point masses and both cover backends",
            build_measure_suite,
        ),
        Workload(
            "metrics-and-counts",
            "frink, metric-verify and space-only identities on seeded SFTs with M = 16, 24, 32: "
            "rho matrices, chain closure, point sampling, big-integer word counts; no measures",
            build_metrics_and_counts,
        ),
    )
}


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def check_report(op: Op, rc, text: str) -> tuple[str | None, list[float]]:
    """Return (failure reason or None, rel_error / tolerance per relation).

    An operation passes when it exits 0 with a parseable report whose
    ``passed`` flag is true, whose every relation holds and whose target
    equals the closed-form value computed by the benchmark.
    """
    if rc != 0:
        return f"exit code {rc}", []
    try:
        report = json.loads(text)
    except ValueError as exc:
        return f"report does not parse: {exc}", []
    relations = report.get("relations") or []
    ratios = [
        rel["rel_error"] / rel["tolerance"] for rel in relations if rel.get("tolerance", 0) > 0
    ]
    if report.get("passed") is not True or report.get("error") is not None:
        return "report not passed", ratios
    if not relations:
        return "report has no relations", ratios
    for rel in relations:
        if rel.get("passed") is not True or not rel["rel_error"] <= rel["tolerance"]:
            return f"relation failed: {rel.get('name')}", ratios
    value = (report.get("target") or {}).get("value")
    if not isinstance(value, (int, float)) or not math.isclose(
        value, op.target, rel_tol=TARGET_RTOL, abs_tol=TARGET_RTOL
    ):
        return f"target {value!r} differs from closed form {op.target!r}", ratios
    return None, ratios
