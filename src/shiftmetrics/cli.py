"""Batch front end: parse space/measure/parameter specs, run estimator
suites, and emit machine-readable reports and plot-ready tables.

Exit codes: 0 when every requested relation passes, 1 when a relation fails
(including an unsolvable rate-exchange equation), 2 on configuration or
hypothesis violations (the offending bound is named in the message) and on
arrays too large to allocate.

Report formats: ``json`` is the full report (schema_version "2") with the
resolved configuration embedded; an average over typical points states its
per-point slopes once, as ``estimate.point_slopes``, and has no rows.
``csv`` is the plot-ready table with the columns
``quantity,n_or_r,raw_count_or_mass(log),fitted,residual`` plus a
``# config=...`` reproducibility header; an average's table has one row per
point.  Identical (config, seed) runs produce byte-identical output.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    HypothesisViolated,
    NoSolution,
    QuasiMetricViolated,
    SandwichViolated,
    ShiftMetricsError,
)
from .estimators import (
    DEFAULT_LADDER,
    DEFAULT_R1,
    KINDS,
    MEASURE_KINDS,
    RelationReport,
    SlopeEstimate,
    estimate_kind,
    identity_names,
    kind_ladder,
    solve_relation_5_23,
    standard_bundle,
    verify_identities,
)
from .measures import Measure, entropy_oracle, measure_from_json, measure_to_json, require_supported
from .metrics import (
    ONE_SIDED,
    TWO_SIDED,
    VERIFY_TOL,
    FiniteSample,
    MetricParams,
    check_quasi_metric,
    frink_metrize,
    mather_n0,
    verify_hyperbolicity,
)
from .shiftspace import ShiftSpace, make_space, sample_points, top_entropy_oracle

SCHEMA_VERSION = "2"
CSV_COLUMNS = ("quantity", "n_or_r", "raw_count_or_mass(log)", "fitted", "residual")


@dataclass
class RunConfig:
    """Fully resolved description of one batch run; its defaults are the CLI's."""

    quantity: str
    space: str = "full:2"
    a: float = 1.3
    b: float = 1.3
    mode: str = TWO_SIDED
    gamma: float = 0.05
    measure: str | None = None
    r: float | None = None
    alpha: float | None = None
    delta: float = 0.25
    r1: float = DEFAULT_R1
    j_min: int = DEFAULT_LADDER[0]
    j_max: int = DEFAULT_LADDER[1]
    t_min: int | None = None
    t_max: int | None = None
    t_step: int | None = None
    horizon: int | None = None
    seed: int = 0
    n_points: int = 100
    n_samples: int = 50
    sample_size: int = 200
    format: str = "json"
    out: str | None = None
    tol: float | None = None
    tolerances: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.quantity not in _SUBCOMMANDS:
            raise HypothesisViolated(
                f"quantity must be one of {', '.join(_SUBCOMMANDS)}; got {self.quantity!r}"
            )
        for flag, value, least in (("--horizon", self.horizon, 1), ("--seed", self.seed, 0)):
            if value is not None and value < least:
                raise HypothesisViolated(f"{flag} needs an integer >= {least}, got {value}")
        if self.format not in ("json", "csv"):
            raise HypothesisViolated(f"format must be json or csv, got {self.format!r}")
        tols = [("--tol", self.tol)] + [(f"--tol {n}=", v) for n, v in self.tolerances.items()]
        for flag, value in tols:
            if value is not None and not (math.isfinite(value) and value >= 0.0):
                raise HypothesisViolated(f"{flag} needs a finite number >= 0, got {value}")
        for name in ("alpha", "delta", "gamma", "r1"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise HypothesisViolated(f"{name} must be finite, got {value}")


def parse_space(spec: str) -> ShiftSpace:
    """Parse ``full:M`` or ``sft:PATH`` (line 1 = M; then M rows of 0/1)."""
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise HypothesisViolated(f"space spec must be full:M or sft:PATH, got {spec!r}")
    if kind == "full":
        try:
            m = int(rest)
        except ValueError:
            raise HypothesisViolated(f"full:M needs an integer alphabet size, got {rest!r}")
        return make_space(m)
    if kind == "sft":
        with open(rest, "r", encoding="utf-8") as fh:
            lines = [(k, ln.strip()) for k, ln in enumerate(fh, 1) if ln.strip()]
        if not lines:
            raise HypothesisViolated(f"SFT file {rest!r} is empty")
        try:
            m = int(lines[0][1])
            rows = [[int(v) for v in ln.split()] for _, ln in lines[1:]]
        except ValueError:
            raise HypothesisViolated(f"SFT file {rest!r}: line 1 = M, then M rows of 0/1")
        if len(rows) > m >= 0:
            raise HypothesisViolated(
                f"SFT file {rest!r} line {lines[m + 1][0]}: a row past the M={m} matrix rows"
            )
        if len(rows) != m:
            raise HypothesisViolated(
                f"SFT file {rest!r} declares M={m} but has {len(rows)} matrix rows"
            )
        for (k, _), row in zip(lines[1:], rows):
            if len(row) != m:
                raise HypothesisViolated(
                    f"SFT file {rest!r} line {k}: expected M={m} entries, got {len(row)}"
                )
        return make_space(m, rows)
    raise HypothesisViolated(f"space spec must be full:M or sft:PATH, got {spec!r}")


def load_measure(path: str) -> Measure:
    with open(path, "r", encoding="utf-8") as fh:
        return measure_from_json(fh.read())


def _row(quantity: str, key, raw: float, fitted: float) -> dict:
    return {
        "quantity": quantity,
        "n_or_r": key,
        "raw_count_or_mass(log)": raw,
        "fitted": fitted,
        "residual": raw - fitted,
    }


def _relation_row(rep: RelationReport) -> dict:
    return {
        "quantity": rep.name,
        "n_or_r": "pass" if rep.passed else "fail",
        "raw_count_or_mass(log)": rep.lhs,
        "fitted": rep.rhs,
        "residual": rep.rel_error,
    }


def _count_relation(name: str, violations: int) -> RelationReport:
    v = float(violations)
    return RelationReport(name, v, 0.0, v, tolerance=0.0)


def _estimate_dict(est: SlopeEstimate) -> dict:
    """The estimate's fields and diagnostics; the fitted points are the
    rows, and only an average carries its point slopes."""
    d = dataclasses.asdict(est)
    d["ladder"] = list(d["ladder"])
    del d["points"]
    if not est.point_slopes:
        del d["point_slopes"]
    return {**d, "spread": est.spread, "flagged": est.flagged}


def _k_formula(params: MetricParams) -> str:
    return "1/ln b" if params.mode == ONE_SIDED else "1/ln a + 1/ln b"


def _check_tolerances(config: RunConfig, names: list[str], headline: bool = False) -> None:
    """Refuse a --tol that this run would not apply."""
    if config.tol is not None and not headline:
        raise HypothesisViolated(f"--tol {config.tol}: {config.quantity} takes only NAME=FLOAT")
    for name in config.tolerances:
        if name not in names:
            raise HypothesisViolated(
                f"--tol NAME=FLOAT: {config.quantity} has no relation {name!r} to set; "
                "it reports " + ", ".join(map(repr, names))
            )


def _require_at_least(config: RunConfig, **least: int) -> None:
    """Refuse a count flag below the least value that checks anything."""
    for name, bound in least.items():
        value = getattr(config, name)
        if value < bound:
            flag = "--" + name.replace("_", "-")
            raise HypothesisViolated(f"{config.quantity} needs {flag} >= {bound}, got {value}")


# ---------------------------------------------------------------------------
# slope quantities: one table, one runner
# ---------------------------------------------------------------------------


#: Each slope quantity's (kind on a space, kind on a measure); ``estimators.KINDS`` holds
#: their estimators, rates, identities with targets and tolerances, and default depths.
_SLOPES = {
    "dim": ("box_dimension", "pointwise_dimension"),
    "entropy": ("entropy", "brin_katok"),
    "katok": (None, "katok"),
    "brin-katok": (None, "brin_katok"),
    "neutralized": ("neutralized_topological", "neutralized_brin_katok"),
    "estimation": ("alpha_topological", "alpha_brin_katok"),
}


def _slope_rows(label: str, est: SlopeEstimate, fmt: str) -> list[dict]:
    """One row per fitted ladder point.  An average's CSV table has one row
    per point; its JSON report has none, as ``estimate.point_slopes`` holds them."""
    if est.point_slopes:
        if fmt == "json":
            return []
        return [_row(label, i, s, est.slope) for i, s in enumerate(est.point_slopes)]
    return [
        _row(label, key, y, est.slope * x + est.intercept)
        for key, (x, y) in zip(est.ladder, est.points)
    ]


def _run_slope(config, space, params, mu):
    kind = _SLOPES[config.quantity][mu is not None]
    if kind is None:
        raise HypothesisViolated(f"{config.quantity} is a measure quantity: pass --measure PATH")
    # a nonzero --r shrinks the cover radius
    kind = "neutralized_katok" if kind == "katok" and config.r else kind
    spec = KINDS[kind]
    rate = spec.rate_from(config.r, config.alpha)
    _check_tolerances(config, [spec.name], headline=True)
    ladder = kind_ladder(
        kind, config.j_min, config.j_max, config.t_min, config.t_max, config.t_step
    )
    est = estimate_kind(
        kind,
        space,
        params,
        mu,
        ladder,
        rate,
        config.r1,
        config.delta,
        config.horizon,
        config.n_points,
        config.seed,
    )
    h = entropy_oracle(mu) if spec.measure else top_entropy_oracle(space)
    target = {
        "name": spec.name,
        "value": spec.target(params, rate, h),
        "formula": spec.formula.format(k=_k_formula(params)),
    }
    tol = config.tolerances.get(spec.name, config.tol)
    tol = spec.tolerance if tol is None else tol
    rel = spec.check(est.slope, params, rate, h, tol)
    # entropy --measure is the local entropy, and its rows say so
    label = "brin-katok" if kind == "brin_katok" else config.quantity
    return est, target, [rel], _slope_rows(label, est, config.format)


def _run_relations(config, space, params, mu):
    kinds = set(KINDS) if mu is not None else set(KINDS) - MEASURE_KINDS
    _check_tolerances(config, identity_names(kinds))
    bundle = standard_bundle(
        space,
        params,
        mu,
        r=config.r,
        alpha=config.alpha,
        delta=config.delta,
        seed=config.seed,
        n_points=config.n_points,
    )
    h_top = top_entropy_oracle(space)
    h_mu = entropy_oracle(mu) if mu is not None else None
    reports = verify_identities(bundle, h_top, h_mu, tolerances=config.tolerances or None)
    estimate = {
        entry.kind: {"slope": entry.estimate.slope, "rate": entry.rate} for entry in bundle
    }
    target = {
        "name": "identity suite",
        "value": h_top,
        "formula": "h_top (spectral radius); h_mu = "
        + (repr(h_mu) if h_mu is not None else "n/a"),
    }
    rows = [_relation_row(rep) for rep in reports]
    return estimate, target, reports, rows


def _run_solve(config, space, params, mu):
    if (config.r is None) == (config.alpha is None):
        raise HypothesisViolated("solve-5-23 needs exactly one of --r or --alpha")
    given = {"r": config.r} if config.r is not None else {"alpha": config.alpha}
    rep = solve_relation_5_23(config.a, config.b, given)
    solved_name = "alpha" if "r" in given else "r"
    estimate = {"given": given, "solved": {solved_name: rep.value}}
    target = {
        "name": rep.name,
        "value": rep.value,
        "formula": f"{solved_name} solving r + 1/k = 1/k_alpha",
    }
    key = next(iter(given.values()))
    rows = [_row("solve-5-23", key, rep.lhs, rep.rhs)]
    return estimate, target, [rep], rows


def _run_metric_verify(config, space, params, mu):
    _require_at_least(config, n_points=1)
    mp = mather_n0(params, config.gamma)
    report = verify_hyperbolicity(mp, params)
    # the points sample only the ultrametric row; the hyperbolicity rows hold for every pair
    n_tri = min(40, max(4, config.n_points))
    tri_seed = config.seed + 1_000_000
    tri_points = sample_points(space, 60, range(tri_seed, tri_seed + n_tri))
    triples = check_quasi_metric(FiniteSample.from_points(tri_points, params), 1.0)
    relations = [
        _count_relation("ultrametric: rho(x,y) <= max(rho(x,z), rho(z,y))", len(triples)),
        _count_relation("lipschitz forward: d~(shift) <= 16 b d~", report.lipschitz_forward_violations),
        _count_relation("lipschitz backward: d~(shift^-1) <= 16 a d~", report.lipschitz_backward_violations),
        _count_relation("sandwich: d~/4 <= rho <= 4 d~", report.sandwich_violations),
        _count_relation("expansion: shifted margin >= min(d~, eps')", report.expansion_failures),
        RelationReport(
            "eps' > 0", report.eps_prime, 0.0, 0.0 if report.eps_prime > 0 else 1.0, tolerance=0.0
        ),
    ]
    estimate = dataclasses.asdict(report)
    estimate["n0"] = mp.n0
    estimate["k1"] = mp.k1
    estimate["k2"] = mp.k2
    target = {
        "name": "hyperbolicity checks",
        "value": 0.0,
        "formula": "zero violations; eps' reported empirically",
    }
    rows = [_relation_row(rep) for rep in relations]
    return estimate, target, relations, rows


def _synthetic_quasi_sample(n: int, rng: np.random.Generator) -> FiniteSample:
    """Perturbed line ultrametric: U(i,j) = max gap between i and j, scaled
    entrywise by factors in [1, 2).  Satisfies the K=2 relaxed triangle test
    but not the triangle inequality, so chains genuinely shorten."""
    gaps = rng.random(n - 1) + 0.1
    U = np.zeros((n, n))
    for i in range(n - 1):
        U[i, i + 1 :] = np.maximum.accumulate(gaps[i:])
    U = np.maximum(U, U.T)
    factors = rng.uniform(1.0, 2.0 - 1e-9, size=(n, n))
    factors = np.triu(factors, 1)
    mat = U * (factors + factors.T)
    return FiniteSample.from_matrix(mat)


def _run_frink(config, space, params, mu):
    # one sample of two points is the least that compares any pair
    _require_at_least(config, n_samples=1, sample_size=2)
    worst_direct = -math.inf  # max over samples of max(D - rho)
    worst_sandwich = -math.inf  # max over samples of max(rho - 4 D)
    failures = 0
    rows = []
    for i in range(config.n_samples):
        if i % 2 == 0:
            first = config.seed + i * config.sample_size
            pts = sample_points(space, 60, range(first, first + config.sample_size))
            sample = FiniteSample.from_points(pts, params)
            kind = "frink:symbolic"
        else:
            rng = np.random.default_rng(config.seed + 5_000_000 + i)
            sample = _synthetic_quasi_sample(config.sample_size, rng)
            kind = "frink:synthetic"
        try:
            D = frink_metrize(sample)
        except (QuasiMetricViolated, SandwichViolated):
            failures += 1
            rows.append(_row(kind, i, math.inf, 4.0))
            continue
        R = sample.matrix
        worst_direct = max(worst_direct, float(np.max(D - R)))
        worst_sandwich = max(worst_sandwich, float(np.max(R - 4.0 * D)))
        nz = D > 0
        ratio = float(np.max(R[nz] / D[nz])) if nz.any() else 1.0
        rows.append(_row(kind, i, ratio, 4.0))
    relations = [
        _count_relation("frink: triangle inequality of D to 1e-12", failures),
        RelationReport(
            "frink: D <= rho", worst_direct, 0.0, max(0.0, worst_direct), tolerance=VERIFY_TOL
        ),
        RelationReport(
            "frink: rho <= 4 D", worst_sandwich, 0.0, max(0.0, worst_sandwich), tolerance=VERIFY_TOL
        ),
    ]
    estimate = {
        "samples": config.n_samples,
        "sample_size": config.sample_size,
        "metrization_failures": failures,
        "worst_D_minus_rho": worst_direct,
        "worst_rho_minus_4D": worst_sandwich,
    }
    target = {"name": "frink sandwich", "value": 4.0, "formula": "D <= rho <= 4 D"}
    rows.extend(_relation_row(rep) for rep in relations)
    return estimate, target, relations, rows


_BASE = "--a --b --format --out"
_SPACE = _BASE + " --space --mode --seed"
_MEASURE = " --measure --tol"
_SAMPLED = _SPACE + _MEASURE + " --horizon --n-points"
_DEPTH = " --t-min --t-max --t-step --r1"

#: name -> (runner, help line, the flags its run reads); argparse refuses every other flag
_SUBCOMMANDS = {
    "dim": (_run_slope, "box / pointwise dimension", _SAMPLED + " --j-min --j-max"),
    "entropy": (_run_slope, "spanning / local entropy", _SAMPLED + _DEPTH),
    # a cover count samples no points; perfbench's measure-suite still passes --seed
    "katok": (_run_slope, "minimal-cover entropy", _SPACE + _MEASURE + " --delta --r" + _DEPTH),
    "brin-katok": (_run_slope, "local entropy at typical points", _SAMPLED + _DEPTH),
    "neutralized": (_run_slope, "shrinking-radius entropy", _SAMPLED + _DEPTH + " --r"),
    "estimation": (_run_slope, "discounted-radius entropy", _SAMPLED + _DEPTH + " --alpha"),
    "metric-verify": (_run_metric_verify, "hyperbolicity checks", _SPACE + " --n-points --gamma"),
    "frink": (_run_frink, "chain-metrization sandwich", _SPACE + " --n-samples --sample-size"),
    # standard_bundle samples its points to horizon 160, or to its deepest mass window
    "relations": (
        _run_relations, "full identity suite", _SPACE + _MEASURE + " --n-points --r --alpha --delta"
    ),
    "solve-5-23": (_run_solve, "radius/rate exchange solver", _BASE + " --r --alpha"),
}


# ---------------------------------------------------------------------------
# report assembly and emission
# ---------------------------------------------------------------------------


def _resolved_config(config: RunConfig, space: ShiftSpace, params: MetricParams, mu) -> dict:
    d = dataclasses.asdict(config)
    d["resolved_space"] = space.label
    d["resolved_measure"] = measure_to_json(mu) if mu is not None else None
    d["k"] = params.k()
    return d


def emit_table(report: dict, fmt: str, out: str | None = None) -> str:
    """Render a report as JSON (full document) or CSV (plot-ready table).

    Writes to ``out`` when given, else stdout; returns the rendered text.
    """
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        buf.write(f"# schema_version={report['schema_version']}\n")
        buf.write(
            "# config=" + json.dumps(report["config"], sort_keys=True, separators=(",", ":")) + "\n"
        )
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in report["rows"]:
            writer.writerow([row[c] for c in CSV_COLUMNS])
        text = buf.getvalue()
    else:
        raise HypothesisViolated(f"format must be json or csv, got {fmt!r}")
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def run(config: RunConfig) -> int:
    """Execute one batch run; emit the report; return the exit code."""
    try:
        space = parse_space(config.space)
        params = MetricParams(config.a, config.b, mode=config.mode)
        mu = load_measure(config.measure) if config.measure else None
        if mu is not None:
            require_supported(mu, space)
        runner = _SUBCOMMANDS[config.quantity][0]
        try:
            estimate, target, relations, rows = runner(config, space, params, mu)
            error = None
        except NoSolution as exc:
            estimate, target, relations, rows = None, None, [], []
            error = str(exc)
    except (ShiftMetricsError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    passed = error is None and all(rep.passed for rep in relations)
    report = {
        "schema_version": SCHEMA_VERSION,
        "quantity": config.quantity,
        "config": _resolved_config(config, space, params, mu),
        "estimate": _estimate_dict(estimate) if isinstance(estimate, SlopeEstimate) else estimate,
        "target": target,
        "relations": [{**dataclasses.asdict(rep), "passed": rep.passed} for rep in relations],
        "rows": rows,
        "error": error,
        "passed": passed,
    }
    emit_table(report, config.format, config.out)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _parse_tolerances(raw: list[str]) -> tuple[float | None, dict[str, float]]:
    scalar = None
    named: dict[str, float] = {}
    for item in raw:
        name, sep, value = item.rpartition("=")
        try:
            if sep:
                named[name] = float(value)
            else:
                scalar = float(value)
        except ValueError:
            raise HypothesisViolated(f"--tol expects FLOAT or NAME=FLOAT, got {item!r}")
    return scalar, named


#: The argparse keywords of each flag; RunConfig holds every default.
_FLAGS = {
    "--space": {"help": "full:M or sft:PATH"},
    "--a": {"type": float, "help": "backward scale base (> 1)"},
    "--b": {"type": float, "help": "forward scale base (> 1)"},
    "--mode": {"choices": [TWO_SIDED, ONE_SIDED]},
    "--measure": {"help": "path to a measure JSON spec"},
    "--horizon": {"type": int, "help": "sampled-point horizon"},
    "--n-points": {"type": int, "help": "sampled points"},
    "--format": {"choices": ["json", "csv"]},
    "--out": {"help": "write the report to this file"},
    "--tol": {"action": "append", "metavar": "FLOAT|NAME=FLOAT", "help": "tolerance override"},
    **{f: {"type": int} for f in "--seed --t-min --t-max --t-step --n-samples --sample-size".split()},
    "--r1": {"type": float, "help": "reference radius"},
    "--j-min": {"type": int, "help": "ladder starts at 2^-j_min"},
    "--j-max": {"type": int, "help": "ladder ends at 2^-j_max"},
    "--delta": {"type": float, "help": "covering mass defect in (0, 1)"},
    "--r": {"type": float, "help": "shrinking rate"},
    "--alpha": {"type": float, "help": "discount rate"},
    "--gamma": {"type": float, "help": "contraction margin"},
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; each parse fills a new namespace."""
    # every default lives in RunConfig: an option not given stays out of the namespace
    quiet = {"argument_default": argparse.SUPPRESS}
    parser = argparse.ArgumentParser(
        prog="shiftmetrics",
        description="Verify dimension/entropy identities on shift spaces.",
        **quiet,
    )
    sub = parser.add_subparsers(dest="quantity", required=True, metavar="quantity")
    for name, (_, help_line, flags) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_line, **quiet)
        for flag in flags.split():
            sp.add_argument(flag, **_FLAGS[flag])
    return parser


#: Flags that only a measure run reads; a run that takes --measure refuses them without it.
_MEASURE_ONLY = ("--horizon", "--n-points", "--delta")


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    scalar, named = _parse_tolerances(getattr(ns, "tol", []))
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    kwargs = {k: v for k, v in vars(ns).items() if k in fields and k not in ("tol", "tolerances")}
    config = RunConfig(**kwargs, tol=scalar, tolerances=named)
    if config.measure is None and "--measure" in _SUBCOMMANDS[config.quantity][2].split():
        for flag in _MEASURE_ONLY:
            if flag[2:].replace("-", "_") in kwargs:
                raise HypothesisViolated(f"{config.quantity} reads {flag} only with --measure PATH")
    # katok and neutralized read their Bowen windows at --r1 only at a zero rate
    if "r1" in kwargs and config.r:
        raise HypothesisViolated(f"{config.quantity} reads --r1 only at --r 0, got --r {config.r}")
    return config


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        config = config_from_args(ns)
    except (ShiftMetricsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
