"""Benchmark of shiftmetrics: time to verdict through the public CLI.

Run from the repository root:

    python3 perfbench/run.py --workload measure-suite --seed 0 --seconds 54 --trace 0
    python3 perfbench/run.py --write-spec     # regenerate BENCHMARK.json
    python3 perfbench/selftest.py             # tracer counts against closed forms

A run builds the workload's inputs from ``--seed`` (``workloads.py``), then
starts one fresh single-threaded interpreter (``worker.py``) that drives
``shiftmetrics.cli.main(argv)`` as a closed loop with one caller, checks
every report, and repeats the operation list for ``--seconds`` seconds.
Set-up time is measured separately, in several fresh interpreters that only
import the package and build the inputs.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` reports the per-layer metrics of ``tracer.py``, which wraps
the package's functions from outside; no file of the package changes.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable summary and the run record (versions, hardware, load).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"

RUN_SECONDS = 54
#: fresh interpreters that only do the set-up; the worker's own set-up is one more sample
SETUP_PROBES = 6
#: the whole run, set-up included, ends within this many seconds
TIME_LIMIT_S = 170.0

#: (name, unit, better, bound).  wall_s is the median wall time of one pass
#: over the workload's operations and op_s.p50 the median time of one
#: operation (one CLI invocation).  setup_s is a fresh interpreter importing
#: shiftmetrics and building the inputs, which every CLI user pays.
#: pass_ratio is 1 - fail_ratio and verdict_margin.min is 1 - err_ratio.max,
#: the largest rel_error / tolerance over the relations checked: both are
#: turned around so that a healthy run never reads 0.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("op_s.p50", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("pass_ratio", "1", "higher", 0.01),
    ("verdict_margin.min", "1", "higher", 0.1),
)

PER_LAYER_HIGHER = {"measures.cover.spectrum"}


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    return {
        "dup_ratio": "calls/input",
        "symbols": "symbols",
        "pairs": "pairs",
        "points": "points",
        "report_bytes": "B",
        "spectrum_classes": "classes",
        "enumerated_words": "words",
    }.get(last, "count")


def per_layer_names() -> list[str]:
    return list(Tracer().metrics()) + ["trace.overhead_s"]


def spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": _unit(n), "better": "higher" if n in PER_LAYER_HIGHER else "lower"}
            for n in per_layer_names()
        ],
    }


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _loadavg() -> str:
    return " ".join(_read("/proc/loadavg").split()[:3]) or "unknown"


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_record(args) -> dict:
    import numpy

    inherited = os.environ.get("EXP_METRICS_THREADS")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_start": _loadavg(),
        "commit": _commit(),
        "EXP_METRICS_THREADS": "unset in the worker"
        + (f" (was {inherited!r} in the caller)" if inherited is not None else ""),
    }


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("EXP_METRICS_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, work: Path, deadline: float, setup_only: bool) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work", str(work),
        "--deadline", repr(deadline - 5.0),
    ]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.time())]
    # subprocess.run kills and reaps the worker if the timeout expires
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.time()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _count(passes) -> tuple[int, int, list]:
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    return attempted, len(failures), failures


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, list[str]]:
    passes = result["untraced"]
    attempted, failed, _ = _count(passes)
    op_times = [t for p in passes for t in p["op_s"]]
    ratios = [r for p in passes for r in p["ratios"]]
    err_max = max(ratios, default=0.0)
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_s.p50": statistics.median(op_times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "pass_ratio": 1.0 - failed / attempted,
        "verdict_margin.min": 1.0 - err_max,
    }
    notes = [
        f"passes = {len(passes)} x {len(result['ops'])} operations",
        f"op_s.p50 over n = {len(op_times)} operations",
        f"setup_s over n = {len(setups)} fresh interpreters",
        f"fail_ratio = {failed} / {attempted} = {failed / attempted:.4g}",
        f"err_ratio.max = {err_max:.6g} over {len(ratios)} relations with tolerance > 0",
        "median seconds per operation:",
    ]
    for i, label in enumerate(result["ops"]):
        times = [p["op_s"][i] for p in passes if len(p["op_s"]) > i]
        if times:
            notes.append(f"  {statistics.median(times):8.4f}  {label}")
    return values, notes


def per_layer(result: dict) -> tuple[dict, list[str]]:
    traced = result["traced"]
    values = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in per_layer_names()
        if name != "trace.overhead_s"
    }
    values["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in result["untraced"]
    )
    table = sorted(traced[0]["table"], key=lambda row: -row["self_s"])
    notes = [f"traced passes = {len(traced)}; duplicate inputs, counted within each operation:"]
    notes += [
        f"  {name}: {calls} calls / {distinct} distinct inputs"
        for name, (calls, distinct) in sorted(traced[0]["dup"].items())
    ]
    notes.append("top self time per (function, calling layer):")
    notes += [
        f"  {r['layer']}.{r['function']} <- {r['caller']}: calls={r['calls']} "
        f"busy={r['busy_s']:.4f}s self={r['self_s']:.4f}s"
        for r in table[:25]
    ]
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n", encoding="utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "shiftmetrics" / "cli.py").is_file():
        print(f"error: no shiftmetrics sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.time() + TIME_LIMIT_S
    record = run_record(args)
    work = WORK_ROOT / str(os.getpid())
    try:
        setups = [
            run_worker(args, work / f"probe-{i}", deadline, setup_only=True)["setup_s"]
            for i in range(0 if args.trace else SETUP_PROBES)
        ]
        result = run_worker(args, work / "run", deadline, setup_only=False)
    except (RuntimeError, ValueError, IndexError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    setups.append(result["setup_s"])
    record["loadavg_end"] = _loadavg()

    if args.trace:
        values, notes = per_layer(result)
        passes = result["untraced"] + result["traced"]
    else:
        values, notes = end_to_end(result, setups)
        passes = result["untraced"]
    attempted, failed, failures = _count(passes)
    units = {n: u for n, u, _, _ in END_TO_END}
    units.update({n: _unit(n) for n in per_layer_names()})

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for line in notes:
        print(f"  {line}")
    for label, why in failures:
        print(f"  FAILED {label}: {why}")
    print("record: " + json.dumps(record, sort_keys=True))
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
