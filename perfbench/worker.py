"""The measured process: one fresh interpreter per workload run.

It imports ``shiftmetrics`` and builds the workload's inputs (the set-up),
then drives ``shiftmetrics.cli.main(argv)`` as a closed loop with one
caller: each operation starts only after the previous report was written.
The operation list is repeated in passes until the time budget is spent;
every pass must reproduce the first pass's reports byte for byte.

With ``--trace 1`` it alternates an untraced pass with a traced one and
requires the traced reports to equal the untraced ones byte for byte.

It prints one JSON object on stdout; ``run.py`` turns it into metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, wrapped_functions
from workloads import WORKLOADS, check_report

#: an operation that runs longer than this is stopped and counted as failed
OP_TIMEOUT_S = 60.0
#: every run measures at least this many operations
MIN_OPS = 20


class OpTimeout(BaseException):
    """Raised by the interval timer; a BaseException so the CLI cannot swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def run_op(cli, op, deadline: float) -> tuple[float, str, str | None, list[float]]:
    """Run one CLI invocation; return (seconds, report text, failure, error ratios)."""
    out, err = io.StringIO(), io.StringIO()
    rc = None
    failure = None
    signal.setitimer(signal.ITIMER_REAL, max(0.001, min(OP_TIMEOUT_S, deadline - time.time())))
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except OpTimeout:
        failure = "timed out"
    except SystemExit as exc:
        failure = f"exited with {exc.code!r}"
    except Exception as exc:
        failure = f"raised {type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    finally:
        dt = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    text = out.getvalue()
    ratios: list[float] = []
    if failure is None:
        failure, ratios = check_report(op, rc, text)
    if failure is not None and err.getvalue().strip():
        failure += f" ({err.getvalue().strip().splitlines()[-1]})"
    return dt, text, failure, ratios


def run_pass(cli, ops, reference, deadline, tracer=None) -> dict:
    """One closed-loop pass over the operation list."""
    if tracer is None and wrapped_functions():
        raise RuntimeError(f"untraced pass with wrapped functions: {wrapped_functions()}")
    times, failures, ratios, texts = [], [], [], []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        if time.time() >= deadline:
            failures.append((op.label, "not run: time limit reached"))
            continue
        dt, text, failure, op_ratios = run_op(cli, op, deadline)
        if tracer is not None:
            tracer.end_op()
        if failure is None and reference is not None and text != reference[i]:
            failure = "report differs from the first untraced pass"
        times.append(dt)
        texts.append(text)
        ratios.extend(op_ratios)
        if failure is not None:
            failures.append((op.label, failure))
    return {
        "wall_s": time.perf_counter() - t0,
        "op_s": times,
        "failures": failures,
        "ratios": ratios,
        "texts": texts,
        "attempted": len(ops),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="directory for the generated inputs")
    parser.add_argument("--t0", type=float, required=True, help="epoch time the parent started us")
    parser.add_argument("--deadline", type=float, default=math.inf, help="epoch time to stop by")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import shiftmetrics  # noqa: F401  (the import a CLI user pays for)
    from shiftmetrics import cli

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    ops = WORKLOADS[args.workload].build(args.seed, work)
    setup_s = time.time() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    min_passes = math.ceil(MIN_OPS / len(ops))
    untraced, traced = [], []
    start = time.perf_counter()
    reference = None
    while True:
        untraced.append(run_pass(cli, ops, reference, args.deadline))
        if reference is None:
            reference = untraced[0]["texts"]
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced.append(run_pass(cli, ops, reference, args.deadline, tracer))
            finally:
                tracer.uninstall()
            traced[-1]["layers"] = tracer.metrics()
            traced[-1]["table"] = tracer.table()
            traced[-1]["dup"] = {n: [tracer.dup_calls[n], tracer.dup_distinct[n]] for n in tracer.dup_calls}
        if time.time() >= args.deadline:
            break
        rounds = len(untraced)
        if not args.trace and rounds < min_passes:
            continue
        # start another round only if one more is expected to fit the budget
        elapsed = time.perf_counter() - start
        if args.trace:
            per_round = elapsed / rounds
        else:
            per_round = statistics.median(p["wall_s"] for p in untraced)
        if elapsed + per_round > args.seconds:
            break

    for p in untraced + traced:
        del p["texts"]
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "ops": [op.label for op in ops],
                "untraced": untraced,
                "traced": traced,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
