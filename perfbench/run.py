"""Benchmark of the fbmseries series engines, one workload per process.

    python3 perfbench/run.py --workload taylor-deep --seed 1 --seconds 40 --trace 0

Run from the root of a checkout that holds src/fbmseries.  The run sets up
the workload's inputs, makes one untimed warm-up pass over its cases, then
times whole passes until the next one would overrun --seconds.  Every case
runs under its own time limit and its output is checked, outside the
timed region, against a reference computed without fbmseries.

Times are scaled to a reference machine speed: calibrate() runs between
the cases, and each case's time is multiplied by CAL_REF_S over the mean
of the two calibrations either side of it (see perfbench/README.md).

The last line of standard output is one JSON object: with --trace 0 the
end-to-end metrics (from each case's median time over the passes), with
--trace 1 the per-layer metrics of a traced run, whose spans are also
written under perfbench/out/.  The metrics' names and units are read from
BENCHMARK.json at the root of the checkout.  Progress goes to standard
error.
"""

from __future__ import annotations

import argparse
import ast
import gc
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import tokenize
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE_DIR = ROOT / "src" / "fbmseries"
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"
WORKLOADS = ("taylor-deep", "ensemble", "expform-levels")
SETUP_REPEATS = 5
# seconds calibrate() takes on the machine the times are scaled to; about
# its median on the 2-core virtual machine the benchmark was built on
CAL_REF_S = 0.02
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class CaseTimeout(BaseException):
    """Raised by SIGALRM inside a case; BaseException so no handler in the
    program that catches Exception can swallow it."""


def _on_alarm(signum, frame):
    raise CaseTimeout()


def run_case(case) -> tuple:
    """(status, seconds, output); a timed-out case counts at its limit."""
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, case.limit_s)
        try:
            out = case.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    except CaseTimeout:
        return "timeout", case.limit_s, None
    except Exception as exc:  # the program failed on this case; report it
        return "error", time.perf_counter() - t0, exc
    return "ok", time.perf_counter() - t0, out


def calibrate() -> float:
    """Seconds for a fixed task that does not use fbmseries.

    Half of it is small-object work in Python (tuples, dict updates), the
    kind the symbolic engines do, half is vector arithmetic in numpy, the
    kind wide evaluation does.  Timed next to each case, it measures how
    fast the machine is at that moment.
    """
    import numpy as np

    t0 = time.perf_counter()
    table = {}
    for i in range(30000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i % 7
    x = np.linspace(0.0, 1.0, 250_000)
    for _ in range(4):
        x = np.exp(-x * x) + 0.5 * x
    return time.perf_counter() - t0


def scale_times(times, cals, timeouts) -> list:
    """Case seconds at the reference speed.

    Case i lies between calibrations i and i + 1 and is scaled by CAL_REF_S
    over their mean; a timed-out case stays at its limit.
    """
    return [t if out else t * 2.0 * CAL_REF_S / (before + after)
            for t, out, before, after in zip(times, timeouts, cals, cals[1:])]


def run_pass(cases, check_failure) -> tuple:
    """One pass over the cases: (case seconds, calibration seconds, timed out, failed count).

    calibrate() runs before the first case and after each case, outside
    the timed region, so case i lies between calibrations i and i + 1.
    An exception in a check, whatever its type, counts as a wrong output.
    """
    times, cals, timeouts, failed = [], [calibrate()], [], 0
    for case in cases:
        gc.collect()
        status, seconds, out = run_case(case)
        cals.append(calibrate())
        times.append(seconds)
        timeouts.append(status == "timeout")
        if status == "ok":
            try:
                case.check(out)
            except Exception as exc:
                status = "wrong"
                check_failure(f"{case.name}: {type(exc).__name__}: {exc}")
        if status != "ok":
            failed += 1
        detail = f" ({out})" if status == "error" else ""
        print(f"  {case.name:34s} {seconds:9.4f} s  {status}{detail}  "
              f"calibration {cals[-2]:.5f} {cals[-1]:.5f}", file=sys.stderr)
    return times, cals, timeouts, failed


def count_src_lines(package_dir: Path) -> int:
    """Logical source lines under package_dir, without comments or docstrings.

    Counts statements as the tokenizer ends them, so joining or splitting a
    line, or editing comments and docstrings, leaves the count unchanged.
    """
    total = 0
    for path in sorted(package_dir.rglob("*.py")):
        text = path.read_text()
        docs = {(n.lineno, n.col_offset) for n in ast.walk(ast.parse(text))
                if isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant)
                and isinstance(n.value.value, str)}
        significant = False
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                total += significant
                significant = False
            elif tok.type in (tokenize.COMMENT, tokenize.NL, tokenize.INDENT,
                              tokenize.DEDENT):
                continue
            elif tok.type == tokenize.STRING and tok.start in docs:
                continue
            else:
                significant = True
    return total


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time of fresh processes: import fbmseries, build inputs.

    Each process scales its own time by the median of five calibrations it
    makes after the set-up.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append([float(v) for v in proc.stdout.split()[-2:]])
    raw, scaled = zip(*times)
    print(f"unscaled setup_s {statistics.median(raw)!r}", file=sys.stderr)
    return statistics.median(scaled)


def setup_only(workload: str, seed: int) -> int:
    t0 = time.perf_counter()
    import workloads

    workloads.build(workload, seed)
    seconds = time.perf_counter() - t0
    cal = statistics.median(calibrate() for _ in range(5))
    print(repr(seconds), repr(seconds * CAL_REF_S / cal))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # one BLAS thread, set before numpy is imported here or in a child
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})

    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"perfbench: no fbmseries sources under {PACKAGE_DIR.parent}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.setup_only:
        return setup_only(args.workload, args.seed)

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)

    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install([workloads])
        tracer.active = True
    cases = workloads.build(args.workload, args.seed)
    if tracer is not None:
        tracer.active = False
        setup_mark = tracer.mark()

    problems = []
    signal.signal(signal.SIGALRM, _on_alarm)
    print(f"{args.workload} seed {args.seed}: warm-up", file=sys.stderr)
    start = time.perf_counter()
    run_pass(cases, problems.append)
    pass_clock = [time.perf_counter() - start]

    raw_times, case_times, all_cals, attempted, failed = [], [], [], 0, 0
    while not case_times or (time.perf_counter() - start
                             + statistics.median(pass_clock) <= args.seconds):
        print(f"{args.workload} seed {args.seed}: pass {len(case_times) + 1}",
              file=sys.stderr)
        clock = time.perf_counter()
        if tracer is not None:
            tracer.active = True
        times, cals, timeouts, n_failed = run_pass(cases, problems.append)
        if tracer is not None:
            tracer.active = False
        pass_clock.append(time.perf_counter() - clock)
        raw_times.append(times)
        case_times.append(scale_times(times, cals, timeouts))
        all_cals += cals
        attempted += len(cases)
        failed += n_failed
    for p in problems:
        print(f"perfbench: wrong output: {p}", file=sys.stderr)
    # each case's median over the passes; a pass's time is their sum
    medians = [statistics.median(col) for col in zip(*case_times)]
    raw = [statistics.median(col) for col in zip(*raw_times)]
    print(f"passes {len(case_times)}, unscaled seconds per pass "
          f"{[round(sum(t), 4) for t in raw_times]}", file=sys.stderr)
    print(f"unscaled wall_s {sum(raw)!r}, solve_p50_s {statistics.median(raw)!r}, "
          f"median calibration {statistics.median(all_cals)!r} s", file=sys.stderr)

    if tracer is None:
        values = {
            "wall_s": sum(medians),
            "solve_p50_s": statistics.median(medians),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "src_lines": count_src_lines(PACKAGE_DIR),
        }
    else:
        tracer.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl")
        print(f"traced wall_s {sum(medians)!r}, node counting "
              f"{tracer.paused / len(case_times)!r} s per pass", file=sys.stderr)
        values = tracer.metrics(setup_mark, len(case_times), list(units))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
