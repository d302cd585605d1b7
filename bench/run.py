"""Benchmark for x1torsion: fixture verification and finite-field scans.

    python3 bench/run.py --workload verify-pass --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Runs from the root of a source checkout and imports x1torsion from its
src/ directory.  One client calls x1torsion.cli.main in-process, in a
closed loop, one op at a time, with --jobs left at its default of 1.
Inputs are written under .bench_run/ and come only from --seed.  Ops run
in whole rounds of one fixed cost mix (see workloads.py): another round
starts while the time used plus half a round stays below --seconds.
Every output is checked.

--trace 0 reports the end-to-end metrics.  Their times are wall-clock
times scaled to a reference machine speed: calibration_kernel is timed
before every op and set-up, and each time is divided by the slowdown the
kernel saw around it.  The unscaled times are printed too.  --trace 1
runs each op of round 0 once untraced and once with span wrappers
installed (tracing.py) and reports the per-layer metrics, unscaled.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give the machine, sample counts,
failed_ratio and latency_p90_ms (the last only for runs of at least 100
ops).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracing
import workloads
from workloads import ROOT, WORKLOADS

SRC = ROOT / "src"
PACKAGE = "x1torsion"
SETUP_REPS = 9
# Median time of calibration_kernel at the reference speed (an Intel Xeon
# with 2 vCPUs, Python 3.11.7).  Only the scale of the reported times
# depends on it.
REF_SECONDS = 0.0065
# Ops on each side whose kernel times set the slowdown an op is scaled by.
SCALE_WINDOW = 4


@dataclass(frozen=True)
class _KernelPoint:
    x: int
    y: int


def calibration_kernel():
    """Fixed pure-Python work like the program's: chord additions over F_p
    with small ints, tuples and frozen-dataclass points, then rational
    arithmetic on numbers of a few thousand bits.

    This shared machine runs everything up to about 25% slower for a minute
    or more at a time.  Timing this kernel before every op and set-up
    measures that slowdown, and reported times are scaled to REF_SECONDS.
    The kernel shares no code with the program, so a program change cannot
    move it.
    """
    p, a1, a3 = 10007, 3, 5
    pt = _KernelPoint(0, 0)
    acc = 0
    for i in range(1, 1000):
        x1, y1, x2, y2 = pt.x, pt.y, (1 + i) % p, (7 * i) % p
        if x1 == x2:
            x2 += 1
        lam = (y2 - y1) * pow((x2 - x1) % p, -1, p) % p
        x3 = (lam * lam + a1 * lam - x1 - x2) % p
        pt = _KernelPoint(x3, (-(lam + a1) * x3 - a3) % p)
        acc += sum(tuple(x3 * j % p for j in range(4)))
    a = Fraction(3 ** 1500 + 7, 2 ** 1400 + 3)
    b = Fraction(5 ** 1300 + 1, 7 ** 1100 + 5)
    s = Fraction(acc)
    for i in range(10):
        s += a * b
        a, b = b, a + i
        s = Fraction(s.numerator % 11 ** 1500, s.denominator % 13 ** 1300 + 1)
    return s


def scaled(times, kernel_times):
    """Each time divided by the slowdown around it: the median kernel time
    over the SCALE_WINDOW ops on either side, relative to REF_SECONDS."""
    out = []
    for i, t in enumerate(times):
        near = kernel_times[max(0, i - SCALE_WINDOW): i + SCALE_WINDOW + 1]
        out.append(t * REF_SECONDS / statistics.median(near))
    return out


def machine_info():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "commit": git_commit()}


def git_commit():
    """HEAD of the checkout read from .git without running git, or "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_cli():
    """Import x1torsion.cli afresh from the checkout's src/ directory."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    cli = importlib.import_module(PACKAGE + ".cli")
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"{PACKAGE} was imported from {cli.__file__}, not from {SRC}")
    return cli


def run_op(cli, op):
    """(seconds, exit code, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(list(op.argv))
        except Exception:  # a crash is a failed op, not the end of the run
            rc = None
            err.write(traceback.format_exc())
        dt = perf_counter() - t0
    return dt, rc, out.getvalue(), err.getvalue()


class Run:
    """One benchmark run of one workload: set-up, ops, checks and counts."""

    def __init__(self, workload, seed, workdir):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.checker = workloads.Checker()
        self.attempted = 0
        self.failures = []

    @staticmethod
    def calibrate():
        t0 = perf_counter()
        calibration_kernel()
        return perf_counter() - t0

    def setup(self):
        """Import, generate round 0 and warm up, SETUP_REPS times: set-up times
        and the kernel time before each."""
        times, kernel = [], []
        for _ in range(SETUP_REPS):
            kernel.append(self.calibrate())
            t0 = perf_counter()
            self.cli = import_cli()
            self.records = workloads.shipped_records()
            self.round0 = workloads.make_round(self.workload, self.seed, 0, self.records,
                                               self.workdir)
            run_op(self.cli, workloads.warmup_op(self.workload, self.records, self.workdir))
            times.append(perf_counter() - t0)
        return times, kernel

    def execute(self, op):
        if op.kind != "scan":
            op.expect[1].unlink(missing_ok=True)  # a stale report must not pass
        dt, rc, out, err = run_op(self.cli, op)
        self.attempted += 1
        why = self.checker.check(op, rc, out, err)
        if why is not None:
            self.failures.append(f"{' '.join(op.argv)}: {why}")
        return dt

    def timed(self, seconds):
        """Whole rounds for about `seconds`: op latencies, the kernel time
        before each op, items done and rounds run."""
        latencies, kernel, items, walls = [], [], 0, []
        start = perf_counter()
        ops = self.round0
        while True:
            t0 = perf_counter()
            for op in ops:
                kernel.append(self.calibrate())
                latencies.append(self.execute(op))
            items += sum(op.items for op in ops)
            walls.append(perf_counter() - t0)
            if perf_counter() - start + statistics.mean(walls) / 2 >= seconds:
                return latencies, kernel, items, len(walls)
            ops = workloads.make_round(self.workload, self.seed, len(walls), self.records,
                                       self.workdir)


def end_to_end(run, seconds):
    setup_times, setup_kernel = run.setup()
    raw, kernel, items, rounds = run.timed(seconds)
    latencies = scaled(raw, kernel)
    unit = "fixtures" if run.workload.startswith("verify") else "grid pairs"
    n = len(latencies)
    slow = statistics.median(kernel) / REF_SECONDS
    metrics = {
        "setup_s": (statistics.median(scaled(setup_times, setup_kernel)), "s"),
        "items_per_s": (items / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [f"{n} ops in {rounds} rounds; items_per_s counts {unit} per second of op "
             f"time; setup_s is the median of {SETUP_REPS} set-ups; latency percentiles over n={n}",
             f"times are scaled to the reference speed; this run's machine was {slow:.4f}x "
             f"slower by the median of {len(kernel)} calibration kernel times"]
    extra = {"failed_ratio": (len(run.failures) / run.attempted, "ratio")}
    if n >= 100:
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
        extra["latency_p90_ms"] = (p90 * 1e3, "ms")
    else:
        notes.append(f"latency_p90_ms not reported: {n} < 100 ops")
    extra.update({
        "unscaled.setup_s": (statistics.median(setup_times), "s"),
        "unscaled.items_per_s": (items / sum(raw), "1/s"),
        "unscaled.latency_p50_ms": (statistics.median(raw) * 1e3, "ms"),
    })
    return metrics, extra, notes


def per_layer(run):
    run.setup()
    ops = run.round0
    tracer = tracing.Tracer(PACKAGE)
    untraced, traced = [], []
    # Each op runs untraced and then traced, so drift in machine speed
    # over the run does not bias the overhead ratio.
    for i, op in enumerate(ops):
        untraced.append(run.execute(op))
        tracer.op = i
        tracer.install()
        try:
            traced.append(run.execute(op))
        finally:
            tracer.uninstall()
    pairs = sum(op.items for op in ops if op.kind == "scan")
    metrics = tracer.metrics(pairs)
    metrics["scan.us_per_pair"] = (
        sum(t for t, op in zip(untraced, ops) if op.kind == "scan") / pairs * 1e6 if pairs else 0.0,
        "us")
    metrics["trace.overhead_ratio"] = (sum(traced) / sum(untraced), "ratio")
    spans_path = ROOT / ".bench_run" / f"spans-{run.workload}-seed{run.seed}.tsv"
    tracer.write_spans(spans_path)
    notes = [f"round 0 ({len(ops)} ops), each op run untraced and then traced; "
             f"{len(tracer.spans)} of {tracer.next_id} spans written to "
             f"{spans_path.relative_to(ROOT)}"]
    return metrics, {}, notes


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns (result object, printable lines)."""
    workdir = ROOT / ".bench_run" / f"{workload}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(workload, seed, workdir)
        metrics, extra, notes = per_layer(run) if trace else end_to_end(run, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [f"workload {workload} seed {seed} trace {trace}: "
             f"{run.attempted} attempted, {len(run.failures)} failed"]
    lines += [f"  fail: {why}" for why in run.failures[:10]]
    lines += [f"  note: {note}" for note in notes]
    for name, (value, unit) in {**metrics, **extra}.items():
        lines.append(f"  {name:34s} {value:>14.6g} {unit}")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / PACKAGE / "cli.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("machine: " + json.dumps(machine_info()))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
    if args.workload != "all":
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
