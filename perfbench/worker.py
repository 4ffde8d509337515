"""One workload in one process: set up, time, check, report.

Usage (normally through run.py, which pins the BLAS thread pools):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Each operation is one in-process ``paracurv`` CLI call, from the manifest
file to the text the CLI prints, timed on its own; its output is checked
against the paper's closed forms outside the timer.  The run repeats whole
rounds of the workload's operations until ``--seconds`` seconds have
passed, so the last round may end after that.  The last line of standard
output is the result as JSON.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import tracer as tracing
import verify
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PROBE = os.path.join(HERE, "probe.py")
SETUP_REPEATS = 7
QUICK_SETUP_REPEATS = 2
UNITS = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms", "top_dim_s": "s",
         "peak_rss_mib": "MiB"}


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_program():
    """Import paracurv from the checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "paracurv", "__init__.py")):
        fail(f"no paracurv package under {os.path.relpath(SRC)}; run from a checkout")
    sys.path.insert(0, SRC)
    import paracurv.cli

    where = os.path.dirname(os.path.abspath(paracurv.cli.__file__))
    if where != os.path.join(SRC, "paracurv"):
        fail(f"paracurv was imported from {where}, not from {SRC}")
    return paracurv.cli.main


def invoke(main, argv):
    """One in-process CLI call: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            main.main(list(argv), prog_name="paracurv", standalone_mode=False)
            code = 0
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def measure_setup(paths, repeats):
    """Median wall time of fresh interpreters that load and build ``paths``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, PROBE, SRC, *paths],
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or proc.stdout.strip() != f"built {len(paths)}":
            fail(f"set-up probe failed ({proc.returncode}):\n{proc.stderr}")
    return statistics.median(times)


class Run:
    """Timings, failures and output problems of one measured run."""

    def __init__(self, workload, main, tracer=None):
        self.workload = workload
        self.main = main
        self.tracer = tracer
        self.rounds = []  # per round: list of (operation, seconds or None)
        self.layers = []  # per round, traced runs only: per-layer metrics
        self.spans = []  # spans of the last round, traced runs only
        self.first_round_rss_kib = None  # later rounds repeat the same work
        self.problems = []
        # an operation fails when it raises or exits non-zero; every one
        # that returns is timed, failed or not
        self.failed = 0

    def operation(self, op):
        tracer = self.tracer
        try:
            if tracer is not None:
                index = tracer.open("cli")
            try:
                code, out, err, seconds = invoke(self.main, op.argv)
            finally:
                if tracer is not None:
                    tracer.close(index)
                    tracer.end_operation()
        except Exception:  # an operation that crashes is counted, not fatal
            self.failed += 1
            self.problems.append(f"{op.case.label} {op.argv[0]} raised:\n"
                                 f"{traceback.format_exc()}")
            return None
        if code != 0:
            self.failed += 1
        if op.argv[0] == "check":
            found = verify.check_report(op.case, code, out)
        else:
            found = verify.check_curvature(op.case, code, out)
        for problem in found:
            self.problems.append(f"{op.case.label} {' '.join(op.argv[2:])}: {problem}"
                                 + (f"\n{err}" if err else ""))
        return seconds

    def measure(self, seconds):
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            if self.tracer is not None:
                self.tracer.reset()
            self.rounds.append([(op, self.operation(op))
                                for op in self.workload.operations])
            if self.first_round_rss_kib is None:
                self.first_round_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if self.tracer is not None:
                self.layers.append(tracing.layer_metrics(self.tracer))
                self.spans = list(self.tracer.spans)

    @property
    def attempted(self):
        return sum(len(r) for r in self.rounds)

    def round_seconds(self, top_only=False):
        top = self.workload.top_n
        return [sum(t for op, t in r if t is not None
                    and (not top_only or op.case.n == top))
                for r in self.rounds]

    def end_to_end(self, setup_s):
        # rounds repeat the same operations, so a round's time is estimated by
        # the mean over rounds, which averages the machine's drift over the run
        latencies = [t for r in self.rounds for _, t in r if t is not None]
        values = {
            "setup_s": setup_s,
            "run_s": statistics.fmean(self.round_seconds()),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "top_dim_s": statistics.fmean(self.round_seconds(top_only=True)),
            "peak_rss_mib": self.first_round_rss_kib / 1024.0,
        }
        return {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}

    def per_layer(self):
        out = {}
        for name in self.layers[0]:
            series = [layer[name] for layer in self.layers]
            if isinstance(series[0], int):
                if len(set(series)) > 1:
                    self.problems.append(f"count {name} differs between rounds: {series}")
                out[name] = min(series)
            else:
                out[name] = statistics.median(series)
        out["trace.run_s"] = statistics.fmean(self.round_seconds())
        return {name: {"value": v, "unit": layer_unit(name)} for name, v in out.items()}


def layer_unit(name):
    if name.endswith("_s") or name == "sampling.s":
        return "s"
    if name.endswith("_per_point"):
        return "1/point"
    return "count"


def write_spans(path, spans):
    """The last round's spans as [key index, parent index, start s, end s]."""
    keys = sorted({span[0] for span in spans})
    index = {key: i for i, key in enumerate(keys)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"keys": keys, "spans": [
            [index[k], p, round(s, 9), round(e, 9)] for k, p, s, e in spans]},
            fh, separators=(",", ":"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="every workload at n = 1 with few points")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    main_cmd = import_program()
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"known: {', '.join(workloads.WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = workloads.build(args.workload, args.seed, workdir, args.quick)

        setup_s = None
        if not args.trace:
            repeats = QUICK_SETUP_REPEATS if args.quick else SETUP_REPEATS
            setup_s = measure_setup([c.path for c in workload.cases], repeats)

        code, out, _, _ = invoke(main_cmd, ("check", workloads.negative_control(workdir)))
        control_problems = verify.check_negative_control(code, out)

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            remove = tracing.instrument(tracer)
        run = Run(workload, main_cmd, tracer)
        try:
            run.measure(args.seconds)
        finally:
            if tracer is not None:
                remove()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = run.per_layer() if args.trace else run.end_to_end(setup_s)
    problems = [f"negative control: {p}" for p in control_problems] + run.problems
    for problem in problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = not problems
    result = {"correct": correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if args.trace:
        write_spans(os.path.join(OUT, f"spans-{stem}.json"), run.spans)
    print(f"{args.workload}: timed {run.attempted} operations in {len(run.rounds)} "
          f"round(s) of {len(workload.operations)}; {run.failed} failed; "
          f"negative control {'FAIL as expected' if not control_problems else 'WRONG'}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
