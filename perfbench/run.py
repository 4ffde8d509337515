"""Benchmark launcher for paracurv.

    python3 perfbench/run.py --workload sweep|wide|pointwise|all --seed N \
        --seconds S --trace 0|1 [--quick]

Runs each workload in its own single-threaded process (worker.py), so that
``peak_rss_mib`` belongs to one workload: the BLAS thread pools are pinned
to one thread and ``PARACURV_THREADS`` is left unset.  The last line of
standard output is the result as JSON: with ``--trace 0`` every end-to-end
metric, with ``--trace 1`` every per-layer metric.  With ``--workload all``
the workloads run one after another and the last line merges their
results, each metric named ``<workload>/<metric>``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# a run ends within 180 s; the worker itself stops starting rounds in time
WORKER_TIMEOUT_S = 175


def worker_env():
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env.pop("PARACURV_THREADS", None)
    return env


def run_worker(workload, args):
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        argv.append("--quick")
    # its own process group, so that the worker and its set-up probes can be
    # stopped together if it overruns or the launcher is interrupted
    with subprocess.Popen(argv, env=worker_env(), stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        stdout = None
        try:
            stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if stdout is None:
        print(f"perfbench: {workload} did not finish in {WORKER_TIMEOUT_S} s",
              file=sys.stderr)
        return 3, None
    lines = stdout.splitlines()
    # everything but the worker's result line, which the launcher reprints
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    except ValueError:
        result = None
    if result is None:
        if lines:
            print(lines[-1])
        return proc.returncode or 2, None
    return proc.returncode, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="every workload at n = 1 with few points, for tests")
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        code, result = run_worker(name, args)
        if result is None:
            return code
        status = max(status, code)
        if len(names) == 1:
            print(json.dumps(result))
            return code
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{metric}": value
                                  for metric, value in result["metrics"].items()})
        print(json.dumps({name: result}))
    print(json.dumps(merged))
    return status


if __name__ == "__main__":
    sys.exit(main())
