"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload sweep --seeds 1-10 [--seconds 30]

Runs the benchmark once per seed, one run after another, and prints for
each metric its median and the distance between the first and the third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="30")
    args = parser.parse_args(argv)

    values, shares = {}, set()
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        shares.add((result["failed"], result["attempted"], result["correct"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name} {m['value']:.5g}" for name, m in result["metrics"].items()),
            flush=True)
    for name, series in values.items():
        q1, q2, q3 = statistics.quantiles(series, n=4)
        print(f"{args.workload} {name}: median {statistics.median(series):.6g}"
              f"  IQR/median {(q3 - q1) / statistics.median(series):.4f}"
              f"  min {min(series):.6g}  max {max(series):.6g}")
    print(f"(failed, attempted, correct) per run: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
