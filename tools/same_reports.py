"""Run the same `paracurv check` manifests on two source trees and compare.

    python3 tools/same_reports.py PARENT_DIR CHANGE_DIR

Each directory is a checkout of the repository; its `src/` is put on
PYTHONPATH for its own runs.  The fixed manifest set is

* heisenberg and hyperboloid at n = 1..3 with sampling seeds 1 and 7, and
  at n = 4 with seed 1, every check;
* both at n = 2 under the D-homothety alpha = 2, every check;
* 1000 points of axioms, classification and eta_einstein on heisenberg(3)
  and on hyperboloid(3) with alpha = 2;
* a custom chart (the heisenberg(1) tables), an embedded chart (the
  hyperboloid(1) graph), heisenberg(4) with phsc and identities at seed 34,
  and the heisenberg(1) tables with g scaled by 1e160, whose curvature
  overflows.

For each manifest the report on stdout (without its `wall_time_s` line),
stderr and the exit code must be byte-identical.  Every manifest that
differs is named, with a diff of its stderr and the output of
`report_diff.py` on its two reports.  Exit code 0 when nothing differs,
1 otherwise, 2 on bad arguments.  Standard library only, so it compares
any two versions.
"""

from __future__ import annotations

import difflib
import json
import os
import subprocess
import sys
import tempfile

SCHEMA = "paracurv-manifest/1"
HERE = os.path.dirname(os.path.abspath(__file__))
WIDE_CHECKS = ["axioms", "classification", "eta_einstein"]

# heisenberg(1): eta = dt + u dv - v du, xi = d/dt, g = eta (x) eta + du^2 - dv^2
HEISENBERG1 = {
    "kind": "custom",
    "coords": ["u1", "v1", "t"],
    "g": [["(-v1)*(-v1)+1.0", "(-v1)*(u1)", "(-v1)*(1)"],
          ["(u1)*(-v1)", "(u1)*(u1)+-1.0", "(u1)*(1)"],
          ["(1)*(-v1)", "(1)*(u1)", "(1)*(1)"]],
    "phi": [["0", "1", "0"], ["1", "0", "0"], ["-u1", "v1", "0"]],
    "xi": ["0", "0", "1"],
    "eta": ["-v1", "u1", "1"],
}


def manifest(manifold, seed=1, count=200, checks="all", alpha=None):
    doc = {"schema": SCHEMA, "manifold": manifold,
           "sampling": {"seed": seed, "count": count}, "checks": checks}
    if alpha is not None:
        doc["transform"] = {"alpha": alpha}
    return doc


def builtin(name, n):
    return {"kind": "builtin", "name": name, "n": n}


def manifests():
    """(stem, manifest) pairs of the fixed set."""
    out = []
    for name in ("heisenberg", "hyperboloid"):
        for n in (1, 2, 3):
            for seed in (1, 7):
                out.append((f"{name}{n}_seed{seed}", manifest(builtin(name, n), seed)))
        out.append((f"{name}4_seed1", manifest(builtin(name, 4))))
        out.append((f"{name}2_alpha2", manifest(builtin(name, 2), alpha=2.0)))
    out.append(("heisenberg3_1000", manifest(builtin("heisenberg", 3), count=1000,
                                             checks=WIDE_CHECKS)))
    out.append(("hyperboloid3_alpha2_1000",
                manifest(builtin("hyperboloid", 3), count=1000, checks=WIDE_CHECKS,
                         alpha=2.0)))
    out.append(("custom_heisenberg1", manifest(HEISENBERG1)))
    embedded = {"kind": "embedded", "n": 1, "coords": ["x1", "y0", "y1"],
                "immersion": ["sqrt(1-x1^2+y0^2+y1^2)", "x1", "y0", "y1"]}
    out.append(("embedded_hyperboloid1", manifest(embedded)))
    out.append(("heisenberg4_sections_seed34",
                manifest(builtin("heisenberg", 4), seed=34, checks=["phsc", "identities"])))
    scaled = dict(HEISENBERG1, g=[[f"1e160*({s})" for s in row]
                                  for row in HEISENBERG1["g"]])
    out.append(("custom_heisenberg1_g1e160", manifest(scaled, count=30)))
    return out


def run(tree, path):
    """(stdout, stderr, exit code) of `check` on a tree."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    done = subprocess.run([sys.executable, "-m", "paracurv.cli", "check", path],
                          capture_output=True, text=True, env=env)
    return done.stdout, done.stderr, done.returncode


def timeless(stdout):
    return [line for line in stdout.splitlines() if '"wall_time_s"' not in line]


def report_diff(workdir, stem, before, after):
    paths = []
    for tag, text in (("parent", before), ("change", after)):
        paths.append(os.path.join(workdir, f"{stem}.{tag}.report.json"))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            fh.write(text)
    done = subprocess.run([sys.executable, os.path.join(HERE, "report_diff.py"), *paths],
                          capture_output=True, text=True)
    return done.stdout + done.stderr


def main(argv):
    if len(argv) != 3 or not all(os.path.isdir(os.path.join(t, "src")) for t in argv[1:]):
        print("usage: python3 tools/same_reports.py PARENT_DIR CHANGE_DIR "
              "(each with a src/ directory)", file=sys.stderr)
        return 2
    parent, change = argv[1], argv[2]
    differing = 0
    with tempfile.TemporaryDirectory() as workdir:
        for stem, doc in manifests():
            path = os.path.join(workdir, f"{stem}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
            before, after = run(parent, path), run(change, path)
            same_stdout = timeless(before[0]) == timeless(after[0])
            if same_stdout and before[1:] == after[1:]:
                print(f"same     {stem} (exit {after[2]})")
                continue
            differing += 1
            print(f"DIFFERS  {stem}")
            if before[2] != after[2]:
                print(f"  exit code {before[2]} -> {after[2]}")
            if before[1] != after[1]:
                sys.stdout.writelines(
                    "  " + line for line in difflib.unified_diff(
                        before[1].splitlines(keepends=True),
                        after[1].splitlines(keepends=True), "parent stderr",
                        "change stderr"))
            if not same_stdout:
                for line in report_diff(workdir, stem, before[0], after[0]).splitlines():
                    print(f"  {line}")
    total = len(manifests())
    print(f"{total - differing} of {total} manifests give the same report, "
          f"stderr and exit code")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
