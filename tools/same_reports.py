"""Run the same `paracurv check` manifests on two source trees and compare.

    python3 tools/same_reports.py PARENT_DIR CHANGE_DIR

Each directory is a checkout of the repository; its `src/` is put on
PYTHONPATH for its own runs.  The fixed manifest set is

* heisenberg and hyperboloid at n = 1..3 with sampling seeds 1 and 7, and
  at n = 4 with seed 1, every check;
* both at n = 2 under the D-homothety alpha = 2, every check;
* 1000 points of axioms, classification and eta_einstein on heisenberg(3)
  and on hyperboloid(3) with alpha = 2, and 997 points, which leave a
  ragged last batch, on the embedded hyperboloid(2) graph and on the
  heisenberg(3) tables with alpha = 2;
* a custom chart (the heisenberg(1) tables), an embedded chart (the
  hyperboloid(1) graph), heisenberg(4) with phsc and identities at seed 34,
  and the heisenberg(1) tables with g scaled by 1e160, whose curvature
  overflows.

It also runs `curvature` at 10 fixed points each on heisenberg(3),
hyperboloid(2), hyperboloid(2) with alpha = 2, the embedded hyperboloid(1)
graph, heisenberg(1) with alpha = 3 and heisenberg(4).

For each manifest the report on stdout (without its `wall_time_s` line),
stderr and the exit code must be byte-identical, and so must the whole
output of each `curvature` call.  Every case that differs is named, with a
diff of its stderr and, for a report, the output of `report_diff.py` on its
two reports.  Exit code 0 when nothing differs, 1 otherwise, 2 on bad
arguments.  Standard library only, so it compares any two versions.
"""

from __future__ import annotations

import difflib
import json
import os
import random
import subprocess
import sys
import tempfile

SCHEMA = "paracurv-manifest/1"
HERE = os.path.dirname(os.path.abspath(__file__))
WIDE_CHECKS = ["axioms", "classification", "eta_einstein"]


def heisenberg_tables(n):
    """The builtin heisenberg(n) as expression tables, spelled out as the
    package writes them."""
    ks = range(1, n + 1)
    coords = [f"u{k}" for k in ks] + [f"v{k}" for k in ks] + ["t"]
    d = 2 * n + 1
    eta = [f"-v{k}" for k in ks] + [f"u{k}" for k in ks] + ["1"]
    phi = [["0"] * d for _ in range(d)]
    for k in range(n):
        phi[n + k][k] = phi[k][n + k] = "1"
        phi[d - 1][k], phi[d - 1][n + k] = f"-u{k + 1}", f"v{k + 1}"
    flat = ["+1.0"] * n + ["+-1.0"] * n + [""]
    g = [[f"({eta[i]})*({eta[j]})" + (flat[i] if i == j else "") for j in range(d)]
         for i in range(d)]
    return {"kind": "custom", "coords": coords, "g": g, "phi": phi,
            "xi": ["0"] * (d - 1) + ["1"], "eta": eta}


# heisenberg(1): eta = dt + u dv - v du, xi = d/dt, g = eta (x) eta + du^2 - dv^2
HEISENBERG1 = heisenberg_tables(1)


def embedded_hyperboloid(n):
    """The hyperboloid(n) graph chart as an embedded manifold."""
    coords = [f"x{i}" for i in range(1, n + 1)] + [f"y{j}" for j in range(n + 1)]
    radicand = "1" + "".join(f"-x{i}^2" for i in range(1, n + 1)) + "".join(
        f"+y{j}^2" for j in range(n + 1))
    return {"kind": "embedded", "n": n, "coords": coords,
            "immersion": [f"sqrt({radicand})"] + coords}


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
    out.append(("embedded_hyperboloid2_997",
                manifest(embedded_hyperboloid(2), count=997, checks=WIDE_CHECKS)))
    out.append(("custom_heisenberg3_alpha2_997",
                manifest(heisenberg_tables(3), count=997, checks=WIDE_CHECKS,
                         alpha=2.0)))
    out.append(("custom_heisenberg1", manifest(HEISENBERG1)))
    out.append(("embedded_hyperboloid1", manifest(embedded_hyperboloid(1))))
    out.append(("heisenberg4_sections_seed34",
                manifest(builtin("heisenberg", 4), seed=34, checks=["phsc", "identities"])))
    scaled = dict(HEISENBERG1, g=[[f"1e160*({s})" for s in row]
                                  for row in HEISENBERG1["g"]])
    out.append(("custom_heisenberg1_g1e160", manifest(scaled, count=30)))
    return out


def curvature_points():
    """(stem, manifest, point) of the fixed `curvature` calls: 10 points in
    [-0.5, 0.5]^d on each chart, inside every chart's domain."""
    charts = [
        ("heisenberg3", builtin("heisenberg", 3), None),
        ("hyperboloid2", builtin("hyperboloid", 2), None),
        ("hyperboloid2_alpha2", builtin("hyperboloid", 2), 2.0),
        ("embedded_hyperboloid1", embedded_hyperboloid(1), None),
        ("heisenberg1_alpha3", builtin("heisenberg", 1), 3.0),
        # last, so the points of the charts above stay as they were
        ("heisenberg4", builtin("heisenberg", 4), None),
    ]
    rng = random.Random(11)
    out = []
    for stem, manifold, alpha in charts:
        doc = {"schema": SCHEMA, "manifold": manifold}
        if alpha is not None:
            doc["transform"] = {"alpha": alpha}
        dim = 2 * manifold["n"] + 1
        for i in range(10):
            point = ",".join(repr(rng.uniform(-0.5, 0.5)) for _ in range(dim))
            out.append((f"{stem}_point{i}", doc, point))
    return out


def run(tree, args):
    """(stdout, stderr, exit code) of the CLI on a tree."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    done = subprocess.run([sys.executable, "-m", "paracurv.cli", *args],
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
    cases = [(stem, doc, ("check",)) for stem, doc in manifests()] + [
        (f"curvature_{stem}", doc, ("curvature", "--point", point))
        for stem, doc, point in curvature_points()]
    differing = 0
    with tempfile.TemporaryDirectory() as workdir:
        for stem, doc, (command, *options) in cases:
            path = os.path.join(workdir, f"{stem}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
            args = (command, path, *options)
            before, after = run(parent, args), run(change, args)
            same_stdout = timeless(before[0]) == timeless(after[0])
            if same_stdout and before[1:] == after[1:]:
                print(f"same     {stem} (exit {after[2]})")
                continue
            differing += 1
            print(f"DIFFERS  {stem}")
            if before[2] != after[2]:
                print(f"  exit code {before[2]} -> {after[2]}")
            for name, old, new in (("stderr", before[1], after[1]),
                                   ("stdout", before[0], after[0])):
                if old == new or name == "stdout" and command == "check":
                    continue
                sys.stdout.writelines(
                    "  " + line for line in difflib.unified_diff(
                        old.splitlines(keepends=True), new.splitlines(keepends=True),
                        f"parent {name}", f"change {name}"))
            if not same_stdout and command == "check":
                for line in report_diff(workdir, stem, before[0], after[0]).splitlines():
                    print(f"  {line}")
    reports = len(manifests())
    print(f"{len(cases) - differing} of {len(cases)} cases give the same output, "
          f"stderr and exit code ({reports} reports, {len(cases) - reports} "
          f"curvature calls)")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
