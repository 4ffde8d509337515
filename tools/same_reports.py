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
  hyperboloid(1) graph), phsc and identities on heisenberg(4) at seed 34
  and on heisenberg(1) at seed 84, whose `f9_vs_f8_phsc` sits near its
  threshold, the heisenberg(1) tables with g scaled by 1e160, whose
  curvature overflows, and every check on those tables with xi stretched
  to 1.1 d/dt, whose eta(xi) = 1.1 leaves no quadruple horizontal, so
  that every `wpc` draw reads nan;
* every check on hyperboloid(2) at 3 sample points, fewer than one
  order-3 frame holds, so that its one frame is a ragged batch;
* wpc and space_form on heisenberg(2), whose leading points make two
  order-2 frames, and classification and parallel on hyperboloid(2),
  an order-3 frame and then an order-1 one, each at 30 sample points.

It also runs `curvature` at 10 fixed points each on heisenberg(3),
hyperboloid(2), hyperboloid(2) with alpha = 2, the embedded hyperboloid(1)
graph, heisenberg(1) with alpha = 3 and heisenberg(4).  Last come three
bad inputs, heisenberg(1) tables that `check` refuses with exit 2: one with
two entries that refuse at the probe point; one whose two refusing entries
lie at different depths, the entry met first the deeper one; and one with a
division by nearly 0.

For each manifest the report on stdout (without its `wall_time_s` line),
stderr and the exit code must be byte-identical, and so must the whole
output of each `curvature` call.  Every case that differs is named, with a
diff of its stderr and, for a report, the output of `report_diff.py` on its
two reports.  The last lines sort the differing cases in two: those that
differ only in moved numbers (same exit code, same text once every number
is masked, and no report field that `report_diff.py` calls different), and
those where a field, check name, verdict, pass flag or exit code changed.
They also name the largest absolute move, a report row or a `curvature`
line, and its case, and the largest outside the phsc-derived rows
(`phsc_constancy`, `f9_vs_f8_phsc` and the `phsc` line of `curvature`),
whose ill-conditioned divisions move them most.  Exit code 0 when nothing
differs, 1 otherwise, 2 on bad arguments.  Standard library only, so it
compares any two versions.
"""

from __future__ import annotations

import difflib
import json
import os
import random
import re
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
    out.append(("heisenberg1_sections_seed84",
                manifest(builtin("heisenberg", 1), seed=84, checks=["phsc", "identities"])))
    scaled = dict(HEISENBERG1, g=[[f"1e160*({s})" for s in row]
                                  for row in HEISENBERG1["g"]])
    out.append(("custom_heisenberg1_g1e160", manifest(scaled, count=30)))
    stretched = dict(HEISENBERG1, xi=["0", "0", "1.1"])
    out.append(("custom_heisenberg1_xi_stretched",
                manifest(stretched, seed=3, count=20)))
    # fewer points than one order-3 frame holds: a ragged order-3 batch
    out.append(("hyperboloid2_count3", manifest(builtin("hyperboloid", 2), count=3)))
    # frame plans of partial selections: two order-2 segments; an order-3
    # segment, then an order-1 one
    out.append(("heisenberg2_wpc_space_form",
                manifest(builtin("heisenberg", 2), count=30,
                         checks=["wpc", "space_form"])))
    out.append(("hyperboloid2_classification_parallel",
                manifest(builtin("hyperboloid", 2), count=30,
                         checks=["classification", "parallel"])))
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


def bad_inputs():
    """(stem, manifest) of the custom tables that exit 2 at the probe point:
    a g entry takes sqrt(-5) and a later phi entry ln(-1), the same sqrt
    sitting in another g entry at another offset; a g entry takes
    sqrt(exp(0) - 5), three operations deep, and a later phi entry ln(-1),
    two deep; and an xi entry divides by 1e-15."""
    refusing = heisenberg_tables(1)
    refusing["g"][0][1] = "(-v1)*(u1) + 0*sqrt(t - 5)"
    refusing["g"][1][0] = "0*sqrt(t - 5) + (u1)*(-v1)"
    refusing["phi"][2][0] = "-u1 + 0*ln(t - 1)"
    deeper_first = heisenberg_tables(1)
    deeper_first["g"][0][1] = "(-v1)*(u1) + 0*sqrt(exp(t) - 5)"
    deeper_first["phi"][2][0] = "-u1 + 0*ln(t - 1)"
    near_zero = heisenberg_tables(1)
    near_zero["xi"][2] = "1 + 0*(u1/(t + 1e-15))"
    return [("custom_heisenberg1_refusals", manifest(refusing)),
            ("custom_heisenberg1_deeper_refusal_first", manifest(deeper_first)),
            ("custom_heisenberg1_near_zero_division", manifest(near_zero))]


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


# a number that stands alone, not a digit inside a name such as f9_vs_f8
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?!\w)")
MOVED = re.compile(r"moved (\S+): .* \(abs change (\S+)\)$")
SAME_FIELDS = "same names, orders, verdicts, pass flags and constant keys;"
# the report rows and the `curvature` line that divide by a section's
# ill-conditioned pairings, whose moves can hide every other
PHSC_DERIVED = "phsc_constancy, f9_vs_f8_phsc and curvature's phsc"


def phsc_derived(row):
    return row == "phsc" or row.startswith(("checks.phsc_constancy.",
                                            "checks.f9_vs_f8_phsc."))


def curvature_moves(old, new):
    """(label, abs change) of each `label: number` line of two `curvature`
    outputs whose number moved."""
    out = []
    for a, b in zip(old.splitlines(), new.splitlines()):
        label, _, x = a.partition(": ")
        y = b.partition(": ")[2]
        if x != y and NUMBER.fullmatch(x) and NUMBER.fullmatch(y):
            out.append((label, abs(float(y) - float(x))))
    return out


def classify(before, after, diff_text=None):
    """("moved" or "changed", moves) of a case whose runs differ.

    ``before`` and ``after`` are (stdout, stderr, exit code); ``diff_text``
    is the output of `report_diff.py` on the two reports of a `check`
    whose stdout differs, and None otherwise.  A case is "moved" when the
    exit codes are equal, the texts are equal once every number is masked
    (a report's stdout is judged by `report_diff.py` instead) and
    `report_diff.py` finds no field that differs.  ``moves`` lists
    (row, abs change) of each moved number.
    """
    if diff_text is None:
        texts = zip(before[:2], after[:2])
        moves = curvature_moves(before[0], after[0])
        fields_same = True
    else:
        texts = [(before[1], after[1])]
        lines = diff_text.splitlines()
        moves = [(m[1], float(m[2])) for m in map(MOVED.match, lines) if m]
        fields_same = bool(lines) and lines[-1].startswith(SAME_FIELDS)
    numbers_only = (before[2] == after[2] and fields_same
                    and all(NUMBER.sub("#", a) == NUMBER.sub("#", b) for a, b in texts))
    return ("moved" if numbers_only else "changed"), moves


def summary(results):
    """The closing lines on the differing cases, from (stem, kind, moves)."""
    lines = []
    for kind, what in (("moved", "differ only in moved numbers"),
                       ("changed", "differ in a field, check name, verdict, "
                                   "pass flag or exit code")):
        stems = [stem for stem, k, _ in results if k == kind]
        lines.append(f"{len(stems)} case(s) {what}" + (f": {', '.join(stems)}"
                                                      if stems else ""))
    moves = [(change, stem, row) for stem, _, rows in results for row, change in rows]
    if moves:
        change, stem, row = max(moves)
        lines.append(f"largest absolute move: {change:.3g}, {row} of {stem}")
        rest = [m for m in moves if not phsc_derived(m[2])]
        where = f"outside the phsc-derived rows ({PHSC_DERIVED})"
        if rest:
            change, stem, row = max(rest)
            lines.append(f"largest absolute move {where}: {change:.3g}, {row} of {stem}")
        else:
            lines.append(f"no move {where}")
    return lines


def main(argv):
    if len(argv) != 3 or not all(os.path.isdir(os.path.join(t, "src")) for t in argv[1:]):
        print("usage: python3 tools/same_reports.py PARENT_DIR CHANGE_DIR "
              "(each with a src/ directory)", file=sys.stderr)
        return 2
    parent, change = argv[1], argv[2]
    cases = [(stem, doc, ("check",)) for stem, doc in manifests()] + [
        (f"curvature_{stem}", doc, ("curvature", "--point", point))
        for stem, doc, point in curvature_points()] + [
        (stem, doc, ("check",)) for stem, doc in bad_inputs()]
    results = []
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
            diff_text = None
            if not same_stdout and command == "check":
                diff_text = report_diff(workdir, stem, before[0], after[0])
                for line in diff_text.splitlines():
                    print(f"  {line}")
            results.append((stem, *classify(before, after, diff_text)))
    reports, bad = len(manifests()), len(bad_inputs())
    print(f"{len(cases) - len(results)} of {len(cases)} cases give the same output, "
          f"stderr and exit code ({reports} reports, {len(cases) - reports - bad} "
          f"curvature calls, {bad} bad inputs)")
    if results:
        print("\n".join(summary(results)))
    return 1 if results else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
