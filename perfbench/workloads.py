"""Benchmark inputs: the manifests and points of each workload, from a seed.

The program sees only what is generated here: manifest files (whose
``sampling.seed`` is drawn from the benchmark seed) and, for ``pointwise``,
chart points drawn from the same stream.  The same seed gives the same
inputs; nothing else varies between runs.

Why these workloads:

* ``sweep``   - every check on both builtins from n = 1 up to n = 4 (two of
  them on one fixed input, see below).  At the top dimensions the order-3 checks (``identities``, ``parallel``) dominate,
  so ``jetfields``, ``connection`` and ``analysis`` carry the time.  Cost
  grows like d^6..d^8 in d = 2n + 1, so n = 4 is reported on its own as
  ``top_dim_s``.
* ``wide``    - low-order checks on a thousand points per manifest over the
  three ways ``geometry`` builds structure jets (expression tables, an
  embedding, the D-homothety wrapper) plus a custom chart with long
  expressions.  Structure jets at many points dominate.
* ``pointwise`` - one ``paracurv curvature`` call per point, each from a
  cold structure: interactive latency, where no cache can hit.

The paraholomorphic sectional curvature of a section is computed with a
relative error that grows like 1/g(phi v, phi v)^2, and the sampler accepts
sections down to |g(phi v, phi v)| = 1e-6.  On some seeds the ``phsc`` and
``identities`` checks (rows ``phsc_constancy`` and ``f9_vs_f8_phsc``) then
FAIL on a correct structure.  So the seeded sweep manifests leave those two
checks out, and ``pointwise`` uses Heisenberg charts only, where that
denominator does not depend on the point.  The two checks run on one fixed
input instead, ``heisenberg(4)`` at sampling seed 34, on which
``f9_vs_f8_phsc`` FAILs every time: it is counted as a failed operation,
and its time still counts, since it carries the identity catalog (the f55
contraction) at the top dimension.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("sweep", "wide", "pointwise")
SCHEMA = "paracurv-manifest/1"
WIDE_CHECKS = ["axioms", "classification", "eta_einstein"]
# every check but the two that draw paraholomorphic sections (see above)
SWEEP_CHECKS = ["axioms", "classification", "xi_sectional", "space_form",
                "eta_einstein", "bochner", "wpc", "parallel"]
SECTION_CHECKS = ["phsc", "identities"]
# sampling seeds at which SECTION_CHECKS FAIL f9_vs_f8_phsc on heisenberg(n)
SECTION_FAIL_SEEDS = {1: 84, 4: 34}
# the program's default sampling box, and a margin above the hyperboloid
# chart guard (radicand >= 0.1) so that no drawn point sits on its edge
POINT_HALF_WIDTH = 0.8
HYPERBOLOID_MIN_RADICAND = 0.2


@dataclass(frozen=True)
class Case:
    """One manifest of a workload and what the paper says it must give."""

    label: str  # e.g. "hyperboloid(3) alpha=2"
    family: str  # "heisenberg" | "hyperboloid": fixes the phsc before any transform
    n: int
    alpha: float  # D-homothety parameter, 1.0 when untransformed
    path: str  # manifest file
    manifest: dict
    expected_failures: tuple = ()  # report rows known to FAIL on this input


@dataclass(frozen=True)
class Operation:
    """One in-process CLI call."""

    case: Case
    argv: tuple  # arguments after the program name


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple
    operations: tuple

    @property
    def top_n(self):
        return max(case.n for case in self.cases)


def _builtin(name, n):
    return {"kind": "builtin", "name": name, "n": n}


def _manifest(manifold, checks, count, seed, alpha=1.0):
    doc = {
        "schema": SCHEMA,
        "manifold": manifold,
        "sampling": {"seed": seed, "count": count},
        "checks": checks,
    }
    if alpha != 1.0:
        doc["transform"] = {"alpha": alpha}
    return doc


def _seed(rng):
    return int(rng.integers(0, 2 ** 63))


def _write(workdir, stem, manifest):
    path = os.path.join(workdir, f"{stem}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return path


def _case(workdir, stem, label, family, n, alpha, manifest, expected_failures=()):
    return Case(label, family, n, alpha, _write(workdir, stem, manifest), manifest,
                expected_failures)


def _sweep(rng, workdir, quick):
    sizes = (1,) if quick else (1, 2, 3, 4)
    cases = []
    for n in sizes:
        for family in ("heisenberg", "hyperboloid"):
            # heisenberg(3), the median operation, on three seeded samples:
            # one sample per round is too few for op_p50_ms to repeat
            for copy in range(3 if (family, n) == ("heisenberg", 3) else 1):
                manifest = _manifest(_builtin(family, n), SWEEP_CHECKS, 200, _seed(rng))
                cases.append(_case(workdir, f"{family}{n}-{copy}", f"{family}({n})",
                                   family, n, 1.0, manifest))
    top = sizes[-1]
    fixed = _manifest(_builtin("heisenberg", top), SECTION_CHECKS, 200,
                      SECTION_FAIL_SEEDS[top])
    cases.append(_case(workdir, f"sections{top}", f"heisenberg({top}) phsc+identities",
                       "heisenberg", top, 1.0, fixed, ("f9_vs_f8_phsc",)))
    return cases


def _wide(rng, workdir, quick):
    # the custom chart is heisenberg(n)'s expression tables rewritten by the
    # program's own D-homothety of manifests, so its entries are long
    from paracurv.geometry import heisenberg_tables
    from paracurv.manifest import transform_manifest

    small, large = (1, 1) if quick else (2, 3)
    count = 100 if quick else 1000
    coords, g, phi, xi, eta = heisenberg_tables(large)
    custom = transform_manifest(
        _manifest({"kind": "custom", "name": f"custom_heisenberg{large}",
                   "coords": coords, "g": g, "phi": phi, "xi": xi, "eta": eta},
                  WIDE_CHECKS, count, _seed(rng)),
        2.0,
    )
    specs = [
        ("heisenberg", large, 1.0, f"heisenberg({large})",
         _manifest(_builtin("heisenberg", large), WIDE_CHECKS, count, _seed(rng))),
        ("hyperboloid", small, 1.0, f"hyperboloid({small})",
         _manifest(_builtin("hyperboloid", small), WIDE_CHECKS, count, _seed(rng))),
        ("hyperboloid", large, 2.0, f"hyperboloid({large}) alpha=2",
         _manifest(_builtin("hyperboloid", large), WIDE_CHECKS, count,
                   _seed(rng), alpha=2.0)),
        ("heisenberg", large, 2.0, f"custom heisenberg({large}) tables alpha=2",
         custom),
    ]
    return [
        _case(workdir, f"wide{i}", label, family, n, alpha, manifest)
        for i, (family, n, alpha, label, manifest) in enumerate(specs)
    ]


def chart_points(rng, family, n, count):
    """Uniform points of the sampling box that lie well inside the chart."""
    d = 2 * n + 1
    points = []
    while len(points) < count:
        p = rng.uniform(-POINT_HALF_WIDTH, POINT_HALF_WIDTH, d)
        if family == "hyperboloid":
            radicand = 1.0 - np.sum(p[:n] ** 2) + np.sum(p[n:] ** 2)
            if radicand < HYPERBOLOID_MIN_RADICAND:
                continue
        points.append(tuple(float(c) for c in p))
    return points


def _pointwise_cases(workdir, quick):
    specs = [("heisenberg", 1)] if quick else [("heisenberg", 3), ("heisenberg", 4)]
    return [
        _case(workdir, f"{family}{n}", f"{family}({n})", family, n, 1.0,
              {"schema": SCHEMA, "manifold": _builtin(family, n)})
        for family, n in specs
    ]


def build(name, seed, workdir, quick=False):
    """Write the workload's manifests under ``workdir`` and list its operations."""
    rng = np.random.default_rng(seed)
    if name == "sweep":
        cases = _sweep(rng, workdir, quick)
    elif name == "wide":
        cases = _wide(rng, workdir, quick)
    elif name == "pointwise":
        cases = _pointwise_cases(workdir, quick)
    else:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    if name != "pointwise":
        ops = [Operation(case, ("check", case.path)) for case in cases]
    else:
        per_case = 5 if quick else 150
        ops = []
        for case in cases:
            for p in chart_points(rng, case.family, case.n, per_case):
                text = ",".join(repr(c) for c in p)
                ops.append(Operation(case, ("curvature", case.path, "--point", text)))
    return Workload(name, tuple(cases), tuple(ops))


def negative_control(workdir):
    """heisenberg(2) tables with g scaled by 1.1: axiom (iv) must FAIL."""
    from paracurv.geometry import heisenberg_tables

    coords, g, phi, xi, eta = heisenberg_tables(2)
    manifold = {
        "kind": "custom",
        "name": "scaled_heisenberg2",
        "coords": coords,
        "g": [[f"1.1*({s})" for s in row] for row in g],
        "phi": phi,
        "xi": xi,
        "eta": eta,
    }
    return _write(workdir, "negative_control",
                  _manifest(manifold, ["axioms"], 20, 7))
