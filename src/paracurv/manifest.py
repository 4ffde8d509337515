"""Manifest ingestion, check orchestration and report serialization.

A manifest is a JSON object selecting a manifold (builtin, custom
expression tables, or an embedded immersion), an optional D-homothety,
sampling parameters and a list of checks.  Reports are serialized with
sorted keys and 17-significant-digit floats so that a fixed manifest,
seed and version produce byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from collections.abc import Callable
from copy import deepcopy
from functools import cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import __version__
from .analysis import (
    Draws,
    bochner_pairing,
    bochner_symmetries,
    check_axioms,
    classify,
    eta_einstein_fit,
    horizontal,
    identity_suite,
    pc_bochner,
    phsc,
    space_form_fit,
    wpc,
    xi_sectional,
)
from .connection import PointGeometry, parallel_check
from .errors import ManifestError, ParacurvError
from .exprlang import parse
from .geometry import (
    BUILTINS,
    CharteredStructure,
    Domain,
    ExprTableComponents,
    InducedComponents,
    d_homothetic,
)
from .report import CheckReport, nres
from .sampling import Sampler

MANIFEST_SCHEMA = "paracurv-manifest/1"
REPORT_SCHEMA = "paracurv-report/1"
DEFAULT_TOLERANCE = 1e-8
DEFAULT_COUNT = 200
# the most sample points a manifest may ask for: a count beyond what any
# run reads, refused before the sampler allocates its (count, d) array
MAX_COUNT = 10 ** 6


# -- the check table ------------------------------------------------------------


class _Context(NamedTuple):
    """What the checks of one run share: the sampler, the tolerance and the
    one space-form fit that ``phsc``, ``space_form`` and ``identities``
    report, made on the ``space_form`` row's points, whichever of them
    runs, when first asked for."""

    sampler: Sampler
    tolerance: float
    space_fit: Callable  # () -> CheckReport


# the rows call the analysis through this module's globals, which
# perfbench/tracer.py rebinds to time them
def _axioms(ctx, frames, budget):
    return check_axioms(frames, ctx.tolerance)


def _classification(ctx, frames, budget):
    # its axiom rows fold into those of ``axioms`` when both run
    return classify(frames, ctx.tolerance)


def _xi_sectional(ctx, frames, budget):
    draws = Draws(frames, budget)
    u = ctx.sampler.horizontal_unit(*draws.values("g", "xi", "eta"))
    report = CheckReport()
    report.add("xi_sectional", nres(draws.map(xi_sectional, u), -1.0),
               ctx.tolerance)
    return report


def _phsc(ctx, frames, budget):
    k_hat = ctx.space_fit().constants["k_hat"]
    draws = Draws(frames, budget)
    v = ctx.sampler.section_vector(*draws.values("g", "phi"))
    report = CheckReport(constants={"k_hat": k_hat})
    report.add("phsc_constancy", nres(draws.map(phsc, v), k_hat), ctx.tolerance)
    return report


def _space_form(ctx, frames, budget):
    return ctx.space_fit()


def _eta_einstein(ctx, frames, budget):
    return eta_einstein_fit(frames, ctx.tolerance)


def _bochner(ctx, frames, budget):
    report = CheckReport()
    for f in frames:
        report.add("bochner_vanishing", nres(pc_bochner(f)[0]), ctx.tolerance)
    report.extend(bochner_symmetries(frames))
    report.constants["kappa_B"] = float(pc_bochner(frames[0].view(0))[1])
    return report


def _wpc(ctx, frames, budget):
    draws = Draws(frames, budget)
    # each draw's point, once for each of its four vectors
    g, xi, eta = (np.repeat(x[:, None], 4, axis=1)
                  for x in draws.values("g", "xi", "eta"))
    quads = ctx.sampler.horizontal_unit(g, xi, eta)  # (budget, 4, d)
    # eta(xi) != 1 leaves no vector horizontal: such a quadruple reads nan
    ok = horizontal(eta, quads).all(axis=1)
    quad = quads.transpose(1, 0, 2)
    residual = nres(draws.map(bochner_pairing, *quad, where=ok),
                    draws.map(wpc, *quad, where=ok))
    residual[~ok] = math.nan
    report = CheckReport()
    report.add("wpc_equals_bochner", residual, ctx.tolerance)
    return report


def _identities(ctx, frames, budget):
    return identity_suite(frames, ctx.space_fit().constants["k_hat"],
                          sampler=ctx.sampler, sections=budget,
                          threshold=ctx.tolerance)


def _parallel(ctx, frames, budget):
    return parallel_check(frames, ctx.tolerance)


class Check(NamedTuple):
    """One row of the check table."""

    name: str
    order: int  # jet order of the frames the check reads
    points: int | None  # runs on this many leading sample points; None: all
    budget: int  # vectors, sections or quadruples drawn from the sampler
    run: Callable  # (context, frames, budget) -> CheckReport


# in report order; the sampler draws in this order too
CHECKS = (
    Check("axioms", 1, None, 0, _axioms),
    Check("classification", 1, 25, 0, _classification),
    Check("xi_sectional", 2, 10, 50, _xi_sectional),
    Check("phsc", 2, 10, 50, _phsc),
    Check("space_form", 2, 10, 0, _space_form),
    Check("eta_einstein", 2, 10, 0, _eta_einstein),
    Check("bochner", 2, 10, 0, _bochner),
    Check("wpc", 2, 5, 100, _wpc),
    Check("identities", 2, 5, 50, _identities),
    Check("parallel", 3, 5, 0, _parallel),
)
ALL_CHECKS = tuple(row.name for row in CHECKS)
# the one space-form fit reads the points of this row, for every row that
# reports the fit
FIT_ROW = CHECKS[ALL_CHECKS.index("space_form")]
FIT_READERS = ("phsc", "space_form", "identities")
# points per frame past the last point limit, where only ``axioms`` reads:
# a batch pays each numpy call's fixed cost once for its points, and a
# bounded one keeps peak memory from growing with ``sampling.count``
BATCH = 64
# the jet orders of (g, phi, xi) and of eta in those frames: ``axioms``
# reads the values, and d eta
TAIL_ORDERS = (0, 1)


# -- loading and validation ---------------------------------------------------


def load_manifest(path):
    """Read, digest and validate a manifest file."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise ManifestError(f"cannot read manifest: {e}", field="path") from None
    digest = hashlib.sha256(raw).hexdigest()
    try:
        manifest = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ManifestError(f"manifest is not valid JSON: {e}") from None
    validate_manifest(manifest)
    return manifest, digest


def _require(cond, message, field):
    if not cond:
        raise ManifestError(message, field=field)


def _expr_table(rows, dim, field):
    _require(isinstance(rows, list) and len(rows) == dim,
             f"{field} must have {dim} rows", field)
    for i, row in enumerate(rows):
        _require(isinstance(row, list) and len(row) == dim,
                 f"{field} row {i} must have {dim} entries", field)
        for j, entry in enumerate(row):
            _require(isinstance(entry, str),
                     f"{field}[{i}][{j}] must be an expression string", field)


def _expr_vector(entries, dim, field):
    _require(isinstance(entries, list) and len(entries) == dim,
             f"{field} must have {dim} entries", field)
    for i, entry in enumerate(entries):
        _require(isinstance(entry, str),
                 f"{field}[{i}] must be an expression string", field)


def _integer(v):
    """A JSON integer; JSON's true and false are Python ints too."""
    return isinstance(v, int) and not isinstance(v, bool)


def _finite_number(v):
    """A JSON number that converts to a finite float (not nan, inf, a
    boolean or an integer beyond the float range)."""
    return ((_integer(v) or isinstance(v, float))
            and -sys.float_info.max <= v <= sys.float_info.max)


def _validate_box(box, dim, field):
    if box is None:
        return
    _require(isinstance(box, list) and len(box) == dim,
             f"{field} must list one [lo, hi] interval per coordinate", field)
    for i, interval in enumerate(box):
        ok = (
            isinstance(interval, list)
            and len(interval) == 2
            and all(_finite_number(v) for v in interval)
            and interval[0] < interval[1]
        )
        _require(ok, f"{field}[{i}] must be [lo, hi], finite, with lo < hi",
                 field)
        # the sampler draws lo + (hi - lo) * u, so the width must be finite
        _require(float(interval[1]) - float(interval[0]) < math.inf,
                 f"{field}[{i}] is wider than the largest float", field)


def validate_manifest(manifest):
    _require(isinstance(manifest, dict), "manifest must be a JSON object", None)
    _require(manifest.get("schema") == MANIFEST_SCHEMA,
             f"schema must be {MANIFEST_SCHEMA!r}", "schema")
    manifold = manifest.get("manifold")
    _require(isinstance(manifold, dict), "manifold must be an object", "manifold")
    kind = manifold.get("kind")
    _require(kind in ("builtin", "custom", "embedded"),
             "manifold.kind must be builtin, custom or embedded", "manifold.kind")
    _require("name" not in manifold or isinstance(manifold["name"], str),
             "manifold.name must be a string", "manifold.name")

    if kind == "builtin":
        _require(manifold.get("name") in BUILTINS,
                 f"manifold.name must be one of {sorted(BUILTINS)}", "manifold.name")
        n = manifold.get("n")
        _require(_integer(n) and n >= 1,
                 "manifold.n must be an integer >= 1", "manifold.n")
        dim = 2 * n + 1
    elif kind == "custom":
        coords = manifold.get("coords")
        _require(isinstance(coords, list) and len(coords) >= 3
                 and len(coords) % 2 == 1,
                 "manifold.coords must have odd length >= 3", "manifold.coords")
        dim = len(coords)
        _expr_table(manifold.get("g"), dim, "manifold.g")
        _expr_table(manifold.get("phi"), dim, "manifold.phi")
        _expr_vector(manifold.get("xi"), dim, "manifold.xi")
        _expr_vector(manifold.get("eta"), dim, "manifold.eta")
    else:
        n = manifold.get("n")
        _require(_integer(n) and n >= 1,
                 "manifold.n must be an integer >= 1", "manifold.n")
        coords = manifold.get("coords")
        dim = 2 * n + 1
        _require(isinstance(coords, list) and len(coords) == dim,
                 f"manifold.coords must have {dim} names", "manifold.coords")
        _expr_vector(manifold.get("immersion"), 2 * n + 2, "manifold.immersion")
        if "normal" in manifold:
            _expr_vector(manifold["normal"], 2 * n + 2, "manifold.normal")
    if kind != "builtin":
        _require(all(isinstance(c, str) for c in coords)
                 and len(set(coords)) == len(coords),
                 "manifold.coords must be distinct strings", "manifold.coords")
        _validate_box(manifold.get("box"), dim, "manifold.box")
        probe = manifold.get("probe")
        _require(probe is None or isinstance(probe, list) and len(probe) == dim
                 and all(_finite_number(v) for v in probe),
                 f"manifold.probe must list {dim} finite numbers",
                 "manifold.probe")

    transform = manifest.get("transform")
    if transform is not None:
        _require(isinstance(transform, dict), "transform must be an object",
                 "transform")
        alpha = transform.get("alpha")
        _require(_finite_number(alpha) and alpha > 0,
                 "transform.alpha must be a finite number > 0", "transform.alpha")

    sampling = manifest.get("sampling", {})
    _require(isinstance(sampling, dict), "sampling must be an object", "sampling")
    seed = sampling.get("seed", 0)
    _require(_integer(seed) and 0 <= seed < 2 ** 64,
             "sampling.seed must be an unsigned 64-bit integer", "sampling.seed")
    count = sampling.get("count", DEFAULT_COUNT)
    _require(_integer(count) and 1 <= count <= MAX_COUNT,
             f"sampling.count must be an integer in 1..{MAX_COUNT}",
             "sampling.count")
    _validate_box(sampling.get("box"), dim, "sampling.box")

    tolerance = manifest.get("tolerance", DEFAULT_TOLERANCE)
    _require(_finite_number(tolerance) and tolerance > 0,
             "tolerance must be a finite number > 0", "tolerance")

    checks = manifest.get("checks", "all")
    if checks != "all":
        _require(isinstance(checks, list) and checks, "checks must be 'all' or a "
                 "non-empty list of check names", "checks")
        for name in checks:
            _require(name in ALL_CHECKS,
                     f"unknown check {name!r}; known: {', '.join(ALL_CHECKS)}",
                     "checks")


# -- structure construction -----------------------------------------------------


def build_structure(manifest):
    """Instantiate the manifold (with its optional D-homothety)."""
    manifold = manifest["manifold"]
    kind = manifold["kind"]
    if kind == "builtin":
        structure = BUILTINS[manifold["name"]](manifold["n"])
    else:
        structure = _build_chart(manifold)
    transform = manifest.get("transform")
    if transform is not None:
        structure = d_homothetic(structure, float(transform["alpha"]))
    return structure


def _build_chart(manifold):
    """The structure of a custom (expression tables) or embedded manifold."""
    coords = manifold["coords"]
    dim = len(coords)

    def parsed(key, texts):
        asts = []
        for i, text in enumerate(texts):
            try:
                asts.append(parse(text, coords))
            except ParacurvError as e:
                name = f"manifold.{key}[{i}]"
                raise ManifestError(f"{name}: {e}", field=name) from None
        return asts

    if manifold["kind"] == "custom":
        g, phi = ([parsed(f"{key}[{i}]", row) for i, row in enumerate(manifold[key])]
                  for key in ("g", "phi"))
        components = ExprTableComponents(g, phi, parsed("xi", manifold["xi"]),
                                         parsed("eta", manifold["eta"]))
        n, default_name = (dim - 1) // 2, "custom"
    else:
        n, default_name = manifold["n"], "embedded"
        immersion = parsed("immersion", manifold["immersion"])
        normal = parsed("normal", manifold.get("normal", manifold["immersion"]))
        components = InducedComponents(immersion, normal)
    box = manifold.get("box")
    return CharteredStructure(
        n,
        coords,
        components,
        Domain(box) if box is not None else Domain.cube(dim),
        name=manifold.get("name", default_name),
        probe=manifold.get("probe"),
    )


# -- check execution -----------------------------------------------------------


def run_checks(structure, manifest, seed=None, tolerance=None):
    """Run the selected checks; returns (CheckReport, meta).

    The leading sample points, which every check with a point limit and
    the one space-form fit read, are split at each of those limits, clipped
    to ``sampling.count``, and each run of points between two limits is one
    frame, at the highest jet order of the checks that read its first
    point.  These frames are built first and kept for the run, so each
    such check reads whole frames.  A check that reads every point
    (``axioms``) gets them followed by frames of at most ``BATCH`` of the
    other points, each built when it is reached and dropped after use, so
    memory does not grow with ``sampling.count``.  Those tail frames hold
    only what ``axioms`` reads (``TAIL_ORDERS``): the values of g, phi and
    xi, and eta to order 1, whose parts have the bits of an order-1
    build.  So a tail point where only a derivative of g, phi or xi is not
    finite raises no DomainError.  The arithmetic runs with numpy warnings
    off: a non-finite result becomes a failed row.
    """
    sampling = manifest.get("sampling", {})
    if seed is None:
        seed = sampling.get("seed", 0)
    if tolerance is None:
        tolerance = float(manifest.get("tolerance", DEFAULT_TOLERANCE))
    count = sampling.get("count", DEFAULT_COUNT)
    selected = manifest.get("checks", "all")
    if selected == "all":
        selected = ALL_CHECKS
    rows = [row for row in CHECKS if row.name in selected]
    # the rows that need frames at a point, the fit's among them
    framed = rows + [FIT_ROW] * any(r.name in FIT_READERS for r in rows)
    ends = sorted({min(r.points, count) for r in framed if r.points is not None})
    sampler = Sampler(structure, seed, sampling.get("box"))
    points = sampler.points(count)

    def frame(start, stop, order, eta_order=None):
        return PointGeometry(structure.at(points[start:stop], order, eta_order),
                             points[start:stop])

    report = CheckReport()
    with np.errstate(all="ignore"):
        frames = [frame(start, stop, max(r.order for r in framed
                                         if r.points is None or start < r.points))
                  for start, stop in zip([0, *ends], ends)]

        def leading(limit):
            return frames[: ends.index(min(limit, count)) + 1]

        # lazy, so a failed fit is not raised ahead of an earlier row's error
        fit = cache(lambda: space_form_fit(leading(FIT_ROW.points), tolerance))
        ctx = _Context(sampler, tolerance, fit)
        for row in rows:
            if row.points is None:
                lead = max(ends, default=0)
                view = chain(frames, (frame(start, start + BATCH, *TAIL_ORDERS)
                                      for start in range(lead, count, BATCH)))
            else:
                view = leading(row.points)
            report.extend(row.run(ctx, view, row.budget))
    meta = {"seed": seed, "tolerance": tolerance, "point_count": count}
    return report, meta


def assemble_report(structure, digest, report, meta, wall_time_s):
    return {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "manifest_digest": digest,
        "structure": structure.name,
        "seed": meta["seed"],
        "tolerance": meta["tolerance"],
        "point_count": meta["point_count"],
        "checks": [r.as_dict() for r in report.rows.values()],
        # every constant enters a residual of its own check, so a constant
        # written as null comes with a failed row
        "constants": {k: v if math.isfinite(v) else None
                      for k, v in report.constants.items()},
        "verdicts": report.verdicts,
        "pass": report.passed,
        "wall_time_s": wall_time_s,
    }


# -- D-homothety on manifests ------------------------------------------------------


def transform_manifest(manifest, alpha):
    """Manifest whose structure is the D-homothety of the input's.

    Builtin and embedded manifolds record the (composed) alpha; custom
    expression tables are rewritten textually.
    """
    alpha = float(alpha)
    out = deepcopy(manifest)
    manifold = out["manifold"]
    custom = manifold["kind"] == "custom"
    if not custom:
        alpha *= (out.get("transform") or {}).get("alpha", 1.0)
    # checked after composing, so an overflowed product is refused too
    if not 0 < alpha < math.inf:
        raise ManifestError("transform.alpha must be a finite number > 0",
                            field="transform.alpha")
    if not custom:
        out["transform"] = {"alpha": alpha}
        return out
    dim = len(manifold["coords"])
    eta = manifold["eta"]
    c = alpha * alpha - alpha
    if not math.isfinite(c):
        raise ManifestError(f"transform.alpha = {alpha!r} overflows alpha^2 - alpha",
                            field="transform.alpha")
    g = manifold["g"]
    new_g = []
    for i in range(dim):
        row = []
        for j in range(dim):
            text = f"({alpha!r})*({g[i][j]})"
            if c != 0.0:
                text += f"+({c!r})*({eta[i]})*({eta[j]})"
            row.append(text)
        new_g.append(row)
    manifold["g"] = new_g
    manifold["xi"] = [f"({t})/({alpha!r})" for t in manifold["xi"]]
    manifold["eta"] = [f"({alpha!r})*({t})" for t in eta]
    return out


# -- serialization ----------------------------------------------------------------


def _serialize(obj, indent):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (
            f"{inner}{json.dumps(str(k))}: {_serialize(obj[k], indent + 1)}"
            for k in sorted(obj)
        )
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = (f"{inner}{_serialize(v, indent + 1)}" for v in obj)
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ParacurvError(f"cannot write the non-finite number {obj} as JSON")
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_report(report_dict):
    """Stable text form: sorted keys, 17-significant-digit floats."""
    return _serialize(report_dict, 0) + "\n"


def write_report(report_dict, path):
    text = dumps_report(report_dict)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
