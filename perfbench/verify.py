"""Output checks against the paper's closed forms.

Nothing here compares against a stored copy of the program's output.  A
paraSasakian space form of constant paraholomorphic sectional curvature k
in dimension 2n + 1 has

* Ricci tensor  r = a g + b eta (x) eta  with  a = (n(k-3) + k + 1)/2  and
  b = -(n+1)(k+1)/2,
* scalar curvature  2s = n(2n+1)(k-3) + n(k+1),
* PC-Bochner tensor B = 0 with constant  kappa_B = -(s - 2n)/(2n + 2),
* xi-sectional curvature -1.

The hyperbolic Heisenberg group has k = 3, the hyperboloid k = -1, and a
D-homothety of parameter alpha maps k to (k - 3)/alpha + 3.  Each checker
returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import json
import math

PHSC = {"heisenberg": 3.0, "hyperboloid": -1.0}
TOLERANCE = 1e-8
VERDICTS = ("paracontact_metric", "paraSasakian", "para_CR")


def phsc_constant(family, alpha=1.0):
    return (PHSC[family] - 3.0) / alpha + 3.0


def eta_einstein_constants(n, k):
    return (n * (k - 3.0) + k + 1.0) / 2.0, -(n + 1.0) * (k + 1.0) / 2.0


def scalar_curvature(n, k):
    return (n * (2 * n + 1) * (k - 3.0) + n * (k + 1.0)) / 2.0


def kappa_b(n, k):
    return -(scalar_curvature(n, k) - 2.0 * n) / (2.0 * n + 2.0)


def _close(got, want, tol=TOLERANCE):
    """Normalized residual test, the same form the program's checks use."""
    if not isinstance(got, (int, float)) or not math.isfinite(got):
        return False
    return abs(got - want) <= tol * (1.0 + abs(got) + abs(want))


def _expect(problems, name, got, want):
    if not _close(got, want):
        problems.append(f"{name} = {got!r}, expected {want!r}")


def check_report(case, exit_code, text, alpha=None):
    """Problems with one ``paracurv check`` report of ``case``.

    Every row must pass, except the rows ``case.expected_failures`` names,
    which must FAIL.  ``alpha`` overrides the case's D-homothety parameter,
    so a test can check a report against the wrong one.
    """
    alpha = case.alpha if alpha is None else alpha
    failing = set(case.expected_failures)
    problems = []
    if exit_code != (1 if failing else 0):
        problems.append(f"exit code {exit_code}, expected {1 if failing else 0}")
    try:
        doc = json.loads(text)
    except ValueError as e:
        return problems + [f"report is not JSON: {e}"]
    if doc.get("pass") is not (not failing):
        problems.append(f"report pass is {doc.get('pass')}, expected {not failing}")
    rows = doc.get("checks") or []
    if not rows:
        problems.append("report has no check rows")
    for row in rows:
        residual = row.get("residual_max")
        finite = isinstance(residual, (int, float)) and math.isfinite(residual)
        passed = row.get("pass") is True and finite and residual < row.get("threshold", 0.0)
        if passed == (row.get("name") in failing):
            problems.append(f"row {row.get('name')} pass is {row.get('pass')}: {row}")
    missing = failing - {row.get("name") for row in rows}
    if missing:
        problems.append(f"rows {sorted(missing)} missing")
    checks = case.manifest.get("checks", "all")
    if checks == "all" or "classification" in checks:
        for name in VERDICTS:
            if doc.get("verdicts", {}).get(name) is not True:
                problems.append(f"verdict {name} is not true")
    count = case.manifest.get("sampling", {}).get("count")
    if doc.get("point_count") != count:
        problems.append(f"point_count {doc.get('point_count')}, expected {count}")

    n, k = case.n, phsc_constant(case.family, alpha)
    want = {}
    if checks == "all" or {"phsc", "space_form", "identities"} & set(checks):
        want["k_hat"] = k
    if checks == "all" or "eta_einstein" in checks:
        want["a"], want["b"] = eta_einstein_constants(n, k)
    if checks == "all" or "bochner" in checks:
        want["kappa_B"] = kappa_b(n, k)
    constants = doc.get("constants", {})
    for name, value in want.items():
        if name not in constants:
            problems.append(f"constant {name} missing")
        else:
            _expect(problems, name, constants[name], value)
    return problems


def parse_summary(text):
    """``key: value`` lines of ``paracurv curvature`` as a dict of strings."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def check_curvature(case, exit_code, text, alpha=None):
    """Problems with one ``paracurv curvature`` summary of ``case``."""
    alpha = case.alpha if alpha is None else alpha
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    summary = parse_summary(text)
    try:
        values = {key: float(summary[key]) for key in (
            "xi_sectional", "phsc", "scalar_s", "kappa_B", "|B|_inf", "|R|_inf")}
    except (KeyError, ValueError) as e:
        return problems + [f"curvature summary lacks a number: {e}"]
    n, k = case.n, phsc_constant(case.family, alpha)
    _expect(problems, "xi_sectional", values["xi_sectional"], -1.0)
    _expect(problems, "phsc", values["phsc"], k)
    _expect(problems, "scalar_s", values["scalar_s"], scalar_curvature(n, k))
    _expect(problems, "kappa_B", values["kappa_B"], kappa_b(n, k))
    # B vanishes: its size relative to the curvature it is built from
    if not values["|B|_inf"] <= TOLERANCE * (1.0 + values["|R|_inf"]):
        problems.append(f"|B|_inf = {values['|B|_inf']!r} is not about 0")
    if case.family not in summary.get("structure", ""):
        problems.append(f"structure {summary.get('structure')!r} is not {case.family}")
    return problems


def check_negative_control(exit_code, text):
    """The scaled-metric control must be reported as an axiom (iv) FAIL."""
    problems = []
    if exit_code != 1:
        problems.append(f"exit code {exit_code}, expected 1")
    try:
        doc = json.loads(text)
    except ValueError as e:
        return problems + [f"report is not JSON: {e}"]
    if doc.get("pass") is not False:
        problems.append("report pass is not false")
    rows = {row.get("name"): row for row in doc.get("checks", [])}
    row = rows.get("axiom_iv_deta", {})
    if row.get("pass") is not False or not row.get("residual_max", 0.0) > 1e-2:
        problems.append(f"axiom_iv_deta is not a clear FAIL: {row}")
    return problems
