"""Exact oracle for the jet pipeline: Gamma, R, Ricci and s by sympy.

The metric of each chart is written out symbolically, the Christoffel
symbols and curvature are derived from it by symbolic differentiation, and
only then is the result evaluated, at a rational point, to 40 significant
digits.  No finite difference and no jet enters the oracle.
"""

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")

import paracurv as pc
from paracurv.geometry import heisenberg_tables
from paracurv.manifest import build_structure
from paracurv.report import nres

POINT = (sympy.Rational(1, 3), sympy.Rational(-1, 5), sympy.Rational(1, 7))
CONFORMAL = "sqrt(2 + u1^2)*exp(t/3)"


def table_metric(coords, texts):
    """Chart symbols and the metric of an expression table; the table's
    floats become rationals and ``^`` is a power, as in the manifest
    language."""
    x = sympy.symbols(coords)
    names = {s.name: s for s in x} | {"ln": sympy.log}
    g = sympy.Matrix([[sympy.sympify(t, locals=names, rational=True)
                       for t in row] for row in texts])
    return x, g


def heisenberg_metric():
    coords, g, *_ = heisenberg_tables(1)
    return table_metric(coords, g)


def conformal_tables():
    coords, g, phi, xi, eta = heisenberg_tables(1)
    g = [[f"{CONFORMAL}*({t})" for t in row] for row in g]
    return coords, g, phi, xi, eta


def hyperboloid_metric():
    """Minus the pull-back of the flat metric +dx0^2 + dx1^2 - dy0^2 - dy1^2
    by the graph chart x0 = sqrt(1 - x1^2 + y0^2 + y1^2) of the unit
    hyperboloid, so that g(xi, xi) = +1 on the Reeb field."""
    x = sympy.symbols("x1 y0 y1")
    x1, y0, y1 = x
    immersion = sympy.Matrix([sympy.sqrt(1 - x1**2 + y0**2 + y1**2), x1, y0, y1])
    jac = immersion.jacobian(x)
    return x, -jac.T * sympy.diag(1, 1, -1, -1) * jac


def oracle(x, g):
    """(g_ij, Gamma^l_ij, R_ijkl, r_jk, s) at POINT, each evaluated to 40
    digits from its symbolic expression and then rounded to floats."""
    r = range(len(x))
    ginv = g.adjugate() / g.det()
    dg = [[[g[i, j].diff(x[a]) for j in r] for i in r] for a in r]
    gamma = [[[sum(ginv[l, m] * (dg[i][m][j] + dg[j][m][i] - dg[m][i][j])
                   for m in r) / 2 for j in r] for i in r] for l in r]
    # R^l_ijk = d_i Gam^l_jk - d_j Gam^l_ik + Gam^l_is Gam^s_jk
    #           - Gam^l_js Gam^s_ik;  R_ijkl = g_lm R^m_ijk
    riem_up = [[[[gamma[l][j][k].diff(x[i]) - gamma[l][i][k].diff(x[j])
                  + sum(gamma[l][i][s] * gamma[s][j][k]
                        - gamma[l][j][s] * gamma[s][i][k] for s in r)
                  for k in r] for j in r] for i in r] for l in r]
    riem_down = [[[[sum(g[l, m] * riem_up[m][i][j][k] for m in r)
                    for l in r] for k in r] for j in r] for i in r]
    ricci = [[sum(ginv[m, l] * riem_down[m][j][k][l] for m in r for l in r)
              for k in r] for j in r]
    scalar = sum(ginv[j, k] * ricci[j][k] for j in r for k in r)
    at = dict(zip(x, POINT))

    def value(expr):
        if isinstance(expr, list):
            return [value(e) for e in expr]
        return float(sympy.N(sympy.sympify(expr).subs(at), 40))

    return tuple(np.array(value(t)) for t in (g.tolist(), gamma, riem_down,
                                              ricci, scalar))


def custom_chart():
    coords, g, phi, xi, eta = conformal_tables()
    return build_structure({"manifold": {
        "kind": "custom", "coords": coords, "g": g, "phi": phi, "xi": xi,
        "eta": eta,
    }})


@pytest.mark.parametrize(
    "structure, metric",
    [
        (lambda: pc.builtin_heisenberg(1), heisenberg_metric),
        (lambda: pc.builtin_hyperboloid(1), hyperboloid_metric),
        (custom_chart, lambda: table_metric(*conformal_tables()[:2])),
    ],
    ids=["heisenberg1", "hyperboloid1", "custom_conformal"],
)
def test_curvature_matches_the_symbolic_oracle(structure, metric):
    f = pc.get_frame(structure(), np.array([float(c) for c in POINT]), 2)
    g, gamma, riem_down, ricci, scalar = oracle(*metric())
    assert nres(f.g.value, g) < 1e-13
    assert nres(f.gamma.value, gamma) < 1e-13
    assert nres(f.riem_down.value, riem_down) < 1e-13
    assert nres(f.ricci.value, ricci) < 1e-13
    assert nres(f.scalar.value, scalar) < 1e-13
    # the oracle is not vacuous: the charts are curved
    assert np.max(np.abs(riem_down)) > 0.1
