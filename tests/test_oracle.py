"""Exact oracle for the jet pipeline: Gamma, R, Ricci and s by sympy, and
the canonical side: h, Gamma~, T~, R~ and the Levi-Civita derivatives of
phi, eta and xi.

The structure tensors of each chart are written out symbolically, the
connections, curvatures and covariant derivatives are derived from them
by symbolic differentiation, and only then is the result evaluated, at a
rational point, with 50-digit floats.  No finite difference and no jet
enters the oracle.
"""

from functools import cache

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")

import paracurv as pc
from paracurv.geometry import heisenberg_tables
from paracurv.manifest import build_structure
from paracurv.report import nres

POINT = (sympy.Rational(1, 3), sympy.Rational(-1, 5), sympy.Rational(1, 7))
CONFORMAL = "sqrt(2 + u1^2)*exp(t/3)"


def table_structure(coords, *tables):
    """Chart symbols and the sympy matrices of expression tables (g, phi,
    xi, eta, ...); the tables' floats become rationals and ``^`` is a
    power, as in the manifest language."""
    x = sympy.symbols(coords)
    names = {s.name: s for s in x} | {"ln": sympy.log}
    return x, *(sympy.Matrix(texts).applyfunc(
        lambda t: sympy.sympify(t, locals=names, rational=True)) for texts in tables)


def heisenberg_metric():
    coords, g, *_ = heisenberg_tables(1)
    return table_structure(coords, g)


def conformal_tables():
    coords, g, phi, xi, eta = heisenberg_tables(1)
    g = [[f"{CONFORMAL}*({t})" for t in row] for row in g]
    return coords, g, phi, xi, eta


FLAT = sympy.diag(1, 1, -1, -1)


def hyperboloid_immersion():
    """Chart symbols and the graph chart x0 = sqrt(1 - x1^2 + y0^2 + y1^2)
    of the unit hyperboloid, along the ambient axes (x0, x1, y0, y1)."""
    x = sympy.symbols("x1 y0 y1")
    x1, y0, y1 = x
    return x, sympy.Matrix([sympy.sqrt(1 - x1**2 + y0**2 + y1**2), x1, y0, y1])


def hyperboloid_metric():
    """Minus the pull-back of the flat metric +dx0^2 + dx1^2 - dy0^2 - dy1^2
    by the graph chart of the unit hyperboloid, so that g(xi, xi) = +1 on
    the Reeb field."""
    x, immersion = hyperboloid_immersion()
    jac = immersion.jacobian(x)
    return x, -jac.T * FLAT * jac


def hyperboloid_eta():
    """eta_a = -<I N, d_a iota> in the flat pairing, where the normal N is
    the position vector and I swaps the x- and y-blocks."""
    x, immersion = hyperboloid_immersion()
    i_n = immersion[2:, :].col_join(immersion[:2, :])
    return x, -(i_n.T * FLAT * immersion.jacobian(x))


def christoffel(x, g):
    """g^-1 and Gamma^l_ij, each entry factored, which keeps the conformal
    chart's expressions small enough to differentiate twice more."""
    r = range(len(x))
    ginv = (g.adjugate() / g.det()).applyfunc(sympy.factor)
    dg = [[[g[i, j].diff(x[a]) for j in r] for i in r] for a in r]
    gamma = [[[sympy.factor(sum(ginv[l, m] * (dg[i][m][j] + dg[j][m][i]
                                              - dg[m][i][j]) for m in r) / 2)
               for j in r] for i in r] for l in r]
    return ginv, gamma


def riemann_up(x, gamma):
    """R^l_ijk = d_i Gam^l_jk - d_j Gam^l_ik + Gam^l_is Gam^s_jk
    - Gam^l_js Gam^s_ik, of any connection."""
    r = range(len(x))
    return [[[[gamma[l][j][k].diff(x[i]) - gamma[l][i][k].diff(x[j])
               + sum(gamma[l][i][s] * gamma[s][j][k]
                     - gamma[l][j][s] * gamma[s][i][k] for s in r)
               for k in r] for j in r] for i in r] for l in r]


def oracle(x, g):
    """(g_ij, Gamma^l_ij, R_ijkl, r_jk, s) at POINT, each evaluated from
    its symbolic expression."""
    r = range(len(x))
    ginv, gamma = christoffel(x, g)
    riem_up = riemann_up(x, gamma)
    # R_ijkl = g_lm R^m_ijk
    riem_down = [[[[sum(g[l, m] * riem_up[m][i][j][k] for m in r)
                    for l in r] for k in r] for j in r] for i in r]
    ricci = [[sum(ginv[m, l] * riem_down[m][j][k][l] for m in r for l in r)
              for k in r] for j in r]
    scalar = sum(ginv[j, k] * ricci[j][k] for j in r for k in r)
    return tuple(evaluate(x, t) for t in (g.tolist(), gamma, riem_down, ricci,
                                         scalar))


def evaluate(x, expr):
    """An expression, or nested lists of them, at POINT: computed with
    50-digit floats, then rounded to doubles."""
    if isinstance(expr, list):
        return np.array([evaluate(x, e) for e in expr])
    return float(sympy.sympify(expr).xreplace(
        {s: sympy.Float(c, 50) for s, c in zip(x, POINT)}))


def twisted_tables():
    """The heisenberg(1) tables with xi = exp(u1/2) d/dt: xi is no longer
    Killing, so h = (1/2) Lie_xi phi does not vanish."""
    coords, g, phi, xi, eta = heisenberg_tables(1)
    return coords, g, phi, xi[:-1] + ["exp(u1/2)"], eta


def custom_chart(tables=conformal_tables):
    coords, g, phi, xi, eta = tables()
    return build_structure({"manifold": {
        "kind": "custom", "coords": coords, "g": g, "phi": phi, "xi": xi,
        "eta": eta,
    }})


@pytest.mark.parametrize(
    "structure, metric",
    [
        (lambda: pc.builtin_heisenberg(1), heisenberg_metric),
        (lambda: pc.builtin_hyperboloid(1), hyperboloid_metric),
        (custom_chart, lambda: table_structure(*conformal_tables()[:2])),
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


def symbolic_jets(x, tensor, order):
    """Parts 0..order of a tensor's jets at POINT, the derivative axes
    leading, as the frame lays them out."""
    parts = [sympy.Array(tensor)]
    for _ in range(order):
        parts.append(sympy.derive_by_array(parts[-1], x))
    return [evaluate(x, p.tolist()) for p in parts]


def test_hyperboloid_structure_jets_match_the_symbolic_oracle():
    # part 3 of g and eta is the first that reads the fourth-order jets of
    # the immersion, whose gradient is the tangent frame
    sj = pc.builtin_hyperboloid(1).at(np.array([[float(c) for c in POINT]]), 3)
    x, g = hyperboloid_metric()
    _, eta = hyperboloid_eta()
    for ours, tensor in ((sj.g, g), (sj.eta, list(eta))):
        for k, part in enumerate(symbolic_jets(x, tensor, 3)):
            assert nres(ours.parts[k], part) < 1e-13, (k, tensor)
            assert np.max(np.abs(part)) > 0.1  # not vacuous


# -- the canonical side -------------------------------------------------------


def canonical_oracle(x, g, phi, xi, eta):
    """h, Gamma~, T~, R~ and nabla phi, nabla eta, nabla xi, nabla nabla eta
    as sympy expressions, in the frame's index layouts.

    Gamma~ = Gamma + eta_i phi^l_j + eta_j (phi - phi h)^l_i
    + (phi_ij - h^s_i phi_sj) xi^l, with h = (1/2) Lie_xi phi; each new
    covariant slot of a derivative leads.
    """
    r = range(len(x))

    def d(e, a):
        return sympy.diff(e, x[a])

    _, gamma = christoffel(x, g)
    h = [[sum(xi[s] * d(phi[i, j], s) - phi[s, j] * d(xi[i], s)
              + phi[i, s] * d(xi[s], j) for s in r) / 2 for j in r] for i in r]
    phl = g * phi
    gt = [[[sympy.factor(
        gamma[l][i][j] + eta[i] * phi[l, j]
        + eta[j] * (phi[l, i] - sum(phi[l, s] * h[s][i] for s in r))
        + (phl[i, j] - sum(h[s][i] * phl[s, j] for s in r)) * xi[l])
        for j in r] for i in r] for l in r]
    neta = [[sympy.factor(d(eta[j], a) - sum(gamma[s][a][j] * eta[s] for s in r))
             for j in r] for a in r]
    return {
        "h": h,
        "gamma_tilde": gt,
        "torsion_up": [[[gt[l][i][j] - gt[l][j][i] for j in r] for i in r]
                       for l in r],
        "riem_tilde_up": riemann_up(x, gt),
        "nabla_phi": [[[d(phi[i, j], a) + sum(gamma[i][a][s] * phi[s, j]
                                              - gamma[s][a][j] * phi[i, s]
                                              for s in r)
                        for j in r] for i in r] for a in r],
        "nabla_eta": neta,
        "nabla_xi": [[d(xi[i], a) + sum(gamma[i][a][s] * xi[s] for s in r)
                      for i in r] for a in r],
        "nabla_nabla_eta": [[[d(neta[a][j], k)
                              - sum(gamma[s][k][a] * neta[s][j]
                                    + gamma[s][k][j] * neta[a][s] for s in r)
                              for j in r] for a in r] for k in r],
    }


# how many jet parts of each quantity are compared on frames of order 2 and
# 3: the value, and the first partials where the frame's own readers need
# them (parallel differentiates T~ and R~ on order-3 frames, identities
# differentiate nabla eta and nabla xi, and R~ is built from the partials
# of Gamma~, which take those of h)
COMPARED_PARTS = {
    "h": (2, 2),
    "gamma_tilde": (2, 2),
    "torsion_up": (2, 2),
    "riem_tilde_up": (1, 2),
    "nabla_phi": (1, 1),
    "nabla_eta": (2, 2),
    "nabla_xi": (2, 2),
    "nabla_nabla_eta": (1, 1),
}

CANONICAL_CHARTS = {
    "heisenberg1": (lambda: pc.builtin_heisenberg(1), lambda: heisenberg_tables(1)),
    "custom_conformal": (custom_chart, conformal_tables),
    "custom_twisted": (lambda: custom_chart(twisted_tables), twisted_tables),
}


@cache
def canonical_parts(chart):
    """Each quantity's value and first partials at POINT."""
    x, *tensors = table_structure(*CANONICAL_CHARTS[chart][1]())
    out = {}
    for name, expr in canonical_oracle(x, *tensors).items():
        parts = [sympy.Array(expr)]
        if max(COMPARED_PARTS[name]) > 1:
            parts.append(sympy.derive_by_array(parts[0], x))
        out[name] = [evaluate(x, p.tolist()) for p in parts]
    return out


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("chart", list(CANONICAL_CHARTS))
def test_canonical_side_matches_the_symbolic_oracle(chart, order):
    f = pc.get_frame(CANONICAL_CHARTS[chart][0](),
                     np.array([float(c) for c in POINT]), order)
    ours = {name: getattr(f, name) for name in COMPARED_PARTS
            if name != "nabla_nabla_eta"}
    ours["nabla_nabla_eta"] = f.cov(f.nabla_eta, "ll")  # as f3 builds it
    for name, parts in canonical_parts(chart).items():
        for k in range(COMPARED_PARTS[name][order - 2]):
            assert nres(ours[name].parts[k], parts[k]) < 1e-13, (name, k)


def test_the_canonical_oracle_is_not_vacuous():
    # each compared part is far from zero on some chart; on the Heisenberg
    # group h and R~ vanish (f22 with k = 3), and the conformal factor
    # leaves h = (1/2) Lie_xi phi alone
    for name, counts in COMPARED_PARTS.items():
        for k in range(max(counts)):
            assert max(np.max(np.abs(canonical_parts(chart)[name][k]))
                       for chart in CANONICAL_CHARTS) > 0.1, (name, k)
