"""Manifolds with paracontact structure: charts, builtins, induction.

A :class:`CharteredStructure` bundles the chart (coordinate names, domain
box, optional guard) with a component strategy that produces jets of
(g, phi, xi, eta) over a batch of points.  Three strategies exist: explicit
expression tables, induction from an immersion into the flat para-Kaehler
ambient, and the D-homothetic transform of another structure.  Each
computes on the whole batch: one :class:`StructureJets` of jet tensors with
a leading point axis.  :meth:`CharteredStructure.at` checks that batch and
returns it whole.  Tables and immersions are given as bare ASTs, which
their strategy, like the hyperboloid's guard, evaluates as one
:class:`JetProgram`, built once, which runs every node of them.  The
Heisenberg builtin is built as ASTs, not parsed: its g entries multiply the
very nodes of its eta entries.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError,
    InvalidAlpha,
    NotParacontact,
    RankDeficientJacobian,
)
from .exprlang import Bin, Coord, JetProgram, Neg, Num, parse
from .jetfields import JetTensor, jt_einsum, jt_metric_inverse


class StructureJets(NamedTuple):
    """Jets of the four structure tensors over a batch of points."""

    g: JetTensor
    phi: JetTensor
    xi: JetTensor
    eta: JetTensor


def _tensors(parts, dim, *shapes):
    """Jet tensors of the given base shapes from consecutive roots of
    :class:`JetProgram` parts, as contiguous point-first arrays: each
    point's slice is laid out as jets built at that point alone."""
    out, start = [], 0
    for shape in shapes:
        stop = start + int(np.prod(shape))
        out.append(JetTensor(dim, len(parts) - 1, [
            np.ascontiguousarray(p[..., start:stop]).reshape(p.shape[:-1] + shape)
            for p in parts]))
        start = stop
    return out


class Domain:
    """Coordinate box with an optional guard: (P, d) points -> P booleans."""

    def __init__(self, box, guard=None):
        self.box = np.asarray(box, dtype=float)  # shape (d, 2)
        self.guard = guard

    @classmethod
    def cube(cls, dim, half_width=2.0):
        return cls([[-half_width, half_width]] * dim)

    def inside(self, points):
        """Which points of a (P, d) batch lie in the box and pass the guard;
        a nan coordinate lies in no box."""
        points = np.asarray(points, dtype=float)
        out = np.all((points >= self.box[:, 0]) & (points <= self.box[:, 1]),
                     axis=1)
        if self.guard is not None:
            out &= self.guard(points)
        return out

    def contains(self, point):
        return bool(self.inside(np.asarray(point, dtype=float)[None])[0])


class CharteredStructure:
    """(2n+1)-dimensional paracontact chart with component fields."""

    def __init__(self, n, coords, components, domain, name="custom", probe=None):
        self.n = int(n)
        self.dim = 2 * self.n + 1
        if len(coords) != self.dim:
            raise NotParacontact(
                f"structure needs odd dimension 2n+1, got {len(coords)} coordinates"
            )
        self.coords = tuple(coords)
        self.components = components
        self.domain = domain
        self.name = name
        # fail fast on manifestly bad input: g must have signature (n+1, n)
        # at the probe point, by default the centre of the domain's box
        self.probe = domain.box.mean(axis=1) if probe is None else probe
        sj = self.at(np.asarray(self.probe, dtype=float)[None], order=0)
        eigs = np.linalg.eigvalsh(sj.g.value[0])
        pos = int(np.sum(eigs > 0))
        neg = int(np.sum(eigs < 0))
        if (pos, neg) != (self.n + 1, self.n):
            raise NotParacontact(
                f"metric signature ({pos},{neg}) at probe point, expected "
                f"({self.n + 1},{self.n})"
            )

    def at(self, points, order=3):
        """Structure jets over a (P, d) batch of points in the chart domain:
        the strategy's batch, one :class:`StructureJets` whose parts lead
        with the point axis.

        Raises DomainError, with the index of the first such point, for a
        point outside the domain or jets that are not finite, which no check
        could then judge; and ValueError for an order outside 0..3, past
        which the jets are not kept exact (symmetric in their axes).
        """
        if not 0 <= order <= 3:
            raise ValueError(f"structure jet order must be 0..3, got {order}")
        points = np.asarray(points, dtype=float)
        outside = ~self.domain.inside(points)
        if outside.any():
            i = int(np.argmax(outside))
            raise DomainError(f"point outside chart domain of {self.name}",
                              value=points[i], index=i)
        with np.errstate(all="ignore"):
            batch = self.components.at(points, order)
        # contiguous, so each point's slice is laid out as jets built at
        # that point alone
        batch = StructureJets(*(
            JetTensor(self.dim, t.order, [np.ascontiguousarray(p) for p in t.parts])
            for t in batch))
        finite = np.ones(len(points), dtype=bool)
        for t in batch:
            for p in t.parts:
                finite &= np.isfinite(p).reshape(len(points), -1).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise DomainError(
                f"structure jets of {self.name} are not finite at {points[i]}",
                value=points[i], index=i,
            )
        return batch


# -- component strategies -----------------------------------------------------


class ExprTableComponents:
    """Structure tensors given componentwise as ASTs: g and phi as d x d
    nested lists, xi and eta as lists.

    The ASTs (g row-major, phi, xi, eta) are one :class:`JetProgram`, so a
    node that several entries reach, as a builtin's g reaches its eta
    entries, or spell alike is evaluated once per batch.
    """

    def __init__(self, g, phi, xi, eta):
        self.dim = len(xi)
        self.program = JetProgram([*sum(g + phi, []), *xi, *eta])

    def at(self, points, order):
        d = self.dim
        g, phi, xi, eta = _tensors(self.program(points, order), d,
                                   (d, d), (d, d), (d,), (d,))
        # enforce exact symmetry of the metric jets
        g = JetTensor(d, order,
                      [0.5 * (p + np.swapaxes(p, -1, -2)) for p in g.parts])
        return StructureJets(g, phi, xi, eta)


class HomotheticComponents:
    """D-homothetic transform of a base component strategy.

    gbar = alpha g + (alpha^2 - alpha) eta (x) eta, phibar = phi,
    xibar = xi / alpha, etabar = alpha eta.
    """

    def __init__(self, base, alpha):
        self.base = base
        self.alpha = float(alpha)

    def at(self, points, order):
        a = self.alpha
        sj = self.base.at(points, order)
        eta_eta = jt_einsum("i,j->ij", sj.eta, sj.eta)
        g = a * sj.g + (a * a - a) * eta_eta
        return StructureJets(g, sj.phi, (1.0 / a) * sj.xi, a * sj.eta)


class InducedComponents:
    """Component strategy of an immersion iota of the chart into the flat
    para-Kaehler R^{2m}, with normal N: one AST each per ambient axis, the
    axes ordered (x_0..x_{m-1}, y_0..y_{m-1}).

    The product structure I swaps the x- and y-blocks; the flat metric is
    diag(eps), +1 on the x-block and -1 on the y-block.  Normal and
    immersion, one :class:`JetProgram`, are evaluated one order above the
    structure jets, so that the tangent frame e_a = d iota / d q^a, the
    immersion's gradient, reaches it.
    """

    def __init__(self, immersion, normal):
        if len(immersion) != len(normal) or len(immersion) % 2:
            raise ValueError("immersion and normal need one component per axis "
                             "of an even-dimensional ambient")
        m = len(immersion) // 2
        eye, zero = np.eye(m), np.zeros((m, m))
        self.product = np.block([[zero, eye], [eye, zero]])  # I
        self.eps = np.diag(np.block([[eye, zero], [zero, -eye]])).copy()
        self.program = JetProgram([*normal, *immersion])

    def at(self, points, order):
        """Induced (g, phi, xi, eta) jets over a (P, d) batch of chart points.

        The paracontact-compatible induced metric is the *negative* of the
        ambient restriction: the ambient pairing gives the tangent space
        signature (n, n+1) and g(xi, xi) = -1, so the sign flip is forced by
        eta(xi) = 1.  With it, every compatibility axiom comes out right.
        """
        d, m = points.shape[1], len(self.eps)

        # part k reads parts <= k only: the normal, cut, keeps its bits.
        # Each intermediate is dropped after its last use: at order 3 they
        # are the largest arrays of the batch, and held to the end they
        # set its peak memory
        normal, iota = _tensors(self.program(points, order + 1), d, (m,), (m,))
        normal, e = normal.cut(order), iota.partial()  # (a, C): e_a = d iota / d q^a
        del iota
        deficient = np.linalg.matrix_rank(e.value, tol=1e-9) < d
        if deficient.any():
            point = points[int(np.argmax(deficient))]
            raise RankDeficientJacobian(f"immersion Jacobian rank-deficient at {point}")

        def product(t):
            # I is constant: applied part by part, it adds no zero jet
            # parts to the Leibniz sums
            return JetTensor(d, order, [p @ self.product.T for p in t.parts])

        # the paracontact pairing is minus the ambient one, over the axis C
        e_flat = JetTensor(d, order, [p * self.eps for p in e.parts])
        g = -1.0 * jt_einsum("aC,bC->ab", e, e_flat)
        g = JetTensor(d, order,
                      [0.5 * (p + np.swapaxes(p, -1, -2)) for p in g.parts])
        ginv = jt_metric_inverse(g)
        i_e = product(e)
        del e

        i_n = product(normal)
        eta = -1.0 * jt_einsum("C,aC->a", i_n, e_flat)
        del i_n
        xi = jt_einsum("ab,b->a", ginv, eta)

        # phi^b_a solves  sum_b phi^b_a e_b = -(I e_a - eta_a N); the rhs is
        # tangent, and the overall minus partners the metric flip above so
        # that g(X, phi Y) = d eta(X, Y) comes out with the right sign
        rhs = i_e - jt_einsum("a,C->aC", eta, normal)
        del i_e, normal
        proj = -1.0 * jt_einsum("cC,aC->ca", e_flat, rhs)
        del e_flat, rhs
        phi = -1.0 * jt_einsum("bc,ca->ba", ginv, proj)
        return StructureJets(g, phi, xi, eta)


# -- builtin catalog ------------------------------------------------------------


def _heisenberg(n, coord, num, neg, times, plus):
    """(coords, g, phi, xi, eta) of the hyperbolic Heisenberg group of
    dimension 2n+1, from the node makers: ``coord(name, index)``, ``num``
    of an unsigned constant, and ``neg``, ``times`` and ``plus``.  Every
    g_ij multiplies the very nodes that are eta_i and eta_j."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ks = range(1, n + 1)
    coords = [f"u{k}" for k in ks] + [f"v{k}" for k in ks] + ["t"]
    x = [coord(name, i) for i, name in enumerate(coords)]
    d = 2 * n + 1
    eta = [neg(x[n + k]) for k in range(n)] + x[:n] + [num(1)]
    xi = [num(0)] * (d - 1) + [num(1)]
    phi = [[num(0)] * d for _ in range(d)]
    for u, v in zip(range(n), range(n, 2 * n)):
        # phi d_u = d_v - u d_t, phi d_v = d_u + v d_t
        phi[v][u] = phi[u][v] = num(1)
        phi[d - 1][u], phi[d - 1][v] = neg(x[u]), x[v]
    g = [[times(eta[i], eta[j]) for j in range(d)] for i in range(d)]
    for i in range(2 * n):
        g[i][i] = plus(g[i][i], num(1.0) if i < n else neg(num(1.0)))
    return coords, g, phi, xi, eta


def heisenberg_tables(n):
    """Expression tables for the hyperbolic Heisenberg group of dimension 2n+1.

    Coordinates (u_1..u_n, v_1..v_n, t); eta = dt + sum(u_k dv_k - v_k du_k),
    xi = d/dt, g = eta (x) eta + sum(du_k^2 - dv_k^2).  This is the
    ubiquitous left-invariant model normalized so that eta(xi) = 1 and
    g(X, phi Y) equals the antisymmetrized half-derivative of eta exactly.
    """
    return _heisenberg(n, lambda name, i: name, str, lambda a: f"-{a}",
                       lambda a, b: f"({a})*({b})", lambda a, b: f"{a}+{b}")


def builtin_heisenberg(n):
    """The :func:`heisenberg_tables` chart with its entries built as ASTs, each
    equal to ``parse`` of its table entry, and g over the shared eta nodes."""
    coords, *tables = _heisenberg(
        n, Coord, lambda v: Num(float(v)), Neg,
        lambda a, b: Bin("*", a, b), lambda a, b: Bin("+", a, b))
    comps = ExprTableComponents(*tables)
    return CharteredStructure(
        n, coords, comps, Domain.cube(2 * n + 1, 10.0), name=f"heisenberg(n={n})"
    )


def hyperboloid_embedding(n):
    """Graph chart of the unit hyperboloid sum x^2 - sum y^2 = 1.

    Chart coordinates (x_1..x_n, y_0..y_n) with
    x_0 = sqrt(1 - sum x_i^2 + sum y_j^2); the normal is the position
    vector.  Ambient axes are ordered (x_0..x_n, y_0..y_n).  Returns the
    coordinates, the immersion's ASTs and the text of the radicand.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    coords = [f"x{i}" for i in range(1, n + 1)] + [f"y{j}" for j in range(n + 1)]
    radicand_text = "1" + "".join(f"-x{i}^2" for i in range(1, n + 1)) + "".join(
        f"+y{j}^2" for j in range(n + 1)
    )
    immersion = [parse(t, coords) for t in [f"sqrt({radicand_text})", *coords]]
    return coords, immersion, radicand_text


HYPERBOLOID_GUARD_MIN = 0.1


def builtin_hyperboloid(n):
    coords, immersion, radicand_text = hyperboloid_embedding(n)
    radicand = JetProgram([parse(radicand_text, coords)])

    def guard(points):
        return radicand(points, 0)[0][:, 0] >= HYPERBOLOID_GUARD_MIN

    d = 2 * n + 1
    domain = Domain([[-2.0, 2.0]] * d, guard=guard)
    # probe the origin: radicand 1 there, comfortably inside the guard
    return CharteredStructure(
        n,
        coords,
        InducedComponents(immersion, immersion),
        domain,
        name=f"hyperboloid(n={n})",
        probe=np.zeros(d),
    )


BUILTINS = {
    "heisenberg": builtin_heisenberg,
    "hyperboloid": builtin_hyperboloid,
}


def d_homothetic(structure, alpha):
    """D-homothetic transform; preserves the paraSasakian property."""
    if not alpha > 0:
        raise InvalidAlpha(f"alpha must be > 0, got {alpha}")
    if alpha == 1.0:
        return structure
    return CharteredStructure(
        structure.n,
        structure.coords,
        HomotheticComponents(structure.components, alpha),
        structure.domain,
        name=f"d_homothetic({structure.name}, {alpha:g})",
        probe=structure.probe,
    )
