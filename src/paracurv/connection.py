"""Levi-Civita and canonical paracontact connections with their curvature.

The pipeline is a frame, a :class:`PointGeometry` made from the structure
jets of a batch of points: by the check runner, or by :func:`get_frame` as
a batch of one point.  It holds the structure jets and lazily computes and
keeps the inverse metric, the Christoffel symbols (with their coordinate
partials straight from the jets, never finite-differenced), both curvature
tensors, the h-tensor and the canonical torsion.  Every quantity leads with
the point axis (see :mod:`paracurv.jetfields`); point i of a batch frame is
bitwise the frame built at that point alone.  The checks read frames; a
frame lives as long as its caller holds it.  :meth:`PointGeometry.view`
reads the values at one point, for the checks of one drawn vector.

Each cached quantity is built at the lowest jet order that its highest
reader needs, never at the full order its inputs allow: a quantity that
every reader takes only the value of is built from inputs cut to order 1
(or from the value alone), and one that is differentiated once more is
cut one order higher.  The k-th part of a jet product depends on parts up
to k only, so the kept parts are bitwise those of the full-order build.
The comment at each property names the reader that sets its order.

Sign conventions, pinned once: R(X,Y)Z = nab_X nab_Y Z - nab_Y nab_X Z
- nab_[X,Y] Z, so R^l_{ijk} = d_i Gam^l_{jk} - d_j Gam^l_{ik}
+ Gam^l_{is} Gam^s_{jk} - Gam^l_{js} Gam^s_{ik}; fully covariant
R_{ijkl} = g_{lm} R^m_{ijk}; Ricci by the first-with-last contraction
r_{jk} = g^{ml} R_{mjkl}.

The curvature models (space form, PC-Bochner tensor, identity targets) are
Kulkarni-Nomizu products, built by :func:`kulkarni_nomizu` and :func:`phi_block`.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .jetfields import jt_einsum, jt_metric_inverse, jt_sum, point_einsum
from .report import CheckReport, nres

_SLOT_LETTERS = "ijklmnop"


def covariant(t, kinds, gamma):
    """Covariant derivative of a jet tensor; new covariant slot leads.

    ``kinds`` is one letter per base axis of ``t``: 'u' for contravariant,
    'l' for covariant.  ``gamma`` holds connection coefficients as a jet
    tensor with base (l, i, j).
    """
    if len(kinds) != len(t.base_shape):
        raise ValueError("kinds must label every base axis")
    letters = _SLOT_LETTERS[: len(kinds)]
    res = t.partial()
    # products are taken at the order of the result; higher parts would be
    # dropped by the sums anyway
    gamma, t = gamma.cut(res.order), t.cut(res.order)
    for s, kind in enumerate(kinds):
        x = letters[s]
        tsub = letters[:s] + "s" + letters[s + 1 :]
        if kind == "u":
            op, sub = np.add, f"{x}as,{tsub}->a{letters}"
        elif kind == "l":
            op, sub = np.subtract, f"sa{x},{tsub}->a{letters}"
        else:
            raise ValueError(f"slot kind must be 'u' or 'l', got {kind!r}")
        # res starts as t's partial, whose parts are t's: the first sum
        # makes new parts, and the later ones go into them
        res = jt_sum(op, res, jt_einsum(sub, gamma, t), out=res if s else None)
    return res


def _riemann_from_gamma(gamma):
    """R^l_{ijk} as a jet tensor, one order below gamma."""
    dgam = gamma.partial()  # base (a, l, i, j)
    t1 = dgam.tb((1, 0, 2, 3))  # (l, i, j, k): d_i Gam^l_{jk}
    low = gamma.cut(dgam.order)  # R has dgam's order, so Gam Gam needs no more
    q1 = jt_einsum("lis,sjk->lijk", low, low)
    # t1 - t1' + q1 - q1', summed left to right into the first difference
    r = t1 - t1.tb((0, 2, 1, 3))
    r = jt_sum(np.add, r, q1, out=r)
    return jt_sum(np.subtract, r, q1.tb((0, 2, 1, 3)), out=r)


def tail_transpose(t, *perm):
    """``t.transpose(perm)`` on the axes after the point axis."""
    return t.transpose(0, *(1 + p for p in perm))


def kulkarni_nomizu(a, b):
    """(a o b)_{ijkl} = a_ik b_jl + a_jl b_ik - a_il b_jk - a_jk b_il."""
    t = point_einsum("ik,jl->ijkl", a, b)
    return (t + tail_transpose(t, 1, 0, 3, 2)
            - tail_transpose(t, 0, 1, 3, 2) - tail_transpose(t, 1, 0, 2, 3))


def phi_block(a, b):
    """a o b + 2 (a (x) b + b (x) a), the block of a phi-type product."""
    t = point_einsum("ij,kl->ijkl", a, b)
    return kulkarni_nomizu(a, b) + 2.0 * (t + tail_transpose(t, 2, 3, 0, 1))


def per_point(x, ndim):
    """Per-point scalars shaped to scale tensors of ``ndim`` base axes
    point by point."""
    return np.reshape(x, np.shape(x) + (1,) * ndim)


class PointGeometry:
    """Lazily computed geometric data of one structure over a batch of
    points.

    Built from the structure jets of its points (``point`` is the (P, d)
    batch), not from the structure, so a frame does not keep its structure
    alive.
    """

    def __init__(self, jets, point):
        self.point = np.asarray(point, dtype=float)
        self.g, self.phi, self.xi, self.eta = jets
        self.dim = self.g.dim
        self.n = (self.dim - 1) // 2
        # gamma's order, one below g's; an order-0 frame keeps its values
        self.gamma_order = max(self.g.order - 1, 0)

    # gamma reads it at its own order; ricci and the checks read the value
    @cached_property
    def ginv(self):
        return jt_metric_inverse(self.g.cut(self.gamma_order))

    # gamma_tilde reads it at gamma's order; nabla_phi_low and the checks
    # read the value
    @cached_property
    def phi_low(self):
        # phi_{ij} = g_{il} phi^l_j
        return jt_einsum("il,lj->ij", self.g.cut(self.gamma_order), self.phi)

    # the axioms and classify read the value
    @cached_property
    def deta(self):
        """(d eta)_{ij} = (d_i eta_j - d_j eta_i) / 2."""
        de = self.eta.cut(1).partial()  # (a, j)
        return 0.5 * (de - de.tb((1, 0)))

    # full order: riem_tilde_up differentiates gamma_tilde = gamma + ...
    @cached_property
    def gamma(self):
        dg = self.g.partial()  # (a, i, j) = d_a g_{ij}
        a = dg.tb((2, 0, 1)) + dg.tb((2, 1, 0)) - dg  # (m,i,j)
        return 0.5 * jt_einsum("lm,mij->lij", self.ginv, a)

    # R and R~_down feed only value-level formulas, so they are built at
    # value order; R~^up keeps full order because parallel_check
    # differentiates it
    @cached_property
    def riem_up(self):
        return _riemann_from_gamma(self.gamma.cut(1))

    @cached_property
    def riem_down(self):
        return jt_einsum("lm,mijk->ijkl", self.g, self.riem_up)

    @cached_property
    def ricci(self):
        return jt_einsum("ml,mjkl->jk", self.ginv, self.riem_down)

    @cached_property
    def scalar(self):
        return jt_einsum("jk,jk->", self.ginv, self.ricci)

    @cached_property
    def bochner(self):
        """The PC-Bochner tensor B_{ijkl} and its constant kappa_B."""
        n = self.n
        g, eta, phl = self.g.value, self.eta.value, self.phi_low.value
        r, s = self.ricci.value, self.scalar.value
        kappa = -(s - 2.0 * n) / (2.0 * n + 2.0)
        c = 1.0 / (2.0 * n + 4.0)
        ee = point_einsum("i,j->ij", eta, eta)
        rp = point_einsum("sk,si->ik", r, self.phi.value)  # r_{sk} phi^s_i
        b = self.riem_down.value + c * (
            kulkarni_nomizu(r, g - ee) + phi_block(rp, phl))
        b -= per_point(0.5 * (kappa + 2.0 * n) * c, 4) * phi_block(phl, phl)
        b += per_point(0.5 * (kappa - 4.0) * c, 4) * kulkarni_nomizu(g, g)
        b -= per_point(kappa * c, 4) * kulkarni_nomizu(g, ee)
        return b, kappa

    # full order (gamma's): gamma_tilde reads it at its own order
    @cached_property
    def h(self):
        """h = (1/2) Lie_xi phi, as h^i_j."""
        dphi = self.phi.partial()  # (a, i, j)
        dxi = self.xi.partial()  # (a, i)
        t1 = jt_einsum("s,sij->ij", self.xi, dphi)
        t2 = jt_einsum("sj,si->ij", self.phi, dxi)
        t3 = jt_einsum("is,js->ij", self.phi, dxi)
        return 0.5 * (t1 - t2 + t3)

    # full order (gamma's): parallel_check differentiates riem_tilde_up
    @cached_property
    def gamma_tilde(self):
        """Canonical paracontact connection coefficients."""
        # the products at gamma's order: the sum with gamma drops any higher
        k = self.gamma_order
        eta, phi, xi = self.eta.cut(k), self.phi.cut(k), self.xi.cut(k)
        h = self.h
        phi_h = jt_einsum("ls,si->li", phi, h)  # (phi h)^l_i
        h_philow = jt_einsum("si,sj->ij", h, self.phi_low)  # h^s_i phi_{sj}
        extra = (jt_einsum("i,lj->lij", eta, phi)
                 + jt_einsum("j,li->lij", eta, phi - phi_h))
        # the later sums, in the same order, go into extra's parts
        extra = jt_sum(np.add, extra,
                       jt_einsum("ij,l->lij", self.phi_low - h_philow, xi), out=extra)
        return jt_sum(np.add, self.gamma, extra, out=extra)

    # order 1: parallel_check differentiates it once and reads the value
    # of that; the identities read the value
    @cached_property
    def torsion_up(self):
        """T^l_{ij} of the canonical connection, from antisymmetrized Gam~."""
        gt = self.gamma_tilde.cut(1)
        return gt - gt.tb((0, 2, 1))

    # parallel_check differentiates it; f21 reads the value
    @cached_property
    def riem_tilde_up(self):
        return _riemann_from_gamma(self.gamma_tilde)

    @cached_property
    def riem_tilde_down(self):
        return jt_einsum("lm,mijk->ijkl", self.g, self.riem_tilde_up.cut(0))

    @cached_property
    def ricci_tilde(self):
        return jt_einsum("ml,mjkl->jk", self.ginv, self.riem_tilde_down)

    @cached_property
    def scalar_tilde(self):
        return jt_einsum("jk,jk->", self.ginv, self.ricci_tilde)

    # -- covariant derivatives of the structure tensors ------------------

    def cov(self, t, kinds, kind="levi_civita"):
        gamma = self.gamma if kind == "levi_civita" else self.gamma_tilde
        return covariant(t, kinds, gamma)

    # order 1: identity_suite differentiates it once more (f3) and reads
    # the value of that
    @cached_property
    def nabla_eta(self):
        return self.cov(self.eta.cut(2), "l")

    # order 1, for f3 as nabla_eta
    @cached_property
    def nabla_xi(self):
        return self.cov(self.xi.cut(2), "u")

    # classify, f2 and f21 read the value
    @cached_property
    def nabla_phi(self):
        return self.cov(self.phi.cut(1), "ul")

    # f2 reads the value
    @cached_property
    def nabla_phi_low(self):
        return self.cov(self.phi_low.cut(1), "ll")

    @cached_property
    def f21_rhs(self):
        """The Levi-Civita-side expression for the canonical curvature."""
        npl = self.nabla_phi.value  # (a, l, k)
        nxi = self.nabla_xi.value  # (a, l)
        neta = self.nabla_eta.value  # (a, k)
        eta, xi = self.eta.value, self.xi.value
        phl, ph = self.phi_low.value, self.phi.value
        r = self.riem_up.value  # (l, i, j, k)
        e = point_einsum
        out = tail_transpose(r, 1, 2, 3, 0)  # reorder to (i, j, k, l)
        out = out + e("ilk,j->ijkl", npl, eta) - e("jlk,i->ijkl", npl, eta)
        out = out + 2.0 * e("ij,lk->ijkl", phl, ph)
        # each product of four factors as one matmul and one outer product
        m = ph @ tail_transpose(nxi, 1, 0)  # (l, j): phi^l_s nabla_j xi^s
        q = neta @ ph  # (i, k): nabla_i eta_s phi^s_k
        ee, ex = e("i,j->ij", eta, eta), e("i,j->ij", eta, xi)
        out = out - e("lj,ik->ijkl", m, ee) + e("li,jk->ijkl", m, ee)
        out = out + e("ik,jl->ijkl", q, ex) - e("jk,il->ijkl", q, ex)
        out = out - e("ijk,l->ijkl", e("s,sijk->ijk", eta, r), xi)
        out = out - e("lij,k->ijkl", e("lijs,s->lij", r, xi), eta)
        out = out + e("jk,il->ijkl", neta, nxi)
        out = out - e("ik,jl->ijkl", neta, nxi)
        # back to (l, i, j, k) to match riem_tilde_up.value
        return tail_transpose(out, 3, 0, 1, 2)

    def view(self, i):
        """The values of the frame's quantities at point ``i``."""
        return PointView(self, i)


class PointView:
    """The values at point ``i`` of a frame, read-only: ``view.g`` is
    ``frame.g.value[i]``, and ``view.bochner`` is the pair of the tensor
    and kappa_B there.  Each quantity is built once for the whole frame."""

    def __init__(self, frame, i):
        self._frame, self._i = frame, i
        self.n = frame.n

    def __getattr__(self, name):
        return getattr(self._frame, name).value[self._i]

    @property
    def bochner(self):
        b, kappa = self._frame.bochner
        return b[self._i], kappa[self._i]


def get_frame(structure, point, order=3):
    """A new frame of the structure at one point, with jets up to
    ``order``: a batch of that one point, read like any batch frame.

    Nothing is cached: the caller keeps the frame for as long as it needs
    it, so memory follows what the caller holds.
    """
    points = np.asarray(point, dtype=float)[None]
    return PointGeometry(structure.at(points, order), points)


def parallel_check(frames, threshold=1e-8):
    """Max components of nab~ T and nab~ R~ over the frames' points."""
    report = CheckReport()
    for f in frames:
        nt = f.cov(f.torsion_up, "ull", kind="canonical_tilde")
        nr = f.cov(f.riem_tilde_up, "ulll", kind="canonical_tilde")
        report.add("parallel_torsion", nres(nt.value), threshold)
        report.add("parallel_curvature", nres(nr.value), threshold)
    return report
