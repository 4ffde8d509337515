"""Levi-Civita and canonical paracontact connections with their curvature.

The per-point pipeline is a frame, a :class:`PointGeometry` made by
:func:`get_frame` at one point, or by the check runner from a batch of
structure jets.  It holds the structure jets at one point and lazily
computes and keeps the inverse metric, the Christoffel symbols (with their
coordinate partials straight from the jets, never finite-differenced),
both curvature tensors, the h-tensor and the canonical torsion.  The
checks read frames; a frame lives as long as its caller holds it.

Sign conventions, pinned once: R(X,Y)Z = nab_X nab_Y Z - nab_Y nab_X Z
- nab_[X,Y] Z, so R^l_{ijk} = d_i Gam^l_{jk} - d_j Gam^l_{ik}
+ Gam^l_{is} Gam^s_{jk} - Gam^l_{js} Gam^s_{ik}; fully covariant
R_{ijkl} = g_{lm} R^m_{ijk}; Ricci by the first-with-last contraction
r_{jk} = g^{ml} R_{mjkl}.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .jetfields import jt_einsum, jt_metric_inverse
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
            res = res + jt_einsum(f"{x}as,{tsub}->a{letters}", gamma, t)
        elif kind == "l":
            res = res - jt_einsum(f"sa{x},{tsub}->a{letters}", gamma, t)
        else:
            raise ValueError(f"slot kind must be 'u' or 'l', got {kind!r}")
    return res


def _riemann_from_gamma(gamma):
    """R^l_{ijk} as a jet tensor, one order below gamma."""
    dgam = gamma.partial()  # base (a, l, i, j)
    t1 = dgam.tb((1, 0, 2, 3))  # (l, i, j, k): d_i Gam^l_{jk}
    low = gamma.cut(dgam.order)  # R has dgam's order, so Gam Gam needs no more
    q1 = jt_einsum("lis,sjk->lijk", low, low)
    r = t1 - t1.tb((0, 2, 1, 3)) + q1 - q1.tb((0, 2, 1, 3))
    return r


class PointGeometry:
    """Lazily computed geometric data of one structure at one point.

    Built from the point's structure jets, not from the structure, so a
    frame does not keep its structure alive.
    """

    def __init__(self, jets, point, order=3):
        self.point = np.asarray(point, dtype=float)
        self.order = order
        self.g, self.phi, self.xi, self.eta = jets
        self.dim = self.g.dim
        self.n = (self.dim - 1) // 2

    @cached_property
    def ginv(self):
        return jt_metric_inverse(self.g)

    @cached_property
    def phi_low(self):
        # phi_{ij} = g_{il} phi^l_j
        return jt_einsum("il,lj->ij", self.g, self.phi)

    @cached_property
    def deta(self):
        """(d eta)_{ij} = (d_i eta_j - d_j eta_i) / 2."""
        de = self.eta.partial()  # (a, j)
        return 0.5 * (de - de.tb((1, 0)))

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
    def h(self):
        """h = (1/2) Lie_xi phi, as h^i_j."""
        dphi = self.phi.partial()  # (a, i, j)
        dxi = self.xi.partial()  # (a, i)
        t1 = jt_einsum("s,sij->ij", self.xi, dphi)
        t2 = jt_einsum("sj,si->ij", self.phi, dxi)
        t3 = jt_einsum("is,js->ij", self.phi, dxi)
        return 0.5 * (t1 - t2 + t3)

    @cached_property
    def gamma_tilde(self):
        """Canonical paracontact connection coefficients."""
        eta, phi, xi, h = self.eta, self.phi, self.xi, self.h
        phi_h = jt_einsum("ls,si->li", phi, h)  # (phi h)^l_i
        h_philow = jt_einsum("si,sj->ij", h, self.phi_low)  # h^s_i phi_{sj}
        extra = (
            jt_einsum("i,lj->lij", eta, phi)
            + jt_einsum("j,li->lij", eta, phi - phi_h)
            + jt_einsum("ij,l->lij", self.phi_low - h_philow, xi)
        )
        return self.gamma + extra

    @cached_property
    def torsion_up(self):
        """T^l_{ij} of the canonical connection, from antisymmetrized Gam~."""
        gt = self.gamma_tilde
        return gt - gt.tb((0, 2, 1))

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

    @cached_property
    def nabla_eta(self):
        return self.cov(self.eta, "l")

    @cached_property
    def nabla_xi(self):
        return self.cov(self.xi, "u")

    @cached_property
    def nabla_phi(self):
        return self.cov(self.phi, "ul")

    @cached_property
    def nabla_phi_low(self):
        return self.cov(self.phi_low, "ll")

    @cached_property
    def f21_rhs(self):
        """The Levi-Civita-side expression for the canonical curvature."""
        npl = self.nabla_phi.value  # (a, l, k)
        nxi = self.nabla_xi.value  # (a, l)
        neta = self.nabla_eta.value  # (a, k)
        eta, xi = self.eta.value, self.xi.value
        phl, ph = self.phi_low.value, self.phi.value
        r = self.riem_up.value  # (l, i, j, k)
        e = np.einsum
        out = r.transpose(1, 2, 3, 0)  # reorder to (i, j, k, l)
        out = out + e("ilk,j->ijkl", npl, eta) - e("jlk,i->ijkl", npl, eta)
        out = out + 2.0 * e("ij,lk->ijkl", phl, ph)
        out = out - e("ls,js,i,k->ijkl", ph, nxi, eta, eta)
        out = out + e("ls,is,j,k->ijkl", ph, nxi, eta, eta)
        out = out + e("l,is,sk,j->ijkl", xi, neta, ph, eta)
        out = out - e("l,js,sk,i->ijkl", xi, neta, ph, eta)
        out = out - e("l,sijk,s->ijkl", xi, r, eta)
        out = out - e("k,lijs,s->ijkl", eta, r, xi)
        out = out + e("jk,il->ijkl", neta, nxi)
        out = out - e("ik,jl->ijkl", neta, nxi)
        # back to (l, i, j, k) to match riem_tilde_up.value
        return out.transpose(3, 0, 1, 2)


def get_frame(structure, point, order=3):
    """A new frame of the structure at a point, with jets up to ``order``.

    Nothing is cached: the caller keeps the frame for as long as it needs
    it, so memory follows what the caller holds.
    """
    point = np.asarray(point, dtype=float)
    return PointGeometry(structure.at(point[None], order)[0], point, order)


def parallel_check(frames, threshold=1e-8):
    """Max components of nab~ T and nab~ R~ over the frames."""
    report = CheckReport()
    worst_t, worst_r = 0.0, 0.0
    for f in frames:
        nt = f.cov(f.torsion_up, "ull", kind="canonical_tilde")
        nr = f.cov(f.riem_tilde_up, "ulll", kind="canonical_tilde")
        worst_t = max(worst_t, nres(nt.value))
        worst_r = max(worst_r, nres(nr.value))
    report.add("parallel_torsion", worst_t, threshold)
    report.add("parallel_curvature", worst_r, threshold)
    return report
