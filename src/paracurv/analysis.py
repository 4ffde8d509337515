"""Structure classification and curvature analysis.

Covers the compatibility axioms, the Nijenhuis tensor and paraSasakian
criteria, xi-sectional and paraholomorphic sectional curvature, space-form
and eta-Einstein fitting, the PC-Bochner tensor with its W^pc counterpart,
and the named identity suite.  The functions over many points read frames
(see :class:`paracurv.connection.PointGeometry`), each a batch of points,
and add one normalized residual per point to their report's rows, which
keep the maximum.  The functions of drawn vectors (``xi_sectional``,
``phsc``, ``wpc``, ``bochner_pairing``) read the values at one point of a
frame (:meth:`PointGeometry.view`) and a stack of vectors (..., d) there,
the point's tensors broadcast over the stack, and give one value per
vector.  A check draws its vectors in one batch, draw i at point i mod P
(:class:`Draws`), and reads each point's draws as one stack; each value
has the bits of that vector evaluated alone.

A batch frame gives every point bitwise the residuals of a frame built at
that point alone: a point's entries are contracted and summed on their own,
and where a batched numpy form would sum them in another order (the slotwise
projection of f55) the point's values are computed one point at a time.
"""

from __future__ import annotations

import math

import numpy as np

from .connection import kulkarni_nomizu, per_point, phi_block, tail_transpose
from .errors import IsotropicSection, IsotropicVector, NotHorizontal
from .jetfields import bilinear, matvec, point_einsum, vecdot, vecmat
from .report import CheckReport, nres
from .sampling import NULL_EPS

HORIZONTAL_EPS = 1e-10


# -- axioms -----------------------------------------------------------------


def check_axioms(frames, threshold=1e-9):
    """Residuals of the paracontact-metric compatibility conditions.

    ``frames`` may be any iterable; it is read once, frame by frame.
    """
    report = CheckReport()
    e = point_einsum

    def keep(name, lhs, rhs=None):
        report.add(name, nres(lhs, rhs), threshold)

    for f in frames:
        d = f.dim
        g, ph, xi, eta = f.g.value, f.phi.value, f.xi.value, f.eta.value
        keep("axiom_i_phi_xi", matvec(ph, xi))
        keep("axiom_i_eta_phi", vecmat(eta, ph))
        keep("axiom_ii_eta_xi", vecdot(eta, xi), 1.0)
        keep("axiom_ii_phi_sq", ph @ ph, np.eye(d) - e("i,j->ij", xi, eta))
        keep("axiom_iii_compat", np.swapaxes(ph, -1, -2) @ g @ ph,
             -g + e("i,j->ij", eta, eta))
        keep("axiom_iv_deta", g @ ph, f.deta.value)
        keep("metric_duality", matvec(g, xi), eta)
    return report


# -- Nijenhuis tensor and classification -------------------------------------


def _nijenhuis(f):
    """N^k_{ij} in coordinates (coordinate brackets vanish)."""
    ph = f.phi.value
    dph = f.phi.parts[1]  # (a, k, j) = d_a phi^k_j
    e = point_einsum
    return (
        e("si,skj->kij", ph, dph)
        - e("sj,ski->kij", ph, dph)
        + e("ks,jsi->kij", ph, dph)
        - e("ks,isj->kij", ph, dph)
    )


def classify(frames, threshold=1e-9):
    """One report of the paraSasakian and para-CR verdicts and their residuals.

    ``frames`` is a sequence of frames of jet order 1 or more; it is read
    twice, once for the axioms, whose rows lead the report.

    The paraSasakian property is tested both through the Nijenhuis tensor
    and through the covariant-derivative identity for phi; the two criteria
    must agree, and a spread between them is itself a reported residual.
    """
    report = check_axioms(frames, threshold)
    axioms_ok = report.passed
    tail = CheckReport()  # the rows after the three sasakian ones
    e = point_einsum
    for f in frames:
        d = f.dim
        g, ph, xi, eta = f.g.value, f.phi.value, f.xi.value, f.eta.value
        report.add("sasakian_nijenhuis", nres(
            _nijenhuis(f), 2.0 * e("ij,k->kij", f.deta.value, xi)), threshold)
        target = e("i,rs->rsi", eta, np.eye(d)) - e("s,ri->rsi", xi, g)
        report.add("sasakian_nabla_phi", nres(f.nabla_phi.value, target),
                   threshold)
        tail.add("h_vanishing", nres(f.h.value), 1e-10)
        # eta([phi X, Y] + [X, phi Y]) on the horizontal frame X_i = P d_i,
        # P = id - xi (x) eta; brackets of the extensions need dP as well
        dph, dxi, deta = f.phi.parts[1], f.xi.parts[1], f.eta.parts[1]
        proj = np.eye(d) - e("i,j->ij", xi, eta)
        dproj = -(e("as,i->asi", dxi, eta) + e("s,ai->asi", xi, deta))
        php = ph @ proj
        dphp = e("aks,si->aki", dph, proj) + e("ks,asi->aki", ph, dproj)

        def brk(u, du, w, dw):
            return e("si,skj->kij", u, dw) - e("sj,ski->kij", w, du)

        bracket = brk(php, dphp, proj, dproj) + brk(proj, dproj, php, dphp)
        tail.add("para_cr_bracket", nres(e("k,kij->ij", eta, bracket)), threshold)
        tail.add("para_cr_nabla_phi",
                 nres(f.cov(f.phi.cut(1), "ul", kind="canonical_tilde").value),
                 threshold)

    rows = report.rows
    nij, nphi = rows["sasakian_nijenhuis"], rows["sasakian_nabla_phi"]
    report.add("sasakian_agreement", abs(nij.residual - nphi.residual), 1e-10)
    report.extend(tail)
    report.verdicts = {
        "paracontact_metric": axioms_ok,
        "paraSasakian": axioms_ok and nij.passed and nphi.passed,
        "para_CR": axioms_ok and rows["para_cr_bracket"].passed
        and rows["para_cr_nabla_phi"].passed,
    }
    return report


# -- sectional curvatures ------------------------------------------------------


def _pairing(t, x, y, z, w):
    """t(x, y, z, w) of a tensor t at one point, as x @ (((t @ w) @ z) @ y)
    over the vectors' leading axes: each draw's products are those of its
    own chain, so each value has that chain's bits."""
    t = t @ w[..., None, None, :, None]
    t = t[..., 0] @ z[..., None, :, None]
    return (x[..., None, :] @ (t[..., 0] @ y[..., :, None]))[..., 0, 0]


def _ratio(num, den):
    """num / den, nan where den is not finite: an overflowed denominator
    would read as a curvature of 0 (nan / inf is nan, without a warning)."""
    return np.where(np.isfinite(den), num, math.nan) / den


def xi_sectional(f, u):
    """Sectional curvature of the planes spanned by xi and horizontal
    vectors u (..., d), at a point view ``f``."""
    g, xi = f.g, f.xi
    u = np.asarray(u, dtype=float)
    eps_u = bilinear(u, g, u)
    null = np.abs(eps_u) < NULL_EPS
    if np.count_nonzero(null):
        raise IsotropicVector(f"g(u,u) = {eps_u[null][0]:g} is numerically null")
    num = _pairing(f.riem_down, u, xi, xi, u)
    return num / (eps_u * (xi @ g @ xi))


def phsc(f, v, form="f8"):
    """Paraholomorphic sectional curvature of the sections (phi v, phi^2 v)
    of vectors v (..., d), at a point view ``f``.

    ``form="f8"`` is R(phi v, phi^2 v, phi^2 v, phi v) / (q1 q2), with
    q1 = g(phi v, phi v) and q2 = g(phi^2 v, phi^2 v): one contraction of
    R with four vectors.  ``form="f9"`` is
    -(R(phi v, v, v, phi v) - eta(v)^2 g_h(v, v)) / g_h(v, v)^2, with
    g_h = g - eta (x) eta, as a chain of vector products, O(d^4) like f8.
    Their rounding errors grow like 1/(q1 q2) and like 1/g_h(v, v)^2
    respectively, so the two forms drift apart on a section where either
    divisor is small.
    """
    g, ph, eta = f.g, f.phi, f.eta
    v = np.asarray(v, dtype=float)
    pv = matvec(ph, v)
    ppv = matvec(ph, pv)
    q1 = bilinear(pv, g, pv)
    q2 = bilinear(ppv, g, ppv)
    bad = (np.abs(q1) < NULL_EPS) | (np.abs(q2) < NULL_EPS)
    if np.count_nonzero(bad):
        raise IsotropicSection(
            f"section degenerate: g(phi v, phi v) = {q1[bad][0]:g}, "
            f"g(phi^2 v, phi^2 v) = {q2[bad][0]:g}"
        )
    R = f.riem_down
    if form == "f8":
        num = np.einsum("dcab,...d,...c,...a,...b->...", R, pv, ppv, ppv, pv)
        return _ratio(num, q1 * q2)
    if form == "f9":
        ev = vecdot(eta, v)
        gh = bilinear(v, g, v) - ev * ev  # g_h(v, v), the horizontal part of g
        num = _pairing(R, pv, v, v, pv) - ev * ev * gh
        return _ratio(-num, gh * gh)
    raise ValueError(f"unknown phsc form {form!r}")


# -- space form and eta-Einstein fitting ---------------------------------------


def _f20_blocks(g, eta, phl):
    """The two blocks A, B of the constant-phsc curvature model."""
    a = -0.5 * kulkarni_nomizu(g, g)
    ee = point_einsum("i,j->ij", eta, eta)
    b = kulkarni_nomizu(g, ee) + 0.5 * phi_block(phl, phl)
    return a, b


def _f12_rhs(n, k, g, eta):
    """2r of the space form of constant phsc k."""
    ee = point_einsum("i,j->ij", eta, eta)
    return (n * (k - 3.0) + k + 1.0) * g - (n + 1.0) * (k + 1.0) * ee


def _point_sums(x):
    """The sum of each point's entries, summed on their own, as a list in
    point order."""
    return np.sum(x, axis=tuple(range(1, x.ndim))).tolist()


def _f13_rhs(n, k):
    """2s of the space form of constant phsc k."""
    return n * (2 * n + 1) * (k - 3.0) + n * (k + 1.0)


def space_form_fit(frames, threshold=1e-8):
    """Least-squares constant k of the space-form curvature model.

    The model R = (k-3)/4 A + (k+1)/4 B is linear in k, so the fit is a
    one-parameter closed form; the fitted constant, ``k_hat``, is
    cross-checked against the Ricci and scalar contractions it implies.
    """
    n = frames[0].n
    num = den = 0.0
    cache = []
    for f in frames:
        g, eta, phl = f.g.value, f.eta.value, f.phi_low.value
        a, b = _f20_blocks(g, eta, phl)
        r = f.riem_down.value
        slope = 0.25 * (a + b)
        offset = 0.25 * (b - 3.0 * a)
        for x, y in zip(_point_sums(slope * (r - offset)),
                        _point_sums(slope * slope)):
            num += x
            den += y
        cache.append((f, r, slope, offset))
    k_hat = num / den
    report = CheckReport(constants={"k_hat": k_hat})

    def keep(name, lhs, rhs):
        report.add(name, nres(lhs, rhs), threshold)

    for f, r, slope, offset in cache:
        keep("space_form_f20", r, offset + k_hat * slope)
        keep("space_form_f12", 2.0 * f.ricci.value,
             _f12_rhs(n, k_hat, f.g.value, f.eta.value))
        s = f.scalar.value
        keep("space_form_f13", 2.0 * s, _f13_rhs(n, k_hat))
        k_s = (s + 3.0 * n * n + n) / (n * (n + 1.0))
        keep("space_form_f36", r, offset + per_point(k_s, 4) * slope)
    return report


def eta_einstein_fit(frames, threshold=1e-8):
    """Least-squares (a, b) in r = a g + b eta (x) eta, the report's
    constants, with the consistency check a + b = -2n.  Singular normal
    equations (eta = 0, say) give a = b = nan, so both rows fail."""
    n = frames[0].n
    m = np.zeros((2, 2))
    rhs = np.zeros(2)
    cache = []
    for f in frames:
        g = f.g.value
        ee = point_einsum("i,j->ij", f.eta.value, f.eta.value)
        r = f.ricci.value
        sums = [_point_sums(x)
                for x in (g * g, g * ee, ee * g, ee * ee, g * r, ee * r)]
        for gg, ge, eg, e2, gr, er in zip(*sums):
            m += [[gg, ge], [eg, e2]]
            rhs += [gr, er]
        cache.append((g, ee, r))
    try:
        a, b = (float(c) for c in np.linalg.solve(m, rhs))
    except np.linalg.LinAlgError:
        a = b = math.nan
    report = CheckReport(constants={"a": a, "b": b})
    for g, ee, r in cache:
        report.add("eta_einstein_fit", nres(r, a * g + b * ee), threshold)
    report.add("eta_einstein_sum", nres(a + b, -2.0 * n), 1e-10)
    return report


# -- PC-Bochner tensor ----------------------------------------------------------


def pc_bochner(f):
    """The pair (B_{ijkl}, kappa_B) of the PC-Bochner tensor of a frame or
    a point view, built once per frame."""
    return f.bochner


def bochner_symmetries(frames, threshold=1e-10):
    """The algebraic identities of the PC-Bochner tensor."""
    report = CheckReport()
    e = point_einsum

    def keep(name, lhs, rhs=None):
        report.add(name, nres(lhs, rhs), threshold)

    for f in frames:
        b, _ = f.bochner
        ph, ginv, xi = f.phi.value, f.ginv.value, f.xi.value
        keep("bochner_antisym", b, -tail_transpose(b, 1, 0, 2, 3))
        keep("bochner_pair_sym", b, tail_transpose(b, 2, 3, 0, 1))
        keep("bochner_bianchi",
             b + tail_transpose(b, 1, 2, 0, 3) + tail_transpose(b, 2, 0, 1, 3))
        keep("bochner_traceless", e("il,ijkl->jk", ginv, b))
        keep("bochner_xi", e("i,ijkl->jkl", xi, b))
        keep("bochner_phi_swap", e("sjkl,si->ijkl", b, ph),
             -e("iskl,sj->ijkl", b, ph))
    return report


# -- W^pc -------------------------------------------------------------------------


def horizontal(eta, v):
    """Whether eta(v) vanishes within HORIZONTAL_EPS, for each vector of v
    (..., d)."""
    return ~(np.abs(vecdot(eta, v)) > HORIZONTAL_EPS)


def wpc(f, x, y, z, w):
    """The paracontact conformal curvature pairing on horizontal vectors
    (..., d), at a point view ``f``."""
    n = f.n
    g, ph, big_f, eta = f.g, f.phi, f.phi_low, f.eta
    x, y, z, w = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                       for v in (x, y, z, w)))
    quad = np.stack([x, y, z, w], axis=-2)
    off = ~horizontal(eta, quad)
    if np.count_nonzero(off):
        pairing = vecdot(eta, quad)[off][0]
        raise NotHorizontal(f"eta(v) = {pairing:g} exceeds {HORIZONTAL_EPS:g}")
    rt, st = f.ricci_tilde, float(f.scalar_tilde)

    def gp(u, v):
        return bilinear(u, g, v)

    def fp(u, v):
        return bilinear(u, big_f, v)

    def rp(u, v):
        return bilinear(u, rt, v)

    px, py, pz = matvec(ph, x), matvec(ph, y), matvec(ph, z)
    c1 = st / (4.0 * (n + 1.0) * (n + 2.0))
    c2 = 1.0 / (2.0 * (n + 2.0))
    val = _pairing(f.riem_tilde_down, x, y, z, w)
    val -= c1 * (gp(x, z) * gp(y, w) - gp(y, z) * gp(x, w))
    val += c1 * (
        fp(x, z) * fp(y, w) - fp(y, z) * fp(x, w) + 2.0 * fp(x, y) * fp(z, w)
    )
    val += c2 * (
        gp(x, z) * rp(y, w)
        - gp(y, z) * rp(x, w)
        + gp(y, w) * rp(x, z)
        - gp(x, w) * rp(y, z)
    )
    # the Ricci-phi pairings take the phi on the first slot; that is the
    # arrangement consistent with the Bochner tensor's own phi blocks, and
    # it makes the horizontal equality with B exact
    val += c2 * (
        fp(x, z) * rp(py, w)
        - fp(y, z) * rp(px, w)
        + fp(y, w) * rp(px, z)
        - fp(x, w) * rp(py, z)
    )
    val += c2 * (2.0 * fp(x, y) * rp(pz, w) + 2.0 * fp(z, w) * rp(px, y))
    return val


def bochner_pairing(f, x, y, z, w):
    """B(X,Y,Z,W) on vectors (..., d) at a point view ``f``, for comparison
    against the W^pc pairing."""
    b, _ = f.bochner
    return _pairing(b, x, y, z, w)


# -- identity suite ------------------------------------------------------------------


def _project(t, proj):
    """t with every slot projected at each point: P^a_i P^b_j ... t_{ab...}.

    One slot at a time, O(d^(r+1)) per slot instead of O(d^(2r)) for the
    one-shot contraction; each step appends the new axis, so after all r
    steps the axes are back in order.
    """
    s = "abcdefgh"[: t.ndim - 1]
    for _ in s:
        t = point_einsum(f"{s},{s[0]}z->{s[1:]}z", t, proj)
    return t


def identity_suite(frames, k_hat, sampler=None, sections=50, threshold=1e-8):
    """Named residuals of the paraSasakian identity catalog.

    Each entry is the normalized max residual over the frames' points,
    which need jet order 2.  The space-form rows (f12, f13, f22) are judged
    against ``k_hat``, the constant of the run's space-form fit (the
    ``k_hat`` of a :func:`space_form_fit` report).  When a sampler is
    supplied, the two equivalent forms of the paraholomorphic sectional
    curvature are also compared on random sections, drawn point by point in
    point order.
    """
    n = frames[0].n
    ident = np.eye(frames[0].dim)
    report = CheckReport(constants={"k_hat": k_hat})
    e = point_einsum

    def keep(name, lhs, rhs=None):
        report.add(name, nres(lhs, rhs), threshold)

    for f in frames:
        g, ph, phl = f.g.value, f.phi.value, f.phi_low.value
        xi, eta, h = f.xi.value, f.eta.value, f.h.value
        neta, nxi = f.nabla_eta.value, f.nabla_xi.value
        big_r = f.riem_down.value
        r, s = f.ricci.value, f.scalar.value
        rt, st = f.ricci_tilde.value, f.scalar_tilde.value
        big_rt = f.riem_tilde_down.value

        keep("f1_eta", neta, phl)
        keep("f1_xi", nxi, -tail_transpose(ph, 1, 0))
        keep(
            "f2_low",
            f.nabla_phi_low.value,
            e("i,rs->rsi", eta, g) - e("s,ri->rsi", eta, g),
        )
        keep(
            "f2_up",
            f.nabla_phi.value,
            e("i,rs->rsi", eta, ident) - e("s,ri->rsi", xi, g),
        )
        keep(
            "f3_eta",
            f.cov(f.nabla_eta, "ll").value,
            e("ik,j->kij", g, eta) - e("i,kj->kij", eta, g),
        )
        keep(
            "f3_xi",
            f.cov(f.nabla_xi, "lu").value,
            e("ik,j->kij", g, xi) - e("i,kj->kij", eta, ident),
        )
        keep(
            "f4",
            e("kisl,l->kis", big_r, xi),
            e("ks,i->kis", g, eta) - e("is,k->kis", g, eta),
        )
        a_blk, b_blk = _f20_blocks(g, eta, phl)
        ff = 0.5 * phi_block(phl, phl)
        # the target f5 and f7 share
        f5_f7 = 0.5 * (kulkarni_nomizu(g, g) + kulkarni_nomizu(phl, phl)) - big_r
        keep("f5", e("aj,ailk->jilk", ph, e("bi,ablk->ailk", ph, big_r)), f5_f7)
        # f6 and f7 read one tensor, phi^l_h phi^b_i R_bmlk at (i, m, h, k)
        pp_r = e("lh,imlk->imhk", ph, e("bi,bmlk->imlk", ph, big_r))
        keep(
            "f6",
            pp_r - tail_transpose(pp_r, 1, 0, 2, 3),
            e("km,ih->mihk", g, g)
            - e("mh,ik->mihk", g, g)
            + e("ik,m,h->mihk", g, eta, eta)
            - e("mk,i,h->mihk", g, eta, eta)
            + e("hm,ik->mihk", phl, phl)
            - e("km,ih->mihk", phl, phl),
        )
        keep(
            "f7",
            tail_transpose(pp_r, 0, 2, 1, 3) - tail_transpose(pp_r, 2, 0, 1, 3),
            f5_f7,
        )
        phi_h = ph @ h
        keep("f51_xi", nxi, tail_transpose(-ph + phi_h, 1, 0))
        keep("f51_phi_h", phi_h + h @ ph)
        keep("f51_trace_h", np.trace(h, axis1=-2, axis2=-1))
        keep("f51_h_xi", matvec(h, xi))
        keep("tnweb_g", f.cov(f.g.cut(1), "ll", kind="canonical_tilde").value)
        keep("tnweb_xi", f.cov(f.xi.cut(1), "u", kind="canonical_tilde").value)
        keep("tnweb_eta", f.cov(f.eta.cut(1), "l", kind="canonical_tilde").value)
        keep("tnweb1_phi", f.cov(f.phi.cut(1), "ul", kind="canonical_tilde").value)
        keep(
            "tprtw",
            f.torsion_up.value,
            e("i,lj->lij", eta, phi_h)
            - e("j,li->lij", eta, phi_h)
            + 2.0 * e("ij,l->lij", phl, xi),
        )
        keep("f21", f.riem_tilde_up.value, f.f21_rhs)
        ee = e("i,j->ij", eta, eta)
        keep(
            "f50",
            rt,
            r
            - 2.0 * g
            + 2.0 * ee
            - e("js,s,k->jk", r, xi, eta)
            - e("jsrk,s,r->jk", big_r, xi, xi)
            - e("rk,jr->jk", neta, nxi),
        )
        keep("f54", big_rt, big_r - b_blk)
        keep("f53", rt, r - 2.0 * g + 2.0 * (n + 1.0) * ee)
        proj = ident - e("i,j->ij", xi, eta)
        keep("f55", _project(big_rt, proj), _project(big_r - ff, proj))
        keep(
            "f56_ricci",
            e("ai,bj,ab->ij", proj, proj, rt),
            e("ai,bj,ab->ij", proj, proj, r - 2.0 * g),
        )
        keep("f56_scalar", st, s - 2.0 * n)
        keep("f12", 2.0 * r, _f12_rhs(n, k_hat, g, eta))
        keep("f13", 2.0 * s, _f13_rhs(n, k_hat))
        keep("f22", big_rt, 0.25 * (k_hat - 3.0) * (a_blk + b_blk))

    if sampler is not None and sections:
        draws = Draws(frames, sections)
        v = sampler.section_vector(*draws.values("g", "phi"))
        report.add("f9_vs_f8_phsc", nres(
            draws.map(phsc, v), draws.map(lambda f, v: phsc(f, v, "f9"), v)),
            1e-9)
    return report


class Draws:
    """``count`` draws over the frames' points in turn: draw i sits at
    point i mod P, the frames' points taken in order, so a point has its
    second draw only once every point has had one.  The draws at a point
    are its stack, in draw order."""

    def __init__(self, frames, count):
        self.frames, self.count = frames, count
        self.points = sum(len(f.point) for f in frames)

    def values(self, *names):
        """The frames' values of ``names`` at each draw's point, in draw
        order: what the sampler reads for the draws."""
        at = np.arange(self.count) % self.points
        return [np.concatenate([getattr(f, name).value for f in self.frames])[at]
                for name in names]

    def map(self, fn, *vectors, where=None):
        """``fn(view, *stacks)`` at each point, on that point's stack of
        the drawn ``vectors`` (each (count, d)): the values in draw order,
        and nan at each draw that ``where`` leaves out."""
        out = np.full(self.count, math.nan)
        p = 0
        for f in self.frames:
            for i in range(len(f.point)):
                at = np.arange(p, self.count, self.points)
                if where is not None:
                    at = at[where[at]]
                if len(at):
                    out[at] = fn(f.view(i), *(v[at] for v in vectors))
                p += 1
        return out
