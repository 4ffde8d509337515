"""Structure classification and curvature analysis.

Covers the compatibility axioms, the Nijenhuis tensor and paraSasakian
criteria, xi-sectional and paraholomorphic sectional curvature, space-form
and eta-Einstein fitting, the PC-Bochner tensor with its W^pc counterpart,
and the named identity suite.  Every function reads frames (see
:func:`paracurv.connection.get_frame`), one per sample point, and adds one
normalized residual per frame to its report's rows, which keep the maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .connection import kulkarni_nomizu, phi_block
from .errors import IsotropicSection, IsotropicVector, NotHorizontal
from .report import CheckReport, nres
from .sampling import NULL_EPS

HORIZONTAL_EPS = 1e-10


# -- axioms -----------------------------------------------------------------


def check_axioms(frames, threshold=1e-9):
    """Residuals of the paracontact-metric compatibility conditions.

    ``frames`` may be any iterable; it is read once, frame by frame.
    """
    report = CheckReport()

    def keep(name, value):
        report.add(name, value, threshold)

    for f in frames:
        d = f.dim
        g, ph, xi, eta = f.g.value, f.phi.value, f.xi.value, f.eta.value
        e = np.einsum
        keep("axiom_i_phi_xi", nres(ph @ xi))
        keep("axiom_i_eta_phi", nres(eta @ ph))
        keep("axiom_ii_eta_xi", nres(eta @ xi, 1.0))
        keep("axiom_ii_phi_sq", nres(ph @ ph, np.eye(d) - np.outer(xi, eta)))
        keep(
            "axiom_iii_compat",
            nres(e("rs,rj,sk->jk", g, ph, ph), -g + np.outer(eta, eta)),
        )
        keep("axiom_iv_deta", nres(g @ ph, f.deta.value))
        keep("metric_duality", nres(g @ xi, eta))
    return report


# -- Nijenhuis tensor and classification -------------------------------------


def _nijenhuis(f):
    """N^k_{ij} in coordinates (coordinate brackets vanish)."""
    ph = f.phi.value
    dph = f.phi.parts[1]  # (a, k, j) = d_a phi^k_j
    e = np.einsum
    return (
        e("si,skj->kij", ph, dph)
        - e("sj,ski->kij", ph, dph)
        + e("ks,jsi->kij", ph, dph)
        - e("ks,isj->kij", ph, dph)
    )


@dataclass
class ClassifyResult:
    verdicts: dict
    report: CheckReport


def classify(frames, threshold=1e-9):
    """ParaSasakian and para-CR verdicts with the residuals behind them.

    ``frames`` is a sequence of frames of jet order 1 or more; it is read
    twice, once for the axioms, whose rows lead the report.

    The paraSasakian property is tested both through the Nijenhuis tensor
    and through the covariant-derivative identity for phi; the two criteria
    must agree, and a spread between them is itself a reported residual.
    """
    report = check_axioms(frames, threshold)
    axioms_ok = report.passed
    tail = CheckReport()  # the rows after the three sasakian ones
    e = np.einsum
    res_nij = res_nphi = 0.0
    for f in frames:
        d = f.dim
        g, ph, xi, eta = f.g.value, f.phi.value, f.xi.value, f.eta.value
        res_nij = max(
            res_nij,
            nres(_nijenhuis(f), 2.0 * e("ij,k->kij", f.deta.value, xi)),
        )
        target = e("i,rs->rsi", eta, np.eye(d)) - e("s,ri->rsi", xi, g)
        res_nphi = max(res_nphi, nres(f.nabla_phi.value, target))
        tail.add("h_vanishing", nres(f.h.value), 1e-10)
        # eta([phi X, Y] + [X, phi Y]) on the horizontal frame X_i = P d_i,
        # P = id - xi (x) eta; brackets of the extensions need dP as well
        dph, dxi, deta = f.phi.parts[1], f.xi.parts[1], f.eta.parts[1]
        proj = np.eye(d) - np.outer(xi, eta)
        dproj = -(e("as,i->asi", dxi, eta) + e("s,ai->asi", xi, deta))
        php = ph @ proj
        dphp = e("aks,si->aki", dph, proj) + e("ks,asi->aki", ph, dproj)

        def brk(u, du, w, dw):
            return e("si,skj->kij", u, dw) - e("sj,ski->kij", w, du)

        bracket = brk(php, dphp, proj, dproj) + brk(proj, dproj, php, dphp)
        tail.add("para_cr_bracket", nres(e("k,kij->ij", eta, bracket)),
                 threshold)
        tail.add("para_cr_nabla_phi",
                 nres(f.cov(f.phi.cut(1), "ul", kind="canonical_tilde").value),
                 threshold)

    report.add("sasakian_nijenhuis", res_nij, threshold)
    report.add("sasakian_nabla_phi", res_nphi, threshold)
    report.add("sasakian_agreement", abs(res_nij - res_nphi), 1e-10)
    report.extend(tail)
    rows = report.rows
    verdicts = {
        "paracontact_metric": axioms_ok,
        "paraSasakian": axioms_ok and res_nij < threshold and res_nphi < threshold,
        "para_CR": axioms_ok and rows["para_cr_bracket"].passed
        and rows["para_cr_nabla_phi"].passed,
    }
    return ClassifyResult(verdicts, report)


# -- sectional curvatures ------------------------------------------------------


def xi_sectional(f, u):
    """Sectional curvature of the plane spanned by xi and a horizontal u."""
    g, xi = f.g.value, f.xi.value
    u = np.asarray(u, dtype=float)
    eps_u = float(u @ g @ u)
    if abs(eps_u) < NULL_EPS:
        raise IsotropicVector(f"g(u,u) = {eps_u:g} is numerically null")
    R = f.riem_down.value
    num = np.einsum("kjhi,k,j,h,i->", R, u, xi, xi, u)
    den = eps_u * float(xi @ g @ xi)
    return float(num / den)


def phsc(f, v, form="f8"):
    """Paraholomorphic sectional curvature of the section (phi v, phi^2 v)."""
    g, ph, eta = f.g.value, f.phi.value, f.eta.value
    v = np.asarray(v, dtype=float)
    pv = ph @ v
    ppv = ph @ pv
    q1 = float(pv @ g @ pv)
    q2 = float(ppv @ g @ ppv)
    if abs(q1) < NULL_EPS or abs(q2) < NULL_EPS:
        raise IsotropicSection(
            f"section degenerate: g(phi v, phi v) = {q1:g}, "
            f"g(phi^2 v, phi^2 v) = {q2:g}"
        )
    if form == "f8":
        R = f.riem_down.value
        num = np.einsum("dcab,d,c,a,b->", R, pv, ppv, ppv, pv)
        # an overflowed denominator would read as a curvature of 0
        return float(num / (q1 * q2)) if np.isfinite(q1 * q2) else math.nan
    if form == "f9":
        R = f.riem_down.value
        e = np.einsum
        gh = g - np.outer(eta, eta)
        core = e("dk,bi,djhb->kjhi", ph, ph, R) - e(
            "j,h,ki->kjhi", eta, eta, gh
        )
        num = e("kjhi,k,j,h,i->", core, v, v, v, v)
        den = float((v @ gh @ v) ** 2)
        return float(-num / den) if np.isfinite(den) else math.nan
    raise ValueError(f"unknown phsc form {form!r}")


# -- space form and eta-Einstein fitting ---------------------------------------


def _f20_blocks(g, eta, phl):
    """The two blocks A, B of the constant-phsc curvature model."""
    a = -0.5 * kulkarni_nomizu(g, g)
    b = kulkarni_nomizu(g, np.outer(eta, eta)) + 0.5 * phi_block(phl, phl)
    return a, b


def _f12_rhs(n, k, g, eta):
    """2r of the space form of constant phsc k."""
    ee = np.outer(eta, eta)
    return (n * (k - 3.0) + k + 1.0) * g - (n + 1.0) * (k + 1.0) * ee


def _f13_rhs(n, k):
    """2s of the space form of constant phsc k."""
    return n * (2 * n + 1) * (k - 3.0) + n * (k + 1.0)


@dataclass
class SpaceFormFit:
    k_hat: float
    report: CheckReport


def space_form_fit(frames, threshold=1e-8):
    """Least-squares constant k of the space-form curvature model.

    The model R = (k-3)/4 A + (k+1)/4 B is linear in k, so the fit is a
    one-parameter closed form; the fitted constant is cross-checked against
    the Ricci and scalar contractions it implies.
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
        num += float(np.sum(slope * (r - offset)))
        den += float(np.sum(slope * slope))
        cache.append((f, r, slope, offset))
    k_hat = num / den
    report = CheckReport(constants={"k_hat": k_hat})
    for f, r, slope, offset in cache:
        report.add("space_form_f20", nres(r, offset + k_hat * slope), threshold)
        rhs12 = _f12_rhs(n, k_hat, f.g.value, f.eta.value)
        report.add("space_form_f12", nres(2.0 * f.ricci.value, rhs12), threshold)
        s = float(f.scalar.value)
        report.add("space_form_f13", nres(2.0 * s, _f13_rhs(n, k_hat)),
                   threshold)
        k_s = (s + 3.0 * n * n + n) / (n * (n + 1.0))
        report.add("space_form_f36", nres(r, offset + k_s * slope), threshold)
    return SpaceFormFit(k_hat, report)


@dataclass
class EtaEinsteinFit:
    a: float
    b: float
    report: CheckReport


def eta_einstein_fit(frames, threshold=1e-8):
    """Least-squares (a, b) in r = a g + b eta (x) eta, with the
    consistency check a + b = -2n.  Singular normal equations (eta = 0,
    say) give a = b = nan, so both rows fail."""
    n = frames[0].n
    m = np.zeros((2, 2))
    rhs = np.zeros(2)
    cache = []
    for f in frames:
        g = f.g.value
        ee = np.outer(f.eta.value, f.eta.value)
        r = f.ricci.value
        m += [
            [np.sum(g * g), np.sum(g * ee)],
            [np.sum(ee * g), np.sum(ee * ee)],
        ]
        rhs += [np.sum(g * r), np.sum(ee * r)]
        cache.append((g, ee, r))
    try:
        a, b = (float(c) for c in np.linalg.solve(m, rhs))
    except np.linalg.LinAlgError:
        a = b = math.nan
    report = CheckReport(constants={"a": a, "b": b})
    for g, ee, r in cache:
        report.add("eta_einstein_fit", nres(r, a * g + b * ee), threshold)
    report.add("eta_einstein_sum", nres(a + b, -2.0 * n), 1e-10)
    return EtaEinsteinFit(a, b, report)


# -- PC-Bochner tensor ----------------------------------------------------------


@dataclass
class BochnerData:
    tensor: np.ndarray  # B_{ijkl}
    kappa_B: float


def pc_bochner(f):
    """The frame's PC-Bochner tensor, built once per frame."""
    return BochnerData(*f.bochner)


def bochner_symmetries(frames, threshold=1e-10):
    """The algebraic identities of the PC-Bochner tensor."""
    report = CheckReport()

    def keep(name, value):
        report.add(name, value, threshold)

    e = np.einsum
    for f in frames:
        b, _ = f.bochner
        ph, ginv, xi = f.phi.value, f.ginv.value, f.xi.value
        keep("bochner_antisym", nres(b, -b.transpose(1, 0, 2, 3)))
        keep("bochner_pair_sym", nres(b, b.transpose(2, 3, 0, 1)))
        keep(
            "bochner_bianchi",
            nres(b + b.transpose(1, 2, 0, 3) + b.transpose(2, 0, 1, 3)),
        )
        keep("bochner_traceless", nres(e("il,ijkl->jk", ginv, b)))
        keep("bochner_xi", nres(e("i,ijkl->jkl", xi, b)))
        keep(
            "bochner_phi_swap",
            nres(
                e("sjkl,si->ijkl", b, ph), -e("iskl,sj->ijkl", b, ph)
            ),
        )
    return report


# -- W^pc -------------------------------------------------------------------------


def _require_horizontal(eta, vectors):
    for v in vectors:
        pairing = float(eta @ v)
        if abs(pairing) > HORIZONTAL_EPS:
            raise NotHorizontal(f"eta(v) = {pairing:g} exceeds {HORIZONTAL_EPS:g}")


def wpc(f, x, y, z, w):
    """The paracontact conformal curvature pairing on horizontal vectors."""
    n = f.n
    g, ph, big_f = f.g.value, f.phi.value, f.phi_low.value
    eta = f.eta.value
    x, y, z, w = (np.asarray(v, dtype=float) for v in (x, y, z, w))
    _require_horizontal(eta, (x, y, z, w))
    rt, st = f.ricci_tilde.value, float(f.scalar_tilde.value)
    big_rt = f.riem_tilde_down.value

    def gp(u, v):
        return float(u @ g @ v)

    def fp(u, v):
        return float(u @ big_f @ v)

    def rp(u, v):
        return float(u @ rt @ v)

    px, py, pz, pw = ph @ x, ph @ y, ph @ z, ph @ w
    c1 = st / (4.0 * (n + 1.0) * (n + 2.0))
    c2 = 1.0 / (2.0 * (n + 2.0))
    val = float(np.einsum("ijkl,i,j,k,l->", big_rt, x, y, z, w))
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
    """B(X,Y,Z,W) for comparison against the W^pc pairing."""
    b, _ = f.bochner
    return float(np.einsum("ijkl,i,j,k,l->", b, x, y, z, w))


# -- identity suite ------------------------------------------------------------------


def _project(t, proj):
    """t with every slot projected: P^a_i P^b_j ... t_{ab...}.

    One slot at a time, O(d^(r+1)) per slot instead of O(d^(2r)) for the
    one-shot contraction; each step appends the new axis, so after all r
    steps the axes are back in order.
    """
    for _ in range(t.ndim):
        t = np.tensordot(t, proj, axes=([0], [0]))
    return t


def identity_suite(frames, sampler=None, sections=50, threshold=1e-8):
    """Named residuals of the paraSasakian identity catalog.

    Each entry is the normalized max residual over the frames, which need
    jet order 2.  When a sampler is supplied, the two equivalent forms of
    the paraholomorphic sectional curvature are also compared on random
    sections.
    """
    n = frames[0].n
    ident = np.eye(frames[0].dim)
    k_hat = space_form_fit(frames).k_hat
    report = CheckReport(constants={"k_hat": k_hat})

    def keep(name, lhs, rhs=None):
        report.add(name, nres(lhs, rhs), threshold)

    e = np.einsum
    for f in frames:
        g, ph, phl = f.g.value, f.phi.value, f.phi_low.value
        xi, eta, h = f.xi.value, f.eta.value, f.h.value
        neta, nxi = f.nabla_eta.value, f.nabla_xi.value
        big_r = f.riem_down.value
        r, s = f.ricci.value, float(f.scalar.value)
        rt, st = f.ricci_tilde.value, float(f.scalar_tilde.value)
        big_rt = f.riem_tilde_down.value

        keep("f1_eta", neta, phl)
        keep("f1_xi", nxi, -ph.T)
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
        keep("f5", e("aj,bi,ablk->jilk", ph, ph, big_r), f5_f7)
        keep(
            "f6",
            e("bm,lh,bilk->mihk", ph, ph, big_r)
            - e("bi,lh,bmlk->mihk", ph, ph, big_r),
            e("km,ih->mihk", g, g)
            - e("mh,ik->mihk", g, g)
            + e("ik,m,h->mihk", g, eta, eta)
            - e("mk,i,h->mihk", g, eta, eta)
            + e("hm,ik->mihk", phl, phl)
            - e("km,ih->mihk", phl, phl),
        )
        keep(
            "f7",
            e("bi,lh,bmlk->ihmk", ph, ph, big_r)
            - e("bh,li,bmlk->ihmk", ph, ph, big_r),
            f5_f7,
        )
        keep("f51_xi", nxi, (-ph + ph @ h).T)
        keep("f51_phi_h", ph @ h + h @ ph)
        keep("f51_trace_h", np.trace(h))
        keep("f51_h_xi", h @ xi)
        keep("tnweb_g", f.cov(f.g.cut(1), "ll", kind="canonical_tilde").value)
        keep("tnweb_xi", f.cov(f.xi.cut(1), "u", kind="canonical_tilde").value)
        keep("tnweb_eta", f.cov(f.eta.cut(1), "l", kind="canonical_tilde").value)
        keep("tnweb1_phi", f.cov(f.phi.cut(1), "ul", kind="canonical_tilde").value)
        phi_h = ph @ h
        keep(
            "tprtw",
            f.torsion_up.value,
            e("i,lj->lij", eta, phi_h)
            - e("j,li->lij", eta, phi_h)
            + 2.0 * e("ij,l->lij", phl, xi),
        )
        keep("f21", f.riem_tilde_up.value, f.f21_rhs)
        keep(
            "f50",
            rt,
            r
            - 2.0 * g
            + 2.0 * np.outer(eta, eta)
            - e("js,s,k->jk", r, xi, eta)
            - e("jsrk,s,r->jk", big_r, xi, xi)
            - e("rk,jr->jk", neta, nxi),
        )
        keep("f54", big_rt, big_r - b_blk)
        keep("f53", rt, r - 2.0 * g + 2.0 * (n + 1.0) * np.outer(eta, eta))
        proj = ident - np.outer(xi, eta)
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

    if sampler is not None:
        for i in range(sections):
            f = frames[i % len(frames)]
            v = sampler.section_vector(f)
            report.add("f9_vs_f8_phsc", nres(phsc(f, v, "f8"), phsc(f, v, "f9")),
                       1e-9)
    return report
