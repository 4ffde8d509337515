"""Structure classification and curvature analysis.

Covers the compatibility axioms, the Nijenhuis tensor and paraSasakian
criteria, xi-sectional and paraholomorphic sectional curvature, space-form
and eta-Einstein fitting, the PC-Bochner tensor with its W^pc counterpart,
and the named identity suite.  Every function reads frames (see
:func:`paracurv.connection.get_frame`), one per sample point, and reduces
over them by taking the maximum normalized residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IsotropicSection, IsotropicVector, NotHorizontal
from .report import CheckReport, nres
from .sampling import NULL_EPS

HORIZONTAL_EPS = 1e-10


# -- axioms -----------------------------------------------------------------


def check_axioms(frames, threshold=1e-9):
    """Residuals of the paracontact-metric compatibility conditions.

    ``frames`` may be any iterable; it is read once, frame by frame.
    """
    worst = {}

    def keep(name, value):
        worst[name] = max(worst.get(name, 0.0), value)

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

    report = CheckReport()
    for name, value in worst.items():
        report.add(name, value, threshold)
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


def classify(frames, threshold=1e-9, include_axioms=True):
    """ParaSasakian and para-CR verdicts with the residuals behind them.

    ``frames`` is a sequence of frames of jet order 2 or more; it is read
    twice, once for the axioms.

    The paraSasakian property is tested both through the Nijenhuis tensor
    and through the covariant-derivative identity for phi; the two criteria
    must agree, and a spread between them is itself a reported residual.
    """
    axioms = check_axioms(frames, threshold)
    e = np.einsum
    res_nij = res_nphi = res_h = res_bracket = res_tphi = 0.0
    for f in frames:
        d = f.dim
        g, ph, xi, eta = f.g.value, f.phi.value, f.xi.value, f.eta.value
        res_nij = max(
            res_nij,
            nres(_nijenhuis(f), 2.0 * e("ij,k->kij", f.deta.value, xi)),
        )
        target = e("i,rs->rsi", eta, np.eye(d)) - e("s,ri->rsi", xi, g)
        res_nphi = max(res_nphi, nres(f.nabla_phi.value, target))
        res_h = max(res_h, nres(f.h.value))
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
        res_bracket = max(res_bracket, nres(e("k,kij->ij", eta, bracket)))
        res_tphi = max(
            res_tphi, nres(f.cov(f.phi, "ul", kind="canonical_tilde").value)
        )

    report = CheckReport()
    if include_axioms:
        report.extend(axioms)
    report.add("sasakian_nijenhuis", res_nij, threshold)
    report.add("sasakian_nabla_phi", res_nphi, threshold)
    report.add("sasakian_agreement", abs(res_nij - res_nphi), 1e-10)
    report.add("h_vanishing", res_h, 1e-10)
    report.add("para_cr_bracket", res_bracket, threshold)
    report.add("para_cr_nabla_phi", res_tphi, threshold)
    verdicts = {
        "paracontact_metric": axioms.passed,
        "paraSasakian": axioms.passed
        and res_nij < threshold
        and res_nphi < threshold,
        "para_CR": axioms.passed
        and res_bracket < threshold
        and res_tphi < threshold,
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
    """The two g-blocks of the constant-phsc curvature model."""
    e = np.einsum
    a = e("ml,hj->mjhl", g, g) - e("jl,hm->mjhl", g, g)
    b = (
        e("hm,j,l->mjhl", g, eta, eta)
        + e("lj,m,h->mjhl", g, eta, eta)
        - e("lm,j,h->mjhl", g, eta, eta)
        - e("hj,l,m->mjhl", g, eta, eta)
        + e("hj,ml->mjhl", phl, phl)
        - e("hm,jl->mjhl", phl, phl)
        + 2.0 * e("mj,hl->mjhl", phl, phl)
    )
    return a, b


@dataclass
class SpaceFormFit:
    k_hat: float
    residual_max: float
    f12_residual: float
    f13_residual: float
    f36_residual: float
    per_point: list = field(default_factory=list)


def space_form_fit(frames):
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
    per_point, res12, res13, res36 = [], 0.0, 0.0, 0.0
    for f, r, slope, offset in cache:
        per_point.append(nres(r, offset + k_hat * slope))
        g, eta = f.g.value, f.eta.value
        lhs12 = 2.0 * f.ricci.value
        rhs12 = (n * (k_hat - 3.0) + k_hat + 1.0) * g - (n + 1.0) * (
            k_hat + 1.0
        ) * np.outer(eta, eta)
        res12 = max(res12, nres(lhs12, rhs12))
        s = float(f.scalar.value)
        res13 = max(
            res13,
            nres(2.0 * s, n * (2 * n + 1) * (k_hat - 3.0) + n * (k_hat + 1.0)),
        )
        k_s = (s + 3.0 * n * n + n) / (n * (n + 1.0))
        res36 = max(res36, nres(r, offset + k_s * slope))
    return SpaceFormFit(
        k_hat=float(k_hat),
        residual_max=max(per_point),
        f12_residual=res12,
        f13_residual=res13,
        f36_residual=res36,
        per_point=per_point,
    )


@dataclass
class EtaEinsteinFit:
    a: float
    b: float
    residual_max: float
    sum_residual: float
    a_closed_residual: float
    b_closed_residual: float


def eta_einstein_fit(frames):
    """Least-squares (a, b) in r = a g + b eta (x) eta, with closed-form
    consistency checks a = s/2n + 1 and b = -s/2n - (2n+1)."""
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
        cache.append((f, g, ee, r))
    a, b = np.linalg.solve(m, rhs)
    residual = res_a = res_b = 0.0
    for f, g, ee, r in cache:
        residual = max(residual, nres(r, a * g + b * ee))
        s = float(f.scalar.value)
        res_a = max(res_a, nres(a, s / (2 * n) + 1.0))
        res_b = max(res_b, nres(b, -s / (2 * n) - (2 * n + 1.0)))
    return EtaEinsteinFit(
        a=float(a),
        b=float(b),
        residual_max=residual,
        sum_residual=nres(a + b, -2.0 * n),
        a_closed_residual=res_a,
        b_closed_residual=res_b,
    )


# -- PC-Bochner tensor ----------------------------------------------------------


@dataclass
class BochnerData:
    tensor: np.ndarray  # B_{ijkl}
    kappa_B: float


def _bochner(f):
    n = f.n
    g, eta = f.g.value, f.eta.value
    ph, phl = f.phi.value, f.phi_low.value
    r, s = f.ricci.value, float(f.scalar.value)
    big_r = f.riem_down.value
    kappa = -(s - 2.0 * n) / (2.0 * n + 2.0)
    c = 1.0 / (2.0 * n + 4.0)
    e = np.einsum
    rp = e("sk,si->ik", r, ph)  # r_{sk} phi^s_i
    t = (
        e("ik,jl->ijkl", r, g)
        - e("jk,il->ijkl", r, g)
        + e("jl,ik->ijkl", r, g)
        - e("il,jk->ijkl", r, g)
        + e("ik,jl->ijkl", rp, phl)
        - e("jk,il->ijkl", rp, phl)
        + e("jl,ik->ijkl", rp, phl)
        - e("il,jk->ijkl", rp, phl)
        + 2.0 * e("ij,kl->ijkl", rp, phl)
        + 2.0 * e("kl,ij->ijkl", rp, phl)
        - e("ik,j,l->ijkl", r, eta, eta)
        + e("jk,i,l->ijkl", r, eta, eta)
        - e("jl,i,k->ijkl", r, eta, eta)
        + e("il,j,k->ijkl", r, eta, eta)
    )
    b = big_r + c * t
    b -= (kappa + 2.0 * n) * c * (
        e("ik,jl->ijkl", phl, phl)
        - e("jk,il->ijkl", phl, phl)
        + 2.0 * e("ij,kl->ijkl", phl, phl)
    )
    b += (kappa - 4.0) * c * (
        e("ik,jl->ijkl", g, g) - e("jk,il->ijkl", g, g)
    )
    b -= kappa * c * (
        e("ik,j,l->ijkl", g, eta, eta)
        - e("jk,i,l->ijkl", g, eta, eta)
        + e("jl,i,k->ijkl", g, eta, eta)
        - e("il,j,k->ijkl", g, eta, eta)
    )
    return b, kappa


def pc_bochner(f):
    b, kappa = _bochner(f)
    return BochnerData(b, float(kappa))


def bochner_symmetries(frames, threshold=1e-10):
    """The algebraic identities of the PC-Bochner tensor."""
    worst = {}

    def keep(name, value):
        worst[name] = max(worst.get(name, 0.0), value)

    e = np.einsum
    for f in frames:
        b, _ = _bochner(f)
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
    report = CheckReport()
    for name, value in worst.items():
        report.add(name, value, threshold)
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
    b, _ = _bochner(f)
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
    jet order 3.  When a sampler is supplied, the two equivalent forms of
    the paraholomorphic sectional curvature are also compared on random
    sections.
    """
    n = frames[0].n
    ident = np.eye(frames[0].dim)
    worst = {}

    def keep(name, lhs, rhs=None):
        worst[name] = max(worst.get(name, 0.0), nres(lhs, rhs))

    fit = space_form_fit(frames)
    k_hat = fit.k_hat
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
        keep(
            "f5",
            e("aj,bi,ablk->jilk", ph, ph, big_r),
            -big_r
            - e("ik,lj->jilk", phl, phl)
            + e("il,kj->jilk", phl, phl)
            - e("kj,il->jilk", g, g)
            + e("lj,ik->jilk", g, g),
        )
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
            -big_r
            - e("ki,mh->ihmk", g, g)
            + e("mi,hk->ihmk", g, g)
            + e("hm,ki->ihmk", phl, phl)
            - e("hk,mi->ihmk", phl, phl),
        )
        keep("f51_xi", nxi, (-ph + ph @ h).T)
        keep("f51_phi_h", ph @ h + h @ ph)
        keep("f51_trace_h", np.trace(h))
        keep("f51_h_xi", h @ xi)
        keep("tnweb_g", f.cov(f.g, "ll", kind="canonical_tilde").value)
        keep("tnweb_xi", f.cov(f.xi, "u", kind="canonical_tilde").value)
        keep("tnweb_eta", f.cov(f.eta, "l", kind="canonical_tilde").value)
        keep("tnweb1_phi", f.cov(f.phi, "ul", kind="canonical_tilde").value)
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
        ff = (
            e("ik,jl->ijkl", phl, phl)
            - e("jk,il->ijkl", phl, phl)
            + 2.0 * e("ij,kl->ijkl", phl, phl)
        )
        keep(
            "f54",
            big_rt,
            big_r
            - ff
            - e("ik,j,l->ijkl", g, eta, eta)
            + e("jk,i,l->ijkl", g, eta, eta)
            + e("il,j,k->ijkl", g, eta, eta)
            - e("jl,i,k->ijkl", g, eta, eta),
        )
        keep("f53", rt, r - 2.0 * g + 2.0 * (n + 1.0) * np.outer(eta, eta))
        proj = ident - np.outer(xi, eta)
        keep("f55", _project(big_rt, proj), _project(big_r - ff, proj))
        keep(
            "f56_ricci",
            e("ai,bj,ab->ij", proj, proj, rt),
            e("ai,bj,ab->ij", proj, proj, r - 2.0 * g),
        )
        keep("f56_scalar", st, s - 2.0 * n)
        rhs12 = (n * (k_hat - 3.0) + k_hat + 1.0) * g - (n + 1.0) * (
            k_hat + 1.0
        ) * np.outer(eta, eta)
        keep("f12", 2.0 * r, rhs12)
        keep(
            "f13",
            2.0 * s,
            n * (2 * n + 1) * (k_hat - 3.0) + n * (k_hat + 1.0),
        )
        a_blk, b_blk = _f20_blocks(g, eta, phl)
        keep(
            "f22",
            big_rt,
            0.25 * (k_hat - 3.0) * (a_blk + b_blk),
        )

    report = CheckReport(constants={"k_hat": k_hat})
    for name, value in worst.items():
        report.add(name, value, threshold)
    if sampler is not None:
        worst_ph = 0.0
        for i in range(sections):
            f = frames[i % len(frames)]
            v = sampler.section_vector(f)
            worst_ph = max(worst_ph, nres(phsc(f, v, "f8"), phsc(f, v, "f9")))
        report.add("f9_vs_f8_phsc", worst_ph, 1e-9)
    return report
