"""Levi-Civita and canonical connections against independent oracles."""

import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import paracurv as pc
from paracurv.connection import (
    PointGeometry,
    _riemann_from_gamma,
    canonical_connection,
    christoffel,
    covariant,
    covariant_derivative,
    get_frame,
    lie_derivative_h,
    parallel_check,
    riemann,
    riemann_tilde,
    torsion,
    torsion_closed_form,
)
from paracurv.errors import NotParacontact
from paracurv.jetfields import jt_einsum
from paracurv.manifest import run_checks
from paracurv.tensors import plu_inverse

from conftest import sample_points


def fd_christoffel(structure, point, h=1e-5):
    """Gamma from central differences of the metric components."""
    d = structure.dim
    dg = np.zeros((d, d, d))
    for a in range(d):
        e = np.zeros(d)
        e[a] = h
        hi = structure.at(point + e, order=0).g.value
        lo = structure.at(point - e, order=0).g.value
        dg[a] = (hi - lo) / (2 * h)
    ginv = plu_inverse(structure.at(point, order=0).g.value)
    sym = (
        np.einsum("imj->mij", dg)
        + np.einsum("jmi->mij", dg)
        - np.einsum("mij->mij", dg)
    )
    return 0.5 * np.einsum("lm,mij->lij", ginv, sym)


def test_christoffel_matches_finite_differences(hyp1):
    for p in sample_points(hyp1, seed=21, count=3):
        got = christoffel(hyp1, p).gamma.components
        want = fd_christoffel(hyp1, p)
        assert np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(want))) < 1e-5


def test_christoffel_partials_match_finite_differences(hyp1):
    h = 1e-5
    p = sample_points(hyp1, seed=22, count=1)[0]
    coeffs = christoffel(hyp1, p)
    d = hyp1.dim
    for a in range(d):
        e = np.zeros(d)
        e[a] = h
        hi = christoffel(hyp1, p + e).gamma.components
        lo = christoffel(hyp1, p - e).gamma.components
        fd = (hi - lo) / (2 * h)
        scale = 1.0 + np.max(np.abs(fd))
        assert np.max(np.abs(coeffs.dgamma[a] - fd)) / scale < 1e-4


def test_metric_compatibility_and_symmetry(hyp2):
    for p in sample_points(hyp2, seed=25, count=3):
        f = get_frame(hyp2, p, order=2)
        nabla_g = f.cov(f.g, "ll").value
        assert np.max(np.abs(nabla_g)) < 1e-12
        gamma = f.gamma.value
        assert np.max(np.abs(gamma - gamma.transpose(0, 2, 1))) < 1e-13


def test_riemann_symmetries(hyp2):
    for p in sample_points(hyp2, seed=27, count=3):
        r = riemann(hyp2, p).riem_down.components
        scale = 1.0 + np.max(np.abs(r))
        assert np.max(np.abs(r + r.transpose(1, 0, 2, 3))) / scale < 1e-12
        assert np.max(np.abs(r + r.transpose(0, 1, 3, 2))) / scale < 1e-12
        assert np.max(np.abs(r - r.transpose(2, 3, 0, 1))) / scale < 1e-12
        bianchi = r + r.transpose(1, 2, 0, 3) + r.transpose(2, 0, 1, 3)
        assert np.max(np.abs(bianchi)) / scale < 1e-12


def test_curvature_bundle_contractions_agree(hyp1):
    p = sample_points(hyp1, seed=29, count=1)[0]
    bundle = riemann(hyp1, p)
    g = hyp1.at(p, order=0).g.value
    ginv = plu_inverse(g)
    down = np.einsum("lm,mijk->ijkl", g, bundle.riem_up.components)
    assert np.allclose(down, bundle.riem_down.components, atol=1e-13)
    ricci = np.einsum("ml,mjkl->jk", ginv, down)
    assert np.allclose(ricci, bundle.ricci.components, atol=1e-13)
    scalar = np.einsum("jk,jk->", ginv, ricci)
    assert abs(scalar - bundle.scalar) < 1e-11


def test_koszul_frame_oracle_on_heisenberg(heis1):
    # left-invariant frame U = d_u + v d_t, V = d_v - u d_t with
    # [U, V] = -2 xi, [U, xi] = [V, xi] = 0 and a constant frame metric;
    # the Koszul formula then gives g(R(U,V)V, U) = -3 by hand
    p = np.array([0.3, -0.4, 0.2])
    u_vec = np.array([1.0, 0.0, p[1]])
    v_vec = np.array([0.0, 1.0, -p[0]])
    sj = heis1.at(p, order=0)
    g = sj.g.value
    assert abs(u_vec @ g @ u_vec - 1.0) < 1e-14
    assert abs(v_vec @ g @ v_vec + 1.0) < 1e-14
    assert abs(u_vec @ g @ v_vec) < 1e-14
    r = riemann(heis1, p).riem_down.components
    num = np.einsum("ijkl,i,j,k,l->", r, u_vec, v_vec, v_vec, u_vec)
    assert abs(num + 3.0) < 1e-12


def test_nabla_xi_is_minus_phi_on_heisenberg(heis2):
    for p in sample_points(heis2, seed=31, count=3):
        f = get_frame(heis2, p, order=2)
        assert np.max(np.abs(f.nabla_xi.value + f.phi.value.T)) < 1e-13


def test_covariant_derivative_of_eta_gives_phi_low(heis2):
    p = sample_points(heis2, seed=33, count=1)[0]
    coeffs = christoffel(heis2, p)
    field = lambda q, order: heis2.at(q, order).eta
    out = covariant_derivative(field, p, coeffs, "l")
    assert (out.p, out.q) == (0, 2)
    phl = get_frame(heis2, p, order=1).phi_low.value
    assert np.allclose(out.components, phl, atol=1e-13)


def test_canonical_connection_preserves_the_structure(hyp1):
    for p in sample_points(hyp1, seed=35, count=3):
        f = get_frame(hyp1, p, order=2)
        for t, kinds in ((f.g, "ll"), (f.eta, "l"), (f.xi, "u"), (f.phi, "ul")):
            assert np.max(
                np.abs(f.cov(t, kinds, kind="canonical_tilde").value)
            ) < 1e-12
    coeffs = canonical_connection(hyp1, p)
    assert coeffs.kind == "canonical_tilde"
    # the canonical connection genuinely differs from Levi-Civita
    assert np.max(
        np.abs(coeffs.gamma.components - christoffel(hyp1, p).gamma.components)
    ) > 1e-3


def test_heisenberg_is_canonically_flat(heis2):
    for p in sample_points(heis2, seed=37, count=3):
        bundle, res = riemann_tilde(heis2, p)
        assert np.max(np.abs(bundle.riem_up.components)) < 1e-13
        assert res < 1e-12


def test_riemann_tilde_cross_check_on_hyperboloid(hyp1):
    for p in sample_points(hyp1, seed=39, count=3):
        bundle, res = riemann_tilde(hyp1, p)
        assert res < 1e-12
        assert np.max(np.abs(bundle.riem_down.components)) > 0.1
    bundle_only, res_none = riemann_tilde(hyp1, p, cross_check=False)
    assert res_none is None
    assert np.array_equal(
        bundle_only.riem_down.components, bundle.riem_down.components
    )


def test_torsion_closed_form(heis1, hyp2):
    for s in (heis1, hyp2):
        for p in sample_points(s, seed=41, count=3):
            got = torsion(s, p).components
            want = torsion_closed_form(s, p).components
            assert np.max(np.abs(got - want)) < 1e-12


def test_h_tensor_vanishes_on_builtins(heis1, hyp1):
    for s in (heis1, hyp1):
        for p in sample_points(s, seed=43, count=3):
            assert np.max(np.abs(lie_derivative_h(s, p).components)) < 1e-13


def test_parallel_check(heis2, hyp1):
    for s in (heis2, hyp1):
        report = parallel_check(s, sample_points(s, seed=45, count=2))
        assert report.passed
        names = {r.name for r in report.results}
        assert names == {"parallel_torsion", "parallel_curvature"}
    with pytest.raises(NotParacontact):
        parallel_check(SimpleNamespace(dim=4), [])


def covariant_at_input_order(t, kinds, gamma):
    """covariant() with every product taken at full input order, the
    reference for the version that cuts its inputs first."""
    letters = "ijkl"[: len(kinds)]
    res = t.partial()
    for s, kind in enumerate(kinds):
        x, tsub = letters[s], letters[:s] + "s" + letters[s + 1 :]
        if kind == "u":
            res = res + jt_einsum(f"{x}as,{tsub}->a{letters}", gamma, t)
        else:
            res = res - jt_einsum(f"sa{x},{tsub}->a{letters}", gamma, t)
    return res


def riemann_at_input_order(gamma):
    dgam = gamma.partial()
    t1 = dgam.tb((1, 0, 2, 3))
    q1 = jt_einsum("lis,sjk->lijk", gamma, gamma)
    return t1 - t1.tb((0, 2, 1, 3)) + q1 - q1.tb((0, 2, 1, 3))


def assert_same_jets(a, b):
    assert a.order == b.order
    assert all(np.array_equal(x, y) for x, y in zip(a.parts, b.parts, strict=True))


def test_cut_inputs_give_bitwise_equal_jets(hyp2):
    p = sample_points(hyp2, seed=47, count=1)[0]
    f = PointGeometry(hyp2, p, order=3)
    gt = f.gamma_tilde
    for t, kinds, gamma in [
        (f.riem_tilde_up, "ulll", gt),
        (f.torsion_up, "ull", gt),
        (f.nabla_eta, "ll", f.gamma),
        (f.nabla_xi, "lu", f.gamma),
        (f.phi, "ul", gt),
    ]:
        assert_same_jets(covariant(t, kinds, gamma),
                         covariant_at_input_order(t, kinds, gamma))
    for gamma in (f.gamma, gt, gt.cut(1)):
        assert_same_jets(_riemann_from_gamma(gamma), riemann_at_input_order(gamma))


ALL_CHECKS_MANIFEST = {
    "schema": "paracurv-manifest/1",
    "manifold": {"kind": "builtin", "name": "heisenberg", "n": 1},
    "sampling": {"seed": 2, "count": 30},
    "checks": "all",
}


def test_run_checks_builds_one_frame_per_point(monkeypatch):
    structure = pc.builtin_heisenberg(1)
    built = []
    init = PointGeometry.__init__

    def counting_init(self, structure, point, order=3):
        built.append(np.asarray(point, dtype=float).tobytes())
        init(self, structure, point, order)

    monkeypatch.setattr(PointGeometry, "__init__", counting_init)
    run_checks(structure, ALL_CHECKS_MANIFEST)
    points = pc.Sampler(structure, 2).points(30)
    assert sorted(built) == sorted(p.tobytes() for p in points)


def test_structure_is_freed_without_the_cyclic_collector():
    gc.collect()
    gc.disable()
    try:
        structure = pc.builtin_heisenberg(1)
        run_checks(structure, ALL_CHECKS_MANIFEST)
        ref = weakref.ref(structure)
        del structure
        assert ref() is None
    finally:
        gc.enable()
