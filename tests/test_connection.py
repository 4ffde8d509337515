"""Levi-Civita and canonical connections against independent oracles."""

import gc
import weakref
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paracurv as pc
from paracurv.connection import (
    PointGeometry,
    _riemann_from_gamma,
    covariant,
    get_frame,
    kulkarni_nomizu,
    parallel_check,
    tail_transpose,
)
from paracurv.jetfields import jt_einsum, plu_inverse, point_einsum
from paracurv.jetfields import JetTensor
from paracurv.manifest import (
    BATCH,
    CHECKS,
    assemble_report,
    build_structure,
    dumps_report,
    run_checks,
)
from paracurv.report import nres

from conftest import sample_frames, sample_points


def torsion_closed_form(f):
    """T(X,Y) = eta(X) phi hY - eta(Y) phi hX + 2 g(X, phi Y) xi, at a
    point view."""
    eta, xi = f.eta, f.xi
    phi_h = np.einsum("ls,sj->lj", f.phi, f.h)
    return (
        np.einsum("i,lj->lij", eta, phi_h)
        - np.einsum("j,li->lij", eta, phi_h)
        + 2.0 * np.einsum("ij,l->lij", f.phi_low, xi)
    )


def f21_cross_check(f):
    """Canonical curvature against its Levi-Civita-side expression, the
    largest residual over the frame's points."""
    return max(nres(f.riem_tilde_up.value, f.f21_rhs))


def fd_christoffel(structure, point, h=1e-5):
    """Gamma from central differences of the metric components."""
    d = structure.dim
    dg = np.zeros((d, d, d))
    for a in range(d):
        e = np.zeros(d)
        e[a] = h
        hi = pc.get_frame(structure, point + e, 0).view(0).g
        lo = pc.get_frame(structure, point - e, 0).view(0).g
        dg[a] = (hi - lo) / (2 * h)
    ginv = plu_inverse(pc.get_frame(structure, point, 0).view(0).g)
    sym = (
        np.einsum("imj->mij", dg)
        + np.einsum("jmi->mij", dg)
        - np.einsum("mij->mij", dg)
    )
    return 0.5 * np.einsum("lm,mij->lij", ginv, sym)


def test_christoffel_matches_finite_differences(hyp1):
    for p in sample_points(hyp1, seed=21, count=3):
        got = get_frame(hyp1, p, 1).view(0).gamma
        want = fd_christoffel(hyp1, p)
        assert np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(want))) < 1e-5


def test_christoffel_partials_match_finite_differences(hyp1):
    h = 1e-5
    p = sample_points(hyp1, seed=22, count=1)[0]
    dgamma = get_frame(hyp1, p, 2).gamma.parts[1][0]
    d = hyp1.dim
    for a in range(d):
        e = np.zeros(d)
        e[a] = h
        hi = get_frame(hyp1, p + e, 1).view(0).gamma
        lo = get_frame(hyp1, p - e, 1).view(0).gamma
        fd = (hi - lo) / (2 * h)
        scale = 1.0 + np.max(np.abs(fd))
        assert np.max(np.abs(dgamma[a] - fd)) / scale < 1e-4


def test_metric_compatibility_and_symmetry(hyp2):
    for p in sample_points(hyp2, seed=25, count=3):
        f = get_frame(hyp2, p, order=2)
        nabla_g = f.cov(f.g, "ll").value
        assert np.max(np.abs(nabla_g)) < 1e-12
        gamma = f.view(0).gamma
        assert np.max(np.abs(gamma - gamma.transpose(0, 2, 1))) < 1e-13


def test_riemann_symmetries(hyp2):
    for p in sample_points(hyp2, seed=27, count=3):
        r = get_frame(hyp2, p, 2).view(0).riem_down
        scale = 1.0 + np.max(np.abs(r))
        assert np.max(np.abs(r + r.transpose(1, 0, 2, 3))) / scale < 1e-12
        assert np.max(np.abs(r + r.transpose(0, 1, 3, 2))) / scale < 1e-12
        assert np.max(np.abs(r - r.transpose(2, 3, 0, 1))) / scale < 1e-12
        bianchi = r + r.transpose(1, 2, 0, 3) + r.transpose(2, 0, 1, 3)
        assert np.max(np.abs(bianchi)) / scale < 1e-12


def test_kulkarni_nomizu_has_the_curvature_symmetries():
    rng = np.random.default_rng(29)
    for d in (3, 5, 7):
        # two batches of 4 symmetric matrices
        a, b = (m + np.swapaxes(m, 1, 2) for m in rng.standard_normal((2, 4, d, d)))
        t = kulkarni_nomizu(a, b)
        assert max(nres(t, -t.transpose(0, 2, 1, 3, 4))) < 1e-14
        assert max(nres(t, -t.transpose(0, 1, 2, 4, 3))) < 1e-14
        assert max(nres(t, t.transpose(0, 3, 4, 1, 2))) < 1e-14
        assert max(nres(t + t.transpose(0, 2, 3, 1, 4)
                        + t.transpose(0, 3, 1, 2, 4))) < 1e-13
        assert max(nres(t, kulkarni_nomizu(b, a))) < 1e-14
        assert t[:, 0, 1, 0, 1] == pytest.approx(
            a[:, 0, 0] * b[:, 1, 1] + a[:, 1, 1] * b[:, 0, 0]
            - 2.0 * a[:, 0, 1] * b[:, 0, 1])


def test_curvature_bundle_contractions_agree(hyp1):
    p = sample_points(hyp1, seed=29, count=1)[0]
    f = get_frame(hyp1, p, 2).view(0)
    g = pc.get_frame(hyp1, p, 0).view(0).g
    ginv = plu_inverse(g)
    down = np.einsum("lm,mijk->ijkl", g, f.riem_up)
    assert np.allclose(down, f.riem_down, atol=1e-13)
    ricci = np.einsum("ml,mjkl->jk", ginv, down)
    assert np.allclose(ricci, f.ricci, atol=1e-13)
    scalar = np.einsum("jk,jk->", ginv, ricci)
    assert abs(scalar - float(f.scalar)) < 1e-11


def test_koszul_frame_oracle_on_heisenberg(heis1):
    # left-invariant frame U = d_u + v d_t, V = d_v - u d_t with
    # [U, V] = -2 xi, [U, xi] = [V, xi] = 0 and a constant frame metric;
    # the Koszul formula then gives g(R(U,V)V, U) = -3 by hand
    p = np.array([0.3, -0.4, 0.2])
    u_vec = np.array([1.0, 0.0, p[1]])
    v_vec = np.array([0.0, 1.0, -p[0]])
    g = pc.get_frame(heis1, p, 0).view(0).g
    assert abs(u_vec @ g @ u_vec - 1.0) < 1e-14
    assert abs(v_vec @ g @ v_vec + 1.0) < 1e-14
    assert abs(u_vec @ g @ v_vec) < 1e-14
    r = get_frame(heis1, p, 2).view(0).riem_down
    num = np.einsum("ijkl,i,j,k,l->", r, u_vec, v_vec, v_vec, u_vec)
    assert abs(num + 3.0) < 1e-12


def test_nabla_xi_is_minus_phi_on_heisenberg(heis2):
    for p in sample_points(heis2, seed=31, count=3):
        f = get_frame(heis2, p, order=2).view(0)
        assert np.max(np.abs(f.nabla_xi + f.phi.T)) < 1e-13


def test_covariant_derivative_of_eta_gives_phi_low(heis2):
    p = sample_points(heis2, seed=33, count=1)[0]
    f = get_frame(heis2, p, order=2)
    out = covariant(f.eta, "l", f.gamma)
    assert out.base_shape == (heis2.dim, heis2.dim)
    assert np.allclose(out.value, f.phi_low.value, atol=1e-13)


def test_canonical_connection_preserves_the_structure(hyp1):
    for p in sample_points(hyp1, seed=35, count=3):
        f = get_frame(hyp1, p, order=2)
        for t, kinds in ((f.g, "ll"), (f.eta, "l"), (f.xi, "u"), (f.phi, "ul")):
            assert np.max(
                np.abs(f.cov(t, kinds, kind="canonical_tilde").value)
            ) < 1e-12
    # the canonical connection genuinely differs from Levi-Civita
    assert np.max(np.abs(f.gamma_tilde.value - f.gamma.value)) > 1e-3


def test_heisenberg_is_canonically_flat(heis2):
    for f in sample_frames(heis2, seed=37, count=3, order=3):
        assert np.max(np.abs(f.riem_tilde_up.value)) < 1e-13
        assert f21_cross_check(f) < 1e-12


def test_riemann_tilde_cross_check_on_hyperboloid(hyp1):
    for f in sample_frames(hyp1, seed=39, count=3, order=3):
        assert f21_cross_check(f) < 1e-12
        assert np.max(np.abs(f.riem_tilde_down.value)) > 0.1


def test_torsion_closed_form(heis1, hyp2):
    for s in (heis1, hyp2):
        for f in sample_frames(s, seed=41, count=3):
            got = f.view(0).torsion_up
            want = torsion_closed_form(f.view(0))
            assert np.max(np.abs(got - want)) < 1e-12


def test_h_tensor_vanishes_on_builtins(heis1, hyp1):
    for s in (heis1, hyp1):
        for f in sample_frames(s, seed=43, count=3):
            assert np.max(np.abs(f.h.value)) < 1e-13


def test_parallel_check(heis2, hyp1):
    for s in (heis2, hyp1):
        report = parallel_check(sample_frames(s, seed=45, count=2, order=3))
        assert report.passed
        names = set(report.rows)
        assert names == {"parallel_torsion", "parallel_curvature"}


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
    f = get_frame(hyp2, p, order=3)
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

    def counting_init(self, jets, points):
        built.extend(p.tobytes() for p in np.asarray(points, dtype=float))
        init(self, jets, points)

    monkeypatch.setattr(PointGeometry, "__init__", counting_init)
    run_checks(structure, ALL_CHECKS_MANIFEST)
    # every point lies in exactly one batch frame
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


def axioms_and_classification(count):
    return {
        "schema": "paracurv-manifest/1",
        "manifold": {"kind": "builtin", "name": "heisenberg", "n": 1},
        "sampling": {"seed": 3, "count": count},
        "checks": ["axioms", "classification"],
    }


def test_run_checks_builds_each_frame_once_above_2048_points(monkeypatch):
    built = []
    init = PointGeometry.__init__

    def counting_init(self, jets, points):
        order = jets.g.order  # a frame's order is its metric jets'
        assert len(points) <= BATCH
        built.extend([order] * len(points))
        init(self, jets, points)

    monkeypatch.setattr(PointGeometry, "__init__", counting_init)
    manifest = axioms_and_classification(2100)
    run_checks(pc.builtin_heisenberg(1), manifest)
    # each point in one frame, in point order, at the highest order the
    # table gives that point
    rows = [row for row in CHECKS if row.name in manifest["checks"]]
    assert built == [max(r.order for r in rows if r.points is None or i < r.points)
                     for i in range(2100)]


# (checks, leading frames: one per point-limit segment)
ALIVE_CASES = [(["axioms", "classification"], 1), ("all", 3)]


@pytest.mark.parametrize("checks, segments", ALIVE_CASES,
                         ids=["axioms_classification", "all"])
def test_run_checks_keeps_only_the_leading_frames_alive(monkeypatch, checks,
                                                        segments):
    alive = weakref.WeakSet()
    most = [0]
    init = PointGeometry.__init__

    def tracking_init(self, jets, point):
        alive.add(self)
        most[0] = max(most[0], len(alive))
        init(self, jets, point)

    monkeypatch.setattr(PointGeometry, "__init__", tracking_init)
    manifest = dict(axioms_and_classification(3000), checks=checks)
    report, _ = run_checks(pc.builtin_heisenberg(1), manifest)
    assert report.passed
    # the leading frames, the tail frame in use and the one being built
    assert most[0] <= segments + 2


EMBEDDED = {
    "schema": "paracurv-manifest/1",
    "manifold": {"kind": "embedded", "n": 1, "coords": ["x1", "y0", "y1"],
                 "immersion": ["sqrt(1-x1^2+y0^2+y1^2)", "x1", "y0", "y1"]},
}
BATCH_STRUCTURES = [
    pc.builtin_heisenberg(2),
    pc.builtin_hyperboloid(2),
    pc.d_homothetic(pc.builtin_hyperboloid(2), 2.0),
    pc.build_structure(EMBEDDED),
]
QUANTITIES = [name for name, v in vars(PointGeometry).items()
              if isinstance(v, cached_property)]


def quantity(frame, name):
    """The frame's quantity as a list of arrays, or the error it raises."""
    try:
        q = getattr(frame, name)
    except ValueError as e:  # a jet order too low for it
        return str(e)
    if isinstance(q, JetTensor):
        return list(q.parts)
    return list(q) if isinstance(q, tuple) else [q]


@settings(max_examples=8, deadline=None)
@given(st.integers(1, 5).flatmap(
           lambda p: st.lists(st.lists(st.floats(-0.5, 0.5), min_size=5,
                                       max_size=5), min_size=p, max_size=p)),
       st.integers(0, 3))
def test_batch_frames_are_bitwise_the_frames_of_their_points(points, order):
    assert len(QUANTITIES) == 21
    for structure in BATCH_STRUCTURES:
        batch = np.array(points)[:, : structure.dim]
        frame = PointGeometry(structure.at(batch, order), batch)
        for i, point in enumerate(batch):
            single = get_frame(structure, point, order)
            for name in QUANTITIES:
                got, want = quantity(frame, name), quantity(single, name)
                if isinstance(want, str):
                    assert got == want, name
                    continue
                assert len(got) == len(want), name
                for x, y in zip(got, want):
                    x, y = x[i], y[0]
                    assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


def residuals(report):
    return ({r.name: repr(r.residual) for r in report.rows.values()},
            {k: repr(v) for k, v in report.constants.items()},
            report.verdicts)


def frame_checks(structure):
    """Each check over frames, as (frames) -> CheckReport."""
    an = pc.analysis
    return {
        "axioms": an.check_axioms,
        "classify": an.classify,
        "space_form": an.space_form_fit,
        "eta_einstein": an.eta_einstein_fit,
        "bochner": an.bochner_symmetries,
        "identities": lambda frames: an.identity_suite(
            frames, an.space_form_fit(frames).constants["k_hat"],
            sampler=pc.Sampler(structure, 5), sections=4),
        "parallel": parallel_check,
    }


@pytest.mark.parametrize("structure", BATCH_STRUCTURES)
def test_every_check_gives_a_batch_frame_the_residuals_of_its_points(structure):
    points = sample_points(structure, count=3)
    batch = [PointGeometry(structure.at(points, 3), points)]
    singles = [get_frame(structure, p, 3) for p in points]
    for name, check in frame_checks(structure).items():
        assert residuals(check(batch)) == residuals(check(singles)), name


def f21_by_einsum(f):
    """f21_rhs with each product of three or four factors as one einsum,
    the reference for its matmul-then-outer-product form."""
    npl, nxi, neta = f.nabla_phi.value, f.nabla_xi.value, f.nabla_eta.value
    eta, xi, phl, ph = f.eta.value, f.xi.value, f.phi_low.value, f.phi.value
    r = f.riem_up.value
    e = point_einsum  # np.einsum for three or more operands
    out = tail_transpose(r, 1, 2, 3, 0)
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
    return tail_transpose(out, 3, 0, 1, 2)


# heisenberg(2), hyperboloid(2) and its D-homothety alpha = 2
@pytest.mark.parametrize("structure", BATCH_STRUCTURES[:3])
def test_f21_rhs_matches_its_einsum_form(structure):
    points = sample_points(structure, seed=67, count=4)
    frame = PointGeometry(structure.at(points, 2), points)
    assert max(nres(frame.f21_rhs, f21_by_einsum(frame))) < 1e-13


# every quantity the readers of one drawn vector take from a point view
VIEWED = ("g", "phi", "xi", "eta", "phi_low", "gamma", "riem_down", "ricci",
          "scalar", "ricci_tilde", "scalar_tilde", "riem_tilde_down")


@pytest.mark.parametrize("structure", BATCH_STRUCTURES)
def test_a_point_view_reads_the_frame_values_at_its_point(structure):
    points = sample_points(structure, count=3)
    frame = PointGeometry(structure.at(points, 2), points)
    for i in range(len(points)):
        view = frame.view(i)
        pairs = [(getattr(view, name), getattr(frame, name).value[i])
                 for name in VIEWED]
        pairs += zip(view.bochner, (x[i] for x in frame.bochner), strict=True)
        for got, want in pairs:
            got = np.asarray(got)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


# (checks, (point limit, jet order) of each leading segment in point order,
# whether axioms reads the points past the last limit)
SEGMENTS = [
    ("all", [(5, 3), (10, 2), (25, 1)], True),
    # the fit reads the 10 points of the space_form row
    (["wpc", "space_form"], [(5, 2), (10, 2)], False),
    (["classification", "parallel"], [(5, 3), (25, 1)], False),
    (["axioms"], [], True),
]


@pytest.mark.parametrize("count", [3, 7, 30, 200])
@pytest.mark.parametrize("checks, segments, tail", SEGMENTS,
                         ids=["all", "wpc_space_form", "classification_parallel",
                              "axioms"])
def test_run_checks_builds_one_frame_per_point_limit_segment(monkeypatch, checks,
                                                             segments, tail,
                                                             count):
    built = []
    init = PointGeometry.__init__

    def recording_init(self, jets, points):
        built.append((jets.g.order, len(points)))
        init(self, jets, points)

    monkeypatch.setattr(PointGeometry, "__init__", recording_init)
    manifest = dict(ALL_CHECKS_MANIFEST, sampling={"seed": 2, "count": count},
                    checks=checks)
    run_checks(pc.builtin_heisenberg(1), manifest)
    want, start = [], 0
    for limit, order in segments:
        if min(limit, count) > start:
            want.append((order, min(limit, count) - start))
            start = min(limit, count)
    if tail:
        want += [(1, min(BATCH, count - i)) for i in range(start, count, BATCH)]
    assert built == want


@pytest.mark.parametrize("count", [200, 3])
def test_run_checks_builds_the_parallel_points_as_one_order_3_frame(monkeypatch,
                                                                     count):
    sizes = []
    init = PointGeometry.__init__

    def recording_init(self, jets, points):
        if jets.g.order == 3:
            sizes.append(len(points))
        init(self, jets, points)

    monkeypatch.setattr(PointGeometry, "__init__", recording_init)
    manifest = dict(ALL_CHECKS_MANIFEST, sampling={"seed": 2, "count": count})
    run_checks(pc.builtin_heisenberg(1), manifest)
    assert sizes == [min(count, 5)]


def test_torsion_is_kept_at_order_1(hyp2):
    f = sample_frames(hyp2, seed=49, count=1, order=3)[0]
    gt = f.gamma_tilde
    assert gt.order == 2 and f.torsion_up.order == 1
    want = gt - gt.tb((0, 2, 1))
    for got, x in zip(f.torsion_up.parts, want.parts[:2], strict=True):
        assert got.shape == x.shape and got.tobytes() == x.tobytes()


@pytest.mark.parametrize("builtin", ["heisenberg", "hyperboloid"])
def test_run_checks_gives_the_same_report_one_point_per_frame(monkeypatch, builtin):
    # 70 points: order-1 frames of 64 points leave a ragged last frame
    manifest = dict(ALL_CHECKS_MANIFEST, sampling={"seed": 4, "count": 70},
                    manifold={"kind": "builtin", "name": builtin, "n": 1})

    def report():
        structure = build_structure(manifest)
        document = assemble_report(structure, "", *run_checks(
            structure, manifest), wall_time_s=0.0)
        return dumps_report(document)

    batched = report()
    monkeypatch.setattr("paracurv.manifest.BATCH", 1)
    assert report() == batched
