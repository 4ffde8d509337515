"""Classification, curvature fits, Bochner tensor and the identity suite."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paracurv as pc
from paracurv.analysis import (
    Draws,
    _project,
    bochner_pairing,
    bochner_symmetries,
    classify,
    eta_einstein_fit,
    identity_suite,
    pc_bochner,
    phsc,
    space_form_fit,
    wpc,
    xi_sectional,
)
from paracurv.connection import PointGeometry, get_frame
from paracurv.errors import (
    IsotropicSection,
    IsotropicVector,
    NotHorizontal,
)
from paracurv.exprlang import parse
from paracurv.geometry import (
    CharteredStructure,
    Domain,
    ExprTableComponents,
    heisenberg_tables,
)
from paracurv.manifest import build_structure, run_checks
from paracurv.report import CheckReport, nres

from conftest import frames_at, max_residual, sample_frames, sample_points


def perturbed_phi_structure(n=1, epsilon=1e-2):
    """Heisenberg tables with one phi component nudged; g left alone."""
    coords, g, phi, xi, eta = heisenberg_tables(n)
    phi = [row[:] for row in phi]
    phi[0][1] = f"({phi[0][1]})+{epsilon!r}"
    table = lambda rows: [[parse(s, coords) for s in row] for row in rows]
    comps = ExprTableComponents(table(g), table(phi), *table([xi, eta]))
    return CharteredStructure(
        n, coords, comps, Domain.cube(2 * n + 1, 10.0), name="perturbed"
    )


def test_classify_builtins(heis1, hyp1):
    for s in (heis1, hyp1):
        report = classify(sample_frames(s, seed=51, count=6))
        assert report.verdicts == {
            "paracontact_metric": True,
            "paraSasakian": True,
            "para_CR": True,
        }
        assert report.passed
        assert max_residual(report) < 1e-12


def test_check_report_rows_keep_their_maximum():
    inf, nan = float("inf"), float("nan")
    report = CheckReport()
    for name, residual in [("b", 1e-12), ("a", 3e-12), ("b", 5e-12),
                           ("a", 2e-12), ("inf", inf), ("inf", 1.0),
                           ("nan", nan), ("nan", 1.0), ("late", 1.0),
                           ("late", nan), ("late", 2.0)]:
        report.add(name, residual, 1e-9)
    rows = report.rows
    assert list(rows) == ["b", "a", "inf", "nan", "late"]  # first-add order
    assert rows["b"].residual == 5e-12 and rows["a"].residual == 3e-12
    assert rows["inf"].residual == inf
    assert np.isnan(rows["nan"].residual) and np.isnan(rows["late"].residual)
    assert not any(rows[k].passed for k in ("inf", "nan", "late"))
    other = CheckReport(constants={"k_hat": 3.0})
    other.add("c", 1e-15, 1e-9)
    other.add("a", 4e-12, 1e-9)
    other.add("b", 1e-15, 1e-9)
    report.extend(other)
    assert list(rows) == ["b", "a", "inf", "nan", "late", "c"]
    assert rows["a"].residual == 4e-12 and rows["b"].residual == 5e-12
    assert report.constants == {"k_hat": 3.0}


def test_nres_keeps_the_point_axis():
    inf = float("inf")
    lhs = np.array([[1.0, -3.0], [0.5, 0.0], [inf, 0.0], [np.nan, 1.0]])
    got = nres(lhs, np.array([1.0, -1.0]))
    assert got.tolist() == [2.0 / 5.0, 1.0 / 2.5, inf, inf]
    # point by point, it is the residual of that point alone
    for i, row in enumerate(lhs[:2]):
        assert got[i] == nres(row[None], [1.0, -1.0])[0]
    assert nres(np.zeros((3, 0))).tolist() == [0.0, 0.0, 0.0]
    # a vector holds one number per point; a 0-d input gives one float
    assert nres(np.array([2.0, -2.0]), 2.0).tolist() == [0.0, 4.0 / 5.0]
    one = nres(-2.0, 2.0)
    assert type(one) is float and one == 4.0 / 5.0


def test_nres_of_one_operand_is_bitwise_that_against_zeros():
    inf, nan = float("inf"), float("nan")
    values = [nan, inf, -inf, -0.0, 0.0, 1.5, -2.5e300]
    for x in values:  # 0-d
        got, want = nres(x), nres(x, 0.0)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    stacks = [np.array(values),  # one number per point
              np.array([[[-0.0, 0.0], [-0.0, -0.0]], [[1.0, nan], [-inf, 2.0]],
                        [[inf, -3.0], [0.5, -0.0]], [[-1e-300, 4.0], [-5.0, 0.0]]])]
    for x in stacks:
        got, want = nres(x), nres(x, np.zeros_like(x))
        assert got.shape == want.shape == x.shape[:1]
        assert got.tobytes() == want.tobytes()


def test_check_report_folds_a_vector_in_point_order():
    inf, nan = float("inf"), float("nan")
    report = CheckReport()
    report.add("max", np.array([1e-12, 4e-12, 2e-12]), 1e-9)
    report.add("max", np.array([3e-12]), 1e-9)
    report.add("first_bad", np.array([1e-12, nan, inf, 5.0]), 1e-9)
    report.add("first_bad", np.array([1.0]), 1e-9)
    report.add("inf_first", np.array([inf, nan]), 1e-9)
    report.add("late", 1e-12, 1e-9)
    report.add("late", np.array([2e-12, inf, nan]), 1e-9)
    rows = report.rows
    assert list(rows) == ["max", "first_bad", "inf_first", "late"]
    assert rows["max"].residual == 4e-12
    assert np.isnan(rows["first_bad"].residual)
    assert rows["inf_first"].residual == inf and rows["late"].residual == inf
    # the same as adding the values one at a time
    single = CheckReport()
    for name, values in [("first_bad", [1e-12, nan, inf, 5.0, 1.0]),
                         ("late", [1e-12, 2e-12, inf, nan])]:
        for v in values:
            single.add(name, v, 1e-9)
        assert str(single.rows[name].residual) == str(rows[name].residual)


def test_run_checks_reports_each_row_once():
    manifest = {
        "schema": "paracurv-manifest/1",
        "manifold": {"kind": "builtin", "name": "heisenberg", "n": 1},
        "sampling": {"seed": 53, "count": 30},
    }
    structure = pc.builtin_heisenberg(1)

    def names(checks):
        report, _ = run_checks(structure, dict(manifest, checks=checks))
        return list(report.rows)

    both = names(["axioms", "classification"])
    assert len(both) == len(set(both))
    # classification alone reports the axiom rows, ahead of its own
    axioms = names(["axioms"])
    assert both[: len(axioms)] == axioms
    assert names(["classification"]) == both


def test_k_hat_comes_from_the_one_fit_of_the_run(monkeypatch):
    fits = []
    fit = space_form_fit

    def counted(*args, **kwargs):
        fits.append(1)
        return fit(*args, **kwargs)

    monkeypatch.setattr("paracurv.manifest.space_form_fit", counted)
    monkeypatch.setattr("paracurv.analysis.space_form_fit", counted)
    k_hat = {}
    for checks in (["space_form"], ["identities"], ["space_form", "identities"],
                   "all"):
        manifest = {
            "schema": "paracurv-manifest/1",
            "manifold": {"kind": "builtin", "name": "hyperboloid", "n": 3},
            "transform": {"alpha": 2.0},
            "sampling": {"seed": 1, "count": 30},
            "checks": checks,
        }
        fits.clear()
        structure = build_structure(manifest)
        report, _ = run_checks(structure, manifest)
        assert len(fits) == 1
        k_hat[str(checks)] = report.constants["k_hat"]
    # the fit reads the space_form row's 10 points, whichever check asks
    # first; a fit on the 5 identity frames gave 0.9999999999999996 once
    points = sample_points(structure, seed=1, count=30)[:10]
    want = fit(frames_at(structure, points)).constants["k_hat"]
    assert set(k_hat.values()) == {want}
    assert want == pytest.approx(1.0, abs=1e-12)


def test_perturbed_phi_is_not_parasasakian():
    bad = perturbed_phi_structure()
    report = classify(sample_frames(bad, seed=55, count=6))
    assert not report.verdicts["paraSasakian"]
    failing = {r.name for r in report.rows.values() if not r.passed}
    assert failing  # the residual rows name the broken criteria


def test_xi_sectional_constant(heis1, hyp2):
    for s in (heis1, hyp2):
        sampler = pc.Sampler(s, seed=57)
        f = get_frame(s, sampler.point(), 2).view(0)
        for _ in range(10):
            u = sampler.horizontal_unit(f.g, f.xi, f.eta)
            assert xi_sectional(f, u) == pytest.approx(-1.0, abs=1e-10)


def test_xi_sectional_rejects_null_vectors(heis1):
    f = get_frame(heis1, np.zeros(3), 2).view(0)
    null = np.array([1.0, 1.0, 0.0])  # g(u,u) = 1 - 1 = 0 at the origin
    with pytest.raises(IsotropicVector):
        xi_sectional(f, null)
    # one null vector in a stack is enough
    with pytest.raises(IsotropicVector, match="g\\(u,u\\) = 0 "):
        xi_sectional(f, np.stack([np.array([1.0, 0.0, 0.0]), null]))


def test_phsc_rejects_degenerate_sections(heis1):
    f = get_frame(heis1, np.zeros(3), 2).view(0)
    v = np.array([1.0, 1.0, 0.0])  # phi v is null at the origin
    with pytest.raises(IsotropicSection):
        phsc(f, v)
    with pytest.raises(IsotropicSection):
        phsc(f, np.stack([np.array([1.0, 0.0, 0.0]), v]))
    with pytest.raises(ValueError):
        phsc(f, np.array([1.0, 0.0, 0.0]), form="f99")


def test_phsc_forms_agree(heis2):
    sampler = pc.Sampler(heis2, seed=59)
    f = get_frame(heis2, sampler.point(), 2).view(0)
    for _ in range(10):
        v = sampler.section_vector(f.g, f.phi)
        k8 = phsc(f, v, "f8")
        k9 = phsc(f, v, "f9")
        assert k8 == pytest.approx(3.0, abs=1e-10)
        assert k9 == pytest.approx(k8, abs=1e-10)


def f9_by_einsum(f, v):
    """phsc's f9 form as one O(d^6) tensor contracted with v four times,
    the reference for the chain of vector products in ``phsc``."""
    g, ph, eta = f.g, f.phi, f.eta
    gh = g - np.outer(eta, eta)
    core = np.einsum("dk,bi,djhb->kjhi", ph, ph, f.riem_down) - np.einsum(
        "j,h,ki->kjhi", eta, eta, gh)
    num = np.einsum("kjhi,k,j,h,i->", core, v, v, v, v)
    return float(-num / (v @ gh @ v) ** 2)


def test_f9_matches_its_einsum_form(heis2, hyp2):
    hyp2_alpha2 = pc.d_homothetic(hyp2, 2.0)
    for s in (heis2, hyp2, hyp2_alpha2):
        sampler = pc.Sampler(s, seed=63)
        for frame in sample_frames(s, seed=63, count=4):
            f = frame.view(0)
            for _ in range(25):
                v = sampler.section_vector(f.g, f.phi)
                want = f9_by_einsum(f, v)
                # both forms lose accuracy like 1/g_h(v, v)^2, measured
                # against the Euclidean |v|^2
                ev = f.eta @ v
                cond = max(1.0, (v @ v / abs(v @ f.g @ v - ev * ev)) ** 2)
                assert abs(phsc(f, v, "f9") - want) <= 1e-12 * abs(want) * cond


def test_f9_of_an_overflowed_curvature_is_non_finite():
    # the heisenberg(1) tables with g scaled by 1e160: the jets are finite,
    # and g_h(v, v)^2 overflows
    coords, g, phi, xi, eta = heisenberg_tables(1)
    g = [[f"1e160*({s})" for s in row] for row in g]
    structure = build_structure({"manifold": {
        "kind": "custom", "coords": coords, "g": g, "phi": phi, "xi": xi,
        "eta": eta}})
    f = get_frame(structure, np.array([0.1, 0.2, 0.3]), 2).view(0)
    v = pc.Sampler(structure, seed=65).section_vector(f.g, f.phi)
    with np.errstate(all="ignore"):  # as run_checks calls it
        k = phsc(f, v, "f9")
    assert isinstance(k, float) and not np.isfinite(k)


def test_space_form_fit(heis2, hyp2):
    for s, k_want in ((heis2, 3.0), (hyp2, -1.0)):
        report = space_form_fit(sample_frames(s, seed=61, count=5))
        assert list(report.constants) == ["k_hat"]
        assert report.constants["k_hat"] == pytest.approx(k_want, abs=1e-10)
        for name in ("space_form_f20", "space_form_f12", "space_form_f13",
                     "space_form_f36"):
            assert report.rows[name].residual < 1e-12


def test_eta_einstein_fit_closed_forms(heis1):
    # n = 1: s = 2, so a = s/2n + 1 = 2 and b = -s/2n - 3 = -4
    frames = sample_frames(heis1, seed=63, count=5)
    report = eta_einstein_fit(frames)
    a, b = report.constants["a"], report.constants["b"]
    assert a == pytest.approx(2.0, abs=1e-10)
    assert b == pytest.approx(-4.0, abs=1e-10)
    assert report.rows["eta_einstein_fit"].residual < 1e-12
    assert report.rows["eta_einstein_sum"].residual < 1e-12
    for f in frames:
        s = float(f.view(0).scalar)
        assert nres(a, s / 2 + 1.0) < 1e-12
        assert nres(b, -s / 2 - 3.0) < 1e-12


def test_bochner_constant_and_vanishing(heis1, hyp2):
    # kappa_B = -(s - 2n)/(2n + 2): 0 for the Heisenberg model (s = 2n),
    # 4 for the hyperboloid at n = 2 (s = -20)
    b, kappa_b = pc_bochner(sample_frames(heis1, seed=65, count=1)[0].view(0))
    assert kappa_b == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(b)) < 1e-12
    b2, kappa_b2 = pc_bochner(sample_frames(hyp2, seed=65, count=1)[0].view(0))
    assert kappa_b2 == pytest.approx(4.0, abs=1e-10)
    assert np.max(np.abs(b2)) < 1e-12


def test_bochner_symmetries_hold_on_deformed_input(hyp1):
    # exercise the symmetry rows on a homothetic deformation as well as on
    # the unit models the other tests cover
    bar = pc.d_homothetic(hyp1, 3.0)
    report = bochner_symmetries(sample_frames(bar, seed=67, count=3))
    assert report.passed
    names = set(report.rows)
    assert "bochner_bianchi" in names and "bochner_phi_swap" in names


def fibred_parasasakian(lams):
    """A paraSasakian chart fibred over a product of para-Kaehler surfaces.

    Factor k has metric lam_k(u_k) (du_k^2 - dv_k^2); eta = dt - 2 sum
    v_k lam_k du_k, so d eta is twice the base Kaehler form, xi = d_t and
    phi swaps the horizontal lifts of d_u and d_v.  Unequal curvatures of
    the factors make the PC-Bochner tensor non-zero.
    """
    n = len(lams)
    coords = [f"u{k}" for k in range(1, n + 1)] + [
        f"v{k}" for k in range(1, n + 1)
    ] + ["t"]
    d = 2 * n + 1
    eta = [f"-2*v{k + 1}*({lam})" for k, lam in enumerate(lams)]
    eta += ["0"] * n + ["1"]
    xi = ["0"] * (d - 1) + ["1"]
    phi = [["0"] * d for _ in range(d)]
    base = [["0"] * d for _ in range(d)]
    for k, lam in enumerate(lams):
        u, v = k, n + k
        phi[v][u] = phi[u][v] = "1"  # phi d_u = d_v, phi d_v = d_u - eta_u d_t
        phi[d - 1][v] = f"-({eta[u]})"
        base[u][u], base[v][v] = f"({lam})", f"-({lam})"
    g = [[f"({eta[i]})*({eta[j]})+{base[i][j]}" for j in range(d)]
         for i in range(d)]
    table = lambda rows: [[parse(t, coords) for t in row] for row in rows]
    comps = ExprTableComponents(table(g), table(phi), *table([xi, eta]))
    return CharteredStructure(n, coords, comps, Domain.cube(d, 1.0),
                              name="fibred")


def test_d_homothety_scales_bochner_and_k_hat(hyp1):
    # B-bar = alpha B on a space form (B = 0) and on a chart where B does
    # not vanish; k-hat maps to (k-hat - 3)/alpha + 3; no verdict moves
    fibred = fibred_parasasakian(["1", "exp(u2^2)"])
    for s in (hyp1, fibred):
        points = sample_points(s, seed=69, count=3)
        frames = frames_at(s, points)
        b = np.array([f.view(0).bochner[0] for f in frames])
        k_hat = space_form_fit(frames).constants["k_hat"]
        verdicts = classify(frames).verdicts
        for alpha in (0.5, 2.0):
            bar = frames_at(pc.d_homothetic(s, alpha), points)
            assert max(nres([f.view(0).bochner[0] for f in bar], alpha * b)) < 1e-12
            assert classify(bar).verdicts == verdicts
            if s is hyp1:
                k_bar = space_form_fit(bar).constants["k_hat"]
                assert k_bar == pytest.approx((k_hat - 3.0) / alpha + 3.0,
                                              abs=1e-10)
    assert np.max(np.abs(b)) > 0.1  # the fibred chart's B
    assert all(verdicts.values())


def linear_chart_change(tables, a):
    """Expression tables in coordinates y with x = a y, for an integer a
    with an integer inverse: every function is composed with y -> a y, g
    and eta are pulled back, phi and xi pushed forward by a^-1."""
    coords, g, phi, xi, eta = tables
    d = len(coords)
    inv = np.rint(np.linalg.inv(a)).astype(int)
    assert np.array_equal(a @ inv, np.eye(d))
    ys = [f"y{i}" for i in range(d)]
    x_of_y = {c: "(" + "+".join(f"({int(k)})*{y}" for k, y in zip(row, ys) if k)
              + ")" for c, row in zip(coords, a)}

    def sub(text):
        return "(" + re.sub(r"[A-Za-z_]\w*",
                            lambda m: x_of_y.get(m[0], m[0]), text) + ")"

    def combine(terms):
        return "+".join(f"({int(k)})*{sub(t)}" for k, t in terms if k) or "0"

    r = range(d)
    return (
        ys,
        [[combine([(a[i, p] * a[j, q], g[i][j]) for i in r for j in r])
          for q in r] for p in r],
        [[combine([(inv[p, i] * a[j, q], phi[i][j]) for i in r for j in r])
          for q in r] for p in r],
        [combine([(inv[p, i], xi[i]) for i in r]) for p in r],
        [combine([(a[i, p], eta[i]) for i in r]) for p in r],
    )


@st.composite
def unimodular(draw, d):
    """A permutation times integer shears: integer, with integer inverse."""
    a = np.eye(d, dtype=int)[draw(st.permutations(range(d)))]
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2,
                             unique=True))
        a[:, j] += draw(st.sampled_from([-2, -1, 1, 2])) * a[:, i]
    return a


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=3, deadline=None, derandomize=True)
@given(data=st.data())
def test_linear_chart_change_keeps_verdicts_and_constants(n, data):
    # a metamorphic relation: the same structure in other coordinates
    a = data.draw(unimodular(2 * n + 1))
    runs = []
    for coords, g, phi, xi, eta in (heisenberg_tables(n), linear_chart_change(
            heisenberg_tables(n), a)):
        manifest = {
            "schema": "paracurv-manifest/1",
            # the sampler keeps to [-0.8, 0.8]; x = a y may leave it
            "manifold": {"kind": "custom", "coords": coords, "g": g,
                         "phi": phi, "xi": xi, "eta": eta,
                         "box": [[-100, 100]] * len(coords)},
            "sampling": {"seed": 5, "count": 30},
            "checks": "all",
        }
        structure = build_structure(manifest)
        report, _ = run_checks(structure, manifest)
        runs.append((structure, report.constants, report.verdicts))
    (x_chart, consts, verdicts), (y_chart, consts_y, verdicts_y) = runs
    assert verdicts_y == verdicts and all(verdicts.values())
    assert sorted(consts_y) == sorted(consts) == ["a", "b", "k_hat", "kappa_B"]
    for key in consts:
        assert consts_y[key] == pytest.approx(consts[key], abs=1e-9)
    for y in sample_points(y_chart, seed=5, count=3):
        s_y = get_frame(y_chart, y, 2).view(0).scalar
        s_x = get_frame(x_chart, a @ y, 2).view(0).scalar
        assert s_y == pytest.approx(s_x, abs=1e-9)


def test_wpc_requires_horizontal_arguments(heis1):
    f = sample_frames(heis1, seed=71, count=1)[0].view(0)
    sampler = pc.Sampler(heis1, seed=71)
    u = sampler.horizontal_unit(f.g, f.xi, f.eta)
    with pytest.raises(NotHorizontal):
        wpc(f, f.xi, u, u, u)
    with pytest.raises(NotHorizontal, match="eta\\(v\\) = 1 "):
        wpc(f, u, np.stack([u, f.xi]), u, u)


def test_wpc_equals_bochner_pairing(hyp1):
    sampler = pc.Sampler(hyp1, seed=73)
    f = get_frame(hyp1, sampler.point(), 2).view(0)
    for _ in range(10):
        quad = [sampler.horizontal_unit(f.g, f.xi, f.eta) for _ in range(4)]
        b = bochner_pairing(f, *quad)
        w = wpc(f, *quad)
        assert w == pytest.approx(b, abs=1e-10)


def test_stacked_draws_have_the_bits_of_single_draws(hyp2):
    # a batch frame of two points and a frame of one; 11 draws leave the
    # third point one draw short
    points = pc.Sampler(hyp2, seed=77).points(3)
    frames = [PointGeometry(hyp2.at(points[:2], 2), points[:2]),
              get_frame(hyp2, points[2], 2)]
    views = [frames[0].view(0), frames[0].view(1), frames[1].view(0)]
    draws = Draws(frames, 11)
    at = [views[i % 3] for i in range(11)]
    sampler = pc.Sampler(hyp2, seed=78)
    u = sampler.horizontal_unit(*draws.values("g", "xi", "eta"))
    v = sampler.section_vector(*draws.values("g", "phi"))
    quad = sampler.horizontal_unit(*(np.repeat(x[:, None], 4, axis=1)
                                     for x in draws.values("g", "xi", "eta")))
    quad = quad.transpose(1, 0, 2)
    cases = [(xi_sectional, [u]), (phsc, [v]),
             (lambda f, v: phsc(f, v, "f9"), [v]),
             (wpc, quad), (bochner_pairing, quad)]
    for fn, vectors in cases:
        one = np.array([fn(f, *(x[i] for x in vectors)) for i, f in enumerate(at)])
        assert draws.map(fn, *vectors).tobytes() == one.tobytes()
    # a draw left out reads nan; the others keep their values
    keep = np.arange(11) % 4 != 1
    got = draws.map(xi_sectional, u, where=keep)
    want = np.array([xi_sectional(f, u[i]) for i, f in enumerate(at)])
    assert got[keep].tobytes() == want[keep].tobytes()
    assert np.isnan(got[~keep]).all()


def test_identity_suite_on_heisenberg(heis1):
    sampler = pc.Sampler(heis1, seed=75)
    frames = frames_at(heis1, sampler.points(3), 3)
    k_hat = space_form_fit(frames).constants["k_hat"]
    report = identity_suite(frames, k_hat, sampler=sampler, sections=10)
    assert report.passed
    assert max_residual(report) < 1e-10
    names = set(report.rows)
    for expected in ("f1_eta", "f5", "f21", "f22", "f50", "f54",
                     "f56_scalar", "f9_vs_f8_phsc", "tprtw"):
        assert expected in names
    assert report.constants["k_hat"] == pytest.approx(3.0, abs=1e-10)


def test_identity_suite_without_sampler(hyp1):
    frames = sample_frames(hyp1, seed=77, count=2, order=3)
    report = identity_suite(frames, space_form_fit(frames).constants["k_hat"])
    assert report.passed
    assert "f9_vs_f8_phsc" not in report.rows
    assert report.constants["k_hat"] == pytest.approx(-1.0, abs=1e-10)


@pytest.mark.parametrize("d", [3, 5, 9])
def test_slotwise_projection_matches_one_shot_einsum(d):
    rng = np.random.default_rng(d)
    t = rng.standard_normal((d,) * 4)
    xi, eta = rng.standard_normal(d), rng.standard_normal(d)
    proj = np.eye(d) - np.outer(xi, eta)
    one_shot = np.einsum("ai,bj,ck,dl,abcd->ijkl", proj, proj, proj, proj, t)
    assert nres(_project(t[None], proj[None]), one_shot[None])[0] < 1e-13


def project_per_point(t, proj):
    """f55's projection as one np.tensordot per slot at each point, the
    reference for the batched form."""
    out = []
    for x, p in zip(t, proj, strict=True):
        for _ in range(x.ndim):
            x = np.tensordot(x, p, axes=([0], [0]))
        out.append(x)
    return np.stack(out)


@pytest.mark.parametrize("points", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("d", [3, 5, 9])
def test_batched_projection_has_the_bits_of_per_point_tensordots(points, d):
    rng = np.random.default_rng(10 * d + points)
    t = rng.standard_normal((points,) + (d,) * 4)
    proj = rng.standard_normal((points, d, d))
    got, want = _project(t, proj), project_per_point(t, proj)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_nres_is_inf_on_non_finite_input():
    inf = float("inf")
    assert nres([[0.0, float("nan")]]).tolist() == [inf]
    assert nres(1.0, inf) == inf
    assert nres(float("nan")) == inf
    assert nres(1.0, 1.0) == 0.0
