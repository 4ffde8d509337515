"""Classification, curvature fits, Bochner tensor and the identity suite."""

import numpy as np
import pytest

import paracurv as pc
from paracurv.analysis import (
    _bochner,
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
from paracurv.connection import get_frame
from paracurv.errors import (
    IsotropicSection,
    IsotropicVector,
    NotHorizontal,
)
from paracurv.exprlang import ScalarField
from paracurv.geometry import (
    CharteredStructure,
    Domain,
    ExprTableComponents,
    heisenberg_tables,
)
from paracurv.report import nres

from conftest import frames_at, max_residual, sample_frames, sample_points


def perturbed_phi_structure(n=1, epsilon=1e-2):
    """Heisenberg tables with one phi component nudged; g left alone."""
    coords, g, phi, xi, eta = heisenberg_tables(n)
    phi = [row[:] for row in phi]
    phi[0][1] = f"({phi[0][1]})+{epsilon!r}"
    table = lambda rows: [
        [ScalarField.from_expr(s, coords) for s in row] for row in rows
    ]
    comps = ExprTableComponents(
        table(g),
        table(phi),
        [ScalarField.from_expr(s, coords) for s in xi],
        [ScalarField.from_expr(s, coords) for s in eta],
    )
    return CharteredStructure(
        n, coords, comps, Domain.cube(2 * n + 1, 10.0), name="perturbed"
    )


def test_classify_builtins(heis1, hyp1):
    for s in (heis1, hyp1):
        result = classify(sample_frames(s, seed=51, count=6))
        assert result.verdicts == {
            "paracontact_metric": True,
            "paraSasakian": True,
            "para_CR": True,
        }
        assert result.report.passed
        assert max_residual(result.report) < 1e-12


def test_classify_include_axioms_flag(heis1):
    frames = sample_frames(heis1, seed=53, count=3)
    with_ax = classify(frames, include_axioms=True)
    without = classify(frames, include_axioms=False)
    names_with = {r.name for r in with_ax.report.results}
    names_without = {r.name for r in without.report.results}
    assert "axiom_iv_deta" in names_with
    assert "axiom_iv_deta" not in names_without
    assert "sasakian_nijenhuis" in names_without
    assert with_ax.verdicts == without.verdicts


def test_perturbed_phi_is_not_parasasakian():
    bad = perturbed_phi_structure()
    result = classify(sample_frames(bad, seed=55, count=6))
    assert not result.verdicts["paraSasakian"]
    failing = {r.name for r in result.report.results if not r.passed}
    assert failing  # the residual rows name the broken criteria


def test_xi_sectional_constant(heis1, hyp2):
    for s in (heis1, hyp2):
        sampler = pc.Sampler(s, seed=57)
        f = get_frame(s, sampler.point(), 2)
        for _ in range(10):
            u, _ = sampler.horizontal_unit(f)
            assert xi_sectional(f, u) == pytest.approx(-1.0, abs=1e-10)


def test_xi_sectional_rejects_null_vectors(heis1):
    f = get_frame(heis1, np.zeros(3), 2)
    null = np.array([1.0, 1.0, 0.0])  # g(u,u) = 1 - 1 = 0 at the origin
    with pytest.raises(IsotropicVector):
        xi_sectional(f, null)


def test_phsc_rejects_degenerate_sections(heis1):
    f = get_frame(heis1, np.zeros(3), 2)
    v = np.array([1.0, 1.0, 0.0])  # phi v is null at the origin
    with pytest.raises(IsotropicSection):
        phsc(f, v)
    with pytest.raises(ValueError):
        phsc(f, np.array([1.0, 0.0, 0.0]), form="f99")


def test_phsc_forms_agree(heis2):
    sampler = pc.Sampler(heis2, seed=59)
    f = get_frame(heis2, sampler.point(), 2)
    for _ in range(10):
        v = sampler.section_vector(f)
        k8 = phsc(f, v, "f8")
        k9 = phsc(f, v, "f9")
        assert k8 == pytest.approx(3.0, abs=1e-10)
        assert k9 == pytest.approx(k8, abs=1e-10)


def test_space_form_fit(heis2, hyp2):
    for s, k_want in ((heis2, 3.0), (hyp2, -1.0)):
        fit = space_form_fit(sample_frames(s, seed=61, count=5))
        assert fit.k_hat == pytest.approx(k_want, abs=1e-10)
        assert fit.residual_max < 1e-12
        assert fit.f12_residual < 1e-12
        assert fit.f13_residual < 1e-12
        assert fit.f36_residual < 1e-12


def test_eta_einstein_fit_closed_forms(heis1):
    # n = 1: s = 2, so a = s/2n + 1 = 2 and b = -s/2n - 3 = -4
    fit = eta_einstein_fit(sample_frames(heis1, seed=63, count=5))
    assert fit.a == pytest.approx(2.0, abs=1e-10)
    assert fit.b == pytest.approx(-4.0, abs=1e-10)
    assert fit.residual_max < 1e-12
    assert fit.sum_residual < 1e-12
    assert fit.a_closed_residual < 1e-12
    assert fit.b_closed_residual < 1e-12


def test_bochner_constant_and_vanishing(heis1, hyp2):
    # kappa_B = -(s - 2n)/(2n + 2): 0 for the Heisenberg model (s = 2n),
    # 4 for the hyperboloid at n = 2 (s = -20)
    data = pc_bochner(sample_frames(heis1, seed=65, count=1)[0])
    assert data.kappa_B == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(data.tensor)) < 1e-12
    data2 = pc_bochner(sample_frames(hyp2, seed=65, count=1)[0])
    assert data2.kappa_B == pytest.approx(4.0, abs=1e-10)
    assert np.max(np.abs(data2.tensor)) < 1e-12


def test_bochner_symmetries_hold_on_deformed_input(hyp1):
    # exercise the symmetry rows on a homothetic deformation as well as on
    # the unit models the other tests cover
    bar = pc.d_homothetic(hyp1, 3.0)
    report = bochner_symmetries(sample_frames(bar, seed=67, count=3))
    assert report.passed
    names = {r.name for r in report.results}
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
    field = lambda text: ScalarField.from_expr(text, coords)
    comps = ExprTableComponents(
        [[field(t) for t in row] for row in g],
        [[field(t) for t in row] for row in phi],
        [field(t) for t in xi],
        [field(t) for t in eta],
    )
    return CharteredStructure(n, coords, comps, Domain.cube(d, 1.0),
                              name="fibred")


def test_d_homothety_scales_bochner_and_k_hat(hyp1):
    # B-bar = alpha B on a space form (B = 0) and on a chart where B does
    # not vanish; k-hat maps to (k-hat - 3)/alpha + 3; no verdict moves
    fibred = fibred_parasasakian(["1", "exp(u2^2)"])
    for s in (hyp1, fibred):
        points = sample_points(s, seed=69, count=3)
        frames = frames_at(s, points)
        b = np.array([_bochner(f)[0] for f in frames])
        k_hat = space_form_fit(frames).k_hat
        verdicts = classify(frames).verdicts
        for alpha in (0.5, 2.0):
            bar = frames_at(pc.d_homothetic(s, alpha), points)
            assert nres([_bochner(f)[0] for f in bar], alpha * b) < 1e-12
            assert classify(bar).verdicts == verdicts
            if s is hyp1:
                k_bar = space_form_fit(bar).k_hat
                assert k_bar == pytest.approx((k_hat - 3.0) / alpha + 3.0,
                                              abs=1e-10)
    assert np.max(np.abs(b)) > 0.1  # the fibred chart's B
    assert all(verdicts.values())


def test_wpc_requires_horizontal_arguments(heis1):
    f = sample_frames(heis1, seed=71, count=1)[0]
    sampler = pc.Sampler(heis1, seed=71)
    u, _ = sampler.horizontal_unit(f)
    with pytest.raises(NotHorizontal):
        wpc(f, f.xi.value, u, u, u)


def test_wpc_equals_bochner_pairing(hyp1):
    sampler = pc.Sampler(hyp1, seed=73)
    f = get_frame(hyp1, sampler.point(), 2)
    for _ in range(10):
        quad = [sampler.horizontal_unit(f)[0] for _ in range(4)]
        b = bochner_pairing(f, *quad)
        w = wpc(f, *quad)
        assert w == pytest.approx(b, abs=1e-10)


def test_identity_suite_on_heisenberg(heis1):
    sampler = pc.Sampler(heis1, seed=75)
    frames = frames_at(heis1, sampler.points(3), 3)
    report = identity_suite(frames, sampler=sampler, sections=10)
    assert report.passed
    assert max_residual(report) < 1e-10
    names = {r.name for r in report.results}
    for expected in ("f1_eta", "f5", "f21", "f22", "f50", "f54",
                     "f56_scalar", "f9_vs_f8_phsc", "tprtw"):
        assert expected in names
    assert report.constants["k_hat"] == pytest.approx(3.0, abs=1e-10)


def test_identity_suite_without_sampler(hyp1):
    report = identity_suite(sample_frames(hyp1, seed=77, count=2, order=3))
    assert report.passed
    assert "f9_vs_f8_phsc" not in {r.name for r in report.results}
    assert report.constants["k_hat"] == pytest.approx(-1.0, abs=1e-10)


@pytest.mark.parametrize("d", [3, 5, 9])
def test_slotwise_projection_matches_one_shot_einsum(d):
    rng = np.random.default_rng(d)
    t = rng.standard_normal((d,) * 4)
    xi, eta = rng.standard_normal(d), rng.standard_normal(d)
    proj = np.eye(d) - np.outer(xi, eta)
    one_shot = np.einsum("ai,bj,ck,dl,abcd->ijkl", proj, proj, proj, proj, t)
    assert nres(_project(t, proj), one_shot) < 1e-13


def test_nres_is_inf_on_non_finite_input():
    assert nres([0.0, float("nan")]) == float("inf")
    assert nres([1.0], [float("inf")]) == float("inf")
    assert nres([1.0], [1.0]) == 0.0
