"""Classification, curvature fits, Bochner tensor and the identity suite."""

import numpy as np
import pytest

import paracurv as pc
from paracurv.analysis import (
    _project,
    bochner_homothety_check,
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

from conftest import sample_points


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
        result = classify(s, sample_points(s, seed=51, count=6))
        assert result.verdicts == {
            "paracontact_metric": True,
            "paraSasakian": True,
            "para_CR": True,
        }
        assert result.report.passed
        assert result.report.max_residual() < 1e-12


def test_classify_include_axioms_flag(heis1):
    points = sample_points(heis1, seed=53, count=3)
    with_ax = classify(heis1, points, include_axioms=True)
    without = classify(heis1, points, include_axioms=False)
    names_with = {r.name for r in with_ax.report.results}
    names_without = {r.name for r in without.report.results}
    assert "axiom_iv_deta" in names_with
    assert "axiom_iv_deta" not in names_without
    assert "sasakian_nijenhuis" in names_without
    assert with_ax.verdicts == without.verdicts


def test_perturbed_phi_is_not_parasasakian():
    bad = perturbed_phi_structure()
    result = classify(bad, sample_points(bad, seed=55, count=6))
    assert not result.verdicts["paraSasakian"]
    failing = {r.name for r in result.report.failing()}
    assert failing  # the residual rows name the broken criteria


def test_xi_sectional_constant(heis1, hyp2):
    for s in (heis1, hyp2):
        sampler = pc.Sampler(s, seed=57)
        p = sampler.point()
        for _ in range(10):
            u, _ = sampler.horizontal_unit(p)
            assert xi_sectional(s, p, u) == pytest.approx(-1.0, abs=1e-10)


def test_xi_sectional_rejects_null_vectors(heis1):
    p = np.zeros(3)
    null = np.array([1.0, 1.0, 0.0])  # g(u,u) = 1 - 1 = 0 at the origin
    with pytest.raises(IsotropicVector):
        xi_sectional(heis1, p, null)


def test_phsc_rejects_degenerate_sections(heis1):
    p = np.zeros(3)
    v = np.array([1.0, 1.0, 0.0])  # phi v is null at the origin
    with pytest.raises(IsotropicSection):
        phsc(heis1, p, v)
    with pytest.raises(ValueError):
        phsc(heis1, p, np.array([1.0, 0.0, 0.0]), form="f99")


def test_phsc_forms_agree(heis2):
    sampler = pc.Sampler(heis2, seed=59)
    p = sampler.point()
    for _ in range(10):
        v = sampler.section_vector(p)
        k8 = phsc(heis2, p, v, "f8")
        k9 = phsc(heis2, p, v, "f9")
        assert k8 == pytest.approx(3.0, abs=1e-10)
        assert k9 == pytest.approx(k8, abs=1e-10)


def test_space_form_fit(heis2, hyp2):
    for s, k_want in ((heis2, 3.0), (hyp2, -1.0)):
        fit = space_form_fit(s, sample_points(s, seed=61, count=5))
        assert fit.k_hat == pytest.approx(k_want, abs=1e-10)
        assert fit.residual_max < 1e-12
        assert fit.f12_residual < 1e-12
        assert fit.f13_residual < 1e-12
        assert fit.f36_residual < 1e-12


def test_eta_einstein_fit_closed_forms(heis1):
    # n = 1: s = 2, so a = s/2n + 1 = 2 and b = -s/2n - 3 = -4
    fit = eta_einstein_fit(heis1, sample_points(heis1, seed=63, count=5))
    assert fit.a == pytest.approx(2.0, abs=1e-10)
    assert fit.b == pytest.approx(-4.0, abs=1e-10)
    assert fit.residual_max < 1e-12
    assert fit.sum_residual < 1e-12
    assert fit.a_closed_residual < 1e-12
    assert fit.b_closed_residual < 1e-12


def test_bochner_constant_and_vanishing(heis1, hyp2):
    # kappa_B = -(s - 2n)/(2n + 2): 0 for the Heisenberg model (s = 2n),
    # 4 for the hyperboloid at n = 2 (s = -20)
    p = sample_points(heis1, seed=65, count=1)[0]
    data = pc_bochner(heis1, p)
    assert data.kappa_B == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(data.tensor.components)) < 1e-12
    q = sample_points(hyp2, seed=65, count=1)[0]
    data2 = pc_bochner(hyp2, q)
    assert data2.kappa_B == pytest.approx(4.0, abs=1e-10)
    assert np.max(np.abs(data2.tensor.components)) < 1e-12


def test_bochner_symmetries_hold_on_deformed_input(hyp1):
    # exercise the symmetry rows on a homothetic deformation as well as on
    # the unit models the other tests cover
    bar = pc.d_homothetic(hyp1, 3.0)
    report = bochner_symmetries(bar, sample_points(bar, seed=67, count=3))
    assert report.passed
    names = {r.name for r in report.results}
    assert "bochner_bianchi" in names and "bochner_phi_swap" in names


def test_bochner_homothety_invariance(hyp1):
    points = sample_points(hyp1, seed=69, count=3)
    for alpha in (0.5, 2.0):
        report = bochner_homothety_check(hyp1, alpha, points)
        assert report.passed
        assert report.max_residual() < 1e-10


def test_wpc_requires_horizontal_arguments(heis1):
    p = sample_points(heis1, seed=71, count=1)[0]
    xi = heis1.at(p, order=0).xi.value
    sampler = pc.Sampler(heis1, seed=71)
    u, _ = sampler.horizontal_unit(p)
    with pytest.raises(NotHorizontal):
        wpc(heis1, p, xi, u, u, u)


def test_wpc_equals_bochner_pairing(hyp1):
    sampler = pc.Sampler(hyp1, seed=73)
    p = sampler.point()
    for _ in range(10):
        quad = [sampler.horizontal_unit(p)[0] for _ in range(4)]
        b = bochner_pairing(hyp1, p, *quad)
        w = wpc(hyp1, p, *quad)
        assert w == pytest.approx(b, abs=1e-10)


def test_identity_suite_on_heisenberg(heis1):
    sampler = pc.Sampler(heis1, seed=75)
    points = sampler.points(3)
    report = identity_suite(heis1, points, sampler=sampler, sections=10)
    assert report.passed
    assert report.max_residual() < 1e-10
    names = {r.name for r in report.results}
    for expected in ("f1_eta", "f5", "f21", "f22", "f50", "f54",
                     "f56_scalar", "f9_vs_f8_phsc", "tprtw"):
        assert expected in names
    assert report.constants["k_hat"] == pytest.approx(3.0, abs=1e-10)


def test_identity_suite_without_sampler(hyp1):
    points = sample_points(hyp1, seed=77, count=2)
    report = identity_suite(hyp1, points)
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
