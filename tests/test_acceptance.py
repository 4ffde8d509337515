"""Acceptance gate: the thirteen verification criteria.

Each test prints one PASS/FAIL line (outside pytest capture so the lines
always appear in the run log) and then asserts.
"""

import json

import numpy as np
import pytest
from click.testing import CliRunner

import paracurv as pc
from paracurv.analysis import (
    _f20_blocks,
    bochner_pairing,
    bochner_symmetries,
    check_axioms,
    classify,
    eta_einstein_fit,
    identity_suite,
    pc_bochner,
    phsc,
    space_form_fit,
    wpc,
    xi_sectional,
)
from paracurv.cli import main
from paracurv.connection import get_frame, parallel_check
from paracurv.exprlang import eval_jet, parse
from paracurv.geometry import d_homothetic, heisenberg_tables
from paracurv.report import nres

from conftest import (
    CORPUS_COORDS,
    CORPUS_POINT,
    EXPRESSION_CORPUS,
    fd_gradient,
    fd_hessian,
    frames_at,
    max_residual,
)
from test_connection import f21_cross_check, fd_christoffel


@pytest.fixture()
def criterion(capsys):
    def emit(num, ok, text):
        line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {text}"
        with capsys.disabled():
            print(line)
        assert ok, line

    return emit


def test_criterion_01_axioms(criterion, all_builtins):
    worst = 0.0
    ok = True
    for structure in all_builtins.values():
        points = pc.Sampler(structure, seed=2024).points(200)
        report = check_axioms(frames_at(structure, points, 1), threshold=1e-9)
        ok = ok and report.passed
        worst = max(worst, max_residual(report))
    criterion(
        1, ok and worst < 1e-9,
        f"axioms at 200 points on 5 builtins, max residual {worst:.3e} < 1e-9",
    )


def test_criterion_02_parasasakian(criterion, heis2, hyp2):
    worst_main = worst_agree = worst_h = 0.0
    ok = True
    for structure in (heis2, hyp2):
        points = pc.Sampler(structure, seed=2025).points(25)
        report = classify(frames_at(structure, points), threshold=1e-9)
        ok = ok and report.verdicts["paraSasakian"] and report.passed
        rows = {k: r.residual for k, r in report.rows.items()}
        worst_main = max(
            worst_main, rows["sasakian_nijenhuis"], rows["sasakian_nabla_phi"]
        )
        worst_agree = max(worst_agree, rows["sasakian_agreement"])
        worst_h = max(worst_h, rows["h_vanishing"])
    ok = ok and worst_main < 1e-9 and worst_agree < 1e-10 and worst_h < 1e-10
    criterion(
        2, ok,
        "paraSasakian: Nijenhuis and nabla-phi criteria "
        f"{worst_main:.3e} < 1e-9, agreement {worst_agree:.3e} < 1e-10, "
        f"h {worst_h:.3e} < 1e-10",
    )


def test_criterion_03_xi_sectional(criterion, all_builtins):
    worst = 0.0
    for structure in all_builtins.values():
        sampler = pc.Sampler(structure, seed=2026)
        frames = frames_at(structure, sampler.points(5))
        for i in range(50):
            f = frames[i % len(frames)].view(0)
            u = sampler.horizontal_unit(f.g, f.xi, f.eta)
            worst = max(worst, abs(xi_sectional(f, u) + 1.0))
    criterion(
        3, worst < 1e-8,
        f"xi-sectional = -1 over 50 vectors per builtin, max dev {worst:.3e}",
    )


def _phsc_deviation(structure, k_expected, seed):
    sampler = pc.Sampler(structure, seed=seed)
    frames = frames_at(structure, sampler.points(5))
    worst = 0.0
    for i in range(50):
        f = frames[i % len(frames)].view(0)
        v = sampler.section_vector(f.g, f.phi)
        worst = max(worst, abs(phsc(f, v) - k_expected))
    return worst, frames


def test_criterion_04_heisenberg_phsc(criterion, heis2):
    dev, frames = _phsc_deviation(heis2, 3.0, seed=2027)
    fit = space_form_fit(frames)
    k_hat = fit.constants["k_hat"]
    model = fit.rows["space_form_f20"].residual
    ok = dev < 1e-8 and abs(k_hat - 3.0) < 1e-8 and model < 1e-8
    criterion(
        4, ok,
        f"Heisenberg phsc = 3 (max dev {dev:.3e}), k_hat = {k_hat:.12g}, "
        f"model residual {model:.3e} < 1e-8",
    )


def test_criterion_05_hyperboloid_phsc(criterion, hyp2):
    dev, frames = _phsc_deviation(hyp2, -1.0, seed=2028)
    fit = space_form_fit(frames)
    k_hat = fit.constants["k_hat"]
    model = fit.rows["space_form_f20"].residual
    ok = dev < 1e-8 and abs(k_hat + 1.0) < 1e-8 and model < 1e-8
    criterion(
        5, ok,
        f"hyperboloid n=2 phsc = -1 (max dev {dev:.3e}), "
        f"k_hat = {k_hat:.12g}, model residual {model:.3e}",
    )


def test_criterion_06_homothety_law(criterion, hyp2):
    ok = True
    details = []
    for alpha in (0.5, 2.0, 3.0):
        bar = d_homothetic(hyp2, alpha)
        frames = frames_at(bar, pc.Sampler(bar, seed=2029).points(200))
        k_hat = space_form_fit(frames[:5]).constants["k_hat"]
        expected = (-1.0 - 3.0) / alpha + 3.0
        ok = ok and abs(k_hat - expected) < 1e-8
        details.append(f"alpha={alpha:g}: k_hat={k_hat:.12g}")
        # re-pass criteria 1-3 on the transformed structure
        ok = ok and check_axioms(frames, threshold=1e-9).passed
        ok = ok and classify(frames[:10], threshold=1e-9).verdicts["paraSasakian"]
        sampler = pc.Sampler(bar, seed=2030)
        for i in range(50):
            f = frames[i % 5].view(0)
            u = sampler.horizontal_unit(f.g, f.xi, f.eta)
            ok = ok and abs(xi_sectional(f, u) + 1.0) < 1e-8
        if alpha == 0.5:
            ok = ok and abs(k_hat + 5.0) < 1e-8
    criterion(
        6, ok,
        "D-homothety k law within 1e-8 and criteria 1-3 re-pass "
        f"({'; '.join(details)}; alpha=0.5 gives -5)",
    )


def test_criterion_07_bochner(criterion, heis2, hyp2):
    worst_b = 0.0
    ok = True
    for structure in (heis2, hyp2):
        frames = frames_at(structure, pc.Sampler(structure, seed=2031).points(5))
        for f in frames:
            worst_b = max(worst_b, np.max(np.abs(pc_bochner(f)[0])))
        sym = bochner_symmetries(frames, threshold=1e-10)
        ok = ok and sym.passed
    deformed = d_homothetic(hyp2, 2.0)
    pts = pc.Sampler(deformed, seed=2032).points(3)
    ok = ok and bochner_symmetries(frames_at(deformed, pts), threshold=1e-10).passed
    # B of the alpha = 3 transform, divided by alpha, is B
    b_bar = [pc_bochner(f.view(0))[0] / 3.0
             for f in frames_at(d_homothetic(hyp2, 3.0), pts)]
    b = [pc_bochner(f.view(0))[0] for f in frames_at(hyp2, pts)]
    ok = ok and max(nres(b_bar, b)) < 1e-8
    criterion(
        7, ok and worst_b < 1e-8,
        f"PC-Bochner max |B| = {worst_b:.3e} < 1e-8, Lemma symmetries "
        "< 1e-10, homothety invariance (alpha=3) < 1e-8",
    )


def test_criterion_08_eta_einstein(criterion, heis2, hyp2):
    ok = True
    details = []
    for structure, (a_want, b_want) in (
        (heis2, (2.0, -6.0)),
        (hyp2, (-4.0, 0.0)),
    ):
        fit = eta_einstein_fit(
            frames_at(structure, pc.Sampler(structure, seed=2033).points(5))
        )
        a, b = fit.constants["a"], fit.constants["b"]
        ok = ok and abs(a - a_want) < 1e-8 and abs(b - b_want) < 1e-8
        ok = ok and fit.rows["eta_einstein_sum"].residual < 1e-10
        details.append(f"{structure.name}: (a,b)=({a:.10g},{b:.10g})")
    criterion(
        8, ok,
        f"eta-Einstein constants within 1e-8, a+b=-2n within 1e-10 "
        f"({'; '.join(details)})",
    )


def test_criterion_09_canonical_connection(criterion, heis2, hyp2):
    ok = True
    worst_pres = worst_f21 = 0.0
    for structure in (heis2, hyp2):
        frames = frames_at(structure, pc.Sampler(structure, seed=2034).points(3), 3)
        for f in frames:
            for t, kinds in (
                (f.g, "ll"), (f.xi, "u"), (f.eta, "l"), (f.phi, "ul"),
            ):
                worst_pres = max(
                    worst_pres,
                    np.max(np.abs(f.cov(t, kinds, kind="canonical_tilde").value)),
                )
            worst_f21 = max(worst_f21, f21_cross_check(f))
        ok = ok and parallel_check(frames, threshold=1e-8).passed
    heis_points = pc.Sampler(heis2, seed=2035).points(3)
    worst_flat = max(
        np.max(np.abs(get_frame(heis2, p, 2).riem_tilde_up.value))
        for p in heis_points
    )
    hyp_points = pc.Sampler(hyp2, seed=2036).points(3)
    worst_f22 = 0.0
    for p in hyp_points:
        f = get_frame(hyp2, p, order=2)
        a_blk, b_blk = _f20_blocks(f.g.value, f.eta.value, f.phi_low.value)
        model = 0.25 * (-1.0 - 3.0) * (a_blk + b_blk)
        worst_f22 = max(worst_f22, nres(f.riem_tilde_down.value, model)[0])
    ok = (
        ok
        and worst_pres < 1e-9
        and worst_flat < 1e-9
        and worst_f21 < 1e-8
        and worst_f22 < 1e-8
    )
    criterion(
        9, ok,
        f"canonical connection: preservation {worst_pres:.3e} < 1e-9, "
        f"Heisenberg flatness {worst_flat:.3e} < 1e-9, curvature "
        f"cross-check {worst_f21:.3e} < 1e-8, hyperboloid model "
        f"{worst_f22:.3e} < 1e-8, parallel torsion/curvature < 1e-8",
    )


def test_criterion_10_identity_suite(criterion, heis2, hyp2):
    ok = True
    worst = worst_phsc = 0.0
    for structure in (heis2, hyp2):
        sampler = pc.Sampler(structure, seed=2037)
        frames = frames_at(structure, sampler.points(3), 3)
        report = identity_suite(
            frames, space_form_fit(frames).constants["k_hat"],
            sampler=sampler, sections=50, threshold=1e-8
        )
        ok = ok and report.passed
        rows = {k: r.residual for k, r in report.rows.items()}
        worst_phsc = max(worst_phsc, rows.pop("f9_vs_f8_phsc"))
        worst = max(worst, max(rows.values()))
    ok = ok and worst < 1e-8 and worst_phsc < 1e-9
    criterion(
        10, ok,
        f"identity suite max residual {worst:.3e} < 1e-8, phsc form "
        f"agreement {worst_phsc:.3e} < 1e-9",
    )


def test_criterion_11_wpc(criterion, all_builtins):
    worst = 0.0
    for structure in all_builtins.values():
        sampler = pc.Sampler(structure, seed=2038)
        frames = frames_at(structure, sampler.points(3))
        for i in range(100):
            f = frames[i % len(frames)].view(0)
            quad = [sampler.horizontal_unit(f.g, f.xi, f.eta) for _ in range(4)]
            worst = max(worst, nres(bochner_pairing(f, *quad), wpc(f, *quad)))
    criterion(
        11, worst < 1e-8,
        f"B = W^pc on 100 horizontal quadruples per builtin, "
        f"max residual {worst:.3e} < 1e-8",
    )


def _manifest(tmp_path, name, manifold, checks):
    doc = {
        "schema": "paracurv-manifest/1",
        "manifold": manifold,
        "sampling": {"seed": 5, "count": 20},
        "checks": checks,
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_criterion_12_negative_controls(criterion, tmp_path):
    coords, g, phi, xi, eta = heisenberg_tables(2)
    runner = CliRunner()

    scaled = {
        "kind": "custom",
        "coords": coords,
        "g": [[f"1.1*({s})" for s in row] for row in g],
        "phi": phi,
        "xi": xi,
        "eta": eta,
    }
    out1 = tmp_path / "scaled_report.json"
    r1 = runner.invoke(
        main,
        ["check", _manifest(tmp_path, "scaled.json", scaled, ["axioms"]),
         "--out", str(out1)],
    )
    report1 = json.loads(out1.read_text())
    axiom_iv = {c["name"]: c for c in report1["checks"]}["axiom_iv_deta"]
    ok_scaled = (
        r1.exit_code == 1
        and report1["pass"] is False
        and axiom_iv["residual_max"] > 1e-2
    )

    phi_rows = [row[:] for row in phi]
    phi_rows[0][1] = f"({phi_rows[0][1]})+0.01"
    perturbed = {
        "kind": "custom",
        "coords": coords,
        "g": g,
        "phi": phi_rows,
        "xi": xi,
        "eta": eta,
    }
    out2 = tmp_path / "perturbed_report.json"
    r2 = runner.invoke(
        main,
        ["check",
         _manifest(tmp_path, "perturbed.json", perturbed, ["classification"]),
         "--out", str(out2)],
    )
    report2 = json.loads(out2.read_text())
    ok_phi = (
        r2.exit_code == 1
        and report2["verdicts"]["paraSasakian"] is False
    )

    criterion(
        12, ok_scaled and ok_phi,
        f"negative controls: scaled metric exits 1 with axiom (iv) residual "
        f"{axiom_iv['residual_max']:.3e} > 1e-2; perturbed phi reported "
        "non-paraSasakian with exit 1",
    )


def test_criterion_13_differentiation_integrity(criterion, hyp1, hyp2):
    worst1 = worst2 = 0.0
    for text in EXPRESSION_CORPUS:
        ast = parse(text, CORPUS_COORDS)
        jet = eval_jet(ast, [CORPUS_POINT], order=2)
        d1_fd = fd_gradient(ast, CORPUS_POINT)
        d2_fd = fd_hessian(ast, CORPUS_POINT)
        worst1 = max(
            worst1,
            np.max(np.abs(jet[1][0] - d1_fd)) / (1.0 + np.max(np.abs(d1_fd))),
        )
        worst2 = max(
            worst2,
            np.max(np.abs(jet[2][0] - d2_fd)) / (1.0 + np.max(np.abs(d2_fd))),
        )
    worst_gamma = 0.0
    for structure in (hyp1, hyp2):
        for p in pc.Sampler(structure, seed=2039).points(2):
            got = get_frame(structure, p, 1).gamma.value
            want = fd_christoffel(structure, p)
            worst_gamma = max(
                worst_gamma,
                np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(want))),
            )
    ok = worst1 < 1e-5 and worst2 < 1e-4 and worst_gamma < 1e-5
    criterion(
        13, ok,
        f"jets vs finite differences: order 1 {worst1:.3e} < 1e-5, order 2 "
        f"{worst2:.3e} < 1e-4; Christoffel oracle {worst_gamma:.3e} < 1e-5",
    )
