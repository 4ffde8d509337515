"""tools/same_reports.py: its fixed manifest set, its argument check and
its summary of the cases that differ."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import paracurv as pc
from paracurv.errors import DomainError
from paracurv.geometry import heisenberg_tables
from paracurv.manifest import build_structure, validate_manifest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_reports.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("same_reports", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_manifest_of_the_set_is_valid():
    tool = load_tool()
    stems = [stem for stem, _ in tool.manifests()]
    assert len(stems) == len(set(stems)) == 26
    for _, manifest in tool.manifests():
        validate_manifest(manifest)
    # the tool imports nothing from the package, so it spells these out
    for n in (1, 2, 3):
        coords, g, phi, xi, eta = heisenberg_tables(n)
        assert tool.heisenberg_tables(n) == {"kind": "custom", "coords": coords,
                                             "g": g, "phi": phi, "xi": xi, "eta": eta}
    embedded = build_structure({"manifold": tool.embedded_hyperboloid(2)})
    assert embedded.coords == pc.builtin_hyperboloid(2).coords


def test_every_curvature_point_lies_in_its_chart():
    tool = load_tool()
    cases = tool.curvature_points()
    assert len(cases) == len({stem for stem, _, _ in cases}) == 60
    for _, manifest, point in cases:
        validate_manifest(manifest)
        structure = build_structure(manifest)
        assert structure.domain.contains([float(c) for c in point.split(",")])


def test_the_bad_inputs_are_valid_manifests_that_exit_2_at_the_probe():
    tool = load_tool()
    cases = tool.bad_inputs()
    assert len(cases) == len({stem for stem, _ in cases}) == 3
    for _, manifest in cases:
        validate_manifest(manifest)
        with pytest.raises(DomainError):
            build_structure(manifest)


def test_bad_arguments_exit_2(tmp_path):
    for argv in ([], [str(tmp_path)], [str(tmp_path), str(tmp_path)]):
        done = subprocess.run([sys.executable, str(TOOL), *argv],
                              capture_output=True, text=True)
        assert done.returncode == 2 and "usage" in done.stderr


# canned output of tools/report_diff.py on two reports
MOVED_ONLY = """\
moved checks.phsc_constancy.residual_max: 4.7e-11 -> 1.6e-11 (abs change 3.1e-11)
moved constants.b: -1.9999999999999996 -> -2 (abs change 4.44e-16)
same names, orders, verdicts, pass flags and constant keys; 2 number(s) moved
"""
PASS_FLIPPED = """\
moved checks.f9_vs_f8_phsc.residual_max: 4.99e-10 -> 1.2e-09 (abs change 7.01e-10)
DIFFERS checks.f9_vs_f8_phsc.pass: True != False
1 field(s) differ, 1 number(s) moved
"""
STDERR = "PASS phsc_constancy: residual {} (threshold 1.0e-08)\n"


def check_run(residual, verdict="PASS", code=0):
    return ("{report}", STDERR.format(residual).replace("PASS", verdict), code)


def curvature_run(phsc, label="phsc"):
    return (f"structure: hyperboloid(n=2)\npoint: 0.1, -0.2\n{label}: {phsc}\n"
            "kappa_B: 2\n", "", 0)


def test_a_report_with_moved_numbers_only_is_told_apart():
    tool = load_tool()
    kind, moves = tool.classify(check_run("4.7e-11"), check_run("1.6e-11"), MOVED_ONLY)
    assert kind == "moved"
    assert moves == [("checks.phsc_constancy.residual_max", 3.1e-11),
                     ("constants.b", 4.44e-16)]


def test_a_changed_field_pass_flag_or_exit_code_is_a_change():
    tool = load_tool()
    before = check_run("4.99e-10")
    assert tool.classify(before, check_run("1.2e-09", "FAIL"), PASS_FLIPPED)[0] == "changed"
    # the stderr flips although report_diff.py saw no field change
    assert tool.classify(before, check_run("1.2e-09", "FAIL"), MOVED_ONLY)[0] == "changed"
    assert tool.classify(before, check_run("4.99e-10", code=1), MOVED_ONLY)[0] == "changed"
    # report_diff.py could not read a report
    assert tool.classify(before, check_run("1.2e-09"), "")[0] == "changed"


def test_curvature_lines_move_or_change():
    tool = load_tool()
    kind, moves = tool.classify(curvature_run(-1), curvature_run(-0.99999999999))
    assert (kind, moves) == ("moved", [("phsc", pytest.approx(1e-11))])
    assert tool.classify(curvature_run(-1), curvature_run(-1, "xi"))[0] == "changed"


def test_the_summary_names_each_kind_and_the_largest_move():
    tool = load_tool()
    results = [("hyperboloid1_seed1", "moved", [("checks.a.residual_max", 2e-16),
                                                ("checks.b.residual_max", 3e-11)]),
               ("curvature_hyperboloid2_point0", "moved", [("phsc", 1e-15)]),
               ("heisenberg1_seed1", "changed", [])]
    assert tool.summary(results) == [
        "2 case(s) differ only in moved numbers: hyperboloid1_seed1, "
        "curvature_hyperboloid2_point0",
        "1 case(s) differ in a field, check name, verdict, pass flag or exit code: "
        "heisenberg1_seed1",
        "largest absolute move: 3e-11, checks.b.residual_max of hyperboloid1_seed1",
        "largest absolute move outside the phsc-derived rows (phsc_constancy, "
        "f9_vs_f8_phsc and curvature's phsc): 3e-11, checks.b.residual_max of "
        "hyperboloid1_seed1",
    ]


def test_the_summary_names_the_largest_move_outside_the_phsc_rows():
    tool = load_tool()
    results = [("heisenberg4_sections_seed34", "moved",
                [("checks.f9_vs_f8_phsc.residual_max", 6e-9),
                 ("checks.f5.residual_max", 2e-16)]),
               ("hyperboloid3_seed1", "moved",
                [("checks.phsc_constancy.residual_max", 3e-11),
                 ("checks.wpc_equals_bochner.residual_max", 7e-12),
                 ("constants.k_hat", 4e-16)])]
    assert tool.summary(results)[-2:] == [
        "largest absolute move: 6e-09, checks.f9_vs_f8_phsc.residual_max of "
        "heisenberg4_sections_seed34",
        "largest absolute move outside the phsc-derived rows (phsc_constancy, "
        "f9_vs_f8_phsc and curvature's phsc): 7e-12, "
        "checks.wpc_equals_bochner.residual_max of hyperboloid3_seed1",
    ]
    only_phsc = [("heisenberg4_sections_seed34", "moved",
                  [("checks.f9_vs_f8_phsc.residual_max", 6e-9)]),
                 ("curvature_hyperboloid2_point1", "moved", [("phsc", 2e-10)])]
    assert tool.summary(only_phsc)[-1] == (
        "no move outside the phsc-derived rows (phsc_constancy, f9_vs_f8_phsc "
        "and curvature's phsc)")
