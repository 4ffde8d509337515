"""tools/report_diff.py: what may move between two reports and what may not."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"
GOLDEN = Path(__file__).parent / "data" / "heisenberg1.report.json"


def set_wall_time(r):
    r["wall_time_s"] = 12.5


def move_residual(r):
    r["checks"][0]["residual_max"] = 1e-16


def move_constant(r):
    r["constants"]["a"] += 1e-15


def flip_pass(r):
    r["checks"][1]["pass"] = False


def rename_check(r):
    r["checks"][2]["name"] = "renamed"


def change_verdict(r):
    r["verdicts"]["paraSasakian"] = False


def add_constant(r):
    r["constants"]["extra"] = 1.0


def change_threshold(r):
    r["checks"][0]["threshold"] = 1e-9


def overflow_residual(r):
    r["checks"][0].update(residual_max=None, non_finite="inf", **{"pass": False})


def overflow_constant(r):
    r["constants"]["a"] = None


@pytest.mark.parametrize(
    "mutate, code, expected",
    [
        (set_wall_time, 0, "0 number(s) moved"),
        (move_residual, 0, "moved checks.axiom_i_phi_xi.residual_max: 0 -> 1e-16"),
        (move_constant, 0, "moved constants.a: "),
        (flip_pass, 1, "DIFFERS checks."),
        (rename_check, 1, "DIFFERS check names"),
        (change_verdict, 1, "DIFFERS verdicts"),
        (add_constant, 1, "DIFFERS constant keys"),
        (change_threshold, 1, "DIFFERS checks.axiom_i_phi_xi.threshold"),
        (overflow_residual, 1, "DIFFERS checks.axiom_i_phi_xi.residual_max"),
        (overflow_constant, 1, "DIFFERS constants.a: "),
    ],
)
def test_report_diff(tmp_path, mutate, code, expected):
    before = json.loads(GOLDEN.read_text())
    after = json.loads(GOLDEN.read_text())
    mutate(after)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(before))
    b.write_text(json.dumps(after))
    result = subprocess.run(
        [sys.executable, str(TOOL), str(a), str(b)], capture_output=True, text=True
    )
    assert result.returncode == code
    assert expected in result.stdout


def test_report_diff_exits_2_on_unreadable_input(tmp_path):
    result = subprocess.run(
        [sys.executable, str(TOOL), str(GOLDEN), str(tmp_path / "missing.json")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2 and "cannot read" in result.stderr
