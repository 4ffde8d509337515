"""tools/same_reports.py: its fixed manifest set and its argument check."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import paracurv as pc
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
    assert len(stems) == len(set(stems)) == 24
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


def test_bad_arguments_exit_2(tmp_path):
    for argv in ([], [str(tmp_path)], [str(tmp_path), str(tmp_path)]):
        done = subprocess.run([sys.executable, str(TOOL), *argv],
                              capture_output=True, text=True)
        assert done.returncode == 2 and "usage" in done.stderr
