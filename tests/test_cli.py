"""End-to-end CLI behavior: exit codes, reports, determinism."""

import json
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner

from paracurv.cli import main
from paracurv.errors import DomainError, ParacurvError
from paracurv.geometry import heisenberg_tables
from paracurv.manifest import MAX_COUNT, build_structure, dumps_report


@pytest.fixture()
def runner():
    return CliRunner()


def write_manifest(path, manifest):
    path.write_text(json.dumps(manifest))
    return str(path)


def builtin_manifest(name="heisenberg", n=1, checks=("axioms",), count=20,
                     seed=7, **extra):
    manifest = {
        "schema": "paracurv-manifest/1",
        "manifold": {"kind": "builtin", "name": name, "n": n},
        "sampling": {"seed": seed, "count": count},
        "checks": list(checks),
    }
    manifest.update(extra)
    return manifest


def custom_heisenberg_manifest(n=2, mutate=None, checks=("axioms",), count=20):
    coords, g, phi, xi, eta = heisenberg_tables(n)
    manifold = {
        "kind": "custom",
        "coords": coords,
        "g": g,
        "phi": phi,
        "xi": xi,
        "eta": eta,
    }
    if mutate is not None:
        mutate(manifold)
    return {
        "schema": "paracurv-manifest/1",
        "manifold": manifold,
        "sampling": {"seed": 3, "count": count},
        "checks": list(checks),
    }


def embedded_hyperboloid_manifest():
    return {
        "schema": "paracurv-manifest/1",
        "manifold": {
            "kind": "embedded",
            "n": 1,
            "coords": ["x1", "y0", "y1"],
            "immersion": ["sqrt(1-x1^2+y0^2+y1^2)", "x1", "y0", "y1"],
        },
        "sampling": {"seed": 3, "count": 5},
        "checks": ["axioms"],
    }


def strip_wall_time(text):
    return "\n".join(
        line for line in text.splitlines() if "wall_time_s" not in line
    )


def test_check_passes_and_writes_report(runner, tmp_path):
    manifest = write_manifest(
        tmp_path / "m.json",
        builtin_manifest(checks=("axioms", "xi_sectional")),
    )
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["check", manifest, "--out", str(out)])
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "paracurv-report/1"
    assert report["pass"] is True
    assert report["structure"] == "heisenberg(n=1)"
    assert report["seed"] == 7 and report["point_count"] == 20
    names = {c["name"] for c in report["checks"]}
    assert "axiom_iv_deta" in names and "xi_sectional" in names
    assert all(c["pass"] for c in report["checks"])
    assert "PASS xi_sectional" in result.stderr


def test_check_report_is_deterministic(runner, tmp_path):
    manifest = write_manifest(
        tmp_path / "m.json",
        builtin_manifest(name="hyperboloid", checks=("axioms", "space_form")),
    )
    texts = []
    for tag in ("a", "b"):
        out = tmp_path / f"report_{tag}.json"
        result = runner.invoke(main, ["check", manifest, "--out", str(out)])
        assert result.exit_code == 0
        texts.append(out.read_text())
    # byte-identical apart from the wall-clock field
    assert strip_wall_time(texts[0]) == strip_wall_time(texts[1])


def test_check_seed_and_tol_overrides(runner, tmp_path):
    manifest = write_manifest(tmp_path / "m.json", builtin_manifest())
    out = tmp_path / "r.json"
    result = runner.invoke(
        main, ["check", manifest, "--out", str(out), "--seed", "99",
               "--tol", "1e-6"],
    )
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert report["seed"] == 99
    assert report["tolerance"] == 1e-6
    assert runner.invoke(main, ["check", manifest, "--tol", "0"]).exit_code == 2
    assert runner.invoke(main, ["check", manifest, "--tol", "-1"]).exit_code == 2
    result = runner.invoke(main, ["check", manifest, "--tol", "inf"])
    assert result.exit_code == 2 and "--tol" in result.stderr
    assert not result.stdout
    assert runner.invoke(main, ["check", manifest, "--seed", "-3"]).exit_code == 2


def test_invalid_manifests_exit_2_and_name_the_field(runner, tmp_path):
    bad_schema = builtin_manifest()
    bad_schema["schema"] = "nope/9"
    result = runner.invoke(
        main, ["check", write_manifest(tmp_path / "a.json", bad_schema)]
    )
    assert result.exit_code == 2 and "schema" in result.stderr

    bad_name = builtin_manifest(name="torus")
    result = runner.invoke(
        main, ["check", write_manifest(tmp_path / "b.json", bad_name)]
    )
    assert result.exit_code == 2 and "manifold.name" in result.stderr

    bad_checks = builtin_manifest(checks=("axioms", "frobnicate"))
    result = runner.invoke(
        main, ["check", write_manifest(tmp_path / "c.json", bad_checks)]
    )
    assert result.exit_code == 2 and "frobnicate" in result.stderr

    def drop_g_row(manifold):
        manifold["g"] = manifold["g"][:-1]

    bad_table = custom_heisenberg_manifest(mutate=drop_g_row)
    result = runner.invoke(
        main, ["check", write_manifest(tmp_path / "d.json", bad_table)]
    )
    assert result.exit_code == 2 and "manifold.g" in result.stderr

    missing = runner.invoke(main, ["check", str(tmp_path / "absent.json")])
    assert missing.exit_code == 2

    (tmp_path / "garbage.json").write_text("{not json")
    result = runner.invoke(main, ["check", str(tmp_path / "garbage.json")])
    assert result.exit_code == 2 and "JSON" in result.stderr

    bad_box = builtin_manifest()
    bad_box["sampling"]["box"] = [1, 2]
    result = runner.invoke(
        main, ["check", write_manifest(tmp_path / "e.json", bad_box)]
    )
    assert result.exit_code == 2 and "sampling.box" in result.stderr

    # fields that reached numpy unchecked; 1e400 is how JSON spells inf
    def with_field(manifest, key, value):
        manifest["manifold"][key] = value
        return manifest

    embedded, custom = embedded_hyperboloid_manifest, custom_heisenberg_manifest
    cases = [
        (with_field(embedded(), "normal", 5), "manifold.normal"),
        (with_field(embedded(), "normal", ["x1"]), "manifold.normal"),
        (with_field(embedded(), "normal", [1, 2, 3, 4]), "manifold.normal"),
        (with_field(embedded(), "probe", "abc"), "manifold.probe"),
        (with_field(embedded(), "probe", [0.0]), "manifold.probe"),
        (with_field(custom(n=1), "probe", [0, 0]), "manifold.probe"),
        (with_field(custom(n=1), "probe", [0, "INF", 0]), "manifold.probe"),
        (with_field(embedded(), "box", [[-0.5, "INF"]] * 3), "manifold.box"),
        (dict(builtin_manifest(), sampling={"box": [[0, "INF"]] * 3}),
         "sampling.box"),
        (dict(builtin_manifest(), tolerance="INF"), "tolerance"),
        (with_field(custom(n=1), "name", 5), "manifold.name"),
        (with_field(custom(n=1), "name", ["x"]), "manifold.name"),
        (with_field(builtin_manifest(), "name", ["x"]), "manifold.name"),
        (dict(builtin_manifest(), transform={"alpha": "INF"}),
         "transform.alpha must be a finite number > 0"),
        # JSON booleans are not numbers
        (dict(builtin_manifest(), tolerance=True), "tolerance"),
        (dict(builtin_manifest(), transform={"alpha": True}), "transform.alpha"),
        (dict(builtin_manifest(), sampling={"seed": True}), "sampling.seed"),
        (dict(builtin_manifest(), sampling={"count": True}), "sampling.count"),
        # a count above the ceiling is refused before any array is allocated
        (builtin_manifest(count=10 ** 20), "error: sampling.count"),
        (builtin_manifest(count=MAX_COUNT + 1), "error: sampling.count"),
        (with_field(builtin_manifest(), "n", True), "manifold.n"),
        # coordinate names must be distinct strings, or two share a slot
        (with_field(custom(n=1), "coords", ["u1", "u1", "t"]), "manifold.coords"),
        (with_field(embedded(), "coords", ["x1", 5, "y1"]), "manifold.coords"),
    ]
    for i, (manifest, field) in enumerate(cases):
        path = tmp_path / f"field{i}.json"
        path.write_text(json.dumps(manifest).replace('"INF"', "1e400"))
        result = runner.invoke(main, ["check", str(path)])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert field in result.stderr and not result.stdout
        assert "PASS" not in result.stderr and not result.stdout


def test_overflow_in_an_expression_exits_2(runner, tmp_path):
    def overflow_xi(manifold):
        manifold["xi"][2] = "1 + 0*exp(1000*t)"

    manifest = write_manifest(
        tmp_path / "overflow.json",
        custom_heisenberg_manifest(n=1, mutate=overflow_xi, count=200),
    )
    result = runner.invoke(main, ["check", manifest])
    # a clean exit with a message, not an uncaught exception
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert "error: exp overflows" in result.stderr


@pytest.mark.parametrize(
    "xi_t, message",
    [
        ("1 + 0*(exp(700)*exp(700))", "structure jets of custom are not finite"),
        ("1 + 0/exp(300 + t)", "derivatives of 1/x overflow"),
        ("1 + 0*ln(exp(300 + t))", "derivatives of ln overflow"),
    ],
)
def test_non_finite_structure_exits_2(runner, tmp_path, xi_t, message):
    def set_xi(manifold):
        manifold["xi"][2] = xi_t

    manifest = custom_heisenberg_manifest(n=1, mutate=set_xi, count=200)
    manifest["checks"] = "all"
    result = runner.invoke(
        main, ["check", write_manifest(tmp_path / "m.json", manifest)]
    )
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert f"error: {message}" in result.stderr
    assert "PASS" not in result.stderr


def refuse_twice(manifold):
    # at the probe point (the origin) a g entry takes sqrt(-5) and a later
    # phi entry ln(-1); g[1][0] holds the same sqrt at another offset
    manifold["g"][0][1] = "(-v1)*(u1) + 0*sqrt(t - 5)"
    manifold["g"][1][0] = "0*sqrt(t - 5) + (u1)*(-v1)"
    manifold["phi"][2][0] = "-u1 + 0*ln(t - 1)"


def test_the_first_refusal_is_the_one_the_fields_meet_first(runner, tmp_path):
    manifest = custom_heisenberg_manifest(n=1, mutate=refuse_twice)
    with pytest.raises(DomainError) as exc:
        build_structure(manifest)
    assert str(exc.value) == "sqrt of non-positive value"
    assert exc.value.span == (15, 26)
    assert manifest["manifold"]["g"][0][1][15:26] == "sqrt(t - 5)"
    assert exc.value.index == 0 and exc.value.value == -5.0
    result = runner.invoke(main, ["check", write_manifest(tmp_path / "m.json", manifest)])
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert result.stderr == "error: sqrt of non-positive value\n" and not result.stdout


def scale_g(manifold):
    manifold["g"] = [[f"1e160*({s})" for s in row] for row in manifold["g"]]


def test_overflowed_curvature_fails_with_a_readable_report(runner, tmp_path):
    # the structure jets are finite; the curvature built from them is not
    manifest = custom_heisenberg_manifest(n=1, mutate=scale_g, count=30)
    manifest["checks"] = "all"
    path = write_manifest(tmp_path / "m.json", manifest)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, ["check", path])
    assert result.exit_code == 1, result.stderr
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in result.stderr
    # phsc divides by an overflowed g(phi v, phi v) g(phi^2 v, phi^2 v),
    # which must not read as a curvature of 0
    for name in ("space_form_f20", "f9_vs_f8_phsc"):
        assert f"FAIL {name}: residual inf" in result.stderr

    def refuse(name):
        raise AssertionError(f"{name} in the report")

    report = json.loads(result.stdout, parse_constant=refuse)
    rows = {row["name"]: row for row in report["checks"]}
    for name in ("space_form_f20", "f9_vs_f8_phsc"):
        assert rows[name]["residual_max"] is None
        assert rows[name]["non_finite"] == "inf"
        assert not rows[name]["pass"]
    assert not report["pass"]
    assert all(("non_finite" in row) == (row["residual_max"] is None)
               for row in report["checks"])
    assert "non_finite" not in rows["axiom_i_phi_xi"]


def test_wpc_without_horizontal_vectors_fails_its_row(runner, tmp_path):
    # eta(xi) = 1.1, so projecting along xi leaves eta(v) != 0: no
    # quadruple is horizontal, and the report still carries every row
    def stretch_xi(manifold):
        manifold["xi"] = ["0", "0", "1.1"]

    for checks in (["axioms", "wpc"], "all"):
        manifest = custom_heisenberg_manifest(n=1, mutate=stretch_xi)
        manifest["checks"] = checks
        path = write_manifest(tmp_path / "m.json", manifest)
        result = runner.invoke(main, ["check", path])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert "error" not in result.stderr
        assert "FAIL wpc_equals_bochner: residual nan" in result.stderr
        rows = {row["name"]: row for row in json.loads(result.stdout)["checks"]}
        assert rows["wpc_equals_bochner"]["non_finite"] == "nan"
        assert not rows["axiom_ii_eta_xi"]["pass"]


def test_singular_eta_einstein_system_fails_both_rows(runner, tmp_path):
    # eta = 0: the normal equations of r = a g + b eta (x) eta are singular
    zero = ["0", "0", "0"]
    manifest = {
        "schema": "paracurv-manifest/1",
        "manifold": {"kind": "custom", "coords": ["a", "b", "c"],
                     "g": [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1"]],
                     "phi": [zero, zero, zero], "xi": zero, "eta": zero},
        "sampling": {"seed": 3, "count": 20},
        "checks": ["axioms", "classification", "eta_einstein"],
    }
    result = runner.invoke(main, ["check", write_manifest(tmp_path / "m.json", manifest)])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert all(line.startswith(("PASS ", "FAIL "))
               for line in result.stderr.splitlines())
    report = json.loads(result.stdout)
    rows = {row["name"]: row for row in report["checks"]}
    for name in ("eta_einstein_fit", "eta_einstein_sum"):
        assert rows[name]["residual_max"] is None and not rows[name]["pass"]
        assert "non_finite" in rows[name]
    assert report["constants"] == {"a": None, "b": None}


def test_report_refuses_non_finite_numbers():
    with pytest.raises(ParacurvError, match="non-finite"):
        dumps_report({"residual_max": float("nan")})
    with pytest.raises(ParacurvError, match="non-finite"):
        dumps_report({"checks": [float("inf")]})


@pytest.mark.parametrize("stem", ["heisenberg1", "hyperboloid1_alpha2"])
def test_check_matches_golden_report(runner, tmp_path, stem):
    data = Path(__file__).parent / "data"
    out = tmp_path / "report.json"
    result = runner.invoke(
        main,
        ["check", str(data / f"{stem}.manifest.json"), "--out", str(out)],
    )
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    golden = json.loads((data / f"{stem}.report.json").read_text())
    assert report["verdicts"] == golden["verdicts"]
    assert report["pass"] is golden["pass"] is True
    assert [(c["name"], c["pass"], c["threshold"]) for c in report["checks"]] == [
        (c["name"], c["pass"], c["threshold"]) for c in golden["checks"]
    ]
    for got, want in zip(report["checks"], golden["checks"]):
        assert got["residual_max"] == pytest.approx(want["residual_max"], abs=1e-12)
    assert report["constants"].keys() == golden["constants"].keys()
    for key, want in golden["constants"].items():
        assert report["constants"][key] == pytest.approx(want, abs=1e-12)


def test_scaled_metric_fails_axiom_iv(runner, tmp_path):
    def scale_metric(manifold):
        manifold["g"] = [
            [f"1.1*({entry})" for entry in row] for row in manifold["g"]
        ]

    manifest = write_manifest(
        tmp_path / "scaled.json",
        custom_heisenberg_manifest(mutate=scale_metric),
    )
    out = tmp_path / "r.json"
    result = runner.invoke(main, ["check", manifest, "--out", str(out)])
    assert result.exit_code == 1
    report = json.loads(out.read_text())
    assert report["pass"] is False
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["axiom_iv_deta"]["pass"] is False
    assert by_name["axiom_iv_deta"]["residual_max"] > 1e-2
    assert "FAIL axiom_iv_deta" in result.stderr


def test_perturbed_phi_reported_non_parasasakian(runner, tmp_path):
    def nudge_phi(manifold):
        manifold["phi"][0][1] = f"({manifold['phi'][0][1]})+0.01"

    manifest = write_manifest(
        tmp_path / "phi.json",
        custom_heisenberg_manifest(
            mutate=nudge_phi, checks=("classification",), count=10
        ),
    )
    out = tmp_path / "r.json"
    result = runner.invoke(main, ["check", manifest, "--out", str(out)])
    assert result.exit_code == 1
    report = json.loads(out.read_text())
    assert report["verdicts"]["paraSasakian"] is False


def test_transform_then_check_shifts_k_hat(runner, tmp_path):
    manifest = write_manifest(
        tmp_path / "hyp.json",
        builtin_manifest(
            name="hyperboloid", n=1, checks=("space_form",), count=10
        ),
    )
    transformed = tmp_path / "hyp_alpha2.json"
    result = runner.invoke(
        main, ["transform", manifest, "--alpha", "2", "--out", str(transformed)]
    )
    assert result.exit_code == 0
    doc = json.loads(transformed.read_text())
    assert doc["transform"]["alpha"] == 2.0
    out = tmp_path / "r.json"
    result = runner.invoke(main, ["check", str(transformed), "--out", str(out)])
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    # (k - 3)/alpha + 3 with k = -1, alpha = 2
    assert report["constants"]["k_hat"] == pytest.approx(1.0, abs=1e-8)


def test_transform_rewrites_custom_tables(runner, tmp_path):
    manifest = write_manifest(
        tmp_path / "custom.json",
        custom_heisenberg_manifest(n=1, checks=("space_form",), count=10),
    )
    transformed = tmp_path / "custom_half.json"
    result = runner.invoke(
        main,
        ["transform", manifest, "--alpha", "0.5", "--out", str(transformed)],
    )
    assert result.exit_code == 0
    doc = json.loads(transformed.read_text())
    assert doc["manifold"]["kind"] == "custom"
    assert "0.5" in doc["manifold"]["g"][0][0]
    out = tmp_path / "r.json"
    result = runner.invoke(main, ["check", str(transformed), "--out", str(out)])
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    # (3 - 3)/alpha + 3: the Heisenberg constant is a fixed point
    assert report["constants"]["k_hat"] == pytest.approx(3.0, abs=1e-8)


def test_transform_keeps_the_probe_point(runner, tmp_path):
    # g vanishes at t = 0, the centre of the box, so only the probe point
    # t = 1 sees its signature; its axioms fail there, with or without alpha
    def scale_g_by_t2(manifold):
        manifold["g"] = [[f"t^2*({s})" for s in row] for row in manifold["g"]]
        manifold["probe"] = [0, 0, 1]

    manifest = custom_heisenberg_manifest(n=1, mutate=scale_g_by_t2)
    for transform in (None, {"alpha": 2}):
        if transform is not None:
            manifest["transform"] = transform
        path = write_manifest(tmp_path / "m.json", manifest)
        result = runner.invoke(main, ["check", path])
        assert result.exit_code == 1, result.stderr
        assert "FAIL axiom" in result.stderr


def test_embedded_normal_spelled_out_is_the_default(runner, tmp_path):
    # the hyperboloid's normal is its position vector, the immersion itself;
    # only the manifest's digest and the wall time may differ
    manifest = embedded_hyperboloid_manifest()
    reports = []
    for tag in ("default", "normal"):
        if tag == "normal":
            manifest["manifold"]["normal"] = manifest["manifold"]["immersion"]
        out = tmp_path / f"report_{tag}.json"
        path = write_manifest(tmp_path / f"{tag}.json", manifest)
        result = runner.invoke(main, ["check", path, "--out", str(out)])
        assert result.exit_code == 0, result.stderr
        report = json.loads(out.read_text())
        del report["manifest_digest"], report["wall_time_s"]
        reports.append(report)
    assert reports[0] == reports[1]


def test_transform_rejects_bad_alpha(runner, tmp_path):
    manifest = write_manifest(tmp_path / "m.json", builtin_manifest())
    for alpha in ("-1", "inf", "nan"):
        result = runner.invoke(
            main,
            ["transform", manifest, "--alpha", alpha, "--out", str(tmp_path / "t")],
        )
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert "transform.alpha must be a finite number > 0" in result.stderr
    assert not (tmp_path / "t").exists()


def test_transform_refuses_an_alpha_whose_square_overflows(runner, tmp_path):
    # alpha^2 - alpha would write inf into the custom g entries
    manifest = write_manifest(tmp_path / "m.json", custom_heisenberg_manifest(n=1))
    result = runner.invoke(
        main, ["transform", manifest, "--alpha", "1e200", "--out", str(tmp_path / "t")])
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert result.stderr == ("error: transform.alpha = 1e+200 overflows "
                             "alpha^2 - alpha\n")
    assert not (tmp_path / "t").exists()


def unwritable_out(runner, tmp_path, command, *options):
    manifest = write_manifest(tmp_path / "m.json", builtin_manifest())
    out = tmp_path / "missing" / "out.json"
    result = runner.invoke(main, [command, manifest, *options, "--out", str(out)])
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert result.stderr == f"error: cannot write {out}: No such file or directory\n"
    assert not result.stdout


def test_check_to_an_unwritable_out_path_exits_2(runner, tmp_path):
    unwritable_out(runner, tmp_path, "check")


def test_transform_to_an_unwritable_out_path_exits_2(runner, tmp_path):
    unwritable_out(runner, tmp_path, "transform", "--alpha", "2")


def test_curvature_summary(runner, tmp_path):
    manifest = write_manifest(tmp_path / "m.json", builtin_manifest())
    result = runner.invoke(
        main, ["curvature", manifest, "--point", "0.1,0.2,0.3"]
    )
    assert result.exit_code == 0
    assert "scalar_s: 2" in result.output
    assert "xi_sectional: -1" in result.output
    assert "kappa_B: " in result.output

    outside = runner.invoke(
        main, ["curvature", manifest, "--point", "50,0,0"]
    )
    assert outside.exit_code == 2

    # the Heisenberg jets do not depend on t: only the domain refuses a nan
    nan = runner.invoke(main, ["curvature", manifest, "--point", "0,0,nan"])
    assert nan.exit_code == 2 and isinstance(nan.exception, SystemExit)
    assert "outside the chart domain" in nan.stderr and not nan.stdout

    wrong_arity = runner.invoke(
        main, ["curvature", manifest, "--point", "0.1,0.2"]
    )
    assert wrong_arity.exit_code == 2

    not_numbers = runner.invoke(
        main, ["curvature", manifest, "--point", "a,b,c"]
    )
    assert not_numbers.exit_code == 2


def test_curvature_refuses_non_finite_numbers(runner, tmp_path):
    manifest = write_manifest(
        tmp_path / "m.json", custom_heisenberg_manifest(n=1, mutate=scale_g))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, ["curvature", manifest, "--point", "0.1,0.2,0.3"])
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr.startswith("error: curvature is not finite at this point")
    assert len(result.stderr.splitlines()) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_builtins_listing(runner):
    result = runner.invoke(main, ["builtins"])
    assert result.exit_code == 0
    assert result.output.splitlines() == ["heisenberg", "hyperboloid"]
