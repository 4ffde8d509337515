"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

Not named test_*.py, so the repository's own test run does not collect it.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tracer  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from worker import import_program, invoke  # noqa: E402

END_TO_END = ("setup_s", "run_s", "op_p50_ms", "top_dim_s", "peak_rss_mib")
PER_LAYER = (
    "manifest.load_s", "manifest.build_s", "manifest.run_checks_s",
    "manifest.serialize_s", "exprlang.field_evals", "exprlang.eval_s",
    "geometry.at_calls", "geometry.structure_jets",
    "geometry.structure_jets_per_point", "geometry.self_s",
    "jetfields.einsum_calls", "jetfields.einsum_s", "jetfields.metric_inverse_s",
    "connection.frame_requests", "connection.frames_built",
    "connection.frames_per_point", "connection.gamma_s", "connection.riemann_s",
    "connection.gamma_tilde_s", "connection.riemann_tilde_s",
    "connection.covariant_s", "connection.parallel_check_s",
    "sampling.draws", "sampling.s", "report.nres_calls", "report.nres_s",
    "cli.self_s",
) + tuple(f"analysis.{fn}{suffix}" for fn in tracer.ANALYSIS
          for suffix in ("_s", ".self_s"))


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.splitlines()


@pytest.fixture(scope="module")
def cli():
    return import_program()


def test_checker_rejects_a_wrong_constant(cli, tmp_path):
    wide = workloads.build("wide", 11, str(tmp_path), quick=True)
    case = next(c for c in wide.cases if c.alpha == 2.0 and c.family == "hyperboloid")
    code, out, _, _ = invoke(cli, ("check", case.path))
    assert verify.check_report(case, code, out) == []
    wrong = verify.check_report(case, code, out, alpha=1.0)
    assert any(p.startswith("a = ") for p in wrong)
    assert any(p.startswith("b = ") for p in wrong)

    point = workloads.chart_points(np.random.default_rng(3), "hyperboloid", case.n, 1)[0]
    argv = ("curvature", case.path, "--point", ",".join(map(repr, point)))
    code, out, _, _ = invoke(cli, argv)
    assert verify.check_curvature(case, code, out) == []
    assert any(p.startswith("phsc = ")
               for p in verify.check_curvature(case, code, out, alpha=1.0))


def test_negative_control_is_a_fail(cli, tmp_path):
    code, out, _, _ = invoke(cli, ("check", workloads.negative_control(str(tmp_path))))
    assert verify.check_negative_control(code, out) == []
    sweep = workloads.build("sweep", 2, str(tmp_path), quick=True)
    code, out, _, _ = invoke(cli, ("check", sweep.cases[0].path))
    assert verify.check_negative_control(code, out) != []


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ["a", -1, 0.0, 10.0],  # children 1, 2: self 10 - 3 - 4 = 3
        ["b", 0, 1.0, 4.0],  # leaf: self 3
        ["c", 0, 5.0, 9.0],  # child 3: self 4 - 2 = 2
        ["a", 2, 6.0, 8.0],  # inside span 0, so not in a's total; self 1.5
        ["b", 3, 6.5, 7.0],  # no "b" above it, so in b's total; self 0.5
    ]
    table = tracer.summarize(spans)
    assert table["a"] == {"count": 2, "total_s": 10.0, "self_s": 3.0 + 1.5}
    assert table["b"] == {"count": 2, "total_s": 3.5, "self_s": 3.5}
    assert table["c"] == {"count": 1, "total_s": 4.0, "self_s": 2.0}


def test_wrappers_fold_same_key_recursion_into_one_span():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))

    def fact(k):
        return 1 if k == 0 else k * traced(k - 1)

    traced = t.wrap(fact, "fact")
    outer = t.wrap(lambda: traced(3), "outer")
    assert outer() == 6
    assert [s[tracer.KEY] for s in t.spans] == ["outer", "fact"]
    table = tracer.summarize(t.spans)
    assert table["outer"]["self_s"] == table["outer"]["total_s"] - table["fact"]["total_s"]


def test_quick_mode_runs_every_workload():
    proc, lines = run_bench("--workload", "all", "--quick", "--seed", "5",
                            "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    merged = json.loads(lines[-1])
    assert merged["correct"] is True
    results = {name: r for line in lines[:-1] if line.startswith("{")
               for name, r in json.loads(line).items()}
    # the sweep's fixed phsc+identities input is the one known failure: one
    # operation in each round of three
    assert results["sweep"]["failed"] * 3 == results["sweep"]["attempted"]
    assert results["wide"]["failed"] == results["pointwise"]["failed"] == 0
    for name in workloads.WORKLOADS:
        for metric in END_TO_END:
            assert merged["metrics"][f"{name}/{metric}"]["value"] > 0


def test_quick_traced_runs_report_every_layer_metric_and_repeat_counts():
    runs = []
    for seed in ("5", "6"):
        proc, lines = run_bench("--workload", "sweep", "--quick", "--seed", seed,
                                "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(lines[-1]))
    first, second = (run["metrics"] for run in runs)
    assert set(PER_LAYER) <= set(first)
    counts = [name for name, m in first.items() if m["unit"] == "count"]
    assert "geometry.structure_jets" in counts and "exprlang.field_evals" in counts
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    # the fixed phsc+identities input fails the same way on every seed
    assert all(r["correct"] and r["failed"] * 3 == r["attempted"] for r in runs)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc, lines = run_bench("--workload", "pointwise", "--seed", "1",
                            "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
