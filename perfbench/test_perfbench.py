"""Self-test of the benchmark harness: every workload at toy size.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
import spans

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))


def _run_toy(capsys, monkeypatch, workload, trace):
    for var in run.BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    argv = ["--workload", workload, "--seed", "0", "--seconds", "0",
            "--trace", str(trace), "--toy"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    env = json.loads(lines[0])["environment"]
    assert env["workload"] == workload and env["blas_threads"] == run.BLAS_THREADS
    return [json.loads(line) for line in lines]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_its_unit(capsys, monkeypatch, workload, trace, section):
    *_, info, result = _run_toy(capsys, monkeypatch, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert {name: m["unit"] for name, m in info["report"].items()} == {
            "report.final_nd_error": "1", "report.unconverged_share": "1",
            "report.inner_solves": "count"}


@pytest.mark.parametrize("workload", ["deep-lp", "wide-ibp", "wide-mam"])
def test_counts_repeat_exactly(capsys, monkeypatch, workload):
    first, second = (_run_toy(capsys, monkeypatch, workload, 1)[-1]["metrics"] for _ in range(2))
    counts = [name for name, m in first.items() if m["unit"] == "count"]
    assert any(first[name]["value"] for name in counts)
    assert all(first[name] == second[name] for name in counts)


def test_trace_wrappers_are_removed(capsys, monkeypatch):
    import treeshrink
    from treeshrink import reduce as reduce_module

    before = (treeshrink.reduce_tree, reduce_module.barycenter_lp,
              treeshrink.ScenarioTree.__dict__["load"])
    _run_toy(capsys, monkeypatch, "deep-lp", 1)
    assert before == (treeshrink.reduce_tree, reduce_module.barycenter_lp,
                      treeshrink.ScenarioTree.__dict__["load"])


def test_missing_layer_is_reported_absent(monkeypatch):
    monkeypatch.setattr(spans, "LAYERS", spans.LAYERS + (
        ("nested.gone", "treeshrink.nested", "no_such_function", None),))
    with spans.Tracer() as tracer:
        pass
    assert tracer.absent == ["treeshrink.nested.no_such_function"]


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    with tracer.span("reduce.probability_step"):
        with tracer.span("ot_core.barycenter_lp"):
            pass
    (_, p0, p1, _), (_, c0, c1, parent) = tracer.spans
    assert parent == 0
    got = tracer.layer_metrics()
    assert got["reduce.probability_step.self_s"] == pytest.approx((p1 - p0) - (c1 - c0))
    assert got["ot_core.barycenter_lp.calls"] == 1


def test_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "deep-lp", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_plan_cost_bound_applies_only_to_exact_solves():
    import treeshrink

    tree = treeshrink.generate_random(2, 2, seed=0)
    report = types.SimpleNamespace(final_nd=1.0, solver_log=[{"solver": "lp"}])
    assert "exceeds" in run.check(tree, tree, report, 2.0)
    assert run.check(tree, tree, report, 1.0) is None
    report.solver_log.append({"solver": "mam"})
    assert run.check(tree, tree, report, 2.0) is None
