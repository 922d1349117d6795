"""Self-test of the benchmark on tiny inputs.

Every workload runs on two seeds, once traced and once untraced; every
output check must pass and every metric named in BENCHMARK.json must be
emitted.  Run with ``python -m pytest perfbench``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

# per workload: per-layer metrics that must be non-zero on it, and ones that must be zero
EXERCISED = {
    "torus_uniform": (["layout.layout.s", "layout.kites", "jsonio.dumps.bytes",
                       "solver.linsolve.euclidean.calls", "cli.solve.s", "cli.layout.s"],
                      ["solver.linsolve.hyperbolic.calls", "cli.check.s"]),
    "torus_random": (["solver.linsolve.euclidean.calls", "solver.linsolve.hyperbolic.calls",
                      "feasibility.flow.s", "specfun.im_li2_dx.elements"],
                     ["layout.layout.s", "cli.layout.s"]),
    "torus_infeasible": (["feasibility.flow.calls", "feasibility.flows_per_verdict",
                          "cli.check.s"],
                         ["solver.minimize.s", "layout.layout.s"]),
    "sphere_pack": (["spherical.solve_sphere.calls", "spherical.reduce_to_plane.calls",
                     "surface.medial.s", "surface.from_walks.calls", "cli.pack.s"],
                    ["cli.solve.s"]),
}


def _run(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stderr
    return result["metrics"]


def test_benchmark_json_lists_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} \
        == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} \
        == {name: entry[:2] for name, entry in metrics.PER_LAYER.items()}


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run(workload):
    e2e = _result(_run(workload, 2, 0))
    assert set(e2e) == set(metrics.END_TO_END)
    assert e2e["ok_ratio"]["value"] == 1.0
    assert all(e2e[name]["value"] > 0 for name in e2e)

    layers = _result(_run(workload, 1, 1))
    assert set(layers) == set(metrics.PER_LAYER)
    nonzero, zero = EXERCISED[workload]
    assert [name for name in nonzero if layers[name]["value"] <= 0] == []
    assert [name for name in zero if layers[name]["value"] != 0] == []

    with open(os.path.join(ROOT, ".perfbench_out", f"{workload}-seed1-trace1.json")) as fh:
        spans = json.load(fh)["spans"]
    assert spans
    # children lie inside their parent and do not overlap, so a command's
    # self time plus its child spans is exactly its traced wall time
    last_end = {}
    for i, span in enumerate(spans):
        assert span["start"] <= span["end"]
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            assert span["start"] >= last_end.get(span["parent"], parent["start"])
            assert span["command"] == parent["command"]
            last_end[span["parent"]] = span["end"]
    assert layers["cli.self_s"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("torus_uniform", 1, 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_tracer_records_outermost_dumps_and_restores_modules():
    from circlepatterns import cli, jsonio, layout
    original = jsonio.dumps, cli.find_coherent_angle_system, layout.export_json
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.find_coherent_angle_system is not original[1]
        assert layout.jsonio.dumps is not original[0]
        tracer.enabled = True
        text = jsonio.dumps({"a": [1.0, {"b": [2, 3]}], "c": "d"}, indent=2)
    finally:
        tracer.uninstall()
    assert (jsonio.dumps, cli.find_coherent_angle_system, layout.export_json) == original
    assert [(s.name, s.count) for s in tracer.spans] == [("jsonio.dumps", len(text))]
