"""Tests of the benchmark itself: tracer arithmetic, clean removal, output contract.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import subspace_bounds  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from subspace_bounds import cli, linalg, models, risksim  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _span(name, parent, start, end, search=False):
    span = tracer.Span(name, parent, start)
    span.end = end
    span.search = search
    return span


def test_self_time_subtracts_the_children_covered_part():
    # 0: search [0, 10) with children 1 [1, 4) and 2 [5, 9); 1 has child 3 [2, 3);
    # 4: a solve outside any search [10, 12).
    spans = [
        _span("bounds.optimize_delta", -1, 0.0, 10.0, search=True),
        _span("bounds.hs_lower_bound", 0, 1.0, 4.0),
        _span("bounds.hs_lower_bound", 0, 5.0, 9.0),
        _span("bounds.substochastic_max", 1, 2.0, 3.0),
        _span("bounds.substochastic_max", -1, 10.0, 12.0),
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 4.0, 1.0, 2.0]
    metrics = tracer.layer_metrics(spans, ops=2)
    assert metrics["bounds.optimize_delta.self_s"] == 1.5
    assert metrics["bounds.hs_lower_bound.calls"] == 1.0
    assert metrics["bounds.hs_lower_bound.self_s"] == 3.0
    assert metrics["bounds.substochastic_max.calls"] == 1.0
    assert metrics["bounds.solves_per_search"] == 1.0


def test_overlapping_children_are_covered_once():
    spans = [
        _span("cli.main", -1, 0.0, 10.0),
        _span("linalg.sym_eig", 0, 1.0, 5.0),
        _span("linalg.sym_eig", 0, 3.0, 6.0),
        _span("linalg.sym_eig", 0, 9.0, 12.0),
    ]
    assert tracer.self_times(spans)[0] == 10.0 - 5.0 - 1.0


def _bindings():
    names = {}
    for mod in tracer._package_modules(tracer.PACKAGE):
        for attr, value in vars(mod).items():
            if callable(value) and getattr(value, "__module__", "").startswith("subspace_bounds"):
                names[mod.__name__, attr] = value
    names["RngStream", "generator"] = models.RngStream.__dict__["generator"]
    return names


def test_tracer_restores_every_original_binding():
    before = _bindings()
    assert risksim.sym_eig is linalg.sym_eig
    config = risksim.SimConfig(
        models.CovModel(models.Spectrum([4.0, 3.0, 1.0, 0.5], 2), 50), "hs_squared", 4, 1
    )
    with tracer.Tracer() as active:
        assert risksim.sym_eig is not before["subspace_bounds.risksim", "sym_eig"]
        assert risksim.sym_eig.__wrapped__ is before["subspace_bounds.linalg", "sym_eig"]
        traced = risksim.bayes_risk(config)
        assert cli.main(["verify", "derivatives", "--p", "4", "--trials", "1"]) == 0
    assert _bindings() == before
    assert all(_bindings()[key] is value for key, value in before.items())
    assert subspace_bounds.risksim.sym_eig is subspace_bounds.linalg.sym_eig
    assert risksim.bayes_risk(config) == traced
    names = {span.name for span in active.spans}
    assert {"risksim.bayes_risk", "linalg.sym_eig", "models.RngStream.generator", "cli.main"} <= names
    assert {"linalg.skew_exp", "equivariance.dP_dir", "equivariance.dv_dir"} <= names


def test_every_wrapped_name_exists():
    for name in tracer.SPAN_NAMES:
        layer, _, attr = name.partition(".")
        owner = sys.modules[f"subspace_bounds.{layer}"]
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_gives_identical_op_inputs(tmp_path, name):
    def inputs(seed):
        ops = workloads.WORKLOADS[name](str(tmp_path)).cycle(seed)
        return json.dumps([[op.label, op.fn, op.spec] for op in ops], sort_keys=True)

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def test_warm_up_never_runs_the_known_failure(tmp_path):
    known = "delta search denoise exp:0.1,150 sigma=0.1"
    for seed in range(30):
        ops = workloads.WORKLOADS["bound_search"](str(tmp_path)).cycle(seed)
        assert known in [op.label for op in ops]
        assert known not in [op.label for op in workloads.Workload.warm_up_ops(ops)]


def test_workload_names_match_benchmark_json():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def _run(cwd, *args):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_are_the_ones_in_benchmark_json(trace, section):
    proc = _run(ROOT, "--workload", "verify", "--seed", "3", "--seconds", "0.3", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == declared


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(str(tmp_path), "--workload", "mc_risk", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
