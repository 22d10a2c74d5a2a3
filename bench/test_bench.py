"""The benchmark's own checks.  Run from the repository root with

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

It takes a few minutes: every workload runs twice with tracing on.
"""

import importlib.util
import json
import subprocess
import sys

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
EXACT_SUFFIXES = (".calls", ".evaluated", ".nonzero", ".chars", ".built",
                  ".cech_bundles")
SEEDS = (1, 5)  # each workload starts with a different call


def reference(workload):
    return json.loads(run.reference_path(workload).read_text())


@pytest.fixture(scope="module")
def traced():
    """Two traced processes per workload, in different call orders."""
    return {w: [run.spawn(w, seed, trace=True) for seed in SEEDS]
            for w in run.WORKLOADS}


def test_benchmark_json_lists_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == \
        ["wall_norm_s", "cpu_norm_s", "peak_rss_mb", "setup_s"]
    assert len(set(PER_LAYER)) == len(PER_LAYER)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_changes_order_but_not_records_or_counts(traced, workload):
    first, second = traced[workload]
    assert first["order"] != second["order"]
    assert first["records"] == second["records"] == reference(workload)
    for metric in PER_LAYER:
        if metric.endswith(EXACT_SUFFIXES):
            assert run.per_layer_value(metric, first["trace"]) == \
                run.per_layer_value(metric, second["trace"]), metric
    assert first["trace"]["counts"] == second["trace"]["counts"]
    assert {k: v[0] for k, v in first["trace"]["stats"].items()} == \
        {k: v[0] for k, v in second["trace"]["stats"].items()}


def test_every_per_layer_metric_is_measured_somewhere(traced):
    seen = {metric for runs in traced.values() for metric in PER_LAYER
            if run.per_layer_value(metric, runs[0]["trace"])}
    assert set(PER_LAYER) - seen == {"trace.overhead_s"}


def test_layers_separate_across_workloads(traced):
    def value(workload, metric):
        return run.per_layer_value(metric, traced[workload][0]["trace"])

    assert value("forms-tower", "encech.h0_char.evaluated") == 0
    assert value("forms-tower", "sheaf.coh_cech_oracle.calls") == 0
    assert value("cech-audit", "polyring.groebner.calls") == 0
    assert value("cech-audit", "encech.h0_char.evaluated") == 0
    assert value("verify-all", "encech.h0_char.evaluated") > 50_000
    for workload in run.WORKLOADS:
        assert value(workload, "linalg.Echelon.reduce.calls") > 0


def _acceptance_module():
    spec = importlib.util.spec_from_file_location(
        "test_acceptance", run.ROOT / "tests" / "test_acceptance.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reference_agrees_with_the_acceptance_pins():
    """The frozen records repeat the numbers tests/test_acceptance.py pins:
    test_03's K1 dims, test_06's _H0_TABLE and test_04's K4 dims."""
    checks = reference("verify-all")
    assert checks["k1"]["dims"] == {
        "source": {"1": 0, "2": 10, "3": 35, "4": 81, "5": 154},
        "target": {"1": 0, "2": 4, "3": 19, "4": 51, "5": 106}}
    h0 = {tuple(map(int, k.split(",")[1:])): tuple(v)
          for k, v in checks["h0-surj"]["dims"].items()
          if k.startswith("quotient,")}
    assert h0 == _acceptance_module()._H0_TABLE
    k4 = checks["k4"]["dims"]["system"]
    assert k4 == {"1": 0, **{str(n): 1 for n in range(2, 6)}}
    deep = reference("forms-tower")["compute_K4(8)"]["dims"]
    assert deep == {"1": 0, **{str(n): 1 for n in range(2, 9)}}


def test_wrappers_rebind_every_namespace_and_keep_lru_methods():
    script = """
import layertrace
from segrecone import encech, ktheory, linalg
tracer = layertrace.Tracer()
tracer.install()
assert ktheory.global_sections is encech.global_sections
assert ktheory.verify_H0_surjection is encech.verify_H0_surjection
encech.set_box_pad(5)  # clears the global_sections cache
encech.set_box_pad(4)
encech.global_sections("omega", 0, 1)
encech.global_sections("omega", 0, 1)
assert encech.global_sections.cache_info().hits == 1
linalg.Echelon().add({0: 1})
snap = tracer.snapshot()
assert snap["stats"]["linalg.Echelon.add"][0] >= 1
assert snap["stats"]["linalg.Echelon.reduce"][0] >= 1
assert snap["stats"]["encech.global_sections"][0] == 2
"""
    subprocess.run([sys.executable, "-c", script], check=True,
                   cwd=run.BENCH, env={"PYTHONPATH": str(run.ROOT / "src")})


def test_install_refuses_a_missing_target():
    script = """
import layertrace
from segrecone import linalg
reduce = linalg.Echelon.reduce
layertrace.TARGETS += ("linalg.no_such_function",)
try:
    layertrace.Tracer().install()
except LookupError as exc:
    assert "linalg.no_such_function" in str(exc)
else:
    raise AssertionError("install() accepted a missing target")
assert linalg.Echelon.reduce is reduce  # nothing was wrapped
"""
    subprocess.run([sys.executable, "-c", script], check=True,
                   cwd=run.BENCH, env={"PYTHONPATH": str(run.ROOT / "src")})
