"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/selftest.py

They check the generators, the tracer and the traced metrics against
BENCHMARK.json; they do not time anything.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

FPK, IMPORT_S = run.import_fpkproj()
PER_LAYER = {m["name"]: m["unit"] for m in
             json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["per_layer"]}
COUNT_METRICS = [name for name, unit in PER_LAYER.items()
                 if unit in ("count", "count_computed", "bytes")]


def _work(workload, tmp_path, seed=workloads.DEFAULT_SEED):
    cases = workloads.generate(workload, seed)
    return run.Workload(FPK, cases, run.setup_scenarios(FPK, cases), tmp_path / workload)


def _traced_metrics(workload, tmp_path):
    cases = workloads.generate(workload, workloads.DEFAULT_SEED)
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        scenarios = run.setup_scenarios(FPK, cases, tracer)
    finally:
        tracing.uninstall(patches)
    work = run.Workload(FPK, cases, scenarios, tmp_path)
    metrics, _ = run.run_traced(work, 0.0, tracer, tracer.aggregate(), IMPORT_S)
    return metrics, cases


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_mappings(workload):
    first = [case.raw for case in workloads.generate(workload, 7)]
    assert first == [case.raw for case in workloads.generate(workload, 7)]
    assert first != [case.raw for case in workloads.generate(workload, 8)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_scenarios_validate(workload, seed):
    for case in workloads.generate(workload, seed):
        FPK.validate_scenario(copy.deepcopy(case.raw))


def _bindings():
    out = {}
    for name, module in sys.modules.items():
        if name == "fpkproj" or name.startswith("fpkproj."):
            out.update({(name, k): v for k, v in vars(module).items()})
            for k, v in vars(module).items():
                if isinstance(v, type) and v.__module__ == name:
                    out.update({(name, k, a): f for a, f in vars(v).items()})
    return out


def test_uninstall_restores_every_binding():
    before = _bindings()
    patches = tracing.install(tracing.Tracer())
    assert len(patches) > len(tracing.TARGETS)
    assert FPK.runner.solve_fpk is not before[("fpkproj.reference", "solve_fpk")]
    tracing.uninstall(patches)
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_time_accounts_for_the_traced_wall(workload, tmp_path):
    work = _work(workload, tmp_path)
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        wall = work.run_pass()
    finally:
        tracing.uninstall(patches)
    agg = tracer.aggregate()
    assert (agg["self_times"] <= agg["durations"]).all()
    for span in agg["spans"].values():
        assert span["self_s"] <= span["total_s"] + 1e-12
    covered = float(agg["self_times"].sum())
    assert covered <= wall
    # the gap is the benchmark's loop plus the wrappers' own bookkeeping
    assert wall - covered <= 0.05 * wall


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_metrics_match_benchmark_json_and_repeat(workload, tmp_path):
    first, cases = _traced_metrics(workload, tmp_path / "a")
    second, _ = _traced_metrics(workload, tmp_path / "b")
    assert set(first) | {"check.max_err"} == set(PER_LAYER)
    assert all(first[name][1] == PER_LAYER[name] for name in first)
    for name in COUNT_METRICS:
        assert first[name][0] == second[name][0], name
    steps = workloads.step_counts(cases)
    assert first["projection.rk4_steps"][0] == steps["rk4_steps"]
    assert first["reference.cn_steps"][0] == steps["cn_steps"]
    if workload == "mixture_flow":
        assert first["expfamily.ExpFamily.expectation_to_canonical.calls"][0] == 0
