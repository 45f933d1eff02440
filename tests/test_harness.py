"""Scenario schema, overrides, runner outputs, and the command line."""

import csv
import dataclasses
import gc
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fpkproj import (
    DifferentiableFn,
    circle_diffusion,
    default_domain,
    divergence_kl,
    ep_family,
    gaussian_pdf_fn,
    grid_density,
    load_scenario,
    ornstein_uhlenbeck,
    run_scenario,
    solve_fpk,
    validate_scenario,
)
from fpkproj import reference as reference_module
from fpkproj import runner as runner_module
from fpkproj import scenario as scenario_module
from fpkproj.cli import main as cli_main
from fpkproj.errors import ValidationError
from fpkproj.expfamily import ExpFamily
from fpkproj.functions import cosine_series_pdf_fn
from fpkproj.mixture import MixtureFamily, gaussian_mixture_family
from fpkproj.projection import MAX_STEPS, whole_steps
from fpkproj.quadrature import MIN_LEVEL
from fpkproj.reference import GridDensity
from fpkproj.runner import (
    ResultTable,
    format_value,
    trajectory_header,
    write_csv,
    write_density_csv,
)
from fpkproj.scenario import (
    DENSITIES,
    FAMILIES,
    METHODS,
    MODELS,
    apply_overrides,
    build_family,
    build_initial_density,
    build_model,
    build_reference_start,
    build_run,
    scenario_domain,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def base_raw():
    return {
        "name": "unit",
        "method": "ada-ef",
        "model": {"type": "ou", "kappa": 1.0, "sigma": 1.4142135623730951},
        "family": {"type": "ep", "n": 2},
        "numerics": {"t_end": 0.1, "ode_dt": 0.01, "sample_stride": 5},
        "initial": {"eta": [0.5, 1.25]},
    }


def test_valid_scenario_passes():
    sc = validate_scenario(base_raw())
    assert sc.name == "unit"
    assert sc.numerics.t_end == 0.1


def test_missing_t_end_is_reported():
    raw = base_raw()
    del raw["numerics"]["t_end"]
    with pytest.raises(ValidationError, match="numerics.t_end required"):
        validate_scenario(raw)


def test_unknown_key_is_reported_with_section():
    raw = base_raw()
    raw["numerics"]["dt"] = 0.1
    with pytest.raises(ValidationError, match="unknown key 'dt' in numerics"):
        validate_scenario(raw)


def test_method_family_compatibility():
    raw = base_raw()
    raw["method"] = "tangent-mix"
    with pytest.raises(ValidationError, match="method/family mismatch"):
        validate_scenario(raw)


def test_initial_requirements_per_method():
    raw = base_raw()
    raw["method"] = "tangent-ef"
    with pytest.raises(ValidationError):
        validate_scenario(raw)
    raw["initial"] = {"theta": [0.5, -0.5]}
    validate_scenario(raw)


def test_cosine_family_requires_circle_model():
    raw = base_raw()
    raw["method"] = "ada-mix"
    raw["family"] = {"type": "cosine-circle", "harmonics": [1, 2]}
    raw["initial"] = {"theta": [0.2, 0.1]}
    with pytest.raises(ValidationError):
        validate_scenario(raw)


def test_numeric_strings_are_coerced():
    raw = base_raw()
    raw["numerics"]["ode_dt"] = "1e-2"
    sc = validate_scenario(raw)
    assert sc.numerics.ode_dt == 0.01
    for bad in (float("inf"), float("nan"), "inf"):
        raw["numerics"]["t_end"] = bad
        with pytest.raises(ValidationError, match="numerics.t_end must be a finite number"):
            validate_scenario(raw)


def test_apply_overrides_nested_and_typed():
    raw = base_raw()
    out = apply_overrides(raw, ["numerics.t_end=0.5", "model.kappa=2.0"])
    assert out["numerics"]["t_end"] == 0.5
    assert out["model"]["kappa"] == 2.0


def test_all_shipped_scenarios_validate():
    paths = sorted(SCENARIO_DIR.glob("*.yaml"))
    assert len(paths) >= 8
    for path in paths:
        sc = load_scenario(path)
        assert sc.name == path.stem
        # every shipped start is resolved on the smallest level
        assert build_family(sc, scenario_domain(sc))[0].rule.npoints == 2 ** MIN_LEVEL + 1


GAUSS = {"type": "ep", "n": 2}


@pytest.mark.parametrize("method, family, initial, level", [
    ("tangent-ef", GAUSS, {"theta": [0.0, -10.0]}, 8),  # variance 0.05
    ("tangent-ef", GAUSS, {"theta": [0.0, -25.0]}, 9),  # variance 0.02
    ("tangent-ef", GAUSS, {"theta": [0.0, -50.0]}, 10),  # variance 0.01
    # an eta start on the Gaussians is mapped in closed form
    ("ada-ef", {"type": "hermite", "indices": [1, 2]}, {"eta": [0.0, -0.99]}, 10),
    ("metric-projection", GAUSS, {"density": {"type": "gaussian", "var": 0.01}}, 10),
    # on 257 nodes the narrow component misses its mass, on 513 its Gram entries
    ("tangent-mix", {"type": "gaussian-mixture", "means": [-1.0, 0.0, 1.0],
                     "variances": [0.003, 0.5, 0.5]}, {"theta": [0.3, 0.3]}, 11),
])
def test_quadrature_level_is_the_smallest_that_resolves_the_start(method, family, initial,
                                                                  level):
    raw = {"name": "narrow", "method": method, "model": {"type": "ou"}, "family": family,
           "numerics": {"t_end": 0.01}, "initial": initial}
    sc = validate_scenario(raw)
    assert build_family(sc, scenario_domain(sc))[0].rule.npoints == 2 ** level + 1


@pytest.mark.parametrize("theta, calls", [
    (None, 1),  # the shipped start, resolved on the smallest level
    ([0.0, -25.0], 2),  # variance 0.02: level 9
])
def test_build_run_builds_the_start_once_per_level_tried(theta, calls, monkeypatch):
    raw = yaml.safe_load((SCENARIO_DIR / "ou_ep2_tangent.yaml").read_text())
    if theta is not None:
        raw["initial"] = {"theta": theta}
    sc = validate_scenario(raw)
    made = []
    flow_start = scenario_module._flow_start
    monkeypatch.setattr(scenario_module, "_flow_start",
                        lambda *args: made.append(args) or flow_start(*args))
    _, family, _, start = build_run(sc)
    assert len(made) == calls and made[-1][1] is family
    assert family.rule.npoints == 2 ** (MIN_LEVEL + calls - 1) + 1
    assert start.tolist() == (theta or raw["initial"]["theta"])


@pytest.mark.parametrize("command, overrides, code", [
    ("validate", ["numerics.quadrature_level=4"], 2),
    # kappa 4 and sigma 0.5 narrow the flow to variance 1/32, beyond what 257 nodes resolve
    ("run", ["model.kappa=4", "model.sigma=0.5"], 3),
])
def test_under_resolved_quadrature_is_refused_by_name(tmp_path, capsys, command, overrides,
                                                      code):
    args = [command, str(SCENARIO_DIR / "ou_ep2_tangent.yaml")]
    args += [arg for item in overrides for arg in ("--override", item)]
    args += ["--output-dir", str(tmp_path), "--quiet"] if command == "run" else []
    assert cli_main(args) == code
    err = capsys.readouterr().err
    assert "UnderResolvedQuadrature" in err and "raise numerics.quadrature_level" in err
    # neither density reaches the ends of the domain, so a wider one would not help
    assert "widen numerics.domain" not in err
    if command == "run":
        assert cli_main([*args, "--override", "numerics.quadrature_level=10"]) == 0


SPREADING = "model={type: polynomial-drift, coefficients: [0, 1], diffusion: 2.0}"


@pytest.mark.parametrize("name, overrides, code, widen", [
    # the unstable drift x spreads the flow until its density reaches the ends of
    # [-12, 12], where the trapezoid rule converges only as h^2
    ("ou_ep2_tangent.yaml", [SPREADING], 3, True),
    ("ou_ep2_tangent.yaml", [SPREADING, "numerics.quadrature_level=12"], 3, True),
    # the circle has no ends to widen
    ("circle_ada.yaml", ["family.harmonics=[2,3]", "numerics.quadrature_level=3"], 2, False),
    ("circle_decay.yaml", ["family.harmonics=[2,3]", "numerics.quadrature_level=3"], 2, False),
], ids=["spreading", "spreading-level-12", "circle-ada", "circle-decay"])
def test_under_resolved_advice_names_the_domain_where_the_density_reaches_its_ends(
        tmp_path, capsys, name, overrides, code, widen):
    args = ["run", str(SCENARIO_DIR / name), "--output-dir", str(tmp_path), "--quiet"]
    args += [arg for item in overrides for arg in ("--override", item)]
    assert cli_main(args) == code
    err = capsys.readouterr().err
    assert "raise numerics.quadrature_level" in err
    assert ("widen numerics.domain" in err) == widen
    if widen:
        assert cli_main([*args, "--override", "numerics.domain=[-30,30]"]) == 0


def test_negative_reference_density_names_the_step_size(tmp_path, capsys):
    # the stiff quartic-potential drift -50 x^3 sends Crank-Nicolson below zero
    # in the first step of 1e-3 on 2001 nodes
    args = ["run", str(SCENARIO_DIR / "ou_metric_projection.yaml"),
            "--override", "model={type: polynomial-drift, coefficients: [0, 0, 0, -50], "
                          "diffusion: 1.0}",
            "--override", "numerics.pde_nx=2001", "--output-dir", str(tmp_path), "--quiet"]
    assert cli_main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("SchemeInstability: density dropped to ")
    assert "at step 1 with dt = 0.001; reduce numerics.pde_dt" in err


def test_a_reference_start_partly_outside_the_domain_is_refused(tmp_path, capsys):
    # 16% of N(11, 1) lies beyond x = 12, and the reference normalized the rest: every
    # divergence compared the flow with that truncated start
    args = ["run", str(SCENARIO_DIR / "gauss_mix_tangent.yaml"),
            "--override", "initial.density={type: gaussian, mean: 11.0, var: 1.0}",
            "--output-dir", str(tmp_path), "--quiet"]
    assert cli_main(args) == 2
    assert capsys.readouterr().err == (
        "validation error: initial.density: mass 0.841337 on the 1201-node reference grid "
        "misses 1 by more than 1e-08; widen numerics.domain or raise numerics.pde_nx\n")
    assert not (tmp_path / "trajectory.csv").exists()
    assert cli_main([*args, "--override", "numerics.domain=[-12, 20]"]) == 0


def test_the_reference_start_is_sampled_once(monkeypatch):
    sc = validate_scenario(yaml.safe_load((SCENARIO_DIR / "gauss_mix_tangent.yaml").read_text()))
    model = build_model(sc, scenario_domain(sc))
    calls = []
    density = build_initial_density(sc.initial["density"])
    counted = DifferentiableFn(lambda x: calls.append(1) or density(x), density.d1, density.d2)
    monkeypatch.setattr(scenario_module, "build_initial_density", lambda spec: counted)
    p0 = build_reference_start(sc, model)
    assert len(calls) == 1
    want = grid_density(model.domain, sc.numerics.pde_nx, density)
    assert p0.values.tobytes() == want.values.tobytes()


def test_unstable_closed_ada_ef_flow_exits_3_without_warnings(tmp_path, capsys):
    # RK4 at dt = 1e-3 on the drift 400 x multiplies eta_2 about 2.2-fold a step, so
    # the moments overflow before t = 1: the block product warned, and the row at
    # t = 1 was written with eta = (-inf, inf) and the start's theta
    args = ["run", str(SCENARIO_DIR / "ou_ep2_ada.yaml"),
            "--override", "model={type: polynomial-drift, coefficients: [0, 400], "
                          "diffusion: 2.0}",
            "--override", "numerics.sample_stride=1000",
            "--output-dir", str(tmp_path), "--quiet"]
    assert cli_main(args) == 3
    assert capsys.readouterr().err == ("TrajectoryExit: rhs failed at step 1000: "
                                       "moments must be finite\n")
    assert not (tmp_path / "trajectory.csv").exists()


def test_overflowing_reference_bands_exit_3_without_warnings(tmp_path, capsys):
    # the Scharfetter-Gummel bands of f = -1e306 x overflow in alpha / vol; the run
    # printed five RuntimeWarnings (a traceback under -W error::RuntimeWarning, as
    # here) before a singular Crank-Nicolson matrix
    args = ["run", str(SCENARIO_DIR / "ou_metric_projection.yaml"),
            "--override", "model={type: polynomial-drift, coefficients: [0, -1e306], "
                          "diffusion: 2.0}",
            "--output-dir", str(tmp_path), "--quiet"]
    assert cli_main(args) == 3
    err = capsys.readouterr().err
    assert err == ("SchemeInstability: the reference operator's bands (lower, diag, upper) are "
                   "not finite, first at the face x = -11.99: the drift overflows the "
                   "Scharfetter-Gummel fluxes\n")


@pytest.mark.parametrize("name", ["gauss_mix_tangent.yaml", "ou_metric_projection.yaml"])
def test_reference_rows_read_the_member_off_the_grid_table(name, tmp_path, monkeypatch):
    # the divergence columns take each row's member from the family's table of its
    # statistics or components on the reference grid, not from a function tree, and
    # write the bytes that the function tree gives
    scenario = load_scenario(SCENARIO_DIR / name)
    ef_density, mix_density = ExpFamily.density, MixtureFamily.density
    with monkeypatch.context() as patch:
        patch.setattr(ExpFamily, "density_at",
                      lambda self, x, theta, psi=None: ef_density(self, theta)(x))
        patch.setattr(MixtureFamily, "density_at",
                      lambda self, x, theta: mix_density(self, theta)(x))
        run_scenario(scenario, tmp_path / "functions", quiet=True)

    def refuse(*args):
        raise AssertionError("a row built its member as a function")

    monkeypatch.setattr(ExpFamily, "density", refuse)
    monkeypatch.setattr(MixtureFamily, "density", refuse)
    run_scenario(scenario, tmp_path / "tables", quiet=True)
    written = sorted(path.name for path in (tmp_path / "tables").iterdir())
    assert written == sorted(path.name for path in (tmp_path / "functions").iterdir())
    for file_name in written:
        assert ((tmp_path / "tables" / file_name).read_bytes()
                == (tmp_path / "functions" / file_name).read_bytes())


# each of these passed `fpkproj validate` and then failed `fpkproj run`
@pytest.mark.parametrize("name, override", [
    ("ou_hermite_decay.yaml", "family.indices=[1,3]"),
    ("gauss_mix_tangent.yaml", "family.variances=[0.5,0.0,0.5]"),
    ("circle_ada.yaml", "family.harmonics=[0,1]"),
    ("ou_hermite_decay.yaml", "numerics.pde_dt=0.3"),
    ("ou_metric_projection.yaml", "initial.density.means=[100,101]"),
    ("ou_ep2_tangent.yaml", "numerics.ode_dt=0.003"),
    ("circle_ada.yaml", "family.harmonics=[1,1]"),
    ("ou_ep2_ada.yaml", "numerics.domain=[-1e80,1e80]"),
    # these also printed numpy overflow warnings, or ended in a traceback
    # under -W error::RuntimeWarning
    ("ou_ep2_ada.yaml", "numerics.domain=[-1e200,1e200]"),
    ("gauss_mix_tangent.yaml", "numerics.domain=[-1e200,1e200]"),
    ("cubic_ep2_residual.yaml", "numerics.domain=[-1e200,1e200]"),
    ("ou_ep2_ada.yaml", "numerics.domain=[-1e308,1e308]"),
    ("gauss_mix_tangent.yaml", "numerics.domain=[-1e308,1e308]"),
    ("cubic_ep2_residual.yaml", "numerics.domain=[-1e308,1e308]"),
    # starts outside the admissible set, refused when the start is built
    ("ou_ep2_tangent.yaml", "initial.theta=[0.5,0.5]"),
    ("circle_ada.yaml", "initial.theta=[0.7,0.6]"),
    ("circle_ada.yaml", "initial={m: [5, 5]}"),
])
def test_validate_rejects_what_run_cannot_build(name, override, capsys):
    assert cli_main(["validate", str(SCENARIO_DIR / name), "--override", override]) == 2
    assert "validation error" in capsys.readouterr().err


# what `validate` prints for a start it refuses: the start's own key names
# the error, and the family only an estimate that the family's rule misses
@pytest.mark.parametrize("name, override, message", [
    ("ou_ep2_tangent.yaml", "initial.theta=[0.5,0.5]", "initial.theta: InadmissibleParameter: "
     "leading coefficient must be negative, got theta_n = 0.5"),
    ("ou_ep2_tangent.yaml", "initial.theta=[0.5]",
     "initial.theta must have length 2 (family dimension)"),
    ("ou_ep2_tangent.yaml", "numerics.quadrature_level=4",
     "family: UnderResolvedQuadrature: initial.theta: embedded quadrature error estimate "
     "6.43e-01 exceeds 1e-10 at level 4 (17 nodes); raise numerics.quadrature_level"),
    ("circle_ada.yaml", "initial={m: [5, 5]}",
     "initial.m: InadmissibleRecovery: recovered weights leave the open simplex"),
    ("ou_metric_projection.yaml", "initial.density.means=[0.0]",
     "initial.density: need one mean and one variance per weight"),
])
def test_validate_names_the_start_it_refuses(name, override, message, capsys):
    assert cli_main(["validate", str(SCENARIO_DIR / name), "--override", override]) == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"


@pytest.mark.parametrize("name, override, key", [
    # the run died with an OverflowError traceback in sample_steps
    ("ou_ep2_ada.yaml", "numerics.ode_dt=1e-300", "numerics.t_end"),
    # validate itself ended in that traceback
    ("ou_metric_projection.yaml", "numerics.pde_dt=1e-300", "numerics.t_end"),
])
def test_step_counts_no_run_can_take_are_refused(name, override, key, capsys):
    assert cli_main(["validate", str(SCENARIO_DIR / name), "--override", override]) == 2
    assert capsys.readouterr().err == (
        f"validation error: {key} (1) is 1e+300 steps of 1e-300, more than the "
        f"{MAX_STEPS} a grid may take\n")


def test_sample_strides_longer_than_any_grid_are_refused(capsys):
    # a stride of 10**400 steps ended validate in an OverflowError
    args = ["validate", str(SCENARIO_DIR / "ou_hermite_decay.yaml"),
            "--override", f"numerics.sample_stride={10 ** 400}"]
    assert cli_main(args) == 2
    assert capsys.readouterr().err == (
        f"validation error: numerics.sample_stride must be between 1 and {MAX_STEPS}\n")


def test_the_step_bound_is_counted_before_anything_is_allocated():
    assert whole_steps(1.0, 1.0 / MAX_STEPS, "t_end") == MAX_STEPS
    for steps, count in ((MAX_STEPS + 1, "10000001"), (10 ** 9, "1e+09"), (10 ** 18, "1e+18")):
        with pytest.raises(ValidationError, match=re.escape(f"t_end (1) is {count} steps of ")):
            whole_steps(1.0, 1.0 / steps, "t_end")


# the command's exit code and peak RSS in KiB, from a fresh wrapper whose one child it
# is; the child's address space is capped at 2 GiB (BLAS on one thread), so that a run
# the budget lets through ends in a MemoryError instead of exhausting the machine
_CHILD_PEAK = (
    "import os, resource, subprocess, sys\n"
    "def cap():\n"
    "    resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))\n"
    "res = subprocess.run([sys.executable, '-m', 'fpkproj', *sys.argv[1:]],"
    " capture_output=True, text=True, preexec_fn=cap,"
    " env={**os.environ, 'OPENBLAS_NUM_THREADS': '1', 'OMP_NUM_THREADS': '1'})\n"
    "print(res.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    "sys.stderr.write(res.stderr)\n")


@pytest.mark.parametrize("overrides, held", [
    # validate passed this at 78 MB; its run keeps 1001 snapshots of 10**6 nodes, 8 GB
    (["numerics.pde_nx=1000000"],
     f"{1001 * (512 + 8 * 10 ** 6) + 1001 * 160 * 10} bytes in 1001 reference snapshots of "
     f"numerics.pde_nx = 1000000 nodes (numerics.sample_stride = 1), 1001 result rows"),
    # 10**7 steps: listing the snapshot times before counting them peaked at 0.8 GB
    (["numerics.pde_dt=1e-7", "numerics.pde_nx=101"],
     f"{10000001 * (512 + 8 * 101 + 160 * 10)} bytes in 10000001 reference snapshots of "
     f"numerics.pde_nx = 101 nodes (numerics.sample_stride = 1), 10000001 result rows"),
], ids=["nodes", "steps"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_runs_holding_more_than_the_byte_budget_are_refused_before_sampling(
        command, overrides, held, tmp_path):
    args = [command, str(SCENARIO_DIR / "ou_metric_projection.yaml"),
            "--override", "numerics.sample_stride=1"]
    for override in overrides:
        args += ["--override", override]
    if command == "run":
        args += ["--quiet", "--output-dir", str(tmp_path)]
    out = subprocess.run([sys.executable, "-c", _CHILD_PEAK, *args],
                         capture_output=True, text=True, check=True)
    status, peak_kib = map(int, out.stdout.split())
    assert status == 2
    assert peak_kib < 100 * 1024
    assert out.stderr == (
        f"validation error: the run would hold {held} of 10 cells, "
        f"more than the {scenario_module.MAX_HELD_BYTES} (MAX_HELD_BYTES) a run may hold\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("name, held, what", [
    # the times of 1001 steps, 2048 block powers of 3 x 3 floats, and 21 rows of 10 cells
    ("ou_ep2_tangent.yaml", 8 * (1001 + 2048 * 9) + 21 * 160 * 10, "a trajectory of 1001 steps"),
    # 201 snapshots reduced to their moments, not kept at 1201 nodes, the trajectory
    # and a row per snapshot
    ("ou_hermite_decay.yaml", 201 * 512 + 8 * (2001 + 2048 * 9) + 201 * 160 * 10,
     "201 reference snapshots (numerics.sample_stride = 10), a trajectory of 2001 steps"),
    # 11 snapshots of 1201 nodes and their rows, and no trajectory
    ("ou_metric_projection.yaml", 11 * (512 + 8 * 1201) + 11 * 160 * 10,
     "11 reference snapshots of numerics.pde_nx = 1201 nodes"),
    # a snapshot at each of the 21 rows, and the trajectory
    ("gauss_mix_tangent.yaml", 21 * (512 + 8 * 1201) + 8 * (1001 + 2048 * 9) + 21 * 160 * 10,
     "21 reference snapshots"),
], ids=["tangent-ef", "decay-experiment", "metric-projection", "attached-reference"])
def test_the_byte_budget_counts_whole_snapshots_and_the_trajectory(
        name, held, what, monkeypatch, capsys):
    monkeypatch.setattr(scenario_module, "MAX_HELD_BYTES", held)
    assert cli_main(["validate", str(SCENARIO_DIR / name)]) == 0
    monkeypatch.setattr(scenario_module, "MAX_HELD_BYTES", held - 1)
    capsys.readouterr()
    assert cli_main(["validate", str(SCENARIO_DIR / name)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: the run would hold {held} bytes in {what}")
    assert err.endswith(f"more than the {held - 1} (MAX_HELD_BYTES) a run may hold\n")


def _counted_bytes(scenario, monkeypatch) -> int:
    """The bytes the byte budget counts for `scenario`, read from its refusal at 0."""
    with monkeypatch.context() as patch:
        patch.setattr(scenario_module, "MAX_HELD_BYTES", 0)
        with pytest.raises(ValidationError, match="the run would hold") as err:
            build_run(scenario)
    return int(re.search(r"the run would hold (\d+) bytes", str(err.value)).group(1))


def _traced_run_peak(scenario, out_dir) -> int:
    """tracemalloc's peak over a run of `scenario` that solves its reference again, after
    a first run that loaded LAPACK and filled the family's tables."""
    run_scenario(scenario, out_dir / "first", quiet=True)
    reference_module._solved.clear()
    tracemalloc.start()
    try:
        run_scenario(scenario, out_dir / "traced", quiet=True)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# every method at sample stride 1, where the rows hold the most per step, with whole
# snapshots (metric projection, attached reference) and reduced ones (decay experiment)
_EVERY_ROW = ["numerics.sample_stride=1"]
_CUBIC = "model={type: polynomial-drift, coefficients: [0, -1, 0, -0.1], diffusion: 2.0}"
_FOUR_HARMONICS = ["family={type: cosine-circle, harmonics: [1, 2, 3, 4]}",
                   "initial.theta=[0.1, 0.1, 0.1, 0.1]"]


@pytest.mark.parametrize("name, overrides, t_end", [
    ("ou_ep2_tangent.yaml", [], 0.5),
    ("ou_ep2_tangent.yaml", ["family={type: ep, n: 4}", "initial.theta=[0, -0.5, 0, -0.001]"],
     0.25),
    ("ou_ep2_ada.yaml", [], 0.5),
    ("ou_ep2_ada.yaml", [_CUBIC, "initial.eta=[0.0, 1.0]"], 0.25),
    ("gauss_mix_tangent.yaml", ["numerics.pde_nx=201"], 0.25),
    ("circle_ada.yaml", [], 0.5),
    ("circle_ada.yaml", _FOUR_HARMONICS, 0.5),
    ("circle_galerkin.yaml", _FOUR_HARMONICS, 0.5),
    ("ou_metric_projection.yaml", ["numerics.pde_nx=201", "outputs.density_times=[0.0]"], 0.1),
    ("circle_decay.yaml", ["numerics.fit_window=[0.0, 0.1]"], 0.25),
    # a thousand steps per row, where the times outweigh the rows
    ("ou_ep2_ada.yaml", ["numerics.ode_dt=1e-5", "numerics.sample_stride=1000"], 0.5),
], ids=["tangent-ef", "tangent-ef-ep4", "closed-ada-ef", "open-ada-ef", "tangent-mix",
        "ada-mix", "ada-mix-4", "galerkin-4", "metric-projection", "decay-experiment",
        "closed-ada-ef-sparse"])
def test_a_run_holds_less_than_the_byte_budget_counts(name, overrides, t_end, tmp_path,
                                                      monkeypatch):
    # the run of twice the length must hold less than it is counted, and so must what
    # doubling the length adds: what the rows and snapshots hold beyond what every run does
    counted, peaks = [], []
    for length in (1, 2):
        scenario = load_scenario(SCENARIO_DIR / name, overrides=[
            *_EVERY_ROW, *overrides, f"numerics.t_end={length * t_end}"])
        counted.append(_counted_bytes(scenario, monkeypatch))
        peaks.append(_traced_run_peak(scenario, tmp_path / str(length)))
    assert peaks[1] < counted[1]
    assert peaks[1] - peaks[0] < counted[1] - counted[0]


@pytest.mark.parametrize("name", ["ou_ep2_ada.yaml", "circle_ada.yaml"],
                         ids=["closed-ada-ef", "ada-mix"])
def test_a_long_run_holds_its_times_and_rows_only(name, tmp_path):
    # 10**6 steps and 101 rows: the times take 8 MB, and a state kept per step
    # would take as much again per coordinate
    scenario = load_scenario(SCENARIO_DIR / name, overrides=[
        "numerics.ode_dt=1e-6", "numerics.sample_stride=10000"])
    assert _traced_run_peak(scenario, tmp_path) < 12 * 2 ** 20


# each of these validated, and the run exited 3: Newton inversion did not converge
@pytest.mark.parametrize("name, override", [
    ("ou_ep2_ada.yaml", "initial.eta=[0.5, 0.2]"),
    ("ou_hermite_decay.yaml",
     "initial={eta: [0.5, -0.9], density: {type: gaussian, mean: 0.0, var: 1.0}}"),
], ids=["EP(2)-ada-ef", "hermite(1,2)-decay"])
def test_eta_starts_that_no_gaussian_has_are_refused(name, override, capsys):
    assert cli_main(["validate", str(SCENARIO_DIR / name), "--override", override]) == 2
    assert capsys.readouterr().err == (
        "validation error: initial.eta: no Gaussian has these moments; the variance they "
        "give must be positive and finite\n")


@pytest.mark.parametrize("override", [
    "name=../escaped", "name=..", "name=sub/x", "name=.",
    # a NUL cannot be in a path: refused here, not by the operating system
    'name="a\\0b"',
])
def test_output_names_are_single_path_components(tmp_path, capsys, override):
    out = tmp_path / "run"
    args = ["run", str(SCENARIO_DIR / "ou_ep2_ada.yaml"), "--override", override,
            "--override", "numerics.t_end=0.05", "--output-dir", str(out), "--quiet"]
    assert cli_main(args) == 2
    assert capsys.readouterr().err.startswith(
        "validation error: scenario.name must be a file name")
    assert not list(tmp_path.rglob("*"))


@pytest.mark.parametrize("name, override, key", [
    ("ou_metric_projection.yaml", "outputs.trajectory=density_t0.csv", "trajectory"),
    ("ou_hermite_decay.yaml", "outputs.decay=trajectory.csv", "decay"),
])
def test_result_file_names_cannot_be_set(tmp_path, capsys, name, override, key):
    # both exited 0: the t = 0 slice overwrote trajectory.csv, and the decay
    # JSON was left in trajectory.csv
    args = ["run", str(SCENARIO_DIR / name), "--override", override,
            "--output-dir", str(tmp_path / "run"), "--quiet"]
    assert cli_main(args) == 2
    assert capsys.readouterr().err == f"validation error: unknown key {key!r} in outputs\n"
    assert not list(tmp_path.rglob("*"))


@pytest.mark.parametrize("name, overrides, files", [
    ("ou_ep2_tangent.yaml", ["numerics.t_end=0.05"], {"trajectory.csv"}),
    ("circle_galerkin.yaml", ["numerics.t_end=0.05"], {"trajectory.csv"}),
    ("ou_ep2_ada.yaml", ["numerics.t_end=0.1", "numerics.sample_stride=50",
                         "numerics.attach_reference=true", "outputs.density_times=[0.05]",
                         "initial.density={type: gaussian, mean: 0.5, var: 0.25}"],
     {"trajectory.csv", "density_t0.05.csv"}),
    ("ou_metric_projection.yaml", ["numerics.t_end=0.2", "numerics.pde_nx=601",
                                   "outputs.density_times=[0.0, 0.2]"],
     {"trajectory.csv", "density_t0.csv", "density_t0.2.csv"}),
    ("ou_hermite_decay.yaml", ["numerics.t_end=0.2", "numerics.pde_nx=601",
                               "numerics.sample_stride=20"], {"trajectory.csv", "decay.json"}),
], ids=["tangent-ef", "galerkin", "ada-ef-attached", "metric-projection", "decay"])
def test_each_method_writes_its_fixed_files(tmp_path, name, overrides, files):
    sc = load_scenario(SCENARIO_DIR / name, overrides)
    assert set(sc.outputs) == {"density_times"}
    run_scenario(sc, tmp_path, quiet=True)
    assert {p.name for p in tmp_path.iterdir()} == files


def test_plain_output_names_still_run(tmp_path):
    out = tmp_path / "runs"
    args = ["run-all", str(tmp_path / "in"), "--output-dir", str(out), "--quiet"]
    raw = yaml.safe_load((SCENARIO_DIR / "ou_ep2_ada.yaml").read_text())
    raw["name"] = "plain.name"
    raw["numerics"]["t_end"] = 0.05
    (tmp_path / "in").mkdir()
    (tmp_path / "in" / "scenario.yaml").write_text(yaml.safe_dump(raw))
    assert cli_main(args) == 0
    assert [p.relative_to(out) for p in out.rglob("*")] == [
        Path("plain.name"), Path("plain.name/trajectory.csv")]


def test_run_all_refuses_two_files_that_name_one_scenario(tmp_path, capsys):
    # run-all ran both and left the tangent-ef results in ou_ep2_ada/, over
    # the ada-ef ones, and exited 0
    (tmp_path / "in").mkdir()
    (tmp_path / "in" / "a.yaml").write_text((SCENARIO_DIR / "ou_ep2_ada.yaml").read_text())
    raw = yaml.safe_load((SCENARIO_DIR / "ou_ep2_tangent.yaml").read_text())
    raw["name"] = "ou_ep2_ada"
    (tmp_path / "in" / "b.yaml").write_text(yaml.safe_dump(raw))
    out = tmp_path / "runs"
    assert cli_main(["run-all", str(tmp_path / "in"), "--output-dir", str(out)]) == 2
    assert capsys.readouterr() == (
        "", "validation error: a.yaml and b.yaml both name the scenario 'ou_ep2_ada'\n")
    assert not out.exists()


def _count_build_run(monkeypatch):
    """The list that every call of `build_run` appends to, through whichever module's
    binding it is called."""
    calls = []
    original = scenario_module.build_run

    def counted(scenario):
        calls.append(scenario.name)
        return original(scenario)

    for name, module in list(sys.modules.items()):
        if name.startswith("fpkproj") and getattr(module, "build_run", None) is original:
            monkeypatch.setattr(module, "build_run", counted)
    return calls


def test_a_run_builds_once_what_validation_built(tmp_path, monkeypatch):
    # validation built the run and the run built it again: 2 builds per run
    calls = _count_build_run(monkeypatch)
    args = ["--output-dir", str(tmp_path / "one"), "--quiet"]
    assert cli_main(["run", str(SCENARIO_DIR / "ou_ep2_ada.yaml"), *args]) == 0
    assert calls == ["ou_ep2_ada"]
    (tmp_path / "in").mkdir()
    for name in ("gauss_mix_tangent.yaml", "ou_metric_projection.yaml"):
        (tmp_path / "in" / name).write_text((SCENARIO_DIR / name).read_text())
    calls.clear()
    out = tmp_path / "all"
    assert cli_main(["run-all", str(tmp_path / "in"), "--output-dir", str(out), "--quiet"]) == 0
    assert calls == ["gauss_mix_tangent", "ou_metric_projection"]


def test_scenario_sections_are_read_only(tmp_path):
    sc = load_scenario(SCENARIO_DIR / "ou_ep2_tangent.yaml", ["numerics.t_end=0.1"])
    for section, key in ((sc.model, "kappa"), (sc.family, "n"), (sc.initial, "theta"),
                         (sc.outputs, "density_times")):
        with pytest.raises(TypeError):
            section[key] = section[key]
    with pytest.raises(TypeError):
        sc.initial["theta"][0] = 2.0
    # a replaced scenario runs with its own build, on its own quadrature level
    replaced = dataclasses.replace(sc, numerics=sc.numerics._replace(t_end=0.2,
                                                                      quadrature_level=9))
    run_scenario(sc, tmp_path / "old", quiet=True)
    table = run_scenario(replaced, tmp_path / "new", quiet=True)
    assert sc.built[1].rule.npoints == 2 ** MIN_LEVEL + 1
    assert replaced.built[1].rule.npoints == 2 ** 9 + 1
    assert [row[0] for row in table.rows] == pytest.approx([0.05 * k for k in range(5)])


def test_runs_reuse_the_build_and_write_the_same_bytes(tmp_path):
    names = ["ou_ep2_tangent", "gauss_mix_tangent", "ou_metric_projection"]
    scenarios = {name: load_scenario(SCENARIO_DIR / f"{name}.yaml") for name in names}
    scenarios["ou_ep2_tangent"] = load_scenario(SCENARIO_DIR / "ou_ep2_tangent.yaml", [
        "numerics.attach_reference=true",
        "initial.density={type: gaussian, mean: 0.5, var: 1.0}"])
    _, _, problem, start = scenarios["ou_ep2_tangent"].built
    for values in (start, problem.p0.values):
        with pytest.raises(ValueError):
            values[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        problem.p0 = None
    # a metric projection counts sample_stride in PDE steps, whatever ode_dt is;
    # a trajectory in ODE steps, here of the same size
    metric = scenarios["ou_metric_projection"]
    coarse = dataclasses.replace(metric, numerics=metric.numerics._replace(ode_dt=0.002))
    assert metric.built[2].stride == coarse.built[2].stride == 100
    assert problem.stride == scenarios["gauss_mix_tangent"].built[2].stride == 50
    # each second run follows another scenario's, which shares nothing with it
    for i, name in enumerate(names):
        run_scenario(scenarios[name], tmp_path / "first" / name, quiet=True)
        other = names[(i + 1) % len(names)]
        run_scenario(scenarios[other], tmp_path / "other" / other, quiet=True)
        run_scenario(scenarios[name], tmp_path / "second" / name, quiet=True)
        files = sorted(p.name for p in (tmp_path / "first" / name).iterdir())
        assert files and files == sorted(p.name for p in (tmp_path / "second" / name).iterdir())
        for file in files:
            assert ((tmp_path / "first" / name / file).read_bytes()
                    == (tmp_path / "second" / name / file).read_bytes()), (name, file)


SHARED_DIR = Path(__file__).resolve().parent / "shared_reference"


def _shared_raw(name):
    """A file of SHARED_DIR on a smaller grid: 201 nodes, 100 steps."""
    raw = yaml.safe_load((SHARED_DIR / f"{name}.yaml").read_text())
    raw["numerics"].update(t_end=0.1, pde_nx=201, sample_stride=10)
    raw["outputs"]["density_times"] = [0.0, 0.1]
    return raw


def _up(value):
    """The next float above value: its last bit changed."""
    return float(np.nextafter(value, np.inf))


@pytest.mark.parametrize("change", [
    lambda raw: raw["model"].update(kappa=_up(1.0)),
    lambda raw: raw["initial"]["density"].update(weights=[_up(0.5), 0.5]),
    lambda raw: raw["numerics"].update(pde_dt=_up(1e-3)),
    lambda raw: raw["numerics"].update(sample_stride=11),
    lambda raw: raw["numerics"].update(pde_nx=203),
    lambda raw: raw["numerics"].update(domain=[-12.0, _up(12.0)]),
    lambda raw: raw["numerics"].update(t_end=_up(0.1)),
], ids=["model", "start", "pde_dt", "stride", "pde_nx", "domain", "t_end"])
def test_scenarios_share_a_reference_solve_only_on_the_same_problem(change, solves, tmp_path):
    # the three families of one problem solve once; a change to any part of
    # the problem solves it again
    for name in ("ou_shared_ep2", "ou_shared_hermite12", "ou_shared_mix3"):
        run_scenario(validate_scenario(_shared_raw(name)), tmp_path / name, quiet=True)
    assert len(solves) == 1
    raw = _shared_raw("ou_shared_ep2")
    change(raw)
    run_scenario(validate_scenario(raw), tmp_path / "changed", quiet=True)
    assert len(solves) == 2


def _files(directory: Path) -> dict:
    return {p.relative_to(directory): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_run_all_writes_the_same_bytes_in_every_order_and_alone(tmp_path):
    # the scenarios share one reference solve: whichever runs first solves it
    files = sorted(SHARED_DIR.glob("*.yaml"))
    assert len(files) == 3
    alone = tmp_path / "alone"
    for path in files:
        subprocess.run([sys.executable, "-m", "fpkproj", "run", str(path), "--quiet",
                        "--output-dir", str(alone / path.stem)], check=True)
    expected = _files(alone)
    assert len(expected) == 9
    for k, order in enumerate(itertools.permutations(files)):
        directory = tmp_path / f"order{k}"
        directory.mkdir()
        for i, path in enumerate(order):
            (directory / f"{i}_{path.name}").write_text(path.read_text())
        out = tmp_path / f"runs{k}"
        assert cli_main(["run-all", str(directory), "--output-dir", str(out), "--quiet"]) == 0
        assert _files(out) == expected, [path.stem for path in order]


def _count_density_writes(monkeypatch):
    """Patch the runner's density writer and the slice template's `%`; returns the
    written snapshots and the number of renders, one list each."""
    writes, renders = [], []
    write = runner_module.write_density_csv
    template = reference_module._density_template

    class Template(str):
        def __mod__(self, values):
            renders.append(None)
            return str.__mod__(self, values)

    def counted(path, snap):
        writes.append(snap)
        write(path, snap)

    monkeypatch.setattr(runner_module, "write_density_csv", counted)
    monkeypatch.setattr(reference_module, "_density_template",
                        lambda domain, nx: Template(template(domain, nx)))
    return writes, renders


def test_run_all_renders_each_shared_density_slice_once(solves, monkeypatch, tmp_path):
    # three files of one reference problem write two slices each: the first
    # writer renders each snapshot, the other two write its text
    writes, renders = _count_density_writes(monkeypatch)
    assert cli_main(["run-all", str(SHARED_DIR), "--output-dir", str(tmp_path / "all"),
                     "--quiet"]) == 0
    assert len(solves) == 1
    assert len(writes) == 6 and len({id(snap) for snap in writes}) == 2
    assert len(renders) == 2
    # each file is still the bytes of its own run, solved and rendered afresh
    for path in sorted(SHARED_DIR.glob("*.yaml")):
        reference_module._solved.clear()
        sc = load_scenario(path)
        run_scenario(sc, tmp_path / "alone" / sc.name, quiet=True)
        assert _files(tmp_path / "alone" / sc.name) == _files(tmp_path / "all" / sc.name)
        assert "csv_text" not in sc.built[2].p0.__dict__
    assert len(solves) == 4 and len(renders) == 8


def test_rendered_slices_go_with_their_solve(monkeypatch, tmp_path):
    # the text is kept on the snapshot, so it lives as long as the memo holds
    # the solve, and goes when the memo moves to another problem
    monkeypatch.setattr(reference_module, "_solved", {})
    writes, _ = _count_density_writes(monkeypatch)
    sc = validate_scenario(_shared_raw("ou_shared_ep2"))
    run_scenario(sc, tmp_path / "first", quiet=True)
    assert all("csv_text" in snap.__dict__ for snap in writes)
    assert "csv_text" not in sc.built[2].p0.__dict__
    written = [weakref.ref(snap) for snap in writes]
    writes.clear()
    gc.collect()
    assert all(ref() is not None for ref in written)
    raw = _shared_raw("ou_shared_ep2")
    raw["numerics"].update(sample_stride=5)
    run_scenario(validate_scenario(raw), tmp_path / "other", quiet=True)
    writes.clear()
    gc.collect()
    assert all(ref() is None for ref in written)


# each of these validated, and the run ignored the key
@pytest.mark.parametrize("name, overrides, message", [
    ("ou_metric_projection.yaml", ["initial.theta=[0.5,-0.5]"], "does not read initial.theta"),
    ("ou_hermite_decay.yaml", ["initial.m=[0.1,0.1]"], "does not read initial.m"),
    ("ou_ep2_tangent.yaml", ["initial.eta=[0.5,1.25]"], "does not read initial.eta"),
    ("circle_ada.yaml", ["initial.eta=[0.1,0.1]"], "does not read initial.eta"),
    ("ou_ep2_ada.yaml", ["initial.density.type=gaussian"], "does not read initial.density"),
    ("ou_ep2_ada.yaml", ["initial.theta=[0.5,-0.5]"], "initial.eta and initial.theta"),
    ("circle_ada.yaml", ["initial.m=[0.1,0.1]"], "initial.m and initial.theta"),
    ("ou_hermite_decay.yaml", ["initial.theta=[0.1,-0.5]"], "initial.eta and initial.theta"),
])
def test_initial_keys_the_method_does_not_read_are_refused(name, overrides, message, capsys):
    args = [arg for item in overrides for arg in ("--override", item)]
    assert cli_main(["validate", str(SCENARIO_DIR / name), *args]) == 2
    assert message in capsys.readouterr().err


# each of these validated, and the run ignored the key or fitted no rate
@pytest.mark.parametrize("name, override, message", [
    ("circle_ada.yaml", "numerics.fit_window=[0.1,0.5]", "does not read numerics.fit_window"),
    ("circle_ada.yaml", "numerics.domain=[-1,1]", "does not read numerics.domain"),
    ("circle_decay.yaml", "numerics.domain=[-1,1]", "does not read numerics.domain"),
    ("ou_metric_projection.yaml", "numerics.ode_dt=0.01", "does not read numerics.ode_dt"),
    ("ou_ep2_ada.yaml", "numerics.pde_dt=0.01",
     "does not read numerics.pde_dt without a reference"),
    ("ou_ep2_tangent.yaml", "numerics.pde_nx=201",
     "does not read numerics.pde_nx without a reference"),
    ("circle_galerkin.yaml", "numerics.record_residual=false",
     "does not read numerics.record_residual"),
    ("ou_hermite_decay.yaml", "numerics.record_residual=true",
     "does not read numerics.record_residual"),
    ("ou_metric_projection.yaml", "numerics.attach_reference=true",
     "does not read numerics.attach_reference"),
    ("ou_hermite_decay.yaml", "numerics.fit_window=[5,6]", "holds 0 snapshot times"),
    ("ou_hermite_decay.yaml", "numerics.fit_window=[0,0.03]", "holds 4 snapshot times"),
])
def test_numerics_keys_the_run_does_not_use_are_refused(name, override, message, capsys):
    assert cli_main(["validate", str(SCENARIO_DIR / name), "--override", override]) == 2
    assert message in capsys.readouterr().err


def test_a_fit_window_of_five_snapshot_times_is_accepted():
    # snapshots every 0.01: 0, 0.01, ..., 0.04 are five
    assert cli_main(["validate", str(SCENARIO_DIR / "ou_hermite_decay.yaml"),
                     "--override", "numerics.fit_window=[0,0.04]"]) == 0


@pytest.mark.parametrize("method", ["tangent-mix", "ada-mix", "galerkin"])
def test_rk4_steps_that_grow_a_damped_mode_are_refused(method, tmp_path, capsys):
    # the field's eigenvalues are -k^2 a / 2: -350 and -3150 at a = 700, where
    # dt * 3150 = 3.15 lies outside RK4's real stability interval [-2.785, 0];
    # the weights grew until clamped, theta_2 -> 1, where the exact flow goes to 0
    path = tmp_path / "stiff.yaml"
    path.write_text(yaml.safe_dump({
        "name": "stiff", "method": method,
        "model": {"type": "circle-diffusion", "diffusion": 700},
        "family": {"type": "cosine-circle", "harmonics": [1, 3]},
        "numerics": {"t_end": 0.2}, "initial": {"theta": [0.3, 0.3]}}))
    args = ["run", str(path), "--quiet", "--output-dir", str(tmp_path / "out")]
    assert cli_main(args) == 3
    err = capsys.readouterr().err
    assert "numerics.ode_dt = 0.001" in err and "largest stable step is 0.000884127" in err
    assert not (tmp_path / "out" / "trajectory.csv").exists()
    # at a = 600, dt * 2700 = 2.7 lies inside it: the weights decay, unclamped
    assert cli_main([*args, "--override", "model.diffusion=600"]) == 0
    with open(tmp_path / "out" / "trajectory.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 21 and all(row["clamped"] == "0" for row in rows)
    assert max(abs(float(rows[-1][f"theta_{i}"])) for i in (1, 2)) < 1e-11


def test_closed_ada_ef_refuses_an_unstable_step(tmp_path, capsys):
    # OU EP(2) at kappa = 1 has eigenvalues -1 and -2; at ode_dt 1.5 the run
    # ended with eta_2(3) = 1.4727, where the exact eta_2(3) is 1.0006
    args = ["run", str(SCENARIO_DIR / "ou_ep2_ada.yaml"), "--override", "numerics.t_end=3",
            "--override", "numerics.sample_stride=1", "--quiet",
            "--output-dir", str(tmp_path)]
    assert cli_main([*args, "--override", "numerics.ode_dt=1.5"]) == 3
    err = capsys.readouterr().err
    assert "numerics.ode_dt = 1.5" in err and "largest stable step is 1.3925" in err
    # 2 kappa ode_dt = 2 < 2.785
    assert cli_main([*args, "--override", "numerics.ode_dt=1"]) == 0


def test_density_times_must_be_snapshot_times():
    raw = yaml.safe_load((SCENARIO_DIR / "ou_metric_projection.yaml").read_text())
    raw["outputs"]["density_times"] = [0.0, 0.25]
    with pytest.raises(ValidationError, match="outputs.density_times"):
        validate_scenario(raw)
    raw["outputs"]["density_times"] = [0.0, 0.3, 1.0]
    validate_scenario(raw)


def test_density_times_that_name_one_file_are_refused(capsys):
    # format(t, 'g') keeps six digits, so 2000000 and 2000001 both name
    # density_t2e+06.csv: the second slice overwrote the first
    overrides = ["numerics.t_end=2000001", "numerics.pde_dt=1",
                 "numerics.sample_stride=1000000", "numerics.pde_nx=201",
                 "outputs.density_times=[2000000, 2000001]"]
    args = [arg for item in overrides for arg in ("--override", item)]
    path = str(SCENARIO_DIR / "ou_metric_projection.yaml")
    assert cli_main(["validate", path, *args]) == 2
    err = capsys.readouterr().err
    assert "outputs.density_times" in err and "2000000 and 2000001" in err
    assert "density_t2e+06.csv" in err
    # one snapshot named twice writes the same file twice, as before
    args[-1] = "outputs.density_times=[2000000, 2000000.01, 0]"
    assert cli_main(["validate", path, *args]) == 0


def test_negative_initial_density_is_rejected(capsys):
    # 1 + 2 cos x is negative on a third of the circle; sampling used to
    # clip that part to zero and renormalize, so the reference started
    # from a density other than the stated one and validate exited 0
    assert cli_main(["validate", str(SCENARIO_DIR / "circle_decay.yaml"), "--override",
                     "initial.density.coefficients=[2.0]"]) == 2
    assert "negative" in capsys.readouterr().err
    with pytest.raises(ValidationError, match="negative"):
        grid_density(circle_diffusion(2.0).domain, 1201, cosine_series_pdf_fn([2.0]))
    # negative round-off below a positive density is still zeroed
    gauss = gaussian_pdf_fn(0.0, 1.0)
    p = grid_density(default_domain(), 801, lambda x: gauss(x) - 1e-14)
    assert p.values.min() == 0.0
    with pytest.raises(ValidationError, match="negative"):
        grid_density(default_domain(), 801, lambda x: gauss(x) - 1e-11)


@pytest.mark.parametrize("name, overrides", [
    ("ou_ep2_ada.yaml", ["outputs.density_times=[0.5]", "numerics.t_end=0.1"]),
    ("ou_hermite_decay.yaml", ["outputs.density_times=[0.0]"]),
])
def test_density_times_need_reference_snapshots(tmp_path, capsys, name, overrides):
    # both runs used to exit 0 without writing a single density slice
    args = [arg for item in overrides for arg in ("--override", item)]
    out = tmp_path / "run"
    assert cli_main(["run", str(SCENARIO_DIR / name), *args, "--output-dir", str(out)]) == 2
    assert "outputs.density_times" in capsys.readouterr().err
    assert not list(out.glob("density_t*.csv"))


def attached_ou_ep2(pde_dt):
    raw = yaml.safe_load((SCENARIO_DIR / "ou_ep2_ada.yaml").read_text())
    raw["numerics"].update(t_end=0.1, ode_dt=0.001, pde_dt=pde_dt, sample_stride=50,
                           attach_reference=True)
    raw["initial"]["density"] = {"type": "gaussian", "mean": 0.5, "var": 0.25}
    return raw


def test_reference_snapshots_must_fall_on_trajectory_rows():
    # 50 ODE steps of 0.001 are 12.5 PDE steps of 0.004: no snapshot at t = 0.05
    with pytest.raises(ValidationError, match="sample_stride"):
        validate_scenario(attached_ou_ep2(0.004))


def test_divergence_rows_use_the_snapshot_at_their_own_time(tmp_path):
    scenario = validate_scenario(attached_ou_ep2(0.005))
    # 50 ODE steps of 0.001 are 10 PDE steps of 0.005
    assert scenario.built[2].stride == 10
    table = run_scenario(scenario, tmp_path, quiet=True)
    row = table.rows[1]
    assert row[0] == pytest.approx(0.05)
    p0 = grid_density(ornstein_uhlenbeck().domain, 2001, gaussian_pdf_fn(0.5, 0.25))
    snaps = solve_fpk(ornstein_uhlenbeck(), p0, t_end=0.05, dt=0.005, sample_stride=10)
    assert snaps[-1].time == pytest.approx(0.05)
    member = ep_family(2).density(np.array(row[1:3]))
    assert row[6] == pytest.approx(divergence_kl(snaps[-1], member), rel=1e-12)
    assert row[6] != pytest.approx(divergence_kl(snaps[0], member), rel=1e-3)


def test_trajectory_rows_take_one_moment_pass_each(tmp_path, monkeypatch):
    # the start's pass when the scenario is validated, which builds the run,
    # then one per later row; the divergences read the log-partition the
    # trajectory carries at its rows
    passes = []
    original = ExpFamily._pass

    def counted(self, theta, rows):
        if rows is self.row_stack:  # a moment pass, not a tangent-ef stage
            passes.append(1)
        return original(self, theta, rows)

    monkeypatch.setattr(ExpFamily, "_pass", counted)
    sc = load_scenario(SCENARIO_DIR / "ou_ep2_tangent.yaml", [
        "numerics.record_residual=false", "numerics.attach_reference=true",
        "initial.density={type: gaussian, mean: 0.5, var: 1.0}"])
    table = run_scenario(sc, tmp_path, quiet=True)
    assert len(table.rows) == 21
    assert all(row[6] is not None for row in table.rows)
    assert len(passes) == 21


def test_attached_reference_writes_density_slices(tmp_path):
    raw = attached_ou_ep2(0.005)
    raw["outputs"] = {"density_times": [0.05]}
    run_scenario(validate_scenario(raw), tmp_path, quiet=True)
    assert (tmp_path / "density_t0.05.csv").exists()


def test_initial_density_builders_are_normalized():
    gauss = build_initial_density({"type": "gaussian", "mean": 0.5, "var": 1.5})
    mix = build_initial_density({
        "type": "gaussian-mixture", "weights": [0.3, 0.7],
        "means": [-1.0, 1.5], "variances": [0.3, 0.4]})
    x = np.linspace(-12.0, 12.0, 4001)
    for fn in (gauss, mix):
        mass = np.trapezoid(fn(x), x)
        assert abs(mass - 1.0) <= 1e-8
    cos = build_initial_density({"type": "cosine", "coefficients": [0.4, 0.3]})
    xc = np.linspace(0.0, 2.0 * np.pi, 2001)
    assert abs(np.trapezoid(cos(xc), xc) - 1.0) <= 1e-8
    assert np.min(cos(xc)) >= 0.0


def test_scenario_domain_for_circle_model():
    raw = base_raw()
    raw["method"] = "ada-mix"
    raw["model"] = {"type": "circle-diffusion", "diffusion": 2.0}
    raw["family"] = {"type": "cosine-circle", "harmonics": [1]}
    raw["initial"] = {"theta": [0.2]}
    sc = validate_scenario(raw)
    dom = scenario_domain(sc)
    assert dom.kind == "bounded-reflecting"
    assert abs(dom.upper - 2.0 * np.pi) <= 1e-15


def test_format_value_conventions():
    assert format_value(None) == ""
    assert format_value(True) == "1"
    assert format_value(False) == "0"
    assert format_value(0.1) == "0.10000000000000001"
    assert format_value(3) == "3"


def test_density_csv_renders_each_value_as_format_value(tmp_path):
    dom = default_domain()
    values = grid_density(dom, 101, gaussian_pdf_fn(0.3, 2.0)).values.copy()
    values[:4] = [0.0, 1e-300, 2.5e-308, 5e-324]
    values[-3:] = [0.0, 7.3e-301, 0.0]
    snap = GridDensity(domain=dom, values=values, time=0.5)
    write_density_csv(tmp_path / "d.csv", snap)
    expected = "x,p\n" + "".join(f"{format_value(x)},{format_value(p)}\n"
                                 for x, p in zip(snap.x, snap.values))
    assert (tmp_path / "d.csv").read_bytes() == expected.encode()


SPECIAL_FLOATS = st.sampled_from((math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308))
CELL_KINDS = (
    st.floats() | SPECIAL_FLOATS,
    st.none(),
    st.booleans(),
    st.integers(),
    (st.floats() | SPECIAL_FLOATS).map(np.float64),
    st.booleans().map(np.bool_),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
)


@st.composite
def result_tables(draw):
    """Rows of one width, each drawn in one of up to three kind patterns, so that
    runs of rows share their kinds and the None positions change between runs."""
    width = draw(st.integers(1, 6))
    patterns = draw(st.lists(st.tuples(*[st.sampled_from(CELL_KINDS)] * width),
                             min_size=1, max_size=3))
    rows = [tuple(draw(kind) for kind in draw(st.sampled_from(patterns)))
            for _ in range(draw(st.integers(0, 12)))]
    return ResultTable(header=tuple(f"c{i}" for i in range(width)), rows=rows)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=result_tables())
def test_csv_renders_each_value_as_format_value(table, tmp_path):
    # every example writes over the last one's file, longer or shorter
    path = tmp_path / "table.csv"
    write_csv(path, table)
    expected = "".join([",".join(table.header) + "\n",
                        *(",".join(map(format_value, row)) + "\n" for row in table.rows)])
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("old", [b"", b"t,p\n", b"t,p\n0,1\n" + b"junk\n" * 2000])
def test_result_text_replaces_the_old_bytes(old, tmp_path):
    path = tmp_path / "f.csv"
    path.write_bytes(old)
    runner_module._write_text(path, "t,p\n0,1\n")
    assert path.read_bytes() == b"t,p\n0,1\n"


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_result_files_get_the_mode_that_write_text_gives(umask, tmp_path):
    old = os.umask(umask)
    try:
        runner_module._write_text(tmp_path / "new.csv", "a\n")
        (tmp_path / "text.csv").write_text("a\n")
    finally:
        os.umask(old)
    assert (tmp_path / "new.csv").stat().st_mode == (tmp_path / "text.csv").stat().st_mode
    # an existing file keeps its mode, as under write_text
    (tmp_path / "new.csv").chmod(0o600)
    runner_module._write_text(tmp_path / "new.csv", "b\n")
    assert (tmp_path / "new.csv").stat().st_mode & 0o777 == 0o600


def test_a_rerun_over_padded_result_files_writes_a_fresh_runs_bytes(tmp_path):
    # every kind of result file: trajectory.csv, density slices and decay.json
    runs = [validate_scenario(_shared_raw("ou_shared_ep2")),
            load_scenario(SCENARIO_DIR / "ou_hermite_decay.yaml", ["numerics.t_end=0.2"])]
    for sc in runs:
        run_scenario(sc, tmp_path / "fresh" / sc.name, quiet=True)
    fresh = _files(tmp_path / "fresh")
    assert {path.name for path in fresh} == {
        "trajectory.csv", "density_t0.csv", "density_t0.1.csv", "decay.json"}
    for path, data in fresh.items():
        padded = tmp_path / "padded" / path
        padded.parent.mkdir(parents=True, exist_ok=True)
        padded.write_bytes(data + b"junk\n" * 100)
    for sc in runs:
        run_scenario(sc, tmp_path / "padded" / sc.name, quiet=True)
    assert _files(tmp_path / "padded") == fresh


def test_trajectory_header_layout():
    assert trajectory_header(2) == (
        "t", "theta_1", "theta_2", "eta_or_m_1", "eta_or_m_2",
        "residual", "kl", "hellinger", "l2", "clamped")


def run_with_overrides(tmp_path, name, overrides):
    sc = load_scenario(SCENARIO_DIR / name, overrides)
    out = tmp_path / sc.name
    run_scenario(sc, out, quiet=True)
    return out


def test_runner_writes_deterministic_trajectory(tmp_path):
    overrides = ["numerics.t_end=0.05", "numerics.sample_stride=10"]
    out1 = run_with_overrides(tmp_path / "a", "ou_ep2_ada.yaml", overrides)
    out2 = run_with_overrides(tmp_path / "b", "ou_ep2_ada.yaml", overrides)
    data1 = (out1 / "trajectory.csv").read_bytes()
    data2 = (out2 / "trajectory.csv").read_bytes()
    assert data1 == data2
    rows = list(csv.reader(data1.decode().splitlines()))
    assert tuple(rows[0]) == trajectory_header(2)
    assert rows[1][0] == "0"
    # moment columns hold the evolved expectation coordinates
    assert abs(float(rows[-1][3]) - 0.5 * np.exp(-0.05)) <= 1e-8


def test_runner_decay_outputs(tmp_path):
    overrides = ["numerics.t_end=0.2", "numerics.pde_nx=601",
                 "numerics.sample_stride=20", "numerics.fit_window=[0.0,0.2]"]
    out = run_with_overrides(tmp_path, "ou_hermite_decay.yaml", overrides)
    blob = json.loads((out / "decay.json").read_text())
    assert np.max(np.abs(np.array(blob["eigenvalues"]) - np.array([1.0, 2.0]))) <= 1e-9
    assert (out / "trajectory.csv").exists()


def test_runner_metric_projection_outputs(tmp_path):
    overrides = ["numerics.t_end=0.2", "numerics.pde_nx=601",
                 "numerics.sample_stride=100", "outputs.density_times=[0.0]"]
    out = run_with_overrides(tmp_path, "ou_metric_projection.yaml", overrides)
    rows = list(csv.reader((out / "trajectory.csv").read_text().splitlines()))
    assert tuple(rows[0]) == trajectory_header(2)
    # the initial bimodal target has mean 0 and second moment 1.25
    assert abs(float(rows[1][1])) <= 1e-6
    assert abs(float(rows[1][2]) + 0.4) <= 1e-6
    assert float(rows[1][6]) > 0.0
    assert (out / "density_t0.csv").exists()


def cli(*args):
    return subprocess.run([sys.executable, "-m", "fpkproj.cli", *args],
                          capture_output=True, text=True)


def test_cli_validate_and_exit_codes(tmp_path):
    good = SCENARIO_DIR / "ou_ep2_ada.yaml"
    res = cli("validate", str(good))
    assert res.returncode == 0
    assert "OK: ou_ep2_ada" in res.stdout

    bad = tmp_path / "bad.yaml"
    bad.write_text("name: broken\nmethod: ada-ef\n")
    res = cli("validate", str(bad))
    assert res.returncode == 2
    assert "validation error" in res.stderr

    res = cli("run", str(tmp_path / "missing.yaml"))
    assert res.returncode in (2, 4)


@pytest.mark.parametrize("args, code, message", [
    (["validate", "{tangent}", "--override", "numerics.t_end"], 2,
     "validation error: override 'numerics.t_end' must look like section.key=value\n"),
    (["validate", "{tangent}", "--override", "=1"], 2,
     "validation error: override '=1' has an empty key path\n"),
    (["validate", "{tangent}", "--override", "numerics.t_end=[1,"], 2,
     "validation error: override value '[1,' is not valid YAML: "),
    (["validate", "{tangent}", "--override", "numerics.t_end.x=1"], 2,
     "validation error: override path 'numerics.t_end.x' crosses a non-mapping\n"),
    (["validate", "{tmp}/missing.yaml"], 2,
     "validation error: cannot read scenario file {tmp}/missing.yaml: "),
    (["validate", "{tmp}/empty.yaml"], 2, "validation error: empty.yaml is empty\n"),
    (["run", "{tmp}/unparsable.yaml"], 2, "validation error: parse error in unparsable.yaml: "),
    (["run-all", "{tmp}/no-yaml"], 2, "validation error: no scenario files found in {tmp}/no-yaml\n"),
    (["run", "{tangent}", "--quiet", "--output-dir", "{tmp}/a-file"], 4,
     "io error: [Errno 17] File exists: '{tmp}/a-file'\n"),
], ids=["no-equals", "empty-key-path", "invalid-yaml-value", "crosses-a-non-mapping",
        "missing-file", "empty-file", "unparsable-file", "no-yaml-in-directory",
        "output-dir-is-a-file"])
def test_cli_input_errors_exit_with_their_code_and_message(args, code, message, tmp_path,
                                                           capsys):
    (tmp_path / "empty.yaml").write_text("")
    (tmp_path / "unparsable.yaml").write_text("name: [unclosed\n")
    (tmp_path / "no-yaml").mkdir()
    (tmp_path / "a-file").write_text("")
    fill = {"tangent": SCENARIO_DIR / "ou_ep2_tangent.yaml", "tmp": tmp_path}
    assert cli_main([arg.format(**fill) for arg in args]) == code
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(message.format(**fill))


def test_an_overflowing_generator_exits_3_naming_it(tmp_path, capsys):
    # validated, warned "overflow encountered in multiply" building the ODE, then exited 3
    # with "theta must be finite"; under -W error::RuntimeWarning it ended in a traceback
    assert cli_main(["run", str(SCENARIO_DIR / "cubic_ep2_residual.yaml"), "--override",
                     "model.coefficients=[0, 0, 0, -1e305]", "--quiet",
                     "--output-dir", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "NonFiniteIntegrand: L c_2, the generator on statistic 2, is not finite at x = -12\n")


def test_cli_presets_listing():
    res = cli("presets", "list")
    assert res.returncode == 0
    for token in (*METHODS, *MODELS, *FAMILIES, *DENSITIES):
        assert token in res.stdout


def test_presets_list_names_every_preset_and_the_methods_of_each_family(capsys):
    assert cli_main(["presets", "list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for title, table in (("models", MODELS), ("families", FAMILIES),
                         ("initial densities", DENSITIES)):
        start = lines.index(f"{title}:")
        listed = lines[start + 1:start + 1 + len(table)]
        assert [line.split(":")[0] for line in listed] == [f"  {kind}" for kind in table]
        for kind, line in zip(table, listed):
            family = table[kind].family
            assert (family is not None) == (title == "families")
            if family is not None:
                assert line.endswith(f"; methods {', '.join(family.methods)}")
    assert lines[-2:] == ["methods:", "  " + ", ".join(METHODS)]


def test_mixture_metric_projection_clamps_weights_off_the_simplex(tmp_path, capsys):
    # the L2 projection of a narrow Gaussian onto these three components puts
    # negative weight on the outer ones, so every snapshot is clamped
    family = {"type": "gaussian-mixture", "means": [-1.0, 0.0, 1.0],
              "variances": [0.5, 0.5, 0.5]}
    overrides = [f"family={json.dumps(family)}",
                 "initial.density={type: gaussian, mean: 0.0, var: 0.1}",
                 "numerics.t_end=0.2", "outputs.density_times=[0.0]"]
    run_scenario(load_scenario(SCENARIO_DIR / "ou_metric_projection.yaml", overrides),
                 tmp_path, quiet=False)
    assert capsys.readouterr().out == "ou_metric_projection: projected 3 snapshots, 3 clamped\n"
    rows = list(csv.reader((tmp_path / "trajectory.csv").read_text().splitlines()))
    assert [row[-1] for row in rows[1:]] == ["1", "1", "1"]
    fam = gaussian_mixture_family(family["means"], family["variances"])
    for row in rows[1:]:
        theta = np.array(row[1:3], dtype=float)
        assert fam.is_admissible(theta)
        assert np.max(np.abs(fam.expectation_params(theta) - np.array(row[3:5], dtype=float))) \
            <= 1e-15
    assert (tmp_path / "density_t0.csv").exists()


def test_cli_run_writes_outputs(tmp_path):
    out = tmp_path / "run"
    res = cli("run", str(SCENARIO_DIR / "ou_ep2_tangent.yaml"),
              "--output-dir", str(out),
              "--override", "numerics.t_end=0.05")
    assert res.returncode == 0, res.stderr
    assert (out / "trajectory.csv").exists()


@pytest.mark.parametrize("name, overrides, pattern", [
    ("ou_ep2_tangent.yaml", ["numerics.t_end=0.05", "numerics.sample_stride=10"],
     # theta_1 = 0.5 exp(-t) and theta_2 = -1/2 under this OU model
     r"ou_ep2_tangent: tangent-ef reached t=0\.05, final state \[0\.475615, -0\.5\]"),
    ("ou_metric_projection.yaml", ["numerics.t_end=0.2", "numerics.pde_nx=601",
                                   "outputs.density_times=[0.0]"],
     r"ou_metric_projection: projected 3 snapshots"),
    ("ou_hermite_decay.yaml", ["numerics.t_end=0.2", "numerics.pde_nx=601",
                               "numerics.sample_stride=20", "numerics.fit_window=[0.0,0.2]"],
     r"ou_hermite_decay: eigenvalues 1, 2; fitted rates \[[-0-9.e]+, [-0-9.e]+\]"),
], ids=["trajectory", "metric-projection", "decay"])
def test_run_prints_one_summary_line(tmp_path, capsys, name, overrides, pattern):
    run_scenario(load_scenario(SCENARIO_DIR / name, overrides), tmp_path, quiet=False)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{Path(name).stem}: ")
    assert re.fullmatch(pattern, lines[0]), lines[0]
    run_scenario(load_scenario(SCENARIO_DIR / name, overrides), tmp_path, quiet=True)
    assert capsys.readouterr().out == ""
