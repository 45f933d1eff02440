"""Scenario execution and deterministic result files.

Every float is written with 17 significant digits so repeated runs of the
same scenario are byte-identical; optional columns are left empty rather
than filled with sentinels.
"""

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import InadmissibleRecovery
from .expfamily import ExpFamily
from .projection import ProjectedOde, integrate_ode
from .reference import (
    DecayReport,
    GridDensity,
    _grid,
    decay_experiment,
    divergence_hellinger,
    divergence_kl,
    divergence_l2,
    metric_project_ef,
    metric_project_mix,
    snapshot_index,
    solve_fpk,
)
from .scenario import (
    Scenario,
    build_family,
    build_model,
    build_reference_start,
    reference_stride,
    scenario_domain,
)

@dataclass
class ResultTable:
    """Column-ordered rows ready for CSV serialization."""

    header: tuple
    rows: list


def format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def trajectory_header(n: int) -> tuple:
    return (("t",)
            + tuple(f"theta_{i}" for i in range(1, n + 1))
            + tuple(f"eta_or_m_{i}" for i in range(1, n + 1))
            + ("residual", "kl", "hellinger", "l2", "clamped"))


def write_csv(path, table: ResultTable):
    lines = [",".join(table.header)]
    for row in table.rows:
        lines.append(",".join(format_value(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def write_decay_json(path, report: DecayReport):
    Path(path).write_text(
        json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n", newline="\n")


@lru_cache(maxsize=16)
def _density_template(domain, nx: int) -> str:
    """A density slice of the grid with its nodes rendered: one "%.17g" left per value."""
    # "%.17g" renders a float exactly as format_value does
    return "x,p\n" + "%.17g,%%.17g\n" * nx % tuple(_grid(domain, nx)[0].tolist())


def write_density_csv(path, snap: GridDensity):
    text = _density_template(snap.domain, snap.nx) % tuple(snap.values.tolist())
    Path(path).write_text(text, newline="\n")


def _write_density_slices(scenario: Scenario, snapshots, output_dir: Path):
    times = [s.time for s in snapshots]
    for t in scenario.outputs["density_times"]:
        write_density_csv(output_dir / f"density_t{format(float(t), 'g')}.csv",
                          snapshots[snapshot_index(times, t)])


def _expectations(family, theta) -> np.ndarray:
    """eta (exponential family) or m (mixture) at canonical/weight coordinates."""
    if isinstance(family, ExpFamily):
        return family.expectation_params(theta)
    return family.weights_to_expectations(theta)


def _divergences(snap, family, theta):
    """KL, Hellinger and L2 distances from a snapshot to the member at theta."""
    if snap is None:
        return None, None, None
    q = family.density(theta)(snap.x)
    return divergence_kl(snap, q), divergence_hellinger(snap, q), divergence_l2(snap, q)


def _start_state(initial: dict, family, coordinates: str):
    """Start of a flow in canonical or expectation coordinates; None if unset."""
    if coordinates == "canonical":
        return np.asarray(initial["theta"], dtype=float)
    key = "eta" if isinstance(family, ExpFamily) else "m"
    if key in initial:
        return np.asarray(initial[key], dtype=float)
    if "theta" in initial:
        return _expectations(family, np.asarray(initial["theta"], dtype=float))
    return None


def _reference_snapshots(model, scenario: Scenario):
    """Solve the grid reference; a trajectory method gets one snapshot per row."""
    p0 = build_reference_start(scenario, model)
    return solve_fpk(model, p0, scenario.numerics.t_end, scenario.numerics.pde_dt,
                     sample_stride=reference_stride(scenario))


def _run_trajectory_method(scenario: Scenario, model, family, output_dir: Path,
                           quiet: bool) -> ResultTable:
    num = scenario.numerics
    ode = ProjectedOde(family, model, scenario.method)
    y0 = _start_state(scenario.initial, family, ode.coordinates)
    traj = integrate_ode(ode, y0, num.t_end, num.ode_dt,
                         record_residual=num.record_residual, sample_stride=num.sample_stride)
    snapshots = [None] * len(traj.rows)
    if num.attach_reference:
        snapshots = _reference_snapshots(model, scenario)

    rows = []
    for i, (k, snap) in enumerate(zip(traj.rows, snapshots, strict=True)):
        theta = traj.thetas[i]
        if ode.coordinates == "expectation":
            coords = traj.states[k]
        else:
            coords = _expectations(family, theta)
        res = None if traj.residuals is None else float(traj.residuals[i])
        rows.append((float(traj.times[k]), *map(float, theta), *map(float, coords),
                     res, *_divergences(snap, family, theta), bool(traj.clamped[k])))
    table = ResultTable(header=trajectory_header(family.n), rows=rows)
    write_csv(output_dir / scenario.outputs["trajectory"], table)
    if num.attach_reference:
        _write_density_slices(scenario, snapshots, output_dir)
    if not quiet:
        final = ", ".join(format(v, ".6g") for v in traj.states[-1])
        print(f"{scenario.name}: {scenario.method} reached t={num.t_end:g}, "
              f"final state [{final}]" + (f", {len(traj.clamp_events)} clamps"
                                          if traj.clamp_events else ""))
    return table


def _run_metric_projection(scenario: Scenario, model, family, output_dir: Path,
                           quiet: bool) -> ResultTable:
    snapshots = _reference_snapshots(model, scenario)
    rows = []
    clamp_count = 0
    for snap in snapshots:
        clamped_flag = False
        if isinstance(family, ExpFamily):
            theta = metric_project_ef(snap, family)
        else:
            try:
                theta = metric_project_mix(snap, family)
            except InadmissibleRecovery as err:
                theta, _ = family.clamp_weights(np.asarray(err.value, dtype=float))
                clamped_flag = True
                clamp_count += 1
        coords = _expectations(family, theta)
        rows.append((float(snap.time), *map(float, theta), *map(float, coords),
                     None, *_divergences(snap, family, theta), clamped_flag))
    table = ResultTable(header=trajectory_header(family.n), rows=rows)
    write_csv(output_dir / scenario.outputs["trajectory"], table)
    _write_density_slices(scenario, snapshots, output_dir)
    if not quiet:
        print(f"{scenario.name}: projected {len(rows)} snapshots"
              + (f", {clamp_count} clamped" if clamp_count else ""))
    return table


def _run_decay(scenario: Scenario, model, family, output_dir: Path,
               quiet: bool) -> ResultTable:
    num = scenario.numerics
    p0 = build_reference_start(scenario, model)
    start = _start_state(scenario.initial, family, "expectation")
    report = decay_experiment(
        model, family, p0, num.t_end, pde_dt=num.pde_dt, ode_dt=num.ode_dt,
        sample_stride=num.sample_stride, start=start, fit_window=num.fit_window)
    write_decay_json(output_dir / scenario.outputs["decay"], report)
    rows = [
        (float(t), *[None] * family.n, *map(float, report.ode_moments[i]),
         None, None, None, None, False)
        for i, t in enumerate(report.times)
    ]
    table = ResultTable(header=trajectory_header(family.n), rows=rows)
    write_csv(output_dir / scenario.outputs["trajectory"], table)
    if not quiet:
        fitted = ", ".join("none" if r is None else format(r, ".6g")
                           for r in report.fitted_rates)
        print(f"{scenario.name}: eigenvalues "
              + ", ".join(format(v, ".6g") for v in report.eigenvalues)
              + f"; fitted rates [{fitted}]")
    return table


def run_scenario(scenario: Scenario, output_dir, quiet: bool = False) -> ResultTable:
    """Execute a validated scenario and write its output files."""
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    domain = scenario_domain(scenario)
    model = build_model(scenario, domain)
    family = build_family(scenario, domain)
    if scenario.method == "metric-projection":
        return _run_metric_projection(scenario, model, family, output_dir, quiet)
    if scenario.method == "decay-experiment":
        return _run_decay(scenario, model, family, output_dir, quiet)
    return _run_trajectory_method(scenario, model, family, output_dir, quiet)
