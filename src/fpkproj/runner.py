"""Scenario execution and deterministic result files.

Every float is written with 17 significant digits so repeated runs of the
same scenario are byte-identical; optional columns are left empty rather
than filled with sentinels.
"""

import json
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InadmissibleRecovery
from .expfamily import ExpFamily
from .projection import ProjectedOde, integrate_ode
from .quadrature import require_resolved
from .reference import (
    DecayReport,
    GridDensity,
    decay_experiment,
    divergence_hellinger,
    divergence_kl,
    divergence_l2,
    metric_project_ef,
    metric_project_mix,
    snapshot_index,
    solve_fpk,  # noqa: F401  bound here: bench/selftest.py traces runner.solve_fpk
)
from .scenario import Scenario, density_file

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


def write_density_csv(path, snap: GridDensity):
    Path(path).write_text(snap.csv_text, newline="\n")


def _divergences(snap, family, theta, psi=None):
    """KL, Hellinger and L2 distances from a snapshot to the member at theta; `psi`
    is the log-partition of an exponential-family member when a trajectory carries it."""
    if snap is None:
        return None, None, None
    q = (family.density_at(snap.x, theta) if psi is None
         else family.density_at(snap.x, theta, psi))
    return divergence_kl(snap, q), divergence_hellinger(snap, q), divergence_l2(snap, q)


# what an executor computes: the trajectory rows, the summary after the
# scenario's name, the reference snapshots and a decay report, if any
_Outcome = namedtuple("_Outcome", "rows summary snapshots report", defaults=((), None))


def _run_trajectory_method(scenario: Scenario, model, family, problem, start) -> _Outcome:
    num = scenario.numerics
    traj = integrate_ode(ProjectedOde(family, model, scenario.method), start, num.t_end,
                         num.ode_dt, record_residual=num.record_residual,
                         sample_stride=num.sample_stride)
    for k, theta, error in zip(traj.rows, traj.thetas, traj.quadrature_errors):
        require_resolved(family.rule, error, f"row t = {traj.times[k]:g}",
                         lambda: family.density_values(theta))
    # the problem's stride puts one snapshot on each row
    snapshots = () if problem is None else problem.solve()
    missing = [None] * len(traj.rows)
    residuals = missing if traj.residuals is None else traj.residuals.tolist()
    psis = missing if traj.log_partitions is None else traj.log_partitions
    clamped = {event.step for event in traj.clamp_events}
    rows = [(float(traj.times[k]), *map(float, theta), *map(float, coords), res,
             *_divergences(snap, family, theta, psi), k in clamped)
            for k, theta, coords, res, psi, snap in zip(
                traj.rows, traj.thetas, traj.expectations, residuals, psis,
                snapshots or missing, strict=True)]
    final = ", ".join(format(v, ".6g") for v in traj.states[-1])
    clamps = f", {len(traj.clamp_events)} clamps" if traj.clamp_events else ""
    return _Outcome(rows, f"{scenario.method} reached t={num.t_end:g}, "
                          f"final state [{final}]{clamps}", snapshots)


def _run_metric_projection(scenario: Scenario, model, family, problem, start) -> _Outcome:
    snapshots = problem.solve()
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
        require_resolved(family.rule, family.quadrature_error(theta),
                         f"snapshot t = {snap.time:g}", lambda: family.density_values(theta))
        rows.append((float(snap.time), *map(float, theta),
                     *map(float, family.expectation_params(theta)),
                     None, *_divergences(snap, family, theta), clamped_flag))
    clamps = f", {clamp_count} clamped" if clamp_count else ""
    return _Outcome(rows, f"projected {len(rows)} snapshots{clamps}", snapshots)


def _run_decay(scenario: Scenario, model, family, problem, start) -> _Outcome:
    num = scenario.numerics
    report = decay_experiment(
        model, family, problem.p0, problem.t_end, pde_dt=problem.dt, ode_dt=num.ode_dt,
        sample_stride=problem.stride, start=start, fit_window=num.fit_window)
    rows = [
        (float(t), *[None] * family.n, *map(float, report.ode_moments[i]),
         None, None, None, None, False)
        for i, t in enumerate(report.times)
    ]
    eigenvalues = ", ".join(format(v, ".6g") for v in report.eigenvalues)
    fitted = ", ".join("none" if r is None else format(r, ".6g")
                       for r in report.fitted_rates)
    return _Outcome(rows, f"eigenvalues {eigenvalues}; fitted rates [{fitted}]",
                    report=report)


def run_scenario(scenario: Scenario, output_dir, quiet: bool = False) -> ResultTable:
    """Execute a scenario with the build validation made (`Scenario.built`) and write
    its output files: trajectory.csv, decay.json for a decay experiment, and
    `density_file(t)` for each of `outputs.density_times`."""
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    model, family, problem, start = scenario.built
    execute = {"metric-projection": _run_metric_projection,
               "decay-experiment": _run_decay}.get(scenario.method, _run_trajectory_method)
    out = execute(scenario, model, family, problem, start)
    table = ResultTable(header=trajectory_header(family.n), rows=out.rows)
    write_csv(output_dir / "trajectory.csv", table)
    times = [snap.time for snap in out.snapshots]
    for t in scenario.outputs["density_times"]:
        write_density_csv(output_dir / density_file(t), out.snapshots[snapshot_index(times, t)])
    if out.report is not None:
        write_decay_json(output_dir / "decay.json", out.report)
    if not quiet:
        print(f"{scenario.name}: {out.summary}")
    return table
