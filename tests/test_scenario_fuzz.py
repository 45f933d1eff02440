"""Override fuzzing: a scenario that validates either runs or fails by name.

Each example takes one shipped scenario and a few `--override` values
drawn from per-key lists of valid, boundary and malformed values, on top
of a short horizon that keeps every run well under a second.  `fpkproj
validate` must exit 0 or 2; when it exits 0, `fpkproj run` must exit 0,
2 or 3 (a named FpkprojError), never end in a traceback.  The files of a
run that exits 0 must hold what the paper's quantities are: a KL cell is
nonnegative, a density slice is nonnegative with mass 1, and on an
exponential family a row's theta has the row's eta as its moments.  A second test
draws only the two decay files, with model, family or initial overrides
and a `numerics.fit_window` that holds enough snapshot times for a
windowed decay fit.  A third draws the files that solve a reference, with
density slices at the first and last snapshot, so that the slices meet the
oracle: with the first test's horizons, the shipped slice times are not
snapshot times and no slice is written.
"""

import csv
import tempfile
from pathlib import Path

import numpy as np
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fpkproj.cli import main as cli_main
from fpkproj.expfamily import ExpFamily
from fpkproj.projection import sample_steps, whole_steps
from fpkproj.reference import FIT_SAMPLES
from fpkproj.scenario import DENSITIES, FAMILIES, METHODS, MODELS, load_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SCENARIOS = sorted(p.name for p in SCENARIO_DIR.glob("*.yaml"))

# at 0.1 the shipped decay windows [0.05, 1] hold the five snapshot times that a
# windowed `fit_decay_rates` needs; the shorter horizons hold at most one
T_ENDS = ("0.02", "0.03", "0.05", "0.1")
VALUES = {
    "numerics.t_end": ("0", "-0.1", ".inf", "abc"),
    "method": (*METHODS, "leapfrog"),
    "model.type": (*MODELS, "bogus"),
    "model.kappa": ("1.0", "0", "-1", "4", "x"),
    "model.sigma": ("1.4142135623730951", "0", "0.5", ".nan"),
    "model.diffusion": ("2.0", "0", "-1", "0.3"),
    "model.coefficients": ("[0, -1]", "[0, 0, 0, -1]", "[0, 0, 0, 1]", "[]", "[x]"),
    "family.type": (*FAMILIES, "bogus"),
    "family.n": ("2", "3", "4", "0"),
    "family.indices": ("[1, 2]", "[1, 3]", "[2]", "[1, 2, 4]", "[0, 2]", "[]"),
    "family.exponents": ("[1, 2]", "[2]", "[1, 3]", "[1, 2, 4]"),
    "family.means": ("[-1.0, 0.0, 1.0]", "[-1.0, 1.0]", "[0.0, 0.0, 0.0]", "[]"),
    "family.variances": ("[0.5, 0.5, 0.5]", "[0.5, 0.0, 0.5]", "[0.5, 0.5]", "[1e-6, 1, 1]"),
    "family.harmonics": ("[1, 2]", "[0, 1]", "[1, 1]", "[2, 3]", "[1]"),
    "numerics.ode_dt": ("0.001", "0.005", "0.003", "0.004", "0", "-1e-3", ".nan"),
    "numerics.pde_dt": ("0.001", "0.005", "0.004", "0.3", "0"),
    "numerics.pde_nx": ("2", "3", "51", "201", "1.5", "2000001"),
    "numerics.sample_stride": ("0", "1", "7", "10", "50", "true"),
    "numerics.quadrature_level": ("2", "3", "6", "9", "21"),
    "numerics.domain": ("[-8, 8]", "[3, -3]", "[-1, 1]", "[0, 1]", "5"),
    "numerics.attach_reference": ("true", "false", "1"),
    "numerics.record_residual": ("true", "false"),
    "numerics.fit_window": ("[0.0, 0.02]", "[0.02, 0.0]", "[-1, 1]"),
    "initial.theta": ("[0.5, -0.5]", "[0.2, 0.1]", "[0.4, 0.3]", "[0.2]", "[0.5, 0.5]",
                      "[0.9, 0.9]", "[]", "[0.0, -50.0]"),
    "initial.eta": ("[0.5, 1.25]", "[0.0, 0.0]", "[0.5, 0.1]", "[1.0]", "[0.0, 0.01]"),
    "initial.m": ("[0.1, 0.1]", "[5, 5]", "[0.0]"),
    "initial.density.type": (*DENSITIES, "bogus"),
    "initial.density.mean": ("0.5", "100", "-11"),
    "initial.density.var": ("0.25", "0", "1e-4", "50"),
    "initial.density.means": ("[-1.0, 1.0]", "[100, 101]", "[0.0]"),
    "initial.density.weights": ("[0.5, 0.5]", "[0.7, 0.7]", "[-0.5, 1.5]", "[1.0]"),
    "initial.density.variances": ("[0.25, 0.25]", "[0, 1]"),
    "initial.density.coefficients": ("[0.4, 0.3]", "[2.0]", "[]"),
    "outputs.density_times": ("[0.0]", "[0.01]", "[0.013]", "[5.0]"),
}


def overrides_of(keys):
    return st.sampled_from(sorted(keys)).flatmap(
        lambda key: st.sampled_from(VALUES[key]).map(lambda value: f"{key}={value}"))


OVERRIDES = overrides_of(VALUES)
DECAY_FILES = ("circle_decay.yaml", "ou_hermite_decay.yaml")
REFERENCE_FILES = ("gauss_mix_tangent.yaml", "ou_metric_projection.yaml")


def check_results(family, out: Path):
    """The oracle of a run that exited 0: every KL cell is at least -1e-12, every
    density slice is nonnegative with trapezoid mass 1 to 1e-8, and on an exponential
    family every row's theta maps to its eta to 1e-8."""
    with open(out / "trajectory.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    kl = [float(row["kl"]) for row in rows if row["kl"]]
    assert min(kl, default=0.0) >= -1e-12, kl
    for path in out.glob("density_*.csv"):
        x, p = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
        assert np.all(p >= 0.0), path.name
        mass = float(np.diff(x).dot(p[1:] + p[:-1])) / 2.0
        assert abs(mass - 1.0) <= 1e-8, (path.name, mass)
    if not isinstance(family, ExpFamily):
        return
    for row in rows:
        if row["theta_1"]:
            theta = [float(row[f"theta_{i}"]) for i in range(1, family.n + 1)]
            eta = [float(row[f"eta_or_m_{i}"]) for i in range(1, family.n + 1)]
            assert np.allclose(family.expectation_params(theta), eta, rtol=1e-8, atol=1e-8), (
                row["t"], theta, eta)


def validate_then_run(name, items):
    flags = []
    for item in items:
        flags += ["--override", item]
    path = str(SCENARIO_DIR / name)
    code = cli_main(["validate", path, *flags])
    assert code in (0, 2)
    if code == 0:
        with tempfile.TemporaryDirectory() as out:
            code = cli_main(["run", path, *flags, "--output-dir", out, "--quiet"])
            assert code in (0, 2, 3)
            if code == 0:
                check_results(load_scenario(path, overrides=items).built[1], Path(out))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(SCENARIOS), t_end=st.sampled_from(T_ENDS),
       overrides=st.lists(OVERRIDES, max_size=3))
def test_validated_scenarios_run_or_fail_by_name(name, t_end, overrides):
    validate_then_run(name, [f"numerics.t_end={t_end}", *overrides])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(REFERENCE_FILES), t_end=st.sampled_from(T_ENDS),
       overrides=st.lists(OVERRIDES, max_size=2))
def test_density_slices_run_or_fail_by_name(name, t_end, overrides):
    validate_then_run(name, [f"numerics.t_end={t_end}",
                             f"outputs.density_times=[0.0, {t_end}]", *overrides])


def _has(tree, key):
    for part in key.split("."):
        if not isinstance(tree, dict) or part not in tree:
            return False
        tree = tree[part]
    return True


@st.composite
def windowed_decay_runs(draw):
    """A decay file, a horizon, a fit window from [first, last] of its snapshot
    times that holds at least FIT_SAMPLES of them, and up to two overrides of
    model, family or initial keys that the file sets."""
    name = draw(st.sampled_from(DECAY_FILES))
    path = SCENARIO_DIR / name
    num = load_scenario(path).numerics
    raw = yaml.safe_load(path.read_text())
    keys = [k for k in VALUES if k.startswith(("model.", "family.", "initial.")) and _has(raw, k)]
    horizons = {}
    for t_end in T_ENDS:
        steps = sample_steps(whole_steps(float(t_end), num.pde_dt, "t_end"), num.sample_stride)
        if len(steps) >= FIT_SAMPLES:
            horizons[t_end] = [k * num.pde_dt for k in steps]
    t_end = draw(st.sampled_from(sorted(horizons)))
    times = horizons[t_end]
    first = draw(st.integers(0, len(times) - FIT_SAMPLES))
    last = draw(st.integers(first + FIT_SAMPLES - 1, len(times) - 1))
    window = f"numerics.fit_window=[{times[first]!r}, {times[last]!r}]"
    overrides = draw(st.lists(overrides_of(keys), max_size=2))
    return name, [f"numerics.t_end={t_end}", window, *overrides]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(run=windowed_decay_runs())
def test_windowed_decay_fits_run_or_fail_by_name(run):
    validate_then_run(*run)
