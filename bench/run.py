"""fpkproj benchmark: seeded scenario workloads through the public API.

    python3 bench/run.py --workload ef_moment_flow --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of the time from interpreter
  start until every scenario of the workload is imported, validated and
  built (domain, model, family with its quadrature rule);
* ``run_s``: time of one pass over every scenario through
  ``run_scenario`` after set-up, as the sum over scenarios of the median
  execution time in the measurement window;
* ``peak_rss_mb``: peak resident memory of this process after the passes.

``setup_s`` and ``run_s`` are in reference seconds: the wall-time medians
are multiplied by ``CAL_REF_S`` over the median time of a fixed unit of
numerical work (``Calibration``) timed after every probe and every
scenario execution of the same run.  That is wall time at the machine
speed at which the unit takes ``CAL_REF_S``.  On the shared 2-vCPU
virtual machine the benchmark was defined on, the whole machine ran up to
50% faster or slower for seconds to minutes at a time; over ten seeded
runs per workload the raw run time spread by 9-17% (interquartile range
over median) and the rescaled one by 4-9%, and in a stretch of larger
swings, over five runs, by 25-34% against 5-6%.  The raw medians are
printed as ``setup_wall_s`` and ``run_wall_s``.

With ``--trace 1`` it alternates untraced and traced passes and reports
per-layer spans and counts (see ``tracing.py``) plus the tracing overhead.

Either way the outputs of every scenario are checked against closed forms
or paper identities (``checks.py``) and, at the default seed, against the
golden values in ``golden/``.  A scenario that raises or fails a check in
any pass counts once in ``failed``, against one attempt per scenario, so
both depend on the seed alone.  ``correct`` is false only when an output
is wrong, that is a check or golden mismatch or passes that disagree.  A named
``FpkprojError`` is a reported failure, not a wrong output.  The last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric with
its unit, ``failed_fraction``, ``max_err`` and a context block (machine,
library versions, sizes, step counts, seed, raw samples).
"""

import argparse
import contextlib
import copy
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# checks.py and tracing.py import numpy; they are imported inside the
# functions that use them so that the timed `import fpkproj` pays for numpy
# and scipy as a cold `fpkproj run` does.
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
GOLDEN_DIR = BENCH_DIR / "golden"
SETUP_PROBES = 7
# Median time of the calibration unit on the machine the benchmark was
# defined on, so that reference seconds read close to wall seconds there.
CAL_REF_S = 0.03
CAL_REPS = 1500
PROBE_TIMEOUT_S = 60


class BenchError(Exception):
    """The benchmark cannot run here (missing program, broken probe)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement time; passes start only while they fit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="store this run's outputs as the golden record (default seed only)")
    return parser.parse_args(argv)


def import_fpkproj():
    """Import the package from this checkout's src/ and time the import."""
    if not (SRC / "fpkproj" / "__init__.py").is_file():
        raise BenchError(f"no fpkproj package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import fpkproj
    import fpkproj.runner
    seconds = time.perf_counter() - t0
    if SRC not in Path(fpkproj.__file__).resolve().parents:
        raise BenchError(f"imported fpkproj from {fpkproj.__file__}, not from {SRC}")
    return fpkproj, seconds


class Calibration:
    """Times a fixed unit of the package's kind of work to rescale a run.

    The unit evaluates an exponential-family density on the default
    quadrature grid, its moments and a small dense solve, CAL_REPS times.
    Units are timed between the measured intervals, so their median
    covers the same stretch of time as the medians it rescales.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        x = np.linspace(-12.0, 12.0, workloads.QUADRATURE_NODES)
        self.stats = np.vstack([x, x * x, 0.1 * x ** 3])
        self.theta = np.array([0.2, -0.5, 0.0])
        self.matrix = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]])
        self.samples = []
        self.unit()  # warm-up
        self.samples.clear()

    def unit(self) -> None:
        np = self.np
        t0 = time.perf_counter()
        for _ in range(CAL_REPS):
            density = np.exp(self.theta @ self.stats)
            np.linalg.solve(self.matrix, self.stats @ density)
        self.samples.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """Reference seconds per wall second over the units timed so far."""
        return CAL_REF_S / statistics.median(self.samples)


def measure_setup(mappings, calibration) -> list:
    """Set-up seconds of SETUP_PROBES fresh interpreters, after one warm-up.

    The warm-up probe writes the bytecode caches, which a user pays once
    per installation, not per run.  A calibration unit follows each probe.
    """
    payload = json.dumps(mappings).encode()
    times = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(BENCH_DIR / "probe.py"), str(SRC)],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              cwd=ROOT) as proc:
            try:
                proc.stdin.write(payload)
                proc.stdin.close()
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
                proc.wait(timeout=PROBE_TIMEOUT_S)
            except BaseException:
                proc.kill()
                raise
        if proc.returncode != 0 or not line.startswith(b"ready"):
            raise BenchError(f"set-up probe exited with {proc.returncode}")
        calibration.unit()
        if i:
            times.append(elapsed)
    return times


def setup_scenarios(fpk, cases, tracer=None):
    """Validate and build every case as ``fpkproj run`` does before integrating.

    Returns name -> Scenario, or name -> error text for cases that raise.
    Calls go through the module attributes so that traced wrappers apply.
    """
    scenario_mod = fpk.scenario
    out = {}
    for case in cases:
        span = contextlib.nullcontext() if tracer is None else tracer.span("scenario.load")
        try:
            with span:
                scenario = scenario_mod.validate_scenario(copy.deepcopy(case.raw))
                domain = scenario_mod.scenario_domain(scenario)
                scenario_mod.build_model(scenario, domain)
                scenario_mod.build_family(scenario, domain)
            out[case.name] = scenario
        except Exception:
            out[case.name] = traceback.format_exc(limit=2)
    return out


class Workload:
    """Repeated passes over one workload's scenarios, with failure bookkeeping.

    A scenario fails when an execution raises, when its outputs differ from
    the first pass, or when its outputs fail a check.  Only the last two are
    wrong outputs; a raised error is a reported failure.
    """

    def __init__(self, fpk, cases, scenarios, work_dir, calibration=None):
        self.runner = fpk.runner
        self.calibration = calibration
        self.seconds = {case.name: [] for case in cases}
        self.cases = cases
        self.scenarios = scenarios
        self.work_dir = work_dir
        self.first_rows = {}
        self.errors = {}
        self.wrong = set()
        self.unchecked = {}
        self.passes = 0
        for name, scenario in scenarios.items():
            if isinstance(scenario, str):
                self._fail(name, scenario)

    def _fail(self, name, message, wrong=False):
        self.errors.setdefault(name, []).append(message)
        if wrong:
            self.wrong.add(name)

    def run_pass(self) -> float:
        """Execute every scenario once; returns the wall time of the pass.

        Each execution's time is recorded; with a calibration, a unit
        follows each execution and is not part of the pass's wall time.
        """
        self.passes += 1
        rows = {}
        elapsed = 0.0
        for case in self.cases:
            scenario = self.scenarios[case.name]
            if isinstance(scenario, str):
                continue
            t0 = time.perf_counter()
            try:
                rows[case.name] = self.runner.run_scenario(
                    scenario, self.work_dir / case.name, quiet=True).rows
            except Exception:
                self._fail(case.name, traceback.format_exc(limit=3))
            seconds = time.perf_counter() - t0
            elapsed += seconds
            self.seconds[case.name].append(seconds)
            if self.calibration is not None:
                self.calibration.unit()
        for case in self.cases:
            got = rows.get(case.name)
            want = self.first_rows.setdefault(case.name, got)
            if got is not None and got != want:
                self._fail(case.name, "outputs differ between passes", wrong=True)
        return elapsed

    def median_pass_s(self) -> float:
        """Sum over scenarios of the median wall seconds per execution."""
        return sum(statistics.median(v) for v in self.seconds.values() if v)

    def check(self, workload, seed, write_golden=False):
        """Closed-form, identity and golden checks on the last pass's files.

        Returns (max_err, failed scenarios, error budget).  A scenario fails
        when it raised, disagreed between passes or failed a check.
        """
        import checks

        tables = {}
        for case in self.cases:
            path = self.work_dir / case.name / "trajectory.csv"
            if case.name not in self.errors and path.exists():
                tables[case.name] = checks.read_table(path)
        golden_path = GOLDEN_DIR / f"{workload}.json"
        use_golden = seed == workloads.DEFAULT_SEED and not write_golden
        golden = json.loads(golden_path.read_text()) if use_golden else {}
        budget = checks.ERROR_BUDGET[workload]
        max_err = 0.0
        captured = {}
        for case in self.cases:
            if case.name not in tables:
                continue
            out_dir = self.work_dir / case.name
            peer = case.params.get("as")
            if peer is not None and peer not in tables:
                self.unchecked[case.name] = f"{peer} has no outputs to compare with"
                continue
            try:
                err = checks.run_check(case, out_dir, tables)
                record = checks.capture(out_dir)
            except (OSError, ValueError) as exc:
                self._fail(case.name, f"unreadable outputs: {exc}", wrong=True)
                continue
            max_err = max(max_err, err)
            if not err <= budget:
                self._fail(case.name, f"{case.check} error {err:.3e} exceeds budget "
                           f"{budget:.0e}", wrong=True)
            captured[case.name] = record
            if use_golden:
                msg = checks.golden_mismatch(record, golden.get(case.name))
                if msg:
                    self._fail(case.name, f"golden: {msg}", wrong=True)
        if write_golden:
            golden_path.write_text(json.dumps(captured, indent=1, sort_keys=True) + "\n")
        failed = sum(1 for case in self.cases if case.name in self.errors)
        return max_err, failed, budget


def timed_loop(step, seconds) -> None:
    """Call step() until the next call would overrun the measurement window."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step()
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return


def context_block(fpk, args, cases) -> dict:
    import numpy
    import scipy
    import yaml

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "pyyaml": yaml.__version__,
        "fpkproj": fpk.__version__, "scenarios": len(cases),
        "quadrature_nodes": workloads.QUADRATURE_NODES, "ode_dt": workloads.STEP,
        "pde_dt": workloads.STEP, **workloads.step_counts(cases),
    }


def run_untraced(work, seconds):
    setup = measure_setup([case.raw for case in work.cases], work.calibration)
    durations = []
    timed_loop(lambda: durations.append(work.run_pass()), seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_wall, run_wall = statistics.median(setup), work.median_pass_s()
    scale = work.calibration.scale()
    return {
        "setup_s": (setup_wall * scale, "s"),
        "run_s": (run_wall * scale, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }, {"setup_wall_s": setup_wall, "run_wall_s": run_wall, "reference_scale": scale,
        "setup_samples": setup, "pass_samples": durations,
        "calibration_samples": work.calibration.samples}


def run_traced(work, seconds, tracer, setup_agg, import_s):
    import tracing

    plain, traced, aggs = [], [], []

    def pair():
        plain.append(work.run_pass())
        counts0 = dict(tracer.counts)
        lo = len(tracer)
        patches = tracing.install(tracer)
        try:
            traced.append(work.run_pass())
        finally:
            tracing.uninstall(patches)
        agg = tracer.aggregate(lo)
        agg["counts"] = {k: v - counts0[k] for k, v in tracer.counts.items()}
        aggs.append(agg)

    timed_loop(pair, seconds)
    metrics = {"import.fpkproj.total_s": (import_s, "s")}
    for name in tracer.names:
        setup_span = setup_agg["spans"][name]
        for key, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s")):
            value = setup_span[key] + statistics.median(a["spans"][name][key] for a in aggs)
            metrics[f"{name}.{key}"] = (value, unit)

    def per_pass(fn):
        return statistics.median(fn(a) for a in aggs)

    inversions = metrics["expfamily.ExpFamily.expectation_to_canonical.calls"][0]
    fisher_in_newton = per_pass(lambda a: a["fisher_in_newton"])
    cn_steps = per_pass(lambda a: a["counts"]["cn_steps"])
    solve_s = per_pass(lambda a: a["spans"]["reference.solve_fpk"]["total_s"])
    metrics.update({
        "expfamily.fisher_per_inversion": (fisher_in_newton / inversions if inversions else 0.0,
                                           "count"),
        "expfamily.nodes_touched": (per_pass(lambda a: a["counts"]["nodes_touched"]),
                                    "count_computed"),
        "runner.reinversions": (per_pass(lambda a: a["reinversions"]), "count"),
        "projection.rk4_steps": (per_pass(lambda a: a["counts"]["rk4_steps"]), "count"),
        "reference.cn_steps": (cn_steps, "count"),
        "reference.cn_step_us": (1e6 * solve_s / cn_steps if cn_steps else 0.0, "us"),
        "runner.write_bytes": (per_pass(lambda a: a["counts"]["write_bytes"]), "bytes"),
        "trace.run_s_untraced": (statistics.median(plain), "s"),
        "trace.run_s_traced": (statistics.median(traced), "s"),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(plain), "s"),
    })
    return metrics, {"pairs": len(aggs), "untraced_samples": plain, "traced_samples": traced}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_golden and args.seed != workloads.DEFAULT_SEED:
        print("--write-golden needs the default seed", file=sys.stderr)
        return 2
    cases = workloads.generate(args.workload, args.seed)
    try:
        fpk, import_s = import_fpkproj()
    except BenchError as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 2

    tracer = setup_agg = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        patches = tracing.install(tracer)
        try:
            scenarios = setup_scenarios(fpk, cases, tracer)
        finally:
            tracing.uninstall(patches)
        setup_agg = tracer.aggregate()
    else:
        scenarios = setup_scenarios(fpk, cases)

    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work = Workload(fpk, cases, scenarios, work_dir,
                    None if args.trace else Calibration())
    try:
        if args.trace:
            metrics, samples = run_traced(work, args.seconds, tracer, setup_agg, import_s)
        else:
            metrics, samples = run_untraced(work, args.seconds)
        max_err, failed, budget = work.check(args.workload, args.seed, args.write_golden)
    except BenchError as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    if args.trace:
        metrics["check.max_err"] = (max_err, "abs")
    attempted = len(cases)
    for name, messages in sorted(work.errors.items()):
        print(f"FAILED {name}: {messages[0].strip().splitlines()[-1]}")
    for name, reason in sorted(work.unchecked.items()):
        print(f"UNCHECKED {name}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name:56s} {value:.6g} {unit}")
    for name in ("setup_wall_s", "run_wall_s"):
        if name in samples:
            print(f"{name:56s} {samples[name]:.6g} s (wall)")
    print(f"{'failed_fraction':56s} {failed / attempted:.6g} ({failed}/{attempted} scenarios, "
          f"{work.passes} passes)")
    print(f"{'max_err':56s} {max_err:.3e} abs (budget {budget:.0e})")
    print("context " + json.dumps({**context_block(fpk, args, cases), "passes": work.passes,
                                   **samples}))
    print(json.dumps({
        "correct": not work.wrong and math.isfinite(max_err),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
