"""Finite-difference reference solutions and global (metric) projections.

The grid solver discretizes dp/dt = -dJ/dx with the drift-diffusion flux
J = F p - D p' (D = a/2, F = f - D') on a vertex-centered mesh with
half-width boundary cells, Scharfetter-Gummel (exponentially fitted)
face fluxes, zero-flux boundaries, and Crank-Nicolson stepping.  Mass,
measured by the trapezoid rule, is conserved to round-off because
interior fluxes telescope.

Global projections minimize a divergence over the family instead of
projecting the instantaneous dynamics: Kullback-Leibler for exponential
families and the direct L2 distance for simple mixtures.  Both families
are `Statistics` (`stats`, `stat_values`, `stat_derivative_values`), and
both optima match their expectations E_p[stats]: KL gives E_theta[c] =
E_p[c] and L2 gives m = E_p[q_i - q_{n+1}].  So a metric projection is the
family's own inversion of E_p[stats], computed on the grid by
`stat_expectations`: `ExpFamily.expectation_to_canonical` (Newton) or
`MixtureFamily.expectations_to_weights` (a constant linear solve).
"""

import importlib.machinery
import importlib.util
import os
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    FpkprojError,
    NotAnEigenfunction,
    ProjectionInconsistencyWarning,
    SchemeInstability,
    SupportViolation,
    ValidationError,
)
from .expfamily import ExpFamily, canonical_from_moments
from .mixture import MixtureFamily
from .projection import STEP_TOL, ProjectedOde, integrate_ode, sample_steps, whole_steps
from .quadrature import Domain, trapezoid_grid
from .sde import SdeModel

NEGATIVITY_TOL = 1e-10
NEGATIVE_SAMPLE_TOL = 1e-12
MASS_DRIFT_GUARD = 1e-8
MOMENT_MATCH_TOL = 1e-7
EIGEN_RESIDUAL_TOL = 1e-8
DECAY_FLOOR = 1e-8
FLIP_SKIP = 2
# fewest usable samples a decay rate is fitted to
FIT_SAMPLES = 5
MAX_LOG_SPAN = 600.0
_FLAPACK = "scipy.linalg._flapack"


@lru_cache(maxsize=16)
def _density_template(domain, nx: int) -> str:
    """A density slice of the grid with its nodes rendered: one "%.17g" left per value."""
    # "%.17g" renders a float exactly as runner.format_value does
    return "x,p\n" + "%.17g,%%.17g\n" * nx % tuple(trapezoid_grid(domain, nx)[0].tolist())


@dataclass(frozen=True)
class GridDensity:
    """A density sampled on a uniform grid, normalized under the trapezoid rule."""

    domain: Domain
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 3:
            raise ValidationError("values must be a vector with at least three samples")
        if not np.logical_and.reduce(np.isfinite(values)):
            raise ValidationError("density values must be finite")
        if np.minimum.reduce(values) < -1e-14:
            raise ValidationError(f"density has negative values down to {values.min()}")
        values = np.where(values < 0.0, 0.0, values)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        mass = float(self.trapezoid_weights.dot(values))
        if abs(mass - 1.0) > 1e-6:
            raise ValidationError(f"density mass {mass} deviates from 1 beyond tolerance")

    @property
    def nx(self):
        return self.values.size

    @property
    def x(self) -> np.ndarray:
        return trapezoid_grid(self.domain, self.nx)[0]

    @property
    def trapezoid_weights(self) -> np.ndarray:
        return trapezoid_grid(self.domain, self.nx)[1]

    @cached_property
    def csv_text(self) -> str:
        """The slice as CSV text: "x,p", then one "%.17g,%.17g" row per node.

        Rendered on first use and kept on this object (its values are
        read-only), so every scenario that writes a snapshot of one memoized
        reference solve writes the text the first one rendered.
        """
        return _density_template(self.domain, self.nx) % tuple(self.values.tolist())

    def mass(self) -> float:
        return float(self.trapezoid_weights.dot(self.values))

    def expect(self, values) -> float:
        """Expectation of a function given by values at the grid points (or callable)."""
        if callable(values):
            values = values(self.x)
        values = np.asarray(values, dtype=float)
        return float(self.trapezoid_weights.dot(self.values * values))


def grid_density(domain: Domain, nx: int, fn) -> GridDensity:
    """Sample a callable onto a grid and normalize it into a GridDensity at time 0.

    Negative samples within round-off of zero (NEGATIVE_SAMPLE_TOL times
    the largest sample) are set to zero; anything lower means fn is not a
    density and raises ValidationError rather than being clipped away.
    """
    if nx < 3:
        raise ValidationError("nx must be at least 3")
    x, w = trapezoid_grid(domain, nx)
    values = np.asarray(fn(x), dtype=float)
    low = values.min()
    if low < -NEGATIVE_SAMPLE_TOL * values.max():
        raise ValidationError(
            f"sampled density is negative down to {low:.6g} at x = {x[values.argmin()]:.6g}")
    values = np.maximum(values, 0.0)
    mass = float(w @ values)
    if mass <= 0:
        raise ValueError("cannot normalize a density with nonpositive mass")
    return GridDensity(domain=domain, values=values / mass)


def fpk_operator(model: SdeModel, domain: Domain, nx: int):
    """Tridiagonal bands (lower, diag, upper) of the discrete adjoint generator.

    The bands are computed without floating-point warnings; where one is not
    finite, as when the drift overflows a flux, SchemeInstability names the
    bands and the first cell face x where that happens.
    """
    if nx < 3:
        raise ValidationError("nx must be at least 3")
    x, vol = trapezoid_grid(domain, nx)
    h = domain.width / (nx - 1)
    xf = x[:-1] + 0.5 * h
    d_face = 0.5 * np.asarray(model.diffusion(xf), dtype=float)
    if np.min(d_face) <= 0:
        raise ValueError("diffusion must stay positive at the cell faces")
    # J_{j+1/2} = alpha_j p_j + beta_j p_{j+1}; zero flux through the boundary faces.
    # Scharfetter-Gummel: alpha = (D/h) B(-Pe), beta = -(D/h) B(Pe) with the positive
    # Bernoulli function B(x) = x / (e^x - 1), B(0) = 1; expm1 overflows to inf
    # above 709, where B has underflowed to 0 anyway
    with np.errstate(over="ignore", invalid="ignore"):
        f_face = np.asarray(model.drift(xf), dtype=float) - 0.5 * np.asarray(
            model.diffusion.d1(xf), dtype=float)
        peclet = f_face * h / d_face
        pe = np.stack((-peclet, peclet))
        bern = d_face / h * np.where(pe == 0.0, 1.0, pe / np.expm1(pe))
        alpha, beta = bern[0], -bern[1]
        lower = alpha / vol[1:]
        upper = -beta / vol[:-1]
        diag = np.empty(nx)
        diag[0] = -alpha[0] / vol[0]
        diag[-1] = beta[-1] / vol[-1]
        diag[1:-1] = (beta[:-1] - alpha[1:]) / vol[1:-1]
    finite = {name: np.isfinite(band) for name, band in
              (("lower", lower), ("diag", diag), ("upper", upper))}
    if not all(ok.all() for ok in finite.values()):
        bad = ", ".join(name for name, ok in finite.items() if not ok.all())
        # face j joins nodes j and j + 1
        faces = finite["lower"] & finite["upper"] & finite["diag"][:-1] & finite["diag"][1:]
        first = xf[np.flatnonzero(~faces)[0]]
        raise SchemeInstability(
            f"the reference operator's bands ({bad}) are not finite, first at the face "
            f"x = {first:.6g}: the drift overflows the Scharfetter-Gummel fluxes")
    return lower, diag, upper


def _symmetrizer(lower: np.ndarray, upper: np.ndarray):
    """Diagonal d with D L D^-1 symmetric, or None where it does not exist in floats.

    (d_{i+1} / d_i)^2 = upper_i / lower_i, which needs both bands positive
    and finite; a log d span above MAX_LOG_SPAN is refused as well, so
    that d = exp(log d - centre) stays within e^(+-MAX_LOG_SPAN / 2).
    """
    bands = np.concatenate((lower, upper))
    if not np.all(np.isfinite(bands) & (bands > 0.0)):
        return None
    log_d = np.concatenate(([0.0], np.cumsum(0.5 * (np.log(upper) - np.log(lower)))))
    low, high = log_d.min(), log_d.max()
    if high - low > MAX_LOG_SPAN:
        return None
    return np.exp(log_d - 0.5 * (low + high))


def _flapack_alone():
    """scipy's f2py LAPACK extension, loaded without the scipy.linalg package.

    `import scipy` runs the package's own library set-up; the extension is
    then found in scipy/linalg/ and registered in sys.modules under its
    own name, so that a later `import scipy.linalg` reuses it instead of
    initialising it a second time.  None when it is not there or does not
    load.
    """
    import scipy

    spec = importlib.machinery.PathFinder.find_spec(
        _FLAPACK, [os.path.join(path, "linalg") for path in scipy.__path__])
    if spec is None:
        return None
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError:
        return None
    sys.modules[_FLAPACK] = module
    return module


def _tridiagonal_lapack():
    """LAPACK's (dgttrf, dgttrs, dpttrf, dpttrs) for `_cn_step`.

    They come from the extension `scipy.linalg._flapack`, the one already
    loaded or else `_flapack_alone`, which spares a reference run the
    import of all of scipy.linalg (about 0.2 s and 23 MB).  The extension
    is private, so where it cannot be loaded alone the routines come from
    `scipy.linalg.lapack`, which re-exports the same objects.
    """
    lapack = sys.modules.get(_FLAPACK) or _flapack_alone()
    if lapack is None:
        from scipy.linalg import lapack
    return lapack.dgttrf, lapack.dgttrs, lapack.dpttrf, lapack.dpttrs


def _cn_step(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, dt: float):
    """One Crank-Nicolson step of the bands (lower, diag, upper) of L: (d, step).

    With M = I - (dt/2) L, the step p <- M^-1 (I + (dt/2) L) p equals
    p <- 2 M^-1 p - p, since I + (dt/2) L = 2I - M.  The factorization
    is made once, of M/2 = I/2 - (dt/4) L: halving is exact in binary
    floating point away from subnormal numbers, so (M/2)^-1 q is 2 M^-1 q
    to the bit and `step(q)` returns ((M/2)^-1 q - q, LAPACK info) with
    one subtraction.
    The off-diagonal bands of L are positive multiples of B(-Pe) and
    B(Pe) (a birth-death generator), so the diagonal similarity d of
    `_symmetrizer` turns L into a symmetric S = D L D^-1, and the step
    acts on q = d p with the symmetric positive definite
    M_S/2 = I/2 - (dt/4) S:
    `dpttrf` (LDL^T) once, `dpttrs` per step.  Where d does not exist in
    double precision (a band underflows to zero or is not finite, or
    log d spans more than MAX_LOG_SPAN, as for strongly confining drifts
    on wide domains) it steps p itself with `dgttrf`/`dgttrs`, and d is
    all ones.  Raises SchemeInstability when M is singular.
    """
    dgttrf, dgttrs, dpttrf, dpttrs = _tridiagonal_lapack()
    quarter = 0.25 * dt
    d = _symmetrizer(lower, upper)
    if d is None:
        d = np.ones(diag.size)
        factors, solve = dgttrf(-quarter * lower, 0.5 - quarter * diag, -quarter * upper), dgttrs
    else:
        off = -quarter * (np.sqrt(lower) * np.sqrt(upper))
        factors, solve = dpttrf(0.5 - quarter * diag, off), dpttrs
    if factors[-1] != 0:
        raise SchemeInstability(f"Crank-Nicolson matrix is singular (LAPACK info {factors[-1]})")
    factors = factors[:-1]

    def step(q):
        y, info = solve(*factors, q)
        return np.subtract(y, q, out=y), info

    return d, step


def solve_fpk(model: SdeModel, p0: GridDensity, t_end: float, dt: float,
              sample_stride: int = 1, reduce=None) -> list:
    """Crank-Nicolson evolution of the grid density; returns sampled snapshots.

    Every call solves.  Runs solve through `ReferenceProblem.solve`, which
    calls this function for each solve it makes and hands back the last
    problem's result when asked for it again.  Snapshots are taken every
    sample_stride steps and at the final step (see `sample_steps`), and
    returned as `GridDensity`s.  Given
    `reduce`, a function of one snapshot, the solve applies it to each
    snapshot as soon as the step that makes it finishes and returns the
    list of its results instead, keeping nothing else of the snapshot: a
    caller that needs a few numbers per snapshot then holds no more than
    one grid vector at a time.  `_cn_step` builds the step once per solve
    and chooses its LAPACK path; this one loop steps q = d p and takes
    the snapshots p = q / d.  Every step checks the LAPACK status,
    negativity (q < -NEGATIVITY_TOL d) and the mass (w / d) . q, and
    raises SchemeInstability when a solve fails, on negative densities
    beyond round-off or on loss of mass conservation, a NaN node included.
    """
    nsteps = whole_steps(t_end, dt, "t_end")
    recorded = set(sample_steps(nsteps, sample_stride))
    d, step = _cn_step(*fpk_operator(model, p0.domain, p0.nx), dt)
    weights = p0.trapezoid_weights / d
    floor = -NEGATIVITY_TOL * d
    q = d * p0.values
    keep = (lambda snap: snap) if reduce is None else reduce
    snapshots = [keep(GridDensity(domain=p0.domain, values=p0.values, time=0.0))]
    prev_mass = float(weights.dot(q))
    for k in range(1, nsteps + 1):
        q, info = step(q)
        if info != 0:
            raise SchemeInstability(f"tridiagonal solve failed at step {k} (LAPACK info {info})")
        if np.minimum.reduce(q) < 0.0 and np.logical_or.reduce(q < floor):
            raise SchemeInstability(
                f"density dropped to {(q / d).min()} at step {k} with dt = {dt:g}; "
                "reduce numerics.pde_dt")
        mass = float(weights.dot(q))
        # NaN compares False: a NaN node makes the mass NaN, which fails this test
        if not abs(mass - prev_mass) <= MASS_DRIFT_GUARD:
            raise SchemeInstability(
                f"mass drifted by {mass - prev_mass} in step {k}")
        prev_mass = mass
        if k in recorded:
            snapshots.append(keep(GridDensity(
                domain=p0.domain, values=np.maximum(q / d, 0.0), time=float(k * dt))))
    return snapshots


# the last problem `ReferenceProblem.solve` solved: at most one entry, key -> results
_solved = {}


@dataclass(frozen=True)
class ReferenceProblem:
    """The reference solve `solve_fpk(model, p0, t_end, dt, stride)` as one value."""

    model: SdeModel
    p0: GridDensity
    t_end: float
    dt: float
    stride: int

    @property
    def key(self) -> tuple:
        """Exact bytes of everything the solve reads: the operator's bands (all it
        reads of the model), the start on its grid and the steps."""
        p0 = self.p0
        bands = fpk_operator(self.model, p0.domain, p0.nx)
        floats = np.array([p0.domain.lower, p0.domain.upper, self.t_end, self.dt], dtype=float)
        return (*(band.tobytes() for band in bands), p0.values.tobytes(), floats.tobytes(),
                p0.domain.kind, p0.nx, self.stride)

    def solve(self, family=None) -> list:
        """`solve_fpk`'s result, solved once for consecutive calls on one problem.

        Without a family, the snapshots; with one, `(time, E_p[stats])` per
        snapshot, reduced by `_moments` as the solve makes it, so that no more
        than one grid vector is held at a time.  The memo holds only the last
        problem solved, keyed on `key` and, for a family, on the bytes of its
        statistics at the grid nodes, all that the reduction reads of it; a new
        problem drops it before solving, and a solve that raises stores nothing.
        Each call gets a new list of read-only values.
        """
        key = (self.key if family is None
               else (*self.key, family.values_at(self.p0.x).tobytes()))
        if key not in _solved:
            _solved.clear()
            _solved[key] = solve_fpk(
                self.model, self.p0, self.t_end, self.dt, self.stride,
                reduce=None if family is None else lambda snap: _moments(snap, family))
        return list(_solved[key])


def snapshot_index(times, t: float) -> int:
    """Index of the snapshot taken at time t; ValidationError if none is."""
    times = np.asarray(times, dtype=float)
    hit = np.flatnonzero(np.abs(times - t) <= STEP_TOL * max(1.0, float(times[-1])))
    if hit.size == 0:
        raise ValidationError(f"t = {t:g} is not a reference snapshot time")
    return int(hit[0])


# -- divergences ------------------------------------------------------


_DENSITY_FLOOR = 1e-300
_SUPPORT_LEVEL = 1e-12
_KL_SKIP = 1e-14


def _eval_on_grid(q, grid: GridDensity) -> np.ndarray:
    """q's values at the grid nodes: q is those values or a callable."""
    vals = np.asarray(q(grid.x) if callable(q) else q, dtype=float)
    if vals.shape != grid.values.shape:
        raise ValueError("density values do not match the grid")
    if not np.logical_and.reduce(np.isfinite(vals)):
        raise ValueError("comparison density must be finite on the grid")
    return vals


def divergence_kl(p: GridDensity, q) -> float:
    """Kullback-Leibler divergence K(p, q) = E_p[log(p/q)].

    Nodes where p is numerically zero are skipped; q is floored to avoid
    log(0); genuine support mismatch raises SupportViolation.
    """
    qv = _eval_on_grid(q, p)
    pv = p.values
    if np.logical_or.reduce((pv > _SUPPORT_LEVEL) & (qv < _DENSITY_FLOOR)):
        raise SupportViolation("q vanishes where p carries mass")
    mask = pv > _KL_SKIP
    ratio = np.log(pv[mask]) - np.log(np.maximum(qv[mask], _DENSITY_FLOOR))
    return float(p.trapezoid_weights[mask].dot(pv[mask] * ratio))


def divergence_hellinger(p: GridDensity, q) -> float:
    """Squared Hellinger-type distance integral (sqrt p - sqrt q)^2."""
    qv = np.maximum(_eval_on_grid(q, p), 0.0)
    diff = np.sqrt(p.values) - np.sqrt(qv)
    return float(p.trapezoid_weights.dot(diff * diff))


def divergence_l2(p: GridDensity, q) -> float:
    """Squared direct L2 distance integral (p - q)^2."""
    qv = _eval_on_grid(q, p)
    diff = p.values - qv
    return float(p.trapezoid_weights.dot(diff * diff))


# -- metric (global) projections --------------------------------------


def stat_expectations(p: GridDensity, family) -> np.ndarray:
    """E_p[stats]: the expectation coordinates that a metric projection matches.

    The snapshots of one reference run share their read-only nodes `p.x`,
    so the family's memo evaluates each statistic once per run.
    """
    return np.array([p.expect(row) for row in family.values_at(p.x)])


def _moments(snap: GridDensity, family) -> tuple:
    """(time, E_p[stats]) of one snapshot, the expectations read-only."""
    eta = stat_expectations(snap, family)
    eta.setflags(write=False)
    return snap.time, eta


def metric_project_ef(p: GridDensity, fam: ExpFamily) -> np.ndarray:
    """KL-optimal member: the family's inversion of E_p[c], whose match certifies it.

    Newton starts from the family's own seed, except on EP(n >= 4), which is
    seeded with the algebraic inversion of the first 2n grid moments.
    """
    eta_target = stat_expectations(p, fam)
    initial = None
    if fam.kind == "ep" and fam.gaussian_fit is None:
        ext = np.array([p.expect(p.x ** i) for i in range(1, 2 * fam.n + 1)])
        try:
            initial = canonical_from_moments(ext)
        except FpkprojError:
            pass
    theta = fam.expectation_to_canonical(eta_target, initial=initial)
    gap = float(np.maximum.reduce(np.abs(fam.expectation_params(theta) - eta_target)))
    if gap > MOMENT_MATCH_TOL:
        warnings.warn(
            f"moment match residual {gap:.3e} exceeds {MOMENT_MATCH_TOL}",
            ProjectionInconsistencyWarning)
    return theta


def metric_project_mix(p: GridDensity, fam: MixtureFamily) -> np.ndarray:
    """L2-optimal mixture weights: the family's inversion of m = E_p[stats]."""
    return fam.expectations_to_weights(stat_expectations(p, fam))


# -- eigenfunction decay experiment ------------------------------------


def _eigenvalues_for(family, lvals):
    """Rayleigh-quotient eigenvalues from L c at the nodes, strictly verified pointwise."""
    w = family.rule.weights
    vals = family.stat_values()
    lambdas = np.empty(vals.shape[0])
    for i in range(vals.shape[0]):
        norm_sq = float(w @ (vals[i] * vals[i]))
        lambdas[i] = -float(w @ (lvals[i] * vals[i])) / norm_sq
        resid = float(np.max(np.abs(lvals[i] + lambdas[i] * vals[i])))
        if resid > EIGEN_RESIDUAL_TOL:
            raise NotAnEigenfunction(f"statistic {i + 1} has eigen-residual {resid:.3e}")
    return lambdas


@dataclass
class DecayReport:
    """Error-moment trajectories of a projection run against the reference."""

    times: np.ndarray
    epsilon: np.ndarray          # (samples, n)
    ode_moments: np.ndarray
    eigenvalues: np.ndarray
    fitted_rates: list
    max_abs_epsilon: np.ndarray
    coordinates: str

    def as_dict(self) -> dict:
        return {
            "coordinates": self.coordinates,
            "times": [float(t) for t in self.times],
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "fitted_rates": [None if r is None else float(r) for r in self.fitted_rates],
            "max_abs_epsilon": [float(v) for v in self.max_abs_epsilon],
            "epsilon": [[float(v) for v in row] for row in self.epsilon],
        }


def fit_decay_rates(times: np.ndarray, epsilon: np.ndarray, window=None) -> list:
    """Least-squares slopes of log|epsilon_i(t)|, skipping sign flips.

    Samples with |epsilon_i| <= DECAY_FLOOR, and FLIP_SKIP samples on each
    side of a sign flip, are left out.  Returns one rate per column of
    epsilon, or None where fewer than FIT_SAMPLES usable samples remain.
    """
    times = np.asarray(times, dtype=float)
    epsilon = np.asarray(epsilon, dtype=float)
    lo, hi = (times[0], times[-1]) if window is None else window
    rates = []
    for i in range(epsilon.shape[1]):
        e = epsilon[:, i]
        usable = (np.abs(e) > DECAY_FLOOR) & (times >= lo) & (times <= hi)
        signs = np.sign(e)
        flips = np.flatnonzero(signs[:-1] * signs[1:] < 0)
        for j in flips:
            usable[max(0, j - FLIP_SKIP + 1): j + FLIP_SKIP + 1] = False
        if usable.sum() < FIT_SAMPLES:
            rates.append(None)
            continue
        t = times[usable]
        logs = np.log(np.abs(e[usable]))
        a = np.vstack([t, np.ones_like(t)]).T
        slope = np.linalg.lstsq(a, logs, rcond=None)[0][0]
        rates.append(-float(slope))
    return rates


def decay_experiment(model: SdeModel, family, p0: GridDensity, t_end: float,
                     pde_dt: float = 1e-3, ode_dt: float = 1e-3,
                     sample_stride: int = 10, start=None, fit_window=None) -> DecayReport:
    """Track epsilon(t) = reference moments minus projected moments.

    Requires the family statistics (q_i - q_{n+1} for a mixture) to be generator
    eigenfunctions, in which case epsilon obeys d epsilon/dt = -Lambda
    epsilon exactly and the fitted rates should match the eigenvalues.
    `start` optionally sets the projection's initial expectation
    coordinates; by default they are matched to p0, making epsilon(0) = 0.
    The reference solve, `ReferenceProblem.solve(family)`, keeps only each
    snapshot's time and E_p[stats], reduced as the snapshot is made, so the
    experiment never holds more than one reference density at a time.  Its
    memo is keyed on the family's statistics at the grid nodes: two
    experiments on one reference problem and one family's statistics, with
    different starts, solve once.
    """
    ode = ProjectedOde(family, model, family.expectation_method)
    lambdas = _eigenvalues_for(family, ode.lc)
    # every snapshot must fall on an ODE step
    ode_stride = whole_steps(sample_stride * pde_dt, ode_dt, "sample_stride * pde_dt")

    moments = ReferenceProblem(model, p0, t_end, pde_dt, sample_stride).solve(family)
    times = np.array([t for t, _ in moments])
    ref_moments = np.vstack([eta for _, eta in moments])
    y0 = ref_moments[0] if start is None else np.asarray(start, dtype=float)
    traj = integrate_ode(ode, y0, t_end, ode_dt, sample_stride=ode_stride)
    epsilon = ref_moments - traj.expectations
    rates = fit_decay_rates(times, epsilon, window=fit_window)
    return DecayReport(
        times=times,
        epsilon=epsilon,
        ode_moments=traj.expectations,
        eigenvalues=lambdas,
        fitted_rates=rates,
        max_abs_epsilon=np.max(np.abs(epsilon), axis=0),
        coordinates=family.expectation_key,
    )
