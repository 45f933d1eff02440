"""Finite-difference reference solutions and global (metric) projections.

The grid solver discretizes dp/dt = -dJ/dx with the drift-diffusion flux
J = F p - D p' (D = a/2, F = f - D') on a vertex-centered mesh with
half-width boundary cells, exponentially fitted face weights, zero-flux
boundaries, and Crank-Nicolson stepping.  Mass, measured by the trapezoid
rule, is conserved to round-off because interior fluxes telescope.

Global projections minimize a divergence over the family instead of
projecting the instantaneous dynamics: Kullback-Leibler for exponential
families (equivalent to matching the first n moments) and the direct L2
distance for simple mixtures (a constant linear solve).
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    FpkprojError,
    InadmissibleRecovery,
    NotAnEigenfunction,
    ProjectionInconsistencyWarning,
    SchemeInstability,
    SupportViolation,
    ValidationError,
)
from .expfamily import ExpFamily, canonical_from_moments
from .mixture import MixtureFamily
from .projection import STEP_TOL, ProjectedOde, integrate_ode, sample_steps, whole_steps
from .quadrature import Domain
from .sde import SdeModel

import warnings

NEGATIVITY_TOL = 1e-10
NEGATIVE_SAMPLE_TOL = 1e-12
MASS_DRIFT_GUARD = 1e-8
MOMENT_MATCH_TOL = 1e-7
EIGEN_RESIDUAL_TOL = 1e-8


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
        if not np.all(np.isfinite(values)):
            raise ValidationError("density values must be finite")
        if values.min() < -1e-14:
            raise ValidationError(f"density has negative values down to {values.min()}")
        values = np.where(values < 0.0, 0.0, values)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        mass = float(self.trapezoid_weights @ values)
        if abs(mass - 1.0) > 1e-6:
            raise ValidationError(f"density mass {mass} deviates from 1 beyond tolerance")

    @property
    def nx(self):
        return self.values.size

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.domain.lower, self.domain.upper, self.nx)

    @property
    def trapezoid_weights(self) -> np.ndarray:
        h = self.domain.width / (self.nx - 1)
        w = np.full(self.nx, h)
        w[0] = w[-1] = 0.5 * h
        return w

    def mass(self) -> float:
        return float(self.trapezoid_weights @ self.values)

    def expect(self, values) -> float:
        """Expectation of a function given by values at the grid points (or callable)."""
        if callable(values):
            values = values(self.x)
        values = np.asarray(values, dtype=float)
        return float(self.trapezoid_weights @ (self.values * values))


def grid_density(domain: Domain, nx: int, fn, time: float = 0.0,
                 normalize: bool = True) -> GridDensity:
    """Sample a callable onto a grid and normalize it into a GridDensity.

    Negative samples within round-off of zero (NEGATIVE_SAMPLE_TOL times
    the largest sample) are set to zero; anything lower means fn is not a
    density and raises ValidationError rather than being clipped away.
    """
    if nx < 3:
        raise ValidationError("nx must be at least 3")
    x = np.linspace(domain.lower, domain.upper, nx)
    values = np.asarray(fn(x), dtype=float)
    low = values.min()
    if low < -NEGATIVE_SAMPLE_TOL * values.max():
        raise ValidationError(
            f"sampled density is negative down to {low:.6g} at x = {x[values.argmin()]:.6g}")
    values = np.maximum(values, 0.0)
    if normalize:
        h = domain.width / (nx - 1)
        w = np.full(nx, h)
        w[0] = w[-1] = 0.5 * h
        mass = float(w @ values)
        if mass <= 0:
            raise ValueError("cannot normalize a density with nonpositive mass")
        values = values / mass
    return GridDensity(domain=domain, values=values, time=time)


def _face_weights(w: np.ndarray) -> np.ndarray:
    """Exponentially fitted donor weights delta(w) = 1/w - 1/(e^w - 1)."""
    out = np.empty_like(w)
    small = np.abs(w) < 1e-5
    ws = w[small]
    out[small] = 0.5 - ws / 12.0 + ws ** 3 / 720.0
    wl = w[~small]
    out[~small] = 1.0 / wl - 1.0 / np.expm1(wl)
    return out


def fpk_operator(model: SdeModel, domain: Domain, nx: int):
    """Tridiagonal bands (lower, diag, upper) of the discrete adjoint generator."""
    if nx < 3:
        raise ValidationError("nx must be at least 3")
    x = np.linspace(domain.lower, domain.upper, nx)
    h = domain.width / (nx - 1)
    xf = x[:-1] + 0.5 * h
    d_face = 0.5 * np.asarray(model.diffusion(xf), dtype=float)
    if np.min(d_face) <= 0:
        raise ValueError("diffusion must stay positive at the cell faces")
    f_face = np.asarray(model.drift(xf), dtype=float) - 0.5 * np.asarray(
        model.diffusion.d1(xf), dtype=float)
    peclet = f_face * h / d_face
    delta = _face_weights(peclet)
    # J_{j+1/2} = alpha_j p_j + beta_j p_{j+1}; zero flux through the boundary faces
    alpha = f_face * (1.0 - delta) + d_face / h
    beta = f_face * delta - d_face / h
    vol = np.full(nx, h)
    vol[0] = vol[-1] = 0.5 * h
    lower = alpha / vol[1:]
    upper = -beta / vol[:-1]
    diag = np.empty(nx)
    diag[0] = -alpha[0] / vol[0]
    diag[-1] = beta[-1] / vol[-1]
    diag[1:-1] = (beta[:-1] - alpha[1:]) / vol[1:-1]
    return lower, diag, upper


def solve_fpk(model: SdeModel, p0: GridDensity, t_end: float, dt: float,
              sample_stride: int = 1) -> list[GridDensity]:
    """Crank-Nicolson evolution of the grid density; returns sampled snapshots.

    Snapshots are taken every sample_stride steps and at the final step
    (see `sample_steps`).  With M = I - (dt/2) L, the step
    p <- M^-1 (I + (dt/2) L) p equals p <- 2 M^-1 p - p, since
    I + (dt/2) L = 2I - M: one LAPACK tridiagonal solve on a factorization
    of M made once.  Raises SchemeInstability when M is singular or a solve
    fails, on negative densities beyond round-off or on loss of mass
    conservation, checked at every step.
    """
    # imported here so that importing the package does not load scipy.linalg
    from scipy.linalg.lapack import dgttrf, dgttrs

    nsteps = whole_steps(t_end, dt, "t_end")
    if sample_stride < 1:
        raise ValidationError("sample_stride must be at least 1")
    lower, diag, upper = fpk_operator(model, p0.domain, p0.nx)
    half = 0.5 * dt
    factors = dgttrf(-half * lower, 1.0 - half * diag, -half * upper)
    if factors[-1] != 0:
        raise SchemeInstability(f"Crank-Nicolson matrix is singular (LAPACK info {factors[-1]})")
    factors = factors[:-1]
    recorded = set(sample_steps(nsteps, sample_stride))
    weights = p0.trapezoid_weights
    p = p0.values.copy()
    mass0 = float(weights @ p)
    snapshots = [GridDensity(domain=p0.domain, values=p.copy(), time=0.0)]
    prev_mass = mass0
    for k in range(1, nsteps + 1):
        y, info = dgttrs(*factors, p)
        if info != 0:
            raise SchemeInstability(f"tridiagonal solve failed at step {k} (LAPACK info {info})")
        y *= 2.0
        y -= p
        p = y
        if p.min() < -NEGATIVITY_TOL:
            raise SchemeInstability(
                f"density dropped to {p.min()} at step {k}")
        mass = float(weights @ p)
        if abs(mass - prev_mass) > MASS_DRIFT_GUARD:
            raise SchemeInstability(
                f"mass drifted by {mass - prev_mass} in step {k}")
        prev_mass = mass
        if k in recorded:
            snapshots.append(GridDensity(
                domain=p0.domain, values=np.maximum(p, 0.0), time=float(k * dt)))
    return snapshots


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
    if isinstance(q, GridDensity):
        if q.nx == grid.nx and q.domain == grid.domain:
            vals = np.array(q.values, dtype=float)
        else:
            vals = np.interp(grid.x, q.x, q.values)
    else:
        vals = np.asarray(q(grid.x) if callable(q) else q, dtype=float)
    if vals.shape != grid.values.shape:
        raise ValueError("density values do not match the grid")
    if not np.all(np.isfinite(vals)):
        raise ValueError("comparison density must be finite on the grid")
    return vals


def divergence_kl(p: GridDensity, q) -> float:
    """Kullback-Leibler divergence K(p, q) = E_p[log(p/q)].

    Nodes where p is numerically zero are skipped; q is floored to avoid
    log(0); genuine support mismatch raises SupportViolation.
    """
    qv = _eval_on_grid(q, p)
    pv = p.values
    if np.any((pv > _SUPPORT_LEVEL) & (qv < _DENSITY_FLOOR)):
        raise SupportViolation("q vanishes where p carries mass")
    mask = pv > _KL_SKIP
    ratio = np.log(pv[mask]) - np.log(np.maximum(qv[mask], _DENSITY_FLOOR))
    return float(p.trapezoid_weights[mask] @ (pv[mask] * ratio))


def divergence_hellinger(p: GridDensity, q) -> float:
    """Squared Hellinger-type distance integral (sqrt p - sqrt q)^2."""
    qv = np.maximum(_eval_on_grid(q, p), 0.0)
    diff = np.sqrt(p.values) - np.sqrt(qv)
    return float(p.trapezoid_weights @ (diff * diff))


def divergence_l2(p: GridDensity, q) -> float:
    """Squared direct L2 distance integral (p - q)^2."""
    qv = _eval_on_grid(q, p)
    diff = p.values - qv
    return float(p.trapezoid_weights @ (diff * diff))


# -- metric (global) projections --------------------------------------


def _gaussian_seed(p: GridDensity, fam: ExpFamily):
    """theta of the Gaussian with p's mean and variance, when span{c, 1} = span{x, x^2, 1}.

    Such a family is the Gaussians, whose KL optimum matches mean and
    variance; None for any other family.
    """
    fit = fam.gaussian_fit
    if fit is None:
        return None
    mean = p.expect(p.x)
    var = p.expect((p.x - mean) ** 2)
    # theta' . (x, x^2) = theta' . (A c + b) = (A' theta') . c + const
    return fit[0].T @ np.array([mean / var, -0.5 / var])


def metric_project_ef(p: GridDensity, fam: ExpFamily, tol: float = 1e-12) -> np.ndarray:
    """KL-optimal family member: theta with moment match E_theta[c] = E_p[c].

    The Newton solve is seeded with the moment-matched Gaussian when the
    family is the Gaussians, and otherwise, for the polynomial family, with
    the algebraic inversion of the first 2n grid moments; the
    moment-matching condition is what certifies optimality, so it is always
    polished to tolerance.
    """
    x = p.x
    eta_target = np.array([p.expect(c(x)) for c in fam.stats])
    initial = _gaussian_seed(p, fam)
    if initial is None and fam.kind == "ep":
        ext = np.array([p.expect(x ** i) for i in range(1, 2 * fam.n + 1)])
        try:
            initial = canonical_from_moments(ext)
        except FpkprojError:
            initial = None
    theta = fam.expectation_to_canonical(eta_target, initial=initial, tol=tol)
    achieved = fam.expectation_params(theta)
    gap = float(np.max(np.abs(achieved - eta_target)))
    if gap > MOMENT_MATCH_TOL:
        warnings.warn(
            f"moment match residual {gap:.3e} exceeds {MOMENT_MATCH_TOL}",
            ProjectionInconsistencyWarning)
    return theta


def metric_project_mix(p: GridDensity, fam: MixtureFamily) -> np.ndarray:
    """L2-optimal mixture weights theta = gamma^{-1} (m_tilde - beta)."""
    x = p.x
    tangents = np.vstack([c(x) for c in fam.components])
    d = tangents[:-1] - tangents[-1]
    m_tilde = np.array([p.expect(row) for row in d])
    theta = np.linalg.solve(fam.gamma, m_tilde - fam.beta)
    if not fam.is_admissible(theta):
        raise InadmissibleRecovery(
            "metric projection leaves the weight simplex", value=theta)
    return theta


# -- eigenfunction decay experiment ------------------------------------


def _eigenvalues_for(family, model: SdeModel):
    """Rayleigh-quotient eigenvalues with a strict pointwise verification."""
    w = family.rule.weights
    if isinstance(family, ExpFamily):
        vals = family.stat_values()
        derivs = family.stat_derivative_values()
    else:
        vals = family.tangent_values()
        derivs = family.tangent_derivative_values()
    lvals = model.generator_values(family.rule.nodes, *derivs)
    lambdas = np.empty(vals.shape[0])
    for i in range(vals.shape[0]):
        norm_sq = float(w @ (vals[i] * vals[i]))
        lambdas[i] = -float(w @ (lvals[i] * vals[i])) / norm_sq
        resid = float(np.max(np.abs(lvals[i] + lambdas[i] * vals[i])))
        if resid > EIGEN_RESIDUAL_TOL:
            raise NotAnEigenfunction(
                f"statistic {i + 1} has eigen-residual {resid:.3e}", index=i + 1)
    return lambdas


@dataclass
class DecayReport:
    """Error-moment trajectories of a projection run against the reference."""

    times: np.ndarray
    epsilon: np.ndarray          # (samples, n)
    reference_moments: np.ndarray
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


def fit_decay_rates(times: np.ndarray, epsilon: np.ndarray, window=None,
                    floor: float = 1e-8, skip: int = 2) -> list:
    """Least-squares slopes of log|epsilon_i(t)|, skipping sign flips.

    Returns one rate per column of epsilon, or None where fewer than five
    usable samples remain.
    """
    times = np.asarray(times, dtype=float)
    epsilon = np.asarray(epsilon, dtype=float)
    lo, hi = (times[0], times[-1]) if window is None else window
    rates = []
    for i in range(epsilon.shape[1]):
        e = epsilon[:, i]
        usable = (np.abs(e) > floor) & (times >= lo) & (times <= hi)
        signs = np.sign(e)
        flips = np.flatnonzero(signs[:-1] * signs[1:] < 0)
        for j in flips:
            usable[max(0, j - skip + 1): j + skip + 1] = False
        if usable.sum() < 5:
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

    Requires the family statistics (or mixture tangents) to be generator
    eigenfunctions, in which case epsilon obeys d epsilon/dt = -Lambda
    epsilon exactly and the fitted rates should match the eigenvalues.
    `start` optionally sets the projection's initial expectation
    coordinates; by default they are matched to p0, making epsilon(0) = 0.
    """
    lambdas = _eigenvalues_for(family, model)
    x = p0.x
    if isinstance(family, ExpFamily):
        obs = np.vstack([c(x) for c in family.stats])
        method = "ada-ef"
        coordinates = "eta"
    elif isinstance(family, MixtureFamily):
        comp = np.vstack([c(x) for c in family.components])
        obs = comp[:-1] - comp[-1]
        method = "ada-mix"
        coordinates = "m"
    else:
        raise ValidationError("decay experiments need an exponential or mixture family")

    # every snapshot must fall on an ODE step
    ode_stride = whole_steps(sample_stride * pde_dt, ode_dt, "sample_stride * pde_dt")
    snapshots = solve_fpk(model, p0, t_end, pde_dt, sample_stride=sample_stride)
    ref_moments = np.vstack([[snap.expect(row) for row in obs] for snap in snapshots])
    if start is None:
        y0 = ref_moments[0].copy()
    else:
        y0 = np.asarray(start, dtype=float)
    ode = ProjectedOde(family, model, method)
    traj = integrate_ode(ode, y0, t_end, ode_dt, sample_stride=ode_stride)
    ode_moments = traj.states[traj.rows]
    times = np.array([snap.time for snap in snapshots])
    epsilon = ref_moments - ode_moments
    rates = fit_decay_rates(times, epsilon, window=fit_window)
    return DecayReport(
        times=times,
        epsilon=epsilon,
        reference_moments=ref_moments,
        ode_moments=ode_moments,
        eigenvalues=lambdas,
        fitted_rates=rates,
        max_abs_epsilon=np.max(np.abs(epsilon), axis=0),
        coordinates=coordinates,
    )
