"""Tangent-space projection of Fokker-Planck dynamics onto a family.

For an exponential family the projected flow in canonical coordinates is

    theta_dot = g(theta)^{-1} v(theta),   v_i = E_theta[L c_i],

and in expectation coordinates simply eta_dot_i = E_eta[L c_i]; the two
are the same flow because d eta = g d theta.  For a simple mixture family
the metric is constant and

    theta_dot = gamma^{-1} v(theta),
    v_j = E_theta[L (q_j - q_{n+1})] = sum_k theta_hat_k <L(q_j - q_{n+1}), q_k>,

with the sum running over all n+1 components, so v is affine in theta.
The expectation form m_dot = v(theta(m)) and a Galerkin discretization on
the basis (q_1 - q_{n+1}, ..., q_n - q_{n+1}, q_{n+1}) with the last
coefficient frozen at 1 reproduce the identical vector field.

When the generator closes on the statistics, L c_i in span{1, c} with
L c = A c + b pointwise, the expectation field E_eta[L c] = A eta + b does
not depend on theta: ada-ef is the constant affine field eta_dot = A eta + b,
and `integrate_ode` inverts the moment map only at the sampled steps.
Eigenfunction statistics, L c_i = -lambda_i c_i, are its diagonal case,
where the projected moments obey eta_dot = -Lambda eta exactly.  Every
constant affine field, the mixture methods included, evaluates no stage:
one RK4 step is the fixed map y -> Phi y + phi, and a block of steps is
one product with precomputed powers of it.

`ProjectedOde` holds the one implementation of each of the five fields;
the free `*_rhs` functions check their inputs and evaluate it.

The residual of the projection at theta is the L2 distance, in the
sqrt-density geometry, between L* p and its tangent-space image:

    w = L* p / (2 sqrt(p)),  u_i = sqrt(p) (c_i - eta_i) / 2,
    R^2 = ||w||^2 - 4 b' g^{-1} b,  b_i = <w, u_i>.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import FpkprojError, NonFiniteIntegrand, SchemeInstability, TrajectoryExit
from .errors import ValidationError
from .expfamily import ExpFamily
from .mixture import MixtureFamily
from .sde import SdeModel

METHODS = ExpFamily.methods + MixtureFamily.methods

STEP_TOL = 1e-8
# longest block of steps taken as one product of propagator powers
BLOCK_STEPS = 1024
# most steps on any time grid: a run keeps a state per step
MAX_STEPS = 10 ** 7
# RK4 is stable on the real axis for -RK4_REAL_LIMIT <= dt lambda <= 0, to the digits given
RK4_REAL_LIMIT = 2.785


def whole_steps(span: float, dt: float, what: str) -> int:
    """Number of steps of length dt in span; ValidationError unless whole, positive
    and at most MAX_STEPS."""
    if not (dt > 0 and span > 0 and np.isfinite(span / dt)):
        raise ValidationError(f"{what} ({span:g}) and its step ({dt:g}) must be positive")
    nsteps = int(round(span / dt))
    if nsteps > MAX_STEPS:
        raise ValidationError(f"{what} ({span:g}) is {nsteps:.8g} steps of {dt:g}, "
                              f"more than the {MAX_STEPS} a grid may take")
    if nsteps < 1 or abs(nsteps * dt - span) > STEP_TOL * max(1.0, span):
        raise ValidationError(f"{what} ({span:g}) is not a whole number of steps of {dt:g}")
    return nsteps


def sample_steps(nsteps: int, stride: int) -> list:
    """Indices of the recorded steps: every stride-th step and always the last."""
    if stride < 1:
        raise ValidationError("sample_stride must be at least 1")
    steps = list(range(0, nsteps + 1, stride))
    if steps[-1] != nsteps:
        steps.append(nsteps)
    return steps


def ef_theta_rhs(fam: ExpFamily, model: SdeModel, theta) -> np.ndarray:
    """Canonical-coordinate projected drift g(theta)^{-1} E_theta[L c]."""
    return ProjectedOde(fam, model, "tangent-ef").rhs(fam.require_admissible(theta))


def ef_eta_rhs(fam: ExpFamily, model: SdeModel, eta, initial=None) -> np.ndarray:
    """Expectation-coordinate projected drift E_eta[L c].

    Raises unless eta is a moment vector of the family: the canonical point
    is recovered by Newton inversion, seeded by `initial` when a good guess
    is available.
    """
    eta = np.asarray(eta, dtype=float)
    theta = fam.expectation_to_canonical(eta, initial=initial)
    return ProjectedOde(fam, model, "ada-ef").rhs(eta, theta)


def mixture_theta_rhs(fam: MixtureFamily, model: SdeModel, theta) -> np.ndarray:
    """Weight-coordinate projected drift gamma^{-1} E_theta[L(q - q_{n+1})]."""
    return ProjectedOde(fam, model, "tangent-mix").rhs(fam.require_admissible(theta))


def mixture_m_rhs(fam: MixtureFamily, model: SdeModel, m) -> np.ndarray:
    """Expectation-coordinate projected drift E_m[L(q - q_{n+1})]."""
    # raises unless m maps to weights inside the open simplex
    fam.expectations_to_weights(m)
    return ProjectedOde(fam, model, "ada-mix").rhs(np.asarray(m, dtype=float))


def galerkin_rhs(fam: MixtureFamily, model: SdeModel, coeffs) -> np.ndarray:
    """Weak-form coefficient dynamics on the basis (q_i - q_{n+1}, q_{n+1}).

    The last coefficient is constrained to 1 (mass) and its equation is
    dropped; the returned vector is d/dt of the first n coefficients.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (fam.n + 1,):
        raise ValidationError(f"expected {fam.n + 1} coefficients")
    if abs(coeffs[-1] - 1.0) > 1e-12:
        raise ValidationError("the last coefficient is the mass constraint and must equal 1")
    return ProjectedOde(fam, model, "galerkin").rhs(coeffs[:-1])


def _projection_affine(fam: MixtureFamily, lc, method: str):
    """(A, c) of the tangent-space projection in weight or expectation coordinates.

    With B_jk = <lc_j, q_k>, lc_j = L(q_j - q_{n+1}) at the nodes, and
    theta_hat = (theta, 1 - sum theta), B theta_hat = E theta + b for
    E = B[:, :n] - B[:, n] and b = B[:, n], so
    theta_dot = gamma^{-1} (E theta + b) and, through m = gamma theta + beta,
    m_dot = E gamma^{-1} (m - beta) + b, with the family's `gamma_inv`.
    """
    big_b = (lc * fam.rule.weights) @ fam.component_values().T
    e = big_b[:, :-1] - big_b[:, -1:]
    b = big_b[:, -1]
    if method == "tangent-mix":
        return fam.gamma_inv @ e, fam.gamma_inv @ b
    a = e @ fam.gamma_inv.T
    return a, b - a @ fam.beta


def rk4_propagator(a, c, dt: float):
    """(Phi, phi): one classic RK4 step of y_dot = A y + c is y -> Phi y + phi.

    [[Phi, phi], [0, 1]] = sum_{j<=4} (dt M)^j / j! for M = [[A, c], [0, 0]]:
    RK4's stability function, not the exact expm(dt M).
    """
    m = np.zeros((c.size + 1, c.size + 1))
    m[:-1] = dt * np.column_stack([a, c])
    prop = eye = np.eye(c.size + 1)
    for j in (4, 3, 2, 1):
        prop = eye + m @ prop / j
    return prop[:-1, :-1], prop[:-1, -1]


def _galerkin_affine(fam: MixtureFamily, lc):
    """(A, c) of the Galerkin coefficient dynamics, assembled from the weak form.

    Independent of gamma and B: full mass and stiffness matrices on the
    basis first, the stiffness from `lc`, L of the first n basis functions
    at the nodes, then elimination of the pinned mass coefficient, which
    moves the last stiffness column into the constant term.
    """
    w = fam.rule.weights
    basis = np.vstack([fam.stat_values(), fam.component_values()[-1]])
    mass = (basis * w) @ basis.T
    stiffness = (lc * w) @ basis.T
    # the constrained mass block is gamma assembled again, equal to it to an ulp,
    # and the family refused a singular gamma (DegenerateMixtureMetric)
    sol = np.linalg.solve(mass[:-1, :-1], stiffness)
    return sol[:, :-1], sol[:, -1]


def model_values(fam, model: SdeModel) -> tuple:
    """(f, a, f', a', a'') at the family's nodes: what `residual_terms` reads of the model."""
    x = fam.rule.nodes
    return tuple(np.asarray(g(x), dtype=float) for g in (
        model.drift, model.diffusion, model.drift.d1, model.diffusion.d1, model.diffusion.d2))


def residual_terms(fam: ExpFamily, model: SdeModel, theta, values=None) -> dict:
    """All pieces of the orthogonal decomposition of L* p at theta.

    Uses the sqrt-free form (L* p)/p = -(f' + f S') + (a'' + 2 a' S' +
    a (S'' + S'^2))/2 with S = theta . c, so no square roots of small
    densities appear.  `values` is `model_values(fam, model)`, which a
    caller at many thetas evaluates once.
    """
    theta = fam.require_admissible(theta)
    x = fam.rule.nodes
    f, a, f1, a1, a2 = model_values(fam, model) if values is None else values
    c1, c2 = fam.stat_derivative_values()
    s1 = theta @ c1
    s2 = theta @ c2
    ratio = -(f1 + f * s1) + 0.5 * (a2 + 2.0 * a1 * s1 + a * (s2 + s1 * s1))
    mom = fam._moments(theta)
    if not np.all(np.isfinite(ratio)):
        bad = int(np.flatnonzero(~np.isfinite(ratio))[0])
        raise NonFiniteIntegrand("adjoint ratio is not finite", node=float(x[bad]), index=bad)
    wp, eta = mom.wp, np.array(mom.m[1:fam.n + 1])
    w_norm_sq = float(wp @ (ratio * ratio)) / 4.0
    centered = fam.stat_values() - eta[:, None]
    b = (centered * wp) @ ratio / 4.0
    coeff = fam._fisher(mom.m).solve(b.tolist())
    proj_norm_sq = 4.0 * float(b @ coeff)
    tangent = coeff @ centered
    proj_pointwise_sq = float(wp @ (tangent * tangent))
    # integrating the squared pointwise difference avoids the catastrophic
    # cancellation of w_norm_sq - proj_norm_sq when the flow stays in the
    # family, where the residual is zero to round-off
    diff = 0.5 * ratio - 2.0 * tangent
    residual_sq = float(wp @ (diff * diff))
    return {
        "w_norm_sq": w_norm_sq,
        "proj_norm_sq": proj_norm_sq,
        "proj_pointwise_sq": proj_pointwise_sq,
        "residual_sq": residual_sq,
    }


def residual(fam: ExpFamily, model: SdeModel, theta, values=None) -> float:
    """Norm of the component of L* p orthogonal to the tangent space."""
    r_sq = residual_terms(fam, model, theta, values)["residual_sq"]
    return float(np.sqrt(max(r_sq, 0.0)))


@dataclass(frozen=True)
class ClampEvent:
    """A step whose weights were clamped: the state before the clamp and the
    clamped weights, the trajectory's thetas at that step."""

    step: int
    raw_state: tuple
    weights: tuple


@dataclass
class Trajectory:
    """Record of an integrated projected flow.

    `times` and `states` (in the method's own coordinates) cover every step,
    and `clamp_events` holds one `ClampEvent` per clamped step; `thetas`
    (canonical/weight coordinates), `expectations`
    (eta or m), the embedded quadrature estimates `quadrature_errors`,
    `residuals` and, on an exponential family, the log-partitions
    `log_partitions` cover the sampled steps `rows` only.
    """

    times: np.ndarray
    states: np.ndarray
    thetas: np.ndarray
    expectations: np.ndarray
    rows: np.ndarray
    quadrature_errors: np.ndarray
    residuals: np.ndarray | None = None
    clamp_events: list = field(default_factory=list)
    log_partitions: np.ndarray | None = None

    @property
    def final_state(self):
        return self.states[-1]


class ProjectedOde:
    """Family + model + coordinate choice: the one implementation of each field.

    Everything that does not depend on the state is assembled here, from
    L c, the generator applied to the family's statistics at the nodes.
    A tangent-ef stage is one exp and one product with the family's row
    stack extended by w L c, which gives eta, E[c c'] and E[L c] at once,
    then one Cholesky factor of the Fisher matrix in floats, which both
    certifies and solves; an open ada-ef stage is a Newton
    inversion and one matvec with L c.  The
    mixture methods are the constant affine field state_dot = A state + c:
    tangent-mix and ada-mix take (A, c) from the projection formulas, in
    weight and expectation coordinates, and galerkin from the weak form.
    ada-ef is that field too when L c = A c + b on span{c, 1} at the nodes:
    then E_eta[L c] = A eta + b and no stage inverts the moment map.
    `lc` holds L c, one row per statistic; `affine` holds (A, c) of a
    constant affine field, else None; `model_values`, what the residual
    reads of the model at the nodes, is evaluated on first use.
    """

    def __init__(self, family, model: SdeModel, method: str):
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
        if method not in family.methods:
            raise ValueError("method/family mismatch")
        self.family = family
        self.model = model
        self.method = method
        self.coordinates = "expectation" if method == family.expectation_method else "canonical"
        self.dim = family.n
        self.affine = None
        self.lc = model.generator_values(family.rule.nodes, *family.stat_derivative_values())
        if method == "tangent-ef":
            # the family's row stack and w L c: one product gives eta, E[c c'] and v
            self._rows = np.vstack([family.row_stack, family.rule.weights * self.lc])
        elif method == "ada-ef":
            self.affine = family.affine_in_stats(self.lc)
        elif method == "galerkin":
            self.affine = _galerkin_affine(family, self.lc)
        else:
            self.affine = _projection_affine(family, self.lc, method)

    @cached_property
    def model_values(self) -> tuple:
        return model_values(self.family, self.model)

    def rhs(self, state, theta_guess=None) -> np.ndarray:
        """Time derivative of the state; `theta_guess` seeds ada-ef's inversion."""
        if self.affine is not None:
            a, c = self.affine
            return a @ state + c
        fam = self.family
        if self.method == "tangent-ef":
            m = fam._pass(fam.require_admissible(state), self._rows)[-1]
            return fam._fisher(m).solve(m[-self.dim:])
        theta = fam.expectation_to_canonical(state, initial=theta_guess)
        return self.lc @ fam._moments(theta).wp

    def prepare_initial(self, state):
        """Validated start state and its canonical/weight coordinates."""
        state = np.asarray(state, dtype=float)
        if state.shape != (self.dim,):
            raise ValidationError(f"initial state must have length {self.dim}")
        if self.method == "ada-ef":
            return state, self.family.expectation_to_canonical(state)
        if self.method == "ada-mix":
            return state, self.family.expectations_to_weights(state)
        return state, self.family.require_admissible(state)

    def newton_seeds(self, state, theta):
        """Seeds for the inversions at states near `state`, whose coordinates are `theta`.

        ada-ef linearizes the moment map, d eta = g d theta: a nearby state
        s is seeded with theta + g(theta)^{-1} (s - state), or with theta
        itself when that point is not admissible.  The other methods invert
        nothing, and the Gaussians seed every inversion in closed form; they
        are handed theta.
        """
        if self.method != "ada-ef" or self.family.gaussian_fit is not None:
            return lambda _: theta
        fam = self.family
        factor = fam._fisher(fam._moments(theta).m)

        def seed(near):
            guess = theta + factor.solve((near - state).tolist())
            return guess if fam.is_admissible(guess) else theta

        return seed

    def weights(self, states):
        """Mixture weights of a mixture state, or of one state per row."""
        if self.method == "ada-mix":
            return (states - self.family.beta) @ self.family.gamma_inv.T
        return states

    def constrain(self, state, theta_guess=None):
        """Post-step repair: (state, its canonical/weight coordinates, clamped?).

        Mixture weights are clamped to the margin-shrunk simplex; a
        canonical state outside the admissible set ends the trajectory.
        """
        fam = self.family
        if self.method == "ada-ef":
            return state, fam.expectation_to_canonical(state, initial=theta_guess), False
        if self.method == "tangent-ef":
            if not fam.is_admissible(state):
                raise TrajectoryExit(f"canonical state left the admissible set: {state}")
            return state, state, False
        theta = self.weights(state)
        clamped, changed = fam.clamp_weights(theta)
        if not changed:
            return state, theta, False
        if self.method == "ada-mix":
            return fam.expectation_params(clamped), clamped, True
        return clamped, clamped, True


def make_ode(family, model: SdeModel, method: str) -> ProjectedOde:
    return ProjectedOde(family, model, method)


def _step_failure(err: FpkprojError, k: int) -> TrajectoryExit:
    if isinstance(err, TrajectoryExit):
        return TrajectoryExit(f"step {k}: {err}", step=k)
    return TrajectoryExit(f"rhs failed at step {k}: {err}", step=k)


def _axpy(a, h: float, b) -> np.ndarray:
    """a + h b for lists of floats a and b, as numpy's `a + h * b` rounds it."""
    return np.array([u + h * v for u, v in zip(a, b)])


def _step_stages(ode: ProjectedOde, states, dt: float, theta, rows) -> list:
    """RK4 through the field's stages (tangent-ef, open ada-ef); thetas at `rows`.

    The stage states and the step are combined in Python floats, in the order of
    operations of y + (dt / 2) k1, ..., y + dt / 6 ((k1 + 2 (k2 + k3)) + k4), so
    they are bitwise those of the numpy expressions without their calls on n-vectors.
    """
    thetas = [theta]
    y = states[0]
    half, sixth = 0.5 * dt, dt / 6.0
    for k in range(1, states.shape[0]):
        try:
            seed = ode.newton_seeds(y, theta)
            y0 = y.tolist()
            k1 = ode.rhs(y, theta).tolist()
            y2 = _axpy(y0, half, k1)
            k2 = ode.rhs(y2, seed(y2)).tolist()
            y3 = _axpy(y0, half, k2)
            k3 = ode.rhs(y3, seed(y3)).tolist()
            y4 = _axpy(y0, dt, k3)
            k4 = ode.rhs(y4, seed(y4)).tolist()
            raw = np.array([a + sixth * ((b + 2.0 * (c + d)) + e)
                            for a, b, c, d, e in zip(y0, k1, k2, k3, k4)])
            y, theta, _ = ode.constrain(raw, seed(raw))
        except FpkprojError as err:
            raise _step_failure(err, k) from err
        states[k] = y
        if k == rows[len(thetas)]:
            thetas.append(theta)
    return thetas


def _require_rk4_stable(a, dt: float):
    """SchemeInstability, naming numerics.ode_dt, when RK4 steps of dt grow a mode that
    y_dot = A y + c damps: an eigenvalue lambda of A with Re lambda <= 0 and
    |R(dt lambda)| > 1, for R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 RK4's stability
    polynomial.  A mode that grows in the field itself (Re lambda > 0) is allowed, and
    a field that is not finite is left to its first step, which it ends."""
    if not np.all(np.isfinite(a)):
        return
    lam = np.linalg.eigvals(a)
    lam = lam[lam.real <= 0.0]
    z = dt * lam
    # a |z| that overflows R gives inf or NaN, and is unstable
    with np.errstate(over="ignore", invalid="ignore"):
        growth = np.abs(1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0))))
    if not np.all(growth <= 1.0):
        worst = int(np.argmax(growth))
        largest = (f"; the largest stable step is {RK4_REAL_LIMIT / np.max(np.abs(lam)):.6g}"
                   if np.isrealobj(lam) else "")
        raise SchemeInstability(
            f"RK4 is unstable at numerics.ode_dt = {dt:g}: the field's eigenvalue "
            f"{lam[worst]:.6g} gives |R(dt lambda)| = {growth[worst]:.6g} > 1{largest}")


def _step_affine(ode: ProjectedOde, states, dt: float):
    """Fill `states` by powers of the RK4 step matrix S = [[Phi, phi], [0, 1]],
    once `_require_rk4_stable` has checked the step against the field.

    A block of L steps from y is P[:L] @ [y; 1], with P the stacked powers
    S^1..S^L, extended by doubling as the blocks grow (up to BLOCK_STEPS, or
    while the powers stay finite).  Mixture blocks are accepted up to the
    first row whose weights `clamp_weights` would move; that row is
    constrained and the flow takes plain steps y <- Phi y + phi until a
    step needs no clamp.  Returns the clamp events.
    """
    _require_rk4_stable(ode.affine[0], dt)
    phi, phi_c = rk4_propagator(*ode.affine, dt)
    powers = np.eye(ode.dim + 1)[None]
    powers[0, :-1, :-1], powers[0, :-1, -1] = phi, phi_c
    mixture = isinstance(ode.family, MixtureFamily)
    events = []
    nsteps = states.shape[0] - 1
    y = states[0]
    k, length, longest, plain = 0, 1, BLOCK_STEPS, False
    while k < nsteps:
        if plain:
            raw = phi @ y + phi_c
        else:
            length = min(length, longest, nsteps - k)
            if length > powers.shape[0]:
                with np.errstate(over="ignore", invalid="ignore"):
                    more = powers @ powers[-1]
                if np.all(np.isfinite(more)):
                    powers = np.concatenate([powers, more])
                else:
                    longest = length = powers.shape[0]
            # a finite power times a finite state can still overflow: a closed
            # ada-ef flow then ends at its next row's inversion, a mixture's at its clamp
            with np.errstate(over="ignore", invalid="ignore"):
                block = powers[:length, :-1] @ np.append(y, 1.0)
            good = length
            if mixture:
                flags = np.flatnonzero(ode.family.needs_clamp(ode.weights(block)))
                good = int(flags[0]) if flags.size else length
            states[k + 1:k + 1 + good] = block[:good]
            k += good
            y = states[k]
            if good == length:
                length *= 2
                continue
            raw = block[good]
        k += 1
        try:
            y, theta, plain = ode.constrain(raw)
        except FpkprojError as err:
            raise _step_failure(err, k) from err
        states[k] = y
        length = 2
        if plain:
            events.append(ClampEvent(step=k, raw_state=tuple(raw), weights=tuple(theta)))
    return events


def _row_inversions(ode: ProjectedOde, states, rows, theta):
    """Closed ada-ef's thetas at the rows: its field needs none, so the moment map is
    inverted at the sampled steps only, each inversion seeded from the one before and
    made when its row is recorded."""
    yield theta
    for prev, k in zip(rows, rows[1:]):
        try:
            seed = ode.newton_seeds(states[prev], theta)(states[k])
            theta = ode.family.expectation_to_canonical(states[k], initial=seed)
        except FpkprojError as err:
            raise _step_failure(err, k) from err
        yield theta


def integrate_ode(ode: ProjectedOde, initial_state, t_end: float, dt: float,
                  record_residual: bool = False, sample_stride: int = 1) -> Trajectory:
    """Classic fixed-step fourth-order Runge-Kutta integration.

    Constant affine fields are stepped in blocks by powers of their RK4
    propagator (`_step_affine`), the others stage by stage.  Thetas and
    residuals are computed at `sample_steps(nsteps, sample_stride)` only,
    so closed ada-ef reports leaving the moment space at the first of those
    steps after it leaves.  Expectations there are the states, or the map
    of theta taken with its residual, and the family's embedded quadrature
    estimate (`quadrature_error`) with them, one moment pass per sampled step.
    Residual recording is available for exponential-family methods only.
    Mixture weights are clamped to the margin-shrunk simplex after each step
    and every clamp is recorded.
    """
    nsteps = whole_steps(t_end, dt, "t_end")
    rows = sample_steps(nsteps, sample_stride)
    exponential = isinstance(ode.family, ExpFamily)
    if record_residual and not exponential:
        raise ValidationError("residual recording applies to exponential families only")

    y, theta = ode.prepare_initial(initial_state)
    times = dt * np.arange(nsteps + 1)
    states = np.empty((nsteps + 1, ode.dim))
    states[0] = y
    events = []
    if ode.affine is None:
        thetas = _step_stages(ode, states, dt, theta, rows)
    elif ode.method == "ada-ef":
        _step_affine(ode, states, dt)
        thetas = _row_inversions(ode, states, rows, theta)
    else:
        events = _step_affine(ode, states, dt)
        clamps = {event.step: np.array(event.weights) for event in events}
        weights = ode.weights(states[rows[1:]])
        thetas = [theta, *(clamps.get(k, w) for k, w in zip(rows[1:], weights))]

    fam = ode.family
    canonical = ode.coordinates == "canonical"
    recorded, errors, expectations, residuals, psis = [], [], [], [], []
    # one moment pass per row: the estimate makes it, or finds it in the
    # family's memo, and the expectations, residual and log-partition reuse it
    for k, theta in zip(rows, thetas):
        recorded.append(theta)
        try:
            errors.append(fam.quadrature_error(theta))
            if record_residual:
                residuals.append(residual(fam, ode.model, theta, ode.model_values))
            if canonical:
                expectations.append(fam.expectation_params(theta))
            if exponential:
                psis.append(fam.log_partition(theta))
        except FpkprojError as err:
            raise _step_failure(err, k) from err
    return Trajectory(times=times, states=states, thetas=np.array(recorded), rows=np.array(rows),
                      expectations=np.array(expectations) if canonical else states[rows],
                      quadrature_errors=np.array(errors), clamp_events=events,
                      residuals=np.array(residuals) if record_residual else None,
                      log_partitions=np.array(psis) if exponential else None)
