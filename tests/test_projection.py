"""Projected vector fields, their coordinate identities, and the residual.

Hand-checked vector field for the mean-reverting model at theta = (0.5, -0.5)
(member N(0.5, 1)): moments give v = (-0.5, -0.5) and Fisher block
[[1, 1], [1, 3]], so theta-dot = (-0.5, 0).

Residual oracle for drift f = -x^3, a = 2 at the standard normal member:
(L* p)/p = -x^4 + 4 x^2 - 1, E[w^2] = 32, projection onto the centered
statistics removes b' g^{-1} b = 8, and the square-root-density scaling
divides by 4: R^2 = (32 - 8)/4 = 6.
"""

import subprocess
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from fpkproj import (
    SdeModel,
    circle_diffusion,
    cosine_circle_family,
    custom_poly_family,
    decay_experiment,
    default_domain,
    ef_eta_rhs,
    ef_theta_rhs,
    ep_family,
    galerkin_rhs,
    gaussian_mixture_family,
    gaussian_pdf_fn,
    grid_density,
    hermite_family,
    integrate_ode,
    make_ode,
    mixture_m_rhs,
    mixture_theta_rhs,
    ornstein_uhlenbeck,
    polynomial_drift,
    residual,
    residual_terms,
)
from fpkproj.errors import (
    DegenerateFisher,
    InadmissibleParameter,
    InadmissibleRecovery,
    NonIntegrable,
    SchemeInstability,
    TrajectoryExit,
    ValidationError,
)
import fpkproj.projection
from fpkproj.expfamily import ExpFamily, _Cholesky
from fpkproj.mixture import MixtureFamily
from fpkproj.projection import METHODS, ProjectedOde, rk4_propagator, sample_steps

from exact import (
    circle_cosine_rates,
    circle_cosine_rk4_weights,
    circle_cosine_weights,
    rk4_growth,
)


SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
OU = ornstein_uhlenbeck(kappa=1.0, sigma=np.sqrt(2.0))


def test_tangent_vector_field_hand_checked_point():
    fam = ep_family(2)
    got = ef_theta_rhs(fam, OU, np.array([0.5, -0.5]))
    assert np.max(np.abs(got - np.array([-0.5, 0.0]))) <= 1e-9


def test_second_coordinate_is_invariant_for_linear_drift():
    # linear drift maps Gaussians to Gaussians, so theta_2 must not move
    fam = ep_family(2)
    ode = make_ode(fam, OU, "tangent-ef")
    traj = integrate_ode(ode, np.array([0.5, -0.5]), t_end=1.0, dt=1e-3)
    assert np.max(np.abs(traj.states[:, 1] + 0.5)) <= 1e-9


def test_expectation_flow_matches_closed_form():
    # eta_1(t) = eta_1(0) e^{-t}, eta_2(t) = 1 + (eta_2(0) - 1) e^{-2t}
    fam = ep_family(2)
    ode = make_ode(fam, OU, "ada-ef")
    traj = integrate_ode(ode, np.array([0.5, 1.25]), t_end=1.0, dt=1e-3)
    t = traj.times
    exact = np.column_stack([0.5 * np.exp(-t), 1.0 + 0.25 * np.exp(-2.0 * t)])
    assert np.max(np.abs(traj.states - exact)) <= 1e-8


def test_expectation_and_tangent_fields_agree():
    # the two coordinate systems carry the same flow: eta-dot = g theta-dot
    rng = np.random.default_rng(31)
    fam = ep_family(2)
    for _ in range(5):
        theta = np.array([rng.uniform(-0.7, 0.7), rng.uniform(-1.5, -0.35)])
        eta = fam.expectation_params(theta)
        lhs = ef_eta_rhs(fam, OU, eta, initial=theta)
        rhs = fam.fisher_matrix(theta) @ ef_theta_rhs(fam, OU, theta)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_hermite_and_monomial_coordinates_carry_same_flow():
    # He_1 = x and He_2 = x^2 - 1 span the same statistics up to an affine
    # map, so the expectation flows differ by that map only
    fam_h = hermite_family([1, 2])
    fam_m = ep_family(2)
    theta = np.array([0.2, -0.45])
    eta_m = fam_m.expectation_params(theta)
    eta_h = fam_h.expectation_params(theta)
    lhs = ef_eta_rhs(fam_h, OU, eta_h, initial=theta)
    rhs = ef_eta_rhs(fam_m, OU, eta_m, initial=theta)
    assert np.max(np.abs(lhs - np.array([rhs[0], rhs[1]]))) <= 1e-9


def test_circle_weights_decay_per_harmonic():
    fam = cosine_circle_family([1, 2])
    model = __import__("fpkproj").circle_diffusion(2.0)
    theta = np.array([0.2, 0.1])
    got = mixture_theta_rhs(fam, model, theta)
    assert np.max(np.abs(got - np.array([-0.2, -0.4]))) <= 1e-12


def test_mixture_expectation_flow_is_consistent():
    fam = gaussian_mixture_family([-1.0, 0.0, 1.0], [0.5, 0.5, 0.5])
    rng = np.random.default_rng(32)
    for _ in range(5):
        theta = rng.uniform(0.05, 0.4, size=2)
        m = fam.expectation_params(theta)
        lhs = mixture_m_rhs(fam, OU, m)
        rhs = fam.gamma @ mixture_theta_rhs(fam, OU, theta)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_galerkin_matches_direct_projection():
    fam = gaussian_mixture_family([-1.0, 0.0, 1.0], [0.5, 0.5, 0.5])
    rng = np.random.default_rng(33)
    for _ in range(5):
        theta = rng.uniform(0.05, 0.4, size=2)
        coeffs = np.concatenate([theta, [1.0]])
        lhs = galerkin_rhs(fam, OU, coeffs)
        rhs = mixture_theta_rhs(fam, OU, theta)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_galerkin_requires_pinned_last_coefficient():
    fam = cosine_circle_family([1, 2])
    model = __import__("fpkproj").circle_diffusion(2.0)
    with pytest.raises(ValidationError):
        galerkin_rhs(fam, model, np.array([0.2, 0.1, 0.97]))


def test_mixture_methods_clamp_at_the_simplex_boundary():
    # the first weight is driven through zero at step 368; all three
    # methods integrate the same affine field, clamp after each step and
    # must carry on to t_end together
    fam = gaussian_mixture_family([-1.3514, -0.2091, 1.2055], [0.6652, 0.5867, 0.3426])
    model = ornstein_uhlenbeck(kappa=1.4602, sigma=1.3115317762067376)
    theta0 = np.array([0.2189, 0.3573])
    thetas = {}
    for method in ("tangent-mix", "ada-mix", "galerkin"):
        y0 = fam.expectation_params(theta0) if method == "ada-mix" else theta0
        traj = integrate_ode(make_ode(fam, model, method), y0, t_end=0.5, dt=1e-3)
        assert traj.times[-1] == pytest.approx(0.5)
        assert traj.clamp_events and traj.clamp_events[0].step == 368
        assert all(fam.is_admissible(theta) for theta in traj.thetas)
        thetas[method] = traj.thetas
    for method in ("ada-mix", "galerkin"):
        assert np.max(np.abs(thetas[method] - thetas["tangent-mix"])) <= 1e-9


@pytest.mark.parametrize("family, model, theta0", [
    (cosine_circle_family([1, 2]), circle_diffusion(2.0), np.array([0.2, 0.1])),
    (gaussian_mixture_family([-1.0, 0.0, 1.0], [0.5, 0.5, 0.5]), OU, np.array([0.3, 0.3])),
])
def test_linear_mixture_flows_match_matrix_exponential(family, model, theta0):
    # every mixture method is state_dot = A state + c; recover (A, c) from
    # the field and compare RK4 with the exact flow expm(t [[A, c], [0, 0]]).
    # The rates here are at most 4, so RK4's global error at dt = 1e-3 is
    # below 1e-13; 1e-12 leaves room for round-off.
    n = family.n
    for method in ("tangent-mix", "ada-mix", "galerkin"):
        ode = make_ode(family, model, method)
        c = ode.rhs(np.zeros(n))
        aug = np.zeros((n + 1, n + 1))
        aug[:n, :n] = np.column_stack([ode.rhs(e) - c for e in np.eye(n)])
        aug[:n, n] = c
        y0 = family.expectation_params(theta0) if method == "ada-mix" else theta0
        traj = integrate_ode(ode, y0, t_end=0.5, dt=1e-3)
        assert not traj.clamp_events
        for t, state in zip(traj.times[::50], traj.states[::50]):
            exact = (expm(aug * t) @ np.append(y0, 1.0))[:n]
            assert np.max(np.abs(state - exact)) <= 1e-12


def test_trajectory_carries_canonical_coordinates():
    fam = ep_family(2)
    traj = integrate_ode(make_ode(fam, OU, "ada-ef"), np.array([0.5, 1.25]),
                         t_end=0.05, dt=1e-2)
    for theta, eta in zip(traj.thetas, traj.states):
        assert np.max(np.abs(fam.expectation_params(theta) - eta)) <= 1e-10
    mix = gaussian_mixture_family([-1.0, 0.0, 1.0], [0.5, 0.5, 0.5])
    m0 = mix.expectation_params(np.array([0.3, 0.3]))
    traj = integrate_ode(make_ode(mix, OU, "ada-mix"), m0, t_end=0.05, dt=1e-2)
    for theta, m in zip(traj.thetas, traj.states):
        assert np.max(np.abs(mix.expectation_params(theta) - m)) <= 1e-14


def test_residual_vanishes_when_family_is_invariant():
    fam = ep_family(2)
    rng = np.random.default_rng(34)
    for _ in range(5):
        theta = np.array([rng.uniform(-0.7, 0.7), rng.uniform(-1.5, -0.35)])
        assert residual(fam, OU, theta) <= 1e-8


def test_residual_cubic_drift_closed_form():
    fam = ep_family(2)
    cubic = polynomial_drift([0.0, 0.0, 0.0, -1.0], diffusion=2.0)
    r = residual(fam, cubic, np.array([0.0, -0.5]))
    assert abs(r - np.sqrt(6.0)) <= 1e-9
    terms = residual_terms(fam, cubic, np.array([0.0, -0.5]))
    assert abs(terms["w_norm_sq"] - 8.0) <= 1e-9
    assert abs(terms["proj_norm_sq"] - 2.0) <= 1e-9


def test_residual_projection_terms_are_consistent():
    # the projection norm computed through the Gram matrix must agree with
    # the pointwise quadrature of the projected function itself
    fam = ep_family(2)
    cubic = polynomial_drift([0.1, -0.3, 0.0, -0.8], diffusion=1.3)
    terms = residual_terms(fam, cubic, np.array([0.2, -0.6]))
    assert abs(terms["proj_norm_sq"] - 4.0 * terms["proj_pointwise_sq"]) <= 1e-10
    assert terms["residual_sq"] >= 0.0


@pytest.mark.parametrize("fam, model", [
    (ep_family(2), OU),
    (cosine_circle_family([1]), circle_diffusion(2.0)),
], ids=["ExpFamily", "MixtureFamily"])
def test_method_family_mismatch_is_rejected(fam, model):
    assert METHODS == ExpFamily.methods + MixtureFamily.methods
    for method in METHODS:
        if method in fam.methods:
            ode = make_ode(fam, model, method)
            expected = "expectation" if method == fam.expectation_method else "canonical"
            assert ode.coordinates == expected
        else:
            with pytest.raises(ValueError, match="method/family mismatch"):
                make_ode(fam, model, method)
    with pytest.raises(ValueError, match="unknown method"):
        make_ode(fam, model, "leapfrog")


def test_integration_grid_is_validated():
    ode = make_ode(ep_family(2), OU, "ada-ef")
    with pytest.raises(ValidationError):
        integrate_ode(ode, np.array([0.5, 1.25]), t_end=1.0, dt=0.3)
    with pytest.raises(ValidationError):
        integrate_ode(ode, np.array([0.5, 1.25]), t_end=-1.0, dt=0.1)
    with pytest.raises(ValidationError):
        integrate_ode(ode, np.array([0.5]), t_end=1.0, dt=0.1)
    with pytest.raises(ValidationError):
        integrate_ode(ode, np.array([0.5, 1.25]), t_end=1.0, dt=0.1, sample_stride=0)
    traj = integrate_ode(ode, np.array([0.5, 1.25]), t_end=1.0, dt=0.1, sample_stride=4)
    assert np.array_equal(traj.rows, [0, 4, 8, 10])
    assert traj.thetas.shape == (4, 2)


def test_recorded_residuals_are_nonnegative():
    fam = ep_family(2)
    cubic = polynomial_drift([0.0, 0.0, 0.0, -1.0], diffusion=2.0)
    ode = make_ode(fam, cubic, "tangent-ef")
    traj = integrate_ode(ode, np.array([0.0, -0.5]), t_end=0.05, dt=1e-3,
                         record_residual=True)
    assert traj.residuals is not None
    assert traj.residuals.shape == traj.times.shape
    assert np.all(traj.residuals >= 0.0)
    assert abs(traj.residuals[0] - np.sqrt(6.0)) <= 1e-9


def test_unbounded_drift_exits_the_family():
    # x^3 drift spreads mass faster than the family can follow; the leading
    # coefficient is driven to zero and the trajectory must stop cleanly
    fam = ep_family(2)
    explosive = polynomial_drift([0.0, 0.0, 0.0, 1.0], diffusion=2.0)
    ode = make_ode(fam, explosive, "tangent-ef")
    with pytest.raises(TrajectoryExit) as info:
        integrate_ode(ode, np.array([0.0, -0.5]), t_end=2.0, dt=1e-3)
    assert info.value.step is not None and info.value.step > 0


def test_trajectory_shapes_and_final_state():
    ode = make_ode(ep_family(2), OU, "tangent-ef")
    traj = integrate_ode(ode, np.array([0.3, -0.6]), t_end=0.2, dt=0.01)
    assert traj.times.shape == (21,)
    assert traj.states.shape == (21, 2)
    assert np.array_equal(traj.final_state, traj.states[-1])
    assert ode.coordinates == "canonical"


# OU with L c_i in span{1, c} for every statistic: ada-ef's field is affine
CLOSED_OU = ornstein_uhlenbeck(kappa=1.3, sigma=0.9)
CLOSED = [
    (ep_family(2), np.array([0.4, -0.7])),
    (ep_family(4), np.array([0.2, -0.4, 0.02, -0.1])),
    (hermite_family([1, 2]), np.array([0.4, -0.7])),
    (hermite_family([1, 2, 3, 4]), np.array([0.2, -0.4, 0.02, -0.1])),
]
OPEN = [
    (ep_family(2), polynomial_drift([0.0, 0.0, 0.0, -1.0], diffusion=2.0)),
    (custom_poly_family([2, 4]), polynomial_drift([0.3, -1.0], diffusion=2.0)),
]


def _stat_polynomials(fam):
    """(n, n+1) ascending monomial coefficients of the polynomial statistics.

    The statistics of the closed pairs have degree at most n, so their
    values at n + 1 points determine them.
    """
    pts = np.arange(fam.n + 1) - 0.5 * fam.n
    vander = np.vander(pts, fam.n + 1, increasing=True)
    return np.linalg.solve(vander, np.vstack([c(pts) for c in fam.stats]).T).T


def _ou_moments(mu0, kappa, sigma, t):
    """E[x(t)^k], k = 0..len(mu0)-1, of OU started with moments mu0.

    x(t) = e^{-kappa t} x(0) + Z with Z ~ N(0, s) independent of x(0).
    """
    s = sigma * sigma / (2.0 * kappa) * (1.0 - np.exp(-2.0 * kappa * t))
    z = [1.0, 0.0, s, 0.0, 3.0 * s * s]
    decay = np.exp(-kappa * t)
    return np.array([sum(comb(k, j) * decay ** j * mu0[j] * z[k - j] for j in range(k + 1))
                     for k in range(len(mu0))])


@pytest.mark.parametrize("fam, model", [(f, CLOSED_OU) for f, _ in CLOSED] + OPEN)
def test_ada_ef_is_affine_exactly_when_the_generator_closes(fam, model):
    closed = model is CLOSED_OU
    ode = make_ode(fam, model, "ada-ef")
    assert (ode.affine is not None) == closed
    assert make_ode(fam, model, "tangent-ef").affine is None
    if closed:
        a, b = ode.affine
        lc = model.generator_values(fam.rule.nodes, *fam.stat_derivative_values())
        assert np.max(np.abs(a @ fam.stat_values() + b[:, None] - lc)) <= 1e-9


@pytest.mark.parametrize("fam, theta0", CLOSED)
def test_closed_pairs_follow_the_ou_moment_law(fam, theta0):
    # the projected moments obey the exact OU moment equations; RK4's global
    # error at dt = 2.5e-4 with rates up to 4 kappa is about 1e-13
    x = fam.rule.nodes
    wp = fam.rule.weights * fam.density_values(theta0)
    mu0 = np.array([wp @ x ** k for k in range(fam.n + 1)])
    to_stats = _stat_polynomials(fam)
    ada = integrate_ode(make_ode(fam, CLOSED_OU, "ada-ef"), to_stats @ mu0,
                        t_end=0.1, dt=2.5e-4)
    tangent = integrate_ode(make_ode(fam, CLOSED_OU, "tangent-ef"), theta0,
                            t_end=0.1, dt=2.5e-4)
    for k in range(0, ada.times.size, 40):
        exact = to_stats @ _ou_moments(mu0, 1.3, 0.9, ada.times[k])
        assert np.max(np.abs(ada.states[k] - exact)) <= 1e-12
        assert np.max(np.abs(fam.expectation_params(ada.thetas[k]) - exact)) <= 1e-10
        assert np.max(np.abs(fam.expectation_params(tangent.states[k]) - exact)) <= 1e-9


def _count_inversions(monkeypatch, fam):
    calls = []
    invert = fam.expectation_to_canonical

    def counted(*args, **kwargs):
        calls.append(1)
        return invert(*args, **kwargs)

    monkeypatch.setattr(fam, "expectation_to_canonical", counted)
    return calls


def test_closed_ada_ef_inverts_once_per_step(monkeypatch):
    fam = hermite_family([1, 2])
    calls = _count_inversions(monkeypatch, fam)
    traj = integrate_ode(make_ode(fam, CLOSED_OU, "ada-ef"), np.array([0.3, 0.4]),
                         t_end=0.05, dt=1e-3)
    assert len(calls) == 1 + (traj.times.size - 1)


def test_open_ada_ef_inverts_every_stage_and_follows_tangent_ef(monkeypatch):
    fam, model = OPEN[0]
    theta0 = np.array([0.2, -0.6])
    tangent = integrate_ode(make_ode(fam, model, "tangent-ef"), theta0, t_end=0.05, dt=1e-3)
    calls = _count_inversions(monkeypatch, fam)
    ada = integrate_ode(make_ode(fam, model, "ada-ef"), fam.expectation_params(theta0),
                        t_end=0.05, dt=1e-3)
    assert len(calls) == 1 + 5 * (ada.times.size - 1)
    assert np.max(np.abs(ada.thetas - tangent.states)) <= 1e-9


def test_closed_flow_leaving_the_moment_space_exits_at_the_step_end():
    # drift +x spreads the density until its second moment exceeds that of
    # the flat density on the truncated domain, which no member reaches;
    # the stages no longer invert, so the post-step inversion ends the run
    fam = ep_family(2)
    ode = make_ode(fam, polynomial_drift([0.0, 1.0], diffusion=2.0), "ada-ef")
    assert ode.affine is not None
    with pytest.raises(TrajectoryExit) as info:
        integrate_ode(ode, np.array([0.0, 1.0]), t_end=3.0, dt=1e-2)
    assert info.value.step is not None and info.value.step > 0
    assert isinstance(info.value.__cause__, InadmissibleRecovery)


def test_sparse_rows_report_leaving_the_moment_space_at_the_next_row():
    # the twin of the test above sampling every 25th step: the flow leaves
    # the moment space in step 160, which the dense run reports, and the
    # sparse run, inverting at sampled steps only, reports it at step 175
    fam = ep_family(2)
    ode = make_ode(fam, polynomial_drift([0.0, 1.0], diffusion=2.0), "ada-ef")
    y0 = np.array([0.0, 1.0])
    with pytest.raises(TrajectoryExit) as dense:
        integrate_ode(ode, y0, t_end=3.0, dt=1e-2)
    assert dense.value.step == 160
    with pytest.raises(TrajectoryExit) as sparse:
        integrate_ode(ode, y0, t_end=3.0, dt=1e-2, sample_stride=25)
    assert sparse.value.step == 175
    assert isinstance(sparse.value.__cause__, InadmissibleRecovery)


GAUSS_MIX = gaussian_mixture_family([-1.0, 0.0, 1.0], [0.5, 0.5, 0.5])
AFFINE = [
    (cosine_circle_family([1, 2]), circle_diffusion(2.0), np.array([0.2, 0.1]), method)
    for method in ("tangent-mix", "ada-mix", "galerkin")
] + [
    (GAUSS_MIX, OU, np.array([0.3, 0.3]), method)
    for method in ("tangent-mix", "ada-mix", "galerkin")
] + [
    (ep_family(2), CLOSED_OU, np.array([0.4, -0.7]), "ada-ef"),
    (hermite_family([1, 2]), CLOSED_OU, np.array([0.4, -0.7]), "ada-ef"),
]
AFFINE_IDS = [f"{fam.name}-{method}" for fam, _, _, method in AFFINE]


def _start(fam, method, theta0):
    return fam.expectation_params(theta0) if method == fam.expectation_method else theta0


@pytest.mark.parametrize("fam, model, theta0, method", AFFINE, ids=AFFINE_IDS)
def test_affine_propagator_is_rk4(fam, model, theta0, method):
    # the propagator is RK4's own matrix, not the exact flow: a hand-written
    # RK4 loop over the field agrees to round-off.  At dt = 0.05 RK4's
    # truncation error is far above 1e-12, so the exact flow would not
    dt = 0.05
    ode = make_ode(fam, model, method)
    assert ode.affine is not None
    y = _start(fam, method, theta0)
    traj = integrate_ode(ode, y, t_end=1.0, dt=dt)
    assert not traj.clamp_events
    for k in range(1, traj.times.size):
        k1 = ode.rhs(y)
        k2 = ode.rhs(y + 0.5 * dt * k1)
        k3 = ode.rhs(y + 0.5 * dt * k2)
        k4 = ode.rhs(y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.max(np.abs(traj.states[k] - y)) <= 1e-12 * np.max(np.abs(y))


@pytest.mark.parametrize("fam, model, theta0, method", AFFINE + [
    (ep_family(2), OU, np.array([0.3, -0.6]), "tangent-ef"),
    (OPEN[0][0], OPEN[0][1], np.array([0.2, -0.6]), "ada-ef"),
], ids=AFFINE_IDS + ["EP(2)-tangent-ef", "EP(2)-open-ada-ef"])
def test_sampled_rows_are_the_same_steps_of_a_dense_run(fam, model, theta0, method):
    ode = make_ode(fam, model, method)
    y0 = _start(fam, method, theta0)
    residual_too = method == "tangent-ef"
    dense = integrate_ode(ode, y0, t_end=0.2, dt=1e-3, record_residual=residual_too)
    sparse = integrate_ode(ode, y0, t_end=0.2, dt=1e-3, record_residual=residual_too,
                           sample_stride=30)
    rows = sample_steps(200, 30)
    assert np.array_equal(dense.rows, np.arange(201))
    assert np.array_equal(sparse.rows, rows)
    assert np.array_equal(sparse.times, dense.times)
    assert np.array_equal(sparse.states, dense.states)
    assert sparse.clamp_events == dense.clamp_events
    # closed ada-ef seeds a sampled step's inversion from the previous one
    assert np.max(np.abs(sparse.thetas - dense.thetas[rows])) <= 1e-10
    if residual_too:
        assert np.array_equal(sparse.residuals, dense.residuals[rows])


@pytest.mark.parametrize("method", METHODS)
def test_trajectory_expectations_at_sampled_rows(method):
    if method in ExpFamily.methods:
        fam, model, theta0 = ep_family(2), CLOSED_OU, np.array([0.4, -0.7])
    else:
        fam, model, theta0 = cosine_circle_family([1, 2]), circle_diffusion(2.0), np.array([0.2, 0.1])
    ode = make_ode(fam, model, method)
    traj = integrate_ode(ode, _start(fam, method, theta0), t_end=0.3, dt=1e-2, sample_stride=7)
    assert np.array_equal(traj.rows, sample_steps(30, 7))
    if method == fam.expectation_method:
        assert np.array_equal(traj.expectations, traj.states[traj.rows])
    else:
        assert np.array_equal(traj.expectations,
                              [fam.expectation_params(theta) for theta in traj.thetas])


def test_sampling_inverts_and_computes_residuals_at_sampled_steps_only(monkeypatch):
    fam = hermite_family([1, 2])
    calls = _count_inversions(monkeypatch, fam)
    traj = integrate_ode(make_ode(fam, CLOSED_OU, "ada-ef"), np.array([0.3, 0.4]),
                         t_end=1.0, dt=1e-3, sample_stride=100)
    assert traj.rows.size == 11
    assert len(calls) <= 1 + traj.rows.size

    calls.clear()
    p0 = grid_density(default_domain(1.0), 801, gaussian_pdf_fn(0.5, 1.5))
    report = decay_experiment(OU, fam, p0, t_end=0.5, pde_dt=1e-3, ode_dt=1e-3,
                              sample_stride=50)
    assert len(calls) <= 1 + report.times.size

    calls = []
    for name in ("residual_terms", "model_values"):
        original = getattr(fpkproj.projection, name)
        monkeypatch.setattr(fpkproj.projection, name,
                            lambda *args, _name=name, _fn=original: calls.append(_name) or _fn(*args))
    cubic = polynomial_drift([0.0, 0.0, 0.0, -1.0], diffusion=2.0)
    traj = integrate_ode(make_ode(ep_family(2), cubic, "tangent-ef"), np.array([0.0, -0.5]),
                         t_end=0.2, dt=1e-3, record_residual=True, sample_stride=30)
    assert calls.count("residual_terms") == traj.residuals.size == len(sample_steps(200, 30))
    # the drift and diffusion at the nodes are evaluated once per ODE, not per row
    assert calls.count("model_values") == 1


@pytest.mark.parametrize("fam, theta0", CLOSED[:2], ids=["EP(2)", "EP(4)"])
def test_closed_ada_ef_records_residuals_at_sampled_steps(fam, theta0):
    ode = make_ode(fam, CLOSED_OU, "ada-ef")
    assert ode.affine is not None
    traj = integrate_ode(ode, fam.expectation_params(theta0), t_end=0.3, dt=1e-2,
                         record_residual=True, sample_stride=7)
    assert np.array_equal(traj.rows, sample_steps(30, 7))
    assert traj.residuals.shape == traj.rows.shape
    expected = [residual(fam, CLOSED_OU, theta) for theta in traj.thetas]
    assert np.array_equal(traj.residuals, expected)


def _plain_affine_loop(ode, y0, t_end, dt):
    """States and clamp events of one y <- Phi y + phi step plus `constrain` at a time."""
    phi, phi_c = rk4_propagator(*ode.affine, dt)
    y, _ = ode.prepare_initial(y0)
    states, events = [y], []
    for k in range(1, round(t_end / dt) + 1):
        raw = phi @ y + phi_c
        y, _, was_clamped = ode.constrain(raw)
        states.append(y)
        if was_clamped:
            events.append((k, raw))
    return np.array(states), events


def _assert_rows_close(got, want, rtol):
    for a, b in zip(got, want, strict=True):
        assert np.max(np.abs(np.asarray(a) - b)) <= rtol * np.max(np.abs(b))


@pytest.mark.parametrize("fam, model, theta0, t_end, dt, clamps", [
    # the inputs of test_mixture_methods_clamp_at_the_simplex_boundary: one
    # stretch of clamps from step 368
    (gaussian_mixture_family([-1.3514, -0.2091, 1.2055], [0.6652, 0.5867, 0.3426]),
     ornstein_uhlenbeck(kappa=1.4602, sigma=1.3115317762067376), np.array([0.2189, 0.3573]),
     0.5, 1e-3, 133),
    # circle_galerkin at a larger diffusion: the weights decay onto the margin
    # and every step from 417 on clamps
    (cosine_circle_family([1, 2]), circle_diffusion(2.5), np.array([0.2, 0.1]), 200.0, 0.05,
     3584),
], ids=["gauss-mix-boundary", "circle-onto-margin"])
@pytest.mark.parametrize("method", ["tangent-mix", "ada-mix", "galerkin"])
def test_block_stepping_matches_a_per_step_loop(fam, model, theta0, t_end, dt, clamps, method,
                                               monkeypatch):
    ode = make_ode(fam, model, method)
    y0 = _start(fam, method, theta0)
    flags = []
    needs_clamp = fam.needs_clamp
    monkeypatch.setattr(fam, "needs_clamp", lambda w: flags.append(1) or needs_clamp(w))
    traj = integrate_ode(ode, y0, t_end=t_end, dt=dt)
    # doubling blocks up to the first clamp, then plain steps: every step
    # after it clamps, so no block is checked again
    assert len(flags) <= 1 + np.log2(traj.clamp_events[0].step)
    states, events = _plain_affine_loop(ode, y0, t_end, dt)
    assert [e.step for e in traj.clamp_events] == [k for k, _ in events]
    assert len(events) == clamps
    _assert_rows_close(traj.states, states, 1e-12)
    _assert_rows_close([e.raw_state for e in traj.clamp_events], [raw for _, raw in events],
                       1e-12)


def test_block_stepping_stops_growing_where_the_powers_overflow():
    # a decoupled field whose second mode RK4 amplifies 297-fold per step:
    # its powers overflow after about 125 steps, but the mode starts at zero
    # and stays there, so the flow itself is finite and never clamps
    ode = make_ode(GAUSS_MIX, OU, "tangent-mix")
    ode.affine = (np.diag([-1.0, 800.0]), np.zeros(2))
    y0 = np.array([0.3, 0.0])
    traj = integrate_ode(ode, y0, t_end=5.0, dt=1e-2)
    states, events = _plain_affine_loop(ode, y0, 5.0, 1e-2)
    assert not events and not traj.clamp_events
    assert np.all(traj.states[:, 1] == 0.0)
    _assert_rows_close(traj.states, states, 1e-12)


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("method", ["tangent-mix", "ada-mix", "galerkin"])
def test_clamp_events_carry_the_thetas_of_their_rows(method, stride):
    # the boundary flow of test_mixture_methods_clamp_at_the_simplex_boundary:
    # a clamped row's theta is its event's weights, not the weights mapped
    # back from the state, which on ada-mix differ from them by round-off
    fam = gaussian_mixture_family([-1.3514, -0.2091, 1.2055], [0.6652, 0.5867, 0.3426])
    model = ornstein_uhlenbeck(kappa=1.4602, sigma=1.3115317762067376)
    ode = make_ode(fam, model, method)
    traj = integrate_ode(ode, _start(fam, method, np.array([0.2189, 0.3573])), t_end=0.5,
                         dt=1e-3, sample_stride=stride)
    steps = [event.step for event in traj.clamp_events]
    assert len(steps) == 133 and steps == sorted(set(steps))
    row = {k: i for i, k in enumerate(traj.rows)}
    recorded = [event for event in traj.clamp_events if event.step in row]
    assert len(recorded) == len([k for k in steps if k % stride == 0 or k == 500])
    for event in traj.clamp_events:
        assert fam.is_admissible(event.weights)
        assert np.array_equal(traj.states[event.step], _start(fam, method, event.weights))
    for event in recorded:
        assert np.array_equal(traj.thetas[row[event.step]], event.weights)


@pytest.mark.parametrize("excess, period", [(1e-11, 2), (5e-12, 4)])
@pytest.mark.parametrize("method", ["tangent-mix", "ada-mix", "galerkin"])
def test_block_stepping_restarts_after_each_clamp(excess, period, method):
    # weights pulled toward a point `excess` beyond the face sum = 1: once
    # there, a clamp rescales the sum below 1 - WEIGHT_MARGIN and the flow
    # crosses it again a fixed number of steps later, so clamps alternate
    # with short clean stretches that end in the first row of a block
    fam = GAUSS_MIX
    ode = make_ode(fam, OU, method)
    a, target = -5.0 * np.eye(2), np.array([0.4, 0.6 + excess])
    if method == "ada-mix":
        a = fam.gamma @ a @ np.linalg.inv(fam.gamma)
        target = fam.gamma @ target + fam.beta
    ode.affine = (a, -a @ target)
    y0 = _start(fam, method, np.array([0.3, 0.3]))
    traj = integrate_ode(ode, y0, t_end=10.0, dt=1e-2)
    states, events = _plain_affine_loop(ode, y0, 10.0, 1e-2)
    assert np.all(np.diff([e.step for e in traj.clamp_events][-20:]) == period)
    assert [e.step for e in traj.clamp_events] == [k for k, _ in events]
    _assert_rows_close(traj.states, states, 1e-12)


@pytest.mark.parametrize("fam", [ep_family(2), hermite_family([1, 2])],
                         ids=["EP(2)", "hermite(1,2)"])
def test_ada_ef_start_on_the_gaussians_builds_no_fisher_matrix(fam, monkeypatch):
    # an inversion without a guess starts at the Gaussian with eta's mean and
    # variance, which on these families is the answer
    theta = np.array([0.4, -0.7])
    eta = fam.expectation_params(theta)
    builds = []
    init = fpkproj.expfamily._Cholesky.__init__
    monkeypatch.setattr(fpkproj.expfamily._Cholesky, "__init__",
                        lambda self, g: builds.append(1) or init(self, g))
    state, got = ProjectedOde(fam, OU, "ada-ef").prepare_initial(eta)
    assert not builds
    assert np.array_equal(state, eta)
    assert np.max(np.abs(got - theta)) <= 1e-12


@pytest.mark.parametrize("fam", [ep_family(2), hermite_family([1, 2])],
                         ids=["EP(2)", "hermite(1,2)"])
def test_ada_ef_seeds_on_the_gaussians_build_no_fisher_matrix(fam, monkeypatch):
    # the Gaussians seed every inversion in closed form, so nearby states
    # are handed theta instead of a linearized guess
    theta = np.array([0.4, -0.7])
    eta = fam.expectation_params(theta)
    builds = []
    init = fpkproj.expfamily._Cholesky.__init__
    monkeypatch.setattr(fpkproj.expfamily._Cholesky, "__init__",
                        lambda self, g: builds.append(1) or init(self, g))
    seed = ProjectedOde(fam, OU, "ada-ef").newton_seeds(eta, theta)
    assert seed(eta + 0.01) is theta
    assert not builds


@pytest.mark.parametrize("fam, model, theta", [
    (ep_family(2), OU, [0.3, -0.6]),
    (hermite_family([1, 2]), OU, [-0.2, -0.9]),
    (ep_family(2), polynomial_drift([0.0, -1.0, 0.0, -1.0], 2.0), [1.1, -0.35]),
    (custom_poly_family([2, 4]), polynomial_drift([0.0, -1.0, 0.0, -1.0], 2.0), [0.3, -0.2]),
], ids=["EP(2)-OU", "hermite(1,2)-OU", "EP(2)-cubic", "poly(2,4)-cubic"])
def test_fused_tangent_ef_stage_is_the_fisher_solve(fam, model, theta):
    ode = ProjectedOde(fam, model, "tangent-ef")
    theta = np.array(theta)
    wp = fam.rule.weights * fam.density_values(theta)
    want = np.linalg.solve(fam.fisher_matrix(theta), ode.lc @ wp)
    got = ode.rhs(theta)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("fam", [ep_family(2), ep_family(6), hermite_family([1, 2])],
                         ids=["EP(2)", "EP(6)", "hermite(1,2)"])
def test_tangent_ef_stage_factors_the_fisher_matrix_once(fam, monkeypatch):
    ode = ProjectedOde(fam, OU, "tangent-ef")
    theta = fam.default_initial_theta()
    want = ode.rhs(theta)
    factors = []
    init = fpkproj.expfamily._Cholesky.__init__
    monkeypatch.setattr(fpkproj.expfamily._Cholesky, "__init__",
                        lambda self, g: factors.append(1) or init(self, g))
    assert ode.rhs(theta).tobytes() == want.tobytes()
    assert len(factors) == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("theta, error", [
    (np.array([0.0, -1e8]), DegenerateFisher),     # collapsed on one node
    (np.array([1e308, -1.0]), NonIntegrable),     # theta . c overflows
    (np.array([0.0, 0.5]), InadmissibleParameter),
])
def test_fused_tangent_ef_stage_raises_what_the_fisher_matrix_raises(theta, error):
    fam = ep_family(2)
    ode = ProjectedOde(fam, OU, "tangent-ef")
    with pytest.raises(error) as want:
        fam.fisher_matrix(theta)
    for _ in range(2):
        with pytest.raises(error) as got:
            ode.rhs(theta)
        assert str(got.value) == str(want.value)


def test_tangent_ef_run_leaving_the_admissible_set_exits_at_the_step():
    # every RK4 stage of the first step is admissible, the step itself is not
    ode = ProjectedOde(ep_family(2), polynomial_drift([0.59, -0.14, -1.96], 0.3), "tangent-ef")
    with pytest.raises(TrajectoryExit) as info:
        integrate_ode(ode, np.array([-0.58, -0.87]), t_end=5.0, dt=0.5)
    assert info.value.step == 1
    assert str(info.value) == \
        "step 1: canonical state left the admissible set: [0.26399682 0.14907387]"


def test_ode_runs_leave_scipy_unloaded(tmp_path):
    # the moment pass and the affine propagator are numpy and the Fisher solve is
    # Python floats; only the reference solver needs LAPACK's tridiagonal routines
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import fpkproj\n"
        "from fpkproj.runner import run_scenario\n"
        "from fpkproj.scenario import load_scenario\n"
        f"run_scenario(load_scenario({str(SCENARIO_DIR / 'ou_ep2_tangent.yaml')!r}),\n"
        f"             {str(tmp_path)!r}, quiet=True)\n"
        "fam = fpkproj.ep_family(2)\n"
        "model = fpkproj.ornstein_uhlenbeck(1.0, 1.2)\n"
        "theta = np.array([0.3, -0.6])\n"
        "fpkproj.integrate_ode(fpkproj.make_ode(fam, model, 'tangent-ef'), theta,\n"
        "                      t_end=0.05, dt=0.01, record_residual=True)\n"
        "ode = fpkproj.make_ode(fam, model, 'ada-ef')\n"
        "assert ode.affine is not None\n"
        "fpkproj.integrate_ode(ode, fam.expectation_params(theta), t_end=0.05, dt=0.01)\n"
        "print(any(name.split('.')[0] == 'scipy' for name in sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_runs_of_a_validated_mapping_leave_yaml_and_numpy_polynomial_unloaded(tmp_path):
    # yaml parses YAML text only (load_scenario, apply_overrides), and the package
    # evaluates its polynomials itself: a decay experiment, a metric projection
    # and a trajectory with an attached reference, validated from mappings, load
    # neither; loading a scenario file still parses it with yaml
    names = ["ou_hermite_decay", "ou_metric_projection", "gauss_mix_tangent"]
    raws = {name: yaml.safe_load((SCENARIO_DIR / f"{name}.yaml").read_text()) for name in names}
    assert raws["gauss_mix_tangent"]["numerics"]["attach_reference"]
    code = (
        "import sys\n"
        "from fpkproj.runner import run_scenario\n"
        "from fpkproj.scenario import load_scenario, validate_scenario\n"
        "loaded = lambda: [m for m in ('yaml', 'numpy.polynomial') if m in sys.modules]\n"
        f"for name, raw in {raws!r}.items():\n"
        f"    run_scenario(validate_scenario(raw, name), {str(tmp_path)!r} + '/' + name,\n"
        "                 quiet=True)\n"
        "print(loaded())\n"
        f"print(load_scenario({str(SCENARIO_DIR / 'ou_ep2_tangent.yaml')!r}).name, loaded())\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.splitlines() == ["[]", "ou_ep2_tangent ['yaml']"]
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(names)


@pytest.mark.parametrize("method", METHODS)
def test_building_an_ode_applies_the_generator_once(method, monkeypatch):
    calls = []
    original = SdeModel.generator_values
    monkeypatch.setattr(SdeModel, "generator_values",
                        lambda self, *args: calls.append(1) or original(self, *args))
    if method in ExpFamily.methods:
        ProjectedOde(hermite_family([1, 2]), OU, method)
    else:
        ProjectedOde(cosine_circle_family([1, 2]), circle_diffusion(2.0), method)
    assert len(calls) == 1


@pytest.mark.parametrize("method", ["tangent-mix", "ada-mix", "galerkin"])
def test_non_finite_weights_end_an_affine_run_at_the_step(method):
    fam = cosine_circle_family([1, 2])
    ode = make_ode(fam, circle_diffusion(2.0), method)
    ode.affine = (np.full((2, 2), np.nan), np.zeros(2))
    y0 = fam.expectation_params([0.2, 0.1]) if method == "ada-mix" else [0.2, 0.1]
    with pytest.raises(TrajectoryExit) as info:
        integrate_ode(ode, np.asarray(y0), t_end=0.1, dt=1e-2)
    assert info.value.step == 1


# -- the tangent-ef stage and its RK4 step in Python floats -------------------

CUBIC = polynomial_drift([0.1, -0.3, 0.0, -0.8], diffusion=1.3)


def _numpy_pass(fam, rows, theta):
    """The moment pass in the numpy formulation the float stage replaced:
    (psi, m = rows @ e / z, p at the nodes), with m an array."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = theta @ fam.stat_values()
    if not np.isfinite(s).all():
        raise NonIntegrable("log-density is not finite at the quadrature nodes")
    shift = s.max()
    e = np.exp(s - shift)
    m = rows @ e
    z = m[0]
    return shift + np.log(z), m / z, e / z


def _numpy_stage(fam, rows, theta):
    """g(theta)^-1 E[L c] from `_numpy_pass` through the stacked rows of the stage."""
    m = _numpy_pass(fam, rows, theta)[1].tolist()
    return _Cholesky([m[k] - m[i] * m[j] for k, i, j in fam._fisher_terms]).solve(m[-fam.n:])


STAGE_FAMILIES = [ep_family(2), ep_family(4), ep_family(6), hermite_family([1, 2])]


@pytest.mark.parametrize("model", [OU, CUBIC], ids=["OU", "cubic"])
@pytest.mark.parametrize("fam", STAGE_FAMILIES, ids=[fam.name for fam in STAGE_FAMILIES])
def test_float_stage_is_the_numpy_stage_bit_for_bit(fam, model):
    ode = ProjectedOde(fam, model, "tangent-ef")
    rng = np.random.default_rng(20 + fam.n)
    base = {2: [0.3, -0.6], 4: [0.1, 0.3, -0.05, -0.2], 6: [0.1, 0.2, 0.0, -0.1, 0.0, -0.01]}
    for _ in range(25):
        theta = np.array(base[fam.n]) * rng.uniform(0.5, 2.0, size=fam.n)
        assert ode.rhs(theta).tobytes() == _numpy_stage(fam, ode._rows, theta).tobytes()
        psi, m, pvals = _numpy_pass(fam, fam.row_stack, theta)
        assert fam.log_partition(theta) == float(psi)
        assert fam.expectation_params(theta).tobytes() == m[1:fam.n + 1].tobytes()
        assert fam.density_values(theta).tobytes() == pvals.tobytes()
        coarse = fam._coarse_stack @ pvals[::2]
        fine = m[1:]
        gap = np.abs(fine - coarse[1:] / coarse[0]) / np.maximum(1.0, np.abs(fine))
        assert fam.quadrature_error(theta) == float(np.max(gap))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("theta, error, message", [
    # -inf at the outer nodes, a finite max
    ([0.0, -1e307], NonIntegrable, "log-density is not finite at the quadrature nodes"),
    ([np.nan, -1.0], InadmissibleParameter, "theta must be finite"),
    ([0.0, -np.inf], InadmissibleParameter, "theta must be finite"),
], ids=["minus-inf-nodes", "nan", "minus-inf-theta"])
@pytest.mark.parametrize("fam", [ep_family(2), hermite_family([1, 2])],
                         ids=["EP(2)", "hermite(1,2)"])
def test_float_stage_refuses_with_the_class_and_message_of_the_numpy_stage(
        fam, theta, error, message):
    theta = np.array(theta)
    if error is NonIntegrable:
        with np.errstate(over="ignore"):
            s = theta @ fam.stat_values()
        assert np.isfinite(s.max()) and s[0] == s[-1] == -np.inf
    ode = ProjectedOde(fam, OU, "tangent-ef")
    for call in (ode.rhs, fam.expectation_params):
        for _ in range(2):
            with pytest.raises(error) as info:
                call(theta)
            assert type(info.value) is error
            assert str(info.value) == message


def test_tangent_ef_stages_enter_no_errstate_where_the_product_cannot_overflow(monkeypatch):
    fam = ep_family(2)
    ode = ProjectedOde(fam, OU, "tangent-ef")
    entered = []
    errstate = np.errstate
    monkeypatch.setattr(np, "errstate", lambda **kw: entered.append(kw) or errstate(**kw))
    integrate_ode(ode, np.array([0.5, -0.5]), t_end=0.02, dt=1e-3, record_residual=True)
    assert entered == []
    # sum |theta_i| max |c_i| overflows here: only the product is taken under errstate
    with pytest.raises(NonIntegrable):
        ode.rhs(np.array([0.0, -1e307]))
    assert entered == [{"over": "ignore", "invalid": "ignore"}]


@pytest.mark.parametrize("fam, model, theta0, method", [
    (ep_family(2), OU, [0.5, -0.5], "tangent-ef"),
    (ep_family(4), CUBIC, [0.1, 0.3, -0.05, -0.2], "tangent-ef"),
    (ep_family(6), CUBIC, [0.1, -0.3, 0.05, -0.2, 0.0, -0.1], "tangent-ef"),
    (hermite_family([1, 2]), CUBIC, [-0.2, -0.9], "tangent-ef"),
    (ep_family(2), CUBIC, [0.3, -0.6], "ada-ef"),  # open: Newton-seeded stages
], ids=["EP(2)-OU", "EP(4)-cubic", "EP(6)-cubic", "hermite(1,2)-cubic", "EP(2)-cubic-ada-ef"])
def test_float_rk4_steps_are_the_numpy_rk4_loop_bit_for_bit(fam, model, theta0, method):
    ode = ProjectedOde(fam, model, method)
    assert ode.affine is None
    theta0 = np.array(theta0)
    start = fam.expectation_params(theta0) if method == "ada-ef" else theta0
    dt = 1e-3
    y, theta = ode.prepare_initial(start)
    want = [y]
    for _ in range(20):
        seed = ode.newton_seeds(y, theta)
        k1 = ode.rhs(y, theta)
        y2 = y + 0.5 * dt * k1
        k2 = ode.rhs(y2, seed(y2))
        y3 = y + 0.5 * dt * k2
        k3 = ode.rhs(y3, seed(y3))
        y4 = y + dt * k3
        k4 = ode.rhs(y4, seed(y4))
        raw = y + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        y, theta, _ = ode.constrain(raw, seed(raw))
        want.append(y)
    traj = integrate_ode(ode, start, t_end=20 * dt, dt=dt)
    assert traj.states.tobytes() == np.array(want).tobytes()
    assert traj.times.tobytes() == (dt * np.arange(21)).tobytes()


def test_float_rk4_steps_leave_the_family_at_the_step_of_the_numpy_loop():
    # OU drives EP(6)'s theta_6 up to 0; a stage of step 19 crosses it
    ode = ProjectedOde(ep_family(6), OU, "tangent-ef")
    with pytest.raises(TrajectoryExit) as info:
        integrate_ode(ode, np.array([0.1, -0.3, 0.05, -0.2, 0.0, -0.1]), t_end=0.02, dt=1e-3)
    assert info.value.step == 19
    assert str(info.value) == ("rhs failed at step 19: leading coefficient must be negative, "
                               "got theta_n = 0.0006385094497688919")


def test_rk4_weights_of_the_circle_flow_converge_to_its_closed_form():
    # the oracle's own check: RK4 is fourth order, so halving dt divides the error
    # at t = 1 by about 16
    theta0, harmonics, a = [0.3, 0.2], [1, 3], 2.0
    exact = circle_cosine_weights(theta0, harmonics, a, [1.0])[0]
    errors = [np.max(np.abs(circle_cosine_rk4_weights(theta0, harmonics, a, 1.0 / n, n)[-1]
                            - exact)) for n in (80, 160, 320)]
    assert all(15.0 <= coarse / fine <= 17.0 for coarse, fine in zip(errors, errors[1:]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(diffusion=st.floats(0.1, 1000.0), dt=st.floats(1e-4, 1e-2),
       harmonics=st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True),
       nsteps=st.integers(1, 15), data=st.data())
def test_mixture_rk4_runs_on_the_circle_match_the_discrete_closed_form(
        diffusion, dt, harmonics, nsteps, data):
    # every projection of circle diffusion onto the cosine family is the field
    # theta_k' = lambda_k theta_k, lambda_k = -k^2 a / 2: a run RK4 accepts takes the
    # weights to theta_k(0) R(dt lambda_k)^n with every |R| <= 1, and a refused one
    # has a step that grows some mode.  On the stable interval R >= 0.27, so 15 steps
    # keep the weights far above the simplex margin, and nothing is clamped
    harmonics = sorted(harmonics)
    theta0 = np.array(data.draw(st.lists(st.floats(0.05, 0.3), min_size=len(harmonics),
                                         max_size=len(harmonics))))
    fam, model = cosine_circle_family(harmonics), circle_diffusion(diffusion)
    growth = np.abs(rk4_growth(dt * circle_cosine_rates(harmonics, diffusion)))
    want = circle_cosine_rk4_weights(theta0, harmonics, diffusion, dt, nsteps)
    for method in ("tangent-mix", "ada-mix", "galerkin"):
        start = fam.expectation_params(theta0) if method == "ada-mix" else theta0
        try:
            traj = integrate_ode(make_ode(fam, model, method), start, t_end=nsteps * dt, dt=dt)
        except SchemeInstability:
            assert growth.max() > 1.0
            continue
        assert growth.max() <= 1.0 and not traj.clamp_events
        assert np.max(np.abs(traj.thetas - want)) <= 1e-12
