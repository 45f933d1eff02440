"""Projected vector fields, their coordinate identities, and the residual.

Hand-checked vector field for the mean-reverting model at theta = (0.5, -0.5)
(member N(0.5, 1)): moments give v = (-0.5, -0.5) and Fisher block
[[1, 1], [1, 3]], so theta-dot = (-0.5, 0).

Residual oracle for drift f = -x^3, a = 2 at the standard normal member:
(L* p)/p = -x^4 + 4 x^2 - 1, E[w^2] = 32, projection onto the centered
statistics removes b' g^{-1} b = 8, and the square-root-density scaling
divides by 4: R^2 = (32 - 8)/4 = 6.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from fpkproj import (
    circle_diffusion,
    cosine_circle_family,
    ef_eta_rhs,
    ef_theta_rhs,
    ep_family,
    galerkin_rhs,
    gaussian_mixture_family,
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
from fpkproj.errors import TrajectoryExit, ValidationError


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
        m = fam.weights_to_expectations(theta)
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
        y0 = fam.weights_to_expectations(theta0) if method == "ada-mix" else theta0
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
        y0 = family.weights_to_expectations(theta0) if method == "ada-mix" else theta0
        traj = integrate_ode(ode, y0, t_end=0.5, dt=1e-3)
        assert not traj.clamped.any()
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
    m0 = mix.weights_to_expectations(np.array([0.3, 0.3]))
    traj = integrate_ode(make_ode(mix, OU, "ada-mix"), m0, t_end=0.05, dt=1e-2)
    for theta, m in zip(traj.thetas, traj.states):
        assert np.max(np.abs(mix.weights_to_expectations(theta) - m)) <= 1e-14


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


def test_method_family_mismatch_is_rejected():
    fam = ep_family(2)
    mix = cosine_circle_family([1])
    with pytest.raises(ValueError, match="method/family mismatch"):
        make_ode(fam, OU, "tangent-mix")
    with pytest.raises(ValueError, match="method/family mismatch"):
        make_ode(mix, __import__("fpkproj").circle_diffusion(2.0), "ada-ef")
    with pytest.raises(ValueError):
        make_ode(fam, OU, "leapfrog")


def test_integration_grid_is_validated():
    ode = make_ode(ep_family(2), OU, "ada-ef")
    with pytest.raises(ValidationError):
        integrate_ode(ode, np.array([0.5, 1.25]), t_end=1.0, dt=0.3)
    with pytest.raises(ValidationError):
        integrate_ode(ode, np.array([0.5, 1.25]), t_end=-1.0, dt=0.1)
    with pytest.raises(ValidationError):
        integrate_ode(ode, np.array([0.5]), t_end=1.0, dt=0.1)


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
    assert traj.coordinates == "canonical"
