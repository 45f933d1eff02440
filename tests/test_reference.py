"""Finite-difference reference solver, divergences, metric projections.

Closed forms used as oracles:
  * OU with kappa = 1, sigma = sqrt(2): mean m(t) = m0 e^{-t},
    variance v(t) = 1 + (v0 - 1) e^{-2t}; N(0, 1) is stationary.
  * pure diffusion on the circle with a = 2: E[cos kx](t) decays as e^{-k^2 t}.
  * K(N(m1, v) || N(m2, v)) = (m1 - m2)^2 / (2 v)
  * squared Hellinger integral for equal variances: 2 (1 - exp(-dm^2/(8 v)))
  * squared L2 distance: (1 - exp(-dm^2/4)) / sqrt(pi) for v = 1
"""

import importlib.machinery
import importlib.util
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpkproj import (
    DifferentiableFn,
    GridDensity,
    SdeModel,
    decay_experiment,
    default_domain,
    divergence_hellinger,
    divergence_kl,
    divergence_l2,
    ep_family,
    fit_decay_rates,
    gaussian_mixture_family,
    gaussian_pdf_fn,
    grid_density,
    hermite_family,
    metric_project_ef,
    metric_project_mix,
    ornstein_uhlenbeck,
    circle_diffusion,
    cosine_circle_family,
    polynomial_drift,
    solve_fpk,
)
from fpkproj.errors import (
    InadmissibleRecovery,
    NotAnEigenfunction,
    SchemeInstability,
    SupportViolation,
    ValidationError,
)
from fpkproj.functions import gaussian_mixture_pdf_fn
from fpkproj.quadrature import Domain, trapezoid_rule
from fpkproj import reference
from fpkproj.reference import ReferenceProblem, _symmetrizer, fpk_operator, stat_expectations
from fpkproj.scenario import load_scenario

from exact import ou_gaussian_mixture_pdf

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

DOM = default_domain(1.0)
OU = ornstein_uhlenbeck(kappa=1.0, sigma=np.sqrt(2.0))
# at 201 nodes log d spans about 1060 > MAX_LOG_SPAN, so it takes the general path
CUBIC = polynomial_drift([0.2, -0.5, 0.0, -0.3], diffusion=1.5)


def test_grid_density_mass_and_expectations():
    p = grid_density(DOM, 801, gaussian_pdf_fn(0.4, 0.9))
    assert abs(p.mass() - 1.0) <= 1e-12
    assert abs(p.expect(lambda x: x) - 0.4) <= 1e-9
    assert abs(p.expect(lambda x: x * x) - (0.16 + 0.9)) <= 1e-8


def test_grid_density_validation():
    with pytest.raises(ValidationError):
        GridDensity(domain=DOM, values=np.full(101, 1.0))
    bad = np.exp(-np.linspace(-12, 12, 101) ** 2 / 2.0)
    bad[5] = -0.3
    with pytest.raises(ValidationError):
        GridDensity(domain=DOM, values=bad)


def test_stationary_density_is_preserved():
    p0 = grid_density(DOM, 801, gaussian_pdf_fn(0.0, 1.0))
    snaps = solve_fpk(OU, p0, t_end=0.2, dt=1e-3, sample_stride=200)
    drift = np.max(np.abs(snaps[-1].values - p0.values))
    assert drift <= 1e-12


def test_transient_moments_match_closed_form():
    p0 = grid_density(DOM, 1201, gaussian_pdf_fn(0.5, 0.25))
    snaps = solve_fpk(OU, p0, t_end=0.5, dt=1e-3, sample_stride=100)
    for snap in snaps:
        t = snap.time
        mean = snap.expect(lambda x: x)
        var = snap.expect(lambda x: x * x) - mean * mean
        assert abs(mean - 0.5 * np.exp(-t)) <= 5e-5
        assert abs(var - (1.0 + (0.25 - 1.0) * np.exp(-2.0 * t))) <= 5e-5


@pytest.mark.parametrize("steps", [
    [(101, 5e-4), (201, 5e-4), (401, 5e-4)],      # in nx, where the time error is negligible
    [(8001, 0.1), (8001, 0.05), (8001, 0.025)],   # in dt, where the space error is negligible
], ids=["nx", "dt"])
def test_ou_mixture_reference_converges_at_order_two(steps):
    # the L1 error at t = 0.5 against the closed form falls by about 4 per halving
    mixture = dict(weights=[0.3, 0.7], means=[-1.0, 1.5], variances=[0.3, 0.4])
    errors = []
    for nx, dt in steps:
        p0 = grid_density(DOM, nx, gaussian_mixture_pdf_fn(**mixture))
        end = solve_fpk(OU, p0, t_end=0.5, dt=dt, sample_stride=round(0.5 / dt))[-1]
        exact = ou_gaussian_mixture_pdf(end.x, 0.5, kappa=1.0, sigma=np.sqrt(2.0), **mixture)
        errors.append(float(end.trapezoid_weights @ np.abs(end.values - exact)))
    assert all(3.5 <= coarse / fine <= 4.5 for coarse, fine in zip(errors, errors[1:]))


def test_mass_is_conserved_along_the_run():
    p0 = grid_density(DOM, 801, gaussian_pdf_fn(0.3, 0.5))
    snaps = solve_fpk(OU, p0, t_end=0.2, dt=1e-3, sample_stride=20)
    for snap in snaps:
        assert abs(snap.mass() - 1.0) <= 1e-10


def _assert_matches_dense_step(model, nx, mean, var, dt):
    """100 steps of `solve_fpk` against the dense two-matrix step; True on the symmetric path."""
    # the scheme is (I - hL) p_{k+1} = (I + hL) p_k, h = dt/2, with L the
    # tridiagonal adjoint generator; here both sides are dense matrices
    p0 = grid_density(model.domain, nx, gaussian_pdf_fn(mean, var))
    lower, diag, upper = fpk_operator(model, model.domain, nx)
    gen = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
    implicit = np.eye(nx) - 0.5 * dt * gen
    explicit = np.eye(nx) + 0.5 * dt * gen
    snaps = solve_fpk(model, p0, t_end=100 * dt, dt=dt, sample_stride=7)
    dense = [p0.values]
    for _ in range(100):
        dense.append(np.linalg.solve(implicit, explicit @ dense[-1]))
    assert [round(s.time / dt) for s in snaps] == list(range(0, 101, 7)) + [100]
    for snap in snaps:
        ref = dense[round(snap.time / dt)]
        assert np.max(np.abs(snap.values - ref)) <= 1e-12 * np.max(ref)
        assert abs(snap.mass() - 1.0) <= 1e-13
    return _symmetrizer(lower, upper) is not None


# model3: |Peclet| reaches 164 on this coarse grid, and its Scharfetter-Gummel
# bands stay positive where the cancelling form of the fluxes rounds below zero
@pytest.mark.parametrize("model, nx", [
    (OU, 201), (CUBIC, 201), (circle_diffusion(2.0), 201),
    (ornstein_uhlenbeck(kappa=3.0, sigma=np.sqrt(0.5)), 21),
], ids=["model0", "model1", "model2", "model3"])
def test_crank_nicolson_matches_the_dense_two_matrix_step(model, nx):
    symmetric = _assert_matches_dense_step(model, nx, 0.6, 0.4, 2e-3)
    assert symmetric == (model is not CUBIC)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(quartic=st.booleans(), kappa=st.floats(0.2, 3.0), a=st.floats(-1.0, 3.0),
       b=st.floats(0.01, 1.0), diffusion=st.floats(0.5, 3.0), nx=st.integers(21, 201),
       mean=st.floats(-1.0, 1.0), var=st.floats(0.2, 1.0))
def test_either_step_path_matches_the_dense_step(quartic, kappa, a, b, diffusion, nx, mean, var):
    # OU, or the gradient drift -V' of the quartic potential V = a x^2/2 + b x^4/4
    model = (polynomial_drift([0.0, -a, 0.0, -b], diffusion=diffusion) if quartic
             else ornstein_uhlenbeck(kappa, np.sqrt(diffusion)))
    # dt <= 2 / max|L_ii| keeps I + (dt/2) L nonnegative, so the scheme keeps
    # p >= 0 and the floor applied to snapshots never acts
    dt = min(2e-3, 1.0 / np.max(-fpk_operator(model, model.domain, nx)[1]))
    _assert_matches_dense_step(model, nx, mean, var, dt)


@pytest.mark.parametrize("model", [OU, CUBIC], ids=["dpttrs", "dgttrs"])
def test_the_step_on_half_of_m_is_the_step_on_m_to_the_bit(model):
    # the solve factors M/2 = I/2 - (dt/4) L and steps (M/2)^-1 q - q; here the
    # step is 2 M^-1 q - q on the factors of M = I - (dt/2) L itself
    dgttrf, dgttrs, dpttrf, dpttrs = reference._tridiagonal_lapack()
    dt, nx = 2e-3, 201
    p0 = grid_density(model.domain, nx, gaussian_pdf_fn(0.6, 0.4))
    lower, diag, upper = fpk_operator(model, model.domain, nx)
    d = _symmetrizer(lower, upper)
    assert (d is None) == (model is CUBIC)
    half = 0.5 * dt
    if d is None:
        d = np.ones(nx)
        *factors, info = dgttrf(-half * lower, 1.0 - half * diag, -half * upper)
        solve = dgttrs
    else:
        *factors, info = dpttrf(1.0 - half * diag, -half * (np.sqrt(lower) * np.sqrt(upper)))
        solve = dpttrs
    assert info == 0
    q = d * p0.values
    expected = [p0.values]
    for _ in range(100):
        y, info = solve(*factors, q)
        assert info == 0
        q = 2 * y - q
        expected.append(np.maximum(q / d, 0.0))
    snaps = solve_fpk(model, p0, t_end=100 * dt, dt=dt, sample_stride=1)
    assert [s.values.tobytes() for s in snaps] == [v.tobytes() for v in expected]


def test_operator_of_a_stiff_drift_is_finite_without_overflow_warnings():
    # |Peclet| reaches about 2e3 here, where expm1 overflows; warnings are errors
    lower, diag, upper = fpk_operator(polynomial_drift([0.0, 0.0, 0.0, -50.0]), DOM, 2001)
    assert all(np.all(np.isfinite(band)) for band in (lower, diag, upper))
    assert _symmetrizer(lower, upper) is None


@pytest.mark.parametrize("coefficients, bands, face", [
    ([0.0, -1e306], "lower, diag, upper", "-11.994"),   # |f| overflows the fluxes at both ends
    ([1e307], "lower, diag", "-11.994"),                # a constant push to the right
    ([1.2e306, 1e305], "lower, diag", "9.57"),          # f grows from 0 at the left end
], ids=["linear", "constant", "right-part"])
def test_operator_whose_bands_overflow_is_refused_without_warnings(coefficients, bands, face):
    # warnings are errors here: the bands are computed under np.errstate
    with pytest.raises(SchemeInstability) as info:
        fpk_operator(polynomial_drift(coefficients, diffusion=2.0), DOM, 2001)
    assert str(info.value) == (
        f"the reference operator's bands ({bands}) are not finite, first at the face "
        f"x = {face}: the drift overflows the Scharfetter-Gummel fluxes")


def test_negative_density_stops_the_run_at_the_step_it_appears():
    # a spike of variance 1e-3 with dt = 0.5 sends Crank-Nicolson's stiff
    # modes below zero in the first step
    p0 = grid_density(DOM, 2001, gaussian_pdf_fn(0.0, 1e-3))
    with pytest.raises(SchemeInstability, match=r"^density dropped to \S+ at step 1 "
                                                r"with dt = 0\.5; reduce numerics\.pde_dt$"):
        solve_fpk(ornstein_uhlenbeck(1.0, 1.0), p0, t_end=1.0, dt=0.5)


def test_circle_modes_decay_at_quadratic_rates():
    model = circle_diffusion(2.0)
    p0 = grid_density(model.domain, 1001,
                      lambda x: (1.0 + 0.4 * np.cos(x)) / (2.0 * np.pi))
    snaps = solve_fpk(model, p0, t_end=0.2, dt=1e-3, sample_stride=100)
    for snap in snaps:
        got = snap.expect(np.cos(snap.x))
        assert abs(got - 0.2 * np.exp(-snap.time)) <= 1e-5


def test_divergences_match_gaussian_closed_forms():
    p = grid_density(DOM, 1601, gaussian_pdf_fn(0.0, 1.0))
    q = gaussian_pdf_fn(0.5, 1.0)
    assert abs(divergence_kl(p, q) - 0.125) <= 1e-9
    assert abs(divergence_hellinger(p, q) - 2.0 * (1.0 - np.exp(-0.25 / 8.0))) <= 1e-9
    assert abs(divergence_l2(p, q) - (1.0 - np.exp(-0.25 / 4.0)) / np.sqrt(np.pi)) <= 1e-9


def test_divergences_vanish_on_identical_densities():
    p = grid_density(DOM, 801, gaussian_pdf_fn(0.1, 0.8))
    assert abs(divergence_kl(p, p.values)) <= 1e-13
    assert divergence_hellinger(p, p.values) == 0.0
    assert divergence_l2(p, p.values) == 0.0


def test_grid_density_comparison_argument():
    # q is its values at p's nodes or a callable; another grid's density is neither
    p = grid_density(DOM, 801, gaussian_pdf_fn(0.0, 1.0))
    q_same = grid_density(DOM, 801, gaussian_pdf_fn(0.5, 1.0))
    assert abs(divergence_kl(p, q_same.values) - 0.125) <= 1e-9
    with pytest.raises(ValueError):
        divergence_l2(p, grid_density(DOM, 401, gaussian_pdf_fn(0.5, 1.0)).values)
    with pytest.raises(TypeError):
        divergence_l2(p, q_same)


def test_support_mismatch_is_flagged():
    p = grid_density(DOM, 801, gaussian_pdf_fn(0.0, 1.0))

    def truncated(x):
        return np.where(x < 0.0, 0.0, gaussian_pdf_fn(2.0, 0.1)(x))

    with pytest.raises(SupportViolation):
        divergence_kl(p, truncated)


def test_ef_projection_recovers_family_members():
    fam = ep_family(2)
    theta = np.array([0.4, -0.8])
    p = grid_density(DOM, 2001, fam.density(theta))
    got = metric_project_ef(p, fam)
    assert np.max(np.abs(got - theta)) <= 1e-9


def test_ef_projection_matches_grid_moments():
    # the minimizer of K(p, p_theta) matches the first n moments of p
    fam = ep_family(2)
    mix = lambda x: (0.5 * gaussian_pdf_fn(-1.0, 0.25)(x)
                     + 0.5 * gaussian_pdf_fn(1.0, 0.25)(x))
    p = grid_density(DOM, 2001, mix)
    theta = metric_project_ef(p, fam)
    assert np.max(np.abs(theta - np.array([0.0, -0.4]))) <= 1e-9
    target = np.array([p.expect(lambda x: x), p.expect(lambda x: x * x)])
    assert np.max(np.abs(fam.expectation_params(theta) - target)) <= 1e-7


@pytest.mark.parametrize("fam", [ep_family(2), hermite_family([1, 2])])
def test_gaussian_families_start_newton_at_the_optimum(fam, monkeypatch):
    # EP(2) and Hermite(1,2) are the Gaussians, so the KL optimum is the
    # Gaussian with the target's mean and variance and Newton builds no
    # Fisher matrix
    mix = lambda x: (0.3 * gaussian_pdf_fn(-1.0, 0.25)(x)
                     + 0.7 * gaussian_pdf_fn(1.5, 0.5)(x))
    p = grid_density(DOM, 2001, mix)
    builds = []
    fisher = fam.fisher_matrix
    monkeypatch.setattr(fam, "fisher_matrix", lambda theta: builds.append(1) or fisher(theta))
    theta = metric_project_ef(p, fam)
    mean = p.expect(p.x)
    var = p.expect((p.x - mean) ** 2)
    assert not builds
    assert np.max(np.abs(theta - np.array([mean / var, -0.5 / var]))) <= 1e-12
    target = np.array([p.expect(c(p.x)) for c in fam.stats])
    assert np.max(np.abs(fam.expectation_params(theta) - target)) <= 1e-11


def test_mix_projection_recovers_family_members():
    fam = gaussian_mixture_family([-1.0, 0.0, 1.0], [0.5, 0.5, 0.5])
    theta = np.array([0.35, 0.25])
    p = grid_density(DOM, 2001, fam.density(theta))
    assert np.max(np.abs(metric_project_mix(p, fam) - theta)) <= 1e-10


def test_mix_projection_is_locally_optimal():
    fam = gaussian_mixture_family([-1.0, 0.0, 1.0], [0.5, 0.5, 0.5])

    def target(x):
        return (0.35 * gaussian_pdf_fn(-1.05, 0.62)(x)
                + 0.3 * gaussian_pdf_fn(0.1, 0.45)(x)
                + 0.35 * gaussian_pdf_fn(0.95, 0.55)(x))

    p = grid_density(DOM, 2001, target)
    theta = metric_project_mix(p, fam)
    assert fam.is_admissible(theta)
    base = divergence_l2(p, fam.density(theta))
    rng = np.random.default_rng(41)
    for _ in range(12):
        d = rng.normal(size=2)
        d /= np.linalg.norm(d)
        for s in (1e-3, -1e-3, 1e-2, -1e-2):
            cand = theta + s * d
            if fam.is_admissible(cand):
                assert divergence_l2(p, fam.density(cand)) >= base - 1e-12


def test_ep4_projection_is_seeded_by_the_grid_moments(monkeypatch):
    # EP(4) has no Gaussian start; Newton starts from the algebraic inversion
    # of the first eight grid moments and builds 5 Fisher matrices (9 from
    # the default start)
    fam = ep_family(4)
    mix = gaussian_mixture_pdf_fn([0.3, 0.7], [-1.2, 0.8], [0.3, 0.5])
    p = grid_density(default_domain(), 2001, mix)
    builds = []
    fisher = fam.fisher_matrix
    monkeypatch.setattr(fam, "fisher_matrix", lambda theta: builds.append(1) or fisher(theta))
    theta = metric_project_ef(p, fam)
    assert len(builds) <= 5
    assert np.max(np.abs(fam.expectation_params(theta) - stat_expectations(p, fam))) <= 1e-10


def test_mix_projection_outside_simplex_raises():
    fam = gaussian_mixture_family([-1.0, 0.0, 1.0], [0.5, 0.5, 0.5])
    p = grid_density(DOM, 1001, gaussian_pdf_fn(-1.0, 0.5))
    with pytest.raises(InadmissibleRecovery) as info:
        metric_project_mix(p, fam)
    assert info.value.value is not None


MIX = ([-1.0, 0.2, 1.1], [0.5, 0.8, 0.6])


def _counted(fns, calls):
    """The functions fns, each adding 1 to calls[i] when evaluated."""
    def wrap(i, c):
        def value(x):
            calls[i] += 1
            return c(x)
        return DifferentiableFn(value, c.d1, c.d2)
    return tuple(wrap(i, c) for i, c in enumerate(fns))


@pytest.mark.parametrize("fam, project", [
    (hermite_family([1, 2]), metric_project_ef),
    (gaussian_mixture_family(*MIX), metric_project_mix),
], ids=["ef", "mix"])
def test_metric_projections_evaluate_each_statistic_once_per_grid(fam, project, monkeypatch):
    calls = [0] * fam.n
    monkeypatch.setattr(fam, "stats", _counted(fam.stats, calls))
    member = gaussian_mixture_family(*MIX).density(np.array([0.3, 0.3]))
    snapshots = solve_fpk(OU, grid_density(DOM, 401, member), t_end=0.1, dt=1e-2)
    for snap in snapshots:
        project(snap, fam)
    assert len(snapshots) == 11 and calls == [1] * fam.n
    project(grid_density(DOM, 501, member), fam)
    assert calls == [2] * fam.n


@pytest.mark.parametrize("level", [4, 8, 11])
def test_family_rules_and_reference_grids_share_one_trapezoid_grid(level):
    # one owner of the uniform trapezoid rule: a family's rule at level L and a
    # reference grid of 2**L + 1 nodes on its domain hold the same arrays
    rule = hermite_family([1, 2], trapezoid_rule(DOM, level)).rule
    p = grid_density(DOM, 2 ** level + 1, gaussian_pdf_fn(0.2, 0.8))
    assert p.x is rule.nodes and p.trapezoid_weights is rule.weights
    for values in (rule.nodes, rule.weights):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.0


@pytest.mark.parametrize("fam, density", [
    (hermite_family([1, 2]), gaussian_pdf_fn(0.2, 0.8)),
    (gaussian_mixture_family(*MIX), gaussian_pdf_fn(0.2, 0.8)),
    (cosine_circle_family([1, 2]), lambda x: (1.0 + 0.3 * np.cos(x)) / (2.0 * np.pi)),
], ids=["hermite", "gauss-mix", "circle"])
def test_stat_expectations_are_the_expectations_of_the_stats(fam, density):
    # the second grid checks that the values kept for the first are not reused
    for nx in (601, 801, 601):
        p = grid_density(fam.domain, nx, density)
        want = np.array([p.expect(c(p.x)) for c in fam.stats])
        got = stat_expectations(p, fam)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_matched_start_stays_near_zero():
    fam = hermite_family([1, 2])
    p0 = grid_density(DOM, 1201, gaussian_pdf_fn(0.5, 1.5))
    report = decay_experiment(OU, fam, p0, t_end=0.5, pde_dt=1e-3,
                              ode_dt=1e-3, sample_stride=50)
    assert np.max(np.abs(report.eigenvalues - np.array([1.0, 2.0]))) <= 1e-9
    assert np.max(report.max_abs_epsilon) <= 5e-4


def test_decay_report_serializes():
    fam = cosine_circle_family([1, 2])
    model = circle_diffusion(2.0)
    p0 = grid_density(model.domain, 801,
                      lambda x: (1.0 + 0.3 * np.cos(x) + 0.2 * np.cos(2 * x)) / (2 * np.pi))
    report = decay_experiment(model, fam, p0, t_end=0.3, pde_dt=1e-3,
                              ode_dt=1e-3, sample_stride=30,
                              start=np.array([0.05, 0.02]),
                              fit_window=(0.05, 0.3))
    blob = report.as_dict()
    for key in ("times", "epsilon", "eigenvalues", "fitted_rates",
                "max_abs_epsilon", "coordinates"):
        assert key in blob
    assert np.max(np.abs(np.array(blob["eigenvalues"]) - np.array([1.0, 4.0]))) <= 1e-9


def test_nonexponential_statistics_are_rejected():
    # monomial statistics are not eigenfunctions of the mean-reverting
    # generator (L x^2 has an affine remainder), so the experiment refuses
    fam = ep_family(2)
    p0 = grid_density(DOM, 801, gaussian_pdf_fn(0.0, 1.0))
    with pytest.raises(NotAnEigenfunction):
        decay_experiment(OU, fam, p0, t_end=0.1)


def test_stride_mismatch_is_rejected():
    fam = hermite_family([1, 2])
    p0 = grid_density(DOM, 801, gaussian_pdf_fn(0.0, 1.0))
    with pytest.raises(ValidationError):
        decay_experiment(OU, fam, p0, t_end=0.1, pde_dt=1e-3, ode_dt=3e-4,
                         sample_stride=10)
    for t_end, dt, stride in ((1.0, 0.3, 1), (0.1, -1e-3, 1), (0.1, 1e-3, 0), (0.1, 1e-3, -3)):
        with pytest.raises(ValidationError):
            solve_fpk(OU, p0, t_end=t_end, dt=dt, sample_stride=stride)


def test_decay_experiment_applies_the_generator_once(monkeypatch):
    # the eigenvalue check reads the L c of the ODE the experiment integrates
    calls = []
    original = SdeModel.generator_values
    monkeypatch.setattr(SdeModel, "generator_values",
                        lambda self, *args: calls.append(1) or original(self, *args))
    p0 = grid_density(DOM, 801, gaussian_pdf_fn(0.3, 0.5))
    decay_experiment(OU, hermite_family([1, 2]), p0, t_end=0.1)
    assert len(calls) == 1


def test_decay_experiment_keeps_moments_not_snapshots(solves):
    # circle_decay's reference: 201 snapshots of 1201 nodes, 1.9 MB of densities
    # if the solve kept them; the experiment reads only each one's E_p[stats]
    scenario = load_scenario(SCENARIO_DIR / "circle_decay.yaml")
    model, fam, problem, start = scenario.built
    p0, num = problem.p0, scenario.numerics

    def run(t_end=num.t_end):
        return decay_experiment(model, fam, p0, t_end, pde_dt=num.pde_dt,
                                ode_dt=num.ode_dt, sample_stride=num.sample_stride,
                                start=start, fit_window=num.fit_window)

    first = run()  # loads LAPACK and fills the family's per-grid tables
    assert first.times.size == 201 and p0.nx == 1201
    run(num.t_end / 2)  # another problem, so that the measured run solves
    assert len(solves) == 2
    tracemalloc.start()
    try:
        report = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(solves) == 3
    assert peak < 0.5e6
    assert report.epsilon.tobytes() == first.epsilon.tobytes()


@pytest.mark.parametrize("model", [OU, polynomial_drift([0.0, -60.0])], ids=["dpttrs", "dgttrs"])
def test_a_reducer_sees_the_snapshots_the_solve_returns(model):
    # OU steps q = d p with dpttrs; the drift -60 x has no symmetrizer in floats
    # at nx 1201 (log d spans more than MAX_LOG_SPAN) and steps p with dgttrs
    p0 = grid_density(default_domain(), 1201, gaussian_pdf_fn(0.5, 0.3))
    lower, _, upper = fpk_operator(model, p0.domain, p0.nx)
    assert (_symmetrizer(lower, upper) is None) == (model is not OU)

    def reduce(snap):
        return snap.time, snap.values.tobytes()

    kept = solve_fpk(model, p0, 5e-3, 1e-4, 10)
    assert solve_fpk(model, p0, 5e-3, 1e-4, 10, reduce=reduce) == [reduce(s) for s in kept]
    assert all(isinstance(s, GridDensity) for s in kept) and len(kept) == 6


def test_a_memoized_problem_solves_once_and_each_call_gets_a_new_list(solves):
    p0 = grid_density(DOM, 201, gaussian_pdf_fn(0.5, 0.3))
    first = ReferenceProblem(OU, p0, 0.05, 1e-3, 10).solve()
    assert len(first) == 6
    first.clear()
    second = ReferenceProblem(OU, p0, 0.05, 1e-3, 10).solve()
    second.append(None)
    third = ReferenceProblem(OU, p0, 0.05, 1e-3, 10).solve()
    assert len(solves) == 1 and len(second) == 7 and len(third) == 6
    assert third == solves[0] and third is not solves[0]
    for snap in third:
        with pytest.raises(ValueError):
            snap.values[0] = 1.0


def test_an_unreduced_and_a_reduced_solve_of_one_problem_solve_twice(solves):
    p0 = grid_density(DOM, 201, gaussian_pdf_fn(0.5, 0.3))
    problem = ReferenceProblem(OU, p0, 0.05, 1e-3, 10)
    for _ in range(2):
        snaps = problem.solve()
        moments = problem.solve(hermite_family([1, 2]))
        assert [t for t, _ in moments] == [s.time for s in snaps]
    # one entry: each call replaced the other's
    assert len(solves) == 4


def test_a_reduced_solve_is_shared_only_by_equal_node_statistics(solves):
    p0 = grid_density(DOM, 201, gaussian_pdf_fn(0.5, 0.3))
    problem = ReferenceProblem(OU, p0, 0.05, 1e-3, 10)
    hermite = hermite_family([1, 2])
    first = problem.solve(hermite)
    want = [(s.time, stat_expectations(s, hermite)) for s in solve_fpk(OU, p0, 0.05, 1e-3, 10)]
    assert [(t, eta.tobytes()) for t, eta in first] == [(t, eta.tobytes()) for t, eta in want]
    first.clear()
    # another family object on another rule, with the same statistics at the nodes
    same = hermite_family([1, 2], rule=trapezoid_rule(DOM, 9))
    second = problem.solve(same)
    assert len(solves) == 1 and len(second) == 6 and second is not solves[0]
    for _, eta in second:
        with pytest.raises(ValueError):
            eta[0] = 1.0
    # x^2 is not He_2 = x^2 - 1: another reduction, so another solve
    other = problem.solve(ep_family(2))
    assert len(solves) == 2
    assert [eta[1] for _, eta in other] == pytest.approx([eta[1] + 1.0 for _, eta in second])


def test_domains_of_one_width_do_not_share_a_solve(solves):
    # no drift and a constant diffusion: the bands and the start's values are
    # the same bytes on every domain of width 2, and only the domain tells them apart
    model = polynomial_drift([0.0], diffusion=1.0)
    domains = [Domain(-1.0, 1.0), Domain(0.0, 2.0), Domain(0.0, 2.0, kind="bounded-reflecting")]
    for domain in domains:
        p0 = GridDensity(domain=domain, values=np.full(201, 0.5))
        snaps = ReferenceProblem(model, p0, 0.01, 1e-3, 1).solve()
        assert {snap.domain for snap in snaps} == {domain}
    assert len(solves) == 3


def test_a_solve_that_raises_stores_nothing(solves):
    # the spike of test_negative_density_stops_the_run_at_the_step_it_appears
    p0 = grid_density(DOM, 2001, gaussian_pdf_fn(0.0, 1e-3))
    for _ in range(2):
        with pytest.raises(SchemeInstability, match="at step 1 "):
            ReferenceProblem(ornstein_uhlenbeck(1.0, 1.0), p0, 1.0, 0.5, 1).solve()
    assert solves == [None, None]


def test_decay_experiments_share_a_solve_only_with_the_same_statistics(solves):
    # harmonics [1, 2] from two different starts solve once; [1, 3] reads another moment,
    # so it solves again and gets its own
    model = circle_diffusion(2.0)
    p0 = grid_density(model.domain, 401, lambda x: (1.0 + 0.4 * np.cos(x)
                                                    + 0.2 * np.cos(3 * x)) / (2.0 * np.pi))
    reports = []
    for harmonics, scale in (([1, 2], None), ([1, 2], 0.5), ([1, 3], None)):
        fam = cosine_circle_family(harmonics)
        start = None if scale is None else scale * stat_expectations(p0, fam)
        report = decay_experiment(model, fam, p0, t_end=0.1, sample_stride=10, start=start)
        moments = np.vstack([stat_expectations(s, fam)
                             for s in solve_fpk(model, p0, 0.1, 1e-3, sample_stride=10)])
        assert report.epsilon.tobytes() == (moments - report.ode_moments).tobytes()
        reports.append(report)
    assert len(solves) == 2
    for eta in (eta for solve in solves for _, eta in solve):
        with pytest.raises(ValueError):
            eta[0] = 1.0
    assert reports[0].epsilon[:, 1].tobytes() != reports[2].epsilon[:, 1].tobytes()


def test_fit_recovers_synthetic_rates():
    times = np.linspace(0.0, 2.0, 101)
    eps = np.column_stack([0.7 * np.exp(-1.3 * times), -0.4 * np.exp(-2.6 * times)])
    rates = fit_decay_rates(times, eps, window=(0.0, 2.0))
    assert abs(rates[0] - 1.3) <= 1e-9
    assert abs(rates[1] - 2.6) <= 1e-9


def test_fit_handles_underflowed_channels():
    times = np.linspace(0.0, 1.0, 51)
    eps = np.column_stack([np.full(51, 1e-12), 0.5 * np.exp(-times)])
    rates = fit_decay_rates(times, eps, window=(0.0, 1.0))
    assert rates[0] is None
    assert abs(rates[1] - 1.0) <= 1e-9


# -- where LAPACK comes from ------------------------------------------


def _python(code: str, *args) -> str:
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def test_reference_runs_leave_scipy_linalg_unloaded(tmp_path):
    # a metric projection, a decay experiment and a trajectory with an attached
    # reference load the one LAPACK extension and nothing else of scipy.linalg
    names = ["ou_metric_projection", "ou_hermite_decay", "gauss_mix_tangent"]
    code = (
        "import sys\n"
        "from fpkproj.runner import run_scenario\n"
        "from fpkproj.scenario import load_scenario\n"
        f"for name in {names!r}:\n"
        f"    scenario = load_scenario({str(SCENARIO_DIR)!r} + '/' + name + '.yaml')\n"
        "    assert name != 'gauss_mix_tangent' or scenario.numerics.attach_reference\n"
        f"    run_scenario(scenario, {str(tmp_path)!r} + '/' + name, quiet=True)\n"
        "print(sorted(name for name in sys.modules if name.startswith('scipy.linalg')))\n")
    assert _python(code) == "['scipy.linalg._flapack']"


def test_a_later_scipy_linalg_import_reuses_the_loaded_routines():
    code = (
        "import sys\n"
        "from fpkproj.reference import _tridiagonal_lapack\n"
        "routines = _tridiagonal_lapack()\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "from scipy.linalg import lapack\n"
        "assert lapack._flapack is sys.modules['scipy.linalg._flapack']\n"
        "print(routines == (lapack.dgttrf, lapack.dgttrs, lapack.dpttrf, lapack.dpttrs)\n"
        "      and all(a is b for a, b in zip(routines, _tridiagonal_lapack())))\n")
    assert _python(code) == "True"


def test_the_fallback_through_scipy_linalg_gives_the_same_snapshots(tmp_path):
    # OU steps q = d p with dpttrs; on [-12, 12] log d of the drift -60 x spans
    # more than MAX_LOG_SPAN, so that solve steps p with dgttrs
    stiff = polynomial_drift([0.0, -60.0])
    lower, _, upper = fpk_operator(stiff, default_domain(), 1201)
    assert _symmetrizer(lower, upper) is None
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from fpkproj import (default_domain, gaussian_pdf_fn, grid_density,\n"
        "                     ornstein_uhlenbeck, polynomial_drift, reference)\n"
        "if sys.argv[2] == 'fallback':\n"
        "    reference._flapack_alone = lambda: None\n"
        "p0 = grid_density(default_domain(), 1201, gaussian_pdf_fn(0.5, 0.3))\n"
        "snaps = [s.values for model in (ornstein_uhlenbeck(1.0, 2.0 ** 0.5),\n"
        "                                polynomial_drift([0.0, -60.0]))\n"
        "         for s in reference.solve_fpk(model, p0, 5e-3, 1e-4, 10)]\n"
        "np.save(sys.argv[1], np.stack(snaps))\n"
        "print('scipy.linalg' in sys.modules)\n")
    assert _python(code, str(tmp_path / "alone.npy"), "alone") == "False"
    assert _python(code, str(tmp_path / "fallback.npy"), "fallback") == "True"
    alone, fallback = np.load(tmp_path / "alone.npy"), np.load(tmp_path / "fallback.npy")
    assert alone.shape == (12, 1201)
    assert alone.tobytes() == fallback.tobytes()


def test_an_extension_that_is_missing_or_does_not_load_is_not_loaded_alone(monkeypatch):
    # scipy and the extension are loaded first; the patched lookups then make
    # _flapack_alone return before it loads anything, so the extension is
    # never initialised twice
    reference._tridiagonal_lapack()
    loaded = sys.modules["scipy.linalg._flapack"]
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        classmethod(lambda cls, name, path=None, target=None: None))
    assert reference._flapack_alone() is None
    monkeypatch.undo()

    def refuse(spec):
        raise ImportError(f"cannot load {spec.name}")

    monkeypatch.setattr(importlib.util, "module_from_spec", refuse)
    assert reference._flapack_alone() is None
    assert sys.modules["scipy.linalg._flapack"] is loaded
