"""Exponential families: log-partition, moments, Fisher metric, inversion.

Closed forms used as oracles (theta2 < 0, m = -t1/(2 t2), v = -1/(2 t2)):
  * psi(t1, t2) = -t1^2/(4 t2) + (1/2) log(pi / (-t2))
  * eta = (m, m^2 + v)
  * Fisher block: g11 = v, g12 = 2 m v, g22 = 4 m^2 v + 2 v^2
  * Gaussian moments: E x^3 = m^3 + 3 m v, E x^4 = m^4 + 6 m^2 v + 3 v^2,
    E x^5 = m^5 + 10 m^3 v + 15 m v^2, E x^6 = m^6 + 15 m^4 v + 45 m^2 v^2 + 15 v^3
"""

import itertools
import math

import numpy as np
import pytest

from fpkproj import (
    canonical_from_moments,
    custom_poly_family,
    default_domain,
    ep_family,
    hermite_family,
    monomial_fn,
    simpson_rule,
)
from fpkproj.errors import (
    BoundaryDegeneracy,
    DegenerateFisher,
    DependentStatistics,
    IllConditionedMoments,
    InadmissibleParameter,
    InadmissibleRecovery,
    NonIntegrable,
)
from fpkproj.expfamily import ExpFamily, _Cholesky
from fpkproj.quadrature import Domain

from finite_difference import check_derivatives


def psi_gauss(t1, t2):
    return -t1 * t1 / (4.0 * t2) + 0.5 * np.log(np.pi / (-t2))


def eta_gauss(t1, t2):
    m = -t1 / (2.0 * t2)
    v = -1.0 / (2.0 * t2)
    return np.array([m, m * m + v])


def fisher_gauss(t1, t2):
    m = -t1 / (2.0 * t2)
    v = -1.0 / (2.0 * t2)
    return np.array([[v, 2.0 * m * v],
                     [2.0 * m * v, 4.0 * m * m * v + 2.0 * v * v]])


def gauss_moments(m, v, upto):
    # raw moments via the recursion E x^k = m E x^{k-1} + (k-1) v E x^{k-2}
    mom = [1.0, m]
    for k in range(2, upto + 1):
        mom.append(m * mom[-1] + (k - 1) * v * mom[-2])
    return np.array(mom[1:upto + 1])


def draw_ep2(rng):
    return np.array([rng.uniform(-0.7, 0.7), rng.uniform(-1.5, -0.35)])


def draw_ep4(rng):
    return np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.6, -0.2),
                     rng.uniform(-0.03, 0.03), rng.uniform(-0.3, -0.05)])


def test_log_partition_matches_gaussian_closed_form():
    fam = ep_family(2)
    rng = np.random.default_rng(11)
    for _ in range(12):
        t1, t2 = draw_ep2(rng)
        assert abs(fam.log_partition(np.array([t1, t2])) - psi_gauss(t1, t2)) <= 1e-10


def test_expectation_params_match_gaussian_moments():
    fam = ep_family(2)
    rng = np.random.default_rng(12)
    for _ in range(12):
        theta = draw_ep2(rng)
        got = fam.expectation_params(theta)
        assert np.max(np.abs(got - eta_gauss(*theta))) <= 1e-10


def test_extended_moments_for_polynomial_family():
    fam = ep_family(2)
    theta = np.array([0.6, -0.8])
    m = -theta[0] / (2.0 * theta[1])
    v = -1.0 / (2.0 * theta[1])
    got = fam.expectation_params(theta, count=6)
    assert np.max(np.abs(got - gauss_moments(m, v, 6))) <= 1e-9


def test_fisher_matrix_closed_form_and_moment_covariance():
    fam = ep_family(2)
    rng = np.random.default_rng(13)
    for _ in range(8):
        theta = draw_ep2(rng)
        g = fam.fisher_matrix(theta)
        assert np.max(np.abs(g - fisher_gauss(*theta))) <= 1e-9
        # for monomial statistics, g_ij = eta_{i+j} - eta_i eta_j
        mom = fam.expectation_params(theta, count=4)
        cov = np.array([[mom[1] - mom[0] * mom[0], mom[2] - mom[0] * mom[1]],
                        [mom[2] - mom[1] * mom[0], mom[3] - mom[1] * mom[1]]])
        assert np.max(np.abs(g - cov)) <= 1e-7


def test_fisher_is_moment_covariance_fourth_order_family():
    fam = ep_family(4)
    rng = np.random.default_rng(14)
    for _ in range(5):
        theta = draw_ep4(rng)
        g = fam.fisher_matrix(theta)
        mom = fam.expectation_params(theta, count=8)
        full = np.concatenate(([1.0], mom))
        cov = np.empty((4, 4))
        for i in range(1, 5):
            for j in range(1, 5):
                cov[i - 1, j - 1] = full[i + j] - full[i] * full[j]
        assert np.max(np.abs(g - cov)) <= 1e-7


def test_density_has_unit_mass():
    fam = ep_family(4)
    theta = np.array([0.1, -0.4, 0.01, -0.1])
    mass = float(fam.rule.weights @ fam.density_values(theta))
    assert abs(mass - 1.0) <= 1e-12


def test_moment_recursion_matches_quadrature():
    rng = np.random.default_rng(15)
    for fam, draw in ((ep_family(2), draw_ep2), (ep_family(4), draw_ep4)):
        for _ in range(6):
            theta = draw(rng)
            upto = 2 * fam.n
            rec = fam.moments_by_recursion(theta, upto)
            quad = fam.expectation_params(theta, count=upto)
            assert np.max(np.abs(rec - quad)) <= 1e-9


def test_recursion_requires_nondegenerate_leading_coefficient():
    # admissible but so flat that the dropped boundary terms dominate
    fam = ep_family(2)
    with pytest.raises(BoundaryDegeneracy):
        fam.moments_by_recursion(np.array([0.1, -1e-9]), 4)


def test_algebraic_inversion_standard_normal():
    theta = canonical_from_moments(np.array([0.0, 1.0, 0.0, 3.0]))
    assert np.max(np.abs(theta - np.array([0.0, -0.5]))) <= 1e-10


def test_algebraic_roundtrip_from_random_parameters():
    rng = np.random.default_rng(16)
    fam = ep_family(2)
    for _ in range(10):
        theta = draw_ep2(rng)
        mom = fam.expectation_params(theta, count=4)
        back = canonical_from_moments(mom)
        assert np.max(np.abs(back - theta)) <= 1e-8


def test_algebraic_inversion_flags_inconsistent_moments():
    # the Hankel block is positive definite but the solve lands on a
    # nonnegative leading coefficient, which no admissible member matches
    with pytest.raises(InadmissibleRecovery) as info:
        canonical_from_moments(np.array([1.5, 1.6, 4.0, 10.5]))
    assert info.value.value is not None


def test_algebraic_inversion_flags_singular_hankel():
    # moments of a point mass give a rank-one Hankel block
    with pytest.raises(IllConditionedMoments):
        canonical_from_moments(np.array([1.0, 1.0, 1.0, 1.0]))


def test_newton_inversion_roundtrip():
    rng = np.random.default_rng(17)
    for fam, draw in ((ep_family(2), draw_ep2), (ep_family(4), draw_ep4)):
        for _ in range(6):
            theta = draw(rng)
            eta = fam.expectation_params(theta)
            back = fam.expectation_to_canonical(eta)
            assert np.max(np.abs(back - theta)) <= 1e-9


def test_newton_inversion_accepts_warm_start():
    fam = ep_family(2)
    theta = np.array([0.4, -0.7])
    eta = fam.expectation_params(theta)
    back = fam.expectation_to_canonical(eta, initial=theta + 0.05)
    assert np.max(np.abs(back - theta)) <= 1e-10


@pytest.mark.parametrize("fam", [ep_family(2), hermite_family([1, 2])],
                         ids=["EP(2)", "hermite(1,2)"])
def test_gaussian_inversions_ignore_the_guess_and_take_no_newton_step(fam, monkeypatch):
    # on the Gaussians the closed-form start is the answer, so a far
    # admissible guess is not used and no Fisher matrix is factored
    theta = np.array([0.4, -0.7])
    eta = fam.expectation_params(theta)
    builds = []
    init = _Cholesky.__init__
    monkeypatch.setattr(_Cholesky, "__init__", lambda self, g: builds.append(1) or init(self, g))
    assert fam.is_admissible(3.0 * theta)
    back = fam.expectation_to_canonical(eta, initial=3.0 * theta)
    assert not builds
    assert np.max(np.abs(back - theta)) <= 1e-10


def test_other_families_start_newton_at_an_admissible_guess(monkeypatch):
    fam = ep_family(4)
    theta = np.array([0.1, 0.3, -0.05, -0.2])
    eta = fam.expectation_params(theta)
    initial = np.array([0.05, 0.25, -0.02, -0.25])
    starts = []
    moments = fam._moments
    monkeypatch.setattr(fam, "_moments", lambda t: starts.append(np.array(t)) or moments(t))
    back = fam.expectation_to_canonical(eta, initial=initial)
    assert np.array_equal(starts[0], initial)
    assert np.max(np.abs(back - theta)) <= 1e-9


def test_newton_factors_the_fisher_matrix_of_its_pass_once_per_step(monkeypatch):
    # each step solves with the factor of the moment pass at its theta; the
    # public fisher_matrix, which would factor g a second time, is not called
    fam = ep_family(4)
    theta = np.array([0.1, 0.3, -0.05, -0.2])
    eta = fam.expectation_params(theta)
    calls = {"factor": 0, "solve": 0, "fisher_matrix": 0}

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    monkeypatch.setattr(_Cholesky, "__init__", counted("factor", _Cholesky.__init__))
    monkeypatch.setattr(_Cholesky, "solve", counted("solve", _Cholesky.solve))
    monkeypatch.setattr(fam, "fisher_matrix", counted("fisher_matrix", fam.fisher_matrix))
    back = fam.expectation_to_canonical(eta, initial=theta + [0.05, -0.05, 0.02, 0.01])
    assert calls == {"factor": 4, "solve": 4, "fisher_matrix": 0}
    assert np.max(np.abs(back - theta)) <= 1e-12


def test_double_length_moments_dispatch_to_algebraic_path():
    fam = ep_family(2)
    theta = np.array([-0.2, -0.6])
    mom = fam.expectation_params(theta, count=4)
    assert np.max(np.abs(fam.expectation_to_canonical(mom) - theta)) <= 1e-8


def test_admissibility_rules():
    fam = ep_family(2)
    assert fam.is_admissible(np.array([0.3, -0.5]))
    assert not fam.is_admissible(np.array([0.3, 0.5]))
    assert not fam.is_admissible(np.array([0.3, -1e-13]))
    assert not fam.is_admissible(np.array([np.nan, -0.5]))
    with pytest.raises(InadmissibleParameter):
        fam.require_admissible(np.array([0.3, 0.5]))
    with pytest.raises(InadmissibleParameter):
        fam.require_admissible(np.array([0.3]))


def test_collapsed_member_has_degenerate_fisher():
    # theta_2 = -1e8 concentrates the member on a single quadrature node,
    # so the covariance of the statistics vanishes under the rule
    with pytest.raises(DegenerateFisher):
        ep_family(2).fisher_matrix([0.0, -1e8])


def _loop_cholesky_solve(g, b):
    """The textbook loops that `_Cholesky` unrolls, in the same order of operations:
    (the rows of L, x with L L' x = b)."""
    n = len(g)
    lower = []
    for i in range(n):
        row = []
        for j in range(i):
            s = g[i][j]
            for k in range(j):
                s -= row[k] * lower[j][k]
            row.append(s / lower[j][j])
        s = g[i][i]
        for k in range(i):
            s -= row[k] * row[k]
        if not s > 0.0:
            raise DegenerateFisher("Fisher matrix is not positive definite")
        row.append(math.sqrt(s))
        lower.append(row)
    x = list(b)
    for i in range(n):
        for k in range(i):
            x[i] -= lower[i][k] * x[k]
        x[i] /= lower[i][i]
    for i in reversed(range(n)):
        for k in range(i + 1, n):
            x[i] -= lower[k][i] * x[k]
        x[i] /= lower[i][i]
    return lower, x


def _spd(rng, n, cond):
    """A symmetric positive definite n x n matrix with condition number about cond."""
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    g = (q * np.geomspace(1.0, 1.0 / cond, n)) @ q.T
    return 0.5 * (g + g.T)


FISHER_MEMBERS = [
    (ep_family(2), [0.3, -0.6]),
    (ep_family(4), [0.1, 0.3, -0.05, -0.2]),
    (ep_family(6), [0.1, 0.2, 0.0, -0.1, 0.0, -0.01]),
    (hermite_family([1, 2]), [-0.2, -0.9]),
    (hermite_family([2, 4]), [0.2, -0.1]),
]


@pytest.mark.parametrize("fam, theta", FISHER_MEMBERS,
                         ids=[fam.name for fam, _ in FISHER_MEMBERS])
def test_cholesky_solve_matches_numpy_on_fisher_matrices(fam, theta):
    g = fam.fisher_matrix(theta)
    for b in np.random.default_rng(3).normal(size=(4, fam.n)):
        want = np.linalg.solve(g, b)
        got = _Cholesky(g.ravel().tolist()).solve(b)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", range(1, 9))
def test_cholesky_solve_matches_numpy_and_the_loops_on_spd_matrices(n):
    # both solvers are backward stable, so they agree to round-off in the
    # residual at any condition number; the forward difference grows with it
    rng = np.random.default_rng(100 + n)
    for cond in (1.0, 1e3, 1e6, 1e10):
        g = _spd(rng, n, cond)
        b = rng.normal(size=n)
        factor = _Cholesky(g.ravel().tolist())
        got, want = factor.solve(b), np.linalg.solve(g, b)
        scale = np.max(np.abs(g)) * np.max(np.abs(want))
        assert np.max(np.abs(g @ (got - want))) <= 1e-13 * scale
        assert np.max(np.abs(got - want)) <= 1e-13 * cond * np.max(np.abs(want))
        # the unrolled code does the loops' arithmetic in the loops' order
        lower, x = _loop_cholesky_solve(g.tolist(), b.tolist())
        assert factor.lower == [v for row in lower for v in row]
        assert got.tolist() == x


@pytest.mark.parametrize("g", [
    [[1.0, 1.0], [1.0, 1.0]],              # singular
    [[1.0, 2.0], [2.0, 1.0]],              # indefinite
    [[1.0, np.nan], [np.nan, 1.0]],
    [[np.nan]],
    [[0.0]],
], ids=["singular", "indefinite", "nan", "nan-1x1", "zero-1x1"])
def test_cholesky_refuses_what_is_not_positive_definite(g):
    with pytest.raises(DegenerateFisher, match="^Fisher matrix is not positive definite$"):
        _Cholesky([v for row in g for v in row])


def test_hermite_family_admissibility_and_metric():
    fam = hermite_family([1, 2])
    assert fam.is_admissible(np.array([0.3, -0.6]))
    assert not fam.is_admissible(np.array([0.3, 0.1]))
    # at theta = (0, -1/2) the member is the standard normal and the
    # centered Hermite statistics are orthogonal: g = diag(1, 2)
    g = fam.fisher_matrix(np.array([0.0, -0.5]))
    assert np.max(np.abs(g - np.diag([1.0, 2.0]))) <= 1e-10
    eta = fam.expectation_params(np.array([0.0, -0.5]))
    assert np.max(np.abs(eta)) <= 1e-12


def test_hermite_family_rejects_odd_leading_index():
    with pytest.raises(ValueError):
        hermite_family([1, 3])


def test_custom_poly_family_rejects_odd_leading_exponent():
    with pytest.raises(ValueError):
        custom_poly_family([1, 3])


def test_default_initial_theta_is_admissible():
    for fam in (ep_family(2), ep_family(4), hermite_family([1, 2]),
                custom_poly_family([2, 4])):
        theta = fam.default_initial_theta()
        assert fam.is_admissible(theta)


def test_dependent_statistics_rejected():
    rule = simpson_rule(default_domain(1.0), 10)
    with pytest.raises(DependentStatistics):
        ExpFamily([monomial_fn(1), monomial_fn(1)], rule, kind="custom-poly")


def test_ep_family_requires_even_order():
    with pytest.raises(ValueError):
        ep_family(3)


# -- the moment memo -------------------------------------------------------

MEMO_THETAS = (np.array([0.3, -0.6]), np.array([-0.2, -0.9]))
MEMO_KERNELS = ("expectation_params", "fisher_matrix", "density_values")


def test_memoized_results_are_bitwise_fresh_and_private():
    # each (kernel, theta) result as a family that has evaluated nothing
    # else computes it
    calls = [(kernel, i) for kernel in MEMO_KERNELS for i in range(len(MEMO_THETAS))]
    fresh = {(kernel, i): getattr(ep_family(2), kernel)(MEMO_THETAS[i].copy())
             for kernel, i in calls}
    fam = ep_family(2)
    for order in itertools.permutations(calls):
        # every call twice in a row, so each order also exercises memo hits
        for kernel, i in (call for call in order for _ in range(2)):
            out = getattr(fam, kernel)(MEMO_THETAS[i].copy())
            assert out.tobytes() == fresh[kernel, i].tobytes(), (order, kernel, i)
            out[...] = np.nan
    psi = fam.log_partition(MEMO_THETAS[0])
    assert psi == ep_family(2).log_partition(MEMO_THETAS[0])


def test_mutating_the_argument_does_not_reach_the_memo():
    fam = ep_family(2)
    theta = MEMO_THETAS[0].copy()
    fam.expectation_params(theta)
    theta[:] = MEMO_THETAS[1]
    assert fam.expectation_params(theta).tobytes() == \
        ep_family(2).expectation_params(MEMO_THETAS[1]).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("theta, error", [
    (np.array([0.0, -1e8]), DegenerateFisher),     # collapsed on one node
    (np.array([1e308, -1.0]), NonIntegrable),     # theta . c overflows
    (np.array([0.0, 0.5]), InadmissibleParameter),
])
def test_errors_are_raised_on_every_call(theta, error):
    fam = ep_family(2)
    good = MEMO_THETAS[0]
    want = ep_family(2).fisher_matrix(good)
    for _ in range(3):
        for _ in range(2):
            with pytest.raises(error):
                fam.fisher_matrix(theta)
        if error is DegenerateFisher:
            # the moment pass itself succeeds and stays memoized
            fam.density_values(theta)
            with pytest.raises(error):
                fam.fisher_matrix(theta)
        else:
            for kernel in ("expectation_params", "density_values", "log_partition"):
                with pytest.raises(error):
                    getattr(fam, kernel)(theta)
        assert fam.fisher_matrix(good).tobytes() == want.tobytes()


@pytest.mark.filterwarnings("error")
def test_a_shift_beyond_the_float_range_leaves_its_nodes_at_zero():
    # theta . c is finite at every node, about -9.1e307 at x = -12 and 9.1e307 at
    # x = 12, but theta . c minus its max overflows at the low nodes (a RuntimeWarning,
    # a test error here): they get e = 0, and the member sits on the node x = 12
    fam = ep_family(2)
    theta = np.array([7.6e306, -1.0])
    assert fam.expectation_params(theta).tolist() == [12.0, 144.0]
    assert fam.log_partition(theta) == pytest.approx(9.12e307)
    with pytest.raises(DegenerateFisher):
        fam.fisher_matrix(theta)


def test_moment_integrals_that_overflow_raise_on_every_call():
    # on [-1e80, 1e80] the weighted products w x^4 overflow, so every moment
    # pass would be NaN; the family is refused at construction, where its
    # Gram matrix overflows, and without a RuntimeWarning (a test error here)
    rule = simpson_rule(Domain(-1e80, 1e80))
    for _ in range(2):
        with pytest.raises(NonIntegrable, match="moment integrals overflow"):
            ep_family(2, rule)


@pytest.mark.parametrize("fam, theta", [
    (ep_family(2), [0.4, -0.7]),
    (hermite_family([1, 2]), [0.4, -0.7]),
    (ep_family(4), [0.1, 0.3, -0.05, -0.2]),
], ids=["EP(2)", "hermite(1,2)", "EP(4)"])
def test_density_function_has_consistent_derivatives(fam, theta):
    # the bound is the rounding of second differences at step 1e-5
    p = fam.density(theta)
    assert check_derivatives(p, fam.domain) <= 1e-5
    values = fam.density_values(theta)
    assert np.max(np.abs(p(fam.rule.nodes) - values)) <= 1e-13 * values.max()


@pytest.mark.parametrize("fam", [ep_family(2), hermite_family([1, 2])],
                         ids=["EP(2)", "hermite(1,2)"])
def test_gaussian_start_in_floats_is_the_numpy_matvec_bit_for_bit(fam):
    a, b = fam.gaussian_fit
    rng = np.random.default_rng(11)
    for _ in range(200):
        theta = np.array([rng.normal(), -rng.uniform(0.05, 3.0)])
        for eta in (fam.expectation_params(theta), fam.expectation_params(theta) - [0.0, 50.0]):
            mean, second = a @ eta + b
            var = second - mean * mean
            got = fam.gaussian_start(eta)
            if not var > 0:
                assert got is None
                continue
            want = a.T @ np.array([mean / var, -0.5 / var])
            assert got.tobytes() == want.tobytes()


def test_newton_keeps_a_nan_moment_from_passing_its_residual_check():
    # the residual at the default start is exactly 0 except for the NaN entry;
    # a float max that dropped the NaN would return the start as the answer
    fam = ep_family(4)
    eta = fam.expectation_params(fam.default_initial_theta())
    eta[1] = np.nan
    with pytest.raises(IllConditionedMoments, match="^moments must be finite$"):
        fam.expectation_to_canonical(eta)


def test_newton_refuses_an_infinite_moment():
    # an infinite moment made the residual tolerance NEWTON_TOL (1 + max |eta|)
    # infinite, so the first check passed and the seed came back as the answer
    fam = ep_family(4)
    with pytest.raises(IllConditionedMoments, match="^moments must be finite$"):
        fam.expectation_to_canonical([0.0, np.inf, 0.0, 3.0])


@pytest.mark.parametrize("fam, theta", [
    (ep_family(2), [0.4, -0.7]),
    (hermite_family([1, 2]), [0.4, -0.7]),
    (ep_family(4), [0.1, 0.3, -0.05, -0.2]),
], ids=["EP(2)", "hermite(1,2)", "EP(4)"])
def test_density_at_is_the_density_function_bit_for_bit(fam, theta):
    x = np.linspace(-12.0, 12.0, 1201)
    x.setflags(write=False)
    psi = fam.log_partition(theta)
    assert fam.density_at(x, theta).tobytes() == fam.density(theta)(x).tobytes()
    assert fam.density_at(x, theta, psi).tobytes() == fam.density(theta)(x).tobytes()
    assert fam.values_at(x) is fam.values_at(x)  # one table per grid
    with pytest.raises(InadmissibleParameter):
        fam.density_at(x, [0.4, 0.7] if fam.n == 2 else [0.1, 0.3, -0.05, 0.2], psi)
