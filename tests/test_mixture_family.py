"""Mixture families: constant metric, affine coordinates, simplex handling.

Oracles:
  * Gaussian product integral (see test_quadrature) gives every entry of
    the mixture metric for Gaussian components.
  * cosine components (1 + cos kx)/(2 pi) on [0, 2 pi] with the uniform
    component last give gamma = I/(4 pi) and beta = 0.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpkproj import (
    DifferentiableFn,
    check_derivatives,
    cosine_circle_family,
    default_domain,
    gaussian_mixture_family,
    gaussian_pdf_fn,
    simpson_rule,
    trapezoid_rule,
)
from fpkproj.errors import (
    DegenerateMixtureMetric,
    InadmissibleRecovery,
    InadmissibleWeights,
    UnderResolvedQuadrature,
    ValidationError,
)
from fpkproj.mixture import WEIGHT_MARGIN, MixtureFamily
from fpkproj.quadrature import QUADRATURE_TOL


MEANS = [-1.0, 0.2, 1.1]
VARS = [0.5, 0.8, 0.6]


def gaussian_product_integral(m1, v1, m2, v2):
    s = v1 + v2
    return np.exp(-((m1 - m2) ** 2) / (2.0 * s)) / np.sqrt(2.0 * np.pi * s)


def overlap_matrix():
    k = len(MEANS)
    out = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            out[i, j] = gaussian_product_integral(MEANS[i], VARS[i], MEANS[j], VARS[j])
    return out


def test_gaussian_metric_matches_product_integrals():
    fam = gaussian_mixture_family(MEANS, VARS)
    gram = overlap_matrix()
    k = len(MEANS) - 1
    gamma_oracle = np.empty((k, k))
    beta_oracle = np.empty(k)
    for i in range(k):
        beta_oracle[i] = gram[i, k] - gram[k, k]
        for j in range(k):
            gamma_oracle[i, j] = gram[i, j] - gram[i, k] - gram[k, j] + gram[k, k]
    assert np.max(np.abs(fam.gamma - gamma_oracle)) <= 1e-10
    assert np.max(np.abs(fam.beta - beta_oracle)) <= 1e-10


def test_circle_metric_is_diagonal():
    fam = cosine_circle_family([1, 2])
    assert np.max(np.abs(fam.gamma - np.eye(2) / (4.0 * np.pi))) <= 1e-12
    assert np.max(np.abs(fam.beta)) <= 1e-12


@pytest.mark.parametrize("fam", [gaussian_mixture_family(MEANS, VARS),
                                 cosine_circle_family([1, 2])], ids=["gauss-mix", "circle"])
def test_stats_are_the_component_differences(fam):
    # a + (-1.0) * b is a - b exactly in IEEE arithmetic, so the statistics
    # reproduce q_i - q_{n+1} bitwise, at the nodes and on any other grid
    x = fam.rule.nodes
    q0 = fam.component_values()
    q1 = np.vstack([c.d1(x) for c in fam.components])
    q2 = np.vstack([c.d2(x) for c in fam.components])
    assert len(fam.stats) == fam.n
    assert np.array_equal(fam.stat_values(), q0[:-1] - q0[-1])
    assert np.array_equal(np.vstack([c(x) for c in fam.stats]), fam.stat_values())
    d1, d2 = fam.stat_derivative_values()
    assert np.array_equal(d1, q1[:-1] - q1[-1])
    assert np.array_equal(d2, q2[:-1] - q2[-1])
    # second differences at step 1e-5 round off by up to 4 eps max|q| / 1e-10,
    # about 5e-6 for these components; a wrong derivative deviates by O(1)
    for c in fam.stats:
        assert check_derivatives(c, fam.domain, rng=np.random.default_rng(7)) <= 1e-5


def test_affine_coordinate_roundtrip():
    fam = gaussian_mixture_family(MEANS, VARS)
    rng = np.random.default_rng(21)
    for _ in range(10):
        theta = rng.uniform(0.05, 0.4, size=2)
        m = fam.expectation_params(theta)
        assert np.max(np.abs(m - (fam.gamma @ theta + fam.beta))) <= 1e-14
        back = fam.expectations_to_weights(m)
        assert np.max(np.abs(back - theta)) <= 1e-11


def test_expectation_map_is_affine():
    fam = cosine_circle_family([1, 2, 3])
    rng = np.random.default_rng(22)
    t1 = rng.uniform(0.02, 0.25, size=3)
    t2 = rng.uniform(0.02, 0.25, size=3)
    lhs = fam.expectation_params(0.5 * (t1 + t2))
    rhs = 0.5 * (fam.expectation_params(t1) + fam.expectation_params(t2))
    assert np.max(np.abs(lhs - rhs)) <= 1e-14


def test_density_values_have_unit_mass():
    fam = gaussian_mixture_family(MEANS, VARS)
    theta = np.array([0.3, 0.45])
    mass = float(fam.rule.weights @ fam.density_values(theta))
    assert abs(mass - 1.0) <= 1e-10


def test_theta_hat_appends_remainder():
    fam = gaussian_mixture_family(MEANS, VARS)
    hat = fam.theta_hat(np.array([0.25, 0.35]))
    assert np.allclose(hat, [0.25, 0.35, 0.4], atol=1e-14)


def test_admissibility_and_clamping():
    fam = gaussian_mixture_family(MEANS, VARS)
    assert fam.is_admissible(np.array([0.3, 0.3]))
    assert not fam.is_admissible(np.array([-0.05, 0.3]))
    assert not fam.is_admissible(np.array([0.7, 0.5]))
    with pytest.raises(InadmissibleWeights):
        fam.require_admissible(np.array([-0.05, 0.3]))
    clamped, changed = fam.clamp_weights(np.array([-0.05, 0.3]))
    assert changed
    assert fam.is_admissible(clamped)
    same, changed = fam.clamp_weights(np.array([0.3, 0.3]))
    assert not changed
    assert np.array_equal(same, np.array([0.3, 0.3]))
    # over-full vectors are rescaled; rounding must not leave the sum above
    # the margin-shrunk bound
    rng = np.random.default_rng(23)
    for over_full in rng.uniform(0.5, 1.5, size=(200, 2)):
        clamped, changed = fam.clamp_weights(over_full)
        assert changed
        assert fam.is_admissible(clamped), over_full
    # non-finite weights cannot be repaired; the check comes before any
    # arithmetic, so inf raises no RuntimeWarning (an error under pytest)
    for bad in ([np.nan, 0.1], [np.inf, 0.1], [0.2, -np.inf]):
        with pytest.raises(InadmissibleWeights):
            fam.clamp_weights(np.array(bad))


@pytest.mark.filterwarnings("error")
def test_finite_weights_whose_sum_overflows_are_clamped_without_a_warning():
    # the sum overflows to inf: the clamp divides by the largest weight before it
    # sums, so the weights keep their ratio instead of all becoming WEIGHT_MARGIN / n
    fam = gaussian_mixture_family(MEANS, VARS)
    clamped, changed = fam.clamp_weights(np.array([1e308, 1e308]))
    assert changed and fam.is_admissible(clamped)
    assert clamped.tolist() == [0.5 - WEIGHT_MARGIN] * 2
    fam3 = cosine_circle_family([1, 2, 3])
    clamped, changed = fam3.clamp_weights(np.array([1e308, 1.5e308, -1e308]))
    assert changed and fam3.is_admissible(clamped)
    np.testing.assert_allclose(clamped, (1.0 - 2.0 * WEIGHT_MARGIN) * np.array([0.4, 0.6, 0.0]),
                               rtol=1e-15, atol=0.0)
    rows = np.array([[1e308, 1e308], [1.7e308, 1.7e308], [0.3, 0.3]])
    assert fam.needs_clamp(rows).tolist() == [True, True, False]
    assert not fam.is_admissible(rows[0])
    with pytest.raises(InadmissibleWeights, match="open-simplex"):
        fam.require_admissible(rows[0])


CLAMP_FAMILIES = (gaussian_mixture_family(MEANS, VARS), cosine_circle_family([1, 2, 3]))
EDGE_WEIGHTS = (0.0, -0.0, WEIGHT_MARGIN, -WEIGHT_MARGIN, 1.0 - WEIGHT_MARGIN, 1.0,
                np.nan, np.inf, -np.inf)


@st.composite
def weight_blocks(draw):
    """A family and a block of weight rows: edge values, small and ordinary floats, and
    rows whose last entry puts their sum a few ulps from WEIGHT_MARGIN or 1 - WEIGHT_MARGIN."""
    fam = draw(st.sampled_from(CLAMP_FAMILIES))
    value = st.one_of(st.sampled_from(EDGE_WEIGHTS), st.floats(-1.5, 1.5),
                      st.floats(-3.0 * WEIGHT_MARGIN, 3.0 * WEIGHT_MARGIN))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        row = [draw(value) for _ in range(fam.n)]
        target = draw(st.sampled_from((None, WEIGHT_MARGIN, 1.0 - WEIGHT_MARGIN)))
        if target is not None:
            last = target - sum(row[:-1])
            for _ in range(draw(st.integers(0, 3))):
                last = math.nextafter(last, draw(st.sampled_from((-math.inf, math.inf))))
            row[-1] = last
        rows.append(row)
    return fam, np.array(rows)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=weight_blocks())
def test_needs_clamp_flags_the_rows_that_clamp_weights_moves(case):
    # _step_affine accepts a block up to the first row needs_clamp flags, and
    # constrains that row with clamp_weights: the two must agree row by row
    fam, rows = case
    for row, flag in zip(rows, fam.needs_clamp(rows), strict=True):
        if np.all(np.isfinite(row)):
            assert flag == fam.clamp_weights(row)[1], row
        else:
            assert flag, row
            with pytest.raises(InadmissibleWeights):
                fam.clamp_weights(row)


def test_inadmissible_expectation_target_raises_with_value():
    fam = gaussian_mixture_family(MEANS, VARS)
    # the expectation point of the pure first component: theta_1 = 1 puts
    # the recovered weights on the simplex boundary
    m = fam.gamma @ np.array([1.0, 0.0]) + fam.beta
    with pytest.raises(InadmissibleRecovery) as info:
        fam.expectations_to_weights(m)
    assert info.value.value is not None


def test_duplicate_components_degenerate_metric():
    rule = simpson_rule(default_domain(1.0))
    comps = [gaussian_pdf_fn(0.0, 1.0), gaussian_pdf_fn(0.0, 1.0), gaussian_pdf_fn(1.0, 1.0)]
    with pytest.raises(DegenerateMixtureMetric):
        MixtureFamily(comps, rule)


def test_component_mass_is_validated():
    rule = simpson_rule(default_domain(1.0))
    comps = [1.1 * gaussian_pdf_fn(0.0, 1.0), gaussian_pdf_fn(1.0, 1.0)]
    with pytest.raises(ValidationError):
        MixtureFamily(comps, rule)
    # a mass that misses 1 on a rule too coarse for the component is the rule's fault
    with pytest.raises(UnderResolvedQuadrature, match="257 quadrature nodes"):
        gaussian_mixture_family([-1.0, 0.0, 1.0], [0.003, 0.5, 0.5])
    fine = gaussian_mixture_family([-1.0, 0.0, 1.0], [0.003, 0.5, 0.5],
                                   trapezoid_rule(default_domain(), 11))
    assert fine.quadrature_error() <= QUADRATURE_TOL


def test_at_least_two_components_required():
    rule = simpson_rule(default_domain(1.0))
    with pytest.raises(ValidationError):
        MixtureFamily([gaussian_pdf_fn(0.0, 1.0)], rule)


def test_cosine_family_requires_positive_harmonics():
    with pytest.raises(ValueError):
        cosine_circle_family([0, 1])


@pytest.mark.parametrize("fam, theta", [
    (gaussian_mixture_family(MEANS, VARS), [0.3, 0.45]),
    (cosine_circle_family([1, 2]), [0.2, 0.1]),
], ids=["gaussian", "cosine"])
def test_density_at_is_the_density_function_bit_for_bit_from_one_table(fam, theta):
    calls = []
    # components that count their evaluations; their values are the originals'
    fam.components = tuple(DifferentiableFn(lambda x, c=c: calls.append(1) or c(x))
                           for c in fam.components)
    x = np.linspace(fam.domain.lower, fam.domain.upper, 801)
    x.setflags(write=False)
    want = fam.density(theta)(x)
    calls.clear()
    for _ in range(3):
        assert fam.density_at(x, theta).tobytes() == want.tobytes()
    assert len(calls) == len(fam.components)  # the table is built once per grid
    with pytest.raises(InadmissibleWeights):
        fam.density_at(x, [0.7, 0.7])
