"""Quadrature rules against closed-form integrals.

Oracles used here:
  * int N(x; m, v) dx = 1
  * int N(x; m1, v1) N(x; m2, v2) dx
      = exp(-(m1 - m2)^2 / (2 (v1 + v2))) / sqrt(2 pi (v1 + v2))
  * composite Simpson is exact for cubics on any uniform grid
  * for the families' analytic integrands the trapezoid rule on 257 nodes
    agrees with Simpson on 2**15 + 1 nodes to round-off

It also checks the embedded error estimate against the true error, and the
admissibility rule that the families share through their `Statistics` base.
"""

import numpy as np
import pytest

from fpkproj import (
    Domain,
    ExpFamily,
    QuadratureRule,
    default_domain,
    ep_family,
    gaussian_mixture_family,
    gaussian_pdf_fn,
    hermite_family,
    monomial_fn,
    simpson_rule,
    trapezoid_rule,
)
from fpkproj.errors import (
    InadmissibleParameter,
    InadmissibleWeights,
    ValidationError,
)
from fpkproj.expfamily import ADMISSIBILITY_MARGIN as TAIL
from fpkproj.mixture import WEIGHT_MARGIN as EDGE
from fpkproj.quadrature import MIN_LEVEL, QUADRATURE_TOL, embedded_gap


def gaussian_product_integral(m1, v1, m2, v2):
    s = v1 + v2
    return np.exp(-((m1 - m2) ** 2) / (2.0 * s)) / np.sqrt(2.0 * np.pi * s)


def test_domain_orientation_is_validated():
    with pytest.raises(ValidationError):
        Domain(2.0, -2.0, "unbounded-truncated")


def test_domain_kind_is_validated():
    with pytest.raises(ValidationError):
        Domain(-2.0, 2.0, "periodic-ish")


def test_default_domain_scales_with_sd():
    dom = default_domain(2.5)
    assert dom.lower == -30.0
    assert dom.upper == 30.0


def test_simpson_rule_shape_and_weight_sum():
    dom = Domain(-3.0, 5.0, "unbounded-truncated")
    for level in (4, 8, 12):
        rule = simpson_rule(dom, level)
        assert rule.nodes.size == 2**level + 1
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        assert abs(rule.weights.sum() - 8.0) <= 1e-12 * 8.0


def test_trapezoid_rule_embeds_the_rule_one_level_down():
    dom = Domain(-3.0, 5.0, "unbounded-truncated")
    for level in (4, 8, 12):
        rule = trapezoid_rule(dom, level)
        coarse = trapezoid_rule(dom, level - 1)
        assert rule.nodes.size == 2**level + 1
        assert abs(rule.weights.sum() - 8.0) <= 1e-12 * 8.0
        assert np.max(np.abs(rule.nodes[::2] - coarse.nodes)) <= 1e-14
        assert np.max(np.abs(rule.embedded_weights() - coarse.weights)) <= 1e-15


def test_estimate_is_never_within_tolerance_without_an_embedded_rule():
    dom = default_domain()
    nodes = np.linspace(dom.lower, dom.upper, 256)
    weights = np.full(256, dom.width / 255)
    weights[[0, -1]] *= 0.5
    fam = ep_family(2, QuadratureRule(nodes=nodes, weights=weights, domain=dom))
    assert not fam.quadrature_error([0.5, -0.5]) <= QUADRATURE_TOL
    mix = gaussian_mixture_family([-1.0, 0.0, 1.0], [0.5, 0.5, 0.5], fam.rule)
    assert not mix.quadrature_error() <= QUADRATURE_TOL
    # a member far narrower than the node spacing, centred on an odd node,
    # underflows at every even node
    fam = ep_family(2)
    assert fam.quadrature_error([fam.rule.nodes[129] * 1e6, -0.5e6]) == np.inf


def test_simpson_exact_on_cubics():
    # exactness up to degree 3 holds even at the coarsest usable level
    dom = Domain(-1.0, 2.0, "unbounded-truncated")
    rule = simpson_rule(dom, 2)
    exact = (2.0**4 - 1.0) / 4.0 + (2.0**2 - 1.0) / 2.0
    x = rule.nodes
    got = rule.weights @ (x**3 + x)
    assert abs(got - exact) <= 1e-13


def test_gaussian_mass_to_tight_tolerance():
    rule = simpson_rule(default_domain(1.2), 12)
    got = rule.weights @ gaussian_pdf_fn(0.3, 1.44)(rule.nodes)
    assert abs(got - 1.0) <= 1e-12


def test_gaussian_product_against_closed_form():
    rule = simpson_rule(default_domain(1.5), 12)
    f = gaussian_pdf_fn(-0.4, 0.8)
    g = gaussian_pdf_fn(0.9, 1.7)
    oracle = gaussian_product_integral(-0.4, 0.8, 0.9, 1.7)
    assert abs(rule.weights @ (f(rule.nodes) * g(rule.nodes)) - oracle) <= 1e-13


def test_rule_rejects_mismatched_weight_total():
    dom = Domain(0.0, 1.0, "unbounded-truncated")
    nodes = np.linspace(0.0, 1.0, 5)
    weights = np.full(5, 1.0)
    with pytest.raises(ValidationError):
        QuadratureRule(nodes=nodes, weights=weights, domain=dom)


EP2 = ep_family(2)
CUSTOM = ExpFamily([monomial_fn(1), monomial_fn(2)], simpson_rule(default_domain(1.0)))
MIX = gaussian_mixture_family([-1.0, 0.2, 1.1], [0.5, 0.8, 0.6])


@pytest.mark.parametrize("fam, theta, admissible", [
    (EP2, [0.3, -0.5], True),
    (EP2, [0.3], False),
    (EP2, [0.3, -0.5, -0.5], False),
    (EP2, [np.nan, -0.5], False),
    (EP2, [0.3, -np.inf], False),
    (EP2, [0.3, -2.0 * TAIL], True),
    (EP2, [0.3, np.nextafter(-TAIL, -1.0)], True),
    (EP2, [0.3, -TAIL], False),
    (EP2, [0.3, -0.5 * TAIL], False),
    (EP2, [0.3, 0.5], False),
    # a custom family has no tail rule: any finite length-n theta is admissible
    (CUSTOM, [0.3, 0.5], True),
    (CUSTOM, [0.3, np.inf], False),
    (CUSTOM, [0.3], False),
    (MIX, [0.3, 0.3], True),
    (MIX, [-EDGE, 0.5], True),
    (MIX, [-2.0 * EDGE, 0.5], False),
    (MIX, [1.0 + EDGE, -EDGE], False),
    (MIX, [0.5 * EDGE, 0.5 * EDGE], True),
    (MIX, [0.0, 0.0], False),
    (MIX, [0.5, 0.5 - EDGE], True),
    (MIX, [0.5, 0.5], False),
    (MIX, [np.nan, 0.3], False),
    (MIX, [0.3, 0.3, 0.3], False),
])
def test_is_admissible_exactly_when_require_admissible_returns(fam, theta, admissible):
    theta = np.array(theta)
    assert fam.is_admissible(theta) is admissible
    if admissible:
        assert np.array_equal(fam.require_admissible(theta), theta)
    else:
        error = InadmissibleParameter if isinstance(fam, ExpFamily) else InadmissibleWeights
        with pytest.raises(error):
            fam.require_admissible(theta)


# the members of the level study: EP(2), a narrow EP(2) (variance 0.05),
# EP(4), Hermite(1,2) and a bimodal Hermite(2,4)
MEMBERS = [
    (lambda rule: ep_family(2, rule), [0.5, -0.5]),
    (lambda rule: ep_family(2, rule), [0.0, -10.0]),
    (lambda rule: ep_family(4, rule), [0.3, 0.5, 0.0, -0.25]),
    (lambda rule: hermite_family([1, 2], rule), [0.3, -0.4]),
    (lambda rule: hermite_family([2, 4], rule), [0.2, -0.1]),
]
MEMBER_IDS = ["EP(2)", "EP(2)-narrow", "EP(4)", "hermite(1,2)", "hermite(2,4)"]


@pytest.mark.parametrize("make, theta", MEMBERS, ids=MEMBER_IDS)
def test_trapezoid_on_257_nodes_matches_fine_simpson(make, theta):
    fine = make(simpson_rule(default_domain(), 15))
    fam = make(trapezoid_rule(default_domain(), MIN_LEVEL))
    assert fam.rule.npoints == 257
    assert np.max(np.abs(fam.expectation_params(theta) - fine.expectation_params(theta))) <= 1e-13
    assert np.max(np.abs(fam.fisher_matrix(theta) - fine.fisher_matrix(theta))) <= 1e-13


@pytest.mark.parametrize("make, theta", MEMBERS, ids=MEMBER_IDS)
def test_embedded_estimate_bounds_the_true_error(make, theta):
    # on eta and E[c c'], relative to max(1, |value|) as the estimate is; below
    # level 6 the narrow member is not resolved at all and no estimate holds
    want = make(simpson_rule(default_domain(), 15))._moments(theta).m
    for level in (6, 7, 8):
        fam = make(trapezoid_rule(default_domain(), level))
        true = embedded_gap(fam._moments(theta).m[1:], want[1:])
        assert true <= fam.quadrature_error(theta) + 1e-14


@pytest.mark.parametrize("fine, coarse", [
    ([0.3, -2.5, 1e-20, 4.0], [0.3000001, -2.4999, 0.0, 4.0]),
    ([1.0, np.nan, 2.0], [1.0, 2.0, 2.5]),      # NaN past the first entry
    ([1.0, 2.0, 2.5], [1.0, 2.0, np.nan]),
    ([1.0, np.inf, 2.0], [1.0, 3.0, 2.5]),      # inf / inf
    ([1.0, 3.0, 2.0], [1.0, np.inf, 2.5]),
], ids=["finite", "nan-fine", "nan-coarse", "inf-fine", "inf-coarse"])
def test_embedded_gap_in_floats_is_the_numpy_max(fine, coarse):
    fine, coarse = np.array(fine), np.array(coarse)
    with np.errstate(invalid="ignore"):
        want = float(np.max(np.abs(fine - coarse) / np.maximum(1.0, np.abs(fine))))
    got = embedded_gap(fine.tolist(), coarse.tolist())
    assert type(got) is float
    assert got == want or (np.isnan(got) and np.isnan(want))
    rng = np.random.default_rng(5)
    for _ in range(50):
        fine = rng.normal(size=6) * 10.0 ** rng.integers(-3, 3, size=6)
        coarse = fine * (1.0 + 1e-9 * rng.normal(size=6))
        want = float(np.max(np.abs(fine - coarse) / np.maximum(1.0, np.abs(fine))))
        assert embedded_gap(fine.tolist(), coarse.tolist()) == want
