"""Quadrature rules against closed-form integrals.

Oracles used here:
  * int N(x; m, v) dx = 1
  * int N(x; m1, v1) N(x; m2, v2) dx
      = exp(-(m1 - m2)^2 / (2 (v1 + v2))) / sqrt(2 pi (v1 + v2))
  * composite Simpson is exact for cubics on any uniform grid

It also checks the admissibility rule that the families share through
their `Statistics` base.
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
    inner_product,
    integrate,
    monomial_fn,
    simpson_rule,
)
from fpkproj.errors import (
    InadmissibleParameter,
    InadmissibleWeights,
    NonFiniteIntegrand,
    ValidationError,
)
from fpkproj.expfamily import ADMISSIBILITY_MARGIN as TAIL
from fpkproj.mixture import WEIGHT_MARGIN as EDGE


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


def test_simpson_exact_on_cubics():
    # exactness up to degree 3 holds even at the coarsest usable level
    dom = Domain(-1.0, 2.0, "unbounded-truncated")
    rule = simpson_rule(dom, 2)
    exact = (2.0**4 - 1.0) / 4.0 + (2.0**2 - 1.0) / 2.0
    got = integrate(lambda x: x**3 + x, rule)
    assert abs(got - exact) <= 1e-13


def test_gaussian_mass_to_tight_tolerance():
    rule = simpson_rule(default_domain(1.2), 12)
    got = integrate(gaussian_pdf_fn(0.3, 1.44), rule)
    assert abs(got - 1.0) <= 1e-12


def test_gaussian_product_against_closed_form():
    rule = simpson_rule(default_domain(1.5), 12)
    f = gaussian_pdf_fn(-0.4, 0.8)
    g = gaussian_pdf_fn(0.9, 1.7)
    oracle = gaussian_product_integral(-0.4, 0.8, 0.9, 1.7)
    assert abs(inner_product(f, g, rule) - oracle) <= 1e-13


def test_scalar_integrand_is_broadcast():
    dom = Domain(0.0, 2.0, "unbounded-truncated")
    rule = simpson_rule(dom, 4)
    assert abs(integrate(lambda x: 1.0, rule) - 2.0) <= 1e-14


def test_nonfinite_integrand_reports_node():
    dom = Domain(-1.0, 1.0, "unbounded-truncated")
    rule = simpson_rule(dom, 4)

    def bad(x):
        out = np.asarray(x, dtype=float).copy()
        out[out > 0.5] = np.nan
        return out

    with pytest.raises(NonFiniteIntegrand) as info:
        integrate(bad, rule)
    assert info.value.node is not None and info.value.node > 0.5


def test_rule_rejects_mismatched_weight_total():
    dom = Domain(0.0, 1.0, "unbounded-truncated")
    nodes = np.linspace(0.0, 1.0, 5)
    weights = np.full(5, 1.0)
    with pytest.raises(ValidationError):
        QuadratureRule(nodes=nodes, weights=weights, domain=dom, order=4)


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
