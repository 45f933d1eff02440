"""Model presets, generators, adjoints, and the duality pairing."""

import numpy as np
import pytest

from fpkproj import (
    circle_diffusion,
    default_domain,
    gaussian_pdf_fn,
    hermite_fn,
    monomial_fn,
    ornstein_uhlenbeck,
    polynomial_drift,
    polynomial_fn,
    simpson_rule,
)
from fpkproj.errors import ValidationError
from fpkproj.sde import SdeModel


X = np.linspace(-3.0, 3.0, 61)


def test_ou_preset_drift_and_diffusion():
    model = ornstein_uhlenbeck(kappa=1.3, sigma=2.0)
    assert np.allclose(model.drift(X), -1.3 * X, atol=1e-14)
    assert np.allclose(model.diffusion(X), 4.0, atol=1e-14)


def test_circle_preset_domain():
    model = circle_diffusion(2.0)
    assert model.domain.kind == "bounded-reflecting"
    assert model.domain.lower == 0.0
    assert abs(model.domain.upper - 2.0 * np.pi) <= 1e-15
    assert np.allclose(model.drift(np.linspace(0, 6, 13)), 0.0)


def test_polynomial_drift_ascending_coefficients():
    model = polynomial_drift([0.5, 0.0, -1.0], diffusion=1.5)
    assert np.allclose(model.drift(X), 0.5 - X**2, atol=1e-13)
    assert np.allclose(model.diffusion(X), 1.5, atol=1e-14)


def test_nonpositive_diffusion_rejected():
    dom = default_domain(1.0)
    with pytest.raises(ValidationError):
        SdeModel(drift=polynomial_fn([0.0, -1.0]),
                 diffusion=polynomial_fn([0.0, 1.0]),
                 domain=dom)


def test_generator_on_hermite_statistics():
    # for dX = -kappa X dt + sigma dW with sigma^2 = 2 kappa, the monic
    # Hermite polynomials satisfy L He_k = -k kappa He_k
    kappa = 1.0
    model = ornstein_uhlenbeck(kappa=kappa)
    for k in (1, 2, 3):
        he = hermite_fn(k)
        lvals = model.generator_values(X, he.d1(X), he.d2(X))
        assert np.max(np.abs(lvals + k * kappa * he(X))) <= 1e-11


def test_generator_quadratic_example():
    # L x^2 = 2 x f + a
    model = ornstein_uhlenbeck(kappa=1.0, sigma=np.sqrt(2.0))
    x2 = monomial_fn(2)
    got = model.generator_values(X, x2.d1(X), x2.d2(X))
    assert np.allclose(got, -2.0 * X**2 + 2.0, atol=1e-12)


def adjoint(model, p, x):
    """(L* p)(x) = -(f p)'(x) + (a p)''(x) / 2, expanded by the product rule."""
    f, a = model.drift, model.diffusion
    return (-(f.d1(x) * p(x) + f(x) * p.d1(x))
            + 0.5 * (a.d2(x) * p(x) + 2.0 * a.d1(x) * p.d1(x) + a(x) * p.d2(x)))


def test_adjoint_annihilates_stationary_density():
    model = ornstein_uhlenbeck(kappa=1.0, sigma=np.sqrt(2.0))
    lstar = adjoint(model, gaussian_pdf_fn(0.0, 1.0), X)
    assert np.max(np.abs(lstar)) <= 1e-12


def test_adjoint_generator_duality():
    # <L* p, phi> = <p, L phi> when p decays at the truncation boundary
    rule = simpson_rule(default_domain(1.2))
    model = polynomial_drift([0.2, -1.0, 0.0, -0.4], diffusion=1.7)
    p = gaussian_pdf_fn(0.3, 1.1)
    x = rule.nodes
    for phi in (monomial_fn(1), monomial_fn(2), hermite_fn(3)):
        lhs = rule.weights @ (adjoint(model, p, x) * phi(x))
        rhs = rule.weights @ (p(x) * model.generator_values(x, phi.d1(x), phi.d2(x)))
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))
