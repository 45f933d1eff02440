"""Function wrappers: values, exact derivatives, arithmetic closure."""

import subprocess
import sys

import numpy as np
import pytest
from numpy.polynomial import HermiteE, Polynomial

from fpkproj import (
    DifferentiableFn,
    constant_fn,
    cosine_fn,
    default_domain,
    gaussian_pdf_fn,
    hermite_fn,
    monomial_fn,
    polynomial_fn,
    simpson_rule,
)
from fpkproj.errors import DerivativeUnavailable
from fpkproj.quadrature import Domain

from finite_difference import check_derivatives


X = np.linspace(-2.0, 2.0, 41)


def test_polynomial_values_and_derivatives():
    # p(x) = 1 - 2 x + 3 x^2; p' = -2 + 6 x; p'' = 6
    p = polynomial_fn([1.0, -2.0, 3.0])
    assert np.allclose(p(X), 1.0 - 2.0 * X + 3.0 * X**2, atol=1e-14)
    assert np.allclose(p.d1(X), -2.0 + 6.0 * X, atol=1e-14)
    assert np.allclose(p.d2(X), 6.0, atol=1e-14)


def test_monomial_derivative_chain():
    m = monomial_fn(4)
    assert np.allclose(m(X), X**4, atol=1e-13)
    assert np.allclose(m.d1(X), 4.0 * X**3, atol=1e-13)
    assert np.allclose(m.d2(X), 12.0 * X**2, atol=1e-13)


def test_hermite_polynomials_match_monic_forms():
    # probabilists' convention: He_2 = x^2 - 1, He_3 = x^3 - 3 x
    assert np.allclose(hermite_fn(2)(X), X**2 - 1.0, atol=1e-12)
    assert np.allclose(hermite_fn(3)(X), X**3 - 3.0 * X, atol=1e-12)
    assert np.allclose(hermite_fn(3).d1(X), 3.0 * X**2 - 3.0, atol=1e-12)


def _series_cases():
    """(name, function, numpy.polynomial reference) for degrees 0-8 and two drifts."""
    rng = np.random.default_rng(5)
    # a negative constant makes the second derivative of a line -0.0, whose sum
    # with x * 0 at x = -0.0 depends on the window map
    drifts = {"ou-drift": [0.0, -1.3], "shifted-ou-drift": [-0.5, -1.3],
              "cubic-drift": [0.0, 0.0, 0.0, -1.0]}
    cases = [(name, polynomial_fn(c), Polynomial(c)) for name, c in drifts.items()]
    for degree in range(9):
        coeffs = rng.uniform(-2.0, 2.0, degree + 1)
        cases.append((f"poly{degree}", polynomial_fn(coeffs), Polynomial(coeffs)))
        cases.append((f"mono{degree}", monomial_fn(degree), Polynomial.basis(degree)))
        cases.append((f"he{degree}", hermite_fn(degree), HermiteE.basis(degree)))
    return cases


SERIES_POINTS = np.concatenate(([0.0, -0.0, 12.0, -12.0],
                                np.random.default_rng(8).uniform(-12.0, 12.0, 101)))


@pytest.mark.parametrize("fn, reference", [case[1:] for case in _series_cases()],
                         ids=[case[0] for case in _series_cases()])
def test_polynomials_equal_numpy_polynomial_bitwise(fn, reference):
    # numpy.polynomial is the reference; the package evaluates in its order of
    # operations without importing it, so values, d1 and d2 agree in every bit,
    # the sign of zero included, for arrays and for scalars
    pairs = [(fn, reference), (fn.d1, reference.deriv(1)), (fn.d2, reference.deriv(2))]
    for x in (SERIES_POINTS, SERIES_POINTS.reshape(15, 7), *SERIES_POINTS[:6].tolist()):
        for got, want in pairs:
            got, want = got(x), want(x)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_cosine_harmonic_and_offset():
    f = cosine_fn(3, amplitude=0.4, offset=1.0)
    assert np.allclose(f(X), 1.0 + 0.4 * np.cos(3.0 * X), atol=1e-14)
    assert np.allclose(f.d1(X), -1.2 * np.sin(3.0 * X), atol=1e-14)
    assert np.allclose(f.d2(X), -3.6 * np.cos(3.0 * X), atol=1e-14)


def test_gaussian_pdf_mass_and_score():
    g = gaussian_pdf_fn(0.5, 2.0)
    rule = simpson_rule(default_domain(np.sqrt(2.0)))
    mass = float(rule.weights @ g(rule.nodes))
    assert abs(mass - 1.0) <= 1e-12
    # d/dx log p = -(x - m)/v, so p' = p * score
    score = -(X - 0.5) / 2.0
    assert np.allclose(g.d1(X), g(X) * score, atol=1e-14)


def test_constant_fn_derivatives_vanish():
    c = constant_fn(2.5)
    assert np.allclose(c(X), 2.5)
    assert np.allclose(c.d1(X), 0.0)
    assert np.allclose(c.d2(X), 0.0)


def test_arithmetic_preserves_values_and_derivatives():
    f = polynomial_fn([0.0, 1.0, 1.0])
    g = cosine_fn(2, amplitude=0.5)
    h = f + 2.0 * g - constant_fn(0.25)
    assert np.allclose(h(X), f(X) + 2.0 * g(X) - 0.25, atol=1e-14)
    assert np.allclose(h.d1(X), f.d1(X) + 2.0 * g.d1(X), atol=1e-14)
    assert np.allclose(h.d2(X), f.d2(X) + 2.0 * g.d2(X), atol=1e-14)
    prod = f * g
    assert np.allclose(prod(X), f(X) * g(X), atol=1e-14)
    assert np.allclose(prod.d1(X), f.d1(X) * g(X) + f(X) * g.d1(X), atol=1e-13)


def test_negation():
    f = monomial_fn(2)
    assert np.allclose((-f)(X), -(X**2), atol=1e-14)
    assert np.allclose((-f).d2(X), -2.0, atol=1e-14)


def test_missing_derivative_raises():
    raw = DifferentiableFn(lambda x: np.abs(x))
    assert not raw.has_derivatives
    with pytest.raises(DerivativeUnavailable):
        raw.d1(X)


def test_package_import_leaves_interpolation_unloaded():
    # the reference solver loads the LAPACK extension scipy.linalg._flapack when
    # it runs (scipy.linalg itself stays unloaded even then); importing the
    # package must pay for none of scipy.interpolate, scipy.sparse and scipy.linalg
    code = ("import sys, fpkproj; "
            "print([m for m in ('scipy.interpolate', 'scipy.sparse', 'scipy.linalg')"
            " if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_check_derivatives_accepts_smooth_function():
    dom = Domain(-2.0, 2.0, "unbounded-truncated")
    dev = check_derivatives(gaussian_pdf_fn(0.0, 1.0), dom,
                            rng=np.random.default_rng(7))
    assert dev <= 1e-6


def test_check_derivatives_flags_wrong_slope():
    wrong = DifferentiableFn(lambda x: np.sin(x),
                             d1=lambda x: 2.0 * np.cos(x),
                             d2=lambda x: -np.sin(x))
    dom = Domain(-2.0, 2.0, "unbounded-truncated")
    dev = check_derivatives(wrong, dom, rng=np.random.default_rng(7))
    assert dev > 0.5
