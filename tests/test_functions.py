"""Function wrappers: values, exact derivatives, arithmetic closure."""

import subprocess
import sys

import numpy as np
import pytest
from numpy.polynomial import HermiteE, Polynomial

from fpkproj import (
    DifferentiableFn,
    circle_diffusion,
    constant_fn,
    cosine_fn,
    default_domain,
    gaussian_pdf_fn,
    hermite_fn,
    monomial_fn,
    polynomial_fn,
    simpson_rule,
)
from fpkproj.quadrature import Domain
from fpkproj.scenario import DENSITIES, FAMILIES, MODELS

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


def test_both_derivatives_are_required():
    with pytest.raises(TypeError):
        DifferentiableFn(np.abs)
    with pytest.raises(TypeError):
        DifferentiableFn(np.sin, np.cos)
    # a product of two functions has no rule here: only scalars scale a function
    with pytest.raises(TypeError):
        monomial_fn(1) * cosine_fn(1)


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


# one example per preset of each scenario table, its parameters as a scenario names them
MODEL_EXAMPLES = {
    "ou": {"kappa": 1.3, "sigma": 0.8},
    "circle-diffusion": {"diffusion": 2.0},
    "polynomial-drift": {"coefficients": [0.5, -1.0, 0.2, -0.3], "diffusion": 1.5},
}
FAMILY_EXAMPLES = {
    "ep": {"n": 4},
    "hermite": {"indices": [1, 3, 4]},
    "custom-poly": {"exponents": [1, 3, 6]},
    "gaussian-mixture": {"means": [-1.0, 0.2, 1.1], "variances": [0.5, 0.8, 0.6]},
    "cosine-circle": {"harmonics": [1, 2, 5]},
}
DENSITY_EXAMPLES = {
    "gaussian": {"mean": 0.3, "var": 0.7},
    "gaussian-mixture": {"weights": [0.3, 0.7], "means": [-0.8, 0.6], "variances": [0.4, 0.9]},
    "cosine": {"coefficients": [0.4, 0.0, -0.3]},
}


def _preset_functions():
    """(name, function, domain) for every DifferentiableFn the preset tables build."""
    assert (set(MODEL_EXAMPLES), set(FAMILY_EXAMPLES), set(DENSITY_EXAMPLES)) == (
        set(MODELS), set(FAMILIES), set(DENSITIES))
    out = []
    for kind, params in MODEL_EXAMPLES.items():
        model = MODELS[kind].build(**params, domain=default_domain())
        out += [(f"model {kind} drift", model.drift, model.domain),
                (f"model {kind} diffusion", model.diffusion, model.domain)]
    for kind, params in FAMILY_EXAMPLES.items():
        fam = FAMILIES[kind].build(**params)
        fns = [*fam.stats, *getattr(fam, "components", ())]
        out += [(f"family {kind} {i}", fn, fam.domain) for i, fn in enumerate(fns)]
    for kind, params in DENSITY_EXAMPLES.items():
        domain = circle_diffusion().domain if kind == "cosine" else default_domain()
        out.append((f"density {kind}", DENSITIES[kind].build(**params), domain))
    return out


def test_preset_functions_carry_consistent_derivatives():
    # second differences at step 1e-5 round off by about 4 eps |f| / 1e-10 = 9e-6 |f|
    # relative to max(1, |f''|) when f rounds by one ulp; sums and cos(kx) round by a
    # few, so the bound is 5e-5 times the largest ratio |f| / max(1, |f''|) on the
    # domain (1 to 72 here; 1.1e-5 at ratio 1 is the largest deviation seen), and a
    # wrong derivative is off by O(1)
    fns = _preset_functions()
    rng = np.random.default_rng(11)
    for (name, f, domain), (_, g, _) in zip(fns, fns[1:] + fns[:1]):
        combos = {"": f, " + g": f + g, " - g": f - g, " * 1.7": 1.7 * f,
                  " * -0.4 + 2": f * -0.4 + 2.0}
        x = np.linspace(domain.lower, domain.upper, 1001)
        for label, fn in combos.items():
            ratio = np.max(np.abs(fn(x)) / np.maximum(1.0, np.abs(fn.d2(x))))
            dev = check_derivatives(fn, domain, rng=rng)
            assert dev <= 5e-5 * max(1.0, ratio), f"{name}{label}: {dev:.3g}"
