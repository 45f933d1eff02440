"""Scalar functions carrying analytic first and second derivatives."""

import numpy as np


class DifferentiableFn:
    """A callable x -> f(x) carrying its first and second derivatives, the
    callables d1 and d2.

    Instances are immutable by convention.  Sums and scalar multiples carry
    the derivatives along.
    """

    __slots__ = ("_value", "d1", "d2")

    def __init__(self, value, d1, d2):
        self._value = value
        self.d1 = d1
        self.d2 = d2

    def __call__(self, x):
        return self._value(x)

    def _combine(self, other, sign):
        if not isinstance(other, DifferentiableFn):
            other = constant_fn(float(other))
        a, b = self, other
        return DifferentiableFn(lambda x: a._value(x) + sign * b._value(x),
                                lambda x: a.d1(x) + sign * b.d1(x),
                                lambda x: a.d2(x) + sign * b.d2(x))

    def __add__(self, other):
        return self._combine(other, 1.0)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1.0)

    def __mul__(self, other):
        c = float(other)
        return DifferentiableFn(lambda x: c * self._value(x), lambda x: c * self.d1(x),
                                lambda x: c * self.d2(x))

    __rmul__ = __mul__


def constant_fn(c: float) -> DifferentiableFn:
    c = float(c)
    return DifferentiableFn(
        lambda x: np.full_like(np.asarray(x, dtype=float), c),
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


# numpy.polynomial's series classes map x into their window, 0.0 + 1.0 * x, before
# evaluating; adding this zero does the same, and so turns -0.0 into +0.0
_WINDOW_ORIGIN = np.float64(0.0)


def _power_series(x, c):
    """sum_k c[k] x**k by Horner's rule, in numpy's `polyval` order."""
    x = _WINDOW_ORIGIN + x
    value = c[-1] + x * 0
    for k in range(len(c) - 2, -1, -1):
        value = c[k] + value * x
    return value


def _hermite_series(x, c):
    """sum_k c[k] He_k(x) by the backward recurrence of numpy's `hermeval`."""
    x = _WINDOW_ORIGIN + x
    c0, c1 = (c[0], 0.0) if len(c) == 1 else (c[-2], c[-1])
    for k in range(len(c) - 2, 0, -1):
        c0, c1 = c[k - 1] - c1 * k, c0 + c1 * x
    return c0 + c1 * x


def _derivative(c, order):
    """Coefficients of the order-th derivative, as numpy's `polyder` and `hermeder`
    form them: j * c[j], one order at a time (x^j and He_j both differentiate so)."""
    if order >= len(c):
        return c[:1] * 0
    for _ in range(order):
        c = np.array([j * c[j] for j in range(1, len(c))])
    return c


def _series_fn(series, coeffs) -> DifferentiableFn:
    c = np.array(coeffs, dtype=float, ndmin=1)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficients must be a nonempty list of numbers")
    d1, d2 = _derivative(c, 1), _derivative(c, 2)
    return DifferentiableFn(lambda x: series(x, c), lambda x: series(x, d1),
                            lambda x: series(x, d2))


def polynomial_fn(coeffs) -> DifferentiableFn:
    """Polynomial with ascending coefficients: coeffs[k] multiplies x**k.

    Values and derivatives are those of numpy's `Polynomial`, bit for bit,
    without importing numpy.polynomial.
    """
    return _series_fn(_power_series, coeffs)


def monomial_fn(power: int) -> DifferentiableFn:
    if power < 0:
        raise ValueError("power must be nonnegative")
    return polynomial_fn(np.eye(power + 1)[power])


def hermite_fn(index: int) -> DifferentiableFn:
    """Probabilists' Hermite polynomial He_index, evaluated as numpy's `HermiteE`."""
    if index < 0:
        raise ValueError("index must be nonnegative")
    return _series_fn(_hermite_series, np.eye(index + 1)[index])


def cosine_fn(harmonic: int, amplitude: float = 1.0, offset: float = 0.0) -> DifferentiableFn:
    """amplitude * cos(harmonic * x) + offset."""
    k = int(harmonic)
    a = float(amplitude)
    c = float(offset)
    if k <= 0:
        raise ValueError("harmonic must be a positive integer")
    return DifferentiableFn(
        lambda x: a * np.cos(k * x) + c,
        lambda x: -a * k * np.sin(k * x),
        lambda x: -a * k * k * np.cos(k * x),
    )


def gaussian_pdf_fn(mean: float, var: float) -> DifferentiableFn:
    """Normal density with the given mean and variance."""
    mu = float(mean)
    v = float(var)
    if not (np.isfinite(v) and v > 0):
        raise ValueError("variance must be positive")
    norm = 1.0 / np.sqrt(2.0 * np.pi * v)

    def value(x):
        z = np.asarray(x, dtype=float) - mu
        return norm * np.exp(-0.5 * z * z / v)

    def d1(x):
        z = np.asarray(x, dtype=float) - mu
        return -(z / v) * value(x)

    def d2(x):
        z = np.asarray(x, dtype=float) - mu
        return (z * z / (v * v) - 1.0 / v) * value(x)

    return DifferentiableFn(value, d1, d2)


def gaussian_mixture_pdf_fn(weights, means, variances) -> DifferentiableFn:
    """Convex combination sum_k w_k N(mean_k, var_k) of normal densities."""
    weights = [float(w) for w in weights]
    if not weights or not len(weights) == len(means) == len(variances):
        raise ValueError("need one mean and one variance per weight")
    if min(weights) < 0 or abs(sum(weights) - 1.0) > 1e-9:
        raise ValueError("weights must be nonnegative and sum to 1")
    return sum(w * gaussian_pdf_fn(mu, v) for w, mu, v in zip(weights, means, variances))


def cosine_series_pdf_fn(coefficients) -> DifferentiableFn:
    """(1 + sum_k a_k cos(k x)) / (2 pi), a density on [0, 2 pi] for small a_k."""
    scale = 1.0 / (2.0 * np.pi)
    terms = [cosine_fn(k, amplitude=a * scale) for k, a in enumerate(coefficients, 1) if a != 0.0]
    return sum(terms, constant_fn(scale))
