"""Closed-form solutions that tests read as oracles.

Circle diffusion dX = sqrt(a) dW on [0, 2 pi], reflecting, keeps the cosine
family (1 + sum_k theta_k cos(k x)) / (2 pi) invariant: the generator maps
cos(k x) to lambda_k cos(k x) with lambda_k = -k^2 a / 2, so each weight
decays on its own, theta_k(t) = theta_k(0) e^(lambda_k t).  Every projection
of that flow onto the cosine-circle family is the linear field
theta_k' = lambda_k theta_k, which n classic RK4 steps of dt take to
theta_k(0) R(dt lambda_k)^n exactly, R being RK4's stability polynomial.

The Ornstein-Uhlenbeck flow dX = -kappa X dt + sigma dW is linear, so it
carries a Gaussian mixture to a Gaussian mixture: each weight stays, each
mean mu becomes mu e^(-kappa t) and each variance v becomes
v e^(-2 kappa t) + sigma^2 (1 - e^(-2 kappa t)) / (2 kappa).

The reference solver's semi-discrete system p' = L p, L the tridiagonal
adjoint generator on the grid, is solved exactly by p(t) = exp(t L) p(0).
L is a birth-death generator, so a diagonal D makes S = D L D^-1 symmetric,
and exp(t L) = D^-1 V e^(t Lambda) V' D from the eigenpairs of S: the
solution the Crank-Nicolson steps converge to as dt -> 0 on a fixed grid.
"""

import numpy as np
from scipy.linalg import eigh_tridiagonal


def rk4_growth(z):
    """R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24: one RK4 step of y' = lambda y, z = dt lambda."""
    z = np.asarray(z)
    return 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))


def circle_cosine_rates(harmonics, diffusion: float) -> np.ndarray:
    """lambda_k = -k^2 a / 2, the generator's eigenvalue on cos(k x)."""
    return -0.5 * diffusion * np.asarray(harmonics, dtype=float) ** 2


def circle_cosine_weights(theta0, harmonics, diffusion: float, times) -> np.ndarray:
    """theta_k(t) = theta_k(0) e^(lambda_k t): one row per time, one column per harmonic."""
    rates = circle_cosine_rates(harmonics, diffusion)
    return np.asarray(theta0, dtype=float) * np.exp(np.outer(times, rates))


def circle_cosine_rk4_weights(theta0, harmonics, diffusion: float, dt: float,
                              nsteps: int) -> np.ndarray:
    """theta_k(0) R(dt lambda_k)^n for n = 0..nsteps: the same flow after n RK4 steps."""
    growth = rk4_growth(dt * circle_cosine_rates(harmonics, diffusion))
    return np.asarray(theta0, dtype=float) * growth ** np.arange(nsteps + 1)[:, None]


def ou_gaussian_mixture_pdf(x, t: float, weights, means, variances, kappa: float,
                            sigma: float) -> np.ndarray:
    """Density at x and time t of OU started at sum_k w_k N(mu_k, v_k)."""
    decay = np.exp(-kappa * t)
    x = np.asarray(x, dtype=float)[:, None]
    mu = np.asarray(means, dtype=float) * decay
    var = (np.asarray(variances, dtype=float) * decay ** 2
           + sigma ** 2 * (1.0 - decay ** 2) / (2.0 * kappa))
    pdf = np.exp(-(x - mu) ** 2 / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)
    return pdf @ np.asarray(weights, dtype=float)


def semi_discrete_fpk(lower, diag, upper, p0, t: float) -> np.ndarray:
    """exp(t L) p0 for the tridiagonal L with sub-, main and super-diagonal bands
    (lower, diag, upper), both off-diagonal bands positive.

    (d_{i+1} / d_i)^2 = upper_i / lower_i gives S = D L D^-1 the diagonal diag and the
    off-diagonal sqrt(lower_i upper_i); d is scaled to at most 1, which needs log d
    to span less than the exponent range.
    """
    log_d = np.concatenate(([0.0], np.cumsum(0.5 * (np.log(upper) - np.log(lower)))))
    d = np.exp(log_d - log_d.max())
    lam, v = eigh_tridiagonal(diag, np.sqrt(lower * upper))
    return v @ (np.exp(t * lam) * (v.T @ (d * np.asarray(p0, dtype=float)))) / d
