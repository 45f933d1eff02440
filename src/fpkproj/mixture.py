"""Simple mixture families p(x, theta) = sum_k theta_hat_k q_k(x).

The components q_1..q_{n+1} are fixed densities; the free weights are
theta_1..theta_n and the last weight is 1 - sum theta.  As for an
exponential family, `stats` (at the nodes: `stat_values`,
`stat_derivative_values`) are the tangent vectors, here the constant
functions q_i - q_{n+1}, so the information metric

    gamma_ij = <q_i - q_{n+1}, q_j - q_{n+1}>

does not depend on theta, and the expectation-type coordinates

    m_i(theta) = <p(theta), q_i - q_{n+1}> = (gamma theta + beta)_i,
    beta_i = <q_{n+1}, q_i - q_{n+1}>,

are an affine bijection with the weights.  The L2 projection of a density
p is the member with m = E_p[stats].
"""

import numpy as np

from .errors import (
    DegenerateMixtureMetric,
    InadmissibleRecovery,
    InadmissibleWeights,
    ValidationError,
)
from .functions import DifferentiableFn, constant_fn, cosine_fn, gaussian_pdf_fn
from .quadrature import Domain, QuadratureRule, default_domain, simpson_rule

WEIGHT_MARGIN = 1e-12
METRIC_EIGENVALUE_FLOOR = 1e-12
COMPONENT_MASS_TOL = 1e-8


class MixtureFamily:
    """A simple mixture family over a fixed quadrature rule."""

    def __init__(self, components, rule: QuadratureRule, kind: str = "custom",
                 name: str = "mixture"):
        self.components = tuple(components)
        self.rule = rule
        self.kind = kind
        self.name = name
        if len(self.components) < 2:
            raise ValidationError("a mixture family needs at least two components")
        self.n = len(self.components) - 1
        self.stats = tuple(c - self.components[-1] for c in self.components[:-1])
        x = rule.nodes
        q = np.vstack([np.asarray(c(x), dtype=float) for c in self.components])
        if not np.all(np.isfinite(q)):
            raise ValidationError("components must be finite at the quadrature nodes")
        if q.min() < -WEIGHT_MARGIN:
            raise ValidationError("components must be nonnegative densities")
        masses = q @ rule.weights
        if np.max(np.abs(masses - 1.0)) > COMPONENT_MASS_TOL:
            raise ValidationError(
                f"components must integrate to 1, worst deviation {np.max(np.abs(masses - 1.0)):.3e}")
        self._Q = q
        self._D = q[:-1] - q[-1]
        self._D1 = None
        self._D2 = None
        gamma, beta = self._assemble_metric()
        if np.linalg.eigvalsh(gamma).min() <= METRIC_EIGENVALUE_FLOOR:
            raise DegenerateMixtureMetric("mixture metric is numerically singular")
        self.gamma = gamma
        self.beta = beta

    def _assemble_metric(self):
        w = self.rule.weights
        gamma = (self._D * w) @ self._D.T
        gamma = 0.5 * (gamma + gamma.T)
        beta = (self._D * w) @ self._Q[-1]
        return gamma, beta

    @property
    def domain(self):
        return self.rule.domain

    def component_values(self) -> np.ndarray:
        """(n+1, m) component densities at the quadrature nodes."""
        return self._Q

    def stat_values(self) -> np.ndarray:
        """(n, m) values of the statistics q_i - q_{n+1} at the quadrature nodes."""
        return self._D

    def stat_derivative_values(self):
        """First and second derivatives of the statistics at the nodes."""
        if self._D1 is None:
            x = self.rule.nodes
            self._D1 = np.vstack([c.d1(x) for c in self.stats])
            self._D2 = np.vstack([c.d2(x) for c in self.stats])
        return self._D1, self._D2

    def gamma_and_beta(self):
        """Recompute the constant metric and offset from scratch."""
        return self._assemble_metric()

    # -- weights ------------------------------------------------------

    def is_admissible(self, theta) -> bool:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n,) or not np.all(np.isfinite(theta)):
            return False
        if theta.min() < -WEIGHT_MARGIN or theta.max() > 1.0 + WEIGHT_MARGIN:
            return False
        total = float(theta.sum())
        return WEIGHT_MARGIN <= total <= 1.0 - WEIGHT_MARGIN

    def require_admissible(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if not self.is_admissible(theta):
            raise InadmissibleWeights(
                f"weights {theta} violate the open-simplex constraints")
        return theta

    def clamp_weights(self, theta):
        """Project onto the margin-shrunk simplex; report whether anything moved.

        An over-full vector is rescaled to sum 1 - 2 WEIGHT_MARGIN: rounding
        in the rescale can leave the sum a few ulps above its target, and
        the extra margin keeps the result admissible.  Non-finite weights
        cannot be repaired and raise InadmissibleWeights.
        """
        theta = np.asarray(theta, dtype=float)
        if not np.all(np.isfinite(theta)):
            raise InadmissibleWeights(f"weights {theta} are not finite")
        clamped = np.where(theta < 0.0, 0.0, theta)
        total = float(clamped.sum())
        if total > 1.0 - WEIGHT_MARGIN:
            clamped = clamped * ((1.0 - 2.0 * WEIGHT_MARGIN) / total)
            total = float(clamped.sum())
        if total < WEIGHT_MARGIN:
            clamped = np.full(self.n, WEIGHT_MARGIN / self.n)
        changed = bool(np.max(np.abs(clamped - theta)) > 0.0)
        return clamped, changed

    def needs_clamp(self, thetas) -> np.ndarray:
        """Rows of weights that `clamp_weights` would move, or that are not finite."""
        thetas = np.asarray(thetas, dtype=float)
        total = thetas.sum(axis=-1)
        return ((thetas < 0.0).any(axis=-1) | (total > 1.0 - WEIGHT_MARGIN)
                | (total < WEIGHT_MARGIN) | ~np.isfinite(total))

    def theta_hat(self, theta) -> np.ndarray:
        """Full weight vector including the dependent last entry."""
        theta = np.asarray(theta, dtype=float)
        return np.concatenate([theta, [1.0 - float(theta.sum())]])

    # -- densities and coordinates ------------------------------------

    def density_values(self, theta) -> np.ndarray:
        theta = self.require_admissible(theta)
        return self.theta_hat(theta) @ self._Q

    def density(self, theta) -> DifferentiableFn:
        theta = self.require_admissible(theta)
        acc = None
        for w, comp in zip(self.theta_hat(theta), self.components):
            term = float(w) * comp
            acc = term if acc is None else acc + term
        return acc

    def weights_to_expectations(self, theta) -> np.ndarray:
        theta = self.require_admissible(theta)
        return self.gamma @ theta + self.beta

    def expectations_to_weights(self, m) -> np.ndarray:
        m = np.asarray(m, dtype=float)
        if m.shape != (self.n,) or not np.all(np.isfinite(m)):
            raise ValueError(f"expected a finite vector of length {self.n}")
        theta = np.linalg.solve(self.gamma, m - self.beta)
        if not self.is_admissible(theta):
            raise InadmissibleRecovery(
                "recovered weights leave the open simplex", value=theta)
        return theta


def gaussian_mixture_family(means, variances, domain: Domain | None = None,
                            rule: QuadratureRule | None = None) -> MixtureFamily:
    """Fixed Gaussian components; the last one carries the dependent weight."""
    means = [float(v) for v in means]
    variances = [float(v) for v in variances]
    if len(means) != len(variances) or len(means) < 2:
        raise ValueError("need matching means and variances for at least two components")
    if rule is None:
        rule = simpson_rule(domain if domain is not None else default_domain())
    comps = [gaussian_pdf_fn(mu, v) for mu, v in zip(means, variances)]
    return MixtureFamily(comps, rule, kind="gaussian-mixture", name="gaussian-mixture")


def cosine_circle_family(harmonics, rule: QuadratureRule | None = None,
                         level: int = 12) -> MixtureFamily:
    """Components (1 + cos(kx)) / (2 pi) on [0, 2 pi] plus the uniform density."""
    ks = sorted(set(int(k) for k in harmonics))
    if not ks or ks[0] < 1:
        raise ValueError("harmonics must be positive integers")
    domain = Domain(0.0, 2.0 * np.pi, kind="bounded-reflecting")
    if rule is None:
        rule = simpson_rule(domain, level)
    scale = 1.0 / (2.0 * np.pi)
    comps = [cosine_fn(k, amplitude=scale, offset=scale) for k in ks]
    comps.append(constant_fn(scale))
    fam = MixtureFamily(comps, rule, kind="cosine-circle", name="cosine-circle")
    fam.harmonics = tuple(ks)
    return fam
