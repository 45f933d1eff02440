"""Simple mixture families p(x, theta) = sum_k theta_hat_k q_k(x).

The components q_1..q_{n+1} are fixed densities; the free weights are
theta_1..theta_n and the last weight is 1 - sum theta.  As for an
exponential family (both are `Statistics`), `stats` are the tangent
vectors, here the constant functions q_i - q_{n+1}, so the information metric

    gamma_ij = <q_i - q_{n+1}, q_j - q_{n+1}>

does not depend on theta, and the expectation-type coordinates

    m_i(theta) = <p(theta), q_i - q_{n+1}> = (gamma theta + beta)_i,
    beta_i = <q_{n+1}, q_i - q_{n+1}>,

are an affine bijection with the weights.  The family owns that chart: it
certifies gamma once and keeps its inverse `gamma_inv`, which every map
from m back to the weights reads.  The L2 projection of a density p is the
member with m = E_p[stats].
"""

import numpy as np

from .errors import (
    DegenerateMixtureMetric,
    InadmissibleRecovery,
    InadmissibleWeights,
    UnderResolvedQuadrature,
    ValidationError,
)
from .functions import DifferentiableFn, constant_fn, cosine_fn, gaussian_pdf_fn
from .quadrature import (
    QUADRATURE_TOL,
    Domain,
    QuadratureRule,
    Statistics,
    combine_rows,
    default_domain,
    embedded_gap,
    trapezoid_rule,
)

WEIGHT_MARGIN = 1e-12
METRIC_EIGENVALUE_FLOOR = 1e-12
COMPONENT_MASS_TOL = 1e-8


class MixtureFamily(Statistics):
    """A simple mixture family over a fixed quadrature rule.

    Every member is a combination of the components, so one embedded
    estimate, on gamma and on the component masses, holds for all of them;
    it is computed once, when the family is built.  Components whose masses
    miss 1 on an under-resolved rule raise UnderResolvedQuadrature, on a
    resolved one ValidationError.
    """

    error = InadmissibleWeights
    methods = ("tangent-mix", "ada-mix", "galerkin")
    expectation_method = "ada-mix"
    expectation_key = "m"

    def __init__(self, components, rule: QuadratureRule, kind: str = "custom",
                 name: str = "mixture"):
        self.components = tuple(components)
        if len(self.components) < 2:
            raise ValidationError("a mixture family needs at least two components")
        with np.errstate(over="ignore", invalid="ignore"):
            q = np.vstack([np.asarray(c(rule.nodes), dtype=float) for c in self.components])
        if not np.all(np.isfinite(q)):
            raise ValidationError("components must be finite at the quadrature nodes")
        if q.min() < -WEIGHT_MARGIN:
            raise ValidationError("components must be nonnegative densities")
        coarse = rule.embedded_weights()
        masses = q @ rule.weights
        mass_error = embedded_gap(masses.tolist(), (q[:, ::2] @ coarse).tolist())
        worst = float(np.max(np.abs(masses - 1.0)))
        if worst > COMPONENT_MASS_TOL:
            error = UnderResolvedQuadrature if mass_error > QUADRATURE_TOL else ValidationError
            raise error(f"components must integrate to 1 on {rule.npoints} quadrature nodes, "
                        f"worst deviation {worst:.3e}")
        self._Q = q
        last = self.components[-1]
        super().__init__((c - last for c in self.components[:-1]), rule, kind, name,
                         values=q[:-1] - q[-1])
        self.gamma, self.beta = self.gram(), (self._C * rule.weights) @ q[-1]
        even = self._C[:, ::2]
        self._quadrature_error = max(mass_error, embedded_gap(
            self.gamma.ravel().tolist(), ((even * coarse) @ even.T).ravel().tolist()))
        if np.linalg.eigvalsh(self.gamma).min() <= METRIC_EIGENVALUE_FLOOR:
            raise DegenerateMixtureMetric("mixture metric is numerically singular")
        self.gamma_inv = np.linalg.inv(self.gamma)
        self.gamma_inv.setflags(write=False)

    def component_values(self) -> np.ndarray:
        """(n+1, m) component densities at the quadrature nodes."""
        return self._Q

    def quadrature_error(self, theta=None) -> float:
        """The family's embedded estimate, the same at every member."""
        return self._quadrature_error

    # -- weights ------------------------------------------------------

    def _violation(self, theta):
        # the sum comes last: weights within [-WEIGHT_MARGIN, 1 + WEIGHT_MARGIN] cannot overflow
        if (min(theta) < -WEIGHT_MARGIN or max(theta) > 1.0 + WEIGHT_MARGIN
                or not WEIGHT_MARGIN <= float(np.add.reduce(theta)) <= 1.0 - WEIGHT_MARGIN):
            return f"weights {np.array(theta)} violate the open-simplex constraints"
        return None

    def clamp_weights(self, theta):
        """Project onto the margin-shrunk simplex; report whether anything moved.

        An over-full vector is rescaled to sum 1 - 2 WEIGHT_MARGIN: rounding
        in the rescale can leave the sum a few ulps above its target, and
        the extra margin keeps the result admissible.  Finite weights whose
        sum overflows are divided by their largest entry first.  Non-finite
        weights cannot be repaired and raise InadmissibleWeights.
        """
        theta = np.asarray(theta, dtype=float)
        if not np.all(np.isfinite(theta)):
            raise InadmissibleWeights(f"weights {theta} are not finite")
        clamped = np.where(theta < 0.0, 0.0, theta)
        with np.errstate(over="ignore"):
            total = float(clamped.sum())
        if total == np.inf:
            clamped = clamped / clamped.max()
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
        # inf - inf, or finite weights that overflow: a total that is not finite
        with np.errstate(over="ignore", invalid="ignore"):
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
        terms = [float(w) * comp for w, comp in zip(self.theta_hat(theta), self.components)]
        return sum(terms[1:], terms[0])

    def density_at(self, x, theta) -> np.ndarray:
        """`density(theta)(x)` bit for bit, read off a table of the components at x
        kept as `values_at` keeps the statistics."""
        theta = self.require_admissible(theta)
        return combine_rows(self.theta_hat(theta).tolist(),
                            self._table("components", self.components, x))

    def expectation_params(self, theta) -> np.ndarray:
        theta = self.require_admissible(theta)
        return self.gamma.dot(theta) + self.beta

    def expectations_to_weights(self, m) -> np.ndarray:
        m = np.asarray(m, dtype=float)
        if m.shape != (self.n,) or not np.all(np.isfinite(m)):
            raise ValueError(f"expected a finite vector of length {self.n}")
        theta = self.gamma_inv @ (m - self.beta)
        if not self.is_admissible(theta):
            raise InadmissibleRecovery(
                "recovered weights leave the open simplex", value=theta)
        return theta


def gaussian_mixture_family(means, variances, rule: QuadratureRule | None = None) -> MixtureFamily:
    """Fixed Gaussian components; the last one carries the dependent weight."""
    means = [float(v) for v in means]
    variances = [float(v) for v in variances]
    if len(means) != len(variances) or len(means) < 2:
        raise ValueError("need matching means and variances for at least two components")
    comps = [gaussian_pdf_fn(mu, v) for mu, v in zip(means, variances)]
    return MixtureFamily(comps, rule or trapezoid_rule(default_domain()),
                         kind="gaussian-mixture", name="gaussian-mixture")


def cosine_circle_family(harmonics, rule: QuadratureRule | None = None) -> MixtureFamily:
    """Components (1 + cos(kx)) / (2 pi) on [0, 2 pi] plus the uniform density."""
    ks = sorted(set(int(k) for k in harmonics))
    if not ks or ks[0] < 1:
        raise ValueError("harmonics must be positive integers")
    domain = Domain(0.0, 2.0 * np.pi, kind="bounded-reflecting")
    if rule is None:
        rule = trapezoid_rule(domain)
    scale = 1.0 / (2.0 * np.pi)
    comps = [cosine_fn(k, amplitude=scale, offset=scale) for k in ks]
    comps.append(constant_fn(scale))
    return MixtureFamily(comps, rule, kind="cosine-circle", name="cosine-circle")
