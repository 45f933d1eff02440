"""Deterministic quadrature on truncated or bounded intervals.

All inner products and expectations in the package route through a single
composite Simpson rule so that identities which hold analytically also hold
to round-off between independently assembled quantities.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteIntegrand, ValidationError

DOMAIN_KINDS = ("unbounded-truncated", "bounded-reflecting")

DEFAULT_LEVEL = 12


@dataclass(frozen=True)
class Domain:
    """Closed interval [lower, upper] with a boundary interpretation."""

    lower: float
    upper: float
    kind: str = "unbounded-truncated"

    def __post_init__(self):
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise ValidationError("domain bounds must be finite")
        if not self.lower < self.upper:
            raise ValidationError(f"domain requires lower < upper, got [{self.lower}, {self.upper}]")
        if self.kind not in DOMAIN_KINDS:
            raise ValidationError(f"unknown domain kind {self.kind!r}")

    @property
    def width(self):
        return self.upper - self.lower


def default_domain(sd_estimate: float = 1.0) -> Domain:
    """Truncation interval for problems posed on the whole line.

    Twelve standard deviations on each side keeps Gaussian-type tails below
    double-precision resolution.
    """
    if not (np.isfinite(sd_estimate) and sd_estimate > 0):
        raise ValidationError("sd_estimate must be positive and finite")
    return Domain(-12.0 * sd_estimate, 12.0 * sd_estimate)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights on a domain, exact for low-degree polynomials."""

    nodes: np.ndarray
    weights: np.ndarray
    domain: Domain
    order: int

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape or nodes.size < 2:
            raise ValidationError("nodes and weights must be equal-length vectors of size >= 2")
        if np.any(np.diff(nodes) <= 0):
            raise ValidationError("nodes must be strictly increasing")
        if nodes[0] < self.domain.lower - 1e-12 or nodes[-1] > self.domain.upper + 1e-12:
            raise ValidationError("nodes must lie inside the domain")
        if np.any(weights <= 0):
            raise ValidationError("weights must be positive")
        total = float(weights.sum())
        if abs(total - self.domain.width) > 1e-12 * self.domain.width:
            raise ValidationError("weights must integrate the constant 1 to the domain width")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def npoints(self):
        return self.nodes.size


class Statistics:
    """Statistics c_1..c_n of a finite family over a fixed quadrature rule.

    The base of `ExpFamily` and `MixtureFamily`.  Node values are evaluated
    at construction (or passed in as `values`), derivative values on first
    use.  A subclass sets `error` and `_violation(theta)`, the message for a
    finite length-n parameter outside its admissible set or None, and gets
    both admissibility checks from that one rule.
    """

    def __init__(self, stats, rule: QuadratureRule, kind: str, name: str, values=None):
        self.stats = tuple(stats)
        self.rule = rule
        self.kind = kind
        self.name = name
        self.n = len(self.stats)
        if self.n == 0:
            raise ValueError("at least one statistic is required")
        if values is None:
            values = np.vstack([np.asarray(c(rule.nodes), dtype=float) for c in self.stats])
        self._C = values
        self._derivatives = None
        self._grid_values = None

    @property
    def domain(self):
        return self.rule.domain

    def stat_values(self) -> np.ndarray:
        """(n, m) statistics at the quadrature nodes."""
        return self._C

    def stat_derivative_values(self):
        """First and second derivatives of the statistics at the nodes."""
        if self._derivatives is None:
            x = self.rule.nodes
            self._derivatives = (np.vstack([c.d1(x) for c in self.stats]),
                                 np.vstack([c.d2(x) for c in self.stats]))
        return self._derivatives

    def values_at(self, x) -> np.ndarray:
        """(n, len(x)) statistics at the points x, read-only; the values at the last
        x are kept, keyed on its identity, so a shared read-only grid costs one evaluation."""
        memo = self._grid_values
        if memo is None or memo[0] is not x:
            values = np.vstack([c(x) for c in self.stats])
            values.setflags(write=False)
            memo = self._grid_values = (x, values)
        return memo[1]

    def gram(self) -> np.ndarray:
        """Symmetrized Gram matrix <c_i, c_j> under the rule."""
        g = (self._C * self.rule.weights) @ self._C.T
        return 0.5 * (g + g.T)

    def _problem(self, theta):
        if theta.shape != (self.n,):
            return f"theta must have length {self.n}, got shape {theta.shape}"
        if not np.isfinite(theta).all():
            return "theta must be finite"
        return self._violation(theta)

    def is_admissible(self, theta) -> bool:
        return self._problem(np.asarray(theta, dtype=float)) is None

    def require_admissible(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        problem = self._problem(theta)
        if problem is not None:
            raise self.error(problem)
        return theta


def simpson_rule(domain: Domain, level: int = DEFAULT_LEVEL) -> QuadratureRule:
    """Composite Simpson rule with 2**level + 1 uniform nodes."""
    if level < 1:
        raise ValidationError("level must be at least 1")
    npoints = 2 ** level + 1
    nodes = np.linspace(domain.lower, domain.upper, npoints)
    h = domain.width / (npoints - 1)
    weights = np.full(npoints, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    weights *= h / 3.0
    return QuadratureRule(nodes=nodes, weights=weights, domain=domain, order=4)


def _evaluate(f, nodes: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(nodes), dtype=float)
    if vals.ndim == 0:
        vals = np.full(nodes.shape, float(vals))
    if vals.shape != nodes.shape:
        raise ValueError("integrand did not broadcast over the nodes")
    if not np.all(np.isfinite(vals)):
        bad = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise NonFiniteIntegrand(
            f"integrand is {vals[bad]} at node {nodes[bad]} (index {bad})",
            node=float(nodes[bad]),
            index=bad,
        )
    return vals


def integrate(f, rule: QuadratureRule) -> float:
    """Integral of f over the rule's domain."""
    return float(rule.weights @ _evaluate(f, rule.nodes))


def inner_product(f, g, rule: QuadratureRule) -> float:
    """L2 inner product <f, g> under the rule."""
    vals = _evaluate(f, rule.nodes) * _evaluate(g, rule.nodes)
    return float(rule.weights @ vals)
