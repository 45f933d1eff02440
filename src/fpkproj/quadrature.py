"""Deterministic quadrature on truncated or bounded intervals.

All inner products and expectations of a family route through its one
rule, so that identities which hold analytically also hold to round-off
between independently assembled quantities.  That rule is the trapezoid
rule T_L on 2**L + 1 uniform nodes: the integrands are analytic and
negligible at both ends of a truncated line, or periodic on the circle,
so it converges geometrically (Trefethen & Weideman, SIAM Review 56(3),
2014), where composite Simpson, (4 T_h - T_2h) / 3, is held back by T_2h.

T_{L-1} lives on the even nodes of T_L, and |T_L - T_{L-1}| is the error
estimate the families report (`embedded_gap`); under geometric
convergence it is about the error of T_{L-1}, far above that of T_L.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UnderResolvedQuadrature, ValidationError

DOMAIN_KINDS = ("unbounded-truncated", "bounded-reflecting")

DEFAULT_LEVEL = 12
# the levels a scenario without numerics.quadrature_level chooses from, and
# the largest embedded estimate (`embedded_gap`) it accepts
MIN_LEVEL = 8
MAX_LEVEL = 14
QUADRATURE_TOL = 1e-10
# a density above this at an end node of a truncated line is not negligible there
END_DENSITY_TOL = 1e-14


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
        if not np.isfinite(float(self.upper) - float(self.lower)):
            raise ValidationError(f"domain width overflows, got [{self.lower}, {self.upper}]")
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
    """Nodes and positive weights on a domain."""

    nodes: np.ndarray
    weights: np.ndarray
    domain: Domain

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

    def embedded_weights(self) -> np.ndarray:
        """Weights of the embedded coarse rule on the even nodes: the even-node weights
        rescaled to integrate the constant 1 exactly.  For the trapezoid and Simpson
        rules on 2**L + 1 nodes that is the trapezoid rule on 2**(L-1) + 1 nodes.  A
        rule on an even number of nodes embeds none: its weights are NaN, so no
        estimate from them is within QUADRATURE_TOL."""
        coarse = self.weights[::2]
        if self.npoints % 2 == 0:
            return np.full(coarse.size, np.nan)
        return coarse * (self.domain.width / coarse.sum())


class Statistics:
    """Statistics c_1..c_n of a finite family over a fixed quadrature rule.

    The base of `ExpFamily` and `MixtureFamily`.  Node values are evaluated
    at construction (or passed in as `values`), derivative values on first
    use.  A subclass sets `error` and `_violation(theta)`, the message for n
    finite floats (a list, or an array of shape (n,)) outside its admissible
    set or None, and gets from that one rule both admissibility checks and
    `_problem`, the check of a list of n floats that tangent-ef stages run.  It sets
    `quadrature_error(theta)`, the embedded estimate (`embedded_gap`) on the
    integrals that define the member at theta.  It also names its flows,
    `methods`, the one in expectation coordinates, `expectation_method`, and
    their `initial` key, `expectation_key`; `expectation_params` maps to them.
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
            with np.errstate(over="ignore", invalid="ignore"):
                values = np.vstack([np.asarray(c(rule.nodes), dtype=float) for c in self.stats])
        self._C = values
        self._derivatives = None
        self._tables = {}

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
        """(n, len(x)) statistics at the points x, read-only, from `_table`."""
        return self._table("stats", self.stats, x)

    def _table(self, name: str, fns, x) -> np.ndarray:
        """The functions fns at the points x, one read-only row each; the table at the
        last x is kept under `name`, keyed on the identity of x, so a shared read-only
        grid costs one evaluation."""
        memo = self._tables.get(name)
        if memo is None or memo[0] is not x:
            values = np.vstack([f(x) for f in fns])
            values.setflags(write=False)
            memo = self._tables[name] = (x, values)
        return memo[1]

    def gram(self) -> np.ndarray:
        """Symmetrized Gram matrix <c_i, c_j> under the rule."""
        g = (self._C * self.rule.weights) @ self._C.T
        return 0.5 * (g + g.T)

    def _problem(self, theta):
        """The message for n floats (a list, or an array of shape (n,)) outside the
        admissible set, else None: the checks after the shape, in floats."""
        if not all(map(math.isfinite, theta)):
            return "theta must be finite"
        return self._violation(theta)

    def _array_problem(self, theta: np.ndarray):
        if theta.shape != (self.n,):
            return f"theta must have length {self.n}, got shape {theta.shape}"
        return self._problem(theta.tolist())

    def is_admissible(self, theta) -> bool:
        return self._array_problem(np.asarray(theta, dtype=float)) is None

    def require_admissible(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        problem = self._array_problem(theta)
        if problem is not None:
            raise self.error(problem)
        return theta


def require_resolved(rule: QuadratureRule, error: float, where: str, density=None) -> None:
    """UnderResolvedQuadrature, naming `where`, unless the embedded estimate `error` of
    the rule is within QUADRATURE_TOL.  `density`, called only then, gives the density
    (one row per density) at the nodes; on a truncated line, where one exceeds
    END_DENSITY_TOL at an end node, the message also says to widen numerics.domain,
    since there the rule converges only as h**2 and a finer level barely helps."""
    if not error <= QUADRATURE_TOL:
        level = (rule.npoints - 1).bit_length() - 1
        advice = "raise numerics.quadrature_level"
        if density is not None and rule.domain.kind == "unbounded-truncated":
            end = float(np.max(density()[..., [0, -1]]))
            if end > END_DENSITY_TOL:
                advice += f", or widen numerics.domain: the density is {end:.2e} at an end node"
        raise UnderResolvedQuadrature(
            f"{where}: embedded quadrature error estimate {error:.2e} exceeds "
            f"{QUADRATURE_TOL:g} at level {level} ({rule.npoints} nodes); {advice}")


def sup_norm(values) -> float:
    """max |v| over a list of floats; NaN when one is NaN, as numpy's max gives it."""
    return math.nan if any(map(math.isnan, values)) else max(map(abs, values))


def combine_rows(coeffs, rows) -> np.ndarray:
    """sum_i coeffs[i] rows[i], added left to right as the function algebra adds
    `sum(terms[1:], terms[0])`, so a member read off a table of its terms is
    bitwise the value of its function."""
    total = coeffs[0] * rows[0]
    for c, row in zip(coeffs[1:], rows[1:]):
        total += c * row
    return total


def embedded_gap(fine, coarse) -> float:
    """max |T_L - T_{L-1}| / max(1, |T_L|) over two equal-length lists of integrals,
    in floats."""
    return sup_norm([abs(f - c) / max(1.0, abs(f)) for f, c in zip(fine, coarse)])


@lru_cache(maxsize=16)
def trapezoid_grid(domain: Domain, npoints: int) -> tuple:
    """Nodes and weights of the trapezoid rule on npoints uniform nodes, read-only and
    shared: a family's rule and a reference grid on the same nodes hold the same arrays."""
    nodes = np.linspace(domain.lower, domain.upper, npoints)
    weights = np.full(npoints, domain.width / (npoints - 1))
    weights[0] = weights[-1] = 0.5 * weights[1]
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def trapezoid_rule(domain: Domain, level: int = MIN_LEVEL) -> QuadratureRule:
    """Trapezoid rule with 2**level + 1 uniform nodes."""
    if level < 1:
        raise ValidationError("level must be at least 1")
    nodes, weights = trapezoid_grid(domain, 2 ** level + 1)
    return QuadratureRule(nodes=nodes, weights=weights, domain=domain)


def simpson_rule(domain: Domain, level: int = DEFAULT_LEVEL) -> QuadratureRule:
    """Composite Simpson rule with 2**level + 1 uniform nodes, (4 T_h - T_2h) / 3."""
    if level < 1:
        raise ValidationError("level must be at least 1")
    nodes, fine = trapezoid_grid(domain, 2 ** level + 1)
    weights = 4.0 * fine
    weights[::2] -= trapezoid_grid(domain, 2 ** (level - 1) + 1)[1]
    return QuadratureRule(nodes=nodes, weights=weights / 3.0, domain=domain)
