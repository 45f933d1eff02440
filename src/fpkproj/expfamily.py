"""Exponential families p(x, theta) = exp(theta . c(x) - psi(theta)).

The statistics c_1..c_n are differentiable functions on a truncated or
bounded interval; psi is the log-partition computed by quadrature with a
max-shift for overflow safety.  Expectation coordinates are the moment
map eta = grad psi = E_theta[c], and the Fisher information

    g_ij(theta) = Cov_theta(c_i, c_j)

is the Jacobian d eta / d theta, which makes canonical and expectation
coordinates interchangeable wherever g is invertible.

For the polynomial family with statistics x, x^2, ..., x^n (n even,
theta_n < 0) two algebraic facts are used heavily:

* moments eta_{n+i} follow from eta_0..eta_{n+i-1} by the linear
  recursion obtained from integration by parts of x^i p'(x, theta);
* running the same identities backwards recovers theta from the moment
  vector (eta_1, ..., eta_2n) through an n x n Hankel solve.
"""

import numpy as np

from .errors import (
    BoundaryDegeneracy,
    DegenerateFisher,
    DependentStatistics,
    IllConditionedMoments,
    InadmissibleParameter,
    InadmissibleRecovery,
    NonIntegrable,
)
from .functions import DifferentiableFn, hermite_fn, monomial_fn
from .quadrature import QuadratureRule, default_domain, simpson_rule

ADMISSIBILITY_MARGIN = 1e-12
GRAM_EIGENVALUE_FLOOR = 1e-10
CONDITION_GUARD = 1e12
RECURSION_DEGENERACY_FLOOR = 1e-8
CLOSURE_TOL = 1e-10


class _Moments:
    """One moment pass: log-partition, density values, w * p, eta; Fisher on demand."""

    __slots__ = ("key", "psi", "pvals", "wp", "eta", "fisher")

    def __init__(self, key, psi, pvals, wp, eta):
        self.key = key
        self.psi = psi
        self.pvals = pvals
        self.wp = wp
        self.eta = eta
        self.fisher = None


class ExpFamily:
    """An exponential family over a fixed quadrature rule.

    Node values of the statistics are cached at construction; derivative
    values are cached on first use.  The moment pass of the last theta
    evaluated is memoized, so density values, moments, Fisher matrix and
    log-partition at one theta cost one pass over the nodes; every public
    method returns a fresh array.  Instances are immutable apart from
    those caches.
    """

    def __init__(self, stats, rule: QuadratureRule, kind: str = "custom", name: str = "custom"):
        self.stats = tuple(stats)
        self.rule = rule
        self.kind = kind
        self.name = name
        self.n = len(self.stats)
        if self.n == 0:
            raise ValueError("at least one statistic is required")
        x = rule.nodes
        self._C = np.vstack([np.asarray(c(x), dtype=float) for c in self.stats])
        if not np.all(np.isfinite(self._C)):
            raise ValueError("statistics must be finite at the quadrature nodes")
        self._C1 = None
        self._C2 = None
        self._hermite_indices = None
        self._memo = None
        gram = (self._C * rule.weights) @ self._C.T
        gram = 0.5 * (gram + gram.T)
        if np.linalg.eigvalsh(gram).min() <= GRAM_EIGENVALUE_FLOOR:
            raise DependentStatistics(
                "statistics are numerically dependent under the quadrature rule")

    @property
    def domain(self):
        return self.rule.domain

    def stat_values(self) -> np.ndarray:
        """(n, m) statistics at the quadrature nodes."""
        return self._C

    def affine_in_stats(self, rows):
        """(A, b) with rows = A c + b at every node, or None when rows leave span{c, 1}.

        One least-squares solve on the node values; the fit counts as exact
        when its worst pointwise residual is within CLOSURE_TOL times
        max(1, max |rows|).
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        basis = np.vstack([self._C, np.ones(self._C.shape[1])]).T
        coef = np.linalg.lstsq(basis, rows.T, rcond=None)[0]
        worst = float(np.max(np.abs(basis @ coef - rows.T)))
        if not worst <= CLOSURE_TOL * max(1.0, float(np.max(np.abs(rows)))):
            return None
        return coef[:-1].T, coef[-1]

    def stat_derivative_values(self):
        """First and second derivatives of the statistics at the nodes."""
        if self._C1 is None:
            x = self.rule.nodes
            self._C1 = np.vstack([c.d1(x) for c in self.stats])
            self._C2 = np.vstack([c.d2(x) for c in self.stats])
        return self._C1, self._C2

    # -- admissibility ------------------------------------------------

    def is_admissible(self, theta) -> bool:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n,) or not np.all(np.isfinite(theta)):
            return False
        if self.kind in ("ep", "custom-poly", "hermite"):
            # statistics are sorted by degree with monic leading terms, so
            # the last coefficient controls the tail of theta . c
            return theta[-1] < -ADMISSIBILITY_MARGIN
        return True

    def require_admissible(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n,):
            raise InadmissibleParameter(
                f"theta must have length {self.n}, got shape {theta.shape}")
        if not np.all(np.isfinite(theta)):
            raise InadmissibleParameter("theta must be finite")
        if self.kind in ("ep", "custom-poly", "hermite") and not theta[-1] < -ADMISSIBILITY_MARGIN:
            raise InadmissibleParameter(
                f"leading coefficient must be negative, got theta_n = {theta[-1]}")
        return theta

    def default_initial_theta(self) -> np.ndarray:
        """Generic admissible starting point for Newton inversions."""
        theta = np.zeros(self.n)
        if self.kind in ("ep", "custom-poly"):
            theta[-1] = -0.5
            return theta
        if self.kind == "hermite" and self._hermite_indices is not None:
            even = [i for i, idx in enumerate(self._hermite_indices) if idx % 2 == 0]
            if even:
                theta[even[-1]] = -0.5
            return theta
        theta[-1] = -0.5
        return theta

    # -- densities and moments ----------------------------------------

    def _moments(self, theta) -> _Moments:
        """The moment pass at theta, memoized for the last theta evaluated.

        One pass over the nodes with a single exp gives psi, the density
        values, wp = w * p and eta = C wp; the Fisher matrix is built from
        the same wp on first request.  Admissibility is checked on every
        call, and a failed evaluation is never stored, so every error is
        raised again on every call.
        """
        theta = self.require_admissible(theta)
        key = theta.tobytes()
        memo = self._memo
        if memo is not None and memo.key == key:
            return memo
        with np.errstate(over="ignore", invalid="ignore"):
            s = theta @ self._C
        if not np.all(np.isfinite(s)):
            raise NonIntegrable("log-density is not finite at the quadrature nodes")
        shift = s.max()
        e = np.exp(s - shift)
        z = float(self.rule.weights @ e)
        if not np.isfinite(z) or z <= 0.0:
            raise NonIntegrable("normalization integral overflowed or vanished")
        pvals = e / z
        wp = self.rule.weights * pvals
        memo = _Moments(key, shift + np.log(z), pvals, wp, self._C @ wp)
        self._memo = memo
        return memo

    def log_partition(self, theta) -> float:
        """psi(theta) = log integral exp(theta . c) over the domain."""
        return float(self._moments(theta).psi)

    def density_values(self, theta) -> np.ndarray:
        """Normalized density at the quadrature nodes."""
        return self._moments(theta).pvals.copy()

    def density(self, theta) -> DifferentiableFn:
        """The density as a differentiable function of x."""
        coeffs = np.array(theta, dtype=float)
        psi = self._moments(coeffs).psi
        stats = self.stats

        def log_linear(x, deriv):
            acc = None
            for t, c in zip(coeffs, stats):
                term = t * deriv(c, x)
                acc = term if acc is None else acc + term
            return acc

        def value(x):
            return np.exp(log_linear(x, lambda c, y: c(y)) - psi)

        def d1(x):
            return log_linear(x, lambda c, y: c.d1(y)) * value(x)

        def d2(x):
            s1 = log_linear(x, lambda c, y: c.d1(y))
            s2 = log_linear(x, lambda c, y: c.d2(y))
            return (s2 + s1 * s1) * value(x)

        return DifferentiableFn(value, d1, d2)

    def _monomial_rows(self, count: int) -> np.ndarray:
        x = self.rule.nodes
        return np.vstack([x ** i for i in range(1, count + 1)])

    def expectation_params(self, theta, count: int | None = None) -> np.ndarray:
        """Moment vector eta_i = E_theta[c_i], optionally extended.

        For the polynomial family, count may exceed n; indices beyond n are
        expectations of higher monomials x^i.
        """
        mom = self._moments(theta)
        if count is None or count == self.n:
            return mom.eta.copy()
        if count < self.n:
            raise ValueError("count must be at least n")
        if self.kind != "ep":
            raise ValueError("extended moments are defined only for the polynomial family")
        return self._monomial_rows(count) @ mom.wp

    def fisher_matrix(self, theta) -> np.ndarray:
        """Covariance matrix of the statistics at theta."""
        mom = self._moments(theta)
        if mom.fisher is None:
            g = (self._C * mom.wp) @ self._C.T - np.outer(mom.eta, mom.eta)
            g = 0.5 * (g + g.T)
            try:
                np.linalg.cholesky(g)
            except np.linalg.LinAlgError as err:
                raise DegenerateFisher("Fisher matrix is not positive definite") from err
            mom.fisher = g
        return mom.fisher.copy()

    # -- polynomial-family algebra ------------------------------------

    def moments_by_recursion(self, theta, upto: int) -> np.ndarray:
        """Moments eta_1..eta_upto via the integration-by-parts recursion.

        Only the first n-1 moments are taken from quadrature; everything
        above follows algebraically from theta.
        """
        if self.kind != "ep":
            raise ValueError("the moment recursion applies to the polynomial family only")
        theta = self.require_admissible(theta)
        n = self.n
        if upto < n:
            raise ValueError("upto must be at least n")
        # the recursion drops boundary terms, so the density must decay
        # well inside the truncated domain; a nearly flat member divides
        # by n * theta_n and amplifies that contamination
        if abs(theta[-1]) < RECURSION_DEGENERACY_FLOOR:
            raise BoundaryDegeneracy("theta_n is too close to zero for the recursion")
        wp = self._moments(theta).wp
        eta = np.empty(upto + 1)
        eta[0] = 1.0
        if n > 1:
            eta[1:n] = self._monomial_rows(n - 1) @ wp
        for i in range(0, upto - n + 1):
            acc = (i + 1) * eta[i]
            for j in range(1, n):
                acc += j * theta[j - 1] * eta[i + j]
            eta[n + i] = -acc / (n * theta[-1])
        return eta[1:]

    def expectation_to_canonical(self, eta, initial=None, tol: float = 1e-12,
                                 max_iter: int = 80) -> np.ndarray:
        """Invert the moment map.

        A length-2n moment vector for the polynomial family is inverted
        algebraically; a length-n vector is inverted by damped Newton
        iteration on grad psi(theta) = eta.
        """
        eta = np.asarray(eta, dtype=float)
        if self.kind == "ep" and eta.shape == (2 * self.n,):
            return canonical_from_moments(eta)
        if eta.shape != (self.n,):
            raise ValueError(
                f"expected {self.n} (or {2 * self.n} for the polynomial family) moments")
        return self._newton_inverse(eta, initial, tol, max_iter)

    def _newton_inverse(self, eta, initial, tol, max_iter):
        if initial is None:
            theta = self.default_initial_theta()
        else:
            theta = np.asarray(initial, dtype=float).copy()
            if not self.is_admissible(theta):
                theta = self.default_initial_theta()
        scale = 1.0 + float(np.max(np.abs(eta)))
        res = self.expectation_params(theta) - eta
        best = float(np.max(np.abs(res)))
        for _ in range(max_iter):
            if best <= tol * scale:
                return theta
            g = self.fisher_matrix(theta)
            step = -np.linalg.solve(g, res)
            t = 1.0
            while t >= 2.0 ** -30:
                cand = theta + t * step
                if self.is_admissible(cand):
                    cand_res = self.expectation_params(cand) - eta
                    cand_norm = float(np.max(np.abs(cand_res)))
                    if cand_norm < best * (1.0 - 0.25 * t) or cand_norm <= tol * scale:
                        theta, res, best = cand, cand_res, cand_norm
                        break
                t *= 0.5
            else:
                raise InadmissibleRecovery(
                    "Newton inversion stalled outside the admissible set",
                    value=theta + step)
        if best <= 10.0 * tol * scale:
            return theta
        raise InadmissibleRecovery(
            f"Newton inversion did not converge (residual {best:.3e})", value=theta)


def canonical_from_moments(eta) -> np.ndarray:
    """Recover theta of the polynomial family from the moments eta_1..eta_2n.

    Solves the Hankel system M y = -[2 eta_1, 3 eta_2, ..., (n+1) eta_n]
    with M_ij = eta_{i+j} and unpacks y_j = j theta_j.  Exact (up to the
    solve) whenever the moment sequence comes from a family member.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.ndim != 1 or eta.size < 2 or eta.size % 2 != 0:
        raise ValueError("need an even-length moment vector eta_1..eta_2n")
    if not np.all(np.isfinite(eta)):
        raise IllConditionedMoments("moments must be finite")
    n = eta.size // 2
    full = np.concatenate(([1.0], eta))
    m = np.empty((n, n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            m[i - 1, j - 1] = full[i + j]
    vals = np.linalg.eigvalsh(0.5 * (m + m.T))
    if vals.min() <= 0:
        raise IllConditionedMoments("moment matrix is not positive definite")
    if vals.max() / vals.min() > CONDITION_GUARD:
        raise IllConditionedMoments(
            f"moment matrix condition {vals.max() / vals.min():.3e} exceeds guard")
    rhs = np.array([(i + 1) * full[i] for i in range(1, n + 1)])
    y = np.linalg.solve(m, -rhs)
    theta = y / np.arange(1, n + 1)
    if theta[-1] >= 0:
        raise InadmissibleRecovery(
            f"recovered leading coefficient {theta[-1]} is not negative", value=theta)
    if theta[-1] > -ADMISSIBILITY_MARGIN:
        raise BoundaryDegeneracy("recovered theta_n sits on the admissibility boundary")
    return theta


def ep_family(n: int, domain=None, rule: QuadratureRule | None = None) -> ExpFamily:
    """Polynomial family with statistics x, x^2, ..., x^n (n even)."""
    if n < 2 or n % 2 != 0:
        raise ValueError("n must be an even integer >= 2")
    if rule is None:
        rule = simpson_rule(domain if domain is not None else default_domain())
    stats = [monomial_fn(i) for i in range(1, n + 1)]
    return ExpFamily(stats, rule, kind="ep", name=f"EP({n})")


def hermite_family(indices, domain=None, rule: QuadratureRule | None = None) -> ExpFamily:
    """Family spanned by probabilists' Hermite polynomials He_k."""
    idx = sorted(set(int(i) for i in indices))
    if not idx or idx[0] < 1:
        raise ValueError("indices must be positive integers")
    if idx[-1] % 2 != 0:
        raise ValueError("the largest index must be even for integrability")
    if rule is None:
        rule = simpson_rule(domain if domain is not None else default_domain())
    fam = ExpFamily([hermite_fn(i) for i in idx], rule, kind="hermite",
                    name=f"hermite({','.join(map(str, idx))})")
    fam._hermite_indices = tuple(idx)
    return fam


def custom_poly_family(exponents, domain=None, rule: QuadratureRule | None = None) -> ExpFamily:
    """Monomial statistics with arbitrary exponents; the largest must be even."""
    exps = sorted(set(int(e) for e in exponents))
    if not exps or exps[0] < 1:
        raise ValueError("exponents must be positive integers")
    if exps[-1] % 2 != 0:
        raise ValueError("the largest exponent must be even for integrability")
    if rule is None:
        rule = simpson_rule(domain if domain is not None else default_domain())
    stats = [monomial_fn(e) for e in exps]
    return ExpFamily(stats, rule, kind="custom-poly",
                     name=f"poly({','.join(map(str, exps))})")
