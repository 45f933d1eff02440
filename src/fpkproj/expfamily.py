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

import math
from collections import namedtuple
from functools import cache, cached_property
from operator import mul

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
from .quadrature import (
    QuadratureRule,
    Statistics,
    combine_rows,
    default_domain,
    embedded_gap,
    sup_norm,
    trapezoid_rule,
)

ADMISSIBILITY_MARGIN = 1e-12
GRAM_EIGENVALUE_FLOOR = 1e-10
CONDITION_GUARD = 1e12
RECURSION_DEGENERACY_FLOOR = 1e-8
CLOSURE_TOL = 1e-10
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 80
# sum |theta_i| max |c_i| at most this: no node of theta . c, nor theta . c - max, overflows
_PRODUCT_BOUND = 0.5 * np.finfo(float).max


@cache
def _unrolled_cholesky(n: int):
    """(factor, solve) for n x n matrices, compiled on first use of n.

    factor(g) takes the n * n entries of g in row-major order, reads its lower
    triangle and returns the entries of L, g = L L', row by row; solve(lower, b)
    returns x with L L' x = b by a forward and a back substitution.  Both are the
    textbook loops unrolled into straight-line arithmetic on local floats, in the
    loops' order of operations; at n = 8 that runs about three times faster than
    the loops themselves under CPython 3.11.
    """
    def row(names):
        return "[" + ", ".join(names) + "]"

    lower = row(f"l{i}_{j}" for i in range(n) for j in range(i + 1))
    xs = row(f"x{i}" for i in range(n))
    entries = row(f"g{i}_{j}" for i in range(n) for j in range(n))
    lines = ["def factor(g):", f"    {entries} = g"]
    for i in range(n):
        for j in range(i):
            dot = "".join(f" - l{i}_{k} * l{j}_{k}" for k in range(j))
            lines.append(f"    l{i}_{j} = (g{i}_{j}{dot}) / l{j}_{j}")
        dot = "".join(f" - l{i}_{k} * l{i}_{k}" for k in range(i))
        lines += [f"    pivot = g{i}_{i}{dot}",
                  "    if not pivot > 0.0:",
                  "        raise DegenerateFisher('Fisher matrix is not positive definite')",
                  f"    l{i}_{i} = sqrt(pivot)"]
    lines += [f"    return {lower}", "def solve(lower, b):", f"    {lower} = lower", f"    {xs} = b"]
    for i in range(n):
        dot = "".join(f" - l{i}_{k} * x{k}" for k in range(i))
        lines.append(f"    x{i} = (x{i}{dot}) / l{i}_{i}")
    for i in reversed(range(n)):
        dot = "".join(f" - l{k}_{i} * x{k}" for k in range(i + 1, n))
        lines.append(f"    x{i} = (x{i}{dot}) / l{i}_{i}")
    lines.append(f"    return {xs}")
    namespace = {"sqrt": math.sqrt, "DegenerateFisher": DegenerateFisher}
    exec(compile("\n".join(lines), f"<cholesky n={n}>", "exec"), namespace)
    return namespace["factor"], namespace["solve"]


class _Cholesky:
    """g = L L' for a small symmetric n x n matrix g, in Python floats.

    g is given as its n * n entries in row-major order, a list of floats
    (`entries`); only its lower triangle is read.  Every Fisher solve goes
    through one of these: at the n of the shipped families, the unrolled
    factorization and sweeps cost less than the wrapper of one numpy.linalg
    call.  Construction raises DegenerateFisher at the first pivot that is
    not > 0, NaN included, so it certifies that g is positive definite.
    """

    __slots__ = ("entries", "lower", "_solve")

    def __init__(self, g: list):
        factor, self._solve = _unrolled_cholesky(math.isqrt(len(g)))
        self.entries = g
        self.lower = factor(g)

    def solve(self, b) -> list:
        """x with g x = b for a list b of n floats, as a list of floats."""
        return self._solve(self.lower, b)


# one moment pass: log-partition, m = R e / z as a list of floats (eta is
# m[1:n + 1]), density values and w * p
_Moments = namedtuple("_Moments", "key psi m pvals wp")


class ExpFamily(Statistics):
    """An exponential family over a fixed quadrature rule.

    Statistics, their node and derivative values and the admissibility
    checks come from `Statistics`; the Gaussian fit and the row stack
    R = [w; w c_i; w c_i c_j for i <= j] are built on first use.  A moment
    pass is one exp and the product R e, which holds the normalization,
    eta and E[c c'].  The pass of the last theta evaluated is memoized, so
    density values, moments, Fisher matrix and log-partition at one theta
    cost one pass over the nodes; every public method returns a fresh array.
    Instances are immutable apart from those caches.
    """

    error = InadmissibleParameter
    methods = ("tangent-ef", "ada-ef")
    expectation_method = "ada-ef"
    expectation_key = "eta"

    def __init__(self, stats, rule: QuadratureRule, kind: str = "custom", name: str = "custom"):
        super().__init__(stats, rule, kind, name)
        if not np.all(np.isfinite(self._C)):
            raise ValueError("statistics must be finite at the quadrature nodes")
        self._memo = None
        self._reach = np.abs(self._C).max(axis=1).tolist()
        with np.errstate(over="ignore", invalid="ignore"):
            gram = self.gram()
        # a finite Gram bounds the row stack, so no moment pass overflows:
        # sum |w c_i c_j| <= sqrt(G_ii G_jj) and sum |w c_i| <= sqrt(width G_ii)
        if not np.isfinite(gram).all():
            raise NonIntegrable("moment integrals overflow at the quadrature nodes")
        if np.linalg.eigvalsh(gram).min() <= GRAM_EIGENVALUE_FLOOR:
            raise DependentStatistics(
                "statistics are numerically dependent under the quadrature rule")

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

    @cached_property
    def gaussian_fit(self):
        """(A, b) with (x, x^2) = A c + b at the nodes, computed on first use.

        None unless n = 2 and span{c, 1} = span{x, x^2, 1}, that is, unless
        the family is the Gaussians.  The arrays are read-only.
        """
        if self.n != 2:
            return None
        x = self.rule.nodes
        fit = self.affine_in_stats(np.vstack([x, x * x]))
        if fit is not None:
            for part in fit:
                part.setflags(write=False)
        return fit

    def _violation(self, theta):
        # statistics are sorted by degree with monic leading terms, so the
        # last coefficient controls the tail of theta . c
        if self.kind in ("ep", "custom-poly", "hermite") and not theta[-1] < -ADMISSIBILITY_MARGIN:
            return f"leading coefficient must be negative, got theta_n = {theta[-1]}"
        return None

    def default_initial_theta(self) -> np.ndarray:
        """Generic admissible starting point for Newton inversions."""
        theta = np.zeros(self.n)
        theta[-1] = -0.5
        return theta

    # -- densities and moments ----------------------------------------

    @cached_property
    def row_stack(self) -> np.ndarray:
        """R = [w; w c_i; w c_i c_j for i <= j] at the nodes, read-only, built on first use.

        R e / z, z = w . e, is (1, eta, the upper triangle of E[c c']) for
        e = exp(theta . c - shift).
        """
        w = self.rule.weights
        wc = self._C * w
        i, j = np.triu_indices(self.n)
        rows = np.vstack([w, wc, wc[i] * self._C[j]])
        rows.setflags(write=False)
        return rows

    @cached_property
    def _fisher_terms(self) -> list:
        """(k, 1 + i, 1 + j) for each entry g_ij in row-major order: g_ij = m[k] - m[1 + i]
        m[1 + j] for the moment vector m of a pass, whose row k holds w c_i c_j."""
        n = self.n
        i, j = np.triu_indices(n)
        index = np.empty((n, n), dtype=np.intp)
        index[i, j] = index[j, i] = 1 + n + np.arange(i.size)
        return [(int(index[i, j]), 1 + i, 1 + j) for i in range(n) for j in range(n)]

    @cached_property
    def _coarse_stack(self) -> np.ndarray:
        """R on the even nodes with the weights of the embedded coarse rule."""
        return self.row_stack[:, ::2] * (self.rule.embedded_weights() / self.rule.weights[::2])

    def quadrature_error(self, theta) -> float:
        """Embedded estimate at theta: T_L against T_{L-1} on the even nodes, over eta
        and E[c c'], from the moment pass and one product on half the nodes."""
        mom = self._moments(theta)
        coarse = self._coarse_stack.dot(mom.pvals[::2]).tolist()
        z = coarse[0]
        if not z > 0:
            return math.inf  # the density underflows at every even node
        return embedded_gap(mom.m[1:], [v / z for v in coarse[1:]])

    def integrals_error(self, values) -> float:
        """The embedded estimate on the integrals of values, a function at the nodes,
        times 1, c and c c'."""
        values = np.asarray(values, dtype=float)
        return embedded_gap((self.row_stack @ values).tolist(),
                            (self._coarse_stack @ values[::2]).tolist())

    def _pass(self, theta: list, rows):
        """(shift, z, e, m) at an admissible theta, a list of n floats: one exp and one
        product.

        e = exp(theta . c - shift) with shift = max theta . c, z = w . e the
        product with the first row, which must be w, and m = rows @ e / z as a
        list of floats.  The n-sized work is in floats, and theta becomes an
        array for the product theta . c alone: when sum |theta_i|
        max |c_i| is within _PRODUCT_BOUND, theta . c and theta . c - shift are
        finite at every node and nothing can overflow; only above it are the
        product and the shift taken under np.errstate, the product refused
        (NonIntegrable) when its max or min is not finite, which catches NaN,
        +inf and -inf nodes, and a node whose shift overflows left at -inf, e = 0.
        """
        if sum(map(mul, map(abs, theta), self._reach)) <= _PRODUCT_BOUND:
            s = np.array(theta).dot(self._C)
            shift = np.maximum.reduce(s)
            s -= shift
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                s = np.array(theta).dot(self._C)
                shift = np.maximum.reduce(s)
                if not (math.isfinite(shift) and math.isfinite(np.minimum.reduce(s))):
                    raise NonIntegrable("log-density is not finite at the quadrature nodes")
                s -= shift
        e = np.exp(s, out=s)
        m = rows.dot(e).tolist()
        z = m[0]
        return shift, z, e, [v / z for v in m]

    def _fisher(self, m) -> _Cholesky:
        """The factor of g = Cov(c) = E[c c'] - eta eta', read from the float list m
        of a pass through the row stack, so g is symmetric by construction;
        DegenerateFisher unless g is positive definite."""
        return _Cholesky([m[k] - m[i] * m[j] for k, i, j in self._fisher_terms])

    def _moments(self, theta) -> _Moments:
        """The moment pass at theta, memoized for the last theta evaluated.

        Admissibility is checked on every call, and a failed evaluation is
        never stored, so every error is raised again on every call.
        """
        theta = self.require_admissible(theta)
        key = theta.tobytes()
        memo = self._memo
        if memo is not None and memo.key == key:
            return memo
        shift, z, e, m = self._pass(theta.tolist(), self.row_stack)
        pvals = e / z
        memo = _Moments(key, shift + np.log(z), m, pvals, self.rule.weights * pvals)
        self._memo = memo
        return memo

    def log_partition(self, theta) -> float:
        """psi(theta) = log integral exp(theta . c) over the domain."""
        return float(self._moments(theta).psi)

    def density_values(self, theta) -> np.ndarray:
        """Normalized density at the quadrature nodes."""
        return self._moments(theta).pvals.copy()

    def density(self, theta) -> DifferentiableFn:
        """The density exp(log p), log p = theta . c - psi built by the function algebra;
        p' = (log p)' p and p'' = ((log p)'' + (log p)'^2) p."""
        theta = np.array(theta, dtype=float)
        psi = self._moments(theta).psi
        terms = [float(t) * c for t, c in zip(theta, self.stats)]
        log_p = sum(terms[1:], terms[0]) - psi

        def value(x):
            return np.exp(log_p(x))

        def d1(x):
            return log_p.d1(x) * value(x)

        def d2(x):
            s1 = log_p.d1(x)
            return (log_p.d2(x) + s1 * s1) * value(x)

        return DifferentiableFn(value, d1, d2)

    def density_at(self, x, theta, psi=None) -> np.ndarray:
        """`density(theta)(x)` bit for bit, read off the statistics table `values_at(x)`,
        so the members at many thetas on one grid evaluate no statistic again.  `psi`
        is the log-partition at theta when the caller has it (a trajectory carries it
        at its rows), else it comes from a moment pass."""
        theta = np.array(theta, dtype=float)
        if psi is None:
            psi = self._moments(theta).psi
        else:
            self.require_admissible(theta)
        return np.exp(combine_rows(theta.tolist(), self.values_at(x)) - psi)

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
            return np.array(mom.m[1:self.n + 1])
        if count < self.n:
            raise ValueError("count must be at least n")
        if self.kind != "ep":
            raise ValueError("extended moments are defined only for the polynomial family")
        return self._monomial_rows(count) @ mom.wp

    def fisher_matrix(self, theta) -> np.ndarray:
        """Covariance matrix of the statistics at theta, from the moment pass."""
        return np.array(self._fisher(self._moments(theta).m).entries).reshape(self.n, self.n)

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

    def expectation_to_canonical(self, eta, initial=None) -> np.ndarray:
        """Invert the moment map.

        A length-2n moment vector for the polynomial family is inverted
        algebraically; a length-n vector is inverted by damped Newton
        iteration on grad psi(theta) = eta to NEWTON_TOL, started from
        `_newton_start(eta, initial)`.  Non-finite moments are refused
        (IllConditionedMoments), as no residual can be measured against them.
        """
        eta = np.asarray(eta, dtype=float)
        if self.kind == "ep" and eta.shape == (2 * self.n,):
            return canonical_from_moments(eta)
        if eta.shape != (self.n,):
            raise ValueError(
                f"expected {self.n} (or {2 * self.n} for the polynomial family) moments")
        target = eta.tolist()
        if not all(map(math.isfinite, target)):
            raise IllConditionedMoments("moments must be finite")
        theta = self._newton_start(eta, initial)
        scale = 1.0 + sup_norm(target)
        res = self._residual(theta, target)
        best = sup_norm(res)
        for _ in range(NEWTON_MAX_ITER):
            if best <= NEWTON_TOL * scale:
                return theta
            step = -np.array(self._fisher(self._moments(theta).m).solve(res))
            t = 1.0
            while t >= 2.0 ** -30:
                cand = theta + t * step
                if self.is_admissible(cand):
                    cand_res = self._residual(cand, target)
                    cand_norm = sup_norm(cand_res)
                    if cand_norm < best * (1.0 - 0.25 * t) or cand_norm <= NEWTON_TOL * scale:
                        theta, res, best = cand, cand_res, cand_norm
                        break
                t *= 0.5
            else:
                raise InadmissibleRecovery(
                    "Newton inversion stalled outside the admissible set",
                    value=theta + step)
        if best <= 10.0 * NEWTON_TOL * scale:
            return theta
        raise InadmissibleRecovery(
            f"Newton inversion did not converge (residual {best:.3e})", value=theta)

    def _residual(self, theta, target) -> list:
        """eta(theta) - target in floats, target a list of n floats."""
        return [a - b for a, b in zip(self._moments(theta).m[1:self.n + 1], target)]

    def gaussian_start(self, eta):
        """On the Gaussians, the admissible theta of the Gaussian with eta's mean and
        variance, in closed form; None on other families or when there is none.  The
        2 x 2 products are in floats, in the order numpy's matvec adds them."""
        fit = self.gaussian_fit
        if fit is None:
            return None
        (a00, a01), (a10, a11) = fit[0].tolist()
        b0, b1 = fit[1].tolist()
        e0, e1 = np.asarray(eta, dtype=float).tolist()
        mean = a00 * e0 + a01 * e1 + b0  # (E x, E x^2) = A eta + b
        var = a10 * e0 + a11 * e1 + b1 - mean * mean
        if not var > 0:
            return None
        # theta' . (x, x^2) = theta' . (A c + b) = (A' theta') . c + const
        t0, t1 = mean / var, -0.5 / var
        theta = np.array([a00 * t0 + a10 * t1, a01 * t0 + a11 * t1])
        return theta if self.is_admissible(theta) else None

    def _newton_start(self, eta, initial) -> np.ndarray:
        """The seed of every inversion: on the Gaussians `gaussian_start(eta)`, whatever
        `initial` is; else `initial` when it is admissible, else
        `default_initial_theta()`."""
        theta = self.gaussian_start(eta)
        if theta is not None:
            return theta
        if initial is not None and self.is_admissible(initial):
            return np.array(initial, dtype=float)
        return self.default_initial_theta()


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


def ep_family(n: int, rule: QuadratureRule | None = None) -> ExpFamily:
    """Polynomial family with statistics x, x^2, ..., x^n (n even)."""
    if n < 2 or n % 2 != 0:
        raise ValueError("n must be an even integer >= 2")
    stats = [monomial_fn(i) for i in range(1, n + 1)]
    return ExpFamily(stats, rule or trapezoid_rule(default_domain()), kind="ep", name=f"EP({n})")


def _degrees(values, plural: str, singular: str) -> list:
    """Sorted distinct positive degrees whose largest is even, for integrability."""
    degrees = sorted(set(int(v) for v in values))
    if not degrees or degrees[0] < 1:
        raise ValueError(f"{plural} must be positive integers")
    if degrees[-1] % 2 != 0:
        raise ValueError(f"the largest {singular} must be even for integrability")
    return degrees


def hermite_family(indices, rule: QuadratureRule | None = None) -> ExpFamily:
    """Family spanned by probabilists' Hermite polynomials He_k."""
    idx = _degrees(indices, "indices", "index")
    return ExpFamily([hermite_fn(i) for i in idx], rule or trapezoid_rule(default_domain()),
                     kind="hermite", name=f"hermite({','.join(map(str, idx))})")


def custom_poly_family(exponents, rule: QuadratureRule | None = None) -> ExpFamily:
    """Monomial statistics with arbitrary exponents; the largest must be even."""
    exps = _degrees(exponents, "exponents", "exponent")
    return ExpFamily([monomial_fn(e) for e in exps], rule or trapezoid_rule(default_domain()),
                     kind="custom-poly", name=f"poly({','.join(map(str, exps))})")
