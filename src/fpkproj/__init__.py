"""Finite-dimensional projections of scalar Fokker-Planck dynamics.

Two complementary approximations of dp/dt = L* p on a parametric family:
the locally optimal tangent-space projection of the dynamics, and the
globally optimal metric projection of a finite-difference reference
solution.  Exponential families and simple mixture families are supported,
together with the coordinate identities that make their local projections
coincide with moment-matching and Galerkin schemes.
"""

__version__ = "0.1.0"

from .errors import FpkprojError, UnderResolvedQuadrature, ValidationError
from .functions import (
    DifferentiableFn,
    constant_fn,
    cosine_fn,
    gaussian_pdf_fn,
    hermite_fn,
    monomial_fn,
    polynomial_fn,
)
from .quadrature import (
    Domain,
    QuadratureRule,
    default_domain,
    simpson_rule,
    trapezoid_rule,
)
from .sde import SdeModel, circle_diffusion, ornstein_uhlenbeck, polynomial_drift
from .expfamily import (
    ExpFamily,
    canonical_from_moments,
    custom_poly_family,
    ep_family,
    hermite_family,
)
from .mixture import MixtureFamily, cosine_circle_family, gaussian_mixture_family
from .projection import (
    ProjectedOde,
    Trajectory,
    ef_eta_rhs,
    ef_theta_rhs,
    galerkin_rhs,
    integrate_ode,
    make_ode,
    mixture_m_rhs,
    mixture_theta_rhs,
    residual,
    residual_terms,
)
from .reference import (
    DecayReport,
    GridDensity,
    decay_experiment,
    divergence_hellinger,
    divergence_kl,
    divergence_l2,
    fit_decay_rates,
    grid_density,
    metric_project_ef,
    metric_project_mix,
    solve_fpk,
)
from .scenario import Scenario, load_scenario, validate_scenario
from .runner import ResultTable, run_scenario
