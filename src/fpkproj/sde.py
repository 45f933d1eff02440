"""Time-homogeneous scalar diffusion models dX = f(X) dt + sigma(X) dW.

The model carries the drift f and the squared diffusion a = sigma**2 as
differentiable functions, plus the interval the densities live on.  The
generator acts on observables,

    L phi = f phi' + (a/2) phi'',

and its formal adjoint acts on densities,

    L* p = -(f p)' + (1/2)(a p)'',

so that <L* p, phi> = <p, L phi> for reflecting or rapidly decaying p.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .functions import DifferentiableFn, constant_fn, polynomial_fn
from .quadrature import Domain, default_domain

_PROBE_POINTS = 513


@dataclass(frozen=True)
class SdeModel:
    drift: DifferentiableFn
    diffusion: DifferentiableFn
    domain: Domain
    name: str = "custom"

    def __post_init__(self):
        x = np.linspace(self.domain.lower, self.domain.upper, _PROBE_POINTS)
        with np.errstate(over="ignore", invalid="ignore"):
            a = np.asarray(self.diffusion(x), dtype=float)
            f = np.asarray(self.drift(x), dtype=float)
        if not np.all(np.isfinite(f)):
            raise ValidationError("drift is not finite on the domain")
        if not np.all(np.isfinite(a)) or np.min(a) <= 0:
            raise ValidationError("diffusion coefficient must be positive on the domain")

    def generator_values(self, x, phi_d1, phi_d2) -> np.ndarray:
        """(L phi)(x) from phi' and phi'' sampled at x (rows broadcast over x)."""
        f = np.asarray(self.drift(x), dtype=float)
        a = np.asarray(self.diffusion(x), dtype=float)
        return f * phi_d1 + 0.5 * a * phi_d2


def ornstein_uhlenbeck(kappa: float = 1.0, sigma: float = np.sqrt(2.0),
                       domain: Domain | None = None) -> SdeModel:
    """Mean-reverting linear drift -kappa*x with constant diffusion."""
    if kappa <= 0 or sigma <= 0:
        raise ValidationError("kappa and sigma must be positive")
    if domain is None:
        domain = default_domain()
    return SdeModel(
        drift=polynomial_fn([0.0, -kappa]),
        diffusion=constant_fn(sigma * sigma),
        domain=domain,
        name="ou",
    )


def circle_diffusion(diffusion: float = 2.0) -> SdeModel:
    """Pure diffusion on [0, 2*pi] with reflecting ends."""
    if diffusion <= 0:
        raise ValidationError("diffusion must be positive")
    return SdeModel(
        drift=constant_fn(0.0),
        diffusion=constant_fn(diffusion),
        domain=Domain(0.0, 2.0 * np.pi, kind="bounded-reflecting"),
        name="circle-diffusion",
    )


def polynomial_drift(coeffs, diffusion: float = 2.0,
                     domain: Domain | None = None) -> SdeModel:
    """Polynomial drift (ascending coefficients) with constant diffusion."""
    if diffusion <= 0:
        raise ValidationError("diffusion must be positive")
    if domain is None:
        domain = default_domain()
    return SdeModel(
        drift=polynomial_fn(coeffs),
        diffusion=constant_fn(diffusion),
        domain=domain,
        name="polynomial-drift",
    )
