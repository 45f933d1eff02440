"""An independent check of the analytic derivatives a `DifferentiableFn` carries."""

import numpy as np

from fpkproj import DifferentiableFn, Domain


def check_derivatives(fn: DifferentiableFn, domain: Domain, points: int = 25,
                      rng=None, h: float = 1e-5) -> float:
    """Max relative deviation of d1/d2 from central differences at random points."""
    if rng is None:
        rng = np.random.default_rng(0)
    pad = 2 * h * domain.width
    x = rng.uniform(domain.lower + pad, domain.upper - pad, size=points)
    step = h * max(1.0, domain.width / 24.0)
    f0 = fn(x)
    fp = fn(x + step)
    fm = fn(x - step)
    scale1 = np.maximum(1.0, np.abs(fn.d1(x)))
    scale2 = np.maximum(1.0, np.abs(fn.d2(x)))
    err1 = np.abs((fp - fm) / (2 * step) - fn.d1(x)) / scale1
    err2 = np.abs((fp - 2 * f0 + fm) / step ** 2 - fn.d2(x)) / scale2
    return float(max(err1.max(), err2.max()))
