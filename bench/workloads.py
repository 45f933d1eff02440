"""Seeded scenario generators for the three benchmark workloads.

Every workload is a list of cases.  A case holds the scenario mapping that
is handed to ``fpkproj.validate_scenario`` and the name of the check in
``checks.py`` that judges its outputs.  The package only ever sees the
mappings.

Step sizes and node counts are the shipped ones (4097 quadrature nodes,
``ode_dt = pde_dt = 1e-3``, ``pde_nx`` 1201 or 2001); only the physical
inputs are drawn from the seed.  The horizons ``t_end`` are fixed per
workload, so every seed does the same number of RK4 and Crank-Nicolson
steps and run time varies with the inputs alone.
"""

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("ef_moment_flow", "mixture_flow", "reference_projection")
DEFAULT_SEED = 1

QUADRATURE_NODES = 2 ** 12 + 1  # the package default, quadrature_level 12
STEP = 1e-3                     # shipped ode_dt and pde_dt
STRIDE = 10                     # sample stride of the trajectory methods


@dataclass(frozen=True)
class Case:
    """One scenario execution and how to judge it."""

    raw: dict
    check: str
    params: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.raw["name"]


def _u(rng, lo, hi):
    return round(rng.uniform(lo, hi), 4)


def _ou(rng):
    """OU model with stationary variance sigma^2 / (2 kappa) in [0.4, 1.6].

    Bounding the stationary variance keeps every density at least seven
    standard deviations inside the default domain [-12, 12], so the
    truncated quadrature stays at round-off.
    """
    kappa = _u(rng, 0.5, 1.5)
    stationary_var = _u(rng, 0.4, 1.6)
    return {"type": "ou", "kappa": kappa, "sigma": math.sqrt(2.0 * kappa * stationary_var)}


def _bimodal(rng):
    w = _u(rng, 0.3, 0.7)
    return {"type": "gaussian-mixture", "weights": [w, round(1.0 - w, 4)],
            "means": [_u(rng, -1.5, -0.4), _u(rng, 0.4, 1.5)],
            "variances": [_u(rng, 0.15, 0.5), _u(rng, 0.15, 0.5)]}


def _numerics(t_end, **extra):
    return {"t_end": t_end, "ode_dt": STEP, "sample_stride": STRIDE, **extra}


def ef_moment_flow(seed: int) -> list:
    """OU flows on EP(2) and Hermite(1,2): ada-ef, tangent-ef, decay experiments."""
    rng = random.Random(f"ef_moment_flow/{seed}")
    # four instances on a short horizon rather than two on a long one: the
    # Newton iteration count depends on the drawn inputs, and summing over
    # more instances shrinks how much one seed's draw moves the pass time
    t_end = 0.12
    cases = []
    for i in range(4):
        model = _ou(rng)
        m0, v0 = _u(rng, -1.0, 1.0), _u(rng, 0.3, 2.0)
        hermite = i % 2 == 1
        family = {"type": "hermite", "indices": [1, 2]} if hermite else {"type": "ep", "n": 2}
        eta0 = [m0, v0 + m0 * m0 - (1.0 if hermite else 0.0)]
        closed = {"kappa": model["kappa"], "sigma": model["sigma"], "m0": m0, "v0": v0,
                  "hermite": hermite}
        cases.append(Case({
            "name": f"ef{i}_ada", "method": "ada-ef", "model": model, "family": family,
            "numerics": _numerics(t_end), "initial": {"eta": eta0}}, "ou_eta", closed))
        cases.append(Case({
            "name": f"ef{i}_tangent", "method": "tangent-ef", "model": model,
            "family": family, "numerics": _numerics(t_end, record_residual=True),
            "initial": {"theta": [m0 / v0, -0.5 / v0]}}, "ou_eta", closed))

        # Hermite statistics are generator eigenfunctions only when the
        # stationary variance is 1, which the decay experiment requires.
        kappa = _u(rng, 0.5, 1.5)
        decay_model = {"type": "ou", "kappa": kappa, "sigma": math.sqrt(2.0 * kappa)}
        decay_numerics = _numerics(t_end, pde_nx=1201, pde_dt=STEP)
        density = _bimodal(rng)
        from_row0 = {"kappa": kappa, "sigma": decay_model["sigma"], "hermite": True}
        cases.append(Case({
            "name": f"ef{i}_decay_matched", "method": "decay-experiment",
            "model": decay_model, "family": {"type": "hermite", "indices": [1, 2]},
            "numerics": decay_numerics, "initial": {"density": density}},
            "ou_eta", from_row0))
        cases.append(Case({
            "name": f"ef{i}_decay_start", "method": "decay-experiment",
            "model": decay_model, "family": {"type": "hermite", "indices": [1, 2]},
            "numerics": decay_numerics,
            "initial": {"eta": [m0, v0 + m0 * m0 - 1.0], "density": density}},
            "ou_eta", dict(from_row0, m0=m0, v0=v0)))
    return cases


def mixture_flow(seed: int) -> list:
    """Cosine-circle and Gaussian-mixture flows under all three mixture methods."""
    rng = random.Random(f"mixture_flow/{seed}")
    t_end = 0.5
    cases = []
    for i in range(2):
        harmonics = sorted(rng.sample([1, 2, 3], 2))
        model = {"type": "circle-diffusion", "diffusion": _u(rng, 0.5, 2.5)}
        family = {"type": "cosine-circle", "harmonics": harmonics}
        theta0 = [_u(rng, 0.1, 0.45), _u(rng, 0.1, 0.45)]
        for method in ("tangent-mix", "ada-mix", "galerkin"):
            cases.append(Case({
                "name": f"circle{i}_{method}", "method": method, "model": model,
                "family": family, "numerics": _numerics(t_end),
                "initial": {"theta": theta0}}, "circle_theta"))

    for i in range(2):
        model = _ou(rng)
        means = [_u(rng, -1.6, -0.6), _u(rng, -0.3, 0.3), _u(rng, 0.6, 1.6)]
        variances = [_u(rng, 0.3, 0.8) for _ in means]
        family = {"type": "gaussian-mixture", "means": means, "variances": variances}
        theta0 = [_u(rng, 0.2, 0.4), _u(rng, 0.2, 0.4)]
        member = {"type": "gaussian-mixture",
                  "weights": [*theta0, round(1.0 - sum(theta0), 4)],
                  "means": means, "variances": variances}
        base = f"gauss{i}_tangent-mix"
        cases.append(Case({
            "name": base, "method": "tangent-mix", "model": model, "family": family,
            "numerics": _numerics(t_end, pde_nx=1201, pde_dt=STEP, attach_reference=True),
            "initial": {"theta": theta0, "density": member}}, "reference_rows"))
        for method in ("ada-mix", "galerkin"):
            cases.append(Case({
                "name": f"gauss{i}_{method}", "method": method, "model": model,
                "family": family, "numerics": _numerics(t_end),
                "initial": {"theta": theta0}}, "same_theta", {"as": base}))
    return cases


def reference_projection(seed: int) -> list:
    """Metric projections of 2001-node reference solutions, plus a circle decay run.

    The cosine start is projected onto the cosine-circle family only: with
    nonnegative weights those densities are flatter than uniform on
    [0, 2 pi], while EP(2) and Hermite(1,2) members with theta_2 < 0 are
    more concentrated, so no cosine start is admissible for both.
    """
    rng = random.Random(f"reference_projection/{seed}")
    t_end, stride = 1.0, 100
    numerics = {"t_end": t_end, "pde_nx": 2001, "pde_dt": STEP, "sample_stride": stride}
    # three density slices (start, middle, end); the optimality certificates
    # in checks.py are recomputed at these snapshots
    outputs = {"density_times": [0.0, t_end / 2, t_end]}
    cases = []
    for i in range(2):
        model = _ou(rng)
        density = _bimodal(rng)
        stationary_var = model["sigma"] ** 2 / (2.0 * model["kappa"])
        families = (
            ("ep2", {"type": "ep", "n": 2}, "kl_certificate"),
            ("hermite12", {"type": "hermite", "indices": [1, 2]}, "kl_certificate"),
            ("mix", {"type": "gaussian-mixture",
                     "means": [density["means"][0], 0.0, density["means"][1]],
                     "variances": [density["variances"][0], round(stationary_var, 4),
                                   density["variances"][1]]}, "l2_certificate"),
        )
        for label, family, check in families:
            cases.append(Case({
                "name": f"bimodal{i}_{label}", "method": "metric-projection", "model": model,
                "family": family, "numerics": numerics,
                "initial": {"density": density}, "outputs": outputs}, check))

    model = {"type": "circle-diffusion", "diffusion": _u(rng, 0.5, 2.5)}
    density = {"type": "cosine",
               "coefficients": [_u(rng, 0.05, 0.3) for _ in range(3)]}
    cases.append(Case({
        "name": "cosine_mix", "method": "metric-projection", "model": model,
        "family": {"type": "cosine-circle", "harmonics": [1, 2, 3]}, "numerics": numerics,
        "initial": {"density": density}, "outputs": outputs}, "l2_certificate"))
    cases.append(Case({
        "name": "cosine_decay", "method": "decay-experiment", "model": model,
        "family": {"type": "cosine-circle", "harmonics": [1, 2]},
        "numerics": {**numerics, "ode_dt": STEP, "sample_stride": STRIDE},
        "initial": {"density": density}}, "circle_decay"))
    return cases


GENERATORS = {
    "ef_moment_flow": ef_moment_flow,
    "mixture_flow": mixture_flow,
    "reference_projection": reference_projection,
}


def generate(workload: str, seed: int) -> list:
    """The cases of one workload; the same seed always gives the same mappings."""
    if workload not in GENERATORS:
        raise KeyError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")
    return GENERATORS[workload](seed)


def step_counts(cases) -> dict:
    """RK4 and Crank-Nicolson steps one pass over the cases performs."""
    rk4 = cn = 0
    nx = set()
    for case in cases:
        num, method = case.raw["numerics"], case.raw["method"]
        if method != "metric-projection":
            rk4 += int(round(num["t_end"] / num["ode_dt"]))
        if method in ("metric-projection", "decay-experiment") or num.get("attach_reference"):
            cn += int(round(num["t_end"] / num["pde_dt"]))
            nx.add(num["pde_nx"])
    return {"rk4_steps": rk4, "cn_steps": cn, "pde_nx": sorted(nx)}
