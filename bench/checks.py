"""Correctness checks on the files a scenario run writes.

Each check reads the run's output directory and returns the worst absolute
error against a closed form or a paper identity.  The reference values are
computed here with plain numpy on the same quadrature rules the package
documents (composite Simpson with 4097 nodes, trapezoid on the PDE grid),
not by calling back into the package.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np

from workloads import QUADRATURE_NODES

# Worst error a run may show before the scenario counts as failed.  The
# observed errors at the shipped step sizes sit near 1e-12 or below; the
# budgets leave room for round-off but not for a coarser rule or a looser
# solver tolerance.
ERROR_BUDGET = {
    "ef_moment_flow": 1e-9,
    "mixture_flow": 1e-9,
    "reference_projection": 1e-9,
}

# Golden comparison: |got - want| <= GOLDEN_RTOL * |want| + GOLDEN_ATOL.
# The absolute floor covers quantities that are round-off by construction
# (projection residuals, mismatch of matched starts).
GOLDEN_RTOL = 1e-8
GOLDEN_ATOL = 1e-11


def read_table(path):
    """Trajectory CSV as a header tuple and float rows (None for empty cells)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = tuple(rows[0])
    body = [[float(v) if v != "" else None for v in row] for row in rows[1:]]
    return header, body


def _columns(header, body, prefix):
    idx = [i for i, name in enumerate(header) if name.startswith(prefix)]
    return np.array([[row[i] for i in idx] for row in body], dtype=float)


def _times(body):
    return np.array([row[0] for row in body])


def _simpson(lower, upper):
    x = np.linspace(lower, upper, QUADRATURE_NODES)
    w = np.full(QUADRATURE_NODES, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return x, w * (upper - lower) / (QUADRATURE_NODES - 1) / 3.0


def _trapezoid(x):
    w = np.full(x.size, x[1] - x[0])
    w[0] = w[-1] = 0.5 * (x[1] - x[0])
    return w


def _domain(raw):
    if raw["model"]["type"] == "circle-diffusion":
        return 0.0, 2.0 * math.pi
    return -12.0, 12.0


def _ef_stats(family, x):
    if family["type"] == "ep":
        return np.vstack([x ** k for k in range(1, family["n"] + 1)])
    if family["indices"] != [1, 2]:
        raise ValueError("only Hermite(1,2) statistics are generated")
    return np.vstack([x, x * x - 1.0])


def _mixture_components(family, x):
    if family["type"] == "gaussian-mixture":
        return np.vstack([np.exp(-0.5 * (x - mu) ** 2 / v) / math.sqrt(2.0 * math.pi * v)
                          for mu, v in zip(family["means"], family["variances"])])
    scale = 1.0 / (2.0 * math.pi)
    rows = [scale * (1.0 + np.cos(k * x)) for k in family["harmonics"]]
    rows.append(np.full(x.size, scale))
    return np.vstack(rows)


def _sliced_rows(raw, header, body, out_dir):
    """(row, theta, grid x, grid p) for every row with a density slice on disk."""
    wanted = {format(float(t), "g") for t in raw["outputs"]["density_times"]}
    theta_idx = [i for i, name in enumerate(header) if name.startswith("theta_")]
    out = []
    for row in body:
        if format(row[0], "g") in wanted:
            data = np.loadtxt(Path(out_dir) / f"density_t{format(row[0], 'g')}.csv",
                              delimiter=",", skiprows=1)
            out.append((row, np.array([row[i] for i in theta_idx]), data[:, 0], data[:, 1]))
    if len(out) != len(wanted):
        raise ValueError(f"expected {len(wanted)} sliced rows, found {len(out)}")
    return out


def ou_eta(raw, params, out_dir, tables):
    """Expectation coordinates against the OU closed form.

    E[x] = m0 e^{-kt}, Var = v0 e^{-2kt} + sigma^2/(2k) (1 - e^{-2kt});
    Hermite uses eta_2 = E[x^2] - 1.  Starts not given in closed form
    (matched decay runs) are read from the first row.
    """
    header, body = tables
    t = _times(body)
    eta = _columns(header, body, "eta_or_m_")
    shift = 1.0 if params["hermite"] else 0.0
    if "m0" in params:
        m0, v0 = params["m0"], params["v0"]
    else:
        m0 = eta[0, 0]
        v0 = eta[0, 1] + shift - m0 * m0
    k, s2 = params["kappa"], params["sigma"] ** 2
    mean = m0 * np.exp(-k * t)
    var = v0 * np.exp(-2.0 * k * t) + s2 / (2.0 * k) * (1.0 - np.exp(-2.0 * k * t))
    want = np.column_stack([mean, var + mean * mean - shift])
    return float(np.max(np.abs(eta - want)))


def circle_theta(raw, params, out_dir, tables):
    """Cosine-circle weights decay as theta_k(0) exp(-k^2 a t / 2)."""
    header, body = tables
    t = _times(body)
    theta = _columns(header, body, "theta_")
    a = raw["model"]["diffusion"]
    rates = np.array([k * k * a / 2.0 for k in raw["family"]["harmonics"]])
    want = np.array(raw["initial"]["theta"]) * np.exp(-np.outer(t, rates))
    return float(np.max(np.abs(theta - want)))


def circle_decay(raw, params, out_dir, tables):
    """Projected circle moments m_k decay at the eigenvalue rates k^2 a / 2."""
    header, body = tables
    t = _times(body)
    m = _columns(header, body, "eta_or_m_")
    a = raw["model"]["diffusion"]
    rates = np.array([k * k * a / 2.0 for k in raw["family"]["harmonics"]])
    want = m[0] * np.exp(-np.outer(t, rates))
    return float(np.max(np.abs(m - want)))


def same_theta(raw, params, out_dir, tables, peer_tables):
    """tangent-mix, ada-mix and galerkin integrate the same vector field."""
    theta = _columns(*tables, "theta_")
    peer = _columns(*peer_tables, "theta_")
    if theta.shape != peer.shape:
        return math.inf
    return float(np.max(np.abs(theta - peer)))


def reference_rows(raw, params, out_dir, tables):
    """Divergence columns are only valid at reference snapshot times."""
    header, body = tables
    num = raw["numerics"]
    nsteps = int(round(num["t_end"] / num["pde_dt"]))
    snaps = np.array([k * num["pde_dt"] for k in range(nsteps + 1)
                      if k % num["sample_stride"] == 0 or k == nsteps])
    kl = header.index("kl")
    worst = 0.0
    for row in body:
        if row[kl] is not None:
            worst = max(worst, float(np.min(np.abs(snaps - row[0]))))
    return worst


def kl_certificate(raw, params, out_dir, tables):
    """KL optimality: |E_theta[c] - E_p[c]| at every sliced snapshot."""
    header, body = tables
    family = raw["family"]
    x, w = _simpson(*_domain(raw))
    stats = _ef_stats(family, x)
    worst = 0.0
    for _, th, gx, gp in _sliced_rows(raw, header, body, out_dir):
        s = th @ stats
        p = np.exp(s - s.max())
        p /= w @ p
        model_moments = stats @ (w * p)
        data_moments = _ef_stats(family, gx) @ (_trapezoid(gx) * gp)
        worst = max(worst, float(np.max(np.abs(model_moments - data_moments))))
    return worst


def l2_certificate(raw, params, out_dir, tables):
    """L2 optimality: normal-equation residual |gamma theta + beta - m_tilde|.

    Rows flagged as clamped hold the simplex projection of an optimum that
    left the simplex, so the normal equations do not apply to them.
    """
    header, body = tables
    family = raw["family"]
    x, w = _simpson(*_domain(raw))
    q = _mixture_components(family, x)
    d = q[:-1] - q[-1]
    gamma = (d * w) @ d.T
    beta = (d * w) @ q[-1]
    clamped = header.index("clamped")
    worst = 0.0
    for row, th, gx, gp in _sliced_rows(raw, header, body, out_dir):
        if row[clamped]:
            continue
        gq = _mixture_components(family, gx)
        m_tilde = (gq[:-1] - gq[-1]) @ (_trapezoid(gx) * gp)
        worst = max(worst, float(np.max(np.abs(gamma @ th + beta - m_tilde))))
    return worst


CHECKS = {
    "ou_eta": ou_eta,
    "circle_theta": circle_theta,
    "circle_decay": circle_decay,
    "same_theta": same_theta,
    "reference_rows": reference_rows,
    "kl_certificate": kl_certificate,
    "l2_certificate": l2_certificate,
}


def run_check(case, out_dir, tables_by_name) -> float:
    """Worst error of one case; peers are looked up in tables_by_name."""
    fn = CHECKS[case.check]
    tables = tables_by_name[case.name]
    if case.check == "same_theta":
        return fn(case.raw, case.params, out_dir, tables, tables_by_name[case.params["as"]])
    return fn(case.raw, case.params, out_dir, tables)


# -- golden outputs -----------------------------------------------------------


def capture(out_dir) -> dict:
    """Every number a scenario run writes, in a form the golden file stores.

    Density slices are summarized by mass, mean and maximum to keep the
    golden files small.
    """
    out_dir = Path(out_dir)
    record = {"trajectory": read_table(out_dir / "trajectory.csv")[1]}
    decay = out_dir / "decay.json"
    if decay.exists():
        data = json.loads(decay.read_text())
        record["decay"] = {k: data[k] for k in ("eigenvalues", "fitted_rates",
                                                "max_abs_epsilon")}
    slices = {}
    for path in sorted(out_dir.glob("density_t*.csv")):
        gx, gp = np.loadtxt(path, delimiter=",", skiprows=1).T
        tw = _trapezoid(gx)
        slices[path.name] = [float(tw @ gp), float(tw @ (gx * gp)), float(gp.max())]
    if slices:
        record["densities"] = slices
    return record


def _mismatch(got, want, path):
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path}: keys differ"
        for key in want:
            msg = _mismatch(got[key], want[key], f"{path}.{key}")
            if msg:
                return msg
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            msg = _mismatch(g, w, f"{path}[{i}]")
            if msg:
                return msg
        return None
    if want is None or got is None:
        return None if want is got else f"{path}: {got!r} != {want!r}"
    if not abs(got - want) <= GOLDEN_RTOL * abs(want) + GOLDEN_ATOL:
        return f"{path}: {got!r} differs from golden {want!r}"
    return None


def golden_mismatch(record, golden) -> str | None:
    """First value outside the golden tolerance, or None when all agree."""
    if golden is None:
        return "no golden record"
    return _mismatch(record, golden, "outputs")
