"""Scenario files: schema, validation, and construction of runtime objects.

A scenario is a YAML mapping with sections model / family / method /
numerics / initial / outputs.  Validation is strict: unknown keys are
rejected by name, required fields are reported with their full path, and
method/family compatibility is checked before anything is built.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .errors import ValidationError
from .expfamily import custom_poly_family, ep_family, hermite_family
from .functions import DifferentiableFn, constant_fn, cosine_fn, gaussian_pdf_fn
from .mixture import cosine_circle_family, gaussian_mixture_family
from .projection import EF_METHODS, MIX_METHODS
from .projection import METHODS as ODE_METHODS
from .quadrature import Domain, default_domain, simpson_rule
from .sde import circle_diffusion, ornstein_uhlenbeck, polynomial_drift

METHODS = ODE_METHODS + ("metric-projection", "decay-experiment")
EF_FAMILIES = ("ep", "hermite", "custom-poly")
MIX_FAMILIES = ("gaussian-mixture", "cosine-circle")

_TOP_KEYS = {"name", "model", "family", "method", "numerics", "initial", "outputs"}
_MODEL_KEYS = {
    "ou": {"type", "kappa", "sigma"},
    "circle-diffusion": {"type", "diffusion"},
    "polynomial-drift": {"type", "coefficients", "diffusion"},
}
_FAMILY_KEYS = {
    "ep": {"type", "n"},
    "hermite": {"type", "indices"},
    "custom-poly": {"type", "exponents"},
    "gaussian-mixture": {"type", "means", "variances"},
    "cosine-circle": {"type", "harmonics"},
}
_NUMERICS_KEYS = {
    "domain", "quadrature_level", "ode_dt", "pde_nx", "pde_dt", "t_end",
    "sample_stride", "fit_window", "record_residual", "attach_reference",
}
_INITIAL_KEYS = {"theta", "eta", "m", "density"}
_DENSITY_KEYS = {
    "gaussian": {"type", "mean", "var"},
    "gaussian-mixture": {"type", "weights", "means", "variances"},
    "cosine": {"type", "coefficients"},
}
_OUTPUT_KEYS = {"trajectory", "decay", "density_times"}


def _require_mapping(value, path):
    if not isinstance(value, dict):
        raise ValidationError(f"{path} must be a mapping")
    return value


def _reject_unknown(mapping, allowed, path):
    for key in mapping:
        if key not in allowed:
            raise ValidationError(f"unknown key {key!r} in {path}")


def _as_float(value, path):
    if isinstance(value, bool):
        raise ValidationError(f"{path} must be a number")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            pass
    raise ValidationError(f"{path} must be a number, got {value!r}")


def _as_int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path} must be an integer, got {value!r}")
    return value


def _as_bool(value, path):
    if not isinstance(value, bool):
        raise ValidationError(f"{path} must be true or false")
    return value


def _as_float_list(value, path, length=None):
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{path} must be a list of numbers")
    out = [_as_float(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if length is not None and len(out) != length:
        raise ValidationError(f"{path} must have length {length}")
    return out


@dataclass(frozen=True)
class Numerics:
    t_end: float
    domain: tuple | None = None
    quadrature_level: int = 12
    ode_dt: float = 1e-3
    pde_nx: int = 2001
    pde_dt: float = 1e-3
    sample_stride: int = 10
    fit_window: tuple | None = None
    record_residual: bool = False
    attach_reference: bool = False


@dataclass(frozen=True)
class Scenario:
    name: str
    model: dict
    family: dict
    method: str
    numerics: Numerics
    initial: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)


def _validate_model(spec):
    spec = _require_mapping(spec, "model")
    mtype = spec.get("type")
    if mtype not in _MODEL_KEYS:
        raise ValidationError(
            f"model.type must be one of {sorted(_MODEL_KEYS)}, got {mtype!r}")
    _reject_unknown(spec, _MODEL_KEYS[mtype], "model")
    out = {"type": mtype}
    if mtype == "ou":
        out["kappa"] = _as_float(spec.get("kappa", 1.0), "model.kappa")
        out["sigma"] = _as_float(spec.get("sigma", np.sqrt(2.0)), "model.sigma")
        if out["kappa"] <= 0 or out["sigma"] <= 0:
            raise ValidationError("model.kappa and model.sigma must be positive")
    elif mtype == "circle-diffusion":
        out["diffusion"] = _as_float(spec.get("diffusion", 2.0), "model.diffusion")
        if out["diffusion"] <= 0:
            raise ValidationError("model.diffusion must be positive")
    else:
        if "coefficients" not in spec:
            raise ValidationError("model.coefficients required")
        out["coefficients"] = _as_float_list(spec["coefficients"], "model.coefficients")
        out["diffusion"] = _as_float(spec.get("diffusion", 2.0), "model.diffusion")
        if out["diffusion"] <= 0:
            raise ValidationError("model.diffusion must be positive")
    return out


def _validate_family(spec):
    spec = _require_mapping(spec, "family")
    ftype = spec.get("type")
    if ftype not in _FAMILY_KEYS:
        raise ValidationError(
            f"family.type must be one of {sorted(_FAMILY_KEYS)}, got {ftype!r}")
    _reject_unknown(spec, _FAMILY_KEYS[ftype], "family")
    out = {"type": ftype}
    if ftype == "ep":
        n = _as_int(spec.get("n", 2), "family.n")
        if n < 2 or n % 2 != 0:
            raise ValidationError("family.n must be an even integer >= 2")
        out["n"] = n
    elif ftype == "hermite":
        if "indices" not in spec:
            raise ValidationError("family.indices required")
        out["indices"] = [_as_int(i, "family.indices[]") for i in spec["indices"]]
    elif ftype == "custom-poly":
        if "exponents" not in spec:
            raise ValidationError("family.exponents required")
        out["exponents"] = [_as_int(i, "family.exponents[]") for i in spec["exponents"]]
    elif ftype == "gaussian-mixture":
        if "means" not in spec or "variances" not in spec:
            raise ValidationError("family.means and family.variances required")
        out["means"] = _as_float_list(spec["means"], "family.means")
        out["variances"] = _as_float_list(spec["variances"], "family.variances",
                                          length=len(out["means"]))
    else:
        if "harmonics" not in spec:
            raise ValidationError("family.harmonics required")
        out["harmonics"] = [_as_int(i, "family.harmonics[]") for i in spec["harmonics"]]
    return out


def _validate_numerics(spec):
    spec = _require_mapping(spec, "numerics")
    _reject_unknown(spec, _NUMERICS_KEYS, "numerics")
    if "t_end" not in spec:
        raise ValidationError("numerics.t_end required")
    kwargs = {"t_end": _as_float(spec["t_end"], "numerics.t_end")}
    if kwargs["t_end"] <= 0:
        raise ValidationError("numerics.t_end must be positive")
    if "domain" in spec:
        lo, hi = _as_float_list(spec["domain"], "numerics.domain", length=2)
        if not lo < hi:
            raise ValidationError("numerics.domain must satisfy lower < upper")
        kwargs["domain"] = (lo, hi)
    if "quadrature_level" in spec:
        level = _as_int(spec["quadrature_level"], "numerics.quadrature_level")
        if not 3 <= level <= 20:
            raise ValidationError("numerics.quadrature_level must be between 3 and 20")
        kwargs["quadrature_level"] = level
    for key in ("ode_dt", "pde_dt"):
        if key in spec:
            val = _as_float(spec[key], f"numerics.{key}")
            if val <= 0:
                raise ValidationError(f"numerics.{key} must be positive")
            kwargs[key] = val
    if "pde_nx" in spec:
        nx = _as_int(spec["pde_nx"], "numerics.pde_nx")
        if nx < 3:
            raise ValidationError("numerics.pde_nx must be at least 3")
        kwargs["pde_nx"] = nx
    if "sample_stride" in spec:
        stride = _as_int(spec["sample_stride"], "numerics.sample_stride")
        if stride < 1:
            raise ValidationError("numerics.sample_stride must be at least 1")
        kwargs["sample_stride"] = stride
    if "fit_window" in spec:
        lo, hi = _as_float_list(spec["fit_window"], "numerics.fit_window", length=2)
        if not 0 <= lo < hi:
            raise ValidationError("numerics.fit_window must satisfy 0 <= lower < upper")
        kwargs["fit_window"] = (lo, hi)
    for key in ("record_residual", "attach_reference"):
        if key in spec:
            kwargs[key] = _as_bool(spec[key], f"numerics.{key}")
    return Numerics(**kwargs)


def _validate_density(spec, path):
    spec = _require_mapping(spec, path)
    dtype = spec.get("type")
    if dtype not in _DENSITY_KEYS:
        raise ValidationError(
            f"{path}.type must be one of {sorted(_DENSITY_KEYS)}, got {dtype!r}")
    _reject_unknown(spec, _DENSITY_KEYS[dtype], path)
    out = {"type": dtype}
    if dtype == "gaussian":
        out["mean"] = _as_float(spec.get("mean", 0.0), f"{path}.mean")
        out["var"] = _as_float(spec.get("var", 1.0), f"{path}.var")
        if out["var"] <= 0:
            raise ValidationError(f"{path}.var must be positive")
    elif dtype == "gaussian-mixture":
        for key in ("weights", "means", "variances"):
            if key not in spec:
                raise ValidationError(f"{path}.{key} required")
        out["weights"] = _as_float_list(spec["weights"], f"{path}.weights")
        k = len(out["weights"])
        out["means"] = _as_float_list(spec["means"], f"{path}.means", length=k)
        out["variances"] = _as_float_list(spec["variances"], f"{path}.variances", length=k)
        if any(w < 0 for w in out["weights"]) or abs(sum(out["weights"]) - 1.0) > 1e-9:
            raise ValidationError(f"{path}.weights must be nonnegative and sum to 1")
        if any(v <= 0 for v in out["variances"]):
            raise ValidationError(f"{path}.variances must be positive")
    else:
        if "coefficients" not in spec:
            raise ValidationError(f"{path}.coefficients required")
        out["coefficients"] = _as_float_list(spec["coefficients"], f"{path}.coefficients")
    return out


def _validate_initial(spec, method):
    if spec is None:
        spec = {}
    spec = _require_mapping(spec, "initial")
    _reject_unknown(spec, _INITIAL_KEYS, "initial")
    out = {}
    for key in ("theta", "eta", "m"):
        if key in spec:
            out[key] = _as_float_list(spec[key], f"initial.{key}")
    if "density" in spec:
        out["density"] = _validate_density(spec["density"], "initial.density")
    if method == "tangent-ef" and "theta" not in out:
        raise ValidationError("initial.theta required for tangent-ef")
    if method == "ada-ef" and "eta" not in out and "theta" not in out:
        raise ValidationError("initial.eta or initial.theta required for ada-ef")
    if method in ("tangent-mix", "galerkin") and "theta" not in out:
        raise ValidationError(f"initial.theta required for {method}")
    if method == "ada-mix" and "m" not in out and "theta" not in out:
        raise ValidationError("initial.m or initial.theta required for ada-mix")
    if method in ("metric-projection", "decay-experiment") and "density" not in out:
        raise ValidationError(f"initial.density required for {method}")
    return out


def _validate_outputs(spec):
    if spec is None:
        spec = {}
    spec = _require_mapping(spec, "outputs")
    _reject_unknown(spec, _OUTPUT_KEYS, "outputs")
    out = {
        "trajectory": spec.get("trajectory", "trajectory.csv"),
        "decay": spec.get("decay", "decay.json"),
    }
    for key in ("trajectory", "decay"):
        if not isinstance(out[key], str) or not out[key]:
            raise ValidationError(f"outputs.{key} must be a file name")
    if "density_times" in spec:
        out["density_times"] = _as_float_list(spec["density_times"], "outputs.density_times")
    else:
        out["density_times"] = []
    return out


def validate_scenario(raw: dict, name: str = "scenario") -> Scenario:
    raw = _require_mapping(raw, "scenario")
    _reject_unknown(raw, _TOP_KEYS, "scenario")
    for key in ("model", "family", "method", "numerics"):
        if key not in raw:
            raise ValidationError(f"scenario.{key} required")
    method = raw["method"]
    if method not in METHODS:
        raise ValidationError(f"method must be one of {METHODS}, got {method!r}")
    model = _validate_model(raw["model"])
    family = _validate_family(raw["family"])
    if method in EF_METHODS and family["type"] not in EF_FAMILIES:
        raise ValidationError("method/family mismatch: "
                              f"{method} needs an exponential family, got {family['type']}")
    if method in MIX_METHODS and family["type"] not in MIX_FAMILIES:
        raise ValidationError("method/family mismatch: "
                              f"{method} needs a mixture family, got {family['type']}")
    numerics = _validate_numerics(raw["numerics"])
    initial = _validate_initial(raw.get("initial"), method)
    outputs = _validate_outputs(raw.get("outputs"))
    if numerics.attach_reference and "density" not in initial:
        raise ValidationError("initial.density required when numerics.attach_reference is set")
    if family["type"] == "cosine-circle" and model["type"] != "circle-diffusion":
        raise ValidationError("cosine-circle families require the circle-diffusion model")
    scenario_name = raw.get("name", name)
    if not isinstance(scenario_name, str) or not scenario_name:
        raise ValidationError("scenario.name must be a nonempty string")
    return Scenario(name=scenario_name, model=model, family=family, method=method,
                    numerics=numerics, initial=initial, outputs=outputs)


def apply_overrides(raw: dict, overrides) -> dict:
    """Apply dotted key=value overrides onto the raw mapping."""
    for item in overrides or []:
        if "=" not in item:
            raise ValidationError(f"override {item!r} must look like section.key=value")
        path, text = item.split("=", 1)
        keys = [k for k in path.strip().split(".") if k]
        if not keys:
            raise ValidationError(f"override {item!r} has an empty key path")
        try:
            value = yaml.safe_load(text)
        except yaml.YAMLError as err:
            raise ValidationError(f"override value {text!r} is not valid YAML: {err}") from err
        node = raw
        for key in keys[:-1]:
            nxt = node.get(key)
            if nxt is None:
                nxt = {}
                node[key] = nxt
            if not isinstance(nxt, dict):
                raise ValidationError(f"override path {path!r} crosses a non-mapping")
            node = nxt
        node[keys[-1]] = value
    return raw


def load_scenario(path, overrides=None) -> Scenario:
    """Read, override, and validate a scenario file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ValidationError(f"cannot read scenario file {path}: {err}") from err
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as err:
        raise ValidationError(f"parse error in {path.name}: {err}") from err
    if raw is None:
        raise ValidationError(f"{path.name} is empty")
    raw = apply_overrides(_require_mapping(raw, "scenario"), overrides)
    return validate_scenario(raw, name=path.stem)


# -- construction of runtime objects -----------------------------------


def scenario_domain(scenario: Scenario) -> Domain:
    if scenario.model["type"] == "circle-diffusion":
        return Domain(0.0, 2.0 * np.pi, kind="bounded-reflecting")
    if scenario.numerics.domain is not None:
        lo, hi = scenario.numerics.domain
        return Domain(lo, hi)
    return default_domain()


def build_model(scenario: Scenario, domain: Domain):
    spec = scenario.model
    if spec["type"] == "ou":
        return ornstein_uhlenbeck(spec["kappa"], spec["sigma"], domain=domain)
    if spec["type"] == "circle-diffusion":
        return circle_diffusion(spec["diffusion"])
    return polynomial_drift(spec["coefficients"], spec["diffusion"], domain=domain)


def build_family(scenario: Scenario, domain: Domain):
    spec = scenario.family
    rule = simpson_rule(domain, scenario.numerics.quadrature_level)
    if spec["type"] == "ep":
        return ep_family(spec["n"], rule=rule)
    if spec["type"] == "hermite":
        return hermite_family(spec["indices"], rule=rule)
    if spec["type"] == "custom-poly":
        return custom_poly_family(spec["exponents"], rule=rule)
    if spec["type"] == "gaussian-mixture":
        return gaussian_mixture_family(spec["means"], spec["variances"], rule=rule)
    return cosine_circle_family(spec["harmonics"], rule=rule)


def build_initial_density(spec: dict) -> DifferentiableFn:
    if spec["type"] == "gaussian":
        return gaussian_pdf_fn(spec["mean"], spec["var"])
    if spec["type"] == "gaussian-mixture":
        acc = None
        for w, mu, v in zip(spec["weights"], spec["means"], spec["variances"]):
            term = w * gaussian_pdf_fn(mu, v)
            acc = term if acc is None else acc + term
        return acc
    scale = 1.0 / (2.0 * np.pi)
    acc = constant_fn(scale)
    for k, coeff in enumerate(spec["coefficients"], start=1):
        if coeff != 0.0:
            acc = acc + cosine_fn(k, amplitude=coeff * scale)
    return acc


def presets_text() -> str:
    """Stable human-readable list of built-in models, families, and densities."""
    lines = [
        "models:",
        "  ou: kappa (default 1.0), sigma (default sqrt(2))",
        "  circle-diffusion: diffusion (default 2.0), domain fixed to [0, 2*pi]",
        "  polynomial-drift: coefficients (ascending), diffusion (default 2.0)",
        "families:",
        "  ep: n (even); statistics x, x^2, ..., x^n",
        "  hermite: indices; probabilists' Hermite statistics He_k",
        "  custom-poly: exponents; monomial statistics, largest even",
        "  gaussian-mixture: means, variances; last component carries the rest",
        "  cosine-circle: harmonics; components (1 + cos(kx))/(2*pi) plus uniform",
        "initial densities:",
        "  gaussian: mean, var",
        "  gaussian-mixture: weights, means, variances",
        "  cosine: coefficients a_k for (1 + sum a_k cos(kx))/(2*pi)",
        "methods:",
        "  " + ", ".join(METHODS),
    ]
    return "\n".join(lines)
