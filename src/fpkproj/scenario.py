"""Scenario files: schema, validation, and construction of runtime objects.

A scenario is a YAML mapping with sections model / family / method /
numerics / initial / outputs.  Each typed section (model, family, initial
density) has one table that maps a type to its fields and to the factory
that builds it; parsing, construction and `presets list` all read it.

Validation parses every field, rejecting unknown keys by name and naming
missing required fields by their full path, and then builds the model,
the family, the flow's start and the reference problem with `build_run`.
Value constraints are therefore checked once, by the factories, and a
construction failure is reported as a ValidationError that names its
section.

The build is kept on the validated `Scenario` (`Scenario.built`), and its
runs reuse it instead of building again, so a run cannot drift from its
validation.  That is safe because nothing it was built from can change: a
validated scenario's sections are read-only mappings of numbers and
tuples, the start it holds is a read-only array, its reference problem is
a frozen `ReferenceProblem` whose start is read-only, and the family's
caches are exact, so every run of one scenario writes the same bits.  A
scenario made another way, by `dataclasses.replace` for one, builds on its
first run.
"""

import math
from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import FpkprojError, UnderResolvedQuadrature, ValidationError
from .expfamily import ExpFamily, custom_poly_family, ep_family, hermite_family
from .functions import DifferentiableFn, cosine_series_pdf_fn, gaussian_mixture_pdf_fn, gaussian_pdf_fn
from .mixture import COMPONENT_MASS_TOL, MixtureFamily
from .mixture import cosine_circle_family, gaussian_mixture_family
from .projection import BLOCK_STEPS, MAX_STEPS, sample_steps, whole_steps
from .projection import METHODS as ODE_METHODS
from .quadrature import (
    MAX_LEVEL,
    MIN_LEVEL,
    Domain,
    default_domain,
    require_resolved,
    trapezoid_grid,
    trapezoid_rule,
)
from .reference import FIT_SAMPLES, GridDensity, ReferenceProblem, grid_density, snapshot_index
from .sde import circle_diffusion, ornstein_uhlenbeck, polynomial_drift

REFERENCE_METHODS = ("metric-projection", "decay-experiment")
METHODS = ODE_METHODS + REFERENCE_METHODS
REQUIRED = object()
# most bytes a run may hold in what grows with its length (1 GiB): its snapshots,
# its trajectory's times and states, and its result rows
MAX_HELD_BYTES = 2 ** 30
# bytes counted per cell of a result row, 2 n + 6 cells: the flow's records of the row,
# the row's Python objects and its CSV text (CPython 3.11 traced 45 to 80 per cell for
# every method at sample_stride 1, n = 2 and 4)
CELL_BYTES = 160
# bytes counted per reference snapshot beyond its pde_nx floats, kept whole or reduced
# to its moments (CPython 3.11 traced 169 to 433)
SNAPSHOT_BYTES = 512

_TOP_KEYS = {"name", "model", "family", "method", "numerics", "initial", "outputs"}


def _require_mapping(value, path):
    if not isinstance(value, dict):
        raise ValidationError(f"{path} must be a mapping")
    return value


def _reject_unknown(mapping, allowed, path):
    for key in mapping:
        if key not in allowed:
            raise ValidationError(f"unknown key {key!r} in {path}")


# -- field parsers: (value, path) -> parsed value or ValidationError ---


def _number(value, path):
    if not isinstance(value, bool) and isinstance(value, (int, float, str)):
        try:
            out = float(value)
        except (ValueError, OverflowError):
            out = math.nan
        if math.isfinite(out):
            return out
    raise ValidationError(f"{path} must be a finite number, got {value!r}")


def _positive(value, path):
    out = _number(value, path)
    if out <= 0:
        raise ValidationError(f"{path} must be positive")
    return out


def _integer(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path} must be an integer, got {value!r}")
    return value


def _int_range(lo, hi):
    def parse(value, path):
        out = _integer(value, path)
        if not lo <= out <= hi:
            raise ValidationError(f"{path} must be between {lo} and {hi}")
        return out
    return parse


def _flag(value, path):
    if not isinstance(value, bool):
        raise ValidationError(f"{path} must be true or false")
    return value


def _list_of(item):
    def parse(value, path):
        if not isinstance(value, (list, tuple)):
            raise ValidationError(f"{path} must be a list")
        return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(value))
    return parse


def _interval(floor):
    def parse(value, path):
        bounds = _list_of(_number)(value, path)
        if len(bounds) != 2 or not floor <= bounds[0] < bounds[1]:
            raise ValidationError(f"{path} must be [lower, upper] with {floor:g} <= lower < upper")
        return bounds
    return parse


def _file_name(value, path):
    """One path component other than '.' and '..', so that it names an entry of the
    directory it is joined to."""
    if not isinstance(value, str) or value in ("", ".", "..") or "/" in value or "\0" in value:
        raise ValidationError(f"{path} must be a file name without '/' or NUL, other than "
                              f"'.' and '..', got {value!r}")
    return value


_numbers = _list_of(_number)
_integers = _list_of(_integer)


def _parse_fields(spec, fields, path, extra=()):
    """Parse a mapping against {name: (parser, default or REQUIRED)}.

    Keys outside `fields` and `extra` are rejected by name; a missing
    required field is reported by its full path; absent optional fields
    take their defaults.
    """
    spec = _require_mapping(spec, path)
    _reject_unknown(spec, set(fields) | set(extra), path)
    out = {}
    for name, (parse, default) in fields.items():
        if name in spec:
            out[name] = parse(spec[name], f"{path}.{name}")
        elif default is REQUIRED:
            raise ValidationError(f"{path}.{name} required")
        else:
            out[name] = default
    return out


# -- the typed sections ------------------------------------------------


# one type of a typed section: {field: (parser, default or REQUIRED)}, the
# factory called with the parsed fields, a note for `presets list`, and
# for families the class built, which names the methods that take it
Preset = namedtuple("Preset", "fields build note family", defaults=("", None))


MODELS = {
    "ou": Preset(
        {"kappa": (_number, 1.0), "sigma": (_number, math.sqrt(2.0))},
        ornstein_uhlenbeck, "drift -kappa x, diffusion sigma^2"),
    "circle-diffusion": Preset(
        {"diffusion": (_number, 2.0)},
        lambda diffusion, domain: circle_diffusion(diffusion), "domain fixed to [0, 2*pi]"),
    "polynomial-drift": Preset(
        {"coefficients": (_numbers, REQUIRED), "diffusion": (_number, 2.0)},
        lambda coefficients, diffusion, domain: polynomial_drift(
            coefficients, diffusion, domain=domain),
        "drift coefficients in ascending order"),
}

FAMILIES = {
    "ep": Preset({"n": (_integer, 2)}, ep_family,
                 "statistics x, x^2, ..., x^n, n even", ExpFamily),
    "hermite": Preset({"indices": (_integers, REQUIRED)}, hermite_family,
                      "probabilists' Hermite statistics He_k, largest index even", ExpFamily),
    "custom-poly": Preset({"exponents": (_integers, REQUIRED)}, custom_poly_family,
                          "monomial statistics, largest exponent even", ExpFamily),
    "gaussian-mixture": Preset(
        {"means": (_numbers, REQUIRED), "variances": (_numbers, REQUIRED)},
        gaussian_mixture_family, "last component carries the rest", MixtureFamily),
    "cosine-circle": Preset(
        {"harmonics": (_integers, REQUIRED)}, cosine_circle_family,
        "components (1 + cos(kx))/(2*pi) plus uniform, circle-diffusion model only",
        MixtureFamily),
}

DENSITIES = {
    "gaussian": Preset({"mean": (_number, 0.0), "var": (_number, 1.0)}, gaussian_pdf_fn),
    "gaussian-mixture": Preset(
        {"weights": (_numbers, REQUIRED), "means": (_numbers, REQUIRED),
         "variances": (_numbers, REQUIRED)},
        gaussian_mixture_pdf_fn, "weights nonnegative, summing to 1"),
    "cosine": Preset({"coefficients": (_numbers, REQUIRED)}, cosine_series_pdf_fn,
                     "a_k in (1 + sum a_k cos(kx))/(2*pi)"),
}


def _parse_typed(spec, table, path):
    kind = _require_mapping(spec, path).get("type")
    if not isinstance(kind, str) or kind not in table:
        raise ValidationError(f"{path}.type must be one of {sorted(table)}, got {kind!r}")
    return MappingProxyType(
        {"type": kind, **_parse_fields(spec, table[kind].fields, path, extra=("type",))})


def _build(table, spec, **context):
    params = {key: value for key, value in spec.items() if key != "type"}
    return table[spec["type"]].build(**params, **context)


# -- the untyped sections ----------------------------------------------


_NUMERICS = {
    "t_end": (_positive, REQUIRED),
    "domain": (_interval(-math.inf), None),
    "quadrature_level": (_int_range(3, 20), None),
    "ode_dt": (_positive, 1e-3),
    "pde_nx": (_int_range(3, 10 ** 6), 2001),
    "pde_dt": (_positive, 1e-3),
    "sample_stride": (_int_range(1, MAX_STEPS), 10),
    "fit_window": (_interval(0.0), None),
    "record_residual": (_flag, False),
    "attach_reference": (_flag, False),
}
Numerics = namedtuple("Numerics", _NUMERICS)

_INITIAL = {
    "theta": (_numbers, None),
    "eta": (_numbers, None),
    "m": (_numbers, None),
    "density": (lambda spec, path: _parse_typed(spec, DENSITIES, path), None),
}

_OUTPUTS = {"density_times": (_numbers, ())}


@dataclass(frozen=True)
class Scenario:
    name: str
    model: Mapping
    family: Mapping
    method: str
    numerics: Numerics
    initial: Mapping = field(default_factory=dict)
    outputs: Mapping = field(default_factory=dict)

    @cached_property
    def built(self):
        """`build_run(self)`, built on first use and kept: validation builds it, and
        every run of this scenario reuses it.  Its start is read-only, and so is its
        frozen `ReferenceProblem`'s start, so that no run can change what the next
        one starts from."""
        model, family, problem, start = build_run(self)
        if start is not None:
            start.setflags(write=False)
        return model, family, problem, start


class _Placed(ValidationError):
    """A ValidationError that already names the scenario path it is about."""


def _built(path, build, *args):
    """build(*args), with any construction failure reported against `path`; a named
    numerical error keeps its name, as the command line prints it on exit code 3, and
    a failure already reported against a path keeps that path."""
    try:
        return build(*args)
    except _Placed:
        raise
    except (ValueError, FpkprojError) as err:
        name = "" if isinstance(err, (ValueError, ValidationError)) else f"{type(err).__name__}: "
        raise _Placed(f"{path}: {name}{err}") from err


def _start_keys(method: str, family) -> tuple:
    """The initial keys a method can start its flow from, its own coordinates first:
    a flow in expectation coordinates, as a decay experiment's is, also starts from theta."""
    if method == "metric-projection":
        return ()
    if method in (family.expectation_method, "decay-experiment"):
        return (family.expectation_key, "theta")
    return ("theta",)


def _flow_start(scenario: Scenario, family):
    """The flow's start in the coordinates its method moves in, or None, once the
    family's embedded estimate is within QUADRATURE_TOL at the members the start gives
    without a Newton solve (UnderResolvedQuadrature otherwise).

    A theta start is mapped to eta (one moment pass) or m, and an m start to the
    weights (one linear solve), which refuses a start the run cannot take; on the
    Gaussians an eta start is mapped in closed form and refused when no Gaussian has
    its moments, and elsewhere it is left to the run, which inverts it once.  The
    estimate is checked on a mixture family itself, which holds for every member, and
    on an exponential family at a theta start, at the closed-form Gaussian of an eta
    start on the Gaussians, and on the initial density's own integrals of 1, c and
    c c'.  A start that gives no member here is checked by the run at its rows."""
    initial, rule = scenario.initial, family.rule
    if isinstance(family, MixtureFamily):
        require_resolved(rule, family.quadrature_error(), "family", family.component_values)
    for key, value in initial.items():
        if key != "density" and len(value) != family.n:
            raise _Placed(f"initial.{key} must have length {family.n} (family dimension)")
    keys = _start_keys(scenario.method, family)
    start = next((np.asarray(initial[key], dtype=float) for key in keys if key in initial), None)
    member = None
    if "theta" in initial:
        member = np.asarray(initial["theta"], dtype=float)
        mapped = _built("initial.theta", family.expectation_params, member)
        start = member if keys[0] == "theta" else mapped
    elif "m" in initial:
        _built("initial.m", family.expectations_to_weights, start)
    elif "eta" in initial:
        member = family.gaussian_start(start)
        if member is None and family.gaussian_fit is not None:
            raise _Placed("initial.eta: no Gaussian has these moments; the variance they "
                          "give must be positive and finite")
    if member is not None:  # a mixture member's estimate is the family's, checked above
        where = "initial.theta" if "theta" in initial else "initial.eta"
        require_resolved(rule, family.quadrature_error(member), where,
                         lambda: family.density_values(member))
    if "density" in initial and isinstance(family, ExpFamily):
        values = _built("initial.density", build_initial_density, initial["density"])(rule.nodes)
        require_resolved(rule, family.integrals_error(values), "initial.density", lambda: values)
    return start


def density_file(t) -> str:
    """The file the density slice at time t is written to: density_t<format(t, 'g')>.csv."""
    return f"density_t{format(float(t), 'g')}.csv"


def _require_held_bytes(num: Numerics, n: int, ode_steps: int, snapshots: int, whole: bool):
    """ValidationError, naming the keys that set them, unless the bytes the run would
    hold are within MAX_HELD_BYTES: `snapshots` reference snapshots, SNAPSHOT_BYTES
    each plus numerics.pde_nx floats when kept `whole`, the trajectory's times, a
    float at each of its ode_steps + 1 steps, and the powers of its block steps,
    2 BLOCK_STEPS (n + 1)^2 floats while they double (none for a metric projection),
    and the result rows, one per snapshot or, with none, per sampled step, of 2 n + 6
    cells, CELL_BYTES each, which hold more than the trajectory keeps of a row."""
    rows = snapshots or len(range(0, ode_steps, num.sample_stride)) + 1
    nodes = 8 * num.pde_nx if whole else 0
    trajectory = 0 if ode_steps == 0 else 8 * (ode_steps + 1 + 2 * BLOCK_STEPS * (n + 1) ** 2)
    held = snapshots * (SNAPSHOT_BYTES + nodes) + trajectory + rows * CELL_BYTES * (2 * n + 6)
    if held > MAX_HELD_BYTES:
        of = f" of numerics.pde_nx = {num.pde_nx} nodes" if whole else ""
        parts = [f"{snapshots} reference snapshots{of} "
                 f"(numerics.sample_stride = {num.sample_stride})"] if snapshots else []
        if trajectory:
            parts.append(f"a trajectory of {ode_steps + 1} steps (numerics.t_end / numerics.ode_dt)")
        parts.append(f"{rows} result rows of {2 * n + 6} cells")
        raise ValidationError(f"the run would hold {held} bytes in {', '.join(parts)}, "
                              f"more than the {MAX_HELD_BYTES} (MAX_HELD_BYTES) a run may hold")


def build_run(scenario: Scenario):
    """Build what a run builds and check the step grids it will walk; validation
    builds with this, once per scenario, through `Scenario.built`.  Returns
    (model, family, problem, start): problem the `ReferenceProblem` the run
    solves, or None when no reference is solved, and start the flow's start,
    which `build_family` built and checked at the level it chose.  The
    reference stride counts Crank-Nicolson steps: a trajectory method counts
    sample_stride in ODE steps, so that its snapshots fall on the rows."""
    num = scenario.numerics
    method = scenario.method
    domain = _built("numerics.domain", scenario_domain, scenario)
    model = _built("model", build_model, scenario, domain)
    family, start = _built("family", build_family, scenario, domain)
    ode_steps = 0 if method == "metric-projection" else whole_steps(
        num.t_end, num.ode_dt, "numerics.t_end")
    if method == "decay-experiment":
        whole_steps(num.sample_stride * num.pde_dt, num.ode_dt,
                    "numerics.sample_stride * numerics.pde_dt")
    if method not in REFERENCE_METHODS and not num.attach_reference:
        _require_held_bytes(num, family.n, ode_steps, 0, False)
        return model, family, None, start
    nsteps = whole_steps(num.t_end, num.pde_dt, "numerics.t_end")
    stride = num.sample_stride if method in REFERENCE_METHODS else whole_steps(
        num.sample_stride * num.ode_dt, num.pde_dt, "numerics.sample_stride * numerics.ode_dt")
    # counted before the times are listed, which at 10**7 steps is itself 0.8 GB; a
    # decay experiment reduces each snapshot to its moments as it is made
    snapshots = len(range(0, nsteps, stride)) + 1
    _require_held_bytes(num, family.n, ode_steps, snapshots, method != "decay-experiment")
    times = [k * num.pde_dt for k in sample_steps(nsteps, stride)]
    p0 = _built("initial.density", build_reference_start, scenario, model)
    if num.fit_window is not None:
        lo, hi = num.fit_window
        inside = sum(lo <= t <= hi for t in times)
        if inside < FIT_SAMPLES:
            raise ValidationError(f"numerics.fit_window [{lo:g}, {hi:g}] holds {inside} snapshot "
                                  f"times; fitting a decay rate needs {FIT_SAMPLES}")
    # slices that share a file name must be one slice, or the last would overwrite the rest
    written = {}
    for t in scenario.outputs["density_times"]:
        k = _built("outputs.density_times", snapshot_index, times, t)
        first, j = written.setdefault(density_file(t), (t, k))
        if j != k:
            raise ValidationError(f"outputs.density_times: {first:.17g} and {t:.17g} are "
                                  f"different snapshots but both write {density_file(t)}")
    return model, family, ReferenceProblem(model, p0, num.t_end, num.pde_dt, stride), start


def validate_scenario(raw: dict, name: str = "scenario") -> Scenario:
    raw = _require_mapping(raw, "scenario")
    _reject_unknown(raw, _TOP_KEYS, "scenario")
    for key in ("model", "family", "method", "numerics"):
        if key not in raw:
            raise ValidationError(f"scenario.{key} required")
    method = raw["method"]
    if method not in METHODS:
        raise ValidationError(f"method must be one of {METHODS}, got {method!r}")
    model = _parse_typed(raw["model"], MODELS, "model")
    family = _parse_typed(raw["family"], FAMILIES, "family")
    family_class = FAMILIES[family["type"]].family
    if method in ODE_METHODS and method not in family_class.methods:
        raise ValidationError(f"method/family mismatch: {family['type']} families take "
                              f"{', '.join(family_class.methods)}, got {method}")
    numerics = Numerics(**_parse_fields(raw["numerics"], _NUMERICS, "numerics"))
    initial = MappingProxyType({
        key: value for key, value
        in _parse_fields(raw.get("initial") or {}, _INITIAL, "initial").items()
        if value is not None})
    outputs = MappingProxyType(_parse_fields(raw.get("outputs") or {}, _OUTPUTS, "outputs"))
    starts = _start_keys(method, family_class)
    reference = method in REFERENCE_METHODS or numerics.attach_reference
    for key in initial:
        if key not in ((*starts, "density") if reference else starts):
            raise ValidationError(f"{method} on {family['type']} families does not read initial."
                                  + ("density without a reference" if key == "density" else key))
    given = [key for key in starts if key in initial]
    if len(given) > 1:
        raise ValidationError(f"initial.{given[0]} and initial.{given[1]} both given; "
                              f"{method} starts from one of them")
    if method in ODE_METHODS and not given:
        raise ValidationError(" or ".join(f"initial.{key}" for key in starts)
                              + f" required for {method}")
    if reference and "density" not in initial:
        raise ValidationError("initial.density required " + (
            f"for {method}" if method in REFERENCE_METHODS else "when numerics.attach_reference is set"))
    if outputs["density_times"] and (not reference or method == "decay-experiment"):
        raise ValidationError("outputs.density_times needs reference snapshots: method "
                              "metric-projection, or numerics.attach_reference on a trajectory method")
    # numerics keys that this run would ignore, refused when given
    unread = {"domain": model["type"] == "circle-diffusion",
              "ode_dt": method == "metric-projection",
              "pde_nx": not reference, "pde_dt": not reference,
              "fit_window": method != "decay-experiment",
              "record_residual": method not in ExpFamily.methods,
              "attach_reference": method in REFERENCE_METHODS}
    for key in raw["numerics"]:
        if unread.get(key):
            without = " without a reference" if key.startswith("pde_") else ""
            raise ValidationError(f"{method} on the {model['type']} model does not read "
                                  f"numerics.{key}{without}")
    if family["type"] == "cosine-circle" and model["type"] != "circle-diffusion":
        raise ValidationError("cosine-circle families require the circle-diffusion model")
    # the name is the run's directory under the output directory
    scenario_name = _file_name(raw.get("name", name), "scenario.name")
    scenario = Scenario(name=scenario_name, model=model, family=family, method=method,
                        numerics=numerics, initial=initial, outputs=outputs)
    scenario.built  # the build is the last check, and the runs reuse it
    return scenario


def apply_overrides(raw: dict, overrides) -> dict:
    """Apply dotted key=value overrides onto the raw mapping."""
    import yaml  # YAML text is parsed only here and in load_scenario

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
    import yaml

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
    return _build(MODELS, scenario.model, domain=domain)


def build_family(scenario: Scenario, domain: Domain):
    """(family, start): the family on the trapezoid rule at numerics.quadrature_level
    or, when that is absent, at the smallest level in MIN_LEVEL..MAX_LEVEL whose
    embedded estimate is within QUADRATURE_TOL at the start, and that start
    (`_flow_start`).  UnderResolvedQuadrature when the given level, or the largest,
    is not."""
    level = scenario.numerics.quadrature_level
    for level in range(MIN_LEVEL, MAX_LEVEL + 1) if level is None else (level,):
        try:
            family = _build(FAMILIES, scenario.family, rule=trapezoid_rule(domain, level))
            return family, _flow_start(scenario, family)
        except UnderResolvedQuadrature as err:
            failure = err
    raise failure


def build_initial_density(spec: dict) -> DifferentiableFn:
    return _build(DENSITIES, spec)


def build_reference_start(scenario: Scenario, model) -> GridDensity:
    """The initial density sampled on the reference grid, whose trapezoid mass must be
    within COMPONENT_MASS_TOL of 1: the normalized samples of a start that lies partly
    outside the domain, or that the grid does not resolve, are not the start."""
    nx = scenario.numerics.pde_nx
    x, w = trapezoid_grid(model.domain, nx)
    samples = build_initial_density(scenario.initial["density"])(x)
    # one sampling: the grid density normalizes the samples whose mass is checked
    p0 = grid_density(model.domain, nx, lambda _: samples)
    mass = float(w @ samples)
    if not abs(mass - 1.0) <= COMPONENT_MASS_TOL:
        raise ValidationError(f"mass {mass:.6g} on the {nx}-node reference grid misses 1 by "
                              f"more than {COMPONENT_MASS_TOL:g}; widen numerics.domain or "
                              "raise numerics.pde_nx")
    return p0


def presets_text() -> str:
    """Stable human-readable list of built-in models, families, densities and methods."""
    lines = []
    for title, table in (("models", MODELS), ("families", FAMILIES),
                         ("initial densities", DENSITIES)):
        lines.append(f"{title}:")
        for kind, preset in table.items():
            parts = [", ".join(name if default is REQUIRED else f"{name} (default {default!r})"
                               for name, (_, default) in preset.fields.items())]
            parts += [preset.note] if preset.note else []
            parts += [f"methods {', '.join(preset.family.methods)}"] if preset.family else []
            lines.append(f"  {kind}: " + "; ".join(parts))
    lines += ["methods:", "  " + ", ".join(METHODS)]
    return "\n".join(lines)
