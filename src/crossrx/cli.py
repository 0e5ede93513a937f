"""Config-driven experiment runner.

Subcommands:

* ``run <config.ini>``: parse an INI config, evaluate every ``[sweep:*]``
  section with the requested engines, write one CSV per output kind.
* ``preset <name>``: run a built-in figure configuration (or print it
  with ``--emit-config``).
* ``compare <a.csv> <b.csv> --tol <spec>``: align two result files on
  their identity columns and check value agreement.
* ``fit-erlang --sigma-db <v>``: print ``propagation.erlang_fit(v)``, the
  Erlang surrogate the analytic engine uses for a log-normal shadowing
  spread.

Exit codes: 0 success (and compare PASS); 1 compare FAIL; 2 a config or
schema error (a dB value that overflows, a range of more than 100,000
points and ``[sim]`` values outside ``SimSettings``' ranges included), an
unknown preset, an ``--out-dir`` that cannot be written, compare input
that cannot be aligned, or a ``fit-erlang`` spread that is not finite
and positive; 3 a numeric failure (such as a quadrature tolerance, a
surrogate fit, a log-normal draw that overflows or a transmitter off
both roads). Every config or numeric error raised while building or
evaluating a sweep point names the sweep and axis value.
Errors go to stderr, and a run that fails writes no CSV. A useful gain
that underflows is no failure: its reception probability is the
formula's limit, 0 (1 with neither noise nor an interferer).

CSV cells are fixed 17-significant-digit scientific notation, UTF-8,
LF line endings, so byte-identical reruns are a meaningful check.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import difflib
import math
import os
import sys
from dataclasses import dataclass, replace

from . import analytic, mac, model, propagation
# Re-exported: perfbench warms the surrogate fit cache through it.
from .analytic import analytic_view  # noqa: F401
from .montecarlo import (OutageEstimate, SimSettings, simulate_outage_sweep,
                         simulate_outages)


class ConfigParseError(Exception):
    """The config file is not syntactically valid INI."""


class SchemaError(Exception):
    """The config parsed but a section, key, or value is wrong."""


class AxisMismatch(Exception):
    """Two result files do not describe the same sweep points."""


class UnknownPreset(Exception):
    pass


class NumericFailure(Exception):
    """A numeric error raised while building or evaluating the sweep point
    named in the message; the original exception is the ``__cause__``."""


# ---------------------------------------------------------------------------
# Config schema


# Every section is required; a config missing several is told of the
# first in this order.
_SECTION_KEYS = {
    "roads": ("lambda_h_per_m", "lambda_v_per_m"),
    "mac": ("protocol", "p", "delta_m"),
    "link": ("tx_x_m", "tx_y_m", "rx_x_m", "rx_y_m", "power_w",
             "noise_dbm", "noise_w", "beta_db", "beta"),
    "sim": ("realizations", "window_half_length_m", "seed", "workers"),
    "output": ("prefix",),
    "loss_useful": ("norm", "amplitude_a", "alpha"),
    "loss_h": ("norm", "amplitude_a", "alpha"),
    "loss_v": ("norm", "amplitude_a", "alpha"),
    "fading_useful": ("family", "theta", "k", "sigma_db"),
    "fading_h": ("family", "theta", "k", "sigma_db"),
    "fading_v": ("family", "theta", "k", "sigma_db"),
}

# Each axis sweeps one sweep key, which is also its CSV column; the keys
# of rx_to_intersection_d, aloha_p and csma_delta are overrides too.
_AXIS_COLUMN = {
    "tx_rx_distance": "distance_m",
    "rx_to_intersection_d": "d_m",
    "access_probability": "p_a",
    "aloha_p": "p",
    "csma_delta": "delta_m",
}
_OVERRIDE_KEYS = ("d_m", "p", "delta_m", "tx_x_m", "tx_y_m", "rx_x_m")
# What each sweep key sets (see _sweep_points). A sweep's axis and overrides
# must set different things, or one of them would be silently lost.
_SETS = {
    "distance_m": ("tx.x", "tx.y"),
    "d_m": ("rx.x", "rx.y"),
    "p_a": ("mac",),
    "p": ("mac",),
    "delta_m": ("mac",),
    "tx_x_m": ("tx.x",),
    "tx_y_m": ("tx.y",),
    "rx_x_m": ("rx.x",),
}
_MAX_POINTS = 100_000  # per start:stop:step range; a preset sweep has <= 24
_SWEEP_FIXED_KEYS = ("axis", "values", "output", "engines")
_OUTPUT_KINDS = ("outage", "reception", "throughput")
_ENGINES = ("analytic", "montecarlo", "both")


def _suggest(name: str, valid) -> str:
    close = difflib.get_close_matches(name, sorted(valid), n=1)
    return f"; did you mean {close[0]!r}?" if close else ""


def _value(cp, section, key, convert, required=True, default=None):
    if not cp.has_option(section, key):
        if required:
            raise SchemaError(f"[{section}] is missing required key {key!r}")
        return default
    raw = cp.get(section, key)
    try:
        return convert(raw)
    except (ValueError, OverflowError) as exc:
        raise SchemaError(
            f"[{section}] {key} = {raw!r}: {exc}") from exc


def _check_keys(cp, section, allowed):
    for key in cp.options(section):
        if key not in allowed:
            raise SchemaError(
                f"unknown key {key!r} in [{section}]"
                + _suggest(key, allowed))


@dataclass(frozen=True)
class SweepSpec:
    name: str
    axis: str
    values: tuple[float, ...]
    outputs: tuple[str, ...]
    engines: str
    overrides: tuple[tuple[str, float], ...]


def _parse_values(text: str) -> tuple[float, ...]:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise SchemaError(f"range {text!r} must be start:stop:step")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError as exc:
            raise SchemaError(f"range {text!r}: {exc}") from exc
        if not all(map(math.isfinite, (start, stop, step))):
            raise SchemaError(
                f"range {text!r} needs a finite start, stop and step")
        if step <= 0 or stop < start:
            raise SchemaError(f"range {text!r} must ascend with step > 0")
        span = (stop - start) / step
        if not math.isfinite(span):
            raise SchemaError(f"range {text!r} has too many points to count")
        count = int(math.floor(span + 1e-9)) + 1
        if count > _MAX_POINTS:
            raise SchemaError(f"range {text!r} has {count} points, more than "
                              f"{_MAX_POINTS}")
        values = tuple(start + i * step for i in range(count))
    else:
        try:
            values = tuple(float(p) for p in text.split(","))
        except ValueError as exc:
            raise SchemaError(f"values {text!r}: {exc}") from exc
    if len(values) == 0:
        raise SchemaError("a sweep needs at least one value")
    if len(values) > 1:
        diffs = [b - a for a, b in zip(values, values[1:])]
        if not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
            raise SchemaError(f"sweep values {text!r} must be strictly monotone")
    return values


def _parse_mac(cp) -> model.MacProtocol:
    protocol = _value(cp, "mac", "protocol", str).lower()
    has_p = cp.has_option("mac", "p")
    has_delta = cp.has_option("mac", "delta_m")
    if protocol == "aloha":
        if has_delta:
            raise SchemaError("[mac] delta_m is only valid for csma")
        return model.Aloha(p=_value(cp, "mac", "p", float))
    if protocol == "csma":
        if has_p:
            raise SchemaError("[mac] p is only valid for aloha")
        return model.Csma(delta=_value(cp, "mac", "delta_m", float))
    if protocol == "none":
        if has_p or has_delta:
            raise SchemaError("[mac] protocol none takes no parameters")
        return model.NoMac()
    raise SchemaError(f"unknown [mac] protocol {protocol!r}"
                      + _suggest(protocol, ("aloha", "csma", "none")))


def _parse_loss(cp, section) -> model.PathLossSpec:
    norm = _value(cp, section, "norm", str).lower()
    if norm not in (model.EUCLIDEAN, model.MANHATTAN):
        raise SchemaError(f"[{section}] unknown norm {norm!r}"
                          + _suggest(norm, (model.EUCLIDEAN, model.MANHATTAN)))
    return model.PathLossSpec(
        norm=norm,
        amplitude_a=_value(cp, section, "amplitude_a", float),
        alpha=_value(cp, section, "alpha", float),
    )


def _parse_fading(cp, section) -> model.FadingSpec:
    family = _value(cp, section, "family", str).lower()
    keys = set(cp.options(section)) - {"family"}
    if family == "exponential":
        if keys - {"theta"}:
            raise SchemaError(f"[{section}] exponential takes only theta")
        return model.Exponential(
            theta=_value(cp, section, "theta", float, required=False,
                         default=1.0))
    if family == "erlang":
        if keys - {"theta", "k"}:
            raise SchemaError(f"[{section}] erlang takes only k and theta")
        return model.Erlang(k=_value(cp, section, "k", int),
                            theta=_value(cp, section, "theta", float))
    if family == "lognormal":
        if keys - {"sigma_db"}:
            raise SchemaError(f"[{section}] lognormal takes only sigma_db")
        return model.LogNormal(sigma_db=_value(cp, section, "sigma_db", float))
    raise SchemaError(
        f"unknown [{section}] family {family!r}"
        + _suggest(family, ("exponential", "erlang", "lognormal")))


def _db_or_linear(cp, db_key: str, linear_key: str,
                  unit: float = 1.0) -> float:
    """The [link] value given either as ``db_key``, in dB of ``unit``, or
    as ``linear_key``; exactly one of the two must be set."""
    has_db = cp.has_option("link", db_key)
    if has_db == cp.has_option("link", linear_key):
        raise SchemaError(f"[link] needs exactly one of {db_key}, {linear_key}")
    if has_db:
        return _value(cp, "link", db_key,
                      lambda raw: 10.0 ** (float(raw) / 10.0) * unit)
    return _value(cp, "link", linear_key, float)


def _parse_link(cp) -> model.LinkSpec:
    noise_w = _db_or_linear(cp, "noise_dbm", "noise_w", unit=1e-3)
    beta = _db_or_linear(cp, "beta_db", "beta")
    return model.LinkSpec(
        tx=model.Position(_value(cp, "link", "tx_x_m", float),
                          _value(cp, "link", "tx_y_m", float)),
        rx=model.Position(_value(cp, "link", "rx_x_m", float),
                          _value(cp, "link", "rx_y_m", float)),
        power_w=_value(cp, "link", "power_w", float),
        noise_w=noise_w,
        beta=beta,
    )


def _parse_sweep(cp, section) -> SweepSpec:
    name = section.split(":", 1)[1] if ":" in section else section
    allowed = _SWEEP_FIXED_KEYS + _OVERRIDE_KEYS
    _check_keys(cp, section, allowed)
    axis = _value(cp, section, "axis", str).lower()
    if axis not in _AXIS_COLUMN:
        raise SchemaError(f"[{section}] unknown axis {axis!r}"
                          + _suggest(axis, _AXIS_COLUMN))
    text = _value(cp, section, "values", str)
    try:
        values = _parse_values(text)
    except SchemaError as exc:
        raise SchemaError(f"[{section}] values: {exc}") from exc
    outputs = tuple(
        part.strip().lower()
        for part in _value(cp, section, "output", str).split(","))
    for out in outputs:
        if out not in _OUTPUT_KINDS:
            raise SchemaError(f"[{section}] unknown output {out!r}"
                              + _suggest(out, _OUTPUT_KINDS))
        if outputs.count(out) > 1:
            raise SchemaError(f"[{section}] output {out!r} is repeated")
    engines = _value(cp, section, "engines", str).lower()
    if engines not in _ENGINES:
        raise SchemaError(f"[{section}] unknown engines {engines!r}"
                          + _suggest(engines, _ENGINES))
    overrides = tuple(
        (key, _value(cp, section, key, float))
        for key in cp.options(section) if key in _OVERRIDE_KEYS)
    owner = {}
    for who, key in ((f"axis {axis}", _AXIS_COLUMN[axis]),
                     *((f"override {k}", k) for k, _ in overrides)):
        for target in _SETS[key]:
            if target in owner:
                raise SchemaError(f"[{section}] {owner[target]} and {who} "
                                  f"both set {target}")
            owner[target] = who
    return SweepSpec(name=name, axis=axis, values=values, outputs=outputs,
                     engines=engines, overrides=overrides)


@dataclass(frozen=True)
class RunPlan:
    scenario: model.Scenario
    link: model.LinkSpec
    sim: SimSettings
    prefix: str
    sweeps: tuple[SweepSpec, ...]


def _parse_config(cp: configparser.ConfigParser) -> RunPlan:
    sweep_sections = []
    for section in cp.sections():
        if section == "sweep" or section.startswith("sweep:"):
            sweep_sections.append(section)
        elif section in _SECTION_KEYS:
            _check_keys(cp, section, _SECTION_KEYS[section])
        else:
            raise SchemaError(
                f"unknown section [{section}]"
                + _suggest(section, tuple(_SECTION_KEYS) + ("sweep:NAME",)))
    for section in _SECTION_KEYS:
        if not cp.has_section(section):
            raise SchemaError(f"missing required section [{section}]")
    if not sweep_sections:
        raise SchemaError("config declares no [sweep:NAME] section")

    scenario = model.Scenario(
        roads=model.RoadConfig(
            lambda_h=_value(cp, "roads", "lambda_h_per_m", float),
            lambda_v=_value(cp, "roads", "lambda_v_per_m", float)),
        mac=_parse_mac(cp),
        loss_useful=_parse_loss(cp, "loss_useful"),
        loss_h=_parse_loss(cp, "loss_h"),
        loss_v=_parse_loss(cp, "loss_v"),
        fading_useful=_parse_fading(cp, "fading_useful"),
        fading_h=_parse_fading(cp, "fading_h"),
        fading_v=_parse_fading(cp, "fading_v"),
    )
    try:
        link = _parse_link(cp)
    except ValueError as exc:
        raise SchemaError(f"[link] {exc}") from exc
    try:
        sim = SimSettings(
            realizations=_value(cp, "sim", "realizations", int),
            window_half_length=_value(
                cp, "sim", "window_half_length_m", float, required=False,
                default=SimSettings.window_half_length),
            seed=_value(cp, "sim", "seed", int, required=False,
                        default=SimSettings.seed),
            workers=_value(cp, "sim", "workers", int, required=False,
                           default=SimSettings.workers),
        )
    except ValueError as exc:
        raise SchemaError(f"[sim] {exc}") from exc
    prefix = _value(cp, "output", "prefix", str)
    # The CSVs are written only after every engine has run, so a prefix
    # naming a directory that may not exist fails here, before them.
    if any(sep and sep in prefix for sep in ("/", os.sep, os.altsep)):
        raise SchemaError(f"[output] prefix {prefix!r} must be a file name "
                          "without a directory; use --out-dir")
    sweeps = tuple(_parse_sweep(cp, s) for s in sweep_sections)

    # The base link's warnings are not printed: every sweep point
    # validates its own link (_sweep_points).
    report = model.validate(scenario, link)
    if not report.ok:
        raise SchemaError("invalid scenario: " + "; ".join(report.violations))
    return RunPlan(scenario=scenario, link=link, sim=sim, prefix=prefix,
                   sweeps=sweeps)


# ---------------------------------------------------------------------------
# Point construction

_NUMERIC_ERRORS = (ArithmeticError, analytic.WrongScenario, mac.WrongMac,
                   mac.OffRoadPosition, propagation.DegenerateGeometry,
                   propagation.FitDegenerate,
                   propagation.UnsupportedDistribution)


@dataclass
class _Point:
    """A sweep point; the fields no engine has filled in are None."""
    sweep: SweepSpec
    value: float
    scenario: model.Scenario
    link: model.LinkSpec
    access: float | None = None
    reception: float | None = None
    estimate: OutageEstimate | None = None


def _where(point: _Point) -> str:
    return f"sweep {point.sweep.name!r} at {point.sweep.axis} = {point.value!r}"


def _located(point: _Point, exc: Exception, more: str = "") -> Exception:
    """``exc`` as the error of its kind naming ``point``, then ``more``."""
    where = _where(point) + more
    if isinstance(exc, SchemaError):
        return SchemaError(f"{where}: {exc}")
    return NumericFailure(f"{where}: {type(exc).__name__}: {exc}")


def _delta_for_access(p_a: float, tx: model.Position,
                      roads: model.RoadConfig) -> float:
    """Invert the sensing radius from a target access probability at tx."""
    if not 0.0 < p_a < 1.0:
        raise SchemaError(f"access_probability {p_a} must be in (0, 1)")
    # (1 - exp(-m))/m = p_a has a unique positive root in the mass m.
    mass = _bracketed_root(lambda m: -math.expm1(-m) - p_a * m,
                           1e-12, 2.0 / p_a, p_a, xtol=1e-15)
    hi = 1.0
    for _ in range(80):
        if mac.contention_mass(tx, hi, roads) >= mass:
            break
        hi *= 2.0
    else:
        raise SchemaError(
            f"cannot reach access probability {p_a} at tx: roads too sparse")
    return _bracketed_root(
        lambda delta: mac.contention_mass(tx, delta, roads) - mass,
        1e-9, hi, p_a, xtol=1e-12)


def _bracketed_root(f, lo: float, hi: float, p_a: float, xtol: float) -> float:
    """brentq's root of f in [lo, hi]. For p_a close enough to 1 the mass
    root, about 2 (1 - p_a), falls below 1e-12 or the delta root below
    1e-9 m; then f has no sign change on the bracket and p_a is rejected.
    scipy.optimize is imported here, on the first inversion, not at start-up."""
    from scipy.optimize import brentq

    try:
        return brentq(f, lo, hi, xtol=xtol, rtol=1e-14)
    except ValueError:
        raise SchemaError(
            f"access_probability {p_a} is too close to 1: its sensing "
            "radius is too small to solve for") from None


def _sweep_points(plan: RunPlan, sweep: SweepSpec,
                  warned: dict[str, str]) -> list[_Point]:
    """Each point walks its sweep's keys in order, overrides then the axis
    (``_SETS`` lists what each sets), and builds its link and scenario once.
    Each validation warning not yet in ``warned`` is added to it, mapped
    to the point that raised it first."""
    base, roads = plan.link, plan.scenario.roads
    points = []
    try:
        for value in sweep.values:
            point = _Point(sweep, value, plan.scenario, base)
            tx, rx, protocol = base.tx, base.rx, plan.scenario.mac
            for key, v in (*sweep.overrides, (_AXIS_COLUMN[sweep.axis], value)):
                if key == "distance_m":
                    tx = model.Position(rx.x + v, 0.0)
                elif key == "d_m":
                    rx = model.Position(v, 0.0)
                elif key == "tx_x_m":
                    tx = model.Position(v, tx.y)
                elif key == "tx_y_m":
                    tx = model.Position(tx.x, v)
                elif key == "rx_x_m":
                    rx = model.Position(v, rx.y)
                elif key == "p" and isinstance(protocol, model.Aloha):
                    protocol = model.Aloha(p=v)
                elif key == "delta_m" and isinstance(protocol, model.Csma):
                    protocol = model.Csma(delta=v)
                elif key in ("p", "delta_m"):
                    needs = "aloha" if key == "p" else "csma"
                    raise SchemaError(f"sweep key {key} requires [mac] protocol {needs}")
                elif isinstance(protocol, model.Aloha):  # key p_a from here on
                    if not 0.0 < v <= 1.0:
                        raise SchemaError(f"access_probability {v} out of (0, 1]")
                    protocol = model.Aloha(p=v)
                elif isinstance(protocol, model.Csma):
                    protocol = model.Csma(_delta_for_access(v, tx, roads))
                else:
                    raise SchemaError(
                        "axis access_probability requires aloha or csma")
            point.link = replace(base, tx=tx, rx=rx)
            if protocol is not plan.scenario.mac:
                point.scenario = replace(plan.scenario, mac=protocol)
            report = model.validate(point.scenario, point.link)
            if not report.ok:
                raise SchemaError("; ".join(report.violations))
            for warning in report.warnings:
                warned.setdefault(warning, _where(point))
            points.append(point)
    except (SchemaError, *_NUMERIC_ERRORS) as exc:
        raise _located(point, exc) from exc
    return points


# ---------------------------------------------------------------------------
# Evaluation


def _analytic(points: list[_Point]) -> None:
    """Fill in each point's access probability at the transmitter, and its
    analytic reception probability when its sweep asks for that engine."""
    try:
        for point in points:
            point.access = mac.access_probability_at(point.scenario,
                                                     point.link.tx)
            if point.sweep.engines != "montecarlo":
                point.reception = analytic.reception_probability(
                    point.scenario, point.link)
    except _NUMERIC_ERRORS as exc:
        raise _located(point, exc) from exc


def _monte_carlo(plan: RunPlan, points: list[_Point]) -> None:
    """Fill in the estimate of every point whose sweep runs Monte Carlo.

    Points with equal scenarios, across sweeps too, form one job and
    share its draws, and one batch call evaluates every chunk of every
    job on one worker pool. A link's estimate does not depend on the
    other links of its job. Aloha jobs that differ only in p and have
    the same receivers also share draws, one Poisson layer per p value
    (``montecarlo.simulate_outages``): a point's bits then depend on
    the p values of the run's jobs that share its receivers, never on
    the worker count.
    """
    groups: dict[model.Scenario, list[_Point]] = {}
    for point in points:
        if point.sweep.engines != "analytic":
            groups.setdefault(point.scenario, []).append(point)
    jobs = [(scenario, [point.link for point in group])
            for scenario, group in groups.items()]
    try:
        if len(jobs) == 1:
            # The same engine under the name perfbench's tracer patches and
            # counts (its test asserts the count); goes once the tracer
            # wraps simulate_outages.
            results = [simulate_outage_sweep(*jobs[0], plan.sim)]
        else:
            results = simulate_outages(jobs, plan.sim)
    except _NUMERIC_ERRORS as exc:
        group = list(groups.values())[exc.job]
        more = (f" (and {len(group) - 1} more points of its scenario)"
                if len(group) > 1 else "")
        raise _located(group[0], exc, more) from exc
    for group, estimates in zip(groups.values(), results):
        for point, estimate in zip(group, estimates):
            point.estimate = estimate


def _header(sweep: SweepSpec, out: str) -> list[str]:
    """CSV columns of output kind ``out`` for ``sweep``."""
    header = [_AXIS_COLUMN[sweep.axis], *(key for key, _ in sweep.overrides)]
    if sweep.engines in ("analytic", "both"):
        header.append(f"{out}_analytic")
    if sweep.engines in ("montecarlo", "both"):
        header.extend((f"{out}_mc", "mc_stderr"))
    return header


def _cell(out: str, outage: float, reception: float, p_access: float,
          rate: float) -> float:
    """The ``out`` cell of a point with this outage and reception; the
    Monte Carlo error cell passes its standard error as both."""
    if out == "outage":
        return outage
    if out == "reception":
        return reception
    return p_access * reception * rate


def _row(point: _Point, out: str, rate: float) -> list[float]:
    """The values of ``_header(point.sweep, out)`` at ``point``, in order."""
    row = [point.value, *(override for _, override in point.sweep.overrides)]
    if point.reception is not None:
        row.append(_cell(out, 1.0 - point.reception, point.reception,
                         point.access, rate))
    if (est := point.estimate) is not None:
        row.append(_cell(out, est.p_out, 1.0 - est.p_out, point.access, rate))
        row.append(_cell(out, est.std_err, est.std_err, point.access, rate))
    return row


def _fmt(x: float) -> str:
    return f"{float(x):.16e}"


def run_config(path: str, out_dir: str = ".") -> dict:
    """Run every sweep in a config file and write the CSVs.

    Returns a summary dict: written file paths plus per-sweep agreement
    statistics, max |analytic - mc| and max Monte Carlo standard error,
    each only when the engines it needs ran. Both are of the outage
    probability, whatever output kinds the sweep writes.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigParseError(f"cannot read {path}: {exc}") from exc
    return run_config_text(text, out_dir=out_dir, source=path)


def run_config_text(text: str, out_dir: str = ".", source: str = "<config>") -> dict:
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigParseError(str(exc)) from exc
    plan = _parse_config(cp)

    # Sweeps sharing an output kind land in one CSV, so their columns
    # must agree exactly.
    headers: dict[str, list[str]] = {}
    for sweep in plan.sweeps:
        for out in sweep.outputs:
            header = _header(sweep, out)
            if headers.setdefault(out, header) != header:
                raise SchemaError(
                    f"sweep {sweep.name!r} output {out!r} does not match the "
                    "axis/override/engine layout of an earlier sweep")
    # Before the engines run, so that a directory that cannot be made
    # fails at once.
    os.makedirs(out_dir, exist_ok=True)

    # Points are built once (access_probability sweeps solve delta per
    # point); the analytic engine runs first, so that its failures show
    # before the Monte Carlo batch runs.
    warned: dict[str, str] = {}
    per_sweep = [_sweep_points(plan, sweep, warned) for sweep in plan.sweeps]
    for warning, where in warned.items():
        print(f"warning: {where}: {warning}", file=sys.stderr)
    points = [point for sweep_points in per_sweep for point in sweep_points]
    _analytic(points)
    _monte_carlo(plan, points)
    rate = math.log2(1.0 + plan.link.beta)
    summary = {"files": [], "sweeps": []}
    by_output = {out: [] for out in headers}
    for sweep, sweep_points in zip(plan.sweeps, per_sweep):
        for out in sweep.outputs:
            by_output[out].extend(_row(pt, out, rate) for pt in sweep_points)
        # Of the outage probability, whatever output kinds the sweep writes.
        record = {"name": sweep.name, "points": len(sweep.values)}
        if sweep.engines == "both":
            record["max_abs_delta"] = max(
                abs(1.0 - pt.reception - pt.estimate.p_out)
                for pt in sweep_points)
        if sweep.engines != "analytic":
            record["max_stderr"] = max(pt.estimate.std_err
                                       for pt in sweep_points)
        summary["sweeps"].append(record)

    for out, rows in by_output.items():
        path_out = os.path.join(out_dir, f"{plan.prefix}_{out}.csv")
        with open(path_out, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(headers[out])
            writer.writerows([_fmt(x) for x in row] for row in rows)
        summary["files"].append(path_out)
    return summary


# ---------------------------------------------------------------------------
# Presets: each PRESETS entry gives what its figure changes from roads of
# 0.01 vehicles per m, one link budget, line-of-sight loss, exponential
# fading, and sweeps that run both engines.


_LOS = {"norm": "euclidean", "amplitude_a": "3e-5", "alpha": 2}
_RAYLEIGH = {"family": "exponential", "theta": 1}


def _ini(name: str, keys: dict) -> str:
    return f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())


def _preset(prefix: str, mac: dict, tx: tuple, rx: tuple, realizations: int,
            window_m: int, axis: str, values: str, output: str, sweeps: dict,
            **physics: dict) -> str:
    """The config text of a figure; sections and keys keep this order."""
    sections = {
        "roads": {"lambda_h_per_m": 0.01, "lambda_v_per_m": 0.01},
        "loss_useful": _LOS, "loss_h": _LOS, "loss_v": _LOS,
        "fading_useful": _RAYLEIGH, "fading_h": _RAYLEIGH,
        "fading_v": _RAYLEIGH,
        **physics,  # an override keeps its section's place
        "mac": mac,
        "link": {"tx_x_m": tx[0], "tx_y_m": tx[1], "rx_x_m": rx[0],
                 "rx_y_m": rx[1], "power_w": 0.1, "noise_dbm": -99,
                 "beta_db": 8},
        "sim": {"realizations": realizations, "window_half_length_m": window_m,
                "seed": 20260817, "workers": 4},
        "output": {"prefix": prefix},
        **{f"sweep:{name}": {"axis": axis, "values": values, "output": output,
                             "engines": "both", **overrides}
           for name, overrides in sweeps.items()},
    }
    return "\n".join(_ini(name, keys) for name, keys in sections.items())


PRESETS = {
    # Fig. 2, rural Aloha: outage against the tx-rx distance, for
    # receivers d m from the intersection and three access probabilities.
    "fig2": dict(
        mac={"protocol": "aloha", "p": 0.005}, tx=(110, 0), rx=(10, 0),
        realizations=100000, window_m=400000,
        axis="tx_rx_distance", values="10:700:30", output="outage",
        sweeps={f"d{d}-p{p}": {"d_m": d, "p": p}
                for d in (0, 100, 500) for p in ("0", "0.005", "0.1")}),
    # Street canyon: Manhattan loss and 3.2 dB shadowing off the H road;
    # outage against the receiver's distance to the intersection.
    "case2": dict(
        mac={"protocol": "aloha", "p": 0.002}, tx=(0, 50), rx=(10, 0),
        realizations=100000, window_m=200000,
        axis="rx_to_intersection_d", values="10:310:25", output="outage",
        sweeps={f"ty{ty}-p{p}": {"tx_y_m": ty, "p": p}
                for ty in (50, 150) for p in ("0.002", "0.02")},
        loss_useful={**_LOS, "norm": "manhattan"},
        loss_v={**_LOS, "norm": "manhattan"},
        fading_useful={"family": "lognormal", "sigma_db": 3.2},
        fading_v={"family": "lognormal", "sigma_db": 3.2}),
    # Fig. 3, CSMA: outage against the receiver's distance to the
    # intersection, for two transmitters and two sensing ranges.
    "fig3": dict(
        mac={"protocol": "csma", "delta_m": 500}, tx=(0, 0), rx=(10, 0),
        realizations=50000, window_m=40000,
        axis="rx_to_intersection_d", values="10:610:50", output="outage",
        sweeps={f"ty{ty}-delta{d}": {"tx_x_m": 0, "tx_y_m": ty, "delta_m": d}
                for ty in (0, 150) for d in (500, 10000)}),
    # Fig. 4, Aloha: outage and throughput against the access probability,
    # for a receiver at the intersection and links 100 and 200 m long.
    "fig4": dict(
        mac={"protocol": "aloha", "p": 0.005}, tx=(100, 0), rx=(0, 0),
        realizations=20000, window_m=200000,
        axis="access_probability", output="outage,throughput",
        values="0.001, 0.0014, 0.002, 0.0028, 0.004, 0.0055, 0.0065, 0.008, "
               "0.011, 0.016, 0.022, 0.03, 0.045, 0.065, 0.09, 0.13, 0.19, 0.3",
        sweeps={f"r{r}": {"tx_x_m": r} for r in (100, 200)}),
    # Fig. 5, CSMA: as Fig. 4, for a receiver 100 m before the
    # intersection and transmitters at and 100 m past it.
    "fig5": dict(
        mac={"protocol": "csma", "delta_m": 500}, tx=(0, 0), rx=(-100, 0),
        realizations=10000, window_m=20000,
        axis="access_probability", output="outage,throughput",
        values="0.003, 0.004, 0.0055, 0.0075, 0.01, 0.013, 0.016, 0.019, "
               "0.0225, 0.027, 0.033, 0.045, 0.065, 0.09, 0.13, 0.2",
        sweeps={f"r{tx + 100}": {"tx_x_m": tx} for tx in (0, 100)}),
}


def preset_config(name: str) -> str:
    if name not in PRESETS:
        raise UnknownPreset(
            f"unknown preset {name!r}" + _suggest(name, PRESETS))
    return _preset(name, **PRESETS[name])


# ---------------------------------------------------------------------------
# compare


def _read_csv(path: str):
    """Field names and rows of a result CSV, every cell read as a float."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle)
            rows = list(reader)
    except OSError as exc:
        raise ConfigParseError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise AxisMismatch(f"{path} has no data rows")
    for i, row in enumerate(rows):
        for col, cell in row.items():
            try:
                row[col] = float(cell)
            except (TypeError, ValueError):
                raise SchemaError(f"{path} row {i}, column {col}: "
                                  f"{cell!r} is not a number") from None
    return list(reader.fieldnames), rows


def _is_value_column(name: str) -> bool:
    return (name.endswith("_analytic") or name.endswith("_mc")
            or name == "mc_stderr")


def _pick_column(fields, prefer_suffix):
    for name in fields:
        if name.endswith(prefer_suffix) and name != "mc_stderr":
            return name
    for name in fields:
        if _is_value_column(name) and name != "mc_stderr":
            return name
    raise AxisMismatch("no value column (*_analytic or *_mc) found")


def compare_files(path_a: str, path_b: str, tol_spec: str) -> tuple[bool, str]:
    """Align two result CSVs and check value agreement.

    Files with the same value columns are compared column by column
    (a regression check).  Otherwise the analytic column of the first
    file is checked against the Monte Carlo column of the second (an
    engine-agreement check); the two must hold the same output kind.
    Tolerance spec is ``abs:X`` for a plain absolute bound or
    ``stderr:K`` for K times the Monte Carlo standard error. Every cell
    must parse as a number; a non-finite value or standard error fails
    its row.
    """
    kind, _, arg = tol_spec.partition(":")
    if kind not in ("abs", "stderr") or not arg:
        raise SchemaError(f"tolerance {tol_spec!r} must be abs:X or stderr:K")
    try:
        tol_value = float(arg)
    except ValueError as exc:
        raise SchemaError(f"tolerance {tol_spec!r}: {exc}") from exc
    if not (math.isfinite(tol_value) and tol_value >= 0.0):
        raise SchemaError(
            f"tolerance {tol_spec!r} must be finite and nonnegative")

    fields_a, rows_a = _read_csv(path_a)
    fields_b, rows_b = _read_csv(path_b)
    ids_a = [c for c in fields_a if not _is_value_column(c)]
    ids_b = [c for c in fields_b if not _is_value_column(c)]
    if ids_a != ids_b:
        raise AxisMismatch(
            f"identity columns differ: {ids_a} vs {ids_b}")
    if len(rows_a) != len(rows_b):
        raise AxisMismatch(
            f"row counts differ: {len(rows_a)} vs {len(rows_b)}")
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        for col in ids_a:
            if ra[col] != rb[col]:
                raise AxisMismatch(
                    f"row {i}: {col} = {ra[col]} vs {rb[col]}")

    values_a = [c for c in fields_a if _is_value_column(c) and c != "mc_stderr"]
    values_b = [c for c in fields_b if _is_value_column(c) and c != "mc_stderr"]
    if values_a == values_b and values_a:
        pairs = [(c, c) for c in values_a]
    else:
        col_a = _pick_column(fields_a, "_analytic")
        col_b = _pick_column(fields_b, "_mc")
        if col_a.rsplit("_", 1)[0] != col_b.rsplit("_", 1)[0]:
            raise AxisMismatch(
                f"value columns {col_a} and {col_b} hold different outputs")
        pairs = [(col_a, col_b)]
    if kind == "stderr":
        if "mc_stderr" in fields_b:
            stderr_rows = rows_b
        elif "mc_stderr" in fields_a:
            stderr_rows = rows_a
        else:
            raise AxisMismatch("stderr tolerance needs an mc_stderr column")

    worst_excess = -math.inf
    worst = None
    max_delta = 0.0
    for col_a, col_b in pairs:
        for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
            delta = abs(ra[col_a] - rb[col_b])
            max_delta = max(max_delta, delta)
            if kind == "abs":
                allowed = tol_value
            else:
                allowed = tol_value * stderr_rows[i]["mc_stderr"]
            excess = delta - allowed
            if not math.isfinite(excess):  # a non-finite value or error bar
                excess = math.inf
            if excess > worst_excess:
                worst_excess = excess
                worst = (col_a, col_b, i, ra, delta, allowed)

    ok = worst_excess <= 0.0
    col_a, col_b, i, ra, delta, allowed = worst
    what = " ".join(f"{a}~{b}" if a != b else a for a, b in pairs)
    where = ", ".join(f"{c}={ra[c]:g}" for c in ids_a)
    lines = [
        f"compare: {what} over {len(rows_a)} points "
        f"({path_a} vs {path_b})",
        f"max |delta| = {max_delta:.3e}, tolerance = {tol_spec}",
    ]
    if ok:
        lines.append("PASS")
    else:
        lines.append(
            f"FAIL at row {i} ({col_a} vs {col_b}, {where}): "
            f"|delta| = {delta:.3e} > allowed {allowed:.3e}")
    return ok, "\n".join(lines)


# ---------------------------------------------------------------------------
# entry point


_CONFIG_ERRORS = (ConfigParseError, SchemaError, AxisMismatch, UnknownPreset)


def _print_summary(summary: dict) -> None:
    for sweep in summary["sweeps"]:
        line = f"sweep {sweep['name']}: {sweep['points']} points"
        if "max_abs_delta" in sweep:
            line += f", max |analytic - mc| = {sweep['max_abs_delta']:.3e}"
        if "max_stderr" in sweep:
            line += f", max mc std-err = {sweep['max_stderr']:.3e}"
        print(line)
    for path in summary["files"]:
        print(f"wrote {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="crossrx",
        description="Reception probability and throughput sweeps for "
                    "vehicular links at a road intersection.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out-dir", default=".")

    p_preset = sub.add_parser("preset", help="run a built-in figure config")
    p_preset.add_argument("name", help=", ".join(PRESETS))
    p_preset.add_argument("--emit-config", action="store_true",
                          help="print the config instead of running it")
    p_preset.add_argument("--out-dir", default=".")

    p_cmp = sub.add_parser("compare", help="compare two result CSVs")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    p_cmp.add_argument("--tol", default="stderr:3",
                       help="abs:X or stderr:K (default stderr:3)")

    p_fit = sub.add_parser("fit-erlang",
                           help="Erlang surrogate for log-normal shadowing")
    p_fit.add_argument("--sigma-db", type=float, required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            _print_summary(run_config(args.config, out_dir=args.out_dir))
            return 0
        if args.command == "preset":
            text = preset_config(args.name)
            if args.emit_config:
                print(text, end="")
                return 0
            _print_summary(run_config_text(
                text, out_dir=args.out_dir, source=f"preset:{args.name}"))
            return 0
        if args.command == "compare":
            ok, report = compare_files(args.a, args.b, args.tol)
            print(report)
            return 0 if ok else 1
        if args.command == "fit-erlang":
            try:
                fit = propagation.erlang_fit(args.sigma_db)
            except ValueError as exc:  # a spread that is not finite and > 0
                raise SchemaError(str(exc)) from None
            print(f"sigma_db = {args.sigma_db} -> Erlang k = {fit.k}, "
                  f"theta = {fit.theta:.6f}")
            return 0
        raise AssertionError(args.command)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the --out-dir or a CSV in it cannot be written
        print(f"error: cannot write the results: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure in {exc}", file=sys.stderr)
        return 3
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
