"""Config-driven experiment runner.

Subcommands:

* ``run <config.ini>``: parse an INI config, evaluate every ``[sweep:*]``
  section with the requested engines, write one CSV per output kind.
* ``preset <name>``: run a built-in figure configuration (or print it
  with ``--emit-config``).
* ``compare <a.csv> <b.csv> --tol <spec>``: align two result files on
  their identity columns and check value agreement.
* ``fit-erlang --sigma-db <v>``: print the Erlang surrogate the analytic
  engine uses for a log-normal shadowing spread.

Exit codes: 0 success (and compare PASS), 1 compare FAIL, 2 config or
schema error, 3 numeric failure (such as a quadrature tolerance or a
surrogate fit). The analytic engine differentiates exactly
(``numerics.derivative_n`` is a test oracle only), so no Erlang shape is
rejected for its derivative order.

CSV cells are fixed 17-significant-digit scientific notation, UTF-8,
LF line endings, so byte-identical reruns are a meaningful check.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import difflib
import math
import os
import sys
from dataclasses import dataclass

from scipy.optimize import brentq

from . import analytic, mac, model, propagation
# Re-exported: perfbench warms the surrogate fit cache through it.
from .analytic import analytic_view  # noqa: F401
from .montecarlo import SimSettings, simulate_outage_sweep
from .numerics import NonConvergence, PoleError, ToleranceNotMet


class ConfigParseError(Exception):
    """The config file is not syntactically valid INI."""


class SchemaError(Exception):
    """The config parsed but a section, key, or value is wrong."""


class AxisMismatch(Exception):
    """Two result files do not describe the same sweep points."""


class UnknownPreset(Exception):
    pass


# ---------------------------------------------------------------------------
# Config schema


_SECTION_KEYS = {
    "roads": ("lambda_h_per_m", "lambda_v_per_m"),
    "mac": ("protocol", "p", "delta_m"),
    "link": ("tx_x_m", "tx_y_m", "rx_x_m", "rx_y_m", "power_w",
             "noise_dbm", "noise_w", "beta_db", "beta"),
    "loss_useful": ("norm", "amplitude_a", "alpha"),
    "loss_h": ("norm", "amplitude_a", "alpha"),
    "loss_v": ("norm", "amplitude_a", "alpha"),
    "fading_useful": ("family", "theta", "k", "sigma_db"),
    "fading_h": ("family", "theta", "k", "sigma_db"),
    "fading_v": ("family", "theta", "k", "sigma_db"),
    "sim": ("realizations", "window_half_length_m", "seed", "workers"),
    "output": ("prefix",),
}

_AXES = ("tx_rx_distance", "rx_to_intersection_d", "access_probability",
         "aloha_p", "csma_delta")
_AXIS_COLUMN = {
    "tx_rx_distance": "distance_m",
    "rx_to_intersection_d": "d_m",
    "access_probability": "p_a",
    "aloha_p": "p",
    "csma_delta": "delta_m",
}
_OVERRIDE_KEYS = ("d_m", "p", "delta_m", "tx_x_m", "tx_y_m",
                  "rx_x_m", "rx_y_m")
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
    except ValueError as exc:
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
        if step <= 0 or stop < start:
            raise SchemaError(f"range {text!r} must ascend with step > 0")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
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


def _parse_link(cp) -> model.LinkSpec:
    has_dbm = cp.has_option("link", "noise_dbm")
    has_w = cp.has_option("link", "noise_w")
    if has_dbm == has_w:
        raise SchemaError("[link] needs exactly one of noise_dbm, noise_w")
    if has_dbm:
        noise_w = 10.0 ** (_value(cp, "link", "noise_dbm", float) / 10.0) * 1e-3
    else:
        noise_w = _value(cp, "link", "noise_w", float)
    has_db = cp.has_option("link", "beta_db")
    has_lin = cp.has_option("link", "beta")
    if has_db == has_lin:
        raise SchemaError("[link] needs exactly one of beta_db, beta")
    if has_db:
        beta = 10.0 ** (_value(cp, "link", "beta_db", float) / 10.0)
    else:
        beta = _value(cp, "link", "beta", float)
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
    if axis not in _AXES:
        raise SchemaError(f"[{section}] unknown axis {axis!r}"
                          + _suggest(axis, _AXES))
    values = _parse_values(_value(cp, section, "values", str))
    outputs = tuple(
        part.strip().lower()
        for part in _value(cp, section, "output", str).split(","))
    for out in outputs:
        if out not in _OUTPUT_KINDS:
            raise SchemaError(f"[{section}] unknown output {out!r}"
                              + _suggest(out, _OUTPUT_KINDS))
    engines = _value(cp, section, "engines", str).lower()
    if engines not in _ENGINES:
        raise SchemaError(f"[{section}] unknown engines {engines!r}"
                          + _suggest(engines, _ENGINES))
    overrides = tuple(
        (key, _value(cp, section, key, float))
        for key in cp.options(section) if key in _OVERRIDE_KEYS)
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
    for required in ("roads", "mac", "link", "sim", "output"):
        if not cp.has_section(required):
            raise SchemaError(f"missing required section [{required}]")
    for section in ("loss_useful", "loss_h", "loss_v",
                    "fading_useful", "fading_h", "fading_v"):
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
    sim = SimSettings(
        realizations=_value(cp, "sim", "realizations", int),
        window_half_length=_value(cp, "sim", "window_half_length_m", float,
                                  required=False, default=20_000.0),
        seed=_value(cp, "sim", "seed", int, required=False, default=0),
        workers=_value(cp, "sim", "workers", int, required=False, default=1),
    )
    prefix = _value(cp, "output", "prefix", str)
    sweeps = tuple(_parse_sweep(cp, s) for s in sweep_sections)

    report = model.validate(scenario, link)
    if not report.ok:
        raise SchemaError("invalid scenario: " + "; ".join(report.violations))
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return RunPlan(scenario=scenario, link=link, sim=sim, prefix=prefix,
                   sweeps=sweeps)


# ---------------------------------------------------------------------------
# Point construction


def _delta_for_access(p_a: float, tx: model.Position,
                      roads: model.RoadConfig) -> float:
    """Invert the sensing radius from a target access probability at tx."""
    if not 0.0 < p_a < 1.0:
        raise SchemaError(f"access_probability {p_a} must be in (0, 1)")
    # (1 - exp(-m))/m = p_a has a unique positive root in the mass m.
    mass = brentq(lambda m: -math.expm1(-m) - p_a * m, 1e-12, 2.0 / p_a,
                  xtol=1e-15, rtol=1e-14)
    hi = 1.0
    for _ in range(80):
        if mac.contention_mass(tx, hi, roads) >= mass:
            break
        hi *= 2.0
    else:
        raise SchemaError(
            f"cannot reach access probability {p_a} at tx: roads too sparse")
    return brentq(
        lambda delta: mac.contention_mass(tx, delta, roads) - mass,
        1e-9, hi, xtol=1e-12, rtol=1e-14)


def _apply_override(scenario, link, key, value):
    if key == "d_m":
        link = dataclasses.replace(link, rx=model.Position(value, 0.0))
    elif key == "tx_x_m":
        link = dataclasses.replace(
            link, tx=model.Position(value, link.tx.y))
    elif key == "tx_y_m":
        link = dataclasses.replace(
            link, tx=model.Position(link.tx.x, value))
    elif key == "rx_x_m":
        link = dataclasses.replace(
            link, rx=model.Position(value, link.rx.y))
    elif key == "rx_y_m":
        link = dataclasses.replace(
            link, rx=model.Position(link.rx.x, value))
    elif key == "p":
        if not isinstance(scenario.mac, model.Aloha):
            raise SchemaError("override p requires [mac] protocol aloha")
        scenario = dataclasses.replace(scenario, mac=model.Aloha(p=value))
    elif key == "delta_m":
        if not isinstance(scenario.mac, model.Csma):
            raise SchemaError("override delta_m requires [mac] protocol csma")
        scenario = dataclasses.replace(scenario, mac=model.Csma(delta=value))
    return scenario, link


def _apply_axis(scenario, link, axis, value):
    if axis == "tx_rx_distance":
        link = dataclasses.replace(
            link, tx=model.Position(link.rx.x + value, 0.0))
    elif axis == "rx_to_intersection_d":
        link = dataclasses.replace(link, rx=model.Position(value, 0.0))
    elif axis == "aloha_p":
        if not isinstance(scenario.mac, model.Aloha):
            raise SchemaError("axis aloha_p requires [mac] protocol aloha")
        scenario = dataclasses.replace(scenario, mac=model.Aloha(p=value))
    elif axis == "csma_delta":
        if not isinstance(scenario.mac, model.Csma):
            raise SchemaError("axis csma_delta requires [mac] protocol csma")
        scenario = dataclasses.replace(scenario, mac=model.Csma(delta=value))
    elif axis == "access_probability":
        if isinstance(scenario.mac, model.Aloha):
            if not 0.0 < value <= 1.0:
                raise SchemaError(f"access_probability {value} out of (0, 1]")
            scenario = dataclasses.replace(scenario, mac=model.Aloha(p=value))
        elif isinstance(scenario.mac, model.Csma):
            delta = _delta_for_access(value, link.tx, scenario.roads)
            scenario = dataclasses.replace(scenario, mac=model.Csma(delta))
        else:
            raise SchemaError("axis access_probability requires aloha or csma")
    return scenario, link


def _sweep_points(plan: RunPlan, sweep: SweepSpec):
    points = []
    for value in sweep.values:
        scenario, link = plan.scenario, plan.link
        for key, override in sweep.overrides:
            scenario, link = _apply_override(scenario, link, key, override)
        scenario, link = _apply_axis(scenario, link, sweep.axis, value)
        report = model.validate(scenario, link)
        if not report.ok:
            raise SchemaError(
                f"sweep {sweep.name!r} at {sweep.axis}={value}: "
                + "; ".join(report.violations))
        points.append((value, scenario, link))
    return points


# ---------------------------------------------------------------------------
# Evaluation


def _evaluate_sweep(plan: RunPlan, sweep: SweepSpec):
    """Rows for one sweep section, keyed by output kind."""
    points = _sweep_points(plan, sweep)
    want_analytic = sweep.engines in ("analytic", "both")
    want_mc = sweep.engines in ("montecarlo", "both")

    reception_a = []
    if want_analytic:
        for _, scenario, link in points:
            reception_a.append(analytic.reception_probability(scenario, link))

    estimates = []
    if want_mc:
        same_scenario = all(s == points[0][1] for _, s, _ in points)
        if same_scenario:
            estimates = simulate_outage_sweep(
                points[0][1], [link for _, _, link in points], plan.sim)
        else:
            for _, scenario, link in points:
                estimates.extend(
                    simulate_outage_sweep(scenario, [link], plan.sim))

    rate = math.log2(1.0 + plan.link.beta)
    rows = {out: [] for out in sweep.outputs}
    for idx, (value, scenario, link) in enumerate(points):
        base = {_AXIS_COLUMN[sweep.axis]: value}
        for key, override in sweep.overrides:
            base[key] = override
        p_access = mac.access_probability_at(scenario, link.tx)
        for out in sweep.outputs:
            row = dict(base)
            if want_analytic:
                reception = reception_a[idx]
                if out == "outage":
                    row[f"{out}_analytic"] = 1.0 - reception
                elif out == "reception":
                    row[f"{out}_analytic"] = reception
                else:
                    row[f"{out}_analytic"] = p_access * reception * rate
            if want_mc:
                est = estimates[idx]
                if out == "outage":
                    row[f"{out}_mc"] = est.p_out
                    row["mc_stderr"] = est.std_err
                elif out == "reception":
                    row[f"{out}_mc"] = 1.0 - est.p_out
                    row["mc_stderr"] = est.std_err
                else:
                    row[f"{out}_mc"] = p_access * (1.0 - est.p_out) * rate
                    row["mc_stderr"] = p_access * est.std_err * rate
            rows[out].append(row)
    return rows


def _fmt(x: float) -> str:
    return f"{float(x):.16e}"


def run_config(path: str, out_dir: str = ".") -> dict:
    """Run every sweep in a config file and write the CSVs.

    Returns a summary dict: written file paths plus per-sweep agreement
    statistics (max |analytic - mc| and max Monte Carlo standard error).
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

    # Sweeps sharing an output kind land in one CSV, so their layouts
    # must agree exactly.
    by_output: dict[str, list] = {}
    layout: dict[str, tuple] = {}
    for sweep in plan.sweeps:
        shape = (sweep.axis, tuple(key for key, _ in sweep.overrides),
                 sweep.engines)
        for out in sweep.outputs:
            if out in layout and layout[out] != shape:
                raise SchemaError(
                    f"sweep {sweep.name!r} output {out!r} does not match the "
                    "axis/override/engine layout of an earlier sweep")
            layout[out] = shape
            by_output.setdefault(out, [])

    summary = {"files": [], "sweeps": []}
    for sweep in plan.sweeps:
        rows = _evaluate_sweep(plan, sweep)
        worst = 0.0
        stderr = 0.0
        count = 0
        for out in sweep.outputs:
            by_output[out].extend(rows[out])
            for row in rows[out]:
                count += 1
                if f"{out}_analytic" in row and f"{out}_mc" in row:
                    worst = max(worst, abs(row[f"{out}_analytic"]
                                           - row[f"{out}_mc"]))
                stderr = max(stderr, row.get("mc_stderr", 0.0))
        summary["sweeps"].append({
            "name": sweep.name, "points": len(sweep.values),
            "rows": count, "max_abs_delta": worst, "max_stderr": stderr})

    os.makedirs(out_dir, exist_ok=True)
    for out, rows in by_output.items():
        axis, override_keys, engines = layout[out]
        header = [_AXIS_COLUMN[axis], *override_keys]
        if engines in ("analytic", "both"):
            header.append(f"{out}_analytic")
        if engines in ("montecarlo", "both"):
            header.extend((f"{out}_mc", "mc_stderr"))
        path_out = os.path.join(out_dir, f"{plan.prefix}_{out}.csv")
        with open(path_out, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(row[col]) for col in header])
        summary["files"].append(path_out)
    return summary


# ---------------------------------------------------------------------------
# Presets


_PHYSICS_LOS = """\
[roads]
lambda_h_per_m = 0.01
lambda_v_per_m = 0.01

[loss_useful]
norm = euclidean
amplitude_a = 3e-5
alpha = 2

[loss_h]
norm = euclidean
amplitude_a = 3e-5
alpha = 2

[loss_v]
norm = euclidean
amplitude_a = 3e-5
alpha = 2

[fading_useful]
family = exponential
theta = 1

[fading_h]
family = exponential
theta = 1

[fading_v]
family = exponential
theta = 1
"""

_LINK_TEMPLATE = """\
[link]
tx_x_m = {tx_x}
tx_y_m = {tx_y}
rx_x_m = {rx_x}
rx_y_m = {rx_y}
power_w = 0.1
noise_dbm = -99
beta_db = 8
"""


def _fig2_config() -> str:
    parts = [
        _PHYSICS_LOS,
        "[mac]\nprotocol = aloha\np = 0.005\n",
        _LINK_TEMPLATE.format(tx_x=110, tx_y=0, rx_x=10, rx_y=0),
        "[sim]\nrealizations = 100000\nwindow_half_length_m = 400000\n"
        "seed = 20260817\nworkers = 4\n",
        "[output]\nprefix = fig2\n",
    ]
    for d in (0, 100, 500):
        for p in ("0", "0.005", "0.1"):
            parts.append(
                f"[sweep:d{d}-p{p}]\n"
                "axis = tx_rx_distance\n"
                "values = 10:700:30\n"
                "output = outage\n"
                "engines = both\n"
                f"d_m = {d}\n"
                f"p = {p}\n")
    return "\n".join(parts)


def _case2_config() -> str:
    physics = """\
[roads]
lambda_h_per_m = 0.01
lambda_v_per_m = 0.01

[loss_useful]
norm = manhattan
amplitude_a = 3e-5
alpha = 2

[loss_h]
norm = euclidean
amplitude_a = 3e-5
alpha = 2

[loss_v]
norm = manhattan
amplitude_a = 3e-5
alpha = 2

[fading_useful]
family = lognormal
sigma_db = 3.2

[fading_h]
family = exponential
theta = 1

[fading_v]
family = lognormal
sigma_db = 3.2
"""
    parts = [
        physics,
        "[mac]\nprotocol = aloha\np = 0.002\n",
        _LINK_TEMPLATE.format(tx_x=0, tx_y=50, rx_x=10, rx_y=0),
        "[sim]\nrealizations = 100000\nwindow_half_length_m = 200000\n"
        "seed = 20260817\nworkers = 4\n",
        "[output]\nprefix = case2\n",
    ]
    for tx_y in (50, 150):
        for p in ("0.002", "0.02"):
            parts.append(
                f"[sweep:ty{tx_y}-p{p}]\n"
                "axis = rx_to_intersection_d\n"
                "values = 10:310:25\n"
                "output = outage\n"
                "engines = both\n"
                f"tx_y_m = {tx_y}\n"
                f"p = {p}\n")
    return "\n".join(parts)


def _fig3_config() -> str:
    parts = [
        _PHYSICS_LOS,
        "[mac]\nprotocol = csma\ndelta_m = 500\n",
        _LINK_TEMPLATE.format(tx_x=0, tx_y=0, rx_x=10, rx_y=0),
        "[sim]\nrealizations = 50000\nwindow_half_length_m = 40000\n"
        "seed = 20260817\nworkers = 4\n",
        "[output]\nprefix = fig3\n",
    ]
    for tx_y in (0, 150):
        for delta in (500, 10000):
            parts.append(
                f"[sweep:ty{tx_y}-delta{delta}]\n"
                "axis = rx_to_intersection_d\n"
                "values = 10:610:50\n"
                "output = outage\n"
                "engines = both\n"
                "tx_x_m = 0\n"
                f"tx_y_m = {tx_y}\n"
                f"delta_m = {delta}\n")
    return "\n".join(parts)


_FIG4_PA = ("0.001, 0.0014, 0.002, 0.0028, 0.004, 0.0055, 0.0065, 0.008, "
            "0.011, 0.016, 0.022, 0.03, 0.045, 0.065, 0.09, 0.13, 0.19, 0.3")
_FIG5_PA = ("0.003, 0.004, 0.0055, 0.0075, 0.01, 0.013, 0.016, 0.019, "
            "0.0225, 0.027, 0.033, 0.045, 0.065, 0.09, 0.13, 0.2")


def _fig4_config() -> str:
    parts = [
        _PHYSICS_LOS,
        "[mac]\nprotocol = aloha\np = 0.005\n",
        _LINK_TEMPLATE.format(tx_x=100, tx_y=0, rx_x=0, rx_y=0),
        "[sim]\nrealizations = 20000\nwindow_half_length_m = 200000\n"
        "seed = 20260817\nworkers = 4\n",
        "[output]\nprefix = fig4\n",
    ]
    for tx_x in (100, 200):
        parts.append(
            f"[sweep:r{tx_x}]\n"
            "axis = access_probability\n"
            f"values = {_FIG4_PA}\n"
            "output = outage,throughput\n"
            "engines = both\n"
            f"tx_x_m = {tx_x}\n")
    return "\n".join(parts)


def _fig5_config() -> str:
    parts = [
        _PHYSICS_LOS,
        "[mac]\nprotocol = csma\ndelta_m = 500\n",
        _LINK_TEMPLATE.format(tx_x=0, tx_y=0, rx_x=-100, rx_y=0),
        "[sim]\nrealizations = 10000\nwindow_half_length_m = 20000\n"
        "seed = 20260817\nworkers = 4\n",
        "[output]\nprefix = fig5\n",
    ]
    for tx_x in (0, 100):
        parts.append(
            f"[sweep:r{tx_x + 100}]\n"
            "axis = access_probability\n"
            f"values = {_FIG5_PA}\n"
            "output = outage,throughput\n"
            "engines = both\n"
            f"tx_x_m = {tx_x}\n")
    return "\n".join(parts)


PRESETS = {
    "fig2": _fig2_config,
    "case2": _case2_config,
    "fig3": _fig3_config,
    "fig4": _fig4_config,
    "fig5": _fig5_config,
}


def preset_config(name: str) -> str:
    try:
        return PRESETS[name]()
    except KeyError:
        raise UnknownPreset(
            f"unknown preset {name!r}" + _suggest(name, PRESETS)) from None


# ---------------------------------------------------------------------------
# compare


def _read_csv(path: str):
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None:
                raise AxisMismatch(f"{path} is empty")
            return list(reader.fieldnames), list(reader)
    except OSError as exc:
        raise ConfigParseError(f"cannot read {path}: {exc}") from exc


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
    engine-agreement check).  Tolerance spec is ``abs:X`` for a plain
    absolute bound or ``stderr:K`` for K times the Monte Carlo
    standard error.
    """
    kind, _, arg = tol_spec.partition(":")
    if kind not in ("abs", "stderr") or not arg:
        raise SchemaError(f"tolerance {tol_spec!r} must be abs:X or stderr:K")
    try:
        tol_value = float(arg)
    except ValueError as exc:
        raise SchemaError(f"tolerance {tol_spec!r}: {exc}") from exc

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
            if float(ra[col]) != float(rb[col]):
                raise AxisMismatch(
                    f"row {i}: {col} = {ra[col]} vs {rb[col]}")

    values_a = [c for c in fields_a if _is_value_column(c) and c != "mc_stderr"]
    values_b = [c for c in fields_b if _is_value_column(c) and c != "mc_stderr"]
    if values_a == values_b and values_a:
        pairs = [(c, c) for c in values_a]
    else:
        pairs = [(_pick_column(fields_a, "_analytic"),
                  _pick_column(fields_b, "_mc"))]
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
            delta = abs(float(ra[col_a]) - float(rb[col_b]))
            max_delta = max(max_delta, delta)
            if kind == "abs":
                allowed = tol_value
            else:
                allowed = tol_value * float(stderr_rows[i]["mc_stderr"])
            excess = delta - allowed
            if excess > worst_excess:
                worst_excess = excess
                worst = (col_a, col_b, i, ra, delta, allowed)

    ok = worst_excess <= 0.0
    col_a, col_b, i, ra, delta, allowed = worst
    what = " ".join(f"{a}~{b}" if a != b else a for a, b in pairs)
    where = ", ".join(f"{c}={float(ra[c]):g}" for c in ids_a)
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


_NUMERIC_ERRORS = (ToleranceNotMet, NonConvergence, PoleError,
                   propagation.FitDegenerate, analytic.WrongScenario,
                   propagation.UnsupportedDistribution,
                   propagation.DegenerateGeometry, mac.WrongMac,
                   mac.OffRoadPosition, OverflowError)
_CONFIG_ERRORS = (ConfigParseError, SchemaError, AxisMismatch, UnknownPreset)


def _print_summary(summary: dict) -> None:
    for sweep in summary["sweeps"]:
        line = (f"sweep {sweep['name']}: {sweep['points']} points")
        if sweep["max_stderr"] > 0.0:
            line += (f", max |analytic - mc| = {sweep['max_abs_delta']:.3e}"
                     f", max mc std-err = {sweep['max_stderr']:.3e}")
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
            fit = analytic._surrogate(model.LogNormal(args.sigma_db))
            print(f"sigma_db = {args.sigma_db} -> Erlang k = {fit.k}, "
                  f"theta = {fit.theta:.6f}")
            return 0
        raise AssertionError(args.command)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
