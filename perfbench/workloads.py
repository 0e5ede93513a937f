"""Workload definitions: the INI configs each benchmark workload runs.

A workload is a list of configs.  Every config is emitted twice per run,
once with all sweeps set to ``engines = analytic`` and once with
``engines = montecarlo``; the two outputs line up row by row, which is
what the correctness gate compares.

The workload seed sets the Monte Carlo ``seed`` and jitters the interior
sweep abscissae by up to a quarter of the gap to their neighbours, so the
values stay inside the preset ranges and strictly monotone.  The same
seed always gives the same configs.
"""

from __future__ import annotations

import configparser
import dataclasses
import random
from dataclasses import dataclass

DEFAULT_SEED = 0

# Workers for the timed Monte Carlo passes: at most the 2 cores of the
# machine the benchmark was tuned on, not the presets' 4.
WORKERS = 2

LOS = {"norm": "euclidean", "amplitude_a": 3e-5, "alpha": 2}
CANYON = {"norm": "manhattan", "amplitude_a": 3e-5, "alpha": 2}
EXP = {"family": "exponential", "theta": 1}


def lognormal(sigma_db: float) -> dict:
    return {"family": "lognormal", "sigma_db": sigma_db}


def physics(loss_useful=LOS, loss_h=LOS, loss_v=LOS, fading_useful=EXP,
            fading_h=EXP, fading_v=EXP) -> dict:
    return {
        "roads": {"lambda_h_per_m": 0.01, "lambda_v_per_m": 0.01},
        "loss_useful": loss_useful, "loss_h": loss_h, "loss_v": loss_v,
        "fading_useful": fading_useful, "fading_h": fading_h,
        "fading_v": fading_v,
    }


def link(tx_x, tx_y, rx_x, rx_y) -> dict:
    return {"tx_x_m": tx_x, "tx_y_m": tx_y, "rx_x_m": rx_x, "rx_y_m": rx_y,
            "power_w": 0.1, "noise_dbm": -99, "beta_db": 8}


def grid(start: float, stop: float, step: float) -> tuple[float, ...]:
    count = int(round((stop - start) / step)) + 1
    return tuple(start + i * step for i in range(count))


@dataclass(frozen=True)
class Sweep:
    name: str
    axis: str
    values: tuple[float, ...]
    output: str = "outage"
    overrides: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class Config:
    """One INI config of a workload.

    ``gate`` names how its Monte Carlo rows are checked against its
    analytic rows: ``exact`` (Aloha, line of sight, exponential fading:
    the closed forms are exact under the model), ``surrogate`` (log-normal
    shadowing against its Erlang fit, acceptance criterion 05) or
    ``csma`` (hard-core process against its PPP approximation, criterion
    06).  ``None`` means the config has no Monte Carlo pass.
    """

    prefix: str
    gate: str | None
    sections: dict
    realizations: int
    window_m: float
    sweeps: tuple[Sweep, ...]

    @property
    def points(self) -> int:
        return sum(len(s.values) for s in self.sweeps)

    def ini(self, engines: str, seed: int, workers: int) -> str:
        lines = []
        for section, keys in self.sections.items():
            lines.append(f"[{section}]")
            lines.extend(f"{k} = {v}" for k, v in keys.items())
            lines.append("")
        lines += ["[sim]", f"realizations = {self.realizations}",
                  f"window_half_length_m = {self.window_m!r}",
                  f"seed = {seed}", f"workers = {workers}", "",
                  "[output]", f"prefix = {self.prefix}", ""]
        for sweep in self.sweeps:
            lines += [f"[sweep:{sweep.name}]", f"axis = {sweep.axis}",
                      "values = " + ", ".join(repr(v) for v in sweep.values),
                      f"output = {sweep.output}", f"engines = {engines}"]
            lines.extend(f"{k} = {v!r}" for k, v in sweep.overrides)
            lines.append("")
        return "\n".join(lines)


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple[Config, ...]
    # Share of --seconds given to the analytic phase; the rest goes to
    # the Monte Carlo phase.
    analytic_share: float

    @property
    def mc_configs(self) -> tuple[Config, ...]:
        return tuple(c for c in self.configs if c.gate is not None)


def _jitter(values: tuple[float, ...], rng: random.Random) -> tuple[float, ...]:
    if len(values) < 3:
        return values
    out = list(values)
    for i in range(1, len(values) - 1):
        gap = min(values[i] - values[i - 1], values[i + 1] - values[i])
        out[i] = values[i] + rng.uniform(-0.25, 0.25) * gap
    return tuple(out)


_FIG4_PA = (0.001, 0.0014, 0.002, 0.0028, 0.004, 0.0055, 0.0065, 0.008,
            0.011, 0.016, 0.022, 0.03, 0.045, 0.065, 0.09, 0.13, 0.19, 0.3)
# Every other fig5 value (endpoints kept): each fig5 point is its own
# Monte Carlo call, and the full list does not fit a run's time budget.
_FIG5_PA = (0.003, 0.0055, 0.01, 0.016, 0.0225, 0.033, 0.065, 0.2)


def _fig2(n: int) -> Config:
    sweeps = tuple(
        Sweep(f"d{d}-p{p}", "tx_rx_distance", grid(10, 700, 30),
              overrides=(("d_m", float(d)), ("p", p)))
        for d in (0, 100, 500) for p in (0.0, 0.005, 0.1))
    return Config("fig2", "exact",
                  {**physics(), "mac": {"protocol": "aloha", "p": 0.005},
                   "link": link(110, 0, 10, 0)},
                  n, 400_000.0, sweeps)


def _case2(n: int, gate: str | None = "surrogate") -> Config:
    sweeps = tuple(
        Sweep(f"ty{ty}-p{p}", "rx_to_intersection_d", grid(10, 310, 25),
              overrides=(("tx_y_m", float(ty)), ("p", p)))
        for ty in (50, 150) for p in (0.002, 0.02))
    return Config("case2", gate,
                  {**physics(loss_useful=CANYON, loss_v=CANYON,
                             fading_useful=lognormal(3.2),
                             fading_v=lognormal(3.2)),
                   "mac": {"protocol": "aloha", "p": 0.002},
                   "link": link(0, 50, 10, 0)},
                  n, 200_000.0, sweeps)


def _fig3(n: int) -> Config:
    sweeps = tuple(
        Sweep(f"ty{ty}-delta{delta}", "rx_to_intersection_d",
              grid(10, 610, 50),
              overrides=(("tx_x_m", 0.0), ("tx_y_m", float(ty)),
                         ("delta_m", float(delta))))
        for ty in (0, 150) for delta in (500, 10000))
    return Config("fig3", "csma",
                  {**physics(), "mac": {"protocol": "csma", "delta_m": 500},
                   "link": link(0, 0, 10, 0)},
                  n, 40_000.0, sweeps)


def _csma_moving_tx(n: int) -> Config:
    # tx_rx_distance moves the transmitter: every link of the one Monte
    # Carlo call has its own transmitter, unlike the fig3 sweeps.
    return Config("csmatx", "csma",
                  {**physics(), "mac": {"protocol": "csma", "delta_m": 500},
                   "link": link(110, 0, 10, 0)},
                  n, 40_000.0,
                  (Sweep("tx", "tx_rx_distance", grid(10, 610, 50)),))


def _fig4(n: int) -> Config:
    sweeps = tuple(
        Sweep(f"r{tx}", "access_probability", _FIG4_PA,
              output="outage,throughput", overrides=(("tx_x_m", float(tx)),))
        for tx in (100, 200))
    return Config("fig4", "exact",
                  {**physics(), "mac": {"protocol": "aloha", "p": 0.005},
                   "link": link(100, 0, 0, 0)},
                  n, 200_000.0, sweeps)


def _fig5(n: int) -> Config:
    sweeps = tuple(
        Sweep(f"r{tx + 100}", "access_probability", _FIG5_PA,
              output="outage,throughput", overrides=(("tx_x_m", float(tx)),))
        for tx in (0, 100))
    return Config("fig5", "csma",
                  {**physics(), "mac": {"protocol": "csma", "delta_m": 500},
                   "link": link(0, 0, -100, 0)},
                  n, 20_000.0, sweeps)


def _csma_erlang(sigma_db: float, values: tuple[float, ...]) -> Config:
    return Config(f"csma-sigma{sigma_db}", None,
                  {**physics(fading_useful=lognormal(sigma_db)),
                   "mac": {"protocol": "csma", "delta_m": 500},
                   "link": link(0, 0, 10, 0)},
                  1, 40_000.0,
                  (Sweep("rx", "rx_to_intersection_d", values),))


def _aloha_erlang(n: int) -> Config:
    # alpha = 3 on the V road has no closed form: quadrature plus
    # derivatives up to order k0 - 1 = 3.
    return Config("aloha-alpha3", "surrogate",
                  {**physics(loss_v={**LOS, "alpha": 3},
                             fading_useful=lognormal(2.2)),
                   "mac": {"protocol": "aloha", "p": 0.005},
                   "link": link(110, 0, 100, 0)},
                  n, 200_000.0,
                  (Sweep("u", "tx_rx_distance", grid(10, 310, 25)),))


def _definitions() -> dict[str, Workload]:
    return {
        "aloha-distance": Workload(
            "aloha-distance", (_fig2(5000), _case2(5000)), 0.3),
        "csma-distance": Workload(
            "csma-distance", (_fig3(238), _csma_moving_tx(238)), 0.3),
        "access-sweep": Workload(
            "access-sweep", (_fig4(1000), _fig5(120)), 0.3),
        "analytic-erlang": Workload(
            "analytic-erlang",
            (_csma_erlang(3.2, grid(10, 610, 100)),
             _csma_erlang(2.5, grid(10, 610, 100)),
             _csma_erlang(2.0, grid(10, 610, 150)),
             _aloha_erlang(20000), _case2(1, gate=None)),
            0.8),
    }


WORKLOADS = tuple(_definitions())


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` with its abscissae jittered by ``seed``."""

    base = _definitions()[name]
    rng = random.Random(f"{name}/{seed}")
    configs = tuple(
        dataclasses.replace(config, sweeps=tuple(
            dataclasses.replace(s, values=_jitter(s.values, rng))
            for s in config.sweeps))
        for config in base.configs)
    return dataclasses.replace(base, configs=configs)


def scenario_from_ini(text: str):
    """Parse a config's physics into a ``crossrx.model.Scenario``.

    Used for set-up only, to hand ``cli.analytic_view`` the scenario a run
    of this config evaluates.
    """

    from crossrx import model

    cp = configparser.ConfigParser()
    cp.read_string(text)

    def loss(section):
        s = cp[section]
        return model.PathLossSpec(norm=s["norm"],
                                  amplitude_a=float(s["amplitude_a"]),
                                  alpha=float(s["alpha"]))

    def fading(section):
        s = cp[section]
        if s["family"] == "lognormal":
            return model.LogNormal(sigma_db=float(s["sigma_db"]))
        return model.Erlang(int(s.get("k", "1")), float(s["theta"]))

    mac = cp["mac"]
    if mac["protocol"] == "aloha":
        mac_spec = model.Aloha(p=float(mac["p"]))
    else:
        mac_spec = model.Csma(delta=float(mac["delta_m"]))
    return model.Scenario(
        roads=model.RoadConfig(float(cp["roads"]["lambda_h_per_m"]),
                               float(cp["roads"]["lambda_v_per_m"])),
        mac=mac_spec,
        loss_useful=loss("loss_useful"), loss_h=loss("loss_h"),
        loss_v=loss("loss_v"), fading_useful=fading("fading_useful"),
        fading_h=fading("fading_h"), fading_v=fading("fading_v"))
