"""Spans at crossrx's module boundaries, taken from outside the program.

Each span is opened by a wrapper installed over a public name in the
namespace of the *calling* module (``crossrx.analytic.integrate_line``
wraps analytic -> numerics calls, ``crossrx.cli.mac`` is replaced by a
proxy whose ``contention_mass`` is wrapped, and so on).  ``uninstall``
puts every original back and checks that it did.

Spans are recorded per thread: the Monte Carlo engine calls
``sample_fading_array`` from pool threads, so each thread keeps its own
span stack and totals, and the totals are merged after the run.  A
layer's self time is its spans' durations minus the time of their direct
children on the same thread.  Chunks evaluated by pool threads are spans
of the ``montecarlo`` layer, and the time the calling thread spends
waiting for the pool is not counted as anyone's self time, so
``montecarlo`` self time sums the work of all threads.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

_WAIT = "wait"
# Per-call durations are kept only where a percentile is reported.
_KEEP_DURATIONS = frozenset({"analytic.reception_probability"})


class _Stats:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.durations = defaultdict(list)


class _Proxy:
    """Stands in for a module in a caller's namespace; names not
    overridden resolve to the module itself."""

    def __init__(self, module, overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _drawn_density(scenario, road: str) -> float:
    """Nodes per metre the Monte Carlo draws on ``road``: the thinned
    density for Aloha, every node for CSMA (thinned after drawing)."""

    from crossrx import model

    lam = scenario.roads.density(road)
    if isinstance(scenario.mac, model.Aloha):
        return scenario.mac.p * lam
    if isinstance(scenario.mac, model.Csma):
        return lam
    return 0.0


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[_Stats] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- recording -----------------------------------------------------

    def _thread(self):
        local = self._local
        if not hasattr(local, "stats"):
            local.stats = _Stats()
            local.stack = []
            with self._lock:
                self._per_thread.append(local.stats)
        return local

    def count(self, key: str, amount: float = 1.0) -> None:
        self._thread().stats.counts[key] += amount

    def span(self, name: str, layer: str, fn, *args, **kwargs):
        local = self._thread()
        frame = [name, layer, 0.0]  # child time accumulates in frame[2]
        local.stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            local.stack.pop()
            if local.stack:
                local.stack[-1][2] += elapsed
            stats = local.stats
            stats.total_s[name] += elapsed
            stats.calls[name] += 1
            if name in _KEEP_DURATIONS:
                stats.durations[name].append(elapsed)
            if layer != _WAIT:
                stats.self_s[layer] += elapsed - frame[2]

    def wrap(self, fn, name: str, layer: str):
        def wrapper(*args, **kwargs):
            return self.span(name, layer, fn, *args, **kwargs)
        return wrapper

    def merged(self) -> _Stats:
        out = _Stats()
        with self._lock:
            threads = list(self._per_thread)
        for stats in threads:
            for field in ("self_s", "total_s", "calls", "counts"):
                for key, value in getattr(stats, field).items():
                    getattr(out, field)[key] += value
            for key, values in stats.durations.items():
                out.durations[key].extend(values)
        return out

    def reset(self) -> None:
        with self._lock:
            for stats in self._per_thread:
                stats.__init__()

    # --- installation --------------------------------------------------

    def _patch(self, namespace, attr: str, replacement) -> None:
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, replacement)

    def install(self) -> None:
        from crossrx import analytic, cli, mac, model, montecarlo, propagation

        if self._patches:
            raise RuntimeError("tracer already installed")
        tracer = self

        # cli -> other modules.  Proxies, because cli calls through module
        # attributes that the modules also use among themselves; cli calls
        # contention_mass only to solve for delta.
        def contention_mass(*args, **kwargs):
            tracer.count("cli.delta_solve_calls")
            return tracer.span("mac.contention_mass", "mac",
                               mac.contention_mass, *args, **kwargs)

        def simulate_outage_sweep(scenario, links, settings):
            tracer.count("montecarlo.links", len(links))
            tracer.count("montecarlo.expected_points",
                         settings.realizations
                         * 2.0 * settings.window_half_length
                         * (_drawn_density(scenario, "h")
                            + _drawn_density(scenario, "v")))
            return tracer.span("montecarlo.simulate_outage_sweep",
                               "montecarlo", sweep, scenario, links, settings)

        self._patch(cli, "run_config_text",
                    self.wrap(cli.run_config_text, "cli.run_config_text",
                              "cli"))
        self._patch(cli, "model", _Proxy(model, {
            "validate": self.wrap(model.validate, "model.validate",
                                  "model")}))
        self._patch(cli, "analytic", _Proxy(analytic, {
            "reception_probability": self.wrap(
                analytic.reception_probability,
                "analytic.reception_probability", "analytic")}))
        self._patch(cli, "mac", _Proxy(mac, {
            "contention_mass": contention_mass,
            "access_probability": self.wrap(
                mac.access_probability, "mac.access_probability", "mac")}))
        self._patch(cli, "propagation", _Proxy(propagation, {
            "erlang_fit": self.wrap(propagation.erlang_fit,
                                    "propagation.erlang_fit",
                                    "propagation")}))
        sweep = cli.simulate_outage_sweep
        self._patch(cli, "simulate_outage_sweep", simulate_outage_sweep)

        # analytic -> numerics, mac, propagation.
        integrate_line = analytic.integrate_line

        def traced_integrate_line(f, *args, **kwargs):
            def integrand(z):
                tracer.count("numerics.integrand_evals")
                return f(z)
            return tracer.span("numerics.integrate_line", "numerics",
                               integrate_line, integrand, *args, **kwargs)

        self._patch(analytic, "integrate_line", traced_integrate_line)
        for attr in ("derivative_n", "hyp2f1_regularized"):
            self._patch(analytic, attr, self.wrap(
                getattr(analytic, attr), f"numerics.{attr}", "numerics"))
        self._patch(analytic, "access_probability", self.wrap(
            analytic.access_probability, "mac.access_probability", "mac"))
        # The intensity callables mac hands to the quadrature evaluate one
        # access probability per call (p * lambda for Aloha).
        for attr in ("aloha_intensity", "csma_intensity"):
            make = getattr(analytic, attr)

            def traced_make(*args, _make=make, **kwargs):
                return self.wrap(_make(*args, **kwargs),
                                 "mac.access_probability", "mac")

            self._patch(analytic, attr, traced_make)
        for attr in ("path_loss", "fading_lt"):
            self._patch(analytic, attr, self.wrap(
                getattr(analytic, attr), f"propagation.{attr}",
                "propagation"))

        # montecarlo -> propagation, mac, and its own worker pool.
        sample = montecarlo.sample_fading_array

        def traced_sample(f, rng, shape):
            cells = 1
            for n in shape:
                cells *= n
            tracer.count("propagation.fading_cells", cells)
            if len(shape) == 2:
                tracer.count("montecarlo.road_cells", cells)
            return tracer.span("propagation.sample_fading_array",
                               "propagation", sample, f, rng, shape)

        self._patch(montecarlo, "sample_fading_array", traced_sample)
        self._patch(montecarlo, "path_loss", self.wrap(
            montecarlo.path_loss, "propagation.path_loss", "propagation"))
        for attr in ("access_probability", "access_probability_from_mass"):
            self._patch(montecarlo, attr, self.wrap(
                getattr(montecarlo, attr), f"mac.{attr}", "mac"))

        class TracedPool(ThreadPoolExecutor):
            def __enter__(self):
                local = tracer._thread()
                self._wait = [None, _WAIT, 0.0]
                local.stack.append(self._wait)
                self._wait_start = time.perf_counter()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    local = tracer._thread()
                    elapsed = time.perf_counter() - self._wait_start
                    if local.stack.pop() is not self._wait:
                        raise RuntimeError("unbalanced span stack")
                    if local.stack:
                        local.stack[-1][2] += elapsed

            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.span, "montecarlo.chunk",
                                      "montecarlo", fn, *args, **kwargs)

        self._patch(montecarlo, "ThreadPoolExecutor", TracedPool)

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        missing = [f"{getattr(ns, '__name__', ns)}.{attr}"
                   for ns, attr, original in self._patches
                   if getattr(ns, attr) is not original]
        self._patches.clear()
        if missing:
            raise RuntimeError("originals not restored: " + ", ".join(missing))
