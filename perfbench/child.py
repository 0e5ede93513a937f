"""One benchmark process: set up a workload, then run its timed phases.

    python3 perfbench/child.py setup WORKLOAD SEED OUT_JSON
    python3 perfbench/child.py run WORKLOAD SEED SECONDS TRACE WORK_DIR OUT_JSON

Started by ``run.py`` in a fresh interpreter, from the root of a checkout,
so that set-up includes importing crossrx.  Drives the program only
through ``crossrx.cli.run_config_text`` and ``crossrx.cli.analytic_view``.
Writes its measurements as JSON to OUT_JSON and nothing to stdout.
"""

import time

_START = time.perf_counter()

import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402

# Each kind of timed pass runs at least this many times, whatever
# --seconds is, so that its statistic is over several passes.
MIN_PASSES = 3


def _import_program():
    import crossrx
    from crossrx import cli

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(crossrx.__file__).startswith(src + os.sep):
        raise SystemExit(f"crossrx imported from {crossrx.__file__}, "
                         f"not from {src}")
    return cli


def _set_up(cli, workload, seed):
    texts = [c.ini("analytic", seed, workloads.WORKERS)
             for c in workload.configs]
    for text in texts:
        cli.analytic_view(workloads.scenario_from_ini(text))
    return texts


class Runner:
    """Runs configs through ``cli.run_config_text`` and keeps what the
    gate needs: CSV digests, the last pass's rows, warning counts and
    errors."""

    def __init__(self, cli, work_dir):
        self.cli = cli
        self.work_dir = work_dir
        self.warnings = {"truncation": 0, "other": 0}
        self.errors = []

    def run_pass(self, configs, texts, tag):
        """One pass over ``configs``. Returns (wall seconds, digests, rows)."""

        out_dir = os.path.join(self.work_dir, tag)
        os.makedirs(out_dir, exist_ok=True)
        elapsed = 0.0
        for config, text in zip(configs, texts):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                start = time.perf_counter()
                try:
                    self.cli.run_config_text(text, out_dir=out_dir,
                                             source=config.prefix)
                except Exception as exc:  # its points count as failed
                    self.errors.append(
                        f"{tag} {config.prefix}: {type(exc).__name__}: {exc}")
                elapsed += time.perf_counter() - start
            for w in caught:
                text_w = str(w.message)
                key = ("truncation" if "truncated" in text_w
                       or "window half-length" in text_w else "other")
                self.warnings[key] += 1
        digests, rows = {}, {}
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as handle:
                data = handle.read()
            digests[name] = hashlib.sha256(data).hexdigest()
            reader = csv.DictReader(data.decode("utf-8").splitlines())
            rows[name] = [{k: float(v) for k, v in row.items()}
                          for row in reader]
            os.remove(os.path.join(out_dir, name))
        return elapsed, digests, rows


def _phase(runner, configs, texts, tag, budget_s, min_passes):
    times, digests, rows = [], [], {}
    deadline = time.perf_counter() + budget_s
    while len(times) < min_passes or time.perf_counter() < deadline:
        elapsed, pass_digests, rows = runner.run_pass(configs, texts, tag)
        times.append(elapsed)
        digests.append(pass_digests)
    return times, digests, rows


def _peak_rss_mb():
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _reference_outputs(runner, name):
    """Analytic outputs at the default seed's inputs (the stored
    reference grid)."""

    workload = workloads.build(name, workloads.DEFAULT_SEED)
    texts = [c.ini("analytic", workloads.DEFAULT_SEED, workloads.WORKERS)
             for c in workload.configs]
    return runner.run_pass(workload.configs, texts, "reference")[2]


def main_setup(name, seed, out_path):
    cli = _import_program()
    _set_up(cli, workloads.build(name, seed), seed)
    setup_s = time.perf_counter() - _START
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"setup_s": setup_s}, handle)


def main_run(name, seed, seconds, trace, work_dir, out_path):
    cli = _import_program()
    workload = workloads.build(name, seed)
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    texts_a = _set_up(cli, workload, seed)
    setup_s = time.perf_counter() - _START
    mc_configs = workload.mc_configs
    texts_mc = [c.ini("montecarlo", seed, workloads.WORKERS)
                for c in mc_configs]
    runner = Runner(cli, work_dir)
    result = {"setup_s": setup_s,
              "analytic_points": sum(c.points for c in workload.configs),
              "mc_points": sum(c.points for c in mc_configs)}

    if trace:
        setup_stats = tracer.merged()
        tracer.uninstall()
        result.update(_traced_phases(runner, tracer, workload, texts_a,
                                     mc_configs, texts_mc, setup_stats))
    else:
        texts_w1 = [c.ini("montecarlo", seed, 1) for c in mc_configs]
        result.update(_timed_phases(runner, workload, texts_a, mc_configs,
                                    texts_mc, texts_w1, seconds))

    result["reference_rows"] = _reference_outputs(runner, name)
    result["warnings"] = runner.warnings
    result["errors"] = runner.errors
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


def _timed_phases(runner, workload, texts_a, mc_configs, texts_mc, texts_w1,
                  seconds):
    """Warm up with one analytic pass and the workers = 1 Monte Carlo
    pass, then interleave timed passes of the two phases for ``seconds``.

    The machine's speed drifts over seconds, so both phases sample the
    whole run instead of one stretch each.  The analytic phase gets
    ``workload.analytic_share`` of the timed passes' time.  Peak memory is
    read after the warm-up, before threads run chunks concurrently, so it
    does not depend on how the pool threads happen to overlap.
    """

    _, digests, _ = runner.run_pass(workload.configs, texts_a, "analytic")
    a_digests = [digests]
    _, w1_digests, _ = runner.run_pass(mc_configs, texts_w1, "mc")
    peak_rss_mb = _peak_rss_mb()
    a_times, mc_times, mc_digests = [], [], []
    rows_a = rows_mc = {}
    deadline = time.perf_counter() + seconds
    while (len(a_times) < MIN_PASSES or len(mc_times) < MIN_PASSES
           or time.perf_counter() < deadline):
        spent_a, spent_mc = sum(a_times), sum(mc_times)
        if spent_a <= workload.analytic_share * (spent_a + spent_mc):
            elapsed, digests, rows_a = runner.run_pass(
                workload.configs, texts_a, "analytic")
            a_times.append(elapsed)
            a_digests.append(digests)
        else:
            elapsed, digests, rows_mc = runner.run_pass(
                mc_configs, texts_mc, "mc")
            mc_times.append(elapsed)
            mc_digests.append(digests)
    return {
        "analytic_pass_s": a_times, "analytic_digests": a_digests,
        "mc_pass_s": mc_times, "mc_digests": mc_digests,
        "mc_w1_digests": w1_digests, "peak_rss_mb": peak_rss_mb,
        "rows": {"analytic": rows_a, "mc": rows_mc},
    }


def _traced_phases(runner, tracer, workload, texts_a, mc_configs, texts_mc,
                   setup_stats):
    """Untraced, traced, untraced: one pass of each phase per round (the
    short analytic phases repeat for at least a second).  Per-layer
    figures come from the traced round, overhead from the comparison."""

    def both_phases():
        times_a, digests_a, _ = _phase(runner, workload.configs, texts_a,
                                       "analytic", 1.0, 1)
        elapsed_mc, digests_mc, _ = runner.run_pass(mc_configs, texts_mc, "mc")
        return (statistics.median(times_a), elapsed_mc, digests_a[-1],
                digests_mc)

    before = both_phases()
    tracer.reset()  # drop the set-up spans
    tracer.install()
    warnings_before = dict(runner.warnings)
    elapsed_a, digests_a, rows_a = runner.run_pass(workload.configs, texts_a,
                                                   "analytic")
    elapsed_mc, digests_mc, rows_mc = runner.run_pass(mc_configs, texts_mc,
                                                      "mc")
    stats = tracer.merged()
    tracer.uninstall()
    warnings_traced = {k: runner.warnings[k] - warnings_before[k]
                       for k in runner.warnings}
    after = both_phases()

    # The faster untraced round: the first one also pays warm-up.
    untraced = min(before[0], after[0]) + min(before[1], after[1])
    metrics = _layer_metrics(stats, setup_stats, rows_mc, warnings_traced)
    metrics["trace.overhead_frac"] = (elapsed_a + elapsed_mc) / untraced - 1.0
    return {
        "layer_metrics": metrics,
        "rows": {"analytic": rows_a, "mc": rows_mc},
        "analytic_digests": [before[2], digests_a, after[2]],
        "mc_digests": [before[3], digests_mc, after[3]],
    }


def _layer_metrics(stats, setup_stats, rows_mc, warnings_traced):
    points = max(1, stats.calls["analytic.reception_probability"])
    durations = sorted(stats.durations["analytic.reception_probability"])

    def pct(q):
        if not durations:
            return 0.0
        return durations[min(len(durations) - 1,
                             int(q * len(durations)))] * 1e3

    calls = stats.calls["montecarlo.simulate_outage_sweep"]
    road_cells = stats.counts["montecarlo.road_cells"]
    cells = stats.counts["propagation.fading_cells"]
    mc_stderr = [row["mc_stderr"] for name, rows in rows_mc.items()
                 if name.endswith("_outage.csv") for row in rows]
    return {
        "cli.self_s": stats.self_s["cli"],
        "cli.delta_solve_calls": stats.counts["cli.delta_solve_calls"],
        "model.validate_calls": stats.calls["model.validate"],
        "model.validate_s": stats.total_s["model.validate"],
        "analytic.point_p50_ms": pct(0.5),
        "analytic.point_p90_ms": pct(0.9),
        "analytic.self_s": stats.self_s["analytic"],
        "numerics.quad_calls_per_point":
            stats.calls["numerics.integrate_line"] / points,
        "numerics.integrand_evals_per_point":
            stats.counts["numerics.integrand_evals"] / points,
        "numerics.quad_s": stats.total_s["numerics.integrate_line"],
        "numerics.diff_calls_per_point":
            stats.calls["numerics.derivative_n"] / points,
        "numerics.diff_s": stats.total_s["numerics.derivative_n"],
        "numerics.hyp2f1_calls": stats.calls["numerics.hyp2f1_regularized"],
        "numerics.hyp2f1_s": stats.total_s["numerics.hyp2f1_regularized"],
        "mac.access_probability_calls":
            stats.calls["mac.access_probability"],
        "mac.access_probability_s": stats.total_s["mac.access_probability"],
        "propagation.fading_cells": cells,
        "propagation.sample_s":
            stats.total_s["propagation.sample_fading_array"],
        "propagation.erlang_fit_s":
            setup_stats.total_s["propagation.erlang_fit"],
        "montecarlo.calls": calls,
        "montecarlo.links_per_call":
            stats.counts["montecarlo.links"] / calls if calls else 0.0,
        "montecarlo.self_s": stats.self_s["montecarlo"],
        "montecarlo.ns_per_cell":
            stats.self_s["montecarlo"] / cells * 1e9 if cells else 0.0,
        "montecarlo.valid_cell_ratio":
            stats.counts["montecarlo.expected_points"] / road_cells
            if road_cells else 0.0,
        "montecarlo.zero_stderr_points": sum(1 for s in mc_stderr if s == 0.0),
        "montecarlo.truncation_warnings": warnings_traced["truncation"],
        "warnings.other": warnings_traced["other"],
    }


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        main_setup(sys.argv[2], int(sys.argv[3]), sys.argv[4])
    elif mode == "run":
        main_run(sys.argv[2], int(sys.argv[3]), float(sys.argv[4]),
                 sys.argv[5] == "1", sys.argv[6], sys.argv[7])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
