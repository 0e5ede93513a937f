"""crossrx benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measurement happens in fresh
child processes (``child.py``) with the BLAS/OpenMP thread counts pinned
to 1, so only the program's own ``workers`` threads run.  The last line
of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics
for ``--trace 1``.  A record of the run (machine and input facts, pass
times, Monte Carlo CSV digests, gate findings) is written to
``.perfbench/results/`` in the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

import numpy
import scipy

import gate
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
DIGEST_FILE = os.path.join(HERE, "mc_digests.json")
# Children that only set up, run this many before the measuring child
# and as many after it, so that set-up is sampled at both ends of the run.
SETUP_SAMPLES_EACH_SIDE = 2
TARGET_STDERR = 0.002
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


class ChildFailed(Exception):
    pass


def _child(root: str, args: list[str], out_path: str) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), *args, out_path],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child {args[:2]} timed out after "
                          f"{CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"child {args[:2]} exited {proc.returncode}:\n"
                          + proc.stderr[-4000:])
    with open(out_path, encoding="utf-8") as handle:
        return json.load(handle)


def _upper_decile(values: list[float]) -> float:
    """Statistic over a run's samples for the timing metrics.

    The shared host alternates between its common, slower state and
    faster spells lasting seconds.  The median of a run's passes flips
    between the two from run to run; the upper decile reads the common
    state unless faster spells fill nine tenths of the run.  It is taken
    over each timed pass, and over the set-up samples.
    """

    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _max_outage_stderr(rows_mc: dict) -> float:
    return max(row["mc_stderr"] for name, rows in rows_mc.items()
               if name.endswith("_outage.csv") for row in rows)


def _stored_digests(name: str, seed: int):
    if not os.path.exists(DIGEST_FILE):
        return None
    with open(DIGEST_FILE, encoding="utf-8") as handle:
        return json.load(handle).get(name, {}).get(str(seed))


def measure(root: str, work: str, args) -> tuple[dict, dict]:
    """Run the children and the checks; return (result line, record)."""

    workload = workloads.build(args.workload, args.seed)

    def set_up_only(tag):
        if args.trace:  # setup_s is not reported
            return []
        return [_child(root, ["setup", args.workload, str(args.seed)],
                       os.path.join(work, f"setup-{tag}{i}.json"))["setup_s"]
                for i in range(SETUP_SAMPLES_EACH_SIDE)]

    setups = set_up_only("before")
    run_dir = os.path.join(work, "csv")
    out = _child(root, ["run", args.workload, str(args.seed),
                        repr(float(args.seconds)), str(args.trace), run_dir],
                 os.path.join(work, "run.json"))
    setups += [out["setup_s"]] + set_up_only("after")

    problems = list(out["errors"])
    rows_a, rows_mc = out["rows"]["analytic"], out["rows"]["mc"]
    bad_a, found = gate.bad_points(workload.configs, rows_a)
    problems += found
    bad_mc, found = gate.bad_points(workload.mc_configs, rows_mc)
    problems += found
    checked, found = gate.check_agreement(workload.mc_configs, rows_a, rows_mc)
    problems += found
    problems += gate.check_digests(out["analytic_digests"], "analytic")
    problems += gate.check_digests(out["mc_digests"], "montecarlo")
    if "mc_w1_digests" in out:
        problems += gate.check_digests(
            [out["mc_digests"][0], out["mc_w1_digests"]],
            "montecarlo workers 1 vs 2")
    problems += gate.check_reference(args.workload, out["reference_rows"])

    # Every pass of a phase wrote the same bytes (checked above), so the
    # points of one pass per phase stand for all of them.
    attempted = out["analytic_points"] + out["mc_points"]
    failed = bad_a + bad_mc
    correct = not problems and failed == 0

    if args.trace:
        values = dict(out["layer_metrics"])
        values["failed_frac"] = failed / attempted
        units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    else:
        mc_wall = _upper_decile(out["mc_pass_s"])
        values = {
            "setup_s": _upper_decile(setups),
            "analytic_ms_per_point":
                _upper_decile(out["analytic_pass_s"])
                / out["analytic_points"] * 1e3,
            "mc_wall_s": mc_wall,
            "mc_time_to_accuracy_s":
                mc_wall * (_max_outage_stderr(rows_mc) / TARGET_STDERR) ** 2,
            "peak_rss_mb": out["peak_rss_mb"],
        }
        units = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }

    mc_digests = out["mc_digests"][-1]
    stored = _stored_digests(args.workload, args.seed)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "facts": {
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "thread_vars": {var: "1" for var in THREAD_VARS},
            "workers": workloads.WORKERS,
            "configs": {c.prefix: {"points": c.points,
                                   "realizations": c.realizations,
                                   "window_half_length_m": c.window_m,
                                   "monte_carlo": c.gate is not None}
                        for c in workload.configs},
        },
        "result": result,
        "setup_s_samples": setups,
        "analytic_pass_s": out.get("analytic_pass_s"),
        "mc_pass_s": out.get("mc_pass_s"),
        "mc_csv_sha256": mc_digests,
        "mc_csv_matches_stored": None if stored is None else stored == mc_digests,
        "points_checked_against_mc": checked,
        "warnings": out["warnings"],
        "problems": problems,
    }
    return result, record


def _spec() -> dict:
    path = os.path.join(HERE, os.pardir, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "crossrx", "__init__.py")):
        print("error: no crossrx sources under ./src; run from the root of "
              "a crossrx checkout", file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        result, record = measure(root, work, args)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = os.path.join(root, ".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    record_path = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for problem in record["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
