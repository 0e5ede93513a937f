"""Regenerate the benchmark's stored reference data.

    python3 perfbench/make_reference.py

Run from the root of a checkout.  Writes

* ``reference_analytic.json``: the analytic outage of every point of
  every workload at the default seed, which the gate checks each run
  against;
* ``mc_digests.json``: SHA-256 of each Monte Carlo CSV per workload and
  seed 0-9, which each run's record compares against, so a change can
  say whether its Monte Carlo output stayed bit-identical.

Only regenerate these on purpose, for a change that is meant to move the
numbers, and say so in the change.
"""

import hashlib
import json
import os
import sys
import tempfile
import warnings

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402
from crossrx import cli  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
DIGEST_SEEDS = range(10)


def _run(configs, engines, seed, out_dir):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for config in configs:
            cli.run_config_text(config.ini(engines, seed, workloads.WORKERS),
                                out_dir=out_dir)
    out = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        with open(path, "rb") as handle:
            out[name] = handle.read()
        os.remove(path)
    return out


def main():
    work_root = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(work_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as out_dir:
        reference = {}
        for name in workloads.WORKLOADS:
            workload = workloads.build(name, workloads.DEFAULT_SEED)
            files = _run(workload.configs, "analytic",
                         workloads.DEFAULT_SEED, out_dir)
            reference[name] = {}
            for csv_name, data in files.items():
                lines = data.decode("utf-8").splitlines()
                if "outage_analytic" not in lines[0].split(","):
                    continue
                column = lines[0].split(",").index("outage_analytic")
                reference[name][csv_name] = [
                    float(line.split(",")[column]) for line in lines[1:]]
        with open(os.path.join(HERE, "reference_analytic.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(reference, handle, indent=1)

        digests = {}
        for name in workloads.WORKLOADS:
            digests[name] = {}
            for seed in DIGEST_SEEDS:
                workload = workloads.build(name, seed)
                files = _run(workload.mc_configs, "montecarlo", seed, out_dir)
                digests[name][str(seed)] = {
                    f: hashlib.sha256(data).hexdigest()
                    for f, data in files.items()}
        with open(os.path.join(HERE, "mc_digests.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(digests, handle, indent=1)


if __name__ == "__main__":
    main()
