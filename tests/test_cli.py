import configparser
import csv
import dataclasses
import hashlib
import importlib.util
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from crossrx import (Aloha, Csma, LinkSpec, LogNormal, Position, RoadConfig,
                     access_probability, analytic_view, reception_probability)
from crossrx import cli
from crossrx.cli import (AxisMismatch, SchemaError, UnknownPreset,
                         _delta_for_access, _parse_config, compare_files,
                         main, preset_config, run_config_text)
from crossrx.mac import sensing_range

pytestmark = pytest.mark.filterwarnings(
    "ignore:expected interference truncated")

BASE_CONFIG = """\
[roads]
lambda_h_per_m = 0.01
lambda_v_per_m = 0.01

[mac]
protocol = aloha
p = 0.01

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

[link]
tx_x_m = 100
tx_y_m = 0
rx_x_m = 0
rx_y_m = 0
power_w = 0.1
noise_dbm = -99
beta_db = 8

[sim]
realizations = 2000
window_half_length_m = 3000
seed = 5
workers = 1

[output]
prefix = tiny

[sweep:main]
axis = tx_rx_distance
values = 100, 200, 300
output = outage
engines = both
"""


def parse(text):
    cp = configparser.ConfigParser()
    cp.read_string(text)
    return _parse_config(cp)


def read_rows(path):
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        return list(reader.fieldnames), list(reader)


# sha256 of each preset's config text; a preset CSV is a function of it.
PRESET_SHA256 = {
    "fig2": "8a50564cb621f73576e287aa89105ac78b6818f441c6c751ea98e4487c489326",
    "case2": "afbeb60ec290944e8d4485eebd54d7e832d81a3871b8f0e73da839cccc8c9f4a",
    "fig3": "e98764fb28b83b21094eeb3bd47c5fb57598e86d78c251d57a933f4158296411",
    "fig4": "ec49b6c19e7dde090aa640d3efbdc0e68da265dc738309c71ff3b0037267a7d5",
    "fig5": "0664e34e1f284db07ad570a17aa91770d1a21b2ea9760dd6f3b719c81bc0733f",
}


@pytest.mark.parametrize("name,sweeps", [("fig2", 9), ("case2", 4),
                                         ("fig3", 4), ("fig4", 2),
                                         ("fig5", 2)])
def test_presets_parse(name, sweeps):
    text = preset_config(name)
    plan = parse(text)
    assert len(plan.sweeps) == sweeps
    assert plan.prefix == name
    assert hashlib.sha256(text.encode()).hexdigest() == PRESET_SHA256[name]


def test_unknown_preset_suggests():
    with pytest.raises(UnknownPreset, match="fig2"):
        preset_config("fig22")


def test_run_end_to_end(tmp_path):
    summary = run_config_text(BASE_CONFIG, out_dir=str(tmp_path))
    assert summary["files"] == [str(tmp_path / "tiny_outage.csv")]
    fields, rows = read_rows(tmp_path / "tiny_outage.csv")
    assert fields == ["distance_m", "outage_analytic", "outage_mc",
                      "mc_stderr"]
    assert [float(r["distance_m"]) for r in rows] == [100.0, 200.0, 300.0]
    plan = parse(BASE_CONFIG)
    for row in rows:
        # 17 significant digits round-trip float64 exactly
        link = plan.link.__class__(
            tx=Position(float(row["distance_m"]), 0.0), rx=plan.link.rx,
            power_w=plan.link.power_w, noise_w=plan.link.noise_w,
            beta=plan.link.beta)
        expected = 1.0 - reception_probability(plan.scenario, link)
        assert float(row["outage_analytic"]) == expected
        assert 0.0 <= float(row["outage_mc"]) <= 1.0
        assert float(row["mc_stderr"]) >= 0.0


def test_run_via_main(tmp_path, capsys):
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(BASE_CONFIG)
    assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "sweep main: 3 points" in out
    assert "tiny_outage.csv" in out


@pytest.mark.parametrize("engines,delta,stderr", [
    ("both", True, True), ("analytic", False, False),
    ("montecarlo", False, True)])
def test_summary_prints_what_ran(engines, delta, stderr, tmp_path, capsys):
    # An agreement figure is printed only when its engines ran: a Monte
    # Carlo-only sweep has no analytic value to differ from.
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(BASE_CONFIG.replace("engines = both",
                                       f"engines = {engines}"))
    assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("sweep main: 3 points")
    assert ("max |analytic - mc| = " in line) == delta
    assert ("max mc std-err = " in line) == stderr


def test_summary_reads_outage_whatever_the_outputs(tmp_path):
    # fig4 writes outage and throughput CSVs. Each sweep's agreement
    # figures are the maxima of its outage rows, never the throughput
    # rows', which are in bits/s/Hz and here the larger.
    text = (preset_config("fig4")
            .replace("beta_db = 8", "beta_db = 15")
            .replace("tx_x_m = 100", "tx_x_m = 20")
            .replace("tx_x_m = 200", "tx_x_m = 40")
            .replace("realizations = 20000", "realizations = 300")
            .replace("window_half_length_m = 200000",
                     "window_half_length_m = 5000")
            .replace("workers = 4", "workers = 1"))
    text = re.sub(r"(?m)^values = .*$", "values = 0.3, 0.6, 0.9", text)
    summary = run_config_text(text, out_dir=str(tmp_path))
    assert [sweep["name"] for sweep in summary["sweeps"]] == ["r100", "r200"]
    for out in ("outage", "throughput"):
        _, rows = read_rows(tmp_path / f"fig4_{out}.csv")
        for sweep, tx_x in zip(summary["sweeps"], ("20.0", "40.0")):
            mine = [r for r in rows if float(r["tx_x_m"]) == float(tx_x)]
            assert len(mine) == 3
            delta = max(abs(float(r[f"{out}_analytic"]) - float(r[f"{out}_mc"]))
                        for r in mine)
            stderr = max(float(r["mc_stderr"]) for r in mine)
            if out == "outage":
                assert (sweep["max_abs_delta"], sweep["max_stderr"]) == (
                    delta, stderr)
            else:
                assert delta > sweep["max_abs_delta"]
                assert stderr > sweep["max_stderr"]


def test_worker_count_is_cosmetic(tmp_path):
    run_config_text(BASE_CONFIG, out_dir=str(tmp_path / "a"))
    run_config_text(re.sub(r"workers = 1", "workers = 3", BASE_CONFIG),
                    out_dir=str(tmp_path / "b"))
    assert ((tmp_path / "a" / "tiny_outage.csv").read_bytes()
            == (tmp_path / "b" / "tiny_outage.csv").read_bytes())


def test_access_sweeps_are_worker_count_independent(tmp_path):
    # Every access_probability point is its own scenario, so the batch
    # spreads one-chunk jobs over the pool; the CSVs must not notice.
    aloha = BASE_CONFIG.replace(
        "[sweep:main]\naxis = tx_rx_distance\nvalues = 100, 200, 300\n"
        "output = outage\nengines = both",
        "[sweep:near]\naxis = access_probability\n"
        "values = 0.005, 0.02, 0.1\noutput = outage, throughput\n"
        "engines = both\ntx_x_m = 100\n\n"
        "[sweep:far]\naxis = access_probability\n"
        "values = 0.005, 0.05, 0.1\noutput = outage, throughput\n"
        "engines = both\ntx_x_m = 250")
    csma = aloha.replace("protocol = aloha\np = 0.01",
                         "protocol = csma\ndelta_m = 100")
    for name, text in (("aloha", aloha), ("csma", csma)):
        for workers in (1, 3):
            run_config_text(text.replace("workers = 1",
                                         f"workers = {workers}"),
                            out_dir=str(tmp_path / f"{name}{workers}"))
        for kind in ("outage", "throughput"):
            data_1 = (tmp_path / f"{name}1" / f"tiny_{kind}.csv").read_bytes()
            data_3 = (tmp_path / f"{name}3" / f"tiny_{kind}.csv").read_bytes()
            assert data_1.count(b"\n") == 7 and data_1 == data_3


def test_csma_delta_sweeps_are_worker_count_independent(tmp_path):
    # The points of a csma_delta sweep differ only in delta, so they share
    # each chunk's draws; 1000 realizations are two chunks, and three
    # workers split the sweeps' deltas over two tasks per chunk.
    text = BASE_CONFIG.replace("protocol = aloha\np = 0.01",
                               "protocol = csma\ndelta_m = 100").replace(
        "realizations = 2000", "realizations = 1000").replace(
        "[sweep:main]\naxis = tx_rx_distance\nvalues = 100, 200, 300\n"
        "output = outage\nengines = both",
        "[sweep:near]\naxis = csma_delta\nvalues = 50, 300, 1000, 6000\n"
        "output = outage\nengines = both\ntx_x_m = 100\n\n"
        "[sweep:far]\naxis = csma_delta\nvalues = 150, 300, 2500\n"
        "output = outage\nengines = both\ntx_x_m = 250")
    for workers in (1, 3):
        run_config_text(text.replace("workers = 1", f"workers = {workers}"),
                        out_dir=str(tmp_path / f"w{workers}"))
    data_1 = (tmp_path / "w1" / "tiny_outage.csv").read_bytes()
    data_3 = (tmp_path / "w3" / "tiny_outage.csv").read_bytes()
    assert data_1.count(b"\n") == 8 and data_1 == data_3


def test_compare_modes(tmp_path):
    run_config_text(BASE_CONFIG, out_dir=str(tmp_path))
    path = str(tmp_path / "tiny_outage.csv")
    ok, report = compare_files(path, path, "abs:1e-30")
    assert ok and "PASS" in report

    text = (tmp_path / "tiny_outage.csv").read_text().splitlines()
    first = text[1].split(",")
    first[1] = repr(float(first[1]) + 0.5)
    doctored = tmp_path / "doctored.csv"
    doctored.write_text("\n".join([text[0], ",".join(first)] + text[2:]) + "\n")
    ok, report = compare_files(path, str(doctored), "abs:1e-3")
    assert not ok and "FAIL" in report
    assert main(["compare", path, str(doctored), "--tol", "abs:1e-3"]) == 1

    shifted = tmp_path / "shifted.csv"
    shifted.write_text("\n".join(
        [text[0]] + [",".join(["5" + line.split(",", 1)[0]] +
                              line.split(",")[1:]) for line in text[1:]])
        + "\n")
    with pytest.raises(AxisMismatch):
        compare_files(path, str(shifted), "abs:1e-3")
    assert main(["compare", path, str(shifted)]) == 2

    with pytest.raises(SchemaError):
        compare_files(path, path, "rel:3")


COMPARE_A = "distance_m,outage_analytic\n100,0.1\n200,0.2\n"
COMPARE_B = ("distance_m,outage_mc,mc_stderr\n"
             "100,0.101,0.002\n200,0.199,0.002\n")


@pytest.mark.parametrize("a, b, tol, code, message", [
    (COMPARE_A, COMPARE_B, "stderr:3", 0, "PASS"),
    # Non-finite cells fail their row.
    (COMPARE_A.replace("0.2", "nan"), COMPARE_B, "stderr:3", 1,
     "FAIL at row 1"),
    (COMPARE_A, COMPARE_B.replace("0.101,0.002", "0.101,inf"), "stderr:3", 1,
     "FAIL at row 0"),
    # Input that cannot be compared is rejected.
    (COMPARE_A, COMPARE_B.replace("0.199", "n/a"), "stderr:3", 2,
     "b.csv row 1, column outage_mc: 'n/a' is not a number"),
    (COMPARE_A, COMPARE_B.splitlines()[0] + "\n", "stderr:3", 2,
     "b.csv has no data rows"),
    (COMPARE_A, COMPARE_B, "abs:nan", 2,
     "tolerance 'abs:nan' must be finite and nonnegative"),
    (COMPARE_A, COMPARE_B, "stderr:inf", 2,
     "tolerance 'stderr:inf' must be finite and nonnegative"),
    (COMPARE_A, COMPARE_B, "abs:-1", 2,
     "tolerance 'abs:-1' must be finite and nonnegative"),
    # Equal values, but an outage column against a throughput column.
    (COMPARE_A, COMPARE_B.replace("outage_mc", "throughput_mc")
     .replace("0.101", "0.1").replace("0.199", "0.2"), "stderr:3", 2,
     "value columns outage_analytic and throughput_mc hold different "
     "outputs"),
    # Files that do not line up.
    (COMPARE_A, "distance_m\n100\n200\n", "stderr:3", 2,
     "no value column (*_analytic or *_mc) found"),
    (COMPARE_A, COMPARE_B.replace("distance_m", "d_m"), "stderr:3", 2,
     "identity columns differ: ['distance_m'] vs ['d_m']"),
    (COMPARE_A, COMPARE_B.rsplit("200,", 1)[0], "stderr:3", 2,
     "row counts differ: 2 vs 1"),
    (COMPARE_A, COMPARE_B, "abs:x", 2,
     "tolerance 'abs:x': could not convert string to float: 'x'"),
    # The error bars come from whichever file has them.
    (COMPARE_B, COMPARE_A, "stderr:3", 0, "PASS"),
    (COMPARE_B, COMPARE_A.replace("0.1\n", "0.2\n"), "stderr:3", 1,
     "FAIL at row 0 (outage_mc vs outage_analytic, distance_m=100): "
     "|delta| = 9.900e-02 > allowed 6.000e-03"),
    (COMPARE_A, COMPARE_A, "stderr:3", 2,
     "stderr tolerance needs an mc_stderr column"),
], ids=["pass", "nan-value", "inf-stderr", "non-numeric", "no-rows",
        "abs-nan", "stderr-inf", "abs-negative", "different-outputs",
        "no-value-column", "identity-columns", "row-counts", "abs-text",
        "stderr-in-first", "stderr-in-first-fails", "stderr-in-neither"])
def test_compare_checks_its_input(tmp_path, capsys, a, b, tol, code, message):
    (tmp_path / "a.csv").write_text(a)
    (tmp_path / "b.csv").write_text(b)
    assert main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                 "--tol", tol]) == code
    out = capsys.readouterr()
    assert message in (out.err if code == 2 else out.out)


def test_compare_missing_file(tmp_path, capsys):
    (tmp_path / "a.csv").write_text(COMPARE_A)
    missing = tmp_path / "missing.csv"
    assert main(["compare", str(tmp_path / "a.csv"), str(missing)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot read {missing}: ")


def test_compare_across_engines(tmp_path):
    # the wide window keeps truncation bias well below the stderr band
    wide = BASE_CONFIG.replace("window_half_length_m = 3000",
                               "window_half_length_m = 40000")
    ana = wide.replace("engines = both", "engines = analytic")
    mc = wide.replace("engines = both", "engines = montecarlo")
    run_config_text(ana, out_dir=str(tmp_path / "ana"))
    run_config_text(mc, out_dir=str(tmp_path / "mc"))
    path_a = str(tmp_path / "ana" / "tiny_outage.csv")
    path_b = str(tmp_path / "mc" / "tiny_outage.csv")
    fields_a, _ = read_rows(path_a)
    assert fields_a == ["distance_m", "outage_analytic"]
    ok, report = compare_files(path_a, path_b, "stderr:5")
    assert ok, report
    ok, _ = compare_files(path_a, path_b, "abs:0.05")
    assert ok


def test_compare_catches_an_injected_error(tmp_path):
    # One both-engines run, split into its analytic and Monte Carlo
    # files: they agree within 3 error bars, and one Monte Carlo cell
    # moved 5 error bars away from its analytic value does not.
    wide = BASE_CONFIG.replace("window_half_length_m = 3000",
                               "window_half_length_m = 40000")
    run_config_text(wide, out_dir=str(tmp_path))
    fields, rows = read_rows(tmp_path / "tiny_outage.csv")
    assert fields == ["distance_m", "outage_analytic", "outage_mc",
                      "mc_stderr"]

    def write(name, columns, rows):
        path = tmp_path / name
        path.write_text("".join(
            ",".join(row[c] for c in columns) + "\n"
            for row in [dict(zip(columns, columns))] + rows))
        return str(path)

    ana = write("ana.csv", ["distance_m", "outage_analytic"], rows)
    mc_columns = ["distance_m", "outage_mc", "mc_stderr"]
    mc = write("mc.csv", mc_columns, rows)
    assert main(["compare", ana, mc, "--tol", "stderr:3"]) == 0
    row = rows[1]
    analytic, value, err = (float(row[c]) for c in fields[1:])
    shift = math.copysign(5.0 * err, value - analytic)
    shifted = [dict(r) for r in rows]
    shifted[1]["outage_mc"] = repr(value + shift)
    bad = write("shifted.csv", mc_columns, shifted)
    assert main(["compare", ana, bad, "--tol", "stderr:3"]) == 1


@pytest.mark.parametrize("mutate,match", [
    (lambda t: t.replace("lambda_h_per_m", "lambda_h_per_n"),
     "did you mean 'lambda_h_per_m'"),
    (lambda t: t + "\n[foo]\nbar = 1\n", "unknown section"),
    (lambda t: t.replace("[mac]\nprotocol = aloha\np = 0.01\n", ""),
     r"missing required section \[mac\]"),
    (lambda t: t.replace("lambda_h_per_m = 0.01", "lambda_h_per_m = abc"),
     "lambda_h_per_m"),
    (lambda t: t.replace("p = 0.01", "p = 0.01\ndelta_m = 50"),
     "delta_m is only valid for csma"),
    (lambda t: t.replace("noise_dbm = -99", "noise_dbm = -99\nnoise_w = 1e-13"),
     "exactly one of noise_dbm, noise_w"),
    (lambda t: t.replace("values = 100, 200, 300", "values = 100, 300, 200"),
     "strictly monotone"),
    (lambda t: t.replace("values = 100, 200, 300", "values = 100:300:nan"),
     "range '100:300:nan' needs a finite start, stop and step"),
    (lambda t: t.replace("values = 100, 200, 300", "values = nan:300:100"),
     "range 'nan:300:100' needs a finite start, stop and step"),
    (lambda t: t.replace("values = 100, 200, 300", "values = 100:inf:100"),
     "range '100:inf:100' needs a finite start, stop and step"),
    (lambda t: t.replace("engines = both", "engines = montecarl"),
     "did you mean 'montecarlo'"),
    (lambda t: t.replace("axis = tx_rx_distance", "axis = distance"),
     "unknown axis"),
    (lambda t: t.replace("output = outage", "output = outage, outage"),
     r"\[sweep:main\] output 'outage' is repeated"),
    (lambda t: t.replace("family = exponential\ntheta = 1\n\n[fading_h]",
                         "family = exponential\nsigma_db = 3\n\n[fading_h]"),
     "exponential takes only theta"),
    # The receiver is on the H road, so rx_y_m is no sweep key.
    (lambda t: t + "rx_y_m = 5\n",
     "unknown key 'rx_y_m' in \\[sweep:main\\]; did you mean 'tx_y_m'"),
    # An axis and an override, or two overrides, that set the same thing.
    (lambda t: t.replace("axis = tx_rx_distance",
                         "axis = rx_to_intersection_d") + "d_m = 50\n",
     "axis rx_to_intersection_d and override d_m both set rx.x"),
    (lambda t: t + "tx_y_m = 30\n",
     "axis tx_rx_distance and override tx_y_m both set tx.y"),
    (lambda t: t.replace("axis = tx_rx_distance\nvalues = 100, 200, 300",
                         "axis = aloha_p\nvalues = 0.01, 0.02") + "p = 0.1\n",
     "axis aloha_p and override p both set mac"),
    (lambda t: t.replace("axis = tx_rx_distance\nvalues = 100, 200, 300",
                         "axis = access_probability\nvalues = 0.01, 0.02")
     + "p = 0.1\n",
     "axis access_probability and override p both set mac"),
    (lambda t: t + "d_m = 50\nrx_x_m = 20\n",
     "override d_m and override rx_x_m both set rx.x"),
    # [sim] values outside SimSettings' ranges.
    (lambda t: t.replace("realizations = 2000", "realizations = 0"),
     r"\[sim\] realizations must be >= 1, got 0"),
    (lambda t: t.replace("workers = 1", "workers = 0"),
     r"\[sim\] workers must be >= 1, got 0"),
    (lambda t: t.replace("window_half_length_m = 3000",
                         "window_half_length_m = nan"),
     r"\[sim\] window_half_length must be finite and positive, got nan"),
    (lambda t: t.replace("window_half_length_m = 3000",
                         "window_half_length_m = inf"),
     r"\[sim\] window_half_length must be finite and positive, got inf"),
    (lambda t: t.replace("seed = 5", "seed = -1"),
     r"\[sim\] seed must be in \[0, 2\*\*64\), got -1"),
    # Config arithmetic that overflows names its key.
    (lambda t: t.replace("beta_db = 8", "beta_db = 4000"),
     r"\[link\] beta_db = '4000': "),
    (lambda t: t.replace("noise_dbm = -99", "noise_dbm = 4000"),
     r"\[link\] noise_dbm = '4000': "),
    (lambda t: t.replace("values = 100, 200, 300", "values = 10:1e300:1e-300"),
     "range '10:1e300:1e-300' has too many points to count"),
])
def test_schema_errors(mutate, match, tmp_path, capsys):
    text = mutate(BASE_CONFIG)
    with pytest.raises(SchemaError, match=match):
        run_config_text(text, out_dir=str(tmp_path))
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert re.search(match, capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == [cfg]


def test_ranges_are_bounded():
    # Counted before any point is built: 0:1e8:1 would be about 3 GB.
    assert len(cli._parse_values("0:99999:1")) == 100_000
    with pytest.raises(SchemaError, match=re.escape(
            "range '0:1e6:1' has 1000001 points, more than 100000")):
        cli._parse_values("0:1e6:1")


@pytest.mark.parametrize("mutate, message", [
    (lambda t: "lambda_h_per_m = 0.01\n" + t,
     "error: File contains no section headers."),
    (lambda t: t + "\n[sweep:second]\naxis = aloha_p\nvalues = 0.01\n"
     "output = outage\nengines = both\n",
     "error: sweep 'second' output 'outage' does not match the "
     "axis/override/engine layout of an earlier sweep\n"),
    (lambda t: t.replace("p = 0.01", "p = 1.5"),
     "error: invalid scenario: mac: Aloha p must lie in [0, 1], got 1.5\n"),
])
def test_config_errors_before_any_point(mutate, message, tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(mutate(BASE_CONFIG))
    assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert list(tmp_path.iterdir()) == [cfg]


def test_values_errors_name_their_sweep(tmp_path, capsys):
    text = BASE_CONFIG + ("\n[sweep:second]\naxis = tx_rx_distance\n"
                          "values = 0:1e8:1\noutput = outage\nengines = both\n")
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: [sweep:second] values: range '0:1e8:1' has 100000001 "
        "points, more than 100000\n")
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("prefix", ["a/b", "../tiny"])
def test_prefix_with_a_directory_fails_before_the_engines(
        prefix, tmp_path, capsys, monkeypatch):
    def engine(*args):
        raise AssertionError("an engine ran")

    monkeypatch.setattr(cli, "_analytic", engine)
    monkeypatch.setattr(cli, "_monte_carlo", engine)
    cfg = tmp_path / "bad.ini"
    cfg.write_text(BASE_CONFIG.replace("prefix = tiny", f"prefix = {prefix}"))
    assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: [output] prefix {prefix!r} must be a file name")
    assert list(tmp_path.iterdir()) == [cfg]


# Runs in a fresh interpreter, since this one has scipy loaded already:
# reads a config on stdin, runs it into ./out, then prints which of scipy
# and its three lazily imported modules are loaded. "scipy" is loaded
# whenever any scipy module is.
_IMPORT_PROBE = """\
import sys
import crossrx, crossrx.cli
from crossrx.cli import main, run_config_text
run_config_text(sys.stdin.read(), out_dir="out")
{more}
print(*(m for m in ("scipy", "scipy.integrate", "scipy.optimize",
                    "scipy.special") if m in sys.modules))
"""


def _scipy_loaded_by(text, tmp_path, more=""):
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE.format(more=more)], input=text,
        capture_output=True, text=True, cwd=tmp_path, env=env, check=True)
    return done.stdout.splitlines()[-1].split()


def test_closed_form_runs_load_neither_quadpack_nor_brentq(tmp_path):
    more = ('assert main(["fit-erlang", "--sigma-db", "3.2"]) == 0\n'
            'assert main(["preset", "fig2", "--emit-config"]) == 0\n'
            'assert main(["compare", "out/tiny_outage.csv", '
            '"out/tiny_outage.csv", "--tol", "abs:1e-9"]) == 0')
    assert _scipy_loaded_by(BASE_CONFIG, tmp_path, more) == []
    _, rows = read_rows(tmp_path / "out" / "tiny_outage.csv")
    assert len(rows) == 3


def test_lognormal_surrogate_loads_no_scipy(tmp_path):
    # The Erlang fit takes ln Gamma from math.lgamma, and the surrogate
    # k0 = 2 link's roads are closed forms that need no special function.
    text = BASE_CONFIG.replace(
        "[fading_useful]\nfamily = exponential\ntheta = 1",
        "[fading_useful]\nfamily = lognormal\nsigma_db = 3.2")
    text = text.replace("engines = both", "engines = analytic")
    more = 'assert main(["fit-erlang", "--sigma-db", "2.5"]) == 0'
    assert _scipy_loaded_by(text, tmp_path, more) == []
    _, rows = read_rows(tmp_path / "out" / "tiny_outage.csv")
    assert len(rows) == 3


def test_special_function_first_loaded_on_a_pool_thread(tmp_path):
    # The Monte Carlo estimator's CDF of an Erlang k0 = 3 useful gain is
    # scipy.special's gammainc. 10000 realizations make three chunks, so
    # at workers = 2 on two CPUs the first call, and with it the import,
    # is on a pool thread; the bytes must not depend on that.
    text = BASE_CONFIG.replace(
        "[fading_useful]\nfamily = exponential\ntheta = 1",
        "[fading_useful]\nfamily = erlang\nk = 3\ntheta = 1")
    text = text.replace("engines = both", "engines = montecarlo")
    text = text.replace("realizations = 2000", "realizations = 10000")
    csvs = []
    for workers in (1, 2):
        run_dir = tmp_path / f"w{workers}"
        run_dir.mkdir()
        assert _scipy_loaded_by(
            text.replace("workers = 1", f"workers = {workers}"),
            run_dir) == ["scipy", "scipy.special"]
        csvs.append((run_dir / "out" / "tiny_outage.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_csma_access_sweep_loads_quadpack_and_brentq(tmp_path):
    text = BASE_CONFIG.replace(
        "protocol = aloha\np = 0.01", "protocol = csma\ndelta_m = 100")
    text = text.replace("tx_x_m = 100", "tx_x_m = 0")
    text = text.replace(
        "axis = tx_rx_distance\nvalues = 100, 200, 300\n"
        "output = outage\nengines = both",
        "axis = access_probability\nvalues = 0.05, 0.1\n"
        "output = outage\nengines = analytic\nrx_x_m = 100")
    assert _scipy_loaded_by(text, tmp_path) == [
        "scipy", "scipy.integrate", "scipy.optimize", "scipy.special"]
    plan = parse(text)
    link = LinkSpec(tx=Position(0.0, 0.0), rx=Position(100.0, 0.0),
                    power_w=plan.link.power_w, noise_w=plan.link.noise_w,
                    beta=plan.link.beta)
    _, rows = read_rows(tmp_path / "out" / "tiny_outage.csv")
    assert [float(row["p_a"]) for row in rows] == [0.05, 0.1]
    for row in rows:
        delta = _delta_for_access(float(row["p_a"]), link.tx, plan.scenario.roads)
        scenario = dataclasses.replace(plan.scenario, mac=Csma(delta=delta))
        assert float(row["outage_analytic"]) == (
            1.0 - reception_probability(scenario, link))


def test_delta_for_access_roundtrip():
    on_both = (Position(0, 0), Position(150, 0), Position(0, 150))
    for roads, txs in (
            (RoadConfig(lambda_h=0.01, lambda_v=0.01), on_both),
            (RoadConfig(lambda_h=0.01, lambda_v=0.003), on_both),
            # An empty own road: only the other road's chord contends.
            (RoadConfig(lambda_h=0.0, lambda_v=0.01), (Position(150, 0),))):
        for tx in txs:
            for p_a in (0.02, 0.1, 0.4):
                delta = _delta_for_access(p_a, tx, roads)
                assert np.isclose(access_probability(tx, delta, roads), p_a,
                                  rtol=1e-10)
    with pytest.raises(SchemaError):
        _delta_for_access(1.5, Position(0, 0), roads)


def near_one_config(p_a):
    """BASE_CONFIG as a CSMA sweep of the one access probability p_a, with
    tx at the corner."""
    text = BASE_CONFIG.replace(
        "protocol = aloha\np = 0.01", "protocol = csma\ndelta_m = 100")
    text = text.replace("tx_x_m = 100", "tx_x_m = 0")
    return text.replace(
        "axis = tx_rx_distance\nvalues = 100, 200, 300",
        "axis = access_probability\nvalues = " + p_a + "\nrx_x_m = 100")


@pytest.mark.parametrize("p_a", ["0.99999999999", "0.999999999999",
                                 "0.99999999999999"])
def test_access_probability_near_one_runs(p_a, tmp_path):
    # For p_a >= 0.5 the mass m solves 1 - (1 - exp(-m))/m = 1 - p_a,
    # whose right side is exact: m is about 2 (1 - p_a), here 2e-11 to
    # 2e-14, and delta, its exact inverse, about 5e-10 to 5e-15 m.
    text = near_one_config(p_a).replace("engines = both", "engines = analytic")
    cfg = tmp_path / "near_one.ini"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 0
    _, rows = read_rows(tmp_path / "tiny_outage.csv")
    assert [float(row["p_a"]) for row in rows] == [float(p_a)]
    plan = parse(text)
    tx, roads = plan.link.tx, plan.scenario.roads
    delta = _delta_for_access(float(p_a), tx, roads)
    assert abs(access_probability(tx, delta, roads) - float(p_a)) <= 1e-15
    # The series root m = 2 eps + (4/3) eps^2 + O(eps^3), eps = 1 - p_a.
    eps = 1.0 - float(p_a)
    reference = sensing_range(tx, 2.0 * eps + 4.0 / 3.0 * eps * eps, roads)
    assert abs(delta - reference) <= 1e-12 * reference
    scenario = dataclasses.replace(plan.scenario, mac=Csma(delta=delta))
    link = dataclasses.replace(plan.link, rx=Position(100.0, 0.0))
    assert float(rows[0]["outage_analytic"]) == (
        1.0 - reception_probability(scenario, link))


def test_access_probability_axis(tmp_path):
    text = BASE_CONFIG.replace(
        "protocol = aloha\np = 0.01", "protocol = csma\ndelta_m = 100")
    text = text.replace("tx_x_m = 100", "tx_x_m = 0")
    text = text.replace(
        "axis = tx_rx_distance\nvalues = 100, 200, 300\n"
        "output = outage\nengines = both",
        "axis = access_probability\nvalues = 0.05, 0.1\n"
        "output = outage, throughput\nengines = analytic\nrx_x_m = 100")
    run_config_text(text, out_dir=str(tmp_path))
    _, outage = read_rows(tmp_path / "tiny_outage.csv")
    fields, tput = read_rows(tmp_path / "tiny_throughput.csv")
    assert fields == ["p_a", "rx_x_m", "throughput_analytic"]
    rate = math.log2(1 + 10 ** 0.8)
    for row_o, row_t in zip(outage, tput):
        p_a = float(row_t["p_a"])
        reception = 1.0 - float(row_o["outage_analytic"])
        assert np.isclose(float(row_t["throughput_analytic"]),
                          p_a * reception * rate, rtol=1e-9)


def test_output_kinds(tmp_path):
    # Both engines and all three kinds at once: the kinds are one rule
    # applied to (outage, reception), so their cells relate exactly.
    text = BASE_CONFIG.replace(
        "output = outage\nengines = both",
        "output = outage, reception, throughput\nengines = both\n"
        "rx_x_m = 20")
    run_config_text(text, out_dir=str(tmp_path))
    csvs = {kind: read_rows(tmp_path / f"tiny_{kind}.csv")
            for kind in ("outage", "reception", "throughput")}
    for kind, (fields, rows) in csvs.items():
        assert fields == ["distance_m", "rx_x_m", f"{kind}_analytic",
                          f"{kind}_mc", "mc_stderr"]
        assert [float(r["distance_m"]) for r in rows] == [100.0, 200.0,
                                                          300.0]
        assert all(float(r["rx_x_m"]) == 20.0 for r in rows)
    plan = parse(text)
    p_a = plan.scenario.mac.p
    rate = math.log2(1.0 + plan.link.beta)
    for outage, reception, tput in zip(*(csvs[kind][1] for kind in csvs)):
        link = plan.link.__class__(
            tx=Position(20.0 + float(outage["distance_m"]), 0.0),
            rx=Position(20.0, 0.0), power_w=plan.link.power_w,
            noise_w=plan.link.noise_w, beta=plan.link.beta)
        expected = reception_probability(plan.scenario, link)
        assert float(reception["reception_analytic"]) == expected
        assert float(outage["outage_analytic"]) == 1.0 - expected
        assert float(tput["throughput_analytic"]) == p_a * expected * rate
        reception_mc = float(reception["reception_mc"])
        assert reception_mc == 1.0 - float(outage["outage_mc"])
        assert float(tput["throughput_mc"]) == p_a * reception_mc * rate
        assert reception["mc_stderr"] == outage["mc_stderr"]
        assert (float(tput["mc_stderr"])
                == p_a * float(outage["mc_stderr"]) * rate)


def test_fit_erlang_subcommand(capsys, make_scenario):
    assert main(["fit-erlang", "--sigma-db", "3.2"]) == 0
    out = capsys.readouterr().out
    assert "Erlang k = 2" in out
    # The printed surrogate is the one the analytic engine evaluates.
    scen = make_scenario(Aloha(0.01), fading_useful=LogNormal(3.2))
    assert f"theta = {analytic_view(scen).fading_useful.theta:.6f}" in out
    # A spread that is not finite and positive is a usage error.
    for sigma_db in ("0", "-1", "nan", "inf"):
        assert main(["fit-erlang", "--sigma-db", sigma_db]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (f"error: sigma_db must be finite and positive, "
                           f"got {float(sigma_db)}\n")


def test_exit_codes(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.ini")]) == 2
    assert "error:" in capsys.readouterr().err

    # Too narrow a spread for an Erlang surrogate.
    bad = BASE_CONFIG.replace(
        "[fading_useful]\nfamily = exponential\ntheta = 1",
        "[fading_useful]\nfamily = lognormal\nsigma_db = 0.3")
    bad = bad.replace("engines = both", "engines = analytic")
    cfg = tmp_path / "bad.ini"
    cfg.write_text(bad)
    assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "FitDegenerate" in err
    assert "sweep 'main' at tx_rx_distance = 100.0" in err

    # An --out-dir that is an existing file fails before the engines run.
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["run", str(cfg), "--out-dir", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write the results: ")
    assert str(taken) in err
    assert sorted(tmp_path.iterdir()) == [cfg, taken]


def test_point_construction_failure_names_its_point(tmp_path, capsys):
    # The override moves the transmitter off both roads, so solving its
    # sensing radius for the access probability fails.
    text = (BASE_CONFIG
            .replace("protocol = aloha\np = 0.01",
                     "protocol = csma\ndelta_m = 100")
            .replace("tx_x_m = 100\ntx_y_m = 0", "tx_x_m = 0\ntx_y_m = 40")
            .replace("axis = tx_rx_distance\nvalues = 100, 200, 300",
                     "axis = access_probability\nvalues = 0.05, 0.1\n"
                     "tx_x_m = 100"))
    cfg = tmp_path / "off_road.ini"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "numeric failure in sweep 'main' at access_probability = 0.05: "
        "OffRoadPosition: Position(x=100.0, y=40.0) lies on neither road\n")
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("mutate, where", [
    (lambda t: t.replace("tx_rx_distance\nvalues = 100, 200, 300",
                         "access_probability\nvalues = nan"),
     "access_probability = nan: access_probability nan out of (0, 1]"),
    (lambda t: t.replace("tx_rx_distance\nvalues = 100, 200, 300",
                         "access_probability\nvalues = 2"),
     "access_probability = 2.0: access_probability 2.0 out of (0, 1]"),
    (lambda t: t.replace("protocol = aloha\np = 0.01", "protocol = none")
     .replace("tx_rx_distance\nvalues = 100, 200, 300",
              "access_probability\nvalues = 0.01"),
     "access_probability = 0.01: "
     "axis access_probability requires aloha or csma"),
    # A model.validate violation at the point.
    (lambda t: t + "p = 1.5\n",
     "tx_rx_distance = 100.0: mac: Aloha p must lie in [0, 1], got 1.5"),
    # A MAC override of the other protocol.
    (lambda t: t.replace("protocol = aloha\np = 0.01",
                         "protocol = csma\ndelta_m = 100") + "p = 0.1\n",
     "tx_rx_distance = 100.0: sweep key p requires [mac] protocol aloha"),
    (lambda t: t + "delta_m = 100\n",
     "tx_rx_distance = 100.0: sweep key delta_m requires [mac] protocol csma"),
    # On empty roads no sensing radius lowers the access probability.
    (lambda t: t.replace("protocol = aloha\np = 0.01",
                         "protocol = csma\ndelta_m = 100")
     .replace("_per_m = 0.01", "_per_m = 0")
     .replace("tx_rx_distance\nvalues = 100, 200, 300",
              "access_probability\nvalues = 0.05"),
     "access_probability = 0.05: "
     "cannot reach access probability 0.05 at tx: roads too sparse"),
])
def test_point_config_errors_name_their_point(mutate, where, tmp_path,
                                              capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(mutate(BASE_CONFIG))
    assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: sweep 'main' at {where}\n"
    assert list(tmp_path.iterdir()) == [cfg]


def test_transmitter_overrides_move_the_transmitter(tmp_path):
    # tx_x_m and tx_y_m together put the transmitter on the V road, at
    # every receiver the axis places.
    text = BASE_CONFIG.replace(
        "axis = tx_rx_distance\nvalues = 100, 200, 300\n"
        "output = outage\nengines = both",
        "axis = rx_to_intersection_d\nvalues = 10, 60, 110\n"
        "output = outage\nengines = analytic\ntx_x_m = 0\ntx_y_m = 50")
    run_config_text(text, out_dir=str(tmp_path))
    fields, rows = read_rows(tmp_path / "tiny_outage.csv")
    assert fields == ["d_m", "tx_x_m", "tx_y_m", "outage_analytic"]
    plan = parse(text)
    for row in rows:
        link = LinkSpec(tx=Position(0.0, 50.0),
                        rx=Position(float(row["d_m"]), 0.0),
                        power_w=plan.link.power_w, noise_w=plan.link.noise_w,
                        beta=plan.link.beta)
        assert float(row["outage_analytic"]) == (
            1.0 - reception_probability(plan.scenario, link))


def test_point_warnings_name_their_first_point(tmp_path, capsys):
    # case2's receivers 1 and 2 m from the corner, under street-canyon
    # loss, warn once each per run, naming the first of the four sweeps'
    # points that raised them. The base link's receiver, which every
    # point overrides, raises no warning, even 1 m from the corner.
    case2 = preset_config("case2").replace("engines = both",
                                           "engines = analytic")
    near = case2.replace("values = 10:310:25", "values = 1, 2, 30")
    warned = [f"warning: sweep 'ty50-p0.002' at rx_to_intersection_d = {d!r}: "
              f"link: rx is {d:g} m from the intersection (< 5 m); the "
              "street-canyon propagation model is unreliable this close to "
              "the corner" for d in (1.0, 2.0)]
    for text, expected in ((near, warned),
                           (near.replace("rx_x_m = 10", "rx_x_m = 1"), warned),
                           (case2.replace("rx_x_m = 10", "rx_x_m = 1"), [])):
        run_config_text(text, out_dir=str(tmp_path))
        assert capsys.readouterr().err.splitlines() == expected


def test_underflowing_useful_gain_is_an_outage(tmp_path):
    # At 1e200 m the useful path gain underflows to 0.0.
    text = BASE_CONFIG.replace("values = 100, 200, 300", "values = 10, 1e200")
    cfg = tmp_path / "far.ini"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 0
    _, rows = read_rows(tmp_path / "tiny_outage.csv")
    assert float(rows[1]["distance_m"]) == 1e200
    assert float(rows[1]["outage_analytic"]) == 1.0
    assert float(rows[1]["outage_mc"]) == 1.0


def test_overflowing_surrogate_fit_is_a_numeric_failure(tmp_path, capsys):
    assert main(["fit-erlang", "--sigma-db", "1000"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("numeric failure: FitDegenerate: ")
    cfg = tmp_path / "wide.ini"
    cfg.write_text(BASE_CONFIG.replace(
        "[fading_useful]\nfamily = exponential\ntheta = 1",
        "[fading_useful]\nfamily = lognormal\nsigma_db = 1000"))
    assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith(
        "numeric failure in sweep 'main' at tx_rx_distance = 100.0: "
        "FitDegenerate: ")
    assert list(tmp_path.iterdir()) == [cfg]


def test_overflowing_lognormal_draw_is_a_numeric_failure(tmp_path, capsys):
    # exp of a 1000 dB spread overflows for one normal draw in a thousand.
    cfg = tmp_path / "wide.ini"
    cfg.write_text(BASE_CONFIG.replace(
        "[fading_useful]\nfamily = exponential\ntheta = 1",
        "[fading_useful]\nfamily = lognormal\nsigma_db = 1000").replace(
        "engines = both", "engines = montecarlo"))
    assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "numeric failure in sweep 'main' at tx_rx_distance = 100.0 "
        "(and 2 more points of its scenario): "
        "FloatingPointError: overflow encountered in exp\n")
    assert list(tmp_path.iterdir()) == [cfg]


def test_monte_carlo_failure_names_its_sweep(tmp_path, capsys, monkeypatch):
    # A numeric error raised in a pool thread, in one job of a batch of
    # several, names the first point of that job.
    from crossrx import montecarlo

    job_chunk = montecarlo._job_chunk

    def failing(scenario, links, chunk):
        if scenario.mac.p == 0.02:
            raise OverflowError("injected")
        return job_chunk(scenario, links, chunk)

    monkeypatch.setattr(montecarlo, "_job_chunk", failing)
    text = (BASE_CONFIG.replace("workers = 1", "workers = 2")
            .replace("engines = both", "engines = montecarlo")
            + "\n[sweep:second]\naxis = aloha_p\nvalues = 0.01, 0.02, 0.03\n"
            "output = reception\nengines = montecarlo\n")
    cfg = tmp_path / "mc.ini"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "sweep 'second' at aloha_p = 0.02: OverflowError: injected" in err


def test_preset_emit_config(capsys):
    assert main(["preset", "fig2", "--emit-config"]) == 0
    text = capsys.readouterr().out
    plan = parse(text)
    assert len(plan.sweeps) == 9


def test_perfbench_tracer_installs_and_uninstalls(tmp_path):
    # perfbench's traced run wraps names in cli, analytic and montecarlo
    # by attribute; renaming or unbinding one of them must fail here.
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        cli.analytic_view(parse(BASE_CONFIG).scenario)
        cli.run_config_text(BASE_CONFIG, out_dir=str(tmp_path))
        calls = tracer.merged().calls
    finally:
        tracer.uninstall()
    assert calls["cli.run_config_text"] == 1
    assert calls["analytic.reception_probability"] == 3
    assert calls["montecarlo.simulate_outage_sweep"] == 1
