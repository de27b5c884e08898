import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mimoiwf
from mimoiwf.cli import main

SCALAR_QUARTER = {
    "num_users": 2,
    "tx_antennas": 1,
    "rx_antennas": 1,
    "power_budget": 10.0,
    "noise_power": 1.0,
    "direct_distance": 1.0,
    "cross_distance": 1.0,
    "pathloss_exponent": 0.0,
    "channels": [
        [[[[1.0, 0.0]]], [[[0.5, 0.0]]]],
        [[[[0.5, 0.0]]], [[[1.0, 0.0]]]],
    ],
}

RANDOM_NET = {
    "num_users": 4,
    "tx_antennas": 2,
    "rx_antennas": 2,
    "power_budget": 10.0,
    "noise_power": 1.0,
    "direct_distance": 15.0,
    "cross_distance": 40.0,
    "pathloss_exponent": 2.5,
    "seed": 3,
}

TINY_SWEEP = {"sweep_values": [20.0, 45.0], "trials": 6, "base_seed": 7}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_certify_scalar_quarter(tmp_path, capsys):
    cfg = write_config(tmp_path, SCALAR_QUARTER)
    assert main(["certify", "--config", cfg, "--quiet"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "row_norm 0.25" in out
    assert "col_norm 0.25" in out
    assert "spectral_radius 0.25" in out
    assert "norm_unique true" in out
    assert "spectral_unique true" in out
    assert "contraction_modulus 0.25" in out


def test_certify_writes_matrix(tmp_path, capsys):
    cfg = write_config(tmp_path, SCALAR_QUARTER)
    out_csv = tmp_path / "m.csv"
    assert main(["certify", "--config", cfg, "--quiet", "--out", str(out_csv)]) == 0
    back = np.loadtxt(out_csv, delimiter=",")
    np.testing.assert_allclose(back, [[0.0, 0.25], [0.25, 0.0]], atol=1e-12)


def test_play_scalar_quarter(tmp_path, capsys):
    cfg = write_config(tmp_path, SCALAR_QUARTER)
    trace_csv = tmp_path / "trace.csv"
    assert main(["play", "--config", cfg, "--quiet", "--out", str(trace_csv)]) == 0
    out = capsys.readouterr().out
    assert "converged true" in out
    rate = 2 * np.log2(1.0 + 10.0 / (1.0 + 0.25 * 10.0))
    line = [l for l in out.splitlines() if l.startswith("sum_rate")][0]
    assert float(line.split()[1]) == pytest.approx(rate, rel=1e-9)
    assert trace_csv.exists()


def test_play_deterministic_output(tmp_path, capsys):
    cfg = write_config(tmp_path, RANDOM_NET)
    assert main(["play", "--config", cfg, "--quiet"]) == 0
    first = capsys.readouterr().out
    assert main(["play", "--config", cfg, "--quiet"]) == 0
    assert capsys.readouterr().out == first
    assert main(["play", "--config", cfg, "--quiet", "--seed", "4"]) == 0
    assert capsys.readouterr().out != first


def test_play_schedules_agree(tmp_path, capsys):
    cfg = write_config(tmp_path, RANDOM_NET)
    rates = {}
    for kind in ("jacobi", "gauss-seidel", "async"):
        assert main(["play", "--config", cfg, "--quiet", "--schedule", kind]) == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("sum_rate")][0]
        rates[kind] = float(line.split()[1])
    assert rates["jacobi"] == pytest.approx(rates["gauss-seidel"], abs=1e-6)
    assert rates["jacobi"] == pytest.approx(rates["async"], abs=1e-6)


def test_sweep_uniqueness_cli(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY_SWEEP)
    out_csv = tmp_path / "sweep.csv"
    code = main(
        ["sweep-uniqueness", "--config", cfg, "--out", str(out_csv), "--quiet"]
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("sweep_value,")
    assert len(lines) == 3
    stdout = capsys.readouterr().out
    assert str(out_csv) in stdout


def test_sweep_jobs_and_rerun_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY_SWEEP)
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert main(["sweep-uniqueness", "--config", cfg, "--out", str(a), "--quiet"]) == 0
    assert main(["sweep-uniqueness", "--config", cfg, "--out", str(b), "--quiet"]) == 0
    assert main(
        ["sweep-uniqueness", "--config", cfg, "--out", str(c), "--quiet", "--jobs", "2"]
    ) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_sweep_trials_override(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY_SWEEP)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep-uniqueness", "--config", cfg, "--out", str(a), "--quiet"]) == 0
    assert main(
        ["sweep-uniqueness", "--config", cfg, "--out", str(b), "--quiet", "--trials", "3"]
    ) == 0
    capsys.readouterr()
    assert a.read_bytes() != b.read_bytes()


def test_sweep_sumrate_cli(tmp_path, capsys):
    doc = {
        "sweep_variable": "power_budget_db",
        "sweep_values": [0.0, 10.0],
        "trials": 5,
        "base_seed": 7,
    }
    cfg = write_config(tmp_path, doc)
    out_csv = tmp_path / "rates.csv"
    assert main(["sweep-sumrate", "--config", cfg, "--out", str(out_csv), "--quiet"]) == 0
    capsys.readouterr()
    rows = out_csv.read_text().splitlines()[1:]
    r0 = float(rows[0].split(",")[5])
    r1 = float(rows[1].split(",")[5])
    assert r1 > r0


def test_unknown_config_key_rejected(tmp_path, capsys):
    doc = dict(TINY_SWEEP)
    doc["bogus_knob"] = 1
    cfg = write_config(tmp_path, doc)
    code = main(["sweep-uniqueness", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "bogus_knob" in capsys.readouterr().err

    # removed: a positive interference_ratio_db gives the same cross distance
    doc = {**TINY_SWEEP, "sweep_variable": "power_budget_db", "literal_distance_ratio": True}
    cfg = write_config(tmp_path, doc)
    assert main(["sweep-sumrate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
    assert "literal_distance_ratio" in capsys.readouterr().err

    net = dict(RANDOM_NET)
    net["fading"] = "rayleigh"
    cfg = write_config(tmp_path, net, "net.json")
    assert main(["certify", "--config", cfg]) == 1
    assert "fading" in capsys.readouterr().err


def test_missing_and_invalid_config(tmp_path, capsys):
    assert main(["certify", "--config", str(tmp_path / "absent.json")]) == 1
    assert "cannot read config" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["certify", "--config", str(bad)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_negative_seed_rejected_before_any_trial(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY_SWEEP)
    out_csv = tmp_path / "x.csv"
    argv = ["sweep-uniqueness", "--config", cfg, "--out", str(out_csv), "--seed", "-1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "base_seed" in captured.err
    assert captured.out == ""
    assert not out_csv.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_below_one_rejected(tmp_path, capsys, jobs):
    cfg = write_config(tmp_path, TINY_SWEEP)
    out_csv = tmp_path / "x.csv"
    argv = ["sweep-uniqueness", "--config", cfg, "--out", str(out_csv), "--jobs", jobs]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"jobs must be an integer >= 1, got {jobs}" in captured.err
    assert captured.out == ""
    assert not out_csv.exists()


@pytest.mark.parametrize("command", ["play", "certify"])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_negative_play_and_certify_seed_names_the_field(tmp_path, capsys, command, where):
    doc = {**RANDOM_NET, "seed": -1} if where == "config" else RANDOM_NET
    argv = [command, "--config", write_config(tmp_path, doc), "--quiet"]
    if where == "flag":
        argv += ["--seed", "-1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed" in captured.err


def test_bad_field_value_reported(tmp_path, capsys):
    doc = dict(RANDOM_NET)
    doc["power_budget"] = -5.0
    cfg = write_config(tmp_path, doc)
    assert main(["certify", "--config", cfg]) == 1
    assert "power_budget" in capsys.readouterr().err


def test_usage_errors_exit_two(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["play"])  # --config is required
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["play", "--config", "x.json", "--schedule", "chaotic"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "doc, command, key",
    [
        ({**RANDOM_NET, "num_users": True}, "certify", "num_users"),
        ({**RANDOM_NET, "tx_antennas": 2.7}, "certify", "tx_antennas"),
        ({**TINY_SWEEP, "trials": "3"}, "sweep-uniqueness", "trials"),
        ({**RANDOM_NET, "cross_distance": [40.0] * 4}, "certify", "cross_distance"),
        ({**SCALAR_QUARTER, "channels": [1, 2]}, "certify", "channels"),
    ],
    ids=["bool_count", "fractional_count", "string_number", "flat_matrix", "flat_channels"],
)
def test_config_values_are_type_strict(tmp_path, capsys, doc, command, key):
    argv = [command, "--config", write_config(tmp_path, doc), "--quiet"]
    if command.startswith("sweep"):
        argv += ["--out", str(tmp_path / "x.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]


def modules_after_cli_import(prefix):
    """Modules under prefix that a fresh `import mimoiwf.cli` loads."""
    src = Path(mimoiwf.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    code = f"import sys, mimoiwf.cli; print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_cli_import_loads_no_scipy():
    assert modules_after_cli_import("scipy") == "[]"


def test_cli_import_loads_no_process_pool():
    # the pool is imported by a sweep that asks for more than one job
    assert modules_after_cli_import("concurrent.futures.process") == "[]"


@pytest.mark.parametrize("command", ["play", "certify"])
@pytest.mark.parametrize(
    "leaf",
    [True, "0.5", float("nan"), float("inf"), float("-inf")],
    ids=["bool", "string", "nan", "inf", "minus_inf"],
)
def test_channel_entries_must_be_finite_numbers(tmp_path, capsys, command, leaf):
    # these used to be read as 1.0 and 0.5, or to fail later with a message
    # about floors or about the coupling matrix
    doc = json.loads(json.dumps(SCALAR_QUARTER))
    doc["channels"][1][0][0][0][0] = leaf
    assert main([command, "--config", write_config(tmp_path, doc), "--quiet"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: channels[1][0] entries must be finite numbers, got {leaf!r}"]
