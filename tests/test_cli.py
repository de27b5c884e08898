import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mimoiwf
from mimoiwf import cli, expharness
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


# play at 40 dB, where the game runs for a while: its output under each
# schedule, as printed before the rates were built on first read
LOUD_PLAY = {
    "jacobi": ("converged true in 12 iterations", "nash_gap 5.47e-08"),
    "gauss-seidel": ("converged true in 31 iterations", "nash_gap 1.99e-08"),
    "async": ("converged true in 48 iterations", "nash_gap 1.03e-08"),
}
LOUD_RATES = (
    "user 0 rate 5.62134022",
    "user 1 rate 2.4688129",
    "user 2 rate 3.58165245",
    "user 3 rate 3.82405447",
    "sum_rate 15.49586",
)


@pytest.mark.parametrize("kind", list(LOUD_PLAY))
def test_play_output_is_pinned(tmp_path, capsys, kind):
    cfg = write_config(tmp_path, {**RANDOM_NET, "power_budget": 10000.0})
    assert main(["play", "--config", cfg, "--quiet", "--schedule", kind]) == 0
    verdict, gap = LOUD_PLAY[kind]
    assert capsys.readouterr().out.splitlines() == [f"schedule {kind}", verdict, *LOUD_RATES, gap]


RAGGED_CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "network_ragged.json")

# play on the shipped ragged network (tx 3, 2, 1 against rx 2, 2, 3), as
# printed before a game step ran the water-filling core without its checks
RAGGED_PLAY = {
    "jacobi": ("converged true in 8 iterations", "nash_gap 2.78e-08"),
    "gauss-seidel": ("converged true in 13 iterations", "nash_gap 7.23e-10"),
    "async": ("converged true in 22 iterations", "nash_gap 1.09e-10"),
}
RAGGED_RATES = (
    "user 0 rate 3.20866856",
    "user 1 rate 1.72574352",
    "user 2 rate 2.68114176",
    "sum_rate 7.61555385",
)


@pytest.mark.parametrize("kind", list(RAGGED_PLAY))
def test_ragged_play_output_is_pinned(capsys, kind):
    assert main(["play", "--config", RAGGED_CONFIG, "--quiet", "--schedule", kind]) == 0
    verdict, gap = RAGGED_PLAY[kind]
    assert capsys.readouterr().out.splitlines() == [f"schedule {kind}", verdict, *RAGGED_RATES, gap]


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name", ["sweep_uniqueness", "sweep_sumrate", "sweep_regime"])
def test_a_shipped_sweep_config_builds_its_spec(name):
    assert cli.sweep_from_dict(cli._load_json(str(CONFIGS / f"{name}.json"))).trials >= 100


def test_the_shipped_uniqueness_sweep_plays_past_two_steps_at_every_point():
    # at 40 dB over 15 m direct links the received SNR is +10.6 dB, so the
    # games are not noise-limited: they average more than the 2 steps in
    # which a game at a negative SNR stops
    spec = cli.sweep_from_dict(cli._load_json(str(CONFIGS / "sweep_uniqueness.json")))
    assert spec.schedule == "jacobi" and spec.base_seed == 0
    rows = cli.sweep_uniqueness(spec).rows
    assert [row["mean_iterations"] > 2 for row in rows] == [True] * 5, rows


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


def test_sweep_flags_build_the_spec_once(tmp_path, capsys, monkeypatch):
    calls = []
    build = expharness.trial_config
    monkeypatch.setattr(expharness, "trial_config", lambda *a: calls.append(a) or build(*a))
    doc = {**TINY_SWEEP, "sweep_values": [15.0, 25.0, 35.0, 45.0, 55.0]}
    out = tmp_path / "s.csv"
    flags = ["--trials", "1", "--seed", "3", "--schedule", "gauss-seidel"]
    argv = ["sweep-uniqueness", "--config", write_config(tmp_path, doc), "--out", str(out)]
    assert main(argv + flags + ["--quiet"]) == 0
    assert len(calls) == 5
    capsys.readouterr()


def test_a_config_value_that_a_flag_replaces_is_not_checked(tmp_path, capsys):
    flagged = {**TINY_SWEEP, "trials": 0, "base_seed": -1, "schedule": "chaotic"}
    valid = {**TINY_SWEEP, "trials": 2, "base_seed": 5, "schedule": "random_async"}
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep-uniqueness", "--quiet", "--config"]
    flags = ["--trials", "2", "--seed", "5", "--schedule", "async"]
    assert main(argv + [write_config(tmp_path, flagged, "f.json"), "--out", str(a)] + flags) == 0
    assert main(argv + [write_config(tmp_path, valid, "v.json"), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # a bad flag is refused with the message the same config key gets
    zero = write_config(tmp_path, {**valid, "trials": 0}, "z.json")
    assert main(argv + [str(tmp_path / "v.json"), "--out", str(a), "--trials", "0"]) == 1
    assert main(argv + [zero, "--out", str(a)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: trials must be an integer >= 1, got 0"] * 2


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
    with pytest.raises(SystemExit) as err:  # certify plays no game
        main(["certify", "--config", "x.json", "--schedule", "jacobi"])
    assert err.value.code == 2


def test_schedule_flag_defaults():
    # play defaults to jacobi; a sweep keeps its config's schedule unless flagged
    parser = cli.build_parser()
    assert parser.parse_args(["play", "--config", "x.json"]).schedule == "jacobi"
    for command in ("sweep-uniqueness", "sweep-sumrate"):
        argv = [command, "--config", "x.json", "--out", "x.csv"]
        assert parser.parse_args(argv).schedule is None
        assert parser.parse_args(argv + ["--schedule", "async"]).schedule == "async"


@pytest.mark.parametrize(
    "doc, command, key",
    [
        ({**RANDOM_NET, "num_users": True}, "certify", "num_users"),
        ({**RANDOM_NET, "tx_antennas": 2.7}, "certify", "tx_antennas"),
        ({**TINY_SWEEP, "trials": "3"}, "sweep-uniqueness", "trials"),
        ({**RANDOM_NET, "cross_distance": [40.0] * 4}, "certify", "cross_distance"),
        ({**SCALAR_QUARTER, "channels": [1, 2]}, "certify", "channels"),
        ({**RANDOM_NET, "direct_distance": [15.0]}, "certify", "direct_distance"),
        ({**TINY_SWEEP, "power_budget_db": True}, "sweep-uniqueness", "power_budget_db"),
    ],
    ids=[
        "bool_count",
        "fractional_count",
        "string_number",
        "flat_matrix",
        "flat_channels",
        "short_per_user_list",
        "bool_number",
    ],
)
def test_config_values_are_type_strict(tmp_path, capsys, doc, command, key):
    argv = [command, "--config", write_config(tmp_path, doc), "--quiet"]
    if command.startswith("sweep"):
        argv += ["--out", str(tmp_path / "x.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]


def fresh_env(**extra):
    """The environment of a fresh interpreter that imports this package."""
    src = Path(mimoiwf.__file__).resolve().parent.parent
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    return {**os.environ, "PYTHONPATH": path, **extra}


def modules_after_cli_import(prefix):
    """Modules under prefix that a fresh `import mimoiwf.cli` loads."""
    env = fresh_env()
    code = f"import sys, mimoiwf.cli; print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_cli_import_loads_no_scipy():
    assert modules_after_cli_import("scipy") == "[]"


def test_cli_import_loads_no_numpy_random():
    # the generators and their seed-sequence class are built on first use
    assert modules_after_cli_import("numpy.random") == "[]"


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
    assert err == [f"error: channels[1][0][0][0][0] must be a finite number, got {leaf!r}"]


@pytest.mark.parametrize("command", ["play", "certify"])
def test_ragged_channel_matrix_names_the_field(tmp_path, capsys, command):
    # numpy's "inhomogeneous shape" text used to be the whole message
    doc = json.loads(json.dumps(SCALAR_QUARTER))
    doc["channels"][1][0] = [[[1.0, 0.0], [0.5, 0.0]], [[1.0, 0.0]]]
    assert main([command, "--config", write_config(tmp_path, doc), "--quiet"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "error: channels[1][0] must have shape (1, 1, 2) ([re, im] leaf pairs), got a ragged list"
    ]


def test_integral_float_count_reads_as_an_int(tmp_path, capsys):
    out = {}
    for trials in (2.0, 2):
        cfg = write_config(tmp_path, {**TINY_SWEEP, "trials": trials}, f"{trials}.json")
        out[trials] = tmp_path / f"{trials}.csv"
        assert main(["sweep-uniqueness", "--config", cfg, "--out", str(out[trials]), "--quiet"]) == 0
    capsys.readouterr()
    assert out[2.0].read_bytes() == out[2].read_bytes()
    assert '"trials": 2.0' in (tmp_path / "2.0.json").read_text()


def test_an_int_too_large_for_a_float_is_one_error_line(tmp_path, capsys):
    # used to end in an OverflowError traceback
    text = json.dumps(RANDOM_NET).replace('"power_budget": 10.0', '"power_budget": 1' + "0" * 400)
    path = tmp_path / "config.json"
    path.write_text(text)
    for command in ("certify", "play"):
        assert main([command, "--config", str(path), "--quiet"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: power_budget[0] must be a positive finite number, got {10**400!r}"]
    # a sweep whose game_tol no float can hold used to run, every game
    # "converged" after one step
    for key in ("game_tol", "agreement_tol"):
        doc = json.dumps({**TINY_SWEEP, key: 1}).replace(f'"{key}": 1', f'"{key}": 1' + "0" * 400)
        path.write_text(doc)
        out = tmp_path / "sweep.csv"
        argv = ["sweep-uniqueness", "--config", str(path), "--out", str(out), "--quiet"]
        assert main(argv) == 1 and not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {key} is too large for a float, got {10**400!r}"]


def test_a_list_where_one_number_goes_is_one_error_line(tmp_path, capsys):
    # a list passed as its entries and ended in a TypeError traceback
    path = write_config(tmp_path, {**RANDOM_NET, "pathloss_exponent": [2.5]})
    for command in ("certify", "play"):
        assert main([command, "--config", path, "--quiet"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: pathloss_exponent must be a nonnegative finite number, got [2.5]"]
    path = write_config(tmp_path, {**TINY_SWEEP, "game_tol": [0.001]}, "sweep.json")
    out = tmp_path / "sweep.csv"
    assert main(["sweep-uniqueness", "--config", path, "--out", str(out), "--quiet"]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == ["error: game_tol must be a number, got [0.001]"]


@pytest.mark.parametrize("command", ["play", "certify", "sweep-uniqueness", "sweep-sumrate"])
@pytest.mark.parametrize(
    "fields, link",
    [
        ({"direct_distance": 1e-300}, "direct_distance[0] = 1e-300 with pathloss_exponent 2.5"),
        (
            {"direct_distance": 0.5, "pathloss_exponent": 2000},
            "direct_distance[0] = 0.5 with pathloss_exponent 2000",
        ),
    ],
    ids=["tiny_distance", "huge_exponent"],
)
def test_an_overflowing_pathloss_gain_is_one_error_line(tmp_path, capsys, command, fields, link):
    # used to end in an OverflowError traceback when the layout was first read
    if command == "sweep-uniqueness":
        doc, where = {**TINY_SWEEP, **fields}, "at cross_distance = 20: "
    elif command == "sweep-sumrate":
        doc = {**TINY_SWEEP, "sweep_variable": "power_budget_db", "sweep_values": [0.0, 10.0]}
        doc, where = {**doc, **fields}, "at power_budget_db = 0: "
    else:
        doc, where = {**RANDOM_NET, **fields}, ""
    out = tmp_path / "x.csv"
    argv = [command, "--config", write_config(tmp_path, doc), "--quiet"]
    if command.startswith("sweep"):
        argv += ["--out", str(out)]
    assert main(argv) == 1 and not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {where}{link} gives a path-loss gain too large for a float"
    ]


def test_play_on_interference_that_overflows_is_one_error_line(tmp_path, capsys):
    # a cross gain of 100 on budgets of 1e307 leaks past the largest float;
    # numpy's RuntimeWarning used to come first, then a floors message
    loud = {**SCALAR_QUARTER, "power_budget": 1e307}
    loud["channels"] = [[[[[1.0, 0.0]]], [[[10.0, 0.0]]]], [[[[10.0, 0.0]]], [[[1.0, 0.0]]]]]
    assert main(["play", "--config", write_config(tmp_path, loud), "--quiet"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: step 0: float overflow:")
    assert line.endswith("too large for a float")


# noise / sigma^2 passes the largest float on one stream of the one user
NOISE_OVERFLOW = {
    "num_users": 1,
    "tx_antennas": 2,
    "rx_antennas": 3,
    "power_budget": 1e300,
    "noise_power": 1e300,
    "direct_distance": 51.2,
    "cross_distance": 80.6,
    "pathloss_exponent": 5.27,
}


@pytest.mark.parametrize("command", ["play", "certify"])
def test_a_noise_floor_past_the_largest_float_is_one_error_line(tmp_path, capsys, command):
    # numpy's RuntimeWarning from the division used to come first
    assert main([command, "--config", write_config(tmp_path, NOISE_OVERFLOW), "--quiet"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: noise floor of user 0 is not finite"]


# a direct-link gain of about 1.7e308 fits a float, but its squared singular
# values do not, so noise over them comes out 0
SQUARE_OVERFLOW = {
    "num_users": 2,
    "tx_antennas": 2,
    "rx_antennas": 2,
    "power_budget": 1.0,
    "noise_power": 1.0,
    "direct_distance": 1.8e-103,
    "cross_distance": 1.0,
    "pathloss_exponent": 3.0,
}


@pytest.mark.parametrize("command", ["play", "certify"])
def test_a_noise_floor_of_zero_is_one_error_line(tmp_path, capsys, command):
    # numpy's RuntimeWarnings from the squares used to come first, and play
    # went on to print infinite rates after a third warning
    argv = [command, "--config", write_config(tmp_path, SQUARE_OVERFLOW), "--quiet"]
    assert main(argv + (["--seed", "1"] if command == "play" else [])) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: noise floor of user 0 is 0"]


# cross links with a power gain of about 1.7e308: a coupling, cross gain
# over a squared singular value, passes the largest float
CROSS_OVERFLOW = {**SQUARE_OVERFLOW, "direct_distance": 1.0, "cross_distance": 1.8e-103}
# a draw whose coupling passes the largest float is degenerate, as one whose
# noise floor does: play and certify name the user, before any game step
CROSS_OVERFLOW_ERRORS = {
    "play": "error: coupling into user 0 is not finite",
    "certify": "error: coupling into user 0 is not finite",
}


@pytest.mark.parametrize("command", ["play", "certify"])
def test_a_coupling_past_the_largest_float_is_one_error_line(tmp_path, capsys, command):
    # numpy's RuntimeWarning from the division used to come first
    argv = [command, "--config", write_config(tmp_path, CROSS_OVERFLOW), "--quiet"]
    assert main(argv + (["--seed", "1"] if command == "play" else [])) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [CROSS_OVERFLOW_ERRORS[command]]


def _real_rows(matrix):
    return [[[float(v), 0.0] for v in row] for row in matrix]


# user 0's direct link [[1, 0], [0, 0]] has a zero singular value
RANK_DEFICIENT = {
    **SQUARE_OVERFLOW,
    "direct_distance": 1.0,
    "pathloss_exponent": 0.0,
    "channels": [
        [_real_rows([[1, 0], [0, 0]]), _real_rows([[0.5, 0], [0, 0.5]])],
        [_real_rows([[0.5, 0], [0, 0.5]]), _real_rows([[1, 0], [0, 1]])],
    ],
}


@pytest.mark.parametrize("command", ["play", "certify"])
def test_a_rank_deficient_direct_link_is_one_error_line(tmp_path, capsys, command):
    assert main([command, "--config", write_config(tmp_path, RANK_DEFICIENT), "--quiet"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: direct channel of user 0 has a singular value at or below 1e-12"
    ]


def test_a_sweep_whose_couplings_overflow_writes_its_csv_quietly(tmp_path, capsys):
    # every draw is degenerate, so both trials are excluded, as for noise floors
    # that overflow; the sweep used to abort with the certificate's error
    doc = {
        "sweep_values": [1.8e-103],
        "trials": 2,
        "direct_distance": 1.0,
        "pathloss_exponent": 3.0,
        "power_budget_db": 0.0,
    }
    out = tmp_path / "cross.csv"
    argv = ["sweep-uniqueness", "--config", write_config(tmp_path, doc), "--out", str(out)]
    assert main(argv + ["--quiet"]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_text().splitlines()[1] == "1.8e-103,0,0,0,0,nan,nan,2"


def test_a_sweep_whose_noise_floors_overflow_writes_its_csv_quietly(tmp_path, capsys):
    # every draw is degenerate, so both trials are excluded, as before
    doc = {"sweep_values": [15.0], "trials": 2, "noise_power": 1e306}
    out = tmp_path / "noisy.csv"
    argv = ["sweep-uniqueness", "--config", write_config(tmp_path, doc), "--out", str(out)]
    assert main(argv + ["--quiet"]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_text().splitlines()[1] == "15,0,0,0,0,nan,nan,2"


def test_a_sweep_with_a_huge_it_max_plays_only_the_steps_it_needs(tmp_path, capsys):
    # the game history grows with the steps played: a 10 dB game stops at
    # step 2, where it_max 10**12 used to allocate 58 TiB up front
    csv = {}
    for it_max in (100, 10**12):
        doc = {"sweep_values": [35.0], "trials": 1, "it_max": it_max}
        out = tmp_path / f"{it_max}.csv"
        argv = ["sweep-uniqueness", "--config", write_config(tmp_path, doc), "--out", str(out)]
        assert main(argv + ["--quiet"]) == 0
        assert capsys.readouterr().err == ""
        csv[it_max] = out.read_bytes()
    assert csv[10**12] == csv[100]


# two users whose floors sum past the largest float in the equilibrium check
FLOOR_SUM_OVERFLOW = {
    "num_users": 2,
    "tx_antennas": 2,
    "rx_antennas": 3,
    "power_budget": 5.344256562986085e191,
    "noise_power": 3.1404316064130208e299,
    "direct_distance": 40.06157258816077,
    "cross_distance": 24.1642915753832,
    "pathloss_exponent": 5.364038606933497,
    "seed": 2371,
}


@pytest.mark.parametrize("kind", ["jacobi", "gauss-seidel", "async"])
def test_floors_whose_sum_overflows_play_with_no_warning(tmp_path, capsys, kind):
    # numpy's RuntimeWarning from check_nash's water_level used to come
    # between sum_rate and nash_gap
    argv = ["play", "--config", write_config(tmp_path, FLOOR_SUM_OVERFLOW), "--quiet"]
    assert main(argv + ["--schedule", kind]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-2:] == ["sum_rate 0", "nash_gap 0"]


def test_main_called_in_sequence_repeats_first_calls(tmp_path, capsys, monkeypatch):
    # the parser is built once per process; each call must still parse,
    # run and fail as the first call of a fresh interpreter does
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to this
    uniq = write_config(tmp_path, {**TINY_SWEEP, "trials": 4}, "uniq.json")
    rate = {"sweep_variable": "power_budget_db", "sweep_values": [0.0, 20.0], "trials": 4}
    rate = write_config(tmp_path, rate, "rate.json")
    net = write_config(tmp_path, RANDOM_NET, "net.json")
    async_sweep = ["sweep-uniqueness", "--config", uniq, "--schedule", "async", "--quiet"]
    calls = [
        (async_sweep, "u.csv"),
        (["sweep-sumrate", "--config", rate, "--schedule", "jacobi", "--quiet"], "r.csv"),
        (["certify", "--config", net, "--quiet"], None),
        (["play", "--config", net, "--schedule", "chaotic"], None),  # an argparse error
        (async_sweep, "u-again.csv"),
    ]
    first, again = tmp_path / "first", tmp_path / "again"
    first.mkdir()
    again.mkdir()
    codes = []
    for argv, csv in calls:
        fresh_argv, again_argv = argv, argv
        if csv:
            fresh_argv = argv + ["--out", str(first / csv)]
            again_argv = argv + ["--out", str(again / csv)]
        done = subprocess.run(
            [sys.executable, "-m", "mimoiwf.cli", *fresh_argv],
            env=fresh_env(COLUMNS="80"),
            capture_output=True,
            text=True,
            timeout=120,
        )
        try:
            code = main(again_argv)
        except SystemExit as exc:
            code = exc.code
        stdout, stderr = capsys.readouterr()
        assert code == done.returncode, argv
        assert stdout.replace(str(again), "DIR") == done.stdout.replace(str(first), "DIR"), argv
        assert stderr == done.stderr, argv
        if csv:
            assert (again / csv).read_bytes() == (first / csv).read_bytes(), argv
        codes.append(code)
    assert codes == [0, 0, 0, 2, 0]
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("command", ["sweep-uniqueness", "sweep-sumrate"])
def test_a_sweep_function_swapped_in_later_is_the_one_run(tmp_path, capsys, monkeypatch, command):
    doc = dict(TINY_SWEEP)
    if command == "sweep-sumrate":
        doc["sweep_variable"] = "power_budget_db"
    out = tmp_path / "x.csv"
    argv = [command, "--config", write_config(tmp_path, doc), "--out", str(out), "--quiet"]
    assert main(argv) == 0  # builds the parser, if no earlier call did
    before = out.read_bytes()
    name = command.replace("-", "_")
    real, seen = getattr(cli, name), []

    def wrapped(spec, jobs):
        seen.append(jobs)
        return real(spec, jobs=jobs)

    monkeypatch.setattr(cli, name, wrapped)
    assert main(argv) == 0
    capsys.readouterr()
    assert seen == [1] and out.read_bytes() == before
