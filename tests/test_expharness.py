import dataclasses

import numpy as np
import pytest

from mimoiwf.expharness import (
    SweepSpec,
    db_to_linear,
    run_trial,
    sweep_sumrate,
    sweep_uniqueness,
    trial_config,
    validate_spec,
    write_csv,
)
from mimoiwf.netmodel import ConfigError

TINY_UNIQ = SweepSpec(sweep_values=(20.0, 45.0), trials=12, base_seed=7)
TINY_RATE = SweepSpec(
    sweep_variable="power_budget_db", sweep_values=(0.0, 10.0, 20.0), trials=10, base_seed=7
)


def test_db_conversion():
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-12)
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(-10.0) == pytest.approx(0.1, rel=1e-12)


def test_trial_config_budget_and_distances():
    cfg = trial_config(TINY_UNIQ, 25.0)
    assert cfg.cross_distance[0][1] == 25.0
    assert cfg.power_budget[0] == pytest.approx(10.0, rel=1e-12)

    cfg = trial_config(TINY_RATE, 15.0)
    assert cfg.power_budget[0] == pytest.approx(10.0**1.5, rel=1e-12)
    # received cross power sits 10 dB under the direct link
    assert cfg.cross_distance[0][1] == pytest.approx(15.0 * 10.0**0.4, rel=1e-12)

    # a positive ratio puts the cross links closer than the direct ones
    closer = dataclasses.replace(TINY_RATE, interference_ratio_db=10.0)
    cfg = trial_config(closer, 15.0)
    assert cfg.cross_distance[0][1] == pytest.approx(15.0 * 10.0**-0.4, rel=1e-12)


def test_spec_validation():
    with pytest.raises(ConfigError, match="sweep_variable"):
        validate_spec(dataclasses.replace(TINY_UNIQ, sweep_variable="distance"))
    with pytest.raises(ConfigError, match="trials"):
        validate_spec(dataclasses.replace(TINY_UNIQ, trials=0))
    with pytest.raises(ConfigError, match="sweep_values"):
        validate_spec(dataclasses.replace(TINY_UNIQ, sweep_values=()))
    with pytest.raises(ConfigError, match="increasing"):
        validate_spec(dataclasses.replace(TINY_UNIQ, sweep_values=(15.0, 15.0)))
    with pytest.raises(ConfigError, match="increasing"):
        validate_spec(dataclasses.replace(TINY_UNIQ, sweep_values=(25.0, 15.0)))
    with pytest.raises(ConfigError, match="positive"):
        validate_spec(dataclasses.replace(TINY_UNIQ, sweep_values=(-1.0, 15.0)))
    for field, value in (
        ("game_tol", 0.0),
        ("game_tol", -1.0),
        ("game_tol", float("nan")),
        ("game_tol", float("inf")),
        ("agreement_tol", -1.0),
        ("agreement_tol", float("nan")),
        ("agreement_tol", float("inf")),
        ("it_max", 0),
        ("schedule", "gauss-seidel"),
        ("delay_bound", -1),
        ("update_bound", 0),
    ):
        with pytest.raises(ConfigError, match=field):
            validate_spec(dataclasses.replace(TINY_UNIQ, **{field: value}))
    validate_spec(dataclasses.replace(TINY_UNIQ, agreement_tol=0.0, delay_bound=0))
    with pytest.raises(ConfigError, match="cross_distance"):
        sweep_uniqueness(TINY_RATE)
    with pytest.raises(ConfigError, match="power_budget_db"):
        sweep_sumrate(TINY_UNIQ)


@pytest.mark.parametrize(
    "field", ["trials", "max_retries", "it_max", "delay_bound", "update_bound", "base_seed"]
)
def test_spec_counts_must_be_integers(field):
    # a bool or a float count used to pass, and failed only at the first trial
    for value in (True, 1.5, 2.0):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            dataclasses.replace(TINY_UNIQ, schedule="random_async", **{field: value})
    dataclasses.replace(TINY_UNIQ, **{field: np.int64(2)})


BUDGET = "power_budget_db"


@pytest.mark.parametrize(
    "fields, name",
    [
        ({"sweep_variable": BUDGET, "sweep_values": (0.0, np.nan, 10.0)}, BUDGET),
        ({"num_users": 0}, "num_users"),
        ({"power_budget_db": np.inf}, "power_budget"),
        ({"base_seed": -1}, "base_seed"),
        ({"sweep_variable": BUDGET, "pathloss_exponent": 0.0}, BUDGET),
        ({"sweep_variable": BUDGET, "sweep_values": (0.0, 4000.0)}, BUDGET),
    ],
    ids=[
        "nan_budget_point",
        "no_users",
        "infinite_budget",
        "negative_seed",
        "flat_pathloss",
        "overflowing_budget",
    ],
)
def test_spec_is_checked_when_built(fields, name):
    # the network of every sweep point is built before any trial runs
    with pytest.raises(ConfigError, match=name):
        SweepSpec(**fields)
    with pytest.raises(ConfigError, match=name):
        dataclasses.replace(TINY_UNIQ, **fields)


def test_failed_trials_keep_no_outcome(tmp_path):
    # a direct link 1e12 away has singular values near 1e-15, under the floor
    spec = SweepSpec(direct_distance=1e12, sweep_values=(15.0,), trials=2, max_retries=2)
    res = sweep_uniqueness(spec)
    assert len(res.records) == 2
    for rec in res.records:
        assert rec.failed is True and rec.retries == 2
        for name in ("row_norm", "col_norm", "spectral", "max_disagreement", "sum_rate_value"):
            assert np.isnan(getattr(rec, name)), name
        flags = ("norm_cond", "strict_cond", "spectral_cond", "converged_all", "empirically_unique")
        for name in flags:
            assert getattr(rec, name) is False, name
        assert rec.iterations == 0
    (row,) = res.rows
    assert row["excluded_trials"] == 2
    for name in ("p_norm_cond", "p_strict_cond", "p_spectral", "p_empirical_unique"):
        assert row[name] == 0.0, name
    assert np.isnan(row["mean_sum_rate"]) and np.isnan(row["mean_iterations"])
    path = tmp_path / "failed.csv"
    write_csv(res, str(path))
    assert path.read_text().splitlines()[1] == "15,0,0,0,0,nan,nan,2"


def test_run_trial_is_deterministic():
    a = run_trial(TINY_UNIQ, 1, 3)
    b = run_trial(TINY_UNIQ, 1, 3)
    assert a == b
    c = run_trial(TINY_UNIQ, 1, 4)
    assert a.spectral != c.spectral


def test_run_trial_record_contents():
    rec = run_trial(TINY_UNIQ, 0, 0)
    assert not rec.failed
    assert rec.point_value == 20.0
    assert rec.iterations <= TINY_UNIQ.it_max
    assert rec.row_norm >= rec.spectral - 1e-9
    assert rec.max_disagreement >= 0.0
    if rec.norm_cond:
        assert rec.spectral_cond


def test_far_interferers_certify_almost_surely():
    spec = dataclasses.replace(TINY_UNIQ, sweep_values=(200.0,))
    for trial in range(10):
        rec = run_trial(spec, 0, trial)
        assert rec.norm_cond and rec.spectral_cond
        assert rec.empirically_unique


def test_certified_trials_never_disagree():
    for point in range(2):
        for trial in range(TINY_UNIQ.trials):
            rec = run_trial(TINY_UNIQ, point, trial)
            if rec.norm_cond:
                assert rec.max_disagreement <= 1e-4


def test_sweep_rows_and_counts():
    res = sweep_uniqueness(TINY_UNIQ)
    assert len(res.rows) == 2
    assert len(res.records) == 24
    for row in res.rows:
        assert row["excluded_trials"] == 0
        assert 0.0 <= row["p_norm_cond"] <= row["p_spectral"] <= 1.0
        assert row["p_empirical_unique"] <= 1.0
        assert row["mean_iterations"] <= TINY_UNIQ.it_max


def test_sumrate_sweep_grows_with_budget():
    res = sweep_sumrate(TINY_RATE)
    rates = [row["mean_sum_rate"] for row in res.rows]
    assert rates[0] < rates[1] < rates[2]


def test_csv_output_deterministic(tmp_path):
    res = sweep_uniqueness(TINY_UNIQ)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(res, str(p1))
    write_csv(sweep_uniqueness(TINY_UNIQ), str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == (
        "sweep_value,p_norm_cond,p_strict_cond,p_spectral,"
        "p_empirical_unique,mean_sum_rate,mean_iterations,excluded_trials"
    )
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "20"
    assert len(first) == 8
    # nine significant digits at most
    for cell in first[:-1]:
        mantissa = cell.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
        assert len(mantissa) <= 9


def test_parallel_matches_serial(tmp_path):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    write_csv(sweep_uniqueness(TINY_UNIQ, jobs=1), str(serial))
    write_csv(sweep_uniqueness(TINY_UNIQ, jobs=2), str(parallel))
    assert serial.read_bytes() == parallel.read_bytes()


def test_csv_write_failure_names_path(tmp_path):
    res = sweep_uniqueness(dataclasses.replace(TINY_UNIQ, trials=1))
    missing = tmp_path / "nope" / "out.csv"
    with pytest.raises(OSError, match="nope"):
        write_csv(res, str(missing))


def test_sumrate_sweep_completes_at_high_budgets():
    # random starts that split 1e8 or 1e9 exactly can round one ulp over it
    spec = dataclasses.replace(TINY_RATE, sweep_values=(80.0, 90.0), trials=10)
    res = sweep_sumrate(spec)
    assert [row["excluded_trials"] for row in res.rows] == [0, 0]
    assert all(np.isfinite(row["mean_sum_rate"]) for row in res.rows)


def test_trial_records_do_not_depend_on_call_order():
    forward = [run_trial(TINY_UNIQ, p, t) for p in (0, 1) for t in (0, 1)]
    backward = [run_trial(dataclasses.replace(TINY_UNIQ), p, t) for p in (1, 0) for t in (1, 0)]
    assert forward == backward[::-1]
