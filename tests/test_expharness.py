import dataclasses
import pickle

import numpy as np
import pytest

from mimoiwf import expharness
from mimoiwf.contraction import certify
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
from mimoiwf.netmodel import ConfigError, sample_channels
from mimoiwf.precode import DegenerateChannelError, build_effective_network

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


def test_jobs_must_be_a_count():
    one = dataclasses.replace(TINY_UNIQ, trials=1)
    for jobs in (0, -3, True, 2.5, "2"):
        for sweep, spec in ((sweep_uniqueness, one), (sweep_sumrate, TINY_RATE)):
            with pytest.raises(ConfigError, match=f"jobs must be an integer >= 1, got {jobs!r}"):
                sweep(spec, jobs=jobs)
    assert sweep_uniqueness(one, jobs=np.int64(1)).rows == sweep_uniqueness(one).rows


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


def test_list_sweep_values_give_the_tuple_spec(tmp_path):
    listed = SweepSpec(sweep_values=[20.0, 45.0], trials=3, base_seed=7)
    tupled = dataclasses.replace(TINY_UNIQ, trials=3)
    assert listed.sweep_values == (20.0, 45.0)
    assert listed == tupled and hash(listed) == hash(tupled)
    paths = tmp_path / "listed.csv", tmp_path / "tupled.csv"
    write_csv(sweep_uniqueness(listed), str(paths[0]))
    write_csv(sweep_uniqueness(tupled), str(paths[1]))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_replace_gives_a_spec_fresh_points():
    spec = dataclasses.replace(TINY_UNIQ)
    old = spec.points
    louder = dataclasses.replace(spec, power_budget_db=20.0)
    assert "points" not in vars(louder)
    for (value, cfg, uniform, greedy), (_, old_cfg, _, _) in zip(louder.points, old):
        assert cfg.power_budget == (100.0,) * 4 and old_cfg.power_budget == (10.0,) * 4
        assert cfg == trial_config(louder, value)
        assert uniform.sum() == greedy.sum() == 400.0
    assert spec.points is old


def test_pickled_spec_rebuilds_read_only_points():
    spec = dataclasses.replace(TINY_RATE)
    assert len(spec.points) == 3
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec and "points" not in vars(copy)
    for (value, cfg, uniform, greedy), built in zip(copy.points, spec.points):
        assert value == built[0] and cfg == built[1]
        assert "layout" in vars(cfg)  # the greedy start read it
        for start, old in ((uniform, built[2]), (greedy, built[3])):
            np.testing.assert_array_equal(start, old)
            assert not start.flags.writeable


# A direct link 1e9 away sits near the singular-value floor: of these 40
# trials 4 redraw and 1 runs out of draws, spread over the point's chunks.
MIXED = SweepSpec(direct_distance=1e9, sweep_values=(15.0,), trials=40, max_retries=2)


@pytest.fixture(scope="module")
def mixed_singles():
    return [run_trial(MIXED, 0, t) for t in range(MIXED.trials)]


def test_degenerate_draws_are_redrawn_with_the_next_seeds(mixed_singles):
    # the trial's seeds, drawn one by one: the first network that is not
    # degenerate is the trial's, and the draws before it are its retries
    cfg = MIXED.points[0][1]
    for rec in mixed_singles:
        root = np.random.SeedSequence((MIXED.base_seed, 0, rec.trial_index))
        seeds = root.generate_state(MIXED.max_retries + 2, dtype=np.uint64).tolist()
        cert, retries = None, 0
        for seed in seeds[: MIXED.max_retries]:
            try:
                cert = certify(build_effective_network(sample_channels(cfg, seed), cfg))
                break
            except DegenerateChannelError:
                retries += 1
        assert (rec.retries, rec.failed) == (retries, cert is None), rec.trial_index
        if cert is not None:
            assert rec.spectral == cert.spectral_radius and rec.row_norm == cert.row_norm


def same_record(a, b):
    return all(
        x == y or (x != x and y != y) for x, y in zip(dataclasses.astuple(a), dataclasses.astuple(b))
    )


@pytest.mark.parametrize("chunk", [None, 3], ids=["default_chunks", "uneven_chunks"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_mixed_degenerate_chunks_equal_single_trials(monkeypatch, mixed_singles, jobs, chunk):
    assert sum(r.retries > 0 for r in mixed_singles) == 4
    assert sum(r.failed for r in mixed_singles) == 1
    if chunk is not None:
        monkeypatch.setattr(expharness, "CHUNK_TRIALS", chunk)
    records = sweep_uniqueness(MIXED, jobs=jobs).records
    assert [r.trial_index for r in records] == list(range(MIXED.trials))
    for rec, single in zip(records, mixed_singles):
        assert same_record(rec, single), rec.trial_index
    assert not expharness._ready
