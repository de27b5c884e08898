import concurrent.futures
import dataclasses
import pickle

import numpy as np
import pytest

from mimoiwf import expharness, netmodel
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

from oracles import reference_random_profile

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
        ("game_tol", 10**400),  # an int no float holds; it used to pass
        ("agreement_tol", -1.0),
        ("agreement_tol", float("nan")),
        ("agreement_tol", float("inf")),
        ("agreement_tol", 10**400),
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
    "field",
    [
        "trials",
        "max_retries",
        "it_max",
        "delay_bound",
        "update_bound",
        "base_seed",
        "num_users",
        "tx_antennas",
        "rx_antennas",
    ],
)
def test_spec_counts_must_be_integers(field):
    # a bool or a float count used to pass, and failed only at the first trial
    for value in (True, 1.5, 2.0):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            dataclasses.replace(TINY_UNIQ, schedule="random_async", **{field: value})
    dataclasses.replace(TINY_UNIQ, **{field: np.int64(2)})


def test_numpy_integer_counts_sweep_like_ints():
    # np.int64(4) users used to be refused while np.int64 trials passed
    ints = SweepSpec(num_users=3, sweep_values=(20.0,), trials=2, base_seed=7)
    numpy = dataclasses.replace(
        ints, num_users=np.int64(3), tx_antennas=np.int32(2), rx_antennas=np.int64(2)
    )
    assert numpy == ints
    assert sweep_uniqueness(numpy).rows == sweep_uniqueness(ints).rows


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"power_budget_db": True}, "power_budget_db must be a number, got True"),
        ({"power_budget_db": "10"}, "power_budget_db must be a number, got '10'"),
        ({"noise_power": True}, "noise_power must be a number, got True"),
        ({"game_tol": True}, "game_tol must be a number, got True"),
        ({"interference_ratio_db": None}, "interference_ratio_db must be a number, got None"),
        ({"sweep_values": ("15",)}, r"sweep_values\[0\] must be a number, got '15'"),
        ({"sweep_values": ([15.0],)}, r"sweep_values\[0\] must be a number, got \[15.0\]$"),
        ({"game_tol": [1e-3]}, r"game_tol must be a number, got \[0.001\]$"),
        ({"game_tol": []}, r"game_tol must be a number, got \[\]$"),
        ({"agreement_tol": (0.0,)}, r"agreement_tol must be a number, got \(0.0,\)$"),
        (
            {"sweep_variable": "power_budget_db", "direct_distance": "15"},
            "direct_distance must be a number, got '15'",
        ),
    ],
    ids=[
        "bool_budget",
        "string_budget",
        "bool_noise",
        "bool_tol",
        "no_ratio",
        "string_point",
        "list_point",
        "list_tol",
        "empty_tol",
        "tuple_agreement",
        "string_distance",
    ],
)
def test_spec_reals_must_be_numbers(fields, message):
    # these were accepted, or escaped as a raw TypeError
    with pytest.raises(ConfigError, match=message):
        SweepSpec(**fields)


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


def test_a_budget_sweep_at_pathloss_exponent_0_names_both_fields():
    # a distance sweep at exponent 0 still builds; a budget sweep cannot set
    # its cross distance from interference_ratio_db
    assert SweepSpec(pathloss_exponent=0.0, sweep_values=(20.0,), trials=1).points
    with pytest.raises(ConfigError) as info:
        SweepSpec(sweep_variable=BUDGET, sweep_values=(10.0, 20.0), pathloss_exponent=0.0)
    assert str(info.value) == (
        "at power_budget_db = 10.0: interference_ratio_db cannot set the cross distance "
        "at pathloss_exponent 0, where every link has the same gain"
    )


@pytest.mark.parametrize(
    "ratio_db, exponent, distance",
    [(-10.0, 1e-300, "inf"), (-10.0, 3e-3, "inf"), (10.0, 1e-300, "0.0")],
)
def test_a_budget_sweep_at_a_tiny_pathloss_exponent_names_both_fields(ratio_db, exponent, distance):
    # 10 ** (-ratio / (10 * exponent)) overflowed into an OverflowError that
    # named neither field, or underflowed to a cross distance of 0
    with pytest.raises(ConfigError) as info:
        SweepSpec(
            sweep_variable=BUDGET,
            sweep_values=(10.0, 20.0),
            interference_ratio_db=ratio_db,
            pathloss_exponent=exponent,
        ).points
    assert str(info.value) == (
        f"at power_budget_db = 10.0: interference_ratio_db {ratio_db!r} cannot set the cross "
        f"distance at pathloss_exponent {exponent!r}, where it comes out as {distance}, "
        "not a positive finite float"
    )
    # a ratio that the exponent maps to a float distance still builds
    spec = SweepSpec(sweep_variable=BUDGET, interference_ratio_db=-3000.0, pathloss_exponent=1.0)
    assert spec.points[0][1].cross_distance[0][1] == pytest.approx(15.0 * 1e300)


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
    assert louder.points is not old
    for (value, cfg, greedy), (_, old_cfg, old_greedy) in zip(louder.points, old):
        assert cfg.power_budget == (100.0,) * 4 and old_cfg.power_budget == (10.0,) * 4
        assert cfg == trial_config(louder, value)
        assert greedy.sum() == 400.0 and old_greedy.sum() == 40.0
    assert spec.points is old


def test_pickled_spec_rebuilds_read_only_points():
    spec = dataclasses.replace(TINY_RATE)
    assert len(spec.points) == 3
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec and "points" not in vars(copy)
    for (value, cfg, greedy), built in zip(copy.points, spec.points, strict=True):
        assert value == built[0] and cfg == built[1]
        assert "layout" in vars(cfg)  # the greedy start read it
        np.testing.assert_array_equal(greedy, built[2])
        assert not greedy.flags.writeable


@pytest.mark.parametrize("spec", [TINY_UNIQ, TINY_RATE], ids=["uniqueness", "sumrate"])
def test_each_point_config_is_built_once_per_spec(monkeypatch, spec):
    calls = []
    build = expharness.trial_config
    monkeypatch.setattr(expharness, "trial_config", lambda s, v: calls.append(v) or build(s, v))
    fresh = dataclasses.replace(spec)  # built and checked here
    assert calls == list(spec.sweep_values)
    assert "points" in vars(fresh)
    run = sweep_uniqueness if spec.sweep_variable == "cross_distance" else sweep_sumrate
    run(fresh)
    assert validate_spec(fresh) is fresh
    assert calls == list(spec.sweep_values)
    assert "points" not in fresh.__getstate__() and "points" not in repr(fresh)


@pytest.mark.parametrize("kind", ["jacobi", "gauss_seidel", "random_async"])
def test_deterministic_schedules_share_one_plan(monkeypatch, kind):
    spec = SweepSpec(sweep_values=(15.0, 30.0, 45.0), trials=5, power_budget_db=30.0, schedule=kind)
    singles = [run_trial(dataclasses.replace(spec), p, t) for p in range(3) for t in range(5)]
    calls = []
    build = expharness.make_schedule
    monkeypatch.setattr(expharness, "make_schedule", lambda *a, **k: calls.append(a) or build(*a, **k))
    records = sweep_uniqueness(spec).records
    drawn = sum(not r.failed for r in records)
    assert len(calls) == (drawn if kind == "random_async" else 1) and drawn == 15
    for rec, single in zip(records, singles, strict=True):
        assert same_record(rec, single), (rec.point_index, rec.trial_index)

    if kind == "random_async":
        assert spec.plan is None
    else:
        assert spec.plan is spec.plan and spec.plan.it_max == spec.it_max and len(calls) == 1
    assert "plan" in vars(spec) and "plan" not in {f.name for f in dataclasses.fields(spec)}
    fresh = dataclasses.replace(spec)
    assert "plan" not in repr(spec) and spec == fresh and hash(spec) == hash(fresh)
    assert "plan" not in spec.__getstate__() and "plan" not in vars(pickle.loads(pickle.dumps(spec)))


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


@pytest.mark.parametrize("base_seed", [3, 2**32 + 5, 2**70])
def test_a_chunk_derives_the_seeds_and_random_starts_of_its_trials(monkeypatch, base_seed):
    # one chunk across the three budgets of a sum-rate sweep: each key's seeds
    # are its SeedSequence's, its random start is the one its own generator
    # draws under its point's budget, and an async trial's plan seed is the
    # generator of its last seed, not yet drawn from
    tables = []
    words = expharness.seed_words

    def kept(entropies, n):
        tables.append(words(entropies, n))
        return tables[-1]

    monkeypatch.setattr(expharness, "seed_words", kept)
    for schedule in ("jacobi", "random_async"):
        spec = dataclasses.replace(TINY_RATE, base_seed=base_seed, schedule=schedule)
        keys = [(p, t) for p in range(3) for t in range(spec.trials)]
        tables.clear()
        prepared = expharness._prepare(spec, keys)
        (table,) = tables
        for (p, t), seeds, (*_, start, plan) in zip(keys, table.tolist(), prepared, strict=True):
            root = np.random.SeedSequence((base_seed, p, t))
            assert seeds == root.generate_state(spec.max_retries + 2, np.uint64).tolist()
            rng = np.random.default_rng(seeds[spec.max_retries])
            want = reference_random_profile(spec.points[p][1], rng)
            np.testing.assert_array_equal(start, np.concatenate(want))
            if schedule == "jacobi":
                assert plan is None
                continue
            want = np.random.default_rng(seeds[spec.max_retries + 1]).bit_generator.state
            assert plan.bit_generator.state == want


@pytest.mark.parametrize(
    "spec", [TINY_RATE, dataclasses.replace(MIXED, schedule="random_async")], ids=["rate", "async"]
)
def test_a_chunk_and_a_lone_trial_hash_seeds_in_two_passes(monkeypatch, spec):
    # one seed_words pass for the seed table, one for the generators of every
    # key's draw and random start and of an async key's plan; redraws seed
    # from ints
    passes = []
    words = netmodel.seed_words

    def counted(entropies, n):
        passes.append((len(entropies), n))
        return words(entropies, n)

    monkeypatch.setattr(netmodel, "seed_words", counted)
    monkeypatch.setattr(expharness, "seed_words", counted)
    keys = [(p, t) for p in range(len(spec.sweep_values)) for t in range(spec.trials)]
    generators = 3 if spec.schedule == "random_async" else 2
    records = expharness._run_chunk(spec, keys)
    assert passes == [(len(keys), spec.max_retries + 2), (generators * len(keys), 4)]
    if spec is not TINY_RATE:  # the chunk redrew some draws
        assert any(r.retries for r in records)
    passes.clear()
    run_trial(spec, 0, 3)
    assert passes == [(1, spec.max_retries + 2), (generators, 4)]


@pytest.mark.parametrize("base_seed", [0, 2**32 + 5, 2**64 + 5])
def test_a_sweep_chunk_builds_a_seed_sequence_only_past_four_words(monkeypatch, base_seed):
    # (base_seed, point, trial) is three or four words for a base seed below
    # 2**64, which seed_words hashes in bulk; a third base-seed word makes
    # five, and each key of the chunk then builds numpy's SeedSequence
    spec = dataclasses.replace(MIXED, schedule="random_async", base_seed=base_seed)
    keys = [(0, t) for t in range(spec.trials)]
    singles = [run_trial(spec, p, t) for p, t in keys]
    built = []
    sequence = np.random.SeedSequence

    def counted(entropy):
        if base_seed < 2**64:
            raise AssertionError(f"SeedSequence({entropy!r}) built at base seed {base_seed}")
        built.append(entropy)
        return sequence(entropy)

    monkeypatch.setattr(np.random, "SeedSequence", counted)
    records = expharness._run_chunk(spec, keys)
    assert built == ([] if base_seed < 2**64 else [(base_seed, p, t) for p, t in keys])
    assert any(r.retries for r in records)
    for rec, single in zip(records, singles, strict=True):
        assert same_record(rec, single), rec.trial_index


def test_disagreement_is_the_spread_of_all_three_final_states(monkeypatch):
    # interference-limited, so the starts end apart by rounding, and in two of
    # these trials the random start's final state sets the spread
    spec = SweepSpec(sweep_values=(25.0,), trials=12, base_seed=7, power_budget_db=30.0)
    traces = []
    play = expharness.run_game

    def keep(*args, **kwargs):
        traces.append(play(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(expharness, "run_game", keep)
    random_start_widest = 0
    for t in range(spec.trials):
        traces.clear()
        rec = run_trial(spec, 0, t)
        finals = np.array([trace.states[-1] for trace in traces])
        assert rec.max_disagreement == float(np.ptp(finals, axis=0).max()), t
        random_start_widest += np.ptp(finals[:2], axis=0).max() < rec.max_disagreement
    assert random_start_widest == 2


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


# Three points whose direct links sit 1e9 away, near the singular-value
# floor, so chunks that span points hold draws that redraw or run out.
# 13 trials a point: chunks of 3, of 7 and the smaller ones of two jobs
# all end inside a point.
ACROSS_POINTS = {
    "uniqueness": SweepSpec(
        direct_distance=1e9, sweep_values=(15.0, 30.0, 60.0), trials=13, max_retries=2
    ),
    "sumrate": SweepSpec(
        sweep_variable="power_budget_db",
        direct_distance=1e9,
        sweep_values=(0.0, 20.0, 40.0),
        trials=13,
        max_retries=2,
        base_seed=5,
    ),
}


@pytest.fixture(scope="module")
def across_singles():
    return {
        name: [run_trial(spec, p, t) for p in range(3) for t in range(spec.trials)]
        for name, spec in ACROSS_POINTS.items()
    }


@pytest.mark.parametrize("name", list(ACROSS_POINTS))
@pytest.mark.parametrize("chunk", [None, 3, 7], ids=["default", "chunk_3", "chunk_7"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_chunks_across_points_equal_single_trials(monkeypatch, across_singles, name, chunk, jobs):
    spec, singles = ACROSS_POINTS[name], across_singles[name]
    redrawn = {r.point_index for r in singles if r.retries > 0 and not r.failed}
    assert len(redrawn) >= 2 and any(r.failed for r in singles)
    if chunk is not None:
        monkeypatch.setattr(expharness, "CHUNK_TRIALS", chunk)
    stacks = []
    draw = expharness.sample_channels
    monkeypatch.setattr(
        expharness,
        "sample_channels",
        lambda cfg, seed: stacks.append(np.ndim(seed) and len(seed)) or draw(cfg, seed),
    )
    sweep = sweep_uniqueness if name == "uniqueness" else sweep_sumrate
    records = sweep(spec, jobs=jobs).records
    assert [(r.point_index, r.trial_index) for r in records] == [
        (r.point_index, r.trial_index) for r in singles
    ]
    for rec, single in zip(records, singles):
        assert same_record(rec, single), (rec.point_index, rec.trial_index)
    if jobs == 1:
        # one stacked first draw per chunk of consecutive keys, across points,
        # then one stacked redraw per attempt that still has degenerate keys:
        # those whose earlier draws were all degenerate
        size = chunk or expharness.CHUNK_TRIALS
        want = []
        for start in range(0, len(singles), size):
            chunk_singles = singles[start : start + size]
            want.append(len(chunk_singles))
            for attempt in range(1, spec.max_retries):
                if redraws := sum(r.retries >= attempt for r in chunk_singles):
                    want.append(redraws)
        assert stacks == want
    assert not expharness._ready


@pytest.mark.parametrize(
    "jobs, cpus, trials, workers, size",
    [
        (10**6, 3, 12, 3, 2),  # capped at the CPU count; four chunks a worker
        (10**6, None, 12, 1, 6),  # an unknown CPU count is one
        (2, 8, 12, 2, 3),
        (4, 64, 1, 2, 1),  # capped at the chunk count
    ],
)
def test_a_pool_starts_no_more_workers_than_cpus_or_chunks(
    monkeypatch, jobs, cpus, trials, workers, size
):
    pools = []

    class InlinePool:
        """Stands in for ProcessPoolExecutor: keeps max_workers and the
        chunks, and runs them in this process."""

        def __init__(self, max_workers):
            self.max_workers, self.chunks = max_workers, []
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            self.chunks = list(chunks)
            return map(fn, self.chunks)

    spec = dataclasses.replace(TINY_UNIQ, trials=trials)
    serial = sweep_uniqueness(spec).records
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(expharness.os, "cpu_count", lambda: cpus)
    records = sweep_uniqueness(spec, jobs=jobs).records
    [pool] = pools
    assert pool.max_workers == workers
    assert [len(c) for c in pool.chunks[:-1]] == [size] * (len(pool.chunks) - 1)
    assert sum(map(len, pool.chunks)) == len(serial) and len(pool.chunks[-1]) <= size
    for rec, single in zip(records, serial, strict=True):
        assert same_record(rec, single), (rec.point_index, rec.trial_index)
