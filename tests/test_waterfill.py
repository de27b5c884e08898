import dataclasses
import warnings

import numpy as np
import pytest

from mimoiwf.waterfill import (
    best_responses,
    greedy_profile,
    random_profile,
    split_budgets,
    stream_floors,
    sum_rate,
    uniform_profile,
    user_rates,
    validate_profile,
    water_level,
)

from mimoiwf.netmodel import (
    NetworkConfig,
    default_rngs,
    sample_channels,
    seed_words,
)
from mimoiwf.precode import build_effective_network

from oracles import (
    RAGGED,
    bisect_water_level,
    bisect_water_level_batch,
    explicit_net,
    kkt_water_allocation,
    noise_floor,
    num_streams,
    ragged_net,
    reference_best_response,
    reference_random_profile,
    reference_water_fill,
)


def test_water_level_three_floors():
    res = water_level(np.array([1.0, 2.0, 4.0]), 3.0)
    assert res.water_level == pytest.approx(3.0, abs=1e-12)
    np.testing.assert_allclose(res.powers, [2.0, 1.0, 0.0], atol=1e-12)


def test_water_level_single_floor():
    res = water_level(np.array([0.5]), 2.0)
    assert res.water_level == pytest.approx(2.5, abs=1e-12)
    np.testing.assert_allclose(res.powers, [2.0], atol=1e-12)


def test_water_level_excludes_high_floor():
    res = water_level(np.array([1.0, 10.0]), 2.0)
    np.testing.assert_allclose(res.powers, [2.0, 0.0], atol=1e-12)
    assert res.water_level == pytest.approx(3.0, abs=1e-12)


def test_water_level_budget_always_binds():
    rng = np.random.default_rng(8)
    for _ in range(300):
        n = rng.integers(1, 9)
        c = 10.0 ** rng.uniform(-3, 3, n)
        budget = float(10.0 ** rng.uniform(-2, 2))
        res = water_level(c, budget)
        assert res.powers.sum() == pytest.approx(budget, rel=1e-12, abs=1e-12)
        assert np.all(res.powers >= 0)


def test_water_level_matches_bisection():
    rng = np.random.default_rng(42)
    for _ in range(500):
        n = rng.integers(1, 9)
        c = 10.0 ** rng.uniform(-3, 3, n)
        budget = float(10.0 ** rng.uniform(-2, 2))
        res = water_level(c, budget)
        mu_ref = bisect_water_level(c, budget)
        assert res.water_level == pytest.approx(mu_ref, abs=1e-9 * max(1, mu_ref))
        np.testing.assert_allclose(res.powers, np.maximum(mu_ref - c, 0), atol=1e-9)


def test_water_level_matches_active_set_enumeration():
    rng = np.random.default_rng(123)
    for _ in range(200):
        n = rng.integers(1, 7)
        c = 10.0 ** rng.uniform(-2, 2, n)
        budget = float(10.0 ** rng.uniform(-1, 1))
        res = water_level(c, budget)
        p_ref, mu_ref = kkt_water_allocation(c, budget)
        np.testing.assert_allclose(res.powers, p_ref, atol=1e-9)
        assert res.water_level == pytest.approx(mu_ref, rel=1e-12)


def test_water_level_edge_cases_match_the_oracles():
    inf = np.inf
    wide = [1e-300, 1e-100, 1.0, 1e100, 1e200, 1e300]
    floors = [
        [0.5, 0.5, 0.5, 2.0, 2.0, inf],  # tied floors
        [1.0] * 6,
        [1.0, 3.0, 3.0, 5.0, inf, inf],  # the second floor ties the first level
        [inf, inf, 0.7, inf, inf, inf],  # one finite floor among +inf
        wide,
        wide,
        wide,
        wide,
        [1.0, 2.0, inf, inf, inf, inf],  # budget lost in the rounding of 1.0
    ]
    budgets = [1.0, 3.0, 2.0, 2.0, 1e-300, 1.0, 1e150, 1e300, 1e-17]
    # powers sum to the budget up to the rounding of the water level, so a
    # random budget stays within two decades below its row's lowest floor
    rng = np.random.default_rng(2024)
    for _ in range(12):
        row = 10.0 ** rng.uniform(-300, 300, 6)
        row[rng.random(6) < 0.3] = inf
        row[rng.integers(6)] = 10.0 ** rng.uniform(-300, 300)
        floors.append(row.tolist())
        budgets.append(float(row.min() * 10.0 ** rng.uniform(-2, 6)))
    floors, budgets = np.array(floors), np.array(budgets)
    res = water_level(floors, budgets)
    assert np.isfinite(res.powers).all() and (res.powers >= 0).all()
    lost = 8
    np.testing.assert_array_equal(res.powers[lost], 0.0)
    kept = np.arange(len(budgets)) != lost
    np.testing.assert_allclose(res.powers[kept].sum(axis=1), budgets[kept], rtol=1e-12, atol=0)
    for c, budget, powers, mu in zip(
        floors[kept], budgets[kept], res.powers[kept], res.water_level[kept]
    ):
        finite = c < inf
        np.testing.assert_allclose(
            powers[finite], reference_water_fill(c[finite], budget), rtol=0, atol=1e-12 * budget
        )
        assert mu == pytest.approx(bisect_water_level(c[finite], budget, iters=2200), rel=1e-12)


def test_water_level_rejects_bad_input():
    with pytest.raises(ValueError):
        water_level(np.array([]), 1.0)
    with pytest.raises(ValueError):
        water_level(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        water_level(np.array([np.inf]), 1.0)


def test_batch_rows_match_single_problems():
    rng = np.random.default_rng(31)
    floors = rng.uniform(0.01, 5.0, size=(6, 4))
    floors[2, 3:] = np.inf  # shorter problems are padded with +inf floors
    floors[4, 1:] = np.inf
    budgets = rng.uniform(0.5, 10.0, size=6)
    batch = water_level(floors, budgets)
    assert batch.powers.shape == (6, 4) and batch.water_level.shape == (6,)
    for q in range(6):
        n = int(np.isfinite(floors[q]).sum())
        row = water_level(floors[q, :n], float(budgets[q]))
        np.testing.assert_array_equal(batch.powers[q, :n], row.powers)
        np.testing.assert_array_equal(batch.powers[q, n:], 0.0)
        assert batch.water_level[q] == row.water_level
        np.testing.assert_array_equal(row.powers, reference_water_fill(floors[q, :n], budgets[q]))


def test_batch_rejects_bad_rows():
    good = np.array([[1.0, 2.0], [0.5, np.inf]])
    water_level(good, np.array([1.0, 2.0]))
    for bad in (
        np.array([[1.0, np.nan], [0.5, np.inf]]),
        np.array([[1.0, 2.0], [np.inf, np.inf]]),
        np.array([[1.0, -2.0], [0.5, np.inf]]),
        np.array([[1.0, 2.0], [-np.inf, np.inf]]),
    ):
        with pytest.raises(ValueError, match="floors"):
            water_level(bad, np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="budget"):
        water_level(good, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="budget"):
        water_level(good, np.array([np.nan, 1.0]))


def test_budget_shape_must_fit_the_rows():
    with pytest.raises(ValueError, match=r"budget of shape \(3,\).*floors of shape \(2, 2\)"):
        water_level(np.ones((2, 2)), np.ones(3))
    with pytest.raises(ValueError, match=r"budget of shape \(2, 1\).*floors of shape \(2, 2\)"):
        water_level(np.ones((2, 2)), np.ones((2, 1)))
    with pytest.raises(ValueError, match=r"budget of shape \(2,\).*floors of shape \(3,\)"):
        water_level(np.ones(3), np.ones(2))
    # a scalar fits any batch, and a one-entry vector fits a single problem
    np.testing.assert_array_equal(water_level(np.ones((2, 2)), 2.0).powers, 1.0)
    np.testing.assert_array_equal(water_level(np.ones(2), np.array([2.0])).powers, 1.0)


FLOOR_MESSAGE = "floors must be nonnegative, with a finite floor in every row"


@pytest.mark.parametrize(
    "floors, budget, message",
    [
        (np.array([1.0, 2.0]), np.inf, "budget must be positive and finite, got inf"),
        (np.array([[1.0, 2.0], [0.5, np.inf]]), np.array([1.0, np.inf]), "budget must be"),
        (np.array([1.0, 2.0]), -1.0, "budget must be positive and finite, got -1.0"),
        (np.array([[1.0, 2.0], [0.5, np.inf]]), np.array([1.0, -2.0]), "budget must be"),
        # the NaN sits where water-filling would put no power
        (np.array([0.1, 5.0, np.nan]), 1.0, FLOOR_MESSAGE),
        (np.array([[0.1, 5.0, np.nan], [0.5, 1.0, np.inf]]), np.array([1.0, 1.0]), FLOOR_MESSAGE),
        (np.array([[0.1, 0.2, np.inf], [0.5, np.nan, np.inf]]), np.array([1.0, 1.0]), FLOOR_MESSAGE),
        (np.array([[0.1, -np.inf], [0.5, np.inf]]), np.array([1.0, 1.0]), FLOOR_MESSAGE),
    ],
)
def test_bad_input_raises_value_error_with_warnings_as_errors(floors, budget, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            water_level(floors, budget)
    assert str(err.value).startswith(message)


def test_ragged_batches_raise_no_floating_point_warning():
    rng = np.random.default_rng(12)
    with np.errstate(all="raise"):
        for _ in range(300):
            rows, size = rng.integers(1, 6), rng.integers(1, 6)
            floors = 10.0 ** rng.uniform(-4, 4, (rows, size))
            floors[:, 1:][rng.random((rows, size - 1)) < 0.5] = np.inf
            budgets = 10.0 ** rng.uniform(-4, 4, rows)
            res = water_level(floors, budgets)
            assert np.isfinite(res.powers).all() and (res.powers >= 0).all()
        # a budget lost in the rounding of the lowest floor gives no power,
        # not the padding's infinite level
        res = water_level(np.array([[1.0, np.inf], [1.0, 2.0]]), np.array([1e-300, 1.0]))
        np.testing.assert_array_equal(res.powers, [[0.0, 0.0], [1.0, 0.0]])


def test_random_profile_matches_one_draw_per_user():
    cfg = NetworkConfig(
        num_users=4,
        tx_antennas=(2, 3, 1, 4),
        rx_antennas=(2, 3, 1, 4),
        power_budget=(1.0, 10.0, 0.5, 1e6),
        noise_power=(1.0,) * 4,
        direct_distance=(15.0,) * 4,
        cross_distance=tuple((15.0,) * 4 for _ in range(4)),
        pathloss_exponent=2.5,
    )
    for seed in range(250):
        got = random_profile(cfg, np.random.default_rng(seed))
        want = reference_random_profile(cfg, np.random.default_rng(seed))
        assert got.shape == (10,)
        np.testing.assert_array_equal(got, np.concatenate(want))
    # the generator is left where the per-user draws leave it
    rng, ref = np.random.default_rng(1), np.random.default_rng(1)
    random_profile(cfg, rng)
    reference_random_profile(cfg, ref)
    assert rng.random() == ref.random()


# a user of 11 antennas, whose weight sum numpy adds pairwise, beside one of 3
WIDE = NetworkConfig(
    num_users=2,
    tx_antennas=(11, 3),
    rx_antennas=(11, 3),
    power_budget=(7.0, 0.3),
    noise_power=(1.0, 1.0),
    direct_distance=(15.0, 15.0),
    cross_distance=((15.0, 30.0), (30.0, 15.0)),
    pathloss_exponent=2.5,
)


@pytest.mark.parametrize("config", [RAGGED, WIDE], ids=["ragged", "wide"])
def test_stacked_random_starts_match_one_generator_each(config):
    # a sweep chunk draws its random starts as one stack of rows, each from its
    # own generator and split under its own config's budgets, as a budget
    # sweep's chunk spans points
    budgets = tuple(10.0 * b for b in config.power_budget)
    configs = [config, dataclasses.replace(config, power_budget=budgets)] * 21
    seeds = [0, 2**32 - 1, *seed_words(range(40), 1)[:, 0].tolist()]
    n = sum(config.tx_antennas)
    weights = np.empty((len(seeds), n))
    for rng, row in zip(default_rngs(seeds), weights):
        rng.random(out=row)
    starts = split_budgets(weights, configs)
    for start, cfg, seed in zip(starts, configs, seeds):
        want = reference_random_profile(cfg, np.random.default_rng(seed))
        np.testing.assert_array_equal(start, np.concatenate(want))


def shipped_net(seed):
    """A draw of the configs/network.json geometry."""
    cfg = NetworkConfig(4, 2, 2, 10.0, 1.0, 15.0, 37.7, 2.5)
    return build_effective_network(sample_channels(cfg, seed), cfg)


def tx_over_rx_net(seed):
    """Three users with three transmit antennas and two streams each."""
    cfg = NetworkConfig(3, 3, 2, 100.0, 1.0, 15.0, 25.0, 2.5)
    return build_effective_network(sample_channels(cfg, seed), cfg)


@pytest.mark.parametrize("make_net", [shipped_net, ragged_net, tx_over_rx_net])
def test_the_step_core_equals_the_checked_water_level_bit_for_bit(make_net):
    for seed in range(4):
        net = make_net(seed)
        cfg, layout = net.config, net.config.layout
        rng = np.random.default_rng(seed)
        stale = np.stack([random_profile(cfg, rng) for _ in range(cfg.num_users)])
        for views in (uniform_profile(cfg), greedy_profile(cfg), random_profile(cfg, rng), stale):
            got = best_responses(net, views)
            want = water_level(stream_floors(net, views), layout.budget).powers
            want = want[layout.stream_index >= 0]
            assert got.shape == want.shape == (layout.offsets[-1],)
            assert got.tobytes() == want.tobytes()


def test_best_response_is_a_row_of_the_batched_step():
    for seed in range(4):
        net = ragged_net(seed)
        rng = np.random.default_rng(seed)
        x = random_profile(net.config, rng)
        floors = stream_floors(net, x)
        batch = best_responses(net, x)
        rates = user_rates(net, x)
        for q in range(3):
            start, streams = net.config.layout.offsets[q], num_streams(net, q)
            block = slice(start, net.config.layout.offsets[q + 1])
            own = noise_floor(net, q) + net.coupling[start : start + streams] @ x
            np.testing.assert_allclose(floors[q, :streams], own, rtol=1e-14)
            np.testing.assert_array_equal(floors[q, streams:], np.inf)
            np.testing.assert_allclose(
                batch[block], reference_best_response(net, x, q), rtol=1e-12, atol=1e-12
            )
            rate = np.log2(1.0 + x[start : start + streams] / floors[q, :streams]).sum()
            assert rates[q] == pytest.approx(rate, rel=1e-14)
        # per-user views: row q of the result only depends on row q of the views
        views = np.stack([random_profile(net.config, rng) for _ in range(3)])
        stale = stream_floors(net, views)
        for q in range(3):
            np.testing.assert_allclose(stale[q], stream_floors(net, views[q])[q], rtol=1e-14)


def test_allocation_is_rate_optimal():
    # no feasible split may beat water-filling for the same budget
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = rng.integers(2, 6)
        c = 10.0 ** rng.uniform(-1, 1, n)
        budget = 5.0
        res = water_level(c, budget)
        best = np.log2(1.0 + res.powers / c).sum()
        for _ in range(40):
            w = rng.random(n)
            alt = budget * w / w.sum()
            assert np.log2(1.0 + alt / c).sum() <= best + 1e-9


def test_raising_a_floor_never_raises_its_power():
    c = np.array([0.5, 1.0, 2.0])
    base = water_level(c, 4.0).powers
    for bump in (0.1, 0.5, 2.0):
        c2 = c.copy()
        c2[1] += bump
        moved = water_level(c2, 4.0).powers
        assert moved[1] <= base[1] + 1e-12


def test_no_interference_best_response():
    net = explicit_net([np.diag([3.0, 1.0])], {}, [10.0], [1.0])
    x = uniform_profile(net.config)
    c = stream_floors(net, x)[0]
    np.testing.assert_allclose(c, [1.0 / 9.0, 1.0], atol=1e-12)
    br = best_responses(net, x)
    np.testing.assert_allclose(br, [49.0 / 9.0, 41.0 / 9.0], atol=1e-10)
    np.testing.assert_allclose(br, reference_best_response(net, x, 0), atol=1e-12)


def test_best_response_pads_unused_antennas():
    # 4 tx antennas but rank-2 direct link: trailing antennas stay silent
    rng = np.random.default_rng(17)
    direct = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    cross = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    net = explicit_net(
        [direct, direct[:, [1, 0, 2, 3]]],
        {(0, 1): cross, (1, 0): cross[:, ::-1]},
        [10.0, 10.0],
        [1.0, 1.0],
    )
    x = uniform_profile(net.config)
    assert x.shape == (8,)
    both = best_responses(net, x)
    assert both.shape == (8,)
    for q in range(2):
        br = both[4 * q : 4 * q + 4]
        np.testing.assert_array_equal(br[2:], 0.0)
        assert br.sum() == pytest.approx(10.0, rel=1e-12)
        np.testing.assert_allclose(
            br[:2], water_level(stream_floors(net, x)[q, :2], 10.0).powers, atol=1e-12
        )
        np.testing.assert_allclose(br, reference_best_response(net, x, q), atol=1e-12)


def test_interference_adds_to_noise_floor():
    a, b = 0.3, 0.7
    net = explicit_net(
        [np.eye(1), np.eye(1)],
        {(1, 0): np.array([[np.sqrt(a)]]), (0, 1): np.array([[np.sqrt(b)]])},
        [2.0, 3.0],
        [1.0, 1.0],
    )
    x = np.array([2.0, 3.0])
    np.testing.assert_allclose(
        stream_floors(net, x), [[1.0 + a * 3.0], [1.0 + b * 2.0]], atol=1e-12
    )


def test_user_rate_values():
    # singular values 1, 1/sqrt(2), 1/2 over unit noise give floors 1, 2, 4
    net = explicit_net([np.diag([1.0, 0.5**0.5, 0.5])], {}, [10.0], [1.0])
    x = np.array([2.0, 1.0, 0.0])
    np.testing.assert_allclose(stream_floors(net, x), [[1.0, 2.0, 4.0]], rtol=1e-12)
    rates = user_rates(net, x)
    assert rates.shape == (1,)
    assert rates[0] == pytest.approx(np.log2(3.0) + np.log2(1.5), rel=1e-12)
    assert rates[0] == pytest.approx(2.1699, abs=1e-4)
    assert user_rates(net, np.zeros(3))[0] == 0.0


def test_sum_rate_adds_user_rates():
    net = explicit_net(
        [np.eye(1), np.eye(1)],
        {(1, 0): np.array([[0.5]]), (0, 1): np.array([[0.5]])},
        [2.0, 2.0],
        [1.0, 1.0],
    )
    expected = 2 * np.log2(1.0 + 2.0 / (1.0 + 0.25 * 2.0))
    assert sum_rate(net, np.array([2.0, 2.0])) == pytest.approx(expected, rel=1e-12)


def test_profile_builders_are_feasible():
    net = explicit_net(
        [np.diag([2.0, 1.0]), np.diag([2.0, 1.0])],
        {},
        [10.0, 4.0],
        [1.0, 1.0],
    )
    cfg = net.config
    rng = np.random.default_rng(3)
    for x in (uniform_profile(cfg), greedy_profile(cfg), random_profile(cfg, rng)):
        assert validate_profile(x, cfg) is x
        assert x.shape == (4,)
        np.testing.assert_allclose(x.reshape(2, 2).sum(axis=1), cfg.power_budget, rtol=1e-12)
    np.testing.assert_array_equal(uniform_profile(cfg), [5.0, 5.0, 2.0, 2.0])
    np.testing.assert_array_equal(greedy_profile(cfg), [10.0, 0.0, 4.0, 0.0])


def test_validate_profile_rejects_violations():
    net = explicit_net([np.eye(2)], {}, [5.0], [1.0])
    cfg = net.config
    with pytest.raises(ValueError, match="budget"):
        validate_profile(np.array([5.0, 1.0]), cfg)
    with pytest.raises(ValueError, match="negative"):
        validate_profile(np.array([-0.1, 1.0]), cfg)
    with pytest.raises(ValueError, match="user 0 has a negative or NaN power entry"):
        validate_profile(np.array([np.nan, 1.0]), cfg)
    with pytest.raises(ValueError, match=r"shape \(1,\), expected \(2,\)"):
        validate_profile(np.array([1.0]), cfg)
    with pytest.raises(ValueError, match=r"shape \(0,\)"):
        validate_profile(np.array([]), cfg)
    with pytest.raises(ValueError, match=r"shape \(1, 2\)"):
        validate_profile(np.ones((1, 2)), cfg)


def test_validate_profile_names_the_first_offender():
    cfg = NetworkConfig(3, 2, 2, 5.0, 1.0, 15.0, 30.0, 2.5)
    ok = np.array([2.0, 3.0] * 3)
    for q in (1, 2):
        x = ok.copy()
        x[2 * q] = 3.0
        with pytest.raises(ValueError, match=f"user {q} exceeds its power budget: 6.0 > 5.0"):
            validate_profile(x, cfg)
    with pytest.raises(ValueError, match="user 1 has a negative"):
        validate_profile(np.array([2.0, 3.0, -1.0, 1.0, 9.0, 9.0]), cfg)
    with pytest.raises(ValueError, match="user 0 exceeds"):
        validate_profile(np.array([9.0, 9.0, -1.0, 1.0, 2.0, 3.0]), cfg)
    with pytest.raises(ValueError, match=r"profile has shape \(7,\), expected \(6,\)"):
        validate_profile(np.ones(7), cfg)


def test_a_nan_entry_of_any_user_is_refused():
    cfg = NetworkConfig(
        num_users=3,
        tx_antennas=(2, 2, 2),
        rx_antennas=(2, 2, 2),
        power_budget=(5.0, 5.0, 5.0),
        noise_power=(1.0, 1.0, 1.0),
        direct_distance=(15.0, 15.0, 15.0),
        cross_distance=((15.0, 30.0, 30.0), (30.0, 15.0, 30.0), (30.0, 30.0, 15.0)),
        pathloss_exponent=2.5,
    )
    for k in range(6):
        x = np.ones(6)
        x[k] = np.nan
        with pytest.raises(ValueError, match=f"user {k // 2} has a negative or NaN power entry"):
            validate_profile(x, cfg)


def test_budget_tolerance_is_relative_to_the_budget():
    # a full split rounds up to one ulp over the budget at 80 and 90 dB
    for budget in (1e8, 1e9):
        cfg = NetworkConfig(4, 2, 2, budget, 1.0, 15.0, 30.0, 2.5)
        over = np.array([np.nextafter(budget, np.inf), 0.0] * 4)
        validate_profile(over, cfg)
        rng = np.random.default_rng(0)
        for _ in range(50):
            validate_profile(random_profile(cfg, rng), cfg)
        with pytest.raises(ValueError, match="user 0 exceeds its power budget"):
            validate_profile(np.array([1.001 * budget, 0.0] * 4), cfg)
    # below a budget of one the tolerance stays absolute
    cfg = NetworkConfig(1, 2, 2, 1e-3, 1.0, 15.0, 15.0, 2.5)
    with pytest.raises(ValueError, match="budget"):
        validate_profile(np.array([1e-3 + 1e-8, 0.0]), cfg)


def _error_message(floors, budget):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            water_level(floors, budget)
    return str(err.value)


@pytest.mark.parametrize(
    "row",
    [
        [0.5, np.nan, 2.0],
        [np.nan, np.nan, np.nan],
        [np.inf, np.inf, np.inf],
        [0.5, -np.inf, 2.0],
        [0.5, -1e-300, 2.0],
    ],
    ids=["nan_slot", "all_nan", "all_inf", "minus_inf", "negative"],
)
def test_each_bad_floor_row_gives_the_floor_message_alone_and_in_a_batch(row):
    row = np.array(row)
    assert _error_message(row, 1.0) == FLOOR_MESSAGE
    for batch in (np.stack([[1.0, 2.0, np.inf], row]), np.stack([row, [1.0, 2.0, np.inf]])):
        assert _error_message(batch, np.array([1.0, 1.0])) == FLOOR_MESSAGE
    # the floors are checked before the budget
    assert _error_message(row, np.nan) == FLOOR_MESSAGE


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -2.0])
def test_each_bad_budget_gives_the_budget_message_alone_and_in_a_batch(bad):
    assert _error_message(np.array([1.0, 2.0]), bad) == f"budget must be positive and finite, got {bad!r}"
    floors = np.array([[1.0, 2.0], [0.5, np.inf]])
    for budgets in (np.array([1.0, bad]), np.array([bad, 1.0]), np.array(bad)):
        assert _error_message(floors, budgets) == f"budget must be positive and finite, got {budgets!r}"


@pytest.mark.parametrize(
    "floors, budget",
    [
        (np.ones(3), np.ones(2)),
        (np.ones(3), np.ones((1, 1))),
        (np.ones((2, 3)), np.ones(3)),
        (np.ones((2, 3)), np.ones((2, 1))),
    ],
)
def test_a_budget_of_the_wrong_shape_is_named_with_both_shapes(floors, budget):
    message = f"budget of shape {budget.shape} does not fit floors of shape {floors.shape}"
    assert _error_message(floors, budget) == message
    # the shape is checked before the values
    assert _error_message(floors, np.full(budget.shape, np.nan)) == message


@pytest.mark.parametrize("floors", [np.array([]), np.ones((0, 2)), np.ones((2, 0)), np.ones((1, 1, 1))])
def test_empty_or_deep_floors_are_refused(floors):
    message = f"floors must be a non-empty vector or (Q, S) array, got {floors.shape}"
    assert _error_message(floors, 1.0) == message


def test_finite_floors_and_budgets_whose_sum_overflows_are_accepted():
    big = np.finfo(float).max / 1.5
    with np.errstate(all="raise"):
        res = water_level(np.array([[1.0, big], [1.0, big], [2.0, big]]), 1.0)
        np.testing.assert_array_equal(res.powers, [[1.0, 0.0]] * 3)
        res = water_level(np.array([[1.0, np.inf], [1.0, np.inf]]), np.array([big, big]))
        np.testing.assert_array_equal(res.powers[:, 0], [big, big])
        np.testing.assert_array_equal(res.water_level, [big + 1.0, big + 1.0])


def test_floors_whose_prefix_sum_overflows_warn_nothing():
    # 1e308 + 1.5e308 is inf: numpy's overflow warning used to leak out,
    # while the minimum passed over that level; tier-1 makes it an error
    res = water_level(np.array([1e308, 1.5e308]), 1.0)
    np.testing.assert_array_equal(res.powers, [0.0, 0.0])
    assert res.water_level == 1e308
    res = water_level(np.array([[1e308, 1.5e308], [1.0, 2.0]]), np.array([1.0, 1.0]))
    np.testing.assert_array_equal(res.powers, [[0.0, 0.0], [1.0, 0.0]])
    np.testing.assert_array_equal(res.water_level, [1e308, 2.0])


def test_a_budget_plus_floors_past_the_largest_float_fills_at_the_true_level():
    # 1.7e308 + 1.0 + 1e308 passes the largest float: that prefix level used
    # to be inf, and the minimum took the first one, for powers [7e307,
    # 1.7e308] that overspend; the row is solved on floors and budget scaled
    # by 1/4, and the row beside it keeps its bits
    floors = np.array([[1e308, 1.0], [1.0, 2.0]])
    budgets = np.array([1.7e308, 1.0])
    res = water_level(floors, budgets)
    want = 4.0 * bisect_water_level_batch(floors[:1] / 4.0, budgets[:1] / 4.0)
    np.testing.assert_allclose(res.water_level[:1], want, rtol=1e-12)
    np.testing.assert_allclose(res.water_level[0], 1.35e308, rtol=1e-12)
    np.testing.assert_allclose(res.powers.sum(axis=1), budgets, rtol=1e-12)
    alone = water_level(floors[1], budgets[1])
    assert res.water_level[1] == alone.water_level
    np.testing.assert_array_equal(res.powers[1], alone.powers)
    row = water_level(floors[0], budgets[0])
    assert row.water_level == res.water_level[0]
    np.testing.assert_array_equal(row.powers, res.powers[0])
    # a scalar budget broadcast over the rows scales the spilling row alone
    scalar = water_level(floors, 1.7e308)
    assert scalar.water_level[0] == res.water_level[0]
    np.testing.assert_array_equal(scalar.powers[0], res.powers[0])
    alone = water_level(floors[1], 1.7e308)
    assert scalar.water_level[1] == alone.water_level
    np.testing.assert_array_equal(scalar.powers[1], alone.powers)


def test_a_water_level_past_the_largest_float_is_refused():
    # the level 2e308 used to give powers [inf, nan] and numpy's warning
    for floors, budget in (
        (np.array([1e308, np.inf]), 1e308),
        (np.array([[1.0, 2.0], [1e308, np.inf]]), np.array([1.0, 1e308])),
    ):
        with pytest.raises(ValueError, match="float overflow: the water level"):
            water_level(floors, budget)


def test_batch_equals_the_sort_cumsum_min_formula_bit_for_bit():
    rng = np.random.default_rng(77)
    for size in range(1, 7):
        floors = 10.0 ** rng.uniform(-4, 4, (50, size))
        floors[:, 1:][rng.random((50, size - 1)) < 0.3] = np.inf
        budgets = 10.0 ** rng.uniform(-3, 3, 50)
        order = np.sort(floors, axis=1)
        levels = (np.cumsum(order, axis=1) + budgets[:, None]) / np.arange(1.0, size + 1)
        mu = levels.min(axis=1)
        want = np.maximum(mu[:, None] - floors, 0.0)
        kept = floors.copy()
        res = water_level(floors, budgets)
        np.testing.assert_array_equal(floors, kept)  # the caller's floors are not sorted
        np.testing.assert_array_equal(res.powers, want)
        np.testing.assert_array_equal(res.water_level, mu)
        for q in range(0, 50, 7):
            row = water_level(floors[q], budgets[q])
            np.testing.assert_array_equal(row.powers, want[q])
            assert row.water_level == mu[q] and type(row.water_level) is float
