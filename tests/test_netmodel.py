import dataclasses
import pickle

import numpy as np
import pytest

import mimoiwf
from mimoiwf import netmodel
from mimoiwf.netmodel import (
    ChannelRealization,
    ConfigError,
    NetworkConfig,
    default_rngs,
    sample_channels,
    seed_words,
    validate_config,
)

from oracles import link_matrices, ragged_net, reference_sample_channels


def small_config(**overrides):
    kwargs = dict(
        num_users=2,
        tx_antennas=(2, 2),
        rx_antennas=(2, 2),
        power_budget=(10.0, 10.0),
        noise_power=(1.0, 1.0),
        direct_distance=(15.0, 15.0),
        cross_distance=((15.0, 40.0), (40.0, 15.0)),
        pathloss_exponent=2.5,
    )
    kwargs.update(overrides)
    return NetworkConfig(**kwargs)


def test_validate_accepts_consistent_config():
    cfg = small_config()
    assert validate_config(cfg) is cfg


@pytest.mark.parametrize(
    "overrides, field",
    [
        (dict(num_users=0), "num_users"),
        (dict(tx_antennas=(2,)), "tx_antennas"),
        (dict(tx_antennas=(0, 2)), "tx_antennas"),
        (dict(rx_antennas=(2, -1)), "rx_antennas"),
        (dict(power_budget=(10.0, 0.0)), "power_budget"),
        (dict(power_budget=(10.0, float("inf"))), "power_budget"),
        (dict(noise_power=(0.0, 1.0)), "noise_power"),
        (dict(direct_distance=(15.0, -3.0)), "direct_distance"),
        (dict(cross_distance=((15.0, 40.0),)), "cross_distance"),
        (dict(cross_distance=((15.0, 0.0), (40.0, 15.0))), "cross_distance"),
        (dict(cross_distance=((14.0, 40.0), (40.0, 15.0))), "cross_distance"),
        (dict(pathloss_exponent=-2.5), "pathloss_exponent"),
        # a bool, a string or None is not a number, and is refused by name
        (dict(power_budget=(True, 10.0)), "power_budget"),
        (dict(noise_power=(1.0, None)), "noise_power"),
        (dict(direct_distance=("15", 15.0)), "direct_distance"),
        (dict(cross_distance=((15.0, True), (40.0, 15.0))), "cross_distance"),
        (dict(pathloss_exponent=True), "pathloss_exponent"),
    ],
)
def test_validate_rejects_and_names_field(overrides, field):
    with pytest.raises(ConfigError, match=field):
        validate_config(small_config(**overrides))


def test_list_fields_are_stored_as_tuples():
    lists = small_config(
        tx_antennas=[2, 2],
        power_budget=np.array([10.0, 10.0]),
        cross_distance=[[15.0, 40.0], (40.0, 15.0)],
    )
    assert lists == small_config()
    assert hash(lists) == hash(small_config())
    assert isinstance(lists.cross_distance[0], tuple)
    with pytest.raises(AttributeError):
        lists.tx_antennas.append(5)
    np.testing.assert_array_equal(
        sample_channels(lists, 3).links, sample_channels(small_config(), 3).links
    )


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: small_config(num_users=True, tx_antennas=(2,), rx_antennas=(2,)), "num_users"),
        (lambda: small_config(tx_antennas=(True, 2)), r"tx_antennas\[0\]"),
        (lambda: small_config(rx_antennas=(2, True)), r"rx_antennas\[1\]"),
        (lambda: NetworkConfig(True, 2, 2, 10.0, 1.0, 15.0, 40.0, 2.5), "num_users"),
        (lambda: NetworkConfig(2, True, 2, 10.0, 1.0, 15.0, 40.0, 2.5), "tx_antennas"),
    ],
    ids=["num_users", "tx_antennas", "rx_antennas", "symmetric_users", "symmetric_tx"],
)
def test_bool_counts_are_refused(build, field):
    with pytest.raises(ConfigError, match=field):
        build()


def test_numpy_integer_counts_are_accepted():
    cfg = small_config(
        num_users=np.int64(2), tx_antennas=(np.int64(2), 2), rx_antennas=(2, np.int32(2))
    )
    assert cfg == small_config()
    links = sample_channels(cfg, 3).links
    np.testing.assert_array_equal(links, sample_channels(small_config(), 3).links)


def test_symmetric_config_does_not_coerce():
    # float() used to turn these into 15.0 and 1.0 before the check
    for bad in ("15", True):
        with pytest.raises(ConfigError, match=rf"power_budget\[0\] .* got {bad!r}"):
            NetworkConfig(2, 2, 2, bad, 1.0, 15.0, 40.0, 2.5)
        with pytest.raises(ConfigError, match=rf"direct_distance\[0\] .* got {bad!r}"):
            NetworkConfig(2, 2, 2, 10.0, 1.0, bad, 40.0, 2.5)


SEQUENCE = "must be a sequence, one entry per user, got"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: small_config(cross_distance=(40.0, 15.0)), f"cross_distance[0] {SEQUENCE} 40.0"),
        (
            lambda: NetworkConfig("3", 2, 2, 10.0, 1.0, 15.0, 40.0, 2.5),
            "num_users must be an integer >= 1, got '3'",
        ),
        (
            lambda: NetworkConfig(2.0, 2, 2, 10.0, 1.0, 15.0, 40.0, 2.5),
            "num_users must be an integer >= 1, got 2.0",
        ),
    ],
    ids=["flat_matrix", "string_users", "float_users"],
)
def test_a_value_that_is_not_a_sequence_is_named(build, message):
    # these used to raise a raw TypeError from tuple() or from (x,) * "3"
    with pytest.raises(ConfigError) as err:
        build()
    assert str(err.value) == message


def test_a_scalar_is_one_value_for_every_user():
    scalars = NetworkConfig(2, 2, 2, 10.0, 1.0, 15.0, 40.0, 2.5)
    assert scalars == small_config()
    assert hash(scalars) == hash(small_config())
    shared = ("link_mask", "svd_groups", "is_stream", "offsets", "coupling_index")
    for name in shared:
        assert getattr(scalars.layout, name) is getattr(small_config().layout, name), name
    # replace builds anew, so a scalar there broadcasts too
    assert dataclasses.replace(scalars, power_budget=5.0).power_budget == (5.0, 5.0)
    # a string, None or a mapping is one value, named whole by the type checks
    for bad in ("10", None, {"a": 1}):
        with pytest.raises(ConfigError) as err:
            small_config(power_budget=bad)
        assert str(err.value) == f"power_budget[0] must be a positive finite number, got {bad!r}"


HUGE = 10**400  # an int that passes "< inf" but cannot become a float


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: NetworkConfig(2, 2, 2, HUGE, 1.0, 15.0, 40.0, 2.5),
            f"power_budget[0] must be a positive finite number, got {HUGE!r}",
        ),
        (
            lambda: NetworkConfig(2, 2, 2, 10.0, HUGE, 15.0, 40.0, 2.5),
            f"noise_power[0] must be a positive finite number, got {HUGE!r}",
        ),
        (
            lambda: NetworkConfig(2, 2, 2, 10.0, 1.0, 15.0, HUGE, 2.5),
            f"cross_distance[0][1] must be a positive finite number, got {HUGE!r}",
        ),
        (
            lambda: NetworkConfig(2, 2, 2, 10.0, 1.0, 15.0, 40.0, HUGE),
            f"pathloss_exponent must be a nonnegative finite number, got {HUGE!r}",
        ),
    ],
    ids=["budget", "noise", "cross", "exponent"],
)
def test_an_int_too_large_for_a_float_is_refused_when_built(build, message):
    # the config used to build, and its layout then raised OverflowError
    with pytest.raises(ConfigError) as err:
        build()
    assert str(err.value) == message


OVERFLOW = "with pathloss_exponent {} gives a path-loss gain too large for a float"


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: NetworkConfig(2, 2, 2, 1.0, 1.0, 1e-300, 20.0, 2.5),
            "direct_distance[0] = 1e-300 " + OVERFLOW.format(2.5),
        ),
        (
            lambda: NetworkConfig(2, 2, 2, 1.0, 1.0, 0.5, 20.0, 2000),
            "direct_distance[0] = 0.5 " + OVERFLOW.format(2000),
        ),
        (
            lambda: small_config(cross_distance=((15.0, 40.0), (1e-300, 15.0))),
            "cross_distance[1][0] = 1e-300 " + OVERFLOW.format(2.5),
        ),
    ],
    ids=["tiny_direct", "huge_exponent", "tiny_cross"],
)
def test_an_overflowing_pathloss_gain_is_refused_when_built(build, message):
    # the config used to build, and its layout then raised OverflowError
    with pytest.raises(ConfigError) as err:
        build()
    assert str(err.value) == message


def test_a_pathloss_gain_that_fits_a_float_is_accepted():
    cfg = NetworkConfig(2, 2, 2, 1.0, 1.0, 1e-100, 20.0, 3.0)
    amp = cfg.layout.link_amp[0]
    assert np.isfinite(amp).all()
    assert amp[0, 0, 0, 0] == np.sqrt(1e-100**-3.0) / np.sqrt(2.0)


def test_the_largest_float_sized_int_is_accepted():
    largest = int(np.finfo(float).max)
    cfg = NetworkConfig(2, 2, 2, largest, 1.0, 15.0, 40.0, 2.5)
    np.testing.assert_array_equal(cfg.layout.budget, np.finfo(float).max)
    assert cfg == NetworkConfig(2, 2, 2, np.finfo(float).max, 1.0, 15.0, 40.0, 2.5)


def test_symmetric_config_fills_diagonal():
    cfg = NetworkConfig(3, 2, 2, 10.0, 1.0, 15.0, 40.0, 2.5)
    assert cfg.cross_distance[1][1] == 15.0
    assert cfg.cross_distance[0][2] == 40.0
    validate_config(cfg)


def test_pathloss_values():
    # link_amp holds sqrt(distance**-exponent) / sqrt(2) of every link [r][q]
    def amp(direct, cross, exponent):
        cfg = NetworkConfig(2, 2, 2, 1.0, 1.0, direct, cross, exponent)
        return cfg.layout.link_amp[0, :, :, 0, 0]

    np.testing.assert_array_equal(amp(1.0, 1.0, 2.5), 1.0 / np.sqrt(2.0))
    np.testing.assert_array_equal(amp(7.0, 9.0, 0.0), 1.0 / np.sqrt(2.0))
    gain = 2.0 * amp(2.0, 15.0, 3.0) ** 2
    assert gain[0, 0] == pytest.approx(0.125, rel=1e-12)
    gain = 2.0 * amp(15.0, 2.0, 2.5) ** 2
    assert gain[0, 0] == pytest.approx(15.0**-2.5, rel=1e-12)
    assert gain[0, 0] == pytest.approx(1.1476e-3, abs=1e-7)
    assert gain[0, 1] == gain[1, 0] == pytest.approx(2.0**-2.5, rel=1e-12)


@pytest.mark.parametrize("distance", [0.0, -1.0, float("nan")])
def test_pathloss_rejects_bad_distance(distance):
    # a config is the one source of path-loss gains; it names the bad link
    with pytest.raises(ConfigError, match=r"direct_distance\[0\] must be a positive finite"):
        NetworkConfig(2, 2, 2, 10.0, 1.0, distance, 40.0, 2.5)
    with pytest.raises(ConfigError, match=r"cross_distance\[0\]\[1\] must be a positive finite"):
        NetworkConfig(2, 2, 2, 10.0, 1.0, 15.0, distance, 2.5)


def test_pathloss_rejects_negative_exponent():
    with pytest.raises(ConfigError) as err:
        NetworkConfig(2, 2, 2, 10.0, 1.0, 15.0, 40.0, -1.0)
    assert str(err.value) == "pathloss_exponent must be a nonnegative finite number, got -1.0"


@pytest.mark.parametrize("bad", ["15", True, None])
def test_pathloss_refuses_non_numbers(bad):
    # a string used to raise TypeError, and a bool distance gave a gain of 1.0
    with pytest.raises(ConfigError) as err:
        NetworkConfig(2, 2, 2, 10.0, 1.0, bad, 40.0, 2.5)
    assert str(err.value) == f"direct_distance[0] must be a positive finite number, got {bad!r}"
    with pytest.raises(ConfigError) as err:
        NetworkConfig(2, 2, 2, 10.0, 1.0, 15.0, 40.0, bad)
    assert str(err.value) == f"pathloss_exponent must be a nonnegative finite number, got {bad!r}"


def test_sample_shapes_and_immutability():
    cfg = NetworkConfig(
        num_users=2,
        tx_antennas=(3, 2),
        rx_antennas=(2, 4),
        power_budget=(10.0, 10.0),
        noise_power=(1.0, 1.0),
        direct_distance=(15.0, 15.0),
        cross_distance=((15.0, 40.0), (40.0, 15.0)),
        pathloss_exponent=2.5,
    )
    real = sample_channels(cfg, 3)
    for r in range(2):
        for q in range(2):
            h = link_matrices(real)[r][q]
            assert h.shape == (cfg.rx_antennas[q], cfg.tx_antennas[r])
            assert h.dtype == complex
            with pytest.raises(ValueError):
                h[0, 0] = 0.0


def test_sample_determinism():
    cfg = small_config()
    a = sample_channels(cfg, 11)
    b = sample_channels(cfg, 11)
    c = sample_channels(cfg, 12)
    for r in range(2):
        for q in range(2):
            np.testing.assert_array_equal(link_matrices(a)[r][q], link_matrices(b)[r][q])
    assert not np.array_equal(link_matrices(a)[0][0], link_matrices(c)[0][0])


def test_entry_statistics_unit_distance():
    # one big draw gives 1e5 entries; tolerances are four standard errors
    cfg = NetworkConfig(1, 250, 400, 10.0, 1.0, 1.0, 1.0, 2.5)
    h = link_matrices(sample_channels(cfg, 2024))[0][0]
    n = h.size
    assert n == 100_000
    power = np.abs(h) ** 2
    se_power = 1.0 / np.sqrt(n)  # |h|^2 is exponential with unit mean and std
    assert abs(power.mean() - 1.0) < 4 * se_power
    se_part = np.sqrt(0.5) / np.sqrt(n)
    assert abs(h.real.mean()) < 4 * se_part
    assert abs(h.imag.mean()) < 4 * se_part
    # circular symmetry splits power evenly between parts
    assert abs((h.real**2).mean() - 0.5) < 4 * np.sqrt(0.5) / np.sqrt(n)


def test_entry_statistics_attenuated():
    cfg = NetworkConfig(1, 250, 400, 10.0, 1.0, 15.0, 15.0, 2.5)
    h = link_matrices(sample_channels(cfg, 77))[0][0]
    mean_gain = float((np.abs(h) ** 2).mean())
    assert mean_gain == pytest.approx(15.0**-2.5, rel=0.02)


def test_config_is_checked_when_built():
    with pytest.raises(ConfigError, match="power_budget"):
        small_config(power_budget=(10.0, -1.0))
    with pytest.raises(ConfigError, match="cross_distance"):
        NetworkConfig(2, 2, 2, 10.0, 1.0, 15.0, 0.0, 2.5)


@pytest.mark.parametrize("tx, rx", [(2, 2), (3, 3), (2, 3), (3, 2)])
def test_single_draw_matches_per_link_draws(tx, rx):
    cfg = NetworkConfig(4, tx, rx, 10.0, 1.0, 15.0, 30.0, 2.5)
    for seed in range(50):
        real = sample_channels(cfg, seed)
        ref = reference_sample_channels(cfg, seed)
        for r in range(4):
            for q in range(4):
                np.testing.assert_array_equal(link_matrices(real)[r][q], ref[r][q])


def test_ragged_links_are_zero_padded():
    cfg = ragged_net(0).config
    real = sample_channels(cfg, 5)
    ref = reference_sample_channels(cfg, 5)
    assert real.links.shape == (3, 3, 4, 3)
    assert not real.links.flags.writeable
    for r in range(3):
        for q in range(3):
            np.testing.assert_array_equal(link_matrices(real)[r][q], ref[r][q])
            corner = np.zeros((4, 3), dtype=bool)
            corner[: cfg.rx_antennas[q], : cfg.tx_antennas[r]] = True
            assert np.all(real.links[r, q][~corner] == 0)


def test_realization_from_matrices_round_trips():
    cfg = ragged_net(0).config
    real = sample_channels(cfg, 8)
    back = ChannelRealization.from_matrices(link_matrices(real))
    np.testing.assert_array_equal(back.links, real.links)
    assert (back.tx_antennas, back.rx_antennas) == (cfg.tx_antennas, cfg.rx_antennas)
    bad = link_matrices(real)
    bad[0][1] = np.zeros((2, 2))
    with pytest.raises(ValueError, match=r"matrices\[0\]\[1\]"):
        ChannelRealization.from_matrices(bad)
    h = np.eye(2)
    with pytest.raises(ValueError, match=r"matrices\[1\] must have 2 entries"):
        ChannelRealization.from_matrices([[h, h], [h]])
    with pytest.raises(ValueError, match=r"matrices\[1\] .* entry 1 a 2-D matrix"):
        ChannelRealization.from_matrices([[h, h], [h, np.ones(2)]])


def test_replace_gives_a_config_a_fresh_layout():
    cfg = small_config()
    old = cfg.layout
    richer = dataclasses.replace(cfg, power_budget=(20.0, 5.0))
    assert "layout" not in vars(richer)
    np.testing.assert_array_equal(richer.layout.budget, [20.0, 5.0])
    np.testing.assert_array_equal(old.budget, [10.0, 10.0])
    wider = dataclasses.replace(cfg, tx_antennas=(3, 2))
    assert wider.layout.offsets == (0, 3, 5) and old.offsets == (0, 2, 4)
    assert cfg.layout is old


def test_pickled_config_rebuilds_a_read_only_layout():
    cfg = small_config()
    assert cfg.layout.offsets == (0, 2, 4)
    copy = pickle.loads(pickle.dumps(cfg))
    assert copy == cfg and "layout" not in vars(copy)
    assert copy.layout.offsets == cfg.layout.offsets
    for name, value in vars(copy.layout).items():
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable, name


def test_equal_configs_hash_equal_and_have_equal_layouts():
    a, b = small_config(), small_config(tx_antennas=[2, 2], power_budget=[10.0, 10.0])
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a.layout is not b.layout
    built_a, built_b = vars(a.layout), vars(b.layout)
    assert built_a.keys() == built_b.keys()
    for name in built_a:
        np.testing.assert_equal(built_a[name], built_b[name], err_msg=name)


# the layout arrays each config builds; the others depend on antenna counts alone
OWN_ARRAYS = ("link_amp", "noise", "budget")


def read_only(layout) -> bool:
    arrays = [v for v in vars(layout).values() if isinstance(v, np.ndarray)]
    arrays += [group for _, group in layout.svd_groups]
    return not any(a.flags.writeable for a in arrays)


def test_configs_with_the_same_antenna_counts_share_their_shape_arrays():
    a = small_config()
    b = small_config(
        power_budget=(5.0, 20.0),
        noise_power=(2.0, 0.5),
        cross_distance=((15.0, 30.0), (30.0, 15.0)),
        pathloss_exponent=3.0,
    )
    ragged = small_config(tx_antennas=(3, 2))
    first, other, own = a.layout, b.layout, ragged.layout
    assert vars(first).keys() == vars(other).keys() == vars(own).keys()
    shared = sorted(set(vars(first)) - set(OWN_ARRAYS))
    assert "stream_index" in shared and "coupling_index" in shared
    for name in shared:
        assert getattr(other, name) is getattr(first, name), name
        if isinstance(getattr(first, name), (np.ndarray, tuple)):
            assert getattr(own, name) is not getattr(first, name), name
    for name in OWN_ARRAYS:
        assert getattr(other, name) is not getattr(first, name), name
        assert not np.array_equal(getattr(other, name), getattr(first, name)), name
    np.testing.assert_array_equal(other.budget, [5.0, 20.0])
    assert own.offsets == (0, 3, 5) and first.offsets == (0, 2, 4)
    assert all(map(read_only, (first, other, own)))
    # a pickled copy builds its own layout on the shape arrays of its counts
    copy = pickle.loads(pickle.dumps(b))
    assert copy.layout is not other and copy.layout.stream_index is first.stream_index


def test_the_shape_cache_is_bounded():
    bound = netmodel._shape_of.cache_info().maxsize
    assert bound is not None
    for tx in range(1, bound + 6):
        assert read_only(small_config(tx_antennas=(tx, 1)).layout)
    assert netmodel._shape_of.cache_info().currsize <= bound


def test_an_empty_list_of_configs_draws_an_empty_stack():
    empty = sample_channels([], [])
    assert empty.links.shape == (0, 0, 0, 0, 0) and not empty.links.flags.writeable
    assert (empty.tx_antennas, empty.rx_antennas) == ((), ())
    with pytest.raises(ValueError, match="a stack of 0 draws needs one config per draw, got 1"):
        sample_channels([small_config()], [])
    with pytest.raises(ValueError, match="a stack of 2 draws needs one config per draw, got 0"):
        sample_channels([], [1, 2])


# Entropies by tuple length, one seed_words call each. (base_seed, point,
# trial) as a sweep forms it, with base seeds of one word, of its largest
# value, of two words (2**32, 2**64 - 1 being the largest) and of three
# (2**64, 2**70), and tuples of more words than the pool of four; plain
# integers, as a stack of draw seeds; and empty entropy. Each call but the
# empty one mixes word counts or passes four words, so numpy seeds it row
# by row; SEED_BULK lists calls that the bulk pass hashes.
SEED_ENTROPIES = {
    3: [
        (0, 0, 0),
        *((base, p, t) for base in (2**32 - 1, 2**32, 2**64, 2**70) for p, t in ((0, 0), (3, 17))),
        (2**70, 2**40, 7),
        (5, 2**32, 2**33 + 1),
    ],
    6: [(1, 2, 3, 4, 5, 6), (2**64, 0, 0, 1, 2**40, 3)],
    1: [5, 0, 2**32, 2**64 - 1, (2**100,)],
    0: [(), ()],
}


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("length", list(SEED_ENTROPIES))
def test_seed_words_match_numpy_seed_sequence(length, n):
    entropies = SEED_ENTROPIES[length]
    got = seed_words(entropies, n)
    assert got.shape == (len(entropies), n) and got.dtype == np.uint64
    for row, entropy in zip(got, entropies):
        want = np.random.SeedSequence(entropy).generate_state(n, np.uint64)
        np.testing.assert_array_equal(row, want, err_msg=repr(entropy))


# Calls of at most four words, with one word count per tuple position: a
# sweep's (base_seed, point, trial) with base seeds of one and of two words,
# two-word draw seeds, four-word integers and empty entropy.
SEED_BULK = [
    [(0, 0, 0), (2**32 - 1, 3, 17), (5, 2**32 - 1, 0)],
    [(2**32, 0, 0), (2**64 - 1, 3, 17), (2**32 + 5, 2**32 - 1, 1)],
    [2**32, 2**64 - 1, 2**40 + 7],
    [2**100, (2**127,), 2**96],
    [(), ()],
]


@pytest.mark.parametrize("n", [1, 4, 9])
@pytest.mark.parametrize("bulk", [True, False], ids=["bulk", "numpy"])
def test_seed_words_hash_at_most_four_words_of_one_layout_in_bulk(monkeypatch, bulk, n):
    calls = SEED_BULK if bulk else [e for length, e in SEED_ENTROPIES.items() if length]
    wants = [[np.random.SeedSequence(e).generate_state(n, np.uint64) for e in c] for c in calls]
    built = []
    sequence = np.random.SeedSequence
    monkeypatch.setattr(np.random, "SeedSequence", lambda e: built.append(e) or sequence(e))
    for entropies, want in zip(calls, wants):
        built.clear()
        np.testing.assert_array_equal(seed_words(entropies, n), want, err_msg=repr(entropies))
        assert len(built) == (0 if bulk else len(entropies)), entropies


def test_seed_words_refuse_what_numpy_refuses():
    with pytest.raises(ValueError, match="non-negative"):
        seed_words([(0, -1, 2)], 4)
    with pytest.raises(TypeError):
        seed_words([(0, 1.5)], 4)
    with pytest.raises(ValueError, match="one length"):
        seed_words([(0, 1), (0, 1, 2)], 4)
    with pytest.raises(ValueError, match="non-negative"):
        sample_channels(small_config(), -1)
    assert seed_words([], 3).shape == (0, 3)


def test_pcg64_states_match_numpy():
    # one-word entropy (seeds below 2**32) is what a table seed gives only with
    # odds of about 2**-32, so those seeds are listed by hand beside a table
    by_hand = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    table = seed_words([(11, p, t) for p in range(3) for t in range(40)], 1)[:, 0].tolist()
    for seeds in (by_hand, table):
        states = [rng.bit_generator.state for rng in default_rngs(seeds)]
        assert states == [np.random.PCG64(s).state for s in seeds]
    assert default_rngs([]) == []


def test_seeded_draws_match_default_rng():
    seeds = [0, 2**32 - 1, 2**32, *seed_words(range(20), 1)[:, 0].tolist()]
    rngs = default_rngs(seeds)
    assert len(rngs) == len(seeds)
    for rng, seed in zip(rngs, seeds):
        want = np.random.default_rng(seed)
        np.testing.assert_array_equal(rng.standard_normal((6, 2)), want.standard_normal((6, 2)))
        np.testing.assert_array_equal(rng.random(7), want.random(7))


def test_a_generator_seed_draws_what_its_int_seed_draws():
    cfg = ragged_net(0).config
    seeds = [5, 2**32 + 1, 2**64 - 1]
    rng = np.random.default_rng(5)
    alone = sample_channels(cfg, rng)
    assert alone.links.tobytes() == sample_channels(cfg, 5).links.tobytes()
    # the caller's generator has moved past the draw
    again = np.random.default_rng(5)
    again.standard_normal(cfg.layout.link_entries * 2)
    assert rng.bit_generator.state == again.bit_generator.state
    stack = sample_channels(cfg, [np.random.default_rng(s) for s in seeds])
    assert stack.links.tobytes() == sample_channels(cfg, seeds).links.tobytes()
    for k, seed in enumerate(seeds):
        assert stack.links[k].tobytes() == sample_channels(cfg, seed).links.tobytes()
    mixed = sample_channels(cfg, (seeds[0], *default_rngs(seeds[1:])))
    assert mixed.links.tobytes() == stack.links.tobytes()
