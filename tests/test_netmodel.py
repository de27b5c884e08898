import dataclasses
import pickle

import numpy as np
import pytest

from mimoiwf.netmodel import (
    ChannelRealization,
    ConfigError,
    NetworkConfig,
    pathloss_power_gain,
    sample_channels,
    symmetric_config,
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
        (lambda: symmetric_config(True, 2, 2, 10.0, 1.0, 15.0, 40.0, 2.5), "num_users"),
        (lambda: symmetric_config(2, True, 2, 10.0, 1.0, 15.0, 40.0, 2.5), "tx_antennas"),
    ],
    ids=["num_users", "tx_antennas", "rx_antennas", "symmetric_users", "symmetric_tx"],
)
def test_bool_counts_are_refused(build, field):
    with pytest.raises(ConfigError, match=field):
        build()


def test_symmetric_config_fills_diagonal():
    cfg = symmetric_config(3, 2, 2, 10.0, 1.0, 15.0, 40.0, 2.5)
    assert cfg.cross_distance[1][1] == 15.0
    assert cfg.cross_distance[0][2] == 40.0
    validate_config(cfg)


def test_pathloss_values():
    assert pathloss_power_gain(1.0, 2.5) == 1.0
    assert pathloss_power_gain(2.0, 3.0) == pytest.approx(0.125, rel=1e-12)
    assert pathloss_power_gain(15.0, 2.5) == pytest.approx(15.0**-2.5, rel=1e-12)
    assert pathloss_power_gain(15.0, 2.5) == pytest.approx(1.1476e-3, abs=1e-7)
    assert pathloss_power_gain(7.0, 0.0) == 1.0


@pytest.mark.parametrize("distance", [0.0, -1.0, float("nan")])
def test_pathloss_rejects_bad_distance(distance):
    with pytest.raises(ConfigError):
        pathloss_power_gain(distance, 2.5)


def test_pathloss_rejects_negative_exponent():
    with pytest.raises(ConfigError):
        pathloss_power_gain(10.0, -1.0)


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
    assert real.seed == 3


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
    cfg = symmetric_config(1, 250, 400, 10.0, 1.0, 1.0, 1.0, 2.5)
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
    cfg = symmetric_config(1, 250, 400, 10.0, 1.0, 15.0, 15.0, 2.5)
    h = link_matrices(sample_channels(cfg, 77))[0][0]
    mean_gain = float((np.abs(h) ** 2).mean())
    assert mean_gain == pytest.approx(15.0**-2.5, rel=0.02)


def test_config_is_checked_when_built():
    with pytest.raises(ConfigError, match="power_budget"):
        small_config(power_budget=(10.0, -1.0))
    with pytest.raises(ConfigError, match="cross_distance"):
        symmetric_config(2, 2, 2, 10.0, 1.0, 15.0, 0.0, 2.5)


@pytest.mark.parametrize("tx, rx", [(2, 2), (3, 3), (2, 3), (3, 2)])
def test_single_draw_matches_per_link_draws(tx, rx):
    cfg = symmetric_config(4, tx, rx, 10.0, 1.0, 15.0, 30.0, 2.5)
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
    back = ChannelRealization.from_matrices(link_matrices(real), seed=8)
    np.testing.assert_array_equal(back.links, real.links)
    assert (back.tx_antennas, back.rx_antennas) == (cfg.tx_antennas, cfg.rx_antennas)
    bad = link_matrices(real)
    bad[0][1] = np.zeros((2, 2))
    with pytest.raises(ValueError, match=r"matrices\[0\]\[1\]"):
        ChannelRealization.from_matrices(bad, seed=8)
    h = np.eye(2)
    with pytest.raises(ValueError, match=r"matrices\[1\] must have 2 entries"):
        ChannelRealization.from_matrices([[h, h], [h]], seed=8)
    with pytest.raises(ValueError, match=r"matrices\[1\] .* entry 1 a 2-D matrix"):
        ChannelRealization.from_matrices([[h, h], [h, np.ones(2)]], seed=8)


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
