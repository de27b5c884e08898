import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from mimoiwf.cli import network_from_dict
from mimoiwf.netmodel import ChannelRealization, NetworkConfig, sample_channels
from mimoiwf.precode import (
    DegenerateChannelError,
    build_effective_network,
    svd_decompose,
)

from oracles import (
    RAGGED,
    brute_force_cross_gain,
    explicit_net,
    link_matrices,
    num_streams,
    ragged_net,
    reference_build_effective_network,
    reference_sample_channels,
    user_svd,
)


def test_svd_identity():
    link = svd_decompose(np.eye(2))
    np.testing.assert_allclose(link.singular_values, [1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(link.U @ link.U.conj().T, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(link.V @ link.V.conj().T, np.eye(2), atol=1e-12)


def test_svd_antidiagonal_orders_descending():
    link = svd_decompose(np.array([[0.0, 2.0], [1.0, 0.0]]))
    np.testing.assert_allclose(link.singular_values, [2.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (2, 3), (3, 2), (4, 4)])
def test_svd_reconstruction_random(shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    for _ in range(20):
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        link = svd_decompose(h)
        m, n = shape
        sig = np.zeros((m, n))
        k = min(m, n)
        sig[:k, :k] = np.diag(link.singular_values)
        np.testing.assert_allclose(link.U @ sig @ link.V.conj().T, h, atol=1e-10)
        np.testing.assert_allclose(link.U.conj().T @ link.U, np.eye(m), atol=1e-10)
        np.testing.assert_allclose(link.V.conj().T @ link.V, np.eye(n), atol=1e-10)
        assert np.all(np.diff(link.singular_values) <= 0)
        assert link.singular_values.size == k


def test_svd_rejects_bad_input():
    with pytest.raises(ValueError):
        svd_decompose(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        svd_decompose(np.zeros(3))


def user_block(net, r, q):
    """Coupling from transmitter r into user q's streams, times sigma_sq[q]:
    the squared magnitudes of the rotated cross channel."""
    o = net.config.layout.offsets
    sigma = user_svd(net, q).singular_values
    rows = slice(o[q], o[q] + sigma.size)
    return net.coupling[rows, o[r] : o[r + 1]] * sigma[:, None] ** 2


def cross_pairs(net):
    n = net.config.num_users
    return [(r, q) for r in range(n) for q in range(n) if r != q]


def test_single_user_network_has_no_cross_terms():
    net = explicit_net([np.diag([3.0, 1.0])], {}, [10.0], [1.0])
    assert net.config.layout.offsets == (0, 2)
    np.testing.assert_array_equal(net.coupling, np.zeros((2, 2)))
    np.testing.assert_allclose(net.singular_values[0] ** 2, [9.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(net.stream_noise[0], [1.0 / 9.0, 1.0], atol=1e-12)


def test_degenerate_direct_channel_rejected():
    with pytest.raises(DegenerateChannelError, match="user 0"):
        explicit_net([np.array([[1.0, 0.0], [0.0, 0.0]])], {}, [10.0], [1.0])
    # the first rank-deficient user is named, whatever follows it
    rank_one = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(DegenerateChannelError, match="user 1 "):
        explicit_net([np.eye(2), rank_one, np.eye(2), rank_one], {}, [10.0] * 4, [1.0] * 4)


def test_a_noise_floor_of_zero_is_degenerate():
    # sigma^2 past the largest float, or noise over sigma^2 under the
    # smallest float, makes a floor of 0, with no numpy warning
    huge = np.diag([1e155, 1.0])
    with pytest.raises(DegenerateChannelError, match="^noise floor of user 1 is 0$"):
        explicit_net([np.eye(2), huge], {}, [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(DegenerateChannelError, match="^noise floor of user 0 is 0$"):
        explicit_net([10.0 * np.eye(2)], {}, [1.0], [5e-324])
    # in a stack that draw is None and the others are built
    cfg = NetworkConfig(1, 2, 2, 1.0, 1.0, 1.0, 1.0, 0.0)
    draws = [ChannelRealization.from_matrices([[h]]) for h in (np.eye(2), huge, 2 * np.eye(2))]
    links = np.stack([d.links for d in draws])
    stack = ChannelRealization(links=links, tx_antennas=(2,), rx_antennas=(2,))
    nets = build_effective_network(stack, cfg)
    assert nets[1] is None
    np.testing.assert_array_equal(nets[0].stream_noise, [[1.0, 1.0]])
    np.testing.assert_array_equal(nets[2].stream_noise, [[0.25, 0.25]])


def test_a_coupling_that_is_not_finite_is_degenerate():
    # a cross gain whose square passes the largest float makes an inf
    # coupling into its receiver: a single draw names that user, and in a
    # stack that draw is None while the others keep their bits
    cfg = NetworkConfig(2, 2, 2, 1.0, 1.0, 1.0, 1.0, 0.0)
    eye = np.eye(2)
    draws = [
        ChannelRealization.from_matrices([[eye, c * eye], [0.5 * eye, eye]])
        for c in (0.5, 1e200, 0.25)
    ]
    with pytest.raises(DegenerateChannelError, match="^coupling into user 1 is not finite$"):
        build_effective_network(draws[1], cfg)
    stack = ChannelRealization(
        links=np.stack([d.links for d in draws]), tx_antennas=(2, 2), rx_antennas=(2, 2)
    )
    nets = build_effective_network(stack, cfg)
    assert nets[1] is None
    for k in (0, 2):
        one = build_effective_network(draws[k], cfg)
        for name in NET_FIELDS:
            assert getattr(nets[k], name).tobytes() == getattr(one, name).tobytes(), (k, name)


@pytest.mark.parametrize("tx, rx", [(2, 2), (3, 3), (2, 3), (3, 2)])
def test_stacked_build_matches_per_link_reference(tx, rx):
    cfg = NetworkConfig(4, tx, rx, 10.0, 1.0, 15.0, 30.0, 2.5)
    for seed in range(50):
        net = build_effective_network(sample_channels(cfg, seed), cfg)
        ref = reference_build_effective_network(reference_sample_channels(cfg, seed), cfg)
        np.testing.assert_array_equal(net.coupling, ref.coupling)
        for q in range(4):
            link = user_svd(net, q)
            np.testing.assert_array_equal(link.U, ref.svd[q].U)
            np.testing.assert_array_equal(link.V, ref.svd[q].V)
            np.testing.assert_array_equal(link.singular_values**2, ref.sigma_sq[q])
            streams = num_streams(net, q)
            np.testing.assert_array_equal(net.stream_noise[q, :streams], ref.noise_floor[q])


def test_ragged_build_matches_per_link_reference():
    for seed in range(20):
        net = ragged_net(seed)
        cfg = net.config
        ref = reference_build_effective_network(
            reference_sample_channels(cfg, 1000 * seed), cfg
        )
        np.testing.assert_allclose(net.coupling, ref.coupling, rtol=0, atol=1e-12)
        for q in range(3):
            link = user_svd(net, q)
            np.testing.assert_allclose(link.U, ref.svd[q].U, rtol=0, atol=1e-12)
            np.testing.assert_allclose(link.V, ref.svd[q].V, rtol=0, atol=1e-12)
            streams = num_streams(net, q)
            np.testing.assert_allclose(
                net.stream_noise[q, :streams], ref.noise_floor[q], rtol=1e-12
            )
        assert net.stream_noise.shape == (3, 3)
        assert np.isinf(net.stream_noise[[0, 1, 2, 2], [2, 2, 1, 2]]).all()


def test_cross_gain_matches_brute_force():
    cfg = NetworkConfig(3, 3, 2, 10.0, 1.0, 15.0, 30.0, 2.5)
    real = sample_channels(cfg, 5)
    net = build_effective_network(real, cfg)
    assert len(cross_pairs(net)) == 6
    for r, q in cross_pairs(net):
        streams = num_streams(net, q)
        expected = brute_force_cross_gain(
            link_matrices(real)[r][q], user_svd(net, q).U, user_svd(net, r).V, streams
        )
        gain = user_block(net, r, q)
        assert gain.shape == (streams, cfg.tx_antennas[r])
        np.testing.assert_allclose(gain, expected, atol=1e-12)


def test_cross_gain_energy_bounded_by_frobenius():
    cfg = NetworkConfig(2, 4, 2, 10.0, 1.0, 15.0, 25.0, 2.5)
    real = sample_channels(cfg, 9)
    net = build_effective_network(real, cfg)
    for r, q in cross_pairs(net):
        frob = float(np.sum(np.abs(link_matrices(real)[r][q]) ** 2))
        assert user_block(net, r, q).sum() <= frob + 1e-9
    # full receive basis keeps the energy exactly
    cfg2 = NetworkConfig(2, 2, 2, 10.0, 1.0, 15.0, 25.0, 2.5)
    real2 = sample_channels(cfg2, 9)
    net2 = build_effective_network(real2, cfg2)
    for r, q in cross_pairs(net2):
        frob = float(np.sum(np.abs(link_matrices(real2)[r][q]) ** 2))
        assert user_block(net2, r, q).sum() == pytest.approx(frob, rel=1e-10)


def test_gains_invariant_under_basis_phases():
    # per-column phase rotations of both unitaries leave |U^H H V|^2 alone
    cfg = NetworkConfig(2, 2, 2, 10.0, 1.0, 15.0, 25.0, 2.5)
    real = sample_channels(cfg, 21)
    net = build_effective_network(real, cfg)
    rng = np.random.default_rng(4)
    for r, q in cross_pairs(net):
        u = user_svd(net, q).U * np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        v = user_svd(net, r).V * np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        rotated = np.abs(u.conj().T @ link_matrices(real)[r][q] @ v) ** 2
        np.testing.assert_allclose(rotated, user_block(net, r, q), atol=1e-12)


def test_coupling_normalization_and_stacking():
    cfg = NetworkConfig(3, 2, 2, 10.0, 2.0, 15.0, 30.0, 2.5)
    real = sample_channels(cfg, 13)
    net = build_effective_network(real, cfg)
    assert net.config.layout.offsets == (0, 2, 4, 6)
    assert net.coupling.shape == (6, 6)
    assert not net.coupling.flags.writeable
    for q in range(3):
        sigma_sq = user_svd(net, q).singular_values ** 2
        np.testing.assert_allclose(net.stream_noise[q], 2.0 / sigma_sq, atol=1e-15)
        rows = net.coupling[2 * q : 2 * q + 2]
        np.testing.assert_array_equal(rows[:, 2 * q : 2 * q + 2], 0.0)
        for r in range(3):
            if r == q:
                continue
            gain = brute_force_cross_gain(
                link_matrices(real)[r][q], user_svd(net, q).U, user_svd(net, r).V, 2
            )
            np.testing.assert_allclose(
                rows[:, 2 * r : 2 * r + 2],
                gain / sigma_sq[:, None],
                rtol=1e-12,
            )


def test_more_tx_than_rx_truncates_streams():
    cfg = NetworkConfig(2, 4, 2, 10.0, 1.0, 15.0, 25.0, 2.5)
    net = build_effective_network(sample_channels(cfg, 31), cfg)
    assert num_streams(net, 0) == 2
    assert net.coupling.shape == (8, 8)
    assert user_block(net, 1, 0).shape == (2, 4)
    # rows of the antennas without a stream stay zero
    np.testing.assert_array_equal(net.coupling[2:4], 0.0)
    np.testing.assert_array_equal(net.coupling[6:8], 0.0)


def ragged_config(tx, rx):
    n = len(tx)
    cross = tuple(tuple(15.0 if r == q else 20.0 + 3 * r + q for q in range(n)) for r in range(n))
    return NetworkConfig(n, tx, rx, (10.0,) * n, (1e-3,) * n, (15.0,) * n, cross, 2.5)


@pytest.mark.parametrize("tx, rx", [((3, 2), (2, 4)), ((2, 3, 1, 4), (3, 2, 2, 1))])
def test_cold_and_warm_layout_match_the_oracles(tx, rx):
    cfg = ragged_config(tx, rx)
    users = range(len(tx))
    ref_links = reference_sample_channels(cfg, 0)
    ref = reference_build_effective_network(ref_links, cfg)
    assert "layout" not in vars(cfg)
    nets = []
    for _ in range(2):  # the first call builds the layout, the second reads it
        real = sample_channels(cfg, 0)
        net = build_effective_network(real, cfg)
        for r in users:
            for q in users:
                np.testing.assert_array_equal(link_matrices(real)[r][q], ref_links[r][q])
        for q in users:
            np.testing.assert_array_equal(user_svd(net, q).U, ref.svd[q].U)
            np.testing.assert_array_equal(user_svd(net, q).V, ref.svd[q].V)
            streams = num_streams(net, q)
            np.testing.assert_array_equal(net.stream_noise[q, :streams], ref.noise_floor[q])
        if len(tx) == 2:
            np.testing.assert_array_equal(net.coupling, ref.coupling)
        else:  # the padded 4x4 products round unlike the per-link ones
            np.testing.assert_allclose(net.coupling, ref.coupling, rtol=1e-12, atol=0)
        nets.append(net)
    np.testing.assert_array_equal(nets[0].coupling, nets[1].coupling)


def test_networks_of_one_config_share_a_read_only_layout():
    cfg = ragged_config((3, 2), (2, 4))
    a, b = (build_effective_network(sample_channels(cfg, s), cfg) for s in (1, 2))
    layout = cfg.layout
    assert a.config.layout is layout and b.config.layout is layout
    for name, value in vars(layout).items():
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable, name
            with pytest.raises(ValueError):
                value.flat[0] = value.flat[0]
    assert all(not group.flags.writeable for _, group in layout.svd_groups)


def test_antenna_counts_select_the_layout():
    base = ragged_config((3, 2), (2, 4)).layout
    swapped_tx = ragged_config((2, 3), (2, 4)).layout
    swapped_rx = ragged_config((3, 2), (4, 2)).layout
    assert swapped_tx is not base and swapped_rx is not base
    assert swapped_tx.offsets == (0, 2, 5) and base.offsets == (0, 3, 5)
    assert not np.array_equal(swapped_rx.is_stream, base.is_stream)


NET_FIELDS = ("rx_bases", "tx_bases", "singular_values", "coupling", "stream_noise")


def shipped_config():
    with open(Path(__file__).resolve().parent.parent / "configs" / "network.json") as fh:
        return network_from_dict(json.load(fh))


def with_cross(cfg, scale, budget=1.0):
    """cfg with every cross link scale times as far and budgets times budget."""
    return dataclasses.replace(
        cfg,
        cross_distance=[
            [d if r == q else d * scale for q, d in enumerate(row)]
            for r, row in enumerate(cfg.cross_distance)
        ],
        power_budget=[b * budget for b in cfg.power_budget],
    )


SEEDS = [1, 17, 4, 250, 9]


@pytest.mark.parametrize(
    "configs",
    [
        shipped_config(),
        RAGGED,
        [
            with_cross(shipped_config(), scale, budget)
            for scale, budget in zip((1, 0.4, 0.4, 1.5, 0.8), (1, 1, 10, 1, 3))
        ],
        [with_cross(RAGGED, s) for s in (1.0, 0.7, 2.0, 2.0, 1.3)],
    ],
    ids=["shipped", "ragged", "shipped_mixed_cross", "ragged_mixed_cross"],
)
def test_stacked_draws_and_networks_equal_single_ones(configs):
    # one config for the whole stack, or one per draw: each draw, and its
    # network, is bit for bit the single call under its own config
    per_draw = configs if isinstance(configs, list) else [configs] * len(SEEDS)
    stack = sample_channels(configs, SEEDS)
    assert not stack.links.flags.writeable
    nets = build_effective_network(stack, configs)
    assert len(nets) == len(SEEDS)
    for k, (cfg, seed) in enumerate(zip(per_draw, SEEDS)):
        single = sample_channels(cfg, seed)
        assert stack.links[k].tobytes() == single.links.tobytes()
        one = build_effective_network(single, cfg)
        assert nets[k].config is cfg
        for name in NET_FIELDS:
            got, want = getattr(nets[k], name), getattr(one, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (seed, name)
            assert not got.flags.writeable


@pytest.mark.parametrize(
    "field, other",
    [
        ("tx_antennas", NetworkConfig(4, 3, 2, 10.0, 1.0, 15.0, 37.7, 2.5)),
        ("rx_antennas", NetworkConfig(4, 2, 3, 10.0, 1.0, 15.0, 37.7, 2.5)),
        ("noise_power", NetworkConfig(4, 2, 2, 10.0, 2.0, 15.0, 37.7, 2.5)),
    ],
)
def test_a_stack_refuses_configs_that_differ_in_what_rotation_reads(field, other):
    cfg = shipped_config()
    configs = [cfg, with_cross(cfg, 0.5), other]
    with pytest.raises(ValueError, match=f"configs of one stack must share {field}: config 2"):
        sample_channels(configs, SEEDS[:3])
    stack = sample_channels(cfg, SEEDS[:3])
    with pytest.raises(ValueError, match=f"must share {field}"):
        build_effective_network(stack, configs)
    with pytest.raises(ValueError, match="3 draws needs one config per draw, got 2"):
        build_effective_network(stack, configs[:2])


def test_a_single_draw_takes_a_list_of_one_config():
    cfg = with_cross(shipped_config(), 0.4)
    single = sample_channels(cfg, 17)
    listed = sample_channels([cfg], 17)
    assert listed.links.tobytes() == single.links.tobytes()
    net = build_effective_network(single, [cfg])
    assert net.config is cfg
    assert net.coupling.tobytes() == build_effective_network(single, cfg).coupling.tobytes()
    with pytest.raises(ValueError, match="1 draws needs one config per draw, got 2"):
        sample_channels([cfg, cfg], 17)
    with pytest.raises(ValueError, match="1 draws needs one config per draw, got 0"):
        build_effective_network(single, [])


@pytest.mark.parametrize("config", [shipped_config(), RAGGED], ids=["shipped", "ragged"])
def test_an_empty_stack_builds_no_networks(config):
    empty = sample_channels(config, [])
    q = config.num_users
    assert empty.links.shape == (0, q, q, max(config.rx_antennas), max(config.tx_antennas))
    assert build_effective_network(empty, config) == []
    assert build_effective_network(empty, []) == []
    assert build_effective_network(sample_channels([], []), []) == []


def test_stacked_build_marks_degenerate_draws():
    # a direct link 1e9 away sits near the singular-value floor, so some
    # draws are degenerate; a single call raises for them, a stack keeps going
    cfg = NetworkConfig(4, 2, 2, 10.0, 1.0, 1e9, 15.0, 2.5)
    seeds = list(range(40))
    nets = build_effective_network(sample_channels(cfg, seeds), cfg)
    degenerate = 0
    for seed, net in zip(seeds, nets):
        try:
            one = build_effective_network(sample_channels(cfg, seed), cfg)
        except DegenerateChannelError:
            assert net is None, seed
            degenerate += 1
            continue
        for name in NET_FIELDS:
            assert getattr(net, name).tobytes() == getattr(one, name).tobytes(), (seed, name)
    assert 0 < degenerate < len(seeds)
