"""Property-based invariants, searched by hypothesis over wide inputs.

Every test is derandomized, with a fixed example count and no example
database, so every run tests the same examples.
"""
import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mimoiwf.contraction import SPECTRAL_TOL, certify, spectral_radius
from mimoiwf.engine import make_schedule, run_game
from mimoiwf.netmodel import FLOAT_MAX, NetworkConfig, check_numbers, sample_channels
from mimoiwf.precode import DegenerateChannelError, build_effective_network
from mimoiwf.waterfill import greedy_profile, random_profile, water_level

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)


@st.composite
def floor_batches(draw):
    """A (Q, S) batch of floors from 0 to 1e300, +inf in some slots but a
    finite floor in every row, and a (Q,) budget from 1e-300 to 1e300."""
    rows = draw(st.integers(1, 4))
    slots = draw(st.integers(1, 6))
    finite = st.floats(0.0, 1e300)
    size = rows * slots
    floors = np.array(draw(st.lists(finite, min_size=size, max_size=size))).reshape(rows, slots)
    stream_less = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    stream_less = stream_less.reshape(rows, slots)
    for q in range(rows):
        stream_less[q, draw(st.integers(0, slots - 1))] = False
    floors[stream_less] = np.inf
    budgets = draw(st.lists(st.floats(1e-300, 1e300), min_size=rows, max_size=rows))
    return floors, np.array(budgets)


@PROPERTY
@given(floor_batches())
def test_water_filling_meets_its_kkt_conditions_on_every_row(batch):
    floors, budgets = batch
    result = water_level(floors, budgets)
    p, mu = result.powers, result.water_level[:, None]
    active = p > 0
    # an active stream fills its floor up to the water level, within a few ulp
    gap = np.abs(np.where(active, p + floors, mu) - mu)
    assert np.all(gap <= 4 * np.spacing(mu)), (floors, budgets, p, mu)
    # an idle stream's floor is at or above the water level
    assert np.all(floors[~active] >= np.broadcast_to(mu, p.shape)[~active]), (floors, budgets, mu)


@st.composite
def nonnegative_matrices(draw):
    """A square matrix of 1 to 6 rows, entries in [0, 1e3], about half zero,
    so that many are reducible."""
    n = draw(st.integers(1, 6))
    entries = st.one_of(st.just(0.0), st.floats(0.0, 1e3))
    return np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)


@PROPERTY
@given(nonnegative_matrices())
def test_the_spectral_radius_is_at_most_the_smaller_norm(m):
    bound = min(m.sum(axis=1).max(), m.sum(axis=0).max())
    # the radius is the midpoint of bounds that meet within SPECTRAL_TOL
    assert spectral_radius(m) <= bound + SPECTRAL_TOL * max(1.0, bound)


def layouts():
    """Per-user antenna counts, 1 to 3 users of 1 to 3 tx and rx antennas each."""
    return st.integers(1, 3).flatmap(
        lambda q: st.tuples(
            st.lists(st.integers(1, 3), min_size=q, max_size=q),
            st.lists(st.integers(1, 3), min_size=q, max_size=q),
        )
    )


def network_config(tx, rx, budget=10.0, noise=1.0, direct=15.0, cross=40.0, exponent=2.5):
    return NetworkConfig(len(tx), tx, rx, budget, noise, direct, cross, exponent)


@PROPERTY
@given(
    layouts(),
    st.lists(st.tuples(st.integers(0, 2**64 - 1), st.floats(0.5, 100.0)), min_size=1, max_size=5),
    st.floats(0.5, 1e9),
    st.floats(0.0, 6.0),
)
def test_a_stack_of_draws_equals_its_single_draws(shape, draws, direct, exponent):
    # each draw of the stack at its own seed and cross distance; a long
    # direct link at a steep exponent makes degenerate draws
    tx, rx = shape
    seeds = [seed for seed, _ in draws]
    configs = [network_config(tx, rx, direct=direct, cross=c, exponent=exponent) for _, c in draws]
    stack = sample_channels(configs, seeds)
    nets = build_effective_network(stack, configs)
    singles = []
    for k, (seed, cfg) in enumerate(zip(seeds, configs)):
        one = sample_channels(cfg, seed)
        assert stack.links[k].tobytes() == one.links.tobytes()
        try:
            single = build_effective_network(one, cfg)
        except DegenerateChannelError:
            assert nets[k] is None
            continue
        for name in [f.name for f in dataclasses.fields(single) if f.name != "config"]:
            assert getattr(nets[k], name).tobytes() == getattr(single, name).tobytes()
        singles.append(single)
    assert certify([net for net in nets if net is not None]) == [certify(net) for net in singles]


@PROPERTY
@given(
    layouts(),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["jacobi", "random_async"]),
    st.integers(0, 3),
    st.integers(1, 4),
    st.floats(1e-3, 1e3),
    st.floats(1e-3, 1e3),
    st.integers(-40, 40),
)
def test_games_at_budget_and_noise_times_two_to_the_k_are_the_unscaled_games_times_it(
    shape, seed, kind, delay_bound, update_bound, budget, noise, k
):
    tx, rx = shape
    cfg = network_config(tx, rx, budget=budget, noise=noise, cross=20.0)
    scaled_cfg = network_config(
        tx, rx, budget=np.ldexp(budget, k), noise=np.ldexp(noise, k), cross=20.0
    )
    try:
        net = build_effective_network(sample_channels(cfg, seed), cfg)
    except DegenerateChannelError:
        return  # the scaled draw is the same rank-deficient draw
    scaled = build_effective_network(sample_channels(scaled_cfg, seed), scaled_cfg)
    assert scaled.coupling.tobytes() == net.coupling.tobytes()
    schedule = make_schedule(kind, len(tx), 12, seed, delay_bound, update_bound)

    def starts(config):  # the uniform split, the greedy start and a random one
        return [None, greedy_profile(config), random_profile(config, np.random.default_rng(seed))]

    for start, scaled_start in zip(starts(cfg), starts(scaled_cfg)):
        # at tol 0 both games play to it_max
        states = run_game(net, schedule, start, tol=0).states
        scaled_states = run_game(scaled, schedule, scaled_start, tol=0).states
        np.testing.assert_array_equal(scaled_states, np.ldexp(states, k))


# NaN, both infinities and zeros, the least subnormal, the least and a
# middle normal, and both largest floats
EDGE_FLOATS = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]
EDGE_FLOATS += [1e-310, -1e-310, FLOAT_MAX, -FLOAT_MAX]


@st.composite
def float_arrays(draw):
    """A float64 array of 0 to 3 dimensions of 0 to 3 entries each, its
    entries edge floats or any float."""
    shape = draw(st.lists(st.integers(0, 3), max_size=3))
    entries = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
    size = math.prod(shape)
    return np.array(draw(st.lists(entries, min_size=size, max_size=size))).reshape(shape)


def _refusal(value, within):
    try:
        check_numbers("x", value, within)
    except ValueError as exc:
        return str(exc)
    return None


@PROPERTY
@given(float_arrays(), st.sampled_from([None, "finite", "nonnegative", "positive"]))
def test_an_array_is_checked_as_its_list_is(array, within):
    # the ndarray fast path against the entry-by-entry path, message and all
    refusal = _refusal(array, within)
    assert refusal == _refusal(array.tolist(), within)
    finite = np.isfinite(array)
    held = {
        None: np.ones_like(finite),
        "finite": finite,
        "nonnegative": finite & (array >= 0),
        "positive": finite & (array > 0),
    }[within]
    assert (refusal is None) == bool(held.all()), (array, within, refusal)
