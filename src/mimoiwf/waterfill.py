"""Water-filling power allocation and achievable rates.

The best response of a user treats other users' signals as noise and
water-fills its power budget over the parallel streams opened by the
direct-link SVD.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netmodel import NetworkConfig
from .precode import EffectiveNetwork

BUDGET_TOL = 1e-9


@dataclass
class PowerProfile:
    """A stacked power vector split into per-user views, one entry per antenna."""

    powers: list[np.ndarray]

    def stacked(self) -> np.ndarray:
        return np.concatenate(self.powers)


@dataclass(slots=True)
class WaterfillResult:
    """Solution of one water-filling problem, or of a batch of them.

    powers[..., i] = max(water_level - floors[..., i], 0). For a single
    problem water_level is a float; for a (Q, S) batch it is a (Q,) array.
    """

    powers: np.ndarray
    water_level: float | np.ndarray


def validate_profile(x: np.ndarray, config: NetworkConfig) -> np.ndarray:
    """Check the length, signs and per-user budgets of a stacked power vector.

    x holds one entry per transmit antenna, user after user. A user may
    exceed its budget by BUDGET_TOL times the larger of one and the budget,
    which absorbs the rounding of a split that sums to it. The error names
    the first offending user. Returns x unchanged.
    """
    layout = config.layout
    n = layout.offsets[-1]
    if np.shape(x) != (n,):
        raise ValueError(f"profile has shape {np.shape(x)}, expected ({n},)")
    lows = np.minimum.reduceat(x, layout.starts).tolist()
    sums = np.add.reduceat(x, layout.starts).tolist()
    for q, budget in enumerate(config.power_budget):
        if not lows[q] >= 0:  # also true for a NaN
            raise ValueError(f"user {q} has a negative or NaN power entry")
        if sums[q] > budget + BUDGET_TOL * max(1.0, budget):
            raise ValueError(f"user {q} exceeds its power budget: {sums[q]!r} > {budget!r}")
    return x


def uniform_profile(config: NetworkConfig) -> np.ndarray:
    """Budget split evenly across each user's transmit antennas, stacked."""
    tx = config.tx_antennas
    return np.repeat(np.divide(config.power_budget, tx), tx)


def greedy_profile(config: NetworkConfig) -> np.ndarray:
    """Entire budget on the strongest stream (first antenna after rotation), stacked."""
    layout = config.layout
    x = np.zeros(layout.offsets[-1])
    x[layout.starts] = config.power_budget
    return x


def random_profile(config: NetworkConfig, rng: np.random.Generator) -> np.ndarray:
    """Random nonnegative split of each user's full budget, stacked, from one draw."""
    return split_budgets(rng.random((1, config.layout.offsets[-1])), [config])[0]


def split_budgets(weights: np.ndarray, configs: list[NetworkConfig]) -> np.ndarray:
    """Scale a (K, N) stack of nonnegative weights in place, row k into a split
    of the full budget of every user of configs[k], and return it.

    The configs share their antenna counts. An antenna gets its user's
    (budget * weight) / (sum of the user's weights), the sum taken over the
    user's own antennas of the row, as a one-user sum adds them.
    """
    layout = configs[0].layout
    # np.add.reduceat may sum 3 or more antennas in another order
    sums = [weights[:, a:b].sum(axis=1) for a, b in zip(layout.offsets, layout.offsets[1:])]
    weights *= np.stack([c.layout.budget for c in configs])[:, layout.owner]
    weights /= np.stack(sums, axis=1)[:, layout.owner]
    return weights


def stream_floors(net: EffectiveNetwork, views: np.ndarray) -> np.ndarray:
    """Normalized interference-plus-noise floor of every user's streams.

    views is one stacked power vector seen by every user, or a (Q, N) array
    whose row q is user q's view. Returns a (Q, T) array laid out like
    net.stream_noise: entry (q, s) is the cross-link power leaking into
    stream s of user q, divided by its squared singular value, plus the
    noise floor; slots without a stream are +inf.
    """
    layout = net.config.layout
    if views.ndim == 1:
        leak = (net.coupling @ views).take(layout.stream_index)
    else:
        leak = (views @ net.coupling.T).take(layout.leak_index)
    return net.stream_noise + leak


def water_level(floors: np.ndarray, budget: float | np.ndarray) -> WaterfillResult:
    """Exact water-filling of a budget over per-stream floors.

    floors is one (S,) problem or a (Q, S) batch with a (Q,) budget vector,
    one problem per row; a +inf floor marks a slot that gets no power, so
    rows of different lengths can share one batch. Each row sorts its
    floors, and its water level is the lowest of its prefix levels
    (budget + k lowest floors) / k; no iteration is involved.

    Every input is checked here, then _fill does the arithmetic.

    Raises:
        ValueError: on an empty floor array, a budget that is neither a
            scalar nor one entry per row, a NaN or negative floor, a row
            without a finite floor, a non-positive budget, or a water level
            past the largest float, naming the overflow.
    """
    c = np.asarray(floors, dtype=float)
    if c.ndim not in (1, 2) or c.size == 0:
        raise ValueError(f"floors must be a non-empty vector or (Q, S) array, got {c.shape}")
    rows = c if c.ndim == 2 else c[None]
    b = np.asarray(budget, dtype=float)
    if b.shape not in ((), (len(rows),)):
        raise ValueError(f"budget of shape {b.shape} does not fit floors of shape {c.shape}")
    order = rows.copy()
    order.sort()
    # a NaN sorts last, and a sum is unequal to itself only when it is NaN;
    # finite floors whose sum overflows give inf, which is equal to itself
    lowest, highest = order[:, 0].tolist(), sum(order[:, -1].tolist())
    if not (0 <= min(lowest) and max(lowest) < np.inf and highest == highest):
        raise ValueError("floors must be nonnegative, with a finite floor in every row")
    budgets = b.ravel().tolist()
    total = sum(budgets)
    if not (0 < min(budgets) and max(budgets) < np.inf and total == total):
        raise ValueError(f"budget must be positive and finite, got {budget!r}")
    # a row whose budget plus finite floors passes the largest float would
    # have inf prefix levels, which the minimum passes over; its floors and
    # budget are scaled by 2**-k <= 1/(S + 1), exactly, and the other rows by
    # 2**0, which keeps their bits
    finite = np.where(order < np.inf, order, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        spill = np.add.accumulate(finite, axis=1)[:, -1] + b == np.inf
        k = np.where(spill, -rows.shape[1].bit_length(), 0)[:, None]
        ranks = np.arange(1.0, rows.shape[1] + 1)
        budgets = np.ldexp(b.reshape(-1, 1), k)
        powers, mu = _fill(np.ldexp(order, k), np.ldexp(rows, k), budgets, ranks)
        powers, mu = np.ldexp(powers, -k), np.ldexp(mu, -k)
    if not mu.max() < np.inf:
        raise ValueError("float overflow: the water level is too large for a float")
    if c.ndim == 1:
        return WaterfillResult(powers=powers[0], water_level=float(mu[0, 0]))
    return WaterfillResult(powers=powers, water_level=mu[:, 0])


def _fill(order: np.ndarray, rows: np.ndarray, budgets: np.ndarray, ranks: np.ndarray) -> tuple:
    """(powers, (Q, 1) water levels) of the (Q, S) floor rows, whose sorted
    copy order becomes the powers; budgets is a (Q, 1) column and ranks is
    1.0..S. A +inf row, a NaN or a level past the largest float gives inf or
    NaN powers.

    levels[:, k-1] = (budget + k lowest floors) / k. Filling the k lowest
    floors up to the water level spends at most the budget, so every level
    is at least the water level, and the level of the active set equals it.
    """
    levels = np.add.accumulate(order, axis=1, out=order)
    levels += budgets
    levels /= ranks
    mu = np.minimum.reduce(levels, axis=1, keepdims=True)
    powers = np.subtract(mu, rows, out=order)
    np.maximum(powers, 0.0, out=powers)
    return powers, mu


def best_responses(net: EffectiveNetwork, views: np.ndarray) -> np.ndarray:
    """Stacked water-filling response of every user, in one batched step.

    views is as for stream_floors; user q responds to its own view. The
    budgets and shapes are those validate_config and the layout fixed, so
    _fill runs without water_level's checks; floors that overflow give
    responses that are not finite, which the game's residual catches.
    """
    layout = net.config.layout
    floors = stream_floors(net, views)
    order = floors.copy()
    order.sort()
    powers, _ = _fill(order, floors, layout.budget_column, layout.ranks)
    return powers.take(layout.antenna_slots)


def user_rates(net: EffectiveNetwork, x: np.ndarray) -> np.ndarray:
    """Rate of every user at a stacked power vector x, as a (Q,) array."""
    floors = stream_floors(net, x)
    p = np.zeros(floors.shape)
    p.put(net.config.layout.antenna_slots, x)
    return np.log2(1.0 + p / floors).sum(axis=1)


def sum_rate(net: EffectiveNetwork, x: np.ndarray) -> float:
    """Network sum rate at x, every user treating interference as noise."""
    return float(user_rates(net, x).sum())
