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


@dataclass(frozen=True)
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
    offsets = config.layout.offsets
    x = rng.random(offsets[-1])
    for budget, a, b in zip(config.power_budget, offsets, offsets[1:]):
        part = x[a:b]
        part[:] = budget * part / part.sum()
    return x


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
        leak = (net.coupling @ views)[layout.stream_index]
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

    Raises:
        ValueError: on an empty floor vector, a budget that is neither a
            scalar nor one entry per row, a NaN or negative floor, a row
            without a finite floor, or a non-positive budget.
    """
    c = np.asarray(floors, dtype=float)
    if c.ndim not in (1, 2) or c.shape[-1] == 0:
        raise ValueError(f"floors must be a non-empty vector or (Q, S) array, got {c.shape}")
    rows = c.reshape(-1, c.shape[-1])
    n_rows, size = rows.shape
    b = np.asarray(budget, dtype=float)
    if b.shape not in ((), (n_rows,)):
        raise ValueError(f"budget of shape {b.shape} does not fit floors of shape {c.shape}")
    order = np.sort(rows, axis=1)
    # a NaN sorts last, and hi != hi only for a NaN
    lowest, highest = order[:, 0].tolist(), order[:, -1].tolist()
    if not all(0 <= lo < np.inf and hi == hi for lo, hi in zip(lowest, highest)):
        raise ValueError("floors must be nonnegative, with a finite floor in every row")
    if not all(0 < v < np.inf for v in b.ravel().tolist()):
        raise ValueError(f"budget must be positive and finite, got {budget!r}")

    # levels[:, k-1] = (budget + k lowest floors) / k. Filling the k lowest
    # floors up to the water level spends at most the budget, so every level
    # is at least the water level, and the level of the active set equals it.
    levels = np.add.accumulate(order, axis=1)
    levels += b.reshape(-1, 1)
    levels /= np.arange(1.0, size + 1)
    mu = levels.min(axis=1)
    powers = np.maximum(mu[:, None] - rows, 0.0).reshape(c.shape)
    return WaterfillResult(powers=powers, water_level=float(mu[0]) if c.ndim == 1 else mu)


def best_responses(net: EffectiveNetwork, views: np.ndarray) -> np.ndarray:
    """Stacked water-filling response of every user, in one batched step.

    views is as for stream_floors; user q responds to its own view.
    """
    layout = net.config.layout
    floors = stream_floors(net, views)
    return water_level(floors, layout.budget).powers[layout.antenna_mask]


def user_rates(net: EffectiveNetwork, x: np.ndarray) -> np.ndarray:
    """Rate of every user at a stacked power vector x, as a (Q,) array."""
    floors = stream_floors(net, x)
    p = np.zeros(floors.shape)
    p[net.config.layout.antenna_mask] = x
    return np.log2(1.0 + p / floors).sum(axis=1)


def sum_rate(net: EffectiveNetwork, x: np.ndarray) -> float:
    """Network sum rate at x, every user treating interference as noise."""
    return float(user_rates(net, x).sum())
