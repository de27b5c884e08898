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
    """Per-user power vectors, one entry per transmit antenna."""

    powers: list[np.ndarray]

    def stacked(self) -> np.ndarray:
        return np.concatenate(self.powers)

    def copy(self) -> "PowerProfile":
        return PowerProfile([p.copy() for p in self.powers])


@dataclass(frozen=True)
class WaterfillResult:
    """Solution of one water-filling problem, or of a batch of them.

    powers[..., i] = max(water_level - floors[..., i], 0). For a single
    problem water_level is a float; for a (Q, S) batch it is a (Q,) array.
    """

    powers: np.ndarray
    water_level: float | np.ndarray

    @property
    def active_set(self) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Indices receiving positive power; a (row, stream) pair for a batch."""
        active = np.nonzero(self.powers > 0)
        return active[0] if self.powers.ndim == 1 else active


def validate_profile(profile: PowerProfile, config: NetworkConfig) -> PowerProfile:
    """Check shapes, nonnegativity and per-user budget feasibility.

    A user may exceed its budget by BUDGET_TOL times the larger of one and
    the budget, which absorbs the rounding of a split that sums to it.
    The whole profile is checked at once; the error names the first
    offending user.
    """
    if len(profile.powers) != config.num_users:
        raise ValueError(
            f"profile has {len(profile.powers)} users, config has {config.num_users}"
        )
    budget = np.array(config.power_budget)
    limit = budget + BUDGET_TOL * np.maximum(1.0, budget)
    shapes = [(t,) for t in config.tx_antennas]
    if [p.shape for p in profile.powers] == shapes:
        x = np.concatenate(profile.powers)
        sums = np.add.reduceat(x, np.array((0, *config.tx_antennas[:-1])).cumsum())
        if x.min() >= 0 and (sums <= limit).all():
            return profile
    for q, p in enumerate(profile.powers):
        if p.shape != shapes[q]:
            raise ValueError(
                f"user {q} power vector has shape {p.shape}, "
                f"expected ({config.tx_antennas[q]},)"
            )
        if np.any(p < 0):
            raise ValueError(f"user {q} has a negative power entry")
        if p.sum() > limit[q]:
            raise ValueError(
                f"user {q} exceeds its power budget: {p.sum()!r} > "
                f"{config.power_budget[q]!r}"
            )
    return profile


def uniform_profile(config: NetworkConfig) -> PowerProfile:
    """Budget split evenly across each user's transmit antennas."""
    return PowerProfile(
        [
            np.full(config.tx_antennas[q], config.power_budget[q] / config.tx_antennas[q])
            for q in range(config.num_users)
        ]
    )


def greedy_profile(config: NetworkConfig) -> PowerProfile:
    """Entire budget on the strongest stream (first antenna after rotation)."""
    powers = []
    for q in range(config.num_users):
        p = np.zeros(config.tx_antennas[q])
        p[0] = config.power_budget[q]
        powers.append(p)
    return PowerProfile(powers)


def random_profile(config: NetworkConfig, rng: np.random.Generator) -> PowerProfile:
    """Random nonnegative split of each user's full budget, from one draw."""
    w = rng.random(sum(config.tx_antennas))
    powers, start = [], 0
    for budget, t in zip(config.power_budget, config.tx_antennas):
        part = w[start : start + t]
        powers.append(budget * part / part.sum())
        start += t
    return PowerProfile(powers)


def stream_floors(net: EffectiveNetwork, views: np.ndarray) -> np.ndarray:
    """Normalized interference-plus-noise floor of every user's streams.

    views is one stacked power vector seen by every user, or a (Q, N) array
    whose row q is user q's view. Returns a (Q, T) array laid out like
    net.stream_noise: entry (q, s) is the cross-link power leaking into
    stream s of user q, divided by its squared singular value, plus the
    noise floor; slots without a stream are +inf.
    """
    if views.ndim == 1:
        leak = (net.coupling @ views)[net.stream_index]
    else:
        users = np.arange(views.shape[0])[:, None]
        leak = (views @ net.coupling.T)[users, net.stream_index]
    return net.stream_noise + leak


def water_level(floors: np.ndarray, budget: float | np.ndarray) -> WaterfillResult:
    """Exact water-filling of a budget over per-stream floors.

    floors is one (S,) problem or a (Q, S) batch with a (Q,) budget vector,
    one problem per row; a +inf floor marks a slot that gets no power, so
    rows of different lengths can share one batch. Each row sorts its
    floors and picks the largest active set whose common water level sits
    above its highest floor; no iteration is involved.

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

    # levels[:, k-1] = (budget + k lowest floors) / k
    levels = np.add.accumulate(order, axis=1)
    levels += b.reshape(-1, 1)
    levels /= np.arange(1.0, size + 1)
    feasible = levels > order
    feasible[:, 0] = True  # as in exact arithmetic, where budget > 0 ensures it
    k_star = size - 1 - feasible[:, ::-1].argmax(axis=1)
    mu = levels[np.arange(n_rows), k_star]
    powers = np.maximum(mu[:, None] - rows, 0.0).reshape(c.shape)
    return WaterfillResult(powers=powers, water_level=float(mu[0]) if c.ndim == 1 else mu)


def best_responses(net: EffectiveNetwork, views: np.ndarray) -> np.ndarray:
    """Stacked water-filling response of every user, in one batched step.

    views is as for stream_floors; user q responds to its own view.
    """
    floors = stream_floors(net, views)
    return water_level(floors, net.budget).powers[net.antenna_mask]


def user_rates(net: EffectiveNetwork, x: np.ndarray) -> np.ndarray:
    """Rate of every user at a stacked power vector x, as a (Q,) array."""
    floors = stream_floors(net, x)
    p = np.zeros(floors.shape)
    p[net.antenna_mask] = x
    return np.log2(1.0 + p / floors).sum(axis=1)


def sum_rate(net: EffectiveNetwork, profile: PowerProfile) -> float:
    """Network sum rate with every user treating interference as noise."""
    return float(user_rates(net, profile.stacked()).sum())
