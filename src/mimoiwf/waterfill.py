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
    """Solution of a single water-filling problem.

    powers[i] = max(water_level - floors[i], 0); active_set lists the
    indices receiving positive power.
    """

    powers: np.ndarray
    water_level: float
    active_set: np.ndarray


def validate_profile(profile: PowerProfile, config: NetworkConfig) -> PowerProfile:
    """Check nonnegativity and per-user budget feasibility."""
    if len(profile.powers) != config.num_users:
        raise ValueError(
            f"profile has {len(profile.powers)} users, config has {config.num_users}"
        )
    for q, p in enumerate(profile.powers):
        if p.shape != (config.tx_antennas[q],):
            raise ValueError(
                f"user {q} power vector has shape {p.shape}, "
                f"expected ({config.tx_antennas[q]},)"
            )
        if np.any(p < 0):
            raise ValueError(f"user {q} has a negative power entry")
        if p.sum() > config.power_budget[q] + BUDGET_TOL:
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
    """Random nonnegative split of each user's full budget."""
    powers = []
    for q in range(config.num_users):
        w = rng.random(config.tx_antennas[q])
        powers.append(config.power_budget[q] * w / w.sum())
    return PowerProfile(powers)


def interference_plus_noise(net: EffectiveNetwork, x: np.ndarray, q: int) -> np.ndarray:
    """Normalized interference-plus-noise floor of user q's streams.

    x is a stacked power vector. Component i is the aggregate cross-link
    power leaking into stream i, divided by the stream's squared singular
    value, plus the noise floor.
    """
    start = net.offsets[q]
    return net.noise_floor[q] + net.coupling[start : start + net.num_streams(q)] @ x


def water_level(floors: np.ndarray, budget: float) -> WaterfillResult:
    """Exact water-filling of a budget over per-stream floors.

    Sorts the floors and picks the largest active set whose common water
    level sits above its highest floor; no iteration is involved.

    Raises:
        ValueError: on an empty floor vector, non-finite floors, or a
            non-positive budget.
    """
    c = np.asarray(floors, dtype=float)
    if c.size == 0:
        raise ValueError("floors must be non-empty")
    if not np.all(np.isfinite(c)) or np.any(c < 0):
        raise ValueError("floors must be finite and nonnegative")
    if not np.isfinite(budget) or budget <= 0:
        raise ValueError(f"budget must be positive and finite, got {budget!r}")

    order = np.sort(c)
    cum = np.cumsum(order)
    k = np.arange(1, c.size + 1)
    levels = (budget + cum) / k
    feasible = levels > order  # k=1 is always feasible since budget > 0
    k_star = int(np.flatnonzero(feasible)[-1])
    mu = float(levels[k_star])
    powers = np.maximum(mu - c, 0.0)
    return WaterfillResult(
        powers=powers, water_level=mu, active_set=np.flatnonzero(powers > 0)
    )


def best_response(net: EffectiveNetwork, x: np.ndarray, q: int) -> np.ndarray:
    """Water-filling response of user q against a stacked power vector x.

    Returns a vector over all tx_antennas[q] antennas; antennas beyond the
    number of usable streams get zero power.
    """
    c = interference_plus_noise(net, x, q)
    wf = water_level(c, net.config.power_budget[q])
    out = np.zeros(net.config.tx_antennas[q])
    out[: c.size] = wf.powers
    return out


def user_rate(powers: np.ndarray, floors: np.ndarray) -> float:
    """Sum of log2(1 + p_i / c_i) over the streams covered by floors."""
    c = np.asarray(floors, dtype=float)
    if np.any(c <= 0):
        raise ValueError("floors must be strictly positive")
    p = np.asarray(powers, dtype=float)[: c.size]
    return float(np.sum(np.log2(1.0 + p / c)))


def sum_rate(net: EffectiveNetwork, profile: PowerProfile) -> float:
    """Network sum rate with every user treating interference as noise."""
    x = profile.stacked()
    return sum(
        user_rate(p, interference_plus_noise(net, x, q)) for q, p in enumerate(profile.powers)
    )
