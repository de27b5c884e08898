"""Network description and random channel generation for MIMO interference links.

A network is a set of transmit-receive pairs that interfere with each other.
Channel matrices are drawn as circularly symmetric complex Gaussian entries
with a distance-based power-law attenuation applied per link.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np


class ConfigError(ValueError):
    """Raised when a network description is inconsistent or out of range."""


@dataclass(frozen=True)
class NetworkConfig:
    """Static description of an interference network.

    Attributes:
        num_users: number of transmit-receive pairs.
        tx_antennas: transmit antenna count per user.
        rx_antennas: receive antenna count per user.
        power_budget: per-user total transmit power (linear scale).
        noise_power: per-user receiver noise power (linear scale).
        direct_distance: distance of each user's own link.
        cross_distance: cross_distance[r][q] is the distance from
            transmitter r to receiver q; the diagonal repeats
            direct_distance by convention.
        pathloss_exponent: exponent of the power-law attenuation.

    Construction stores the per-user fields and the cross_distance rows as
    tuples, then runs validate_config, so every instance is consistent and
    hashable. The layout is not a field: equality, hashing, repr, replace
    and pickling see the fields only.
    """

    num_users: int
    tx_antennas: tuple[int, ...]
    rx_antennas: tuple[int, ...]
    power_budget: tuple[float, ...]
    noise_power: tuple[float, ...]
    direct_distance: tuple[float, ...]
    cross_distance: tuple[tuple[float, ...], ...]
    pathloss_exponent: float

    def __post_init__(self) -> None:
        for name in _PER_USER:
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "cross_distance", tuple(map(tuple, self.cross_distance)))
        validate_config(self)

    def __getstate__(self) -> dict:
        # a copy builds its own layout, read-only, on its first read
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def layout(self) -> _Layout:
        """Arrays that depend on this config alone, built on first read and kept."""
        return _Layout(self)


_PER_USER = ("tx_antennas", "rx_antennas", "power_budget", "noise_power", "direct_distance")


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of all channel matrices, stacked, or a stack of K draws.

    links[r, q] holds the matrix that maps the signal of transmitter r into
    receiver q, of shape (rx_antennas[q], tx_antennas[r]), in its top-left
    corner; the rest of the (max rx, max tx) slot is zero. A stack of K
    draws has links of shape (K, Q, Q, max rx, max tx) and one seed per
    draw. The array is read-only.
    """

    links: np.ndarray
    tx_antennas: tuple[int, ...]
    rx_antennas: tuple[int, ...]
    seed: int | tuple[int, ...]

    @classmethod
    def from_matrices(cls, matrices, seed: int) -> "ChannelRealization":
        """Stack matrices[r][q] of shape (rx[q], tx[r]) into one realization.

        Raises:
            ValueError: when the shapes do not fit one antenna count per
                transmitter and per receiver.
        """
        n = len(matrices)
        for r in range(n):
            if len(matrices[r]) != n or np.ndim(matrices[r][r]) != 2:
                raise ValueError(f"matrices[{r}] must have {n} entries, entry {r} a 2-D matrix")
        rx, tx = zip(*(np.shape(matrices[r][r]) for r in range(n)))
        links = np.zeros((n, n, max(rx), max(tx)), dtype=complex)
        for r in range(n):
            for q in range(n):
                h = np.asarray(matrices[r][q])
                if h.shape != (rx[q], tx[r]):
                    raise ValueError(
                        f"matrices[{r}][{q}] has shape {h.shape}, expected {(rx[q], tx[r])}"
                    )
                links[r, q, : rx[q], : tx[r]] = h
        links.setflags(write=False)
        return cls(links=links, tx_antennas=tx, rx_antennas=rx, seed=int(seed))


def validate_config(config: NetworkConfig) -> NetworkConfig:
    """Check a NetworkConfig for consistency and return it unchanged.

    Every NetworkConfig is checked when it is built; call this to re-check.

    Raises:
        ConfigError: naming the offending field.
    """
    q_count = config.num_users
    if not _is_count(q_count):
        raise ConfigError(f"num_users must be a positive integer, got {q_count!r}")

    for name in _PER_USER:
        values = getattr(config, name)
        if len(values) != q_count:
            raise ConfigError(f"{name} must have length {q_count}, got {len(values)}")

    for name in ("tx_antennas", "rx_antennas"):
        for k, v in enumerate(getattr(config, name)):
            if not _is_count(v):
                raise ConfigError(f"{name}[{k}] must be a positive integer, got {v!r}")

    for name in ("power_budget", "noise_power", "direct_distance"):
        for k, v in enumerate(getattr(config, name)):
            if not np.isfinite(v) or v <= 0:
                raise ConfigError(f"{name}[{k}] must be positive and finite, got {v!r}")

    cross = config.cross_distance
    if len(cross) != q_count:
        raise ConfigError(f"cross_distance must have {q_count} rows, got {len(cross)}")
    for r, row in enumerate(cross):
        if len(row) != q_count:
            raise ConfigError(f"cross_distance[{r}] must have length {q_count}")
        for q, d in enumerate(row):
            if not np.isfinite(d) or d <= 0:
                raise ConfigError(f"cross_distance[{r}][{q}] must be positive and finite")
        if row[r] != config.direct_distance[r]:
            raise ConfigError(
                f"cross_distance[{r}][{r}] must equal direct_distance[{r}] "
                f"({row[r]!r} != {config.direct_distance[r]!r})"
            )

    if not np.isfinite(config.pathloss_exponent) or config.pathloss_exponent < 0:
        raise ConfigError(
            f"pathloss_exponent must be nonnegative, got {config.pathloss_exponent!r}"
        )
    return config


def _is_count(value) -> bool:
    """A positive int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def symmetric_config(
    num_users: int,
    tx_antennas: int,
    rx_antennas: int,
    power_budget: float,
    noise_power: float,
    direct_distance: float,
    cross_distance: float,
    pathloss_exponent: float,
) -> NetworkConfig:
    """Build a config where every user shares the same scalar parameters."""
    cross = tuple(
        tuple(direct_distance if r == q else cross_distance for q in range(num_users))
        for r in range(num_users)
    )
    return NetworkConfig(
        num_users=num_users,
        tx_antennas=(tx_antennas,) * num_users,
        rx_antennas=(rx_antennas,) * num_users,
        power_budget=(float(power_budget),) * num_users,
        noise_power=(float(noise_power),) * num_users,
        direct_distance=(float(direct_distance),) * num_users,
        cross_distance=cross,
        pathloss_exponent=float(pathloss_exponent),
    )


def pathloss_power_gain(distance: float, exponent: float) -> float:
    """Power attenuation distance**-exponent of a link.

    Raises:
        ConfigError: if distance is not strictly positive or exponent negative.
    """
    if not 0 < distance < np.inf:
        raise ConfigError(f"distance must be positive and finite, got {distance!r}")
    if not 0 <= exponent < np.inf:
        raise ConfigError(f"exponent must be nonnegative, got {exponent!r}")
    return float(distance) ** -float(exponent)


def sample_channels(config: NetworkConfig, seed) -> ChannelRealization:
    """Draw one realization of every channel matrix, or a stack of them.

    Entries are complex Gaussian with unit power (real and imaginary parts
    each have variance 1/2) scaled by the amplitude attenuation
    distance**(-exponent/2) of the link. The stream order is fixed:
    transmitter-major, receiver-minor, entries row-major with the real part
    drawn before the imaginary part, so a given seed always produces the
    same matrices. All entries come from one draw, which the generator
    produces in that same order.

    A sequence of K seeds gives a stack of K realizations, each drawn by its
    own generator exactly as a call with its one seed would draw it.
    """
    layout = config.layout
    stacked = np.ndim(seed) == 1
    seeds = list(seed) if stacked else [seed]
    z = np.empty((len(seeds), layout.link_entries, 2))
    for k, s in enumerate(seeds):
        np.random.default_rng(s).standard_normal(out=z[k])
    links = np.zeros((len(seeds), *layout.link_mask.shape), dtype=complex)
    links[:, layout.link_mask] = z[..., 0] + 1j * z[..., 1]  # fills in r, q, row, col order
    links *= layout.link_amp
    links.setflags(write=False)
    return ChannelRealization(
        links=links if stacked else links[0],
        tx_antennas=config.tx_antennas,
        rx_antennas=config.rx_antennas,
        seed=tuple(map(int, seeds)) if stacked else int(seed),
    )


class _Layout:
    """Arrays that depend on a NetworkConfig alone, all read-only.

    Every draw, network and game of a config reads the one instance kept as
    NetworkConfig.layout. Q users, R = max rx, T = max tx, N = sum(tx).

    Attributes:
        offsets: user q's antennas are offsets[q]:offsets[q + 1] of a
            stacked power vector; offsets[-1] is N.
        stream_index: (Q, T) stacked position of user q's antenna s, or -1
            when s >= tx_antennas[q].
        antenna_mask: (Q, T) stream_index >= 0; a (Q, T) array masked by it
            lists its antenna slots in stacked order.
        leak_index: (Q, T) position of slot (q, s) in a raveled (Q, N)
            array: q * N + stream_index[q, s], or q * N without antenna s.
        budget: (Q,) config.power_budget as a float array.
    """

    def __init__(self, config: NetworkConfig):
        n_users = config.num_users
        tx, rx = np.array(config.tx_antennas), np.array(config.rx_antennas)
        t_max, streams = tx.max(), min(tx.max(), rx.max())
        slot = np.arange(t_max)
        # (Q, Q, R, T) entries of every link, r-major, their count, and the
        # (Q, Q, 1, 1) amplitude attenuation of each link over sqrt(2)
        self.link_mask = (np.arange(rx.max())[:, None] < rx[None, :, None, None]) & (
            slot < tx[:, None, None, None]
        )
        self.link_entries = int(self.link_mask.sum())
        gamma = config.pathloss_exponent
        gain = [[pathloss_power_gain(d, gamma) for d in row] for row in config.cross_distance]
        self.link_amp = (np.sqrt(gain) / np.sqrt(2.0))[:, :, None, None]
        shapes = list(zip(config.rx_antennas, config.tx_antennas))
        # ((rx, tx), the users whose direct link has that shape) per shape
        self.svd_groups = tuple(
            (shape, np.flatnonzero([s == shape for s in shapes])) for shape in dict.fromkeys(shapes)
        )
        self.is_stream = slot < np.minimum(tx, rx)[:, None]
        self.noise = np.array(config.noise_power, dtype=float)[:, None]
        self.budget = np.array(config.power_budget, dtype=float)
        ends = np.cumsum(tx)
        self.offsets = (0, *ends.tolist())
        self.starts = ends - tx
        self.antennas = np.arange(ends[-1])
        self.owner = np.arange(n_users).repeat(tx)  # user of each antenna
        self.antenna_mask = slot < tx[:, None]
        self.stream_index = np.where(self.antenna_mask, self.starts[:, None] + slot, -1)
        self.leak_index = np.arange(n_users)[:, None] * ends[-1] + self.stream_index.clip(0)
        # flat position of coupling entry (q, i), (r, j) in a (Q, Q, min(R, T), T)
        # gain array indexed [r, q, i, j]; rows past min(R, T) read [0, 0, 0, 0],
        # which the zeroed direct links keep at 0
        q, i = self.owner, self.antennas - self.starts[self.owner]
        flat = ((q * n_users + q[:, None]) * streams + i[:, None]) * t_max + i
        self.coupling_index = np.where(i[:, None] < streams, flat, 0)
        for a in (*vars(self).values(), *(group for _, group in self.svd_groups)):
            if isinstance(a, np.ndarray):
                a.setflags(write=False)

