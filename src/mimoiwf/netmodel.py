"""Network description and random channel generation for MIMO interference links.

A network is a set of transmit-receive pairs that interfere with each other.
Channel matrices are drawn as circularly symmetric complex Gaussian entries
with a distance-based power-law attenuation applied per link.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from functools import cache, cached_property, lru_cache

import numpy as np


class ConfigError(ValueError):
    """Raised when a network description is inconsistent or out of range."""


# the largest finite float, past which an int passes "< inf" but is no float;
# numpy compares a float32 with it in float64 only when it is a float64 scalar
FLOAT_MAX = float(np.finfo(float).max)
_FLOAT64_MAX = np.float64(FLOAT_MAX)


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

    A per-user field given as a list, a tuple or an array holds one entry
    per user; any other value, a number say, is that value for every user.
    A cross_distance that is not a sequence of rows is the distance of every
    cross link, with direct_distance[r] on the diagonal. Construction stores
    the per-user fields and the cross_distance rows as tuples, then runs
    validate_config, so every instance is consistent and hashable. The
    layout is not a field: equality, hashing, repr, replace and pickling
    see the fields only.
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
        check_count("num_users", self.num_users, 1)  # a scalar is this many entries
        for name in _PER_USER:
            value = getattr(self, name)
            value = tuple(value) if _is_sequence(value) else (value,) * self.num_users
            object.__setattr__(self, name, value)
        cross, direct = self.cross_distance, self.direct_distance
        rows = cross if _is_sequence(cross) else [
            [d if r == q else cross for q in range(len(direct))] for r, d in enumerate(direct)
        ]
        for r, row in enumerate(rows):
            if not _is_sequence(row):
                message = f"cross_distance[{r}] must be a sequence, one entry per user, got {row!r}"
                raise ConfigError(message)
        object.__setattr__(self, "cross_distance", tuple(map(tuple, rows)))
        validate_config(self)

    def __getstate__(self) -> dict:
        # a copy builds its own layout, read-only, on its first read
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def layout(self) -> _Layout:
        """Arrays that depend on this config alone, built on first read and kept."""
        return _Layout(self)


_PER_USER = ("tx_antennas", "rx_antennas", "power_budget", "noise_power", "direct_distance")


def _is_sequence(value) -> bool:
    """A list, a tuple or an array of at least one dimension; a string or a
    mapping is one value."""
    return isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim > 0


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of all channel matrices, stacked, or a stack of K draws.

    links[r, q] holds the matrix that maps the signal of transmitter r into
    receiver q, of shape (rx_antennas[q], tx_antennas[r]), in its top-left
    corner; the rest of the (max rx, max tx) slot is zero. A stack of K
    draws has links of shape (K, Q, Q, max rx, max tx). The array is
    read-only.
    """

    links: np.ndarray
    tx_antennas: tuple[int, ...]
    rx_antennas: tuple[int, ...]

    @classmethod
    def from_matrices(cls, matrices) -> "ChannelRealization":
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
        return cls(links=links, tx_antennas=tx, rx_antennas=rx)


def validate_config(config: NetworkConfig) -> NetworkConfig:
    """Check a NetworkConfig for consistency and return it unchanged.

    Every NetworkConfig is checked when it is built; call this to re-check.

    Raises:
        ConfigError: naming the offending field.
    """
    q_count = config.num_users
    check_count("num_users", q_count, 1)

    for name in _PER_USER:
        values = getattr(config, name)
        if len(values) != q_count:
            raise ConfigError(f"{name} must have length {q_count}, got {len(values)}")

    for name in ("tx_antennas", "rx_antennas"):
        for k, v in enumerate(getattr(config, name)):
            check_count(f"{name}[{k}]", v, 1)

    for name in ("power_budget", "noise_power", "direct_distance"):
        for k, v in enumerate(getattr(config, name)):
            check_number(f"{name}[{k}]", v, "positive", ConfigError)

    cross = config.cross_distance
    if len(cross) != q_count:
        raise ConfigError(f"cross_distance must have {q_count} rows, got {len(cross)}")
    for r, row in enumerate(cross):
        if len(row) != q_count:
            raise ConfigError(f"cross_distance[{r}] must have length {q_count}")
        for q, d in enumerate(row):
            check_number(f"cross_distance[{r}][{q}]", d, "positive", ConfigError)
        if row[r] != config.direct_distance[r]:
            raise ConfigError(
                f"cross_distance[{r}][{r}] must equal direct_distance[{r}] "
                f"({row[r]!r} != {config.direct_distance[r]!r})"
            )

    check_number("pathloss_exponent", config.pathloss_exponent, "nonnegative", ConfigError)
    _link_gains(config)
    return config


def _link_gains(config: NetworkConfig) -> list[list[float]]:
    """[r][q] power gain distance**-exponent of every link of a config whose
    distances and exponent are checked numbers.

    Raises:
        ConfigError: naming the first link whose gain passes the largest
            float, which only a link shorter than 1 can.
    """
    gamma = -float(config.pathloss_exponent)
    gains: list[list[float]] = []
    for r, row in enumerate(config.cross_distance):
        gains.append([])
        for q, d in enumerate(row):
            try:
                gains[r].append(float(d) ** gamma)
            except OverflowError:
                link = f"direct_distance[{r}]" if r == q else f"cross_distance[{r}][{q}]"
                raise ConfigError(
                    f"{link} = {d!r} with pathloss_exponent {config.pathloss_exponent!r} "
                    "gives a path-loss gain too large for a float"
                ) from None
    return gains


def is_integer(value) -> bool:
    """An int, numpy's included, that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_number(value) -> bool:
    """An int or a float, numpy's included, that is not a bool (nor a string)."""
    return is_integer(value) or isinstance(value, (float, np.floating))


def check_count(name: str, value, low: int, error: type[Exception] = ConfigError) -> None:
    """Raise error naming a count that is not an integer (a bool is not) at least low."""
    if not (is_integer(value) and value >= low):
        raise error(f"{name} must be an integer >= {low}, got {value!r}")


def check_number(name: str, value, within=None, error: type[Exception] = ValueError) -> None:
    """Raise error naming value unless it is one number (a bool, a string or a
    list is not) in the range within: None, "finite", "nonnegative" or
    "positive", each ending at the largest float; None holds any float and
    any int that fits one."""
    if not (is_number(value) and _in_range(value, within)):
        if within is None and is_number(value):
            raise error(f"{name} is too large for a float, got {value!r}")
        words = {None: "", "finite": "finite "}.get(within, f"{within} finite ")
        raise error(f"{name} must be a {words}number, got {value!r}")


def check_numbers(name: str, value, within=None, error: type[Exception] = ValueError) -> None:
    """check_number on each entry of value, a number or a nested list, tuple
    or array of them, named as x[1][0]; a numeric ndarray passes on its
    dtype, or on one vectorized test in a range."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "iuf" and (within is None or _in_range(value, within).all()):
            return
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        for i, entry in enumerate(value):
            check_numbers(f"{name}[{i}]", entry, within, error)
    else:
        check_number(name, value, within, error)


def _in_range(value, within):
    """Whether a number, or each entry of a numeric array, is in the range
    within; with none, whether a number fits a float."""
    if within is None:
        return isinstance(value, (float, np.floating)) or abs(value) <= FLOAT_MAX
    high = _FLOAT64_MAX if isinstance(value, (np.ndarray, np.generic)) else FLOAT_MAX
    low = -high if within == "finite" else 0
    return (value > low if within == "positive" else value >= low) & (value <= high)


# What the configs of one stack must share: all that a rotation reads
# besides the drawn links, so that the first config's layout serves every
# draw. A certificate's slot view needs only the tx counts, but networks
# rotated in one stack share all three anyway.
_STACK_SHARED = ("tx_antennas", "rx_antennas", "noise_power")


def stack_configs(
    config: NetworkConfig | list[NetworkConfig], count: int
) -> list[NetworkConfig]:
    """The config of each of count stacked draws: config itself for every draw,
    or a sequence of one config per draw.

    Raises:
        ValueError: on a sequence of another length, or naming the first
            antenna count or noise on which two configs differ.
    """
    if isinstance(config, NetworkConfig):
        return [config] * count
    configs = list(config)
    if len(configs) != count:
        raise ValueError(f"a stack of {count} draws needs one config per draw, got {len(configs)}")
    for k in range(1, count):
        first, other = configs[0], configs[k]
        if other is configs[k - 1]:
            continue  # checked as the draw before
        for name in _STACK_SHARED:
            if getattr(other, name) != getattr(first, name):
                raise ValueError(
                    f"configs of one stack must share {name}: config {k} has "
                    f"{getattr(other, name)!r}, config 0 {getattr(first, name)!r}"
                )
    return configs


# numpy's SeedSequence: its hash constants and multipliers, the 32-bit
# xorshift of its hashes, and the pool of four words. NEP 19 keeps
# SeedSequence seeding stable across numpy versions.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
# 0-d arrays: numpy applies them faster than numpy scalars
_MIX_L, _MIX_R, _XSHIFT = (np.array(v, dtype=np.uint32) for v in (0xCA01F9DD, 0x4973F715, 16))
_POOL = 4


def _hash_columns(init: int, mult: int, count: int) -> tuple:
    """(xor, mult) (count, 1) uint32 columns of count running hashes: hash i
    xors init * mult**i and multiplies by init * mult**(i + 1), mod 2**32."""
    c = [init]
    for _ in range(count):
        c.append(c[-1] * mult & _M32)
    column = np.array(c, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


def _hashmix(v: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of every row of v, row i with constants xor[i], mult[i]."""
    v = v ^ xor
    v *= mult
    v ^= v >> _XSHIFT
    return v


# SeedSequence's first 16 hashes fill and stir the pool whatever the
# entropy: hashes 0-3 fill it, then each word src in turn is hashed into the
# three others by hashes 4 + 3*src onward. A stir round holds their
# constants in the rows of the words they go into, with a spare zero row at
# src whose result is put back.
_A = _hash_columns(_INIT_A, _MULT_A, _POOL * _POOL)
_FILL = tuple(c[:_POOL] for c in _A)
_STIR = [
    tuple(np.insert(c[_POOL + 3 * src : _POOL + 3 * src + 3], src, 0, axis=0) for c in _A)
    for src in range(_POOL)
]


def _pool_words(entropy: np.ndarray, count: int) -> np.ndarray:
    """(count, K) uint32 generate_state words of the (4, K) entropy words.

    Every SeedSequence of at most four entropy words makes the same hashes
    in the same order, so each step runs on all K columns at once. The
    arithmetic is on uint32 arrays, which wrap without a warning.
    """
    pool = _hashmix(entropy, *_FILL)
    for src, (xor, mult) in enumerate(_STIR):
        new = pool * _MIX_L
        new -= _hashmix(pool[src], xor, mult) * _MIX_R
        new ^= new >> _XSHIFT
        new[src] = pool[src]
        pool = new
    return _hashmix(pool[np.arange(count) % _POOL], *_hash_columns(_INIT_B, _MULT_B, count))


def _word_count(value: int) -> int:
    """32-bit words of a nonnegative integer as numpy coerces it: 0 is one word."""
    return max(1, -(-value.bit_length() // 32))


def seed_words(entropies, n: int) -> np.ndarray:
    """(K, n) uint64 array whose row k is
    np.random.SeedSequence(entropies[k]).generate_state(n, np.uint64).

    The entropies are K nonnegative integers, or K tuples of m of them. As
    numpy does, each integer becomes its little-endian 32-bit words (0 is
    one word) and a tuple's words are concatenated. Entropy of at most four
    words, with one word count per tuple position but the last (the pool
    pads short entropy with zero words), is hashed in one pass on all K
    rows. Any other call builds one numpy SeedSequence per row.

    Raises:
        ValueError: on a negative integer, or on tuples of several lengths.
        TypeError: on a non-integer.
    """
    table = [e if isinstance(e, tuple) else (e,) for e in entropies]
    if len(set(map(len, table))) > 1:
        raise ValueError("entropies must be integers or tuples of one length")
    columns = [list(map(operator.index, c)) for c in zip(*table)]
    if columns and min(map(min, columns)) < 0:
        raise ValueError("expected non-negative integers")
    # the word count grows with the integer, so a column has one count when
    # its smallest and largest entries do; the last column may mix counts
    widths = [_word_count(max(c)) for c in columns]
    if sum(widths) > _POOL or any(_word_count(min(c)) != w for c, w in zip(columns[:-1], widths)):
        return np.array([np.random.SeedSequence(e).generate_state(n, np.uint64) for e in table])
    words = [[v >> 32 * i & _M32 for v in c] for c, w in zip(columns, widths) for i in range(w)]
    entropy = np.zeros((_POOL, len(table)), dtype=np.uint32)
    for i, w in enumerate(words):
        entropy[i] = w
    # each pair of words is one uint64, low word first, as numpy reads them
    state = np.ascontiguousarray(_pool_words(entropy, 2 * n).T, dtype="<u4")
    return state.view("<u8").astype(np.uint64, copy=False)


def default_rngs(seeds) -> list[np.random.Generator]:
    """np.random.default_rng(seed) of every nonnegative integer seed, from one
    seed_words pass.

    Each generator's PCG64 is handed its seed's four words through an
    ISeedSequence, so numpy's own set-seed runs on them.
    """
    given = _given_words()
    return [np.random.Generator(np.random.PCG64(given(w))) for w in seed_words(seeds, 4)]


@cache
def _given_words() -> type:
    """The ISeedSequence class that hands PCG64 words already generated, built
    on first use: importing the package does not load numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class GivenWords(ISeedSequence):
        # PCG64 asks for generate_state(4, np.uint64) once, when it is built
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return self.words

    return GivenWords


def sample_channels(
    config: NetworkConfig | list[NetworkConfig], seed
) -> ChannelRealization:
    """Draw one realization of every channel matrix, or a stack of them.

    Entries are complex Gaussian with unit power (real and imaginary parts
    each have variance 1/2) scaled by the amplitude attenuation
    distance**(-exponent/2) of the link. The stream order is fixed:
    transmitter-major, receiver-minor, entries row-major with the real part
    drawn before the imaginary part, so a given seed always produces the
    same matrices. All entries come from one draw, which the generator
    produces in that same order.

    A seed is a nonnegative integer or a Generator, and the draw reads the
    stream of np.random.default_rng(seed), which advances a Generator. A
    sequence of K seeds gives a stack of K realizations, each drawn
    exactly as a call with its one seed would draw it. config
    is one NetworkConfig for every draw, or a list of one per draw (of one,
    for a single seed), as for stack_configs; each draw is scaled by its own
    config's attenuation. No seeds and an empty list of configs give an
    empty stack with no antennas.

    Raises:
        ValueError: naming a seed that is neither a Generator nor an integer
            (a bool is not) >= 0, such as seed[1]; and as stack_configs does.
    """
    stacked = np.ndim(seed) == 1
    seeds = list(seed) if stacked else [seed]
    for k, s in enumerate(seeds):
        if not isinstance(s, np.random.Generator):
            check_count(f"seed[{k}]" if stacked else "seed", s, 0, ValueError)
    configs = stack_configs(config, len(seeds))
    base = configs[0] if configs else config  # an empty stack of one config
    if not isinstance(base, NetworkConfig):  # no draws and no config: no antennas either
        links = np.zeros((0,) * 5, dtype=complex)
        links.setflags(write=False)
        return ChannelRealization(links=links, tx_antennas=(), rx_antennas=())
    layout = base.layout
    z = np.empty((len(seeds), layout.link_entries, 2))
    for s, row in zip(seeds, z):
        np.random.default_rng(s).standard_normal(out=row)
    links = np.zeros((len(seeds), *layout.link_mask.shape), dtype=complex)
    links[:, layout.link_mask] = z[..., 0] + 1j * z[..., 1]  # fills in r, q, row, col order
    links *= np.concatenate([c.layout.link_amp for c in configs] or [layout.link_amp])
    links.setflags(write=False)
    return ChannelRealization(
        links=links if stacked else links[0],
        tx_antennas=base.tx_antennas,
        rx_antennas=base.rx_antennas,
    )


class _Layout:
    """Arrays that depend on a NetworkConfig alone, all read-only.

    Every draw, network and game of a config reads the one instance kept as
    NetworkConfig.layout. Four arrays are the config's own: link_amp,
    noise, budget and budget_column. The others depend on the antenna
    counts alone and are those of _Shape, shared by every config with the
    same counts. Q users, R = max rx, T = max tx, N = sum(tx).

    Attributes:
        offsets: user q's antennas are offsets[q]:offsets[q + 1] of a
            stacked power vector; offsets[-1] is N.
        stream_index: (Q, T) stacked position of user q's antenna s, or -1
            when s >= tx_antennas[q].
        antenna_slots: the flat positions of the (Q, T) slots where
            stream_index >= 0, in order, so that a (Q, T) array's take of
            them lists its antenna slots in stacked order.
        ranks: 1.0..T, the count of each prefix of a row of T floors.
        leak_index: (Q, T) position of slot (q, s) in a raveled (Q, N)
            array: q * N + stream_index[q, s], or q * N without antenna s.
        budget: (Q,) config.power_budget as a float array, and
            budget_column the same as a (Q, 1) column.
        streams: stacked positions of the antennas that carry a stream,
            user q's first min(tx, rx) antennas, in stacked order.
    """

    def __init__(self, config: NetworkConfig):
        vars(self).update(vars(_shape_of(config.tx_antennas, config.rx_antennas)))
        gain = _link_gains(config)
        # the (1, Q, Q, 1, 1) amplitude attenuation of each link over sqrt(2),
        # as for a stack of one draw
        self.link_amp = (np.sqrt(gain) / np.sqrt(2.0))[None, :, :, None, None]
        self.noise = np.array(config.noise_power, dtype=float)[:, None]
        self.budget = np.array(config.power_budget, dtype=float)
        self.budget_column = self.budget[:, None]
        for a in (self.link_amp, self.noise, self.budget, self.budget_column):
            a.setflags(write=False)


@lru_cache(maxsize=64)
def _shape_of(tx_antennas: tuple[int, ...], rx_antennas: tuple[int, ...]) -> _Shape:
    """The _Shape of some antenna counts, built on their first use and kept
    while they are among the 64 counts used last."""
    return _Shape(tx_antennas, rx_antennas)


class _Shape:
    """The read-only arrays of a _Layout that depend on the antenna counts alone."""

    def __init__(self, tx_antennas: tuple[int, ...], rx_antennas: tuple[int, ...]):
        n_users = len(tx_antennas)
        tx, rx = np.array(tx_antennas), np.array(rx_antennas)
        t_max, streams = tx.max(), min(tx.max(), rx.max())
        slot = np.arange(t_max)
        # (Q, Q, R, T) entries of every link, r-major, and their count
        self.link_mask = (np.arange(rx.max())[:, None] < rx[None, :, None, None]) & (
            slot < tx[:, None, None, None]
        )
        self.link_entries = int(self.link_mask.sum())
        shapes = list(zip(rx_antennas, tx_antennas))
        # ((rx, tx), the users whose direct link has that shape) per shape
        self.svd_groups = tuple(
            (shape, np.flatnonzero([s == shape for s in shapes])) for shape in dict.fromkeys(shapes)
        )
        self.is_stream = slot < np.minimum(tx, rx)[:, None]
        ends = np.cumsum(tx)
        self.offsets = (0, *ends.tolist())
        self.starts = ends - tx
        self.antennas = np.arange(ends[-1])
        self.owner = np.arange(n_users).repeat(tx)  # user of each antenna
        antenna_mask = slot < tx[:, None]
        self.antenna_slots = np.flatnonzero(antenna_mask)
        self.ranks = np.arange(1.0, t_max + 1)
        self.stream_index = np.where(antenna_mask, self.starts[:, None] + slot, -1)
        self.streams = self.stream_index[self.is_stream]
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
