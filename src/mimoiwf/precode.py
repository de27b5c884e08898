"""Singular-value precoding and the resulting effective interference network.

Each direct link is diagonalized by its SVD; transmitters precode with the
right singular basis and receivers project onto the left one. Cross links
seen through those bases couple the users' per-stream powers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netmodel import ChannelRealization, NetworkConfig, _layout

# Singular values at or below this are treated as a rank loss.
SINGULAR_FLOOR = 1e-12


class SvdError(RuntimeError):
    """Raised when the SVD routine fails to converge numerically."""


class DegenerateChannelError(ValueError):
    """Raised when a direct channel has a vanishing singular value."""


@dataclass(frozen=True)
class LinkSVD:
    """Factorization H = U @ diag(singular_values) @ V^H (rectangular diag).

    U has shape (rx, rx), V has shape (tx, tx), singular_values is sorted
    in descending order with length min(rx, tx).
    """

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray


@dataclass(frozen=True)
class EffectiveNetwork:
    """Interference network expressed in the per-user singular bases.

    Per-user arrays are stacked over users and zero-padded to the largest
    antenna count; T = max(tx_antennas) and R = max(rx_antennas).

    Attributes:
        config: the validated network description.
        rx_bases: (Q, R, R) left singular bases U_q of the direct links.
        tx_bases: (Q, T, T) right singular bases V_q of the direct links.
        singular_values: (Q, T) descending singular values of each direct
            link; zero past its min(rx, tx) streams.
        offsets: offsets[q]:offsets[q + 1] spans user q's antennas in a
            stacked power vector; offsets[-1] is the total antenna count N.
        coupling: read-only (N, N) map from stacked interferer powers to
            normalized interference. Entry (offsets[q] + i, offsets[r] + j)
            is |U_q^H H_rq V_r|^2 at (i, j) divided by sigma_sq[q][i]; rows
            of user q beyond its streams and the diagonal blocks are zero.
        stream_index: (Q, T) slot layout: entry (q, s) is the stacked
            position of user q's antenna s, or -1 when s >= tx_antennas[q].
        stream_noise: (Q, T) noise floor of each slot; +inf where user q has
            no stream s, so water-filling gives such slots no power.
        antenna_mask: (Q, T) stream_index >= 0; a (Q, T) array masked by it
            lists its antenna slots in stacked order.
        leak_index: (Q, T) position of slot (q, s) in a raveled (Q, N)
            array: q * N + stream_index[q, s], or q * N where user q has no
            antenna s.
        budget: (Q,) config.power_budget as a float array.

    offsets, stream_index, antenna_mask, leak_index and budget depend on
    the config alone: every network of one config shares them, read-only.
    """

    config: NetworkConfig
    rx_bases: np.ndarray
    tx_bases: np.ndarray
    singular_values: np.ndarray
    offsets: tuple[int, ...]
    coupling: np.ndarray
    stream_index: np.ndarray
    stream_noise: np.ndarray
    antenna_mask: np.ndarray
    leak_index: np.ndarray
    budget: np.ndarray


def svd_decompose(channel: np.ndarray) -> LinkSVD:
    """SVD of a single channel matrix with descending singular values.

    Raises:
        SvdError: if the underlying routine fails to converge.
        ValueError: on empty or non-2D input.
    """
    h = np.asarray(channel)
    if h.ndim != 2 or h.size == 0:
        raise ValueError(f"channel must be a non-empty 2-D matrix, got shape {h.shape}")
    try:
        u, s, vh = np.linalg.svd(h, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise SvdError(f"SVD failed to converge for a {h.shape} channel") from exc
    return LinkSVD(U=u, singular_values=s, V=vh.conj().T)


def build_effective_network(
    realization: ChannelRealization, config: NetworkConfig
) -> EffectiveNetwork:
    """Rotate a channel realization into the per-user singular bases.

    The direct links are factorized in one batched SVD per distinct link
    shape, and every cross link is rotated in one batched product.

    Raises:
        DegenerateChannelError: when some direct channel is rank deficient,
            so the realization should be redrawn; names the first such user.
        SvdError: if the SVD routine fails to converge.
        ValueError: when the realization does not have the config's shapes.
    """
    if (realization.tx_antennas, realization.rx_antennas) != (
        config.tx_antennas,
        config.rx_antennas,
    ):
        raise ValueError("channel realization does not match the config's antenna counts")
    layout = _layout(config)
    links = realization.links
    n_users, _, r_max, t_max = links.shape

    rx_bases = np.zeros((n_users, r_max, r_max), dtype=complex)
    tx_bases = np.zeros((n_users, t_max, t_max), dtype=complex)
    singular = np.zeros((n_users, t_max))
    for (m, n), group in layout.svd_groups:
        try:
            u, sv, vh = np.linalg.svd(links[group, group, :m, :n], full_matrices=True)
        except np.linalg.LinAlgError as exc:
            raise SvdError(f"SVD failed to converge for a {(m, n)} channel") from exc
        rx_bases[group, :m, :m] = u
        singular[group, : sv.shape[1]] = sv
        tx_bases[group, :n, :n] = vh.conj().transpose(0, 2, 1)

    is_stream = layout.is_stream
    weak = np.where(is_stream, singular, np.inf).min(axis=1) <= SINGULAR_FLOOR
    if weak.any():
        raise DegenerateChannelError(
            f"direct channel of user {weak.argmax()} has a singular value at or below "
            f"{SINGULAR_FLOOR:g}"
        )
    sigma_sq = singular**2
    stream_noise = np.divide(
        layout.noise, sigma_sq, out=np.full(sigma_sq.shape, np.inf), where=is_stream
    )
    unbounded = (is_stream & (stream_noise == np.inf)).any(axis=1)
    if unbounded.any():
        raise DegenerateChannelError(f"noise floor of user {unbounded.argmax()} is not finite")

    # rotated[r, q] = U_q^H H_rq V_r, first min(R, T) rows
    streams = min(r_max, t_max)
    u_h = rx_bases.conj().transpose(0, 2, 1)[:, :streams]
    rotated = u_h @ links @ tx_bases[:, None]
    gain = np.abs(rotated) ** 2
    gain.reshape(n_users * n_users, -1)[:: n_users + 1] = 0.0  # the direct links
    # an infinite divisor zeroes the rows of slots without a stream
    divisor = np.where(is_stream, sigma_sq, np.inf)[:, :streams, None]
    coupling = (gain / divisor).take(layout.coupling_index)
    for a in (rx_bases, tx_bases, singular, coupling, stream_noise):
        a.setflags(write=False)

    return EffectiveNetwork(
        config=config,
        rx_bases=rx_bases,
        tx_bases=tx_bases,
        singular_values=singular,
        offsets=layout.offsets,
        coupling=coupling,
        stream_index=layout.stream_index,
        stream_noise=stream_noise,
        antenna_mask=layout.antenna_mask,
        leak_index=layout.leak_index,
        budget=layout.budget,
    )
