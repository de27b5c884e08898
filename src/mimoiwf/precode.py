"""Singular-value precoding and the resulting effective interference network.

Each direct link is diagonalized by its SVD; transmitters precode with the
right singular basis and receivers project onto the left one. Cross links
seen through those bases couple the users' per-stream powers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netmodel import ChannelRealization, NetworkConfig

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
    antenna count; T = max(tx_antennas) and R = max(rx_antennas). The fields
    hold what a draw determines; what the config alone fixes, such as the
    stacked offsets, is config.layout.

    Attributes:
        config: the validated network description.
        rx_bases: (Q, R, R) left singular bases U_q of the direct links.
        tx_bases: (Q, T, T) right singular bases V_q of the direct links.
        singular_values: (Q, T) descending singular values of each direct
            link; zero past its min(rx, tx) streams.
        coupling: read-only (N, N) map from stacked interferer powers to
            normalized interference. Entry (offsets[q] + i, offsets[r] + j)
            is |U_q^H H_rq V_r|^2 at (i, j) divided by sigma_sq[q][i]; rows
            of user q beyond its streams and the diagonal blocks are zero.
        stream_noise: (Q, T) noise floor of each slot; +inf where user q has
            no stream s, so water-filling gives such slots no power.
    """

    config: NetworkConfig
    rx_bases: np.ndarray
    tx_bases: np.ndarray
    singular_values: np.ndarray
    coupling: np.ndarray
    stream_noise: np.ndarray


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
) -> EffectiveNetwork | list[EffectiveNetwork | None]:
    """Rotate a channel realization into the per-user singular bases.

    The direct links are factorized in one batched SVD per distinct link
    shape, and every cross link is rotated in one batched product. A stack
    of K realizations is rotated in the same calls and gives a list of K
    networks, each a view into the stacked arrays, with None in place of
    each degenerate draw; a single realization is the stack of one.

    Raises:
        DegenerateChannelError: when some direct channel of a single
            realization is rank deficient, so it should be redrawn; names
            the first such user.
        SvdError: if the SVD routine fails to converge.
        ValueError: when the realization does not have the config's shapes.
    """
    if (realization.tx_antennas, realization.rx_antennas) != (
        config.tx_antennas,
        config.rx_antennas,
    ):
        raise ValueError("channel realization does not match the config's antenna counts")
    layout = config.layout
    stacked = realization.links.ndim == 5
    links = realization.links if stacked else realization.links[None]
    n_draws, n_users, _, r_max, t_max = links.shape

    rx_bases = np.zeros((n_draws, n_users, r_max, r_max), dtype=complex)
    tx_bases = np.zeros((n_draws, n_users, t_max, t_max), dtype=complex)
    singular = np.zeros((n_draws, n_users, t_max))
    for (m, n), group in layout.svd_groups:
        try:
            u, sv, vh = np.linalg.svd(links[:, group, group, :m, :n], full_matrices=True)
        except np.linalg.LinAlgError as exc:
            raise SvdError(f"SVD failed to converge for a {(m, n)} channel") from exc
        rx_bases[:, group, :m, :m] = u
        singular[:, group, : sv.shape[-1]] = sv
        tx_bases[:, group, :n, :n] = vh.conj().swapaxes(-1, -2)

    is_stream = layout.is_stream
    weak = np.where(is_stream, singular, np.inf).min(axis=-1) <= SINGULAR_FLOOR
    if not stacked and weak.any():
        raise DegenerateChannelError(
            f"direct channel of user {weak[0].argmax()} has a singular value at or below "
            f"{SINGULAR_FLOOR:g}"
        )
    # a weak user's slots count as stream-less, so its zero gains divide nothing
    is_stream = is_stream & ~weak[..., None]
    sigma_sq = singular**2
    stream_noise = np.divide(
        layout.noise, sigma_sq, out=np.full(sigma_sq.shape, np.inf), where=is_stream
    )
    unbounded = (is_stream & (stream_noise == np.inf)).any(axis=-1)
    if not stacked and unbounded.any():
        raise DegenerateChannelError(f"noise floor of user {unbounded[0].argmax()} is not finite")

    # rotated[k, r, q] = U_q^H H_rq V_r of draw k, first min(R, T) rows
    streams = min(r_max, t_max)
    u_h = rx_bases.conj().swapaxes(-1, -2)[:, :, :streams]
    rotated = u_h[:, None] @ links @ tx_bases[:, :, None]
    gain = np.abs(rotated) ** 2
    gain.reshape(n_draws, n_users * n_users, -1)[:, :: n_users + 1] = 0.0  # the direct links
    # an infinite divisor zeroes the rows of slots without a stream
    divisor = np.where(is_stream, sigma_sq, np.inf)[:, None, :, :streams, None]
    coupling = (gain / divisor).reshape(n_draws, -1).take(layout.coupling_index, axis=1)
    stacks = (rx_bases, tx_bases, singular, coupling, stream_noise)  # in field order
    for a in stacks:
        a.setflags(write=False)

    nets = [
        None if bad else EffectiveNetwork(config, *(a[k] for a in stacks))
        for k, bad in enumerate((weak | unbounded).any(axis=-1).tolist())
    ]
    return nets if stacked else nets[0]
