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

    Attributes:
        config: the validated network description.
        svd: per-user LinkSVD of the direct channel.
        sigma_sq: per-user squared singular values of the direct link.
        noise_floor: per-user noise_power / sigma_sq.
        offsets: offsets[q]:offsets[q + 1] spans user q's antennas in a
            stacked power vector; offsets[-1] is the total antenna count N.
        coupling: read-only (N, N) map from stacked interferer powers to
            normalized interference. Entry (offsets[q] + i, offsets[r] + j)
            is |U_q^H H_rq V_r|^2 at (i, j) divided by sigma_sq[q][i]; rows
            of user q beyond its streams and the diagonal blocks are zero.
        stream_index: (Q, T) slot layout, T = max(tx_antennas): entry
            (q, s) is the stacked position of user q's antenna s, or -1 when
            s >= tx_antennas[q].
        stream_noise: (Q, T) noise floor of each slot; +inf where user q has
            no stream s, so water-filling gives such slots no power.
    """

    config: NetworkConfig
    svd: tuple[LinkSVD, ...]
    sigma_sq: tuple[np.ndarray, ...]
    noise_floor: tuple[np.ndarray, ...]
    offsets: tuple[int, ...]
    coupling: np.ndarray
    stream_index: np.ndarray
    stream_noise: np.ndarray

    def num_streams(self, q: int) -> int:
        """Number of usable parallel streams of user q."""
        return int(self.svd[q].singular_values.size)


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

    Raises:
        DegenerateChannelError: when some direct channel is rank deficient,
            so the realization should be redrawn.
    """
    n_users = config.num_users
    svds = []
    for q in range(n_users):
        link = svd_decompose(realization.matrices[q][q])
        if link.singular_values.min() <= SINGULAR_FLOOR:
            raise DegenerateChannelError(
                f"direct channel of user {q} has a singular value at or below "
                f"{SINGULAR_FLOOR:g}"
            )
        svds.append(link)

    sigma_sq = tuple(link.singular_values**2 for link in svds)
    noise_floor = tuple(
        config.noise_power[q] / sigma_sq[q] for q in range(n_users)
    )
    for q in range(n_users):
        if not np.all(np.isfinite(noise_floor[q])):
            raise DegenerateChannelError(f"noise floor of user {q} is not finite")

    offsets = tuple(int(o) for o in np.cumsum((0, *config.tx_antennas)))
    coupling = np.zeros((offsets[-1], offsets[-1]))
    for q in range(n_users):
        streams = svds[q].singular_values.size
        u_h = svds[q].U.conj().T[:streams, :]
        rows = slice(offsets[q], offsets[q] + streams)
        for r in range(n_users):
            if r == q:
                continue
            rotated = u_h @ realization.matrices[r][q] @ svds[r].V
            gain = np.abs(rotated) ** 2
            coupling[rows, offsets[r] : offsets[r + 1]] = gain / sigma_sq[q][:, None]
    coupling.setflags(write=False)

    tx = np.array(config.tx_antennas)
    slot = np.arange(tx.max())
    stream_index = np.where(slot < tx[:, None], np.array(offsets[:-1])[:, None] + slot, -1)
    stream_noise = np.full(stream_index.shape, np.inf)
    for q in range(n_users):
        stream_noise[q, : noise_floor[q].size] = noise_floor[q]
    stream_index.setflags(write=False)
    stream_noise.setflags(write=False)

    return EffectiveNetwork(
        config=config,
        svd=tuple(svds),
        sigma_sq=sigma_sq,
        noise_floor=noise_floor,
        offsets=offsets,
        coupling=coupling,
        stream_index=stream_index,
        stream_noise=stream_noise,
    )
