"""Uniqueness certificates for the water-filling game.

The coupling of all users' powers is collected into one square nonnegative
matrix; norms or the spectral radius of that matrix below one certify that
the simultaneous water-filling responses form a contraction, hence a unique
equilibrium reached from any starting point.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netmodel import stack_configs
from .precode import EffectiveNetwork

SPECTRAL_TOL = 1e-9
MAX_POWER_ITER = 10_000


class PowerIterationError(RuntimeError):
    """Raised when the spectral radius bounds fail to tighten in time."""


@dataclass(frozen=True)
class InterferenceMatrix:
    """Square nonnegative coupling matrix of the whole network.

    matrix is the network's read-only EffectiveNetwork.coupling array. Row
    block q stacks user q's streams, padded with zero rows up to
    tx_antennas[q] when the user has fewer streams than antennas; column
    block r spans transmitter r's antennas. The diagonal blocks are zero.
    """

    matrix: np.ndarray
    block_start: tuple[int, ...]
    tx_antennas: tuple[int, ...]


@dataclass(frozen=True)
class UniquenessCertificate:
    """Contraction diagnostics of one network realization.

    norm_unique certifies a unique equilibrium via the row or column norm;
    spectral_unique is the weaker spectral-radius test. strict_row_value
    and strict_col_value sum per-antenna-slot maxima, which upper-bounds
    the corresponding norm, so strict_row_cond implies row_norm < 1.
    contraction_modulus is min(row_norm, col_norm) when that is below one.
    """

    row_norm: float
    col_norm: float
    spectral_radius: float
    strict_row_value: float
    strict_col_value: float
    strict_row_cond: bool
    strict_col_cond: bool
    norm_unique: bool
    spectral_unique: bool
    contraction_modulus: float | None


def build_interference_matrix(net: EffectiveNetwork) -> InterferenceMatrix:
    """Wrap the network's coupling array, without copying it."""
    return InterferenceMatrix(
        matrix=net.coupling,
        block_start=net.config.layout.offsets[:-1],
        tx_antennas=net.config.tx_antennas,
    )


def _as_square_nonneg(matrix: np.ndarray) -> np.ndarray:
    m = np.asarray(matrix, float)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"matrix must be square, or a stack of them, got shape {m.shape}")
    if m.size and (not np.all(np.isfinite(m)) or np.any(m < 0)):
        raise ValueError("matrix must be nonnegative and finite")
    return m


def _perron_start(block: np.ndarray) -> np.ndarray:
    """Start vector for the power iteration, normalized to sum one.

    The absolute value of the eigenvector of the eigenvalue with the largest
    real part, from a dense eigensolver: for an irreducible nonnegative
    block that is the Perron vector, so the bounds below usually meet at the
    first check. Falls back to the uniform vector when the estimate is not
    strictly positive. block is (n, n) or a (K, n, n) stack, which gets one
    start per matrix from one batched eigensolver call.
    """
    n = block.shape[-1]
    try:
        values, vectors = np.linalg.eig(block)
    except np.linalg.LinAlgError:
        if block.ndim == 2:
            return np.full(n, 1.0 / n)
        return np.array([_perron_start(b) for b in block])
    top = values.real.argmax(axis=-1)[..., None, None]
    x = np.abs(np.take_along_axis(vectors, top, axis=-1))[..., 0]
    positive = (x.min(axis=-1) > 0) & (x.max(axis=-1) < np.inf)
    start = np.full(x.shape, 1.0 / n)
    start[positive] = x[positive] / x[positive].sum(axis=-1, keepdims=True)
    return start


def _bounds(block: np.ndarray, x: np.ndarray) -> tuple:
    """Collatz-Wielandt bounds min_i (Bx)_i/x_i <= rho <= max_i (Bx)_i/x_i.

    They hold for every nonnegative B and positive x, reducible or not.
    block is (n, n) with x (n,), or a (K, n, n) stack with x (K, n).
    Returns (lower, upper, Bx), one bound per matrix.
    """
    y = (block @ x[..., None])[..., 0]
    ratios = y / x
    return ratios.min(axis=-1), ratios.max(axis=-1), y


def _irreducible_radius(block: np.ndarray, tol: float, max_iter: int) -> float:
    """Certified power iteration on an irreducible nonnegative block.

    Keeps the two-sided bounds of _bounds and iterates with a diagonal
    shift equal to the running midpoint; the shift leaves the radius bounds
    untouched but breaks periodic spectra so the bounds tighten
    geometrically.
    """
    x = _perron_start(block)
    for _ in range(max_iter):
        lo, up, y = _bounds(block, x)
        if up - lo <= tol * max(1.0, up):
            return float(0.5 * (lo + up))
        shift = 0.5 * (lo + up)
        x = y + shift * x
        x /= x.sum()
    raise PowerIterationError(
        f"spectral radius bounds did not reach tolerance {tol:g} within "
        f"{max_iter} iterations (gap {up - lo:g})"
    )


def _component_radius(m: np.ndarray, tol: float, max_iter: int) -> float:
    """Radius of one matrix as the largest over its strongly connected
    components, each nontrivial block by certified power iteration."""
    n = m.shape[0]
    # reach[i, j]: j is reachable from i; squaring doubles the path length
    reach = np.eye(n, dtype=bool) | (m > 0)
    for _ in range((n - 1).bit_length()):
        reach = reach @ reach
    strong = reach & reach.T  # row i marks the strongly connected component of i
    done = np.zeros(n, dtype=bool)
    radius = 0.0
    for i in range(n):
        if done[i]:
            continue
        idx = np.flatnonzero(strong[i])
        done[idx] = True
        if idx.size == 1:
            radius = max(radius, float(m[i, i]))
            continue
        block = m[np.ix_(idx, idx)]
        radius = max(radius, _irreducible_radius(block, tol, max_iter))
    return radius


def spectral_radius(matrix: np.ndarray) -> float | np.ndarray:
    """Largest eigenvalue magnitude of a nonnegative matrix.

    The bounds are first checked on the whole matrix from its Perron start,
    which settles most irreducible matrices at once. Otherwise the matrix is
    split into its strongly connected components, whose largest block
    radius equals the radius of the whole matrix; each nontrivial block is
    handled by certified power iteration. A (K, n, n) stack gets the whole-
    matrix check of every matrix from one batched start and one batched
    product, a (K,) array of radii, and the split only where its check
    fails; a single matrix is the stack of one. The bounds must meet within
    SPECTRAL_TOL, relative, in at most MAX_POWER_ITER iterations.

    Raises:
        PowerIterationError: if some block fails to certify in time.
        ValueError: on a matrix that is not square, nonnegative and finite.
    """
    m = _as_square_nonneg(matrix)
    stack = m if m.ndim == 3 else m[None]
    n = stack.shape[-1]
    if n <= 1:
        radii = np.array(stack[:, 0, 0]) if n else np.zeros(len(stack))
    else:
        lo, up, _ = _bounds(stack, _perron_start(stack))
        radii = 0.5 * (lo + up)
        for k in np.flatnonzero(~(up - lo <= SPECTRAL_TOL * np.maximum(1.0, up))):
            radii[k] = _component_radius(stack[k], SPECTRAL_TOL, MAX_POWER_ITER)
    return float(radii[0]) if m.ndim == 2 else radii


def _slot_view(coupling: np.ndarray, layout) -> np.ndarray:
    """A (K, N, N) coupling stack as (K, Q, T, Q, T) over (user, antenna slot) pairs.

    T = max(tx_antennas); slots past a user's antennas are zero rows and
    columns, so every user block has the same shape.
    """
    k, n, _ = coupling.shape
    padded = np.zeros((k, n + 1, n + 1))  # index -1 of stream_index reads the zero row
    padded[:, :n, :n] = coupling
    index = layout.stream_index
    # C order, so that each reduction below adds in the order it does on one matrix
    return np.ascontiguousarray(padded[:, index[:, :, None, None], index])


def certify(
    net: EffectiveNetwork | list[EffectiveNetwork],
) -> UniquenessCertificate | list[UniquenessCertificate]:
    """Run every uniqueness test on one effective network, or on each of a list.

    The networks of a list share their antenna counts and noise, as the
    draws of one stack do (netmodel.stack_configs); their configs may differ
    otherwise, say in cross distance. Their couplings are checked
    as one stack, by one spectral_radius call; the norms and the strict
    values come from one padded slot view of the stack. The strict value
    of a slot sums the worst aggregate coupling in that slot: for slot j the
    row aggregate of a row is the sum of its entries in column j of every
    user block, and summing the per-slot maxima dominates every row sum, so
    a value below one implies the row norm is below one. The column value
    is the same for the transpose. A single network is the list of one.

    Raises:
        ValueError: naming the antenna count or noise on which the
            networks of a list differ.
    """
    nets = [net] if isinstance(net, EffectiveNetwork) else list(net)
    if not nets:
        return []
    layout = stack_configs([n.config for n in nets], len(nets))[0].layout
    coupling = np.stack([n.coupling for n in nets])
    # an antenna without a stream has a zero row, which only adds a zero to
    # the spectrum but makes the matrix reducible; C order, so that a stack
    # computes as its single matrices do
    streams = layout.streams
    rho = spectral_radius(np.ascontiguousarray(coupling[:, streams[:, None], streams]))
    view = _slot_view(coupling, layout)
    columns = (
        rho,
        view.sum(axis=(3, 4)).max(axis=(1, 2)),  # row norm
        view.sum(axis=(1, 2)).max(axis=(1, 2)),  # column norm
        view.sum(axis=3).max(axis=(1, 2)).sum(axis=-1),  # strict row value
        view.sum(axis=1).max(axis=(2, 3)).sum(axis=-1),  # strict column value
    )
    certs = [_certificate(*values) for values in zip(*(c.tolist() for c in columns))]
    return certs[0] if isinstance(net, EffectiveNetwork) else certs


def _certificate(rho, row, col, row_value, col_value) -> UniquenessCertificate:
    modulus = min(row, col)
    return UniquenessCertificate(
        row_norm=row,
        col_norm=col,
        spectral_radius=rho,
        strict_row_value=row_value,
        strict_col_value=col_value,
        strict_row_cond=row_value < 1.0,
        strict_col_cond=col_value < 1.0,
        norm_unique=row < 1.0 or col < 1.0,
        spectral_unique=rho < 1.0,
        contraction_modulus=modulus if modulus < 1.0 else None,
    )


def write_matrix_csv(im: InterferenceMatrix, path: str) -> None:
    """Dump the coupling matrix as plain CSV for inspection."""
    try:
        with open(path, "w", encoding="ascii", newline="") as fh:
            for row in im.matrix:
                fh.write(",".join(format(v, ".9g") for v in row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write coupling matrix to {path!r}: {exc}") from exc
