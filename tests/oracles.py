"""Independent reference implementations used only to check the library.

Everything here is deliberately written by a different route than the
package code: bisection instead of the sort formula, explicit entry loops
instead of matrix products, a dense eigensolver instead of power iteration.
"""
from __future__ import annotations

import numpy as np

from mimoiwf.netmodel import ChannelRealization, NetworkConfig, validate_config
from mimoiwf.precode import build_effective_network


def bisect_water_level(floors, budget, iters=80):
    """Water level by bisection on the monotone spent-power function."""
    c = np.asarray(floors, dtype=float)
    lo = float(c.min())
    hi = float(c.max()) + float(budget)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.maximum(mid - c, 0.0).sum() < budget:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisect_water_level_batch(floors, budgets, iters=80):
    """Vectorized bisection over a batch of same-size problems."""
    c = np.asarray(floors, dtype=float)
    budgets = np.asarray(budgets, dtype=float)
    lo = c.min(axis=1)
    hi = c.max(axis=1) + budgets
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        spent = np.maximum(mid[:, None] - c, 0.0).sum(axis=1)
        under = spent < budgets
        lo = np.where(under, mid, lo)
        hi = np.where(under, hi, mid)
    return 0.5 * (lo + hi)


def kkt_water_allocation(floors, budget):
    """Water-filling by exhaustive active-set enumeration (small sizes)."""
    c = np.asarray(floors, dtype=float)
    n = c.size
    for mask in range(1, 2**n):
        active = [i for i in range(n) if (mask >> i) & 1]
        inactive = [i for i in range(n) if not (mask >> i) & 1]
        mu = (budget + sum(c[i] for i in active)) / len(active)
        if all(mu > c[i] for i in active) and all(mu <= c[j] + 1e-12 for j in inactive):
            p = np.zeros(n)
            for i in active:
                p[i] = mu - c[i]
            return p, mu
    raise AssertionError("no KKT point found")


def brute_force_cross_gain(h_cross, u_rx, v_tx, streams):
    """|U^H H V|^2 entries by explicit triple loops."""
    rows = streams
    cols = v_tx.shape[1]
    out = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            acc = 0.0 + 0.0j
            for a in range(h_cross.shape[0]):
                for b in range(h_cross.shape[1]):
                    acc += np.conj(u_rx[a, i]) * h_cross[a, b] * v_tx[b, j]
            out[i, j] = abs(acc) ** 2
    return out


def eig_spectral_radius(matrix):
    """Dense eigensolver reference for the spectral radius."""
    m = np.asarray(matrix, dtype=float)
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def coupling_entry(net, q, i, r, j):
    """Normalized leak from antenna j of transmitter r into stream i of user q."""
    return float(net.coupling[net.offsets[q] + i, net.offsets[r] + j])


def reference_row_norm(net):
    """Max row sum of the coupling by explicit loops over users and streams."""
    best = 0.0
    for q in range(net.config.num_users):
        for i in range(net.num_streams(q)):
            total = 0.0
            for r in range(net.config.num_users):
                if r == q:
                    continue
                for j in range(net.config.tx_antennas[r]):
                    total += coupling_entry(net, q, i, r, j)
            best = max(best, total)
    return best


def reference_col_norm(net):
    """Max column sum of the coupling by explicit loops."""
    best = 0.0
    for r in range(net.config.num_users):
        for j in range(net.config.tx_antennas[r]):
            total = 0.0
            for q in range(net.config.num_users):
                if q == r:
                    continue
                for i in range(net.num_streams(q)):
                    total += coupling_entry(net, q, i, r, j)
            best = max(best, total)
    return best


def reference_strict_values(net):
    """Antenna-slot-wise sums of worst aggregates, from the raw gains."""
    cfg = net.config
    row_total = 0.0
    for j in range(max(cfg.tx_antennas)):
        worst = 0.0
        for q in range(cfg.num_users):
            for i in range(net.num_streams(q)):
                s = 0.0
                for r in range(cfg.num_users):
                    if r == q or j >= cfg.tx_antennas[r]:
                        continue
                    s += coupling_entry(net, q, i, r, j)
                worst = max(worst, s)
        row_total += worst

    col_total = 0.0
    for i in range(max(cfg.tx_antennas)):
        worst = 0.0
        for r in range(cfg.num_users):
            for j in range(cfg.tx_antennas[r]):
                s = 0.0
                for q in range(cfg.num_users):
                    if q == r or i >= net.num_streams(q):
                        continue
                    s += coupling_entry(net, q, i, r, j)
                worst = max(worst, s)
        col_total += worst
    return row_total, col_total


def explicit_net(direct, cross, budgets, noise):
    """Effective network from hand-picked channel matrices.

    direct[q] and cross[(r, q)] are complex matrices; distances are set to
    one so no attenuation is applied on top of the given entries.
    """
    n_users = len(direct)
    cfg = NetworkConfig(
        num_users=n_users,
        tx_antennas=tuple(np.asarray(d).shape[1] for d in direct),
        rx_antennas=tuple(np.asarray(d).shape[0] for d in direct),
        power_budget=tuple(float(b) for b in budgets),
        noise_power=tuple(float(v) for v in noise),
        direct_distance=(1.0,) * n_users,
        cross_distance=tuple((1.0,) * n_users for _ in range(n_users)),
        pathloss_exponent=0.0,
    )
    validate_config(cfg)
    rows = []
    for r in range(n_users):
        row = []
        for q in range(n_users):
            if r == q:
                h = np.asarray(direct[q], dtype=complex)
            elif (r, q) in cross:
                h = np.asarray(cross[(r, q)], dtype=complex)
            else:
                h = np.zeros((cfg.rx_antennas[q], cfg.tx_antennas[r]), dtype=complex)
            row.append(h)
        rows.append(tuple(row))
    realization = ChannelRealization(matrices=tuple(rows), seed=-1)
    return build_effective_network(realization, cfg)
