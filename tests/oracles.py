"""Independent reference implementations used only to check the library.

Everything here is deliberately written by a different route than the
package code: bisection instead of the sort formula, explicit entry loops
instead of matrix products, a dense eigensolver instead of power iteration,
and one user and one step at a time where the package works on batches.
"""
from __future__ import annotations

import numpy as np

from types import SimpleNamespace

from mimoiwf.netmodel import (
    ChannelRealization,
    NetworkConfig,
    pathloss_power_gain,
    sample_channels,
    validate_config,
)
from mimoiwf.precode import (
    SINGULAR_FLOOR,
    DegenerateChannelError,
    LinkSVD,
    build_effective_network,
    svd_decompose,
)


def link_matrices(realization):
    """matrices[r][q]: the link from transmitter r into receiver q, unpadded."""
    tx, rx = realization.tx_antennas, realization.rx_antennas
    return [
        [realization.links[r, q, : rx[q], : tx[r]] for q in range(len(rx))]
        for r in range(len(tx))
    ]


def num_streams(net, q):
    """Usable parallel streams of user q: min(tx_antennas[q], rx_antennas[q])."""
    return min(net.config.tx_antennas[q], net.config.rx_antennas[q])


def user_svd(net, q):
    """User q's direct-link factors, cut out of the padded stacked bases."""
    rx, tx = net.config.rx_antennas[q], net.config.tx_antennas[q]
    return LinkSVD(
        U=net.rx_bases[q, :rx, :rx],
        singular_values=net.singular_values[q, : num_streams(net, q)],
        V=net.tx_bases[q, :tx, :tx],
    )


def noise_floor(net, q):
    """noise_power[q] / sigma^2 of user q's streams, from the singular values."""
    return net.config.noise_power[q] / user_svd(net, q).singular_values ** 2


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


def reference_sample_channels(config, seed):
    """matrices[r][q] drawn one link at a time, transmitter-major."""
    rng = np.random.default_rng(seed)
    rows = []
    for r in range(config.num_users):
        row = []
        for q in range(config.num_users):
            shape = (config.rx_antennas[q], config.tx_antennas[r])
            z = rng.standard_normal(shape + (2,))
            amp = np.sqrt(pathloss_power_gain(config.cross_distance[r][q], config.pathloss_exponent))
            row.append((z[..., 0] + 1j * z[..., 1]) * (amp / np.sqrt(2.0)))
        rows.append(tuple(row))
    return tuple(rows)


def reference_build_effective_network(matrices, config):
    """Per-user SVDs and coupling blocks, one link at a time.

    Returns a namespace with per-user lists svd (LinkSVD), sigma_sq and
    noise_floor, and the (N, N) coupling array.
    """
    n_users = config.num_users
    svds = []
    for q in range(n_users):
        link = svd_decompose(matrices[q][q])
        if link.singular_values.min() <= SINGULAR_FLOOR:
            raise DegenerateChannelError(f"direct channel of user {q} is rank deficient")
        svds.append(link)
    sigma_sq = [link.singular_values**2 for link in svds]
    noise_floor = [config.noise_power[q] / sigma_sq[q] for q in range(n_users)]
    offsets = np.cumsum((0, *config.tx_antennas))
    coupling = np.zeros((offsets[-1], offsets[-1]))
    for q in range(n_users):
        streams = svds[q].singular_values.size
        u_h = svds[q].U.conj().T[:streams, :]
        rows = slice(offsets[q], offsets[q] + streams)
        for r in range(n_users):
            if r == q:
                continue
            rotated = u_h @ matrices[r][q] @ svds[r].V
            coupling[rows, offsets[r] : offsets[r + 1]] = np.abs(rotated) ** 2 / sigma_sq[q][:, None]
    return SimpleNamespace(svd=svds, sigma_sq=sigma_sq, noise_floor=noise_floor, coupling=coupling)


def eig_spectral_radius(matrix):
    """Dense eigensolver reference for the spectral radius."""
    m = np.asarray(matrix, dtype=float)
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def reference_spectral_radius(m, tol=1e-9, max_iter=10_000):
    """Radius as the largest over the strongly connected components of m,
    each by the package's certified iteration on that block alone."""
    from mimoiwf.contraction import _irreducible_radius

    n = m.shape[0]
    reach = np.eye(n, dtype=bool) | (m > 0)
    for _ in range(n):
        reach = reach | (reach.astype(int) @ reach.astype(int) > 0)
    radius = 0.0
    done = np.zeros(n, dtype=bool)
    for i in range(n):
        if done[i]:
            continue
        idx = np.flatnonzero(reach[i] & reach[:, i])
        done[idx] = True
        if idx.size == 1:
            radius = max(radius, float(m[i, i]))
        else:
            radius = max(radius, _irreducible_radius(m[np.ix_(idx, idx)], tol, max_iter))
    return radius


def reference_certify(net):
    """Certificate fields by the per-slot column loops, the plain norms and
    the component-wise radius."""
    m = net.coupling
    cfg = net.config
    starts = cfg.layout.offsets[:-1]

    def strict(mat):
        total = 0.0
        for slot in range(max(cfg.tx_antennas)):
            cols = [starts[r] + slot for r in range(cfg.num_users) if slot < cfg.tx_antennas[r]]
            total += float(mat[:, cols].sum(axis=1).max())
        return total

    return {
        "row_norm": float(m.sum(axis=1).max()),
        "col_norm": float(m.sum(axis=0).max()),
        "spectral_radius": reference_spectral_radius(m),
        "strict_row_value": strict(m),
        "strict_col_value": strict(m.T),
    }


def coupling_entry(net, q, i, r, j):
    """Normalized leak from antenna j of transmitter r into stream i of user q."""
    o = net.config.layout.offsets
    return float(net.coupling[o[q] + i, o[r] + j])


def reference_row_norm(net):
    """Max row sum of the coupling by explicit loops over users and streams."""
    best = 0.0
    for q in range(net.config.num_users):
        for i in range(num_streams(net, q)):
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
                for i in range(num_streams(net, q)):
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
            for i in range(num_streams(net, q)):
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
                    if q == r or i >= num_streams(net, q):
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
    realization = ChannelRealization.from_matrices(rows, seed=-1)
    return build_effective_network(realization, cfg)


# A 3-user network whose users differ in antenna and stream counts: tx
# (3, 2, 2) and rx (2, 4, 1) give streams (2, 2, 1), so users 0 and 2 each
# have an antenna without a stream, and user 2 has one stream where the
# others have two. Interference-limited, so games run several steps.
RAGGED = NetworkConfig(
    num_users=3,
    tx_antennas=(3, 2, 2),
    rx_antennas=(2, 4, 1),
    power_budget=(10.0, 3.0, 5.0),
    noise_power=(1e-3, 1e-3, 1e-3),
    direct_distance=(15.0, 15.0, 15.0),
    cross_distance=((15.0, 20.0, 25.0), (22.0, 15.0, 18.0), (30.0, 19.0, 15.0)),
    pathloss_exponent=2.5,
)


def ragged_net(seed):
    """Sampled network of the RAGGED config."""
    for attempt in range(8):
        try:
            return build_effective_network(sample_channels(RAGGED, 1000 * seed + attempt), RAGGED)
        except DegenerateChannelError:
            continue
    raise AssertionError("all channel redraws degenerate")


def reference_water_fill(floors, budget):
    """One user's water-filling powers by the sort formula, one problem at a time."""
    c = np.asarray(floors, dtype=float)
    order = np.sort(c)
    cum = np.cumsum(order)
    levels = (budget + cum) / np.arange(1, c.size + 1)
    mu = float(levels[np.flatnonzero(levels > order)[-1]])
    return np.maximum(mu - c, 0.0)


def reference_random_profile(config, rng):
    """Random split of each user's budget, one rng.random call per user."""
    powers = []
    for q in range(config.num_users):
        w = rng.random(config.tx_antennas[q])
        powers.append(config.power_budget[q] * w / w.sum())
    return powers


def reference_best_response(net, view, q):
    """User q's response to a stacked view, from its own coupling rows."""
    streams = num_streams(net, q)
    start = net.config.layout.offsets[q]
    floors = noise_floor(net, q) + net.coupling[start : start + streams] @ view
    out = np.zeros(net.config.tx_antennas[q])
    out[:streams] = reference_water_fill(floors, net.config.power_budget[q])
    return out


def reference_run_game(net, schedule, start, tol):
    """The iterated game as a loop over users, one best response at a time.

    Returns (states, residuals, converged, nash_gap, final_rates); states[n]
    is the stacked state after step n.
    """
    o = net.config.layout.offsets
    blocks = [slice(a, b) for a, b in zip(o, o[1:])]
    states = [np.array(start)]
    window = max(schedule.update_bound, 1)
    last_update = np.full(net.config.num_users, -1)
    residuals = []
    converged = False
    for n in range(schedule.it_max):
        x = states[n]
        new = x.copy()
        residual = 0.0
        members, delays = schedule.step(n)
        for q in members:
            view = x
            if delays is not None:
                ages = np.minimum(delays[q], n)
                view = np.concatenate([states[n - a][b] for a, b in zip(ages, blocks)])
            p_new = reference_best_response(net, view, q)
            residual = max(residual, float(np.abs(p_new - x[blocks[q]]).max()))
            new[blocks[q]] = p_new
            last_update[q] = n
        residuals.append(residual)
        states.append(new)
        if (
            n + 1 >= window
            and np.all(last_update > n - window)
            and max(residuals[-window:]) < tol
        ):
            converged = True
            break

    final = states[-1]
    gap = 0.0
    rates = []
    for q, b in enumerate(blocks):
        gap = max(gap, float(np.abs(final[b] - reference_best_response(net, final, q)).max()))
        streams = num_streams(net, q)
        floors = noise_floor(net, q) + net.coupling[b.start : b.start + streams] @ final
        rates.append(float(np.sum(np.log2(1.0 + final[b][:streams] / floors))))
    return states, residuals, converged, gap, np.array(rates)


def reference_async_schedule(num_users, it_max, seed, delay_bound, update_bound):
    """update_sets and delays of a random_async schedule, one step at a time."""
    rng = np.random.default_rng(seed)
    last = np.full(num_users, -1)
    sets = []
    delays = np.zeros((it_max, num_users, num_users), dtype=np.int64)
    for n in range(it_max):
        coins = rng.random(num_users) < 0.5
        forced = (n - last) >= update_bound
        members = np.flatnonzero(coins | forced)
        if delay_bound > 0:
            delays[n] = rng.integers(0, delay_bound + 1, size=(num_users, num_users))
            np.fill_diagonal(delays[n], 0)
        last[members] = n
        sets.append(tuple(int(q) for q in members))
    return tuple(sets), delays
