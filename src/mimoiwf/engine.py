"""Iterated water-filling game under synchronous and asynchronous schedules.

Users repeatedly water-fill against possibly stale views of each other's
powers. The schedule fixes who updates at each step and how old the views
may be; convergence is declared when a full round of updates no longer
moves the profile.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .precode import EffectiveNetwork
from .waterfill import (
    PowerProfile,
    best_response,
    interference_plus_noise,
    uniform_profile,
    user_rate,
    validate_profile,
)

DEFAULT_IT_MAX = 100
DEFAULT_TOL = 1e-6

SCHEDULE_KINDS = ("jacobi", "gauss_seidel", "random_async")


class ScheduleError(ValueError):
    """Raised for unknown schedule kinds or invalid bounds."""


@dataclass(frozen=True)
class Schedule:
    """Update plan for the iterated game.

    update_sets[n] lists the users revising their power at step n.
    delays, present only for the random schedule, holds at [n, q, r] the
    age of the view user q has of user r at step n; ages never exceed
    delay_bound, and no user goes more than update_bound steps without
    an update.
    """

    kind: str
    it_max: int
    update_sets: tuple[tuple[int, ...], ...]
    delay_bound: int
    update_bound: int
    seed: int
    delays: np.ndarray | None


@dataclass
class GameTrace:
    """Full record of one game run.

    profiles[0] is the starting point and profiles[n] the state after step
    n, built once when the game ends; residuals[n-1] is the largest power
    change made at step n.
    """

    profiles: list[PowerProfile]
    updated: list[tuple[int, ...]]
    residuals: list[float]
    converged: bool
    iterations_used: int
    final_rates: np.ndarray
    nash_gap: float


def make_schedule(
    kind: str,
    num_users: int,
    it_max: int = DEFAULT_IT_MAX,
    seed: int = 0,
    delay_bound: int = 0,
    update_bound: int = 1,
) -> Schedule:
    """Build a deterministic update plan.

    jacobi updates everyone at every step from fresh views; gauss_seidel
    cycles one user per step; random_async flips a fair coin per user and
    step (forcing an update when update_bound would otherwise be broken)
    and draws view ages uniformly from {0..delay_bound}.
    """
    if kind not in SCHEDULE_KINDS:
        raise ScheduleError(f"unknown schedule kind {kind!r}, expected one of {SCHEDULE_KINDS}")
    if num_users < 1 or it_max < 1:
        raise ScheduleError("num_users and it_max must be positive")

    if kind == "jacobi":
        everyone = tuple(range(num_users))
        return Schedule(kind, it_max, (everyone,) * it_max, 0, 1, int(seed), None)

    if kind == "gauss_seidel":
        sets = tuple((n % num_users,) for n in range(it_max))
        return Schedule(kind, it_max, sets, 0, num_users, int(seed), None)

    if delay_bound < 0 or update_bound < 1:
        raise ScheduleError(
            f"random_async needs delay_bound >= 0 and update_bound >= 1, "
            f"got {delay_bound}, {update_bound}"
        )
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
            np.fill_diagonal(delays[n], 0)  # own power is always current
        last[members] = n
        sets.append(tuple(int(q) for q in members))
    return Schedule(
        kind, it_max, tuple(sets), int(delay_bound), int(update_bound), int(seed), delays
    )


def run_game(
    net: EffectiveNetwork,
    schedule: Schedule,
    start: PowerProfile | None = None,
    tol: float = DEFAULT_TOL,
) -> GameTrace:
    """Iterate water-filling responses under a schedule.

    Convergence is declared once every user has updated inside the last
    update_bound steps and no power moved by more than tol across them.
    """
    cfg = net.config
    start = uniform_profile(cfg) if start is None else start
    validate_profile(start, cfg)
    blocks = [slice(a, b) for a, b in zip(net.offsets, net.offsets[1:])]

    # states[n] is the stacked state after step n: the trace and, for stale
    # views, the delay buffer (a view of age a at step n reads states[n - a])
    states = [start.stacked()]
    window = max(schedule.update_bound, 1)
    last_update = np.full(cfg.num_users, -1)
    residuals: list[float] = []
    converged = False

    for n in range(schedule.it_max):
        x = states[n]
        new = x.copy()
        residual = 0.0
        for q in schedule.update_sets[n]:
            view = x
            if schedule.delays is not None:
                ages = np.minimum(schedule.delays[n, q], n)
                view = np.concatenate([states[n - a][b] for a, b in zip(ages, blocks)])
            p_new = best_response(net, view, q)
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

    profiles = [PowerProfile([s[b] for b in blocks]) for s in states]
    final = profiles[-1]
    return GameTrace(
        profiles=profiles,
        updated=list(schedule.update_sets[: len(residuals)]),
        residuals=residuals,
        converged=converged,
        iterations_used=len(residuals),
        final_rates=np.array(
            [
                user_rate(p, interference_plus_noise(net, states[-1], q))
                for q, p in enumerate(final.powers)
            ]
        ),
        nash_gap=check_nash(net, final),
    )


def check_nash(net: EffectiveNetwork, profile: PowerProfile) -> float:
    """Largest distance of any user's power from its own best response."""
    x = profile.stacked()
    return max(
        float(np.abs(p - best_response(net, x, q)).max()) for q, p in enumerate(profile.powers)
    )


def trace_to_csv(trace: GameTrace, path: str) -> None:
    """Write (iteration, user, antenna, power, residual) rows."""
    try:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write("iteration,user,antenna,power,residual\n")
            for n, prof in enumerate(trace.profiles):
                res = 0.0 if n == 0 else trace.residuals[n - 1]
                for q, powers in enumerate(prof.powers):
                    for a, p in enumerate(powers):
                        fh.write(
                            f"{n},{q},{a},{format(p, '.9g')},{format(res, '.9g')}\n"
                        )
    except OSError as exc:
        raise OSError(f"cannot write game trace to {path!r}: {exc}") from exc
