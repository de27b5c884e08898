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
    best_responses,
    uniform_profile,
    user_rates,
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

    states is a read-only (steps + 1, N) array: states[0] is the stacked
    starting point and states[n] the stacked state after step n, with
    offsets splitting a state into users. residuals[n-1] is the largest
    power change made at step n.
    """

    states: np.ndarray
    offsets: tuple[int, ...]
    updated: list[tuple[int, ...]]
    residuals: list[float]
    converged: bool
    iterations_used: int
    final_rates: np.ndarray
    nash_gap: float

    def profile(self, n: int = -1) -> PowerProfile:
        """State n (the final one by default) as per-user views."""
        return _split(self.states[n], self.offsets)

    @property
    def profiles(self) -> list[PowerProfile]:
        """Every state as a PowerProfile, built when read."""
        return [self.profile(n) for n in range(len(self.states))]


def _split(x: np.ndarray, offsets: tuple[int, ...]) -> PowerProfile:
    return PowerProfile([x[a:b] for a, b in zip(offsets, offsets[1:])])


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
    draws, ages = [], []
    for _ in range(it_max):
        draws.append(rng.random(num_users))
        if delay_bound > 0:
            ages.append(rng.integers(0, delay_bound + 1, size=(num_users, num_users)))
    if ages:
        delays = np.array(ages)
    else:
        delays = np.zeros((it_max, num_users, num_users), dtype=np.int64)
    users = range(num_users)
    delays[:, users, users] = 0  # own power is always current
    last = [-1] * num_users
    sets = []
    for n, coins in enumerate((np.array(draws) < 0.5).tolist()):
        members = tuple(q for q in users if coins[q] or n - last[q] >= update_bound)
        for q in members:
            last[q] = n
        sets.append(members)
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
    owner = np.repeat(np.arange(cfg.num_users), np.diff(net.offsets))  # user of each antenna

    # history[n] is the stacked state after step n: the trace and, for stale
    # views, the delay buffer (user q reads antenna j at step n from
    # history[source[n, q, j]])
    history = np.empty((schedule.it_max + 1, net.offsets[-1]))
    history[0] = start.stacked()
    if schedule.delays is not None:
        antennas = np.arange(net.offsets[-1])
        steps = np.arange(schedule.it_max)[:, None, None]
        source = steps - np.minimum(schedule.delays[:, :, owner], steps)
    window = max(schedule.update_bound, 1)
    last_update = np.full(cfg.num_users, -1)
    movers: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}  # users, antennas
    residuals: list[float] = []
    converged = False

    for n in range(schedule.it_max):
        x = history[n]
        views = x if schedule.delays is None else history[source[n], antennas]
        members = schedule.update_sets[n]
        if members not in movers:
            users = np.zeros(cfg.num_users, dtype=bool)
            users[list(members)] = True
            movers[members] = (users, users[owner])
        users, moved = movers[members]
        new = np.where(moved, best_responses(net, views), x)
        residuals.append(float(np.abs(new - x).max()))
        history[n + 1] = new
        last_update[users] = n

        if (
            n + 1 >= window
            and max(residuals[-window:]) < tol
            and (last_update > n - window).all()
        ):
            converged = True
            break

    states = history[: len(residuals) + 1]
    states.setflags(write=False)
    return GameTrace(
        states=states,
        offsets=net.offsets,
        updated=list(schedule.update_sets[: len(residuals)]),
        residuals=residuals,
        converged=converged,
        iterations_used=len(residuals),
        final_rates=user_rates(net, states[-1]),
        nash_gap=check_nash(net, _split(states[-1], net.offsets)),
    )


def check_nash(net: EffectiveNetwork, profile: PowerProfile) -> float:
    """Largest distance of any user's power from its own best response."""
    x = profile.stacked()
    return float(np.abs(x - best_responses(net, x)).max())


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
