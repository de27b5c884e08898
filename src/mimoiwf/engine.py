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


class Schedule:
    """Update plan for the iterated game.

    update_sets[n] lists the users revising their power at step n.
    delays, present only for the random schedule, holds at [n, q, r] the
    age of the view user q has of user r at step n, from 0 to delay_bound,
    and no user goes more than update_bound steps without an update. A
    plan with draws holds the steps drawn so far, and draws yields the
    later ones in order as (members, ages) pairs: step(n) draws up to step
    n, and reading update_sets or delays draws all it_max steps.

    Raises:
        ScheduleError: on a negative delay_bound, or when a given age lies
            outside 0..delay_bound; names the first such step and user pair.
    """

    def __init__(self, kind, it_max, update_sets, delay_bound, update_bound, seed, delays,
                 draws=None):
        if delay_bound < 0:
            raise ScheduleError(f"delay_bound must be >= 0, got {delay_bound}")
        if delays is not None and len(delays):
            ages = np.asarray(delays)
            bad = np.argwhere((ages < 0) | (ages > delay_bound))
            if bad.size:
                n, q, r = bad[0].tolist()
                raise ScheduleError(
                    f"step {n}: user {q} views user {r} at age {ages[n, q, r]}, "
                    f"outside 0..{delay_bound}"
                )
        self.kind, self.it_max, self.seed = kind, it_max, seed
        self.delay_bound, self.update_bound = delay_bound, update_bound
        self._sets = list(update_sets)
        self._ages = None if delays is None else list(delays)
        self._draws = draws

    def step(self, n: int) -> tuple[tuple[int, ...], np.ndarray | None]:
        """Users updating at step n and their (Q, Q) view ages, None if fresh."""
        while n >= len(self._sets) and self._draws is not None:
            members, ages = next(self._draws)
            self._sets.append(members)
            self._ages.append(ages)
        fresh = self._ages is None or self.delay_bound == 0
        return self._sets[n], None if fresh else self._ages[n]

    @property
    def update_sets(self) -> tuple[tuple[int, ...], ...]:
        self.step(self.it_max - 1)
        return tuple(self._sets[: self.it_max])

    @property
    def delays(self) -> np.ndarray | None:
        self.step(self.it_max - 1)
        return None if self._ages is None else np.array(self._ages[: self.it_max])


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
    and draws view ages uniformly from {0..delay_bound}, each step only
    when first read, so games that stop early draw only what they play.
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
    draws = _async_steps(num_users, it_max, seed, delay_bound, update_bound)
    return Schedule(kind, it_max, (), int(delay_bound), int(update_bound), int(seed), (), draws)


def _async_steps(num_users: int, it_max: int, seed: int, delay_bound: int, update_bound: int):
    """random_async steps in order: rng.random, then rng.integers if delay_bound > 0."""
    rng = np.random.default_rng(seed)
    last = [-1] * num_users
    for n in range(it_max):
        coins = (rng.random(num_users) < 0.5).tolist()
        if delay_bound > 0:
            ages = rng.integers(0, delay_bound + 1, size=(num_users, num_users))
            ages.flat[:: num_users + 1] = 0  # own power is always current
        else:
            ages = np.zeros((num_users, num_users), dtype=np.int64)
        members = tuple(q for q in range(num_users) if coins[q] or n - last[q] >= update_bound)
        for q in members:
            last[q] = n
        yield members, ages


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

    # history[lead + n] is the stacked state after step n, behind lead copies
    # of the start: the trace and, for stale views, the delay buffer (user q
    # reads antenna j of user r at step n from history[lead + n - ages[q, r]],
    # the start when the age exceeds n)
    lead = schedule.delay_bound
    history = np.empty((lead + schedule.it_max + 1, net.offsets[-1]))
    history[: lead + 1] = start.stacked()
    antennas = np.arange(net.offsets[-1])
    owner = np.arange(cfg.num_users).repeat(cfg.tx_antennas)  # user of each antenna
    window = max(schedule.update_bound, 1)
    last_update = [-1] * cfg.num_users
    movers: dict[tuple[int, ...], np.ndarray | None] = {}  # antennas that move, None if all
    updated: list[tuple[int, ...]] = []
    residuals: list[float] = []
    converged = False

    for n in range(schedule.it_max):
        members, ages = schedule.step(n)
        now = lead + n
        x = history[now]
        if ages is None:
            new = best_responses(net, x)
        else:
            new = best_responses(net, history[now - ages[:, owner], antennas])
        if members not in movers:
            users = np.zeros(cfg.num_users, dtype=bool)
            users[list(members)] = True
            movers[members] = None if users.all() else users[owner]
        if movers[members] is not None:
            new = np.where(movers[members], new, x)
        updated.append(members)
        residuals.append(float(np.abs(new - x).max()))
        history[now + 1] = new
        for q in members:
            last_update[q] = n

        if (
            n + 1 >= window
            and max(residuals[-window:]) < tol
            and min(last_update) > n - window
        ):
            converged = True
            break

    states = history[lead : lead + len(residuals) + 1]
    states.setflags(write=False)
    return GameTrace(
        states=states,
        offsets=net.offsets,
        updated=updated,
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
