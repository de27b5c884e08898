"""Iterated water-filling game under synchronous and asynchronous schedules.

Users repeatedly water-fill against possibly stale views of each other's
powers. The schedule fixes who updates at each step and how old the views
may be; convergence is declared when a full round of updates no longer
moves the profile.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .netmodel import _layout
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
    """Raised for unknown schedule kinds, invalid bounds or a plan that does not fit."""


class Schedule:
    """Update plan for the iterated game.

    Step n of the plan is a pair (members, ages): the users revising their
    power at step n, and a (Q, Q) array holding at [q, r] the age of the
    view user q has of user r, from 0 to delay_bound, or None when every
    view is fresh. No user goes more than update_bound steps without an
    update. A hand-built plan gives update_sets[n] and, for stale views,
    delays[n, q, r] for every step up to it_max; a plan with draws instead
    takes each step from that iterator of (members, ages) pairs, in order,
    the first time step(n) reaches it.

    Raises:
        ScheduleError: on a negative delay_bound; on a hand-built plan with
            fewer than it_max steps; or on a negative user or an age outside
            0..delay_bound, naming the first such step (and user pair).
    """

    def __init__(self, it_max, update_sets=(), delay_bound=0, update_bound=1, delays=None,
                 draws=None):
        if delay_bound < 0:
            raise ScheduleError(f"delay_bound must be >= 0, got {delay_bound}")
        planned = len(update_sets) if delays is None else min(len(update_sets), len(delays))
        if draws is None and planned < it_max:
            raise ScheduleError(f"step {planned}: the plan ends before it_max = {it_max}")
        for n, members in enumerate(update_sets):
            if min(members, default=0) < 0:
                raise ScheduleError(f"step {n}: user {min(members)} is negative")
        ages = None if delays is None else np.asarray(delays)
        if ages is not None:
            bad = np.argwhere((ages < 0) | (ages > delay_bound))
            if bad.size:
                n, q, r = bad[0].tolist()
                raise ScheduleError(
                    f"step {n}: user {q} views user {r} at age {ages[n, q, r]}, "
                    f"outside 0..{delay_bound}"
                )
        fresh = ages is None or delay_bound == 0
        self.it_max, self.delay_bound, self.update_bound = it_max, delay_bound, update_bound
        self._steps = [
            (tuple(members), None if fresh else ages[n]) for n, members in enumerate(update_sets)
        ]
        self._draws = draws

    def step(self, n: int) -> tuple[tuple[int, ...], np.ndarray | None]:
        """Users updating at step n and their (Q, Q) view ages, None if fresh."""
        while n >= len(self._steps) and self._draws is not None:
            self._steps.append(next(self._draws))
        return self._steps[n]


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

    @property
    def profiles(self) -> list[PowerProfile]:
        """Every state split into users, built when read."""
        return [PowerProfile(np.split(x, self.offsets[1:-1])) for x in self.states]


def make_schedule(
    kind: str,
    num_users: int,
    it_max: int = DEFAULT_IT_MAX,
    seed: int = 0,
    delay_bound: int = 0,
    update_bound: int = 1,
) -> Schedule:
    """Build a deterministic update plan, drawn on demand.

    jacobi updates everyone at every step from fresh views; gauss_seidel
    cycles one user per step; random_async flips a fair coin per user and
    step (forcing an update when update_bound would otherwise be broken)
    and draws view ages uniformly from {0..delay_bound}, each step only
    when first read, so games that stop early draw only what they play.

    Raises:
        ScheduleError: on an unknown kind, or on a count or bound that is
            not an integer (a bool is not) or is out of range; names it.
    """
    if kind not in SCHEDULE_KINDS:
        raise ScheduleError(f"unknown schedule kind {kind!r}, expected one of {SCHEDULE_KINDS}")
    least = {"num_users": 1, "it_max": 1, "delay_bound": 0, "update_bound": 1}
    for (name, low), value in zip(least.items(), (num_users, it_max, delay_bound, update_bound)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
            raise ScheduleError(f"{name} must be an integer >= {low}, got {value!r}")

    if kind == "jacobi":
        return Schedule(it_max, draws=itertools.repeat((tuple(range(num_users)), None)))

    if kind == "gauss_seidel":
        steps = [((q,), None) for q in range(num_users)]
        return Schedule(it_max, update_bound=num_users, draws=itertools.cycle(steps))

    draws = _async_steps(num_users, it_max, seed, delay_bound, update_bound)
    return Schedule(it_max, (), delay_bound, update_bound, draws=draws)


def _async_steps(num_users: int, it_max: int, seed: int, delay_bound: int, update_bound: int):
    """random_async steps in order: rng.random, then rng.integers if delay_bound > 0."""
    rng = np.random.default_rng(seed)
    last = [-1] * num_users
    ages = None
    for n in range(it_max):
        coins = (rng.random(num_users) < 0.5).tolist()
        if delay_bound > 0:
            ages = rng.integers(0, delay_bound + 1, size=(num_users, num_users))
            ages.flat[:: num_users + 1] = 0  # own power is always current
        members = tuple(q for q in range(num_users) if coins[q] or n - last[q] >= update_bound)
        for q in members:
            last[q] = n
        yield members, ages


def run_game(
    net: EffectiveNetwork,
    schedule: Schedule,
    start: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
) -> GameTrace:
    """Iterate water-filling responses under a schedule.

    start is a stacked power vector, the uniform split by default.
    Convergence is declared once every user has updated inside the last
    update_bound steps and no power moved by more than tol across them.

    Raises:
        ValueError: on an infeasible start.
        ScheduleError: when a step names a user the network does not have,
            or gives view ages that are not (Q, Q); names the step.
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
    history[: lead + 1] = start
    layout = _layout(cfg)
    antennas, owner = layout.antennas, layout.owner
    window = max(schedule.update_bound, 1)
    last_update = [-1] * cfg.num_users
    movers: dict[tuple[int, ...], np.ndarray | None] = {}  # antennas that move, None if all
    updated: list[tuple[int, ...]] = []
    residuals: list[float] = []
    converged = False

    for n in range(schedule.it_max):
        members, ages = schedule.step(n)
        if members not in movers:
            if max(members, default=-1) >= cfg.num_users:
                raise ScheduleError(
                    f"step {n}: user {max(members)} is not in a {cfg.num_users}-user network"
                )
            if ages is not None and ages.shape != (cfg.num_users, cfg.num_users):
                raise ScheduleError(
                    f"step {n}: view ages have shape {ages.shape}, not one age per user pair"
                )
            users = np.zeros(cfg.num_users, dtype=bool)
            users[list(members)] = True
            movers[members] = None if users.all() else users[owner]
        now = lead + n
        x = history[now]
        if ages is None:
            new = best_responses(net, x)
        else:
            new = best_responses(net, history[now - ages[:, owner], antennas])
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
        nash_gap=check_nash(net, states[-1]),
    )


def check_nash(net: EffectiveNetwork, x: np.ndarray) -> float:
    """Largest distance of any user's power in x from its own best response."""
    return float(np.abs(x - best_responses(net, x)).max())


def trace_to_csv(trace: GameTrace, path: str) -> None:
    """Write (iteration, user, antenna, power, residual) rows."""
    tx = np.diff(trace.offsets).tolist()
    antennas = [(q, a) for q, t in enumerate(tx) for a in range(t)]
    try:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write("iteration,user,antenna,power,residual\n")
            for n, x in enumerate(trace.states):
                res = 0.0 if n == 0 else trace.residuals[n - 1]
                for (q, a), p in zip(antennas, x):
                    fh.write(f"{n},{q},{a},{format(p, '.9g')},{format(res, '.9g')}\n")
    except OSError as exc:
        raise OSError(f"cannot write game trace to {path!r}: {exc}") from exc
