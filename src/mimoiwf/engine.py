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

    steps yields the plan in order, from a list (a hand-built plan) or an
    iterator (a drawn one). Step n is a pair (members, ages): the users
    revising their power at step n, and a (Q, Q) integer array holding at
    [q, r] the age, 0..delay_bound, of user q's view of user r, or None when
    every view is fresh, as it is when delay_bound is 0. No user goes more
    than update_bound steps without an update. step(n) pulls and checks each
    step the first time it reaches it, so games draw only what they play.

    Raises:
        ScheduleError: on a count or bound that is not an integer (a bool is
            not) or is out of range, naming it; and, naming the step (and user
            pair), on a user outside 0..num_users-1, on view ages that are not
            (Q, Q) integers in 0..delay_bound, or on a plan shorter than it_max.
    """

    def __init__(self, num_users, it_max, steps, delay_bound=0, update_bound=1):
        self.num_users, self.it_max = num_users, it_max
        self.delay_bound, self.update_bound = delay_bound, update_bound
        _check_counts(**vars(self))
        self._source = iter(steps)
        self._steps: list[tuple[tuple[int, ...], np.ndarray | None]] = []

    def step(self, n: int) -> tuple[tuple[int, ...], np.ndarray | None]:
        """Users updating at step n < it_max and their (Q, Q) view ages, None if fresh."""
        while len(self._steps) <= n < self.it_max:
            self._steps.append(self._pull(len(self._steps)))
        return self._steps[n]

    def _pull(self, n: int) -> tuple[tuple[int, ...], np.ndarray | None]:
        try:
            members, ages = next(self._source)
        except StopIteration:
            raise ScheduleError(f"step {n}: the plan ends before it_max = {self.it_max}") from None
        members, users, bound = tuple(members), self.num_users, self.delay_bound
        for q in members:
            if isinstance(q, bool) or not isinstance(q, (int, np.integer)) or not 0 <= q < users:
                raise ScheduleError(f"step {n}: user {q!r} is not in a {users}-user network")
        if ages is not None:
            ages = np.asarray(ages)
            if ages.shape != (users, users) or ages.dtype.kind not in "iu":
                raise ScheduleError(
                    f"step {n}: view ages have shape {ages.shape} and dtype {ages.dtype}, "
                    "not one integer age per user pair"
                )
            if min(flat := ages.ravel().tolist()) < 0 or max(flat) > bound:
                q, r = np.argwhere((ages < 0) | (ages > bound))[0].tolist()
                raise ScheduleError(
                    f"step {n}: user {q} views user {r} at age {ages[q, r]}, outside 0..{bound}"
                )
        return members, (ages if bound else None)


def _check_counts(**counts) -> None:
    """Name the first count that is not an integer (a bool is not) at or above its least."""
    for name, value in counts.items():
        low = 0 if name in ("seed", "delay_bound") else 1
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
            raise ScheduleError(f"{name} must be an integer >= {low}, got {value!r}")


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
        ScheduleError: on an unknown kind, or on a count, bound or seed that
            is not an integer (a bool is not) or is out of range; names it.
    """
    if kind not in SCHEDULE_KINDS:
        raise ScheduleError(f"unknown schedule kind {kind!r}, expected one of {SCHEDULE_KINDS}")
    _check_counts(seed=seed, delay_bound=delay_bound, update_bound=update_bound)

    if kind == "jacobi":  # steps are built lazily, after Schedule checks num_users
        steps = ((tuple(range(num_users)), None) for _ in itertools.count())
        return Schedule(num_users, it_max, steps)

    if kind == "gauss_seidel":
        steps = (((q,), None) for _ in itertools.count() for q in range(num_users))
        return Schedule(num_users, it_max, steps, update_bound=num_users)

    steps = _async_steps(num_users, it_max, seed, delay_bound, update_bound)
    return Schedule(num_users, it_max, steps, delay_bound, update_bound)


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
        ScheduleError: on a schedule for another number of users, or on a
            plan step the schedule refuses.
    """
    cfg = net.config
    if schedule.num_users != cfg.num_users:
        raise ScheduleError(f"schedule for {schedule.num_users} users, network of {cfg.num_users}")
    start = uniform_profile(cfg) if start is None else start
    validate_profile(start, cfg)

    # history[lead + n] is the stacked state after step n, behind lead copies
    # of the start: the trace and, for stale views, the delay buffer (user q
    # reads antenna j of user r at step n from history[lead + n - ages[q, r]],
    # the start when the age exceeds n)
    lead = schedule.delay_bound
    layout = cfg.layout
    history = np.empty((lead + schedule.it_max + 1, layout.offsets[-1]))
    history[: lead + 1] = start
    antennas, owner = layout.antennas, layout.owner
    window = schedule.update_bound
    last_update = [-1] * cfg.num_users
    movers: dict[tuple[int, ...], np.ndarray | None] = {}  # antennas that move, None if all
    residuals: list[float] = []
    converged = False

    for n in range(schedule.it_max):
        members, ages = schedule.step(n)
        if members not in movers:
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
        offsets=layout.offsets,
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
