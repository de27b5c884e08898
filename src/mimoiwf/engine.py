"""Iterated water-filling game under synchronous and asynchronous schedules.

Users repeatedly water-fill against possibly stale views of each other's
powers. The schedule fixes who updates at each step and how old the views
may be; convergence is declared when a full round of updates no longer
moves the profile.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .netmodel import check_count, is_integer
from .precode import EffectiveNetwork
from .waterfill import (
    PowerProfile,
    best_responses,
    stream_floors,
    uniform_profile,
    user_rates,
    validate_profile,
    water_level,
)

DEFAULT_IT_MAX = 100
DEFAULT_TOL = 1e-6

SCHEDULE_KINDS = ("jacobi", "gauss_seidel", "random_async")
_BLOCK = 8  # steps of a make_schedule plan built, checked and prepared at a time


class ScheduleError(ValueError):
    """Raised for unknown schedule kinds, invalid bounds or a plan that does not fit."""


class Schedule:
    """Update plan for the iterated game.

    steps yields a hand-built plan in order, from a list or an iterator. Step
    n is a pair (members, ages): the users revising their power at step n,
    and a (Q, Q) integer array holding at [q, r] the age, 0..delay_bound, of
    user q's view of user r, or None when every view is fresh, as it is when
    delay_bound is 0. The plan is held as blocks of consecutive steps: a
    (B, Q) bool array of who moves and (B, Q, Q) intp ages, or None. A
    hand-built plan is pulled one step at a time; make_schedule builds its
    plans _BLOCK steps at a time. step(n) pulls and checks the block that
    holds step n the first time it reaches it, so games draw only the blocks
    they play, and games read each block as prepared once for their antenna
    layout. A drawn plan updates every user at least once in every
    update_bound steps; a hand-built one is not held to that, but a game
    declares convergence only at a step where every user has moved inside
    the last update_bound steps.

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
        self._source = _one_step_blocks(iter(steps), num_users)
        self._at: list[_Block] = []  # the block of each step pulled
        self._last = -1  # the step each user last moved at, after the last block pulled

    def step(self, n: int) -> tuple[tuple[int, ...], np.ndarray | None]:
        """Users updating at step n < it_max and their (Q, Q) view ages, None if fresh."""
        return self._play(n)[:2]

    def _play(self, n: int) -> tuple:
        """Step n as every game of the plan plays it: (members, ages, idle,
        settled). idle is the (Q,) mask of the users that keep their power,
        None when every user moves; settled says that every user has moved
        inside the update_bound steps that end at n."""
        block = self._block(n)
        i = n - block.start
        moves = block.moves[i]
        ages = None if block.ages is None else block.ages[i]
        idle = None if moves.all() else ~moves
        return tuple(np.flatnonzero(moves).tolist()), ages, idle, block.settled[i]

    def _prepare(self, n: int, layout) -> tuple:
        """Step n as a game on an antenna layout plays it: (owner, gather,
        keep, settled), owner being the layout's. Its block is prepared once
        and kept while games play on layouts with that owner array, compared
        by identity; another layout prepares it again.

        gather is None when every view is fresh, else the (Q, N) positions
        of the stale views in the raveled history rows that start at row n
        (see run_game): user q reads antenna j at
        (delay_bound - ages[q, owner[j]]) * N + j. keep is the (N,) mask of
        the antennas whose user keeps its power, None when every user moves.
        """
        block = self._block(n)
        if block.owner is not layout.owner:
            block.prepare(layout, self.delay_bound)
        return block.prepared[n - block.start]

    def _block(self, n: int) -> _Block:
        """The block that holds step n < it_max, pulled on first read."""
        at = self._at
        while len(at) <= n < self.it_max:
            self._pull(len(at))
        return at[n]

    def _pull(self, start: int) -> None:
        """Check the next block of the source, which starts at step start,
        and keep it with the settled flag of each of its steps."""
        try:
            moves, ages = next(self._source)
        except StopIteration:
            message = f"step {start}: the plan ends before it_max = {self.it_max}"
            raise ScheduleError(message) from None
        bound, window = self.delay_bound, self.update_bound
        if ages is not None:
            if ages.min() < 0 or ages.max() > bound:
                i, q, r = np.argwhere((ages < 0) | (ages > bound))[0].tolist()
                raise ScheduleError(
                    f"step {start + i}: user {q} views user {r} at age {ages[i, q, r]}, "
                    f"outside 0..{bound}"
                )
            # index-width ages, so that history rows past a narrow type's
            # range stay reachable
            ages = ages.astype(np.intp, copy=False) if bound else None
        steps = np.arange(start, start + len(moves))
        # the running maximum of the move steps, after the carried last moves,
        # which no step of this block precedes
        last = np.maximum.accumulate(np.where(moves, steps[:, None], self._last), axis=0)
        self._last = last[-1]
        settled = (steps >= window - 1) & (last.min(axis=1) > steps - window)
        self._at += [_Block(start, moves, ages, settled.tolist())] * len(moves)


@dataclass(slots=True)
class _Block:
    """Steps start.. of a plan: moves, a (B, Q) bool array whose row says
    which users move; ages, the (B, Q, Q) intp view ages or None; settled,
    one bool per step. prepared[i] is step start + i as Schedule._prepare
    returns it for the layouts with the owner array owner."""

    start: int
    moves: np.ndarray
    ages: np.ndarray | None
    settled: list[bool]
    owner: np.ndarray | None = None
    prepared: list[tuple] | None = None

    def prepare(self, layout, delay_bound: int) -> None:
        """Build every step's gather positions and keep mask for layout."""
        owner = self.owner = layout.owner
        gathers = itertools.repeat(None)
        if self.ages is not None:
            gathers = (delay_bound - self.ages.take(owner, axis=2)) * len(owner) + layout.antennas
        idle = ~self.moves
        some_idle = idle.any(axis=1).tolist()
        keeps = [keep if some else None for keep, some in zip(idle[:, owner], some_idle)]
        self.prepared = list(zip(itertools.repeat(owner), gathers, keeps, self.settled))


def _one_step_blocks(steps, num_users: int):
    """A hand-built plan as blocks of one step, each step's members and ages
    checked as it is pulled."""
    for n, (members, ages) in enumerate(steps):
        moves = np.zeros((1, num_users), dtype=bool)
        for q in members:
            if not ((type(q) is int or is_integer(q)) and 0 <= q < num_users):
                raise ScheduleError(f"step {n}: user {q!r} is not in a {num_users}-user network")
            moves[0, q] = True
        if ages is not None:
            ages = np.asarray(ages)
            if ages.shape != (num_users, num_users) or ages.dtype.kind not in "iu":
                raise ScheduleError(
                    f"step {n}: view ages have shape {ages.shape} and dtype {ages.dtype}, "
                    "not one integer age per user pair"
                )
            ages = ages[None]
        yield moves, ages


def _check_counts(**counts) -> None:
    """Name the first count that is not an integer (a bool is not) at or above its least."""
    for name, value in counts.items():
        check_count(name, value, 0 if name in ("seed", "delay_bound") else 1, ScheduleError)


class _NashGap:
    """GameTrace.nash_gap: check_nash at the last state, built on first read and
    kept unless given (replace may); the class-level default means not built."""

    def __get__(self, trace, owner=None):
        if trace is None:
            return self
        if "nash_gap" not in vars(trace):
            vars(trace)["nash_gap"] = check_nash(trace.net, trace.states[-1])
        return vars(trace)["nash_gap"]

    def __set__(self, trace, gap):
        if gap is not self:
            vars(trace)["nash_gap"] = gap


@dataclass
class GameTrace:
    """Full record of one game run.

    states is a read-only (steps + 1, N) array: states[0] is the stacked
    starting point and states[n] the stacked state after step n, which
    net.config.layout.offsets splits into users. residuals[n-1] is the
    largest power change made at step n. net is the network played;
    final_rates and nash_gap are built from it on first read and kept.
    """

    states: np.ndarray
    residuals: list[float]
    converged: bool
    iterations_used: int
    net: EffectiveNetwork = field(repr=False, compare=False)
    nash_gap: float = _NashGap()

    @cached_property
    def final_rates(self) -> np.ndarray:
        """Rate of every user at the last state, built on first read and kept."""
        return user_rates(self.net, self.states[-1])

    @property
    def profiles(self) -> list[PowerProfile]:
        """Every state split into users, built when read."""
        offsets = self.net.config.layout.offsets
        return [PowerProfile(np.split(x, offsets[1:-1])) for x in self.states]


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
    and draws view ages uniformly from {0..delay_bound}. Each plan is built
    _BLOCK steps at a time, each block only when first read, so games that
    stop early draw at most one block past what they play.

    Raises:
        ScheduleError: on an unknown kind, or on a count, bound or seed that
            is not an integer (a bool is not) or is out of range; names it.
    """
    if kind not in SCHEDULE_KINDS:
        raise ScheduleError(f"unknown schedule kind {kind!r}, expected one of {SCHEDULE_KINDS}")
    _check_counts(seed=seed, delay_bound=delay_bound, update_bound=update_bound)

    if kind == "random_async":
        blocks = _async_blocks(num_users, it_max, seed, delay_bound, update_bound)
    else:  # every view fresh; gauss_seidel moves each user once a round
        blocks = _cyclic_blocks(num_users, it_max, every=kind == "jacobi")
        delay_bound, update_bound = 0, 1 if kind == "jacobi" else num_users
    schedule = Schedule(num_users, it_max, (), delay_bound, update_bound)
    schedule._source = blocks  # a generator, which runs after Schedule checked the counts
    return schedule


def _cyclic_blocks(num_users: int, it_max: int, every: bool):
    """Fresh-view blocks: every user at every step, or else user n % Q at step n."""
    period = np.ones((1, num_users), dtype=bool) if every else np.eye(num_users, dtype=bool)
    for start in range(0, it_max, _BLOCK):
        yield period[np.arange(start, min(start + _BLOCK, it_max)) % len(period)], None


def _async_blocks(num_users: int, it_max: int, seed: int, delay_bound: int, update_bound: int):
    """random_async blocks; each step draws rng.random, then rng.integers if
    delay_bound > 0, as a step-by-step draw does.

    A user moves at a coin below 0.5, and is forced when update_bound steps
    pass without a move: at step n when (n - its last coin move) is a
    multiple of update_bound, -1 standing for no coin move yet.
    """
    rng = np.random.default_rng(seed)
    last = -1  # each user's last coin move, after the last block drawn
    for start in range(0, it_max, _BLOCK):
        steps = np.arange(start, min(start + _BLOCK, it_max))[:, None]
        coins = np.empty((len(steps), num_users))
        ages = None
        if delay_bound > 0:
            ages = np.empty((len(steps), num_users, num_users), dtype=np.intp)
        for i, row in enumerate(coins):
            rng.random(out=row)
            if ages is not None:
                ages[i] = rng.integers(0, delay_bound + 1, size=(num_users, num_users))
        if ages is not None:
            ages.reshape(len(steps), -1)[:, :: num_users + 1] = 0  # own power is always current
        # no coin move of this block precedes the carried one
        last = np.maximum.accumulate(np.where(coins < 0.5, steps, last), axis=0)
        yield (steps - last) % update_bound == 0, ages
        last = last[-1]


def run_game(
    net: EffectiveNetwork,
    schedule: Schedule,
    start: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
) -> GameTrace:
    """Iterate water-filling responses under a schedule.

    start is a stacked power vector, the uniform split by default.
    Convergence is declared once every user has updated inside the last
    update_bound steps and the residuals of those steps are all below tol.
    The step's residual is its one check: interference or a water level
    too large for a float makes it inf or NaN.

    Raises:
        ValueError: on an infeasible start, or at a step whose residual is
            not finite, naming the float overflow.
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
    # the start when the age exceeds n, which the step's gather positions
    # address in the rows history[n:], raveled); it starts with room for 64
    # steps and doubles when full, so its memory follows the steps played
    lead = schedule.delay_bound
    layout = cfg.layout
    history = np.empty((lead + min(schedule.it_max, 64) + 1, layout.offsets[-1]))
    history[: lead + 1] = start
    window = schedule.update_bound
    residuals: list[float] = []
    converged = False
    prepare = schedule._prepare

    # an overflow shows in the residual, which the step checks
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(schedule.it_max):
            _, gather, keep, settled = prepare(n, layout)
            now = lead + n
            if now + 1 == len(history):
                history = np.concatenate((history, np.empty_like(history)))
            x = history[now]
            new = best_responses(net, x if gather is None else history[n:].take(gather))
            if keep is not None:
                np.copyto(new, x, where=keep)
            history[now + 1] = new
            new -= x  # the fresh response becomes the residual
            residual = float(np.maximum.reduce(np.abs(new, out=new)))
            if not residual < np.inf:  # inf or NaN
                raise ValueError(
                    f"step {n}: float overflow: the interference or water level "
                    "at these powers is too large for a float"
                )
            residuals.append(residual)
            if settled and max(residuals[-window:]) < tol:
                converged = True
                break

    states = history[lead : lead + len(residuals) + 1]
    states.setflags(write=False)
    return GameTrace(
        states=states,
        residuals=residuals,
        converged=converged,
        iterations_used=len(residuals),
        net=net,
    )


def check_nash(net: EffectiveNetwork, x: np.ndarray) -> float:
    """Largest distance of any user's power in x from its own best response.

    The checked verifier: the responses come from water_level, with every
    input check, where a game step runs the unchecked core.
    """
    layout = net.config.layout
    response = water_level(stream_floors(net, x), layout.budget).powers
    return float(np.abs(x - response[layout.antenna_mask]).max())


def trace_to_csv(trace: GameTrace, path: str) -> None:
    """Write (iteration, user, antenna, power, residual) rows."""
    tx = trace.net.config.tx_antennas
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
