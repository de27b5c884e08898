"""Iterated water-filling game under synchronous and asynchronous schedules.

Users repeatedly water-fill against possibly stale views of each other's
powers. The schedule fixes who updates at each step and how old the views
may be; convergence is declared when a full round of updates no longer
moves the profile.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .netmodel import check_count, check_number, is_integer
from .precode import EffectiveNetwork
from .waterfill import (
    PowerProfile,
    best_responses,
    profile_vector,
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
    (B, Q) bool array of who moves, (B, Q, Q) intp ages or None, and one
    settled flag per step, true when every user has moved inside the
    update_bound steps that end at it. A hand-built plan is pulled one step
    at a time, each step checked and copied as it is pulled; make_schedule
    builds its plans _BLOCK steps at a time, valid as drawn. step(n) pulls
    the block that holds step n the first time it reaches it, so games draw
    only the blocks they play, and a game reads the plan block by block,
    each block prepared once for its antenna layout. A drawn plan updates
    every user at least once in every update_bound steps; a hand-built one
    is not held to that, but a game declares convergence only at a settled
    step.

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
        self._source = _one_step_blocks(iter(steps), num_users, delay_bound, update_bound)
        self._at: list[_Block] = []  # the block of each step pulled

    def step(self, n: int) -> tuple[tuple[int, ...], np.ndarray | None]:
        """Users updating at step n and their (Q, Q) view ages, None if fresh.

        Raises:
            ScheduleError: naming n when it is not an integer (a bool is not)
                in 0..it_max - 1, or on a plan step the schedule refuses.
        """
        if not ((type(n) is int or is_integer(n)) and 0 <= n < self.it_max):
            raise ScheduleError(f"step must be an integer in 0..{self.it_max - 1}, got {n!r}")
        block = self._block(n)
        i = n - block.start
        ages = None if block.ages is None else block.ages[i]
        return tuple(np.flatnonzero(block.moves[i]).tolist()), ages

    def _played(self, layout):
        """Steps 0.. as a game on an antenna layout plays them, in order:
        (gather, keep, settled) each. Each block is prepared once and kept
        while games play on layouts with the layout's owner array, compared
        by identity; another layout prepares it again.

        gather is None when every view is fresh, else the (Q, N) positions
        of the stale views in the raveled history rows that start at row n
        (see run_game): user q reads antenna j at
        (delay_bound - ages[q, owner[j]]) * N + j. keep is the (N,) mask of
        the antennas whose user keeps its power, None when every user moves;
        settled, that every user moved inside the update_bound steps to n.
        """
        n = 0
        while n < self.it_max:
            block = self._block(n)
            if block.owner is not layout.owner:
                block.prepare(layout, self.delay_bound)
            yield from block.prepared
            n += len(block.prepared)

    def _block(self, n: int) -> _Block:
        """The block that holds step n < it_max, pulled on first read."""
        at = self._at
        while len(at) <= n:
            try:
                moves, ages, settled = next(self._source)
            except StopIteration:
                message = f"step {len(at)}: the plan ends before it_max = {self.it_max}"
                raise ScheduleError(message) from None
            at += [_Block(len(at), moves, ages, settled)] * len(moves)
        return at[n]


@dataclass(slots=True)
class _Block:
    """Steps start.. of a plan: moves, a (B, Q) bool array whose row says
    which users move; ages, the (B, Q, Q) intp view ages or None; settled,
    one bool per step. prepared[i] is step start + i as Schedule._played
    yields it for the layouts with the owner array owner, which keys it."""

    start: int
    moves: np.ndarray
    ages: np.ndarray | None
    settled: list[bool]
    owner: np.ndarray | None = None
    prepared: list[tuple] | None = None

    def prepare(self, layout, delay_bound: int) -> None:
        """Build every step's gather positions and keep mask for layout."""
        owner = self.owner = layout.owner
        gathers = [None] * len(self.moves)
        if self.ages is not None:
            gathers = (delay_bound - self.ages.take(owner, axis=2)) * len(owner) + layout.antennas
        idle = ~self.moves.take(owner, axis=1)  # per antenna
        everyone = self.moves.all(axis=1).tolist()
        keeps = [None if all_move else keep for keep, all_move in zip(idle, everyone)]
        self.prepared = list(zip(gathers, keeps, self.settled))


def _one_step_blocks(steps, num_users: int, delay_bound: int, update_bound: int):
    """A hand-built plan as blocks of one step, each step's members and ages
    checked as it is pulled; ages become an intp copy, or None at
    delay_bound 0, and settled comes from each user's last move."""
    last = [-1] * num_users  # the step each user last moved at
    for n, (members, ages) in enumerate(steps):
        moves = np.zeros((1, num_users), dtype=bool)
        for q in members:
            if not ((type(q) is int or is_integer(q)) and 0 <= q < num_users):
                raise ScheduleError(f"step {n}: user {q!r} is not in a {num_users}-user network")
            moves[0, q] = True
            last[q] = n
        if ages is not None:
            ages = np.asarray(ages)
            if ages.shape != (num_users, num_users) or ages.dtype.kind not in "iu":
                raise ScheduleError(
                    f"step {n}: view ages have shape {ages.shape} and dtype {ages.dtype}, "
                    "not one integer age per user pair"
                )
            if ages.min() < 0 or ages.max() > delay_bound:
                q, r = np.argwhere((ages < 0) | (ages > delay_bound))[0].tolist()
                raise ScheduleError(
                    f"step {n}: user {q} views user {r} at age {ages[q, r]}, "
                    f"outside 0..{delay_bound}"
                )
            # index-width ages reach the history rows past a narrow type's
            # range; a copy, so that the caller's later edits go unread
            ages = ages[None].astype(np.intp) if delay_bound else None
        yield moves, ages, [n >= update_bound - 1 and min(last) > n - update_bound]


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
    largest power change made at step n, and iterations_used counts them.
    net is the network played; final_rates and nash_gap are built from it
    on first read and kept.
    """

    states: np.ndarray
    residuals: list[float]
    converged: bool
    net: EffectiveNetwork = field(repr=False, compare=False)
    nash_gap: float = _NashGap()

    @property
    def iterations_used(self) -> int:
        """The steps played, one residual each."""
        return len(self.residuals)

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
    seed: int | np.random.Generator = 0,
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

    A seed is a nonnegative integer or a Generator: random_async reads the
    stream of np.random.default_rng(seed), which advances a Generator.

    Raises:
        ScheduleError: on an unknown kind, or on a count, bound or seed that
            is not an integer (a bool is not) or is out of range, naming it;
            a Generator seed is not checked.
    """
    if kind not in SCHEDULE_KINDS:
        raise ScheduleError(f"unknown schedule kind {kind!r}, expected one of {SCHEDULE_KINDS}")
    seeded = {} if isinstance(seed, np.random.Generator) else {"seed": seed}
    _check_counts(**seeded, delay_bound=delay_bound, update_bound=update_bound)

    if kind == "random_async":
        blocks = _async_blocks(num_users, it_max, seed, delay_bound, update_bound)
    else:  # every view fresh; gauss_seidel moves each user once a round
        delay_bound, update_bound = 0, 1 if kind == "jacobi" else num_users
        blocks = _cyclic_blocks(num_users, it_max, update_bound)
    schedule = Schedule(num_users, it_max, (), delay_bound, update_bound)
    schedule._source = blocks  # a generator, which runs after Schedule checked the counts
    return schedule


def _cyclic_blocks(num_users: int, it_max: int, update_bound: int):
    """Fresh-view blocks that move every user once in each update_bound
    steps: all users at every step at update_bound 1, or else user n % Q at
    step n. A step is settled from step update_bound - 1 on."""
    every = np.ones((1, num_users), dtype=bool)
    period = every if update_bound == 1 else np.eye(num_users, dtype=bool)
    for start in range(0, it_max, _BLOCK):
        steps = np.arange(start, min(start + _BLOCK, it_max))
        yield period[steps % len(period)], None, (steps >= update_bound - 1).tolist()


def _async_blocks(num_users: int, it_max: int, seed, delay_bound: int, update_bound: int):
    """random_async blocks; each step draws rng.random, then rng.integers if
    delay_bound > 0, as a step-by-step draw does.

    A user moves at a coin below 0.5, and is forced when update_bound steps
    pass without a move: at step n when (n - its last coin move) is a
    multiple of update_bound, -1 standing for no coin move yet. So every
    window of update_bound steps moves every user, and a step is settled
    from step update_bound - 1 on.
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
        settled = (steps[:, 0] >= update_bound - 1).tolist()
        yield (steps - last) % update_bound == 0, ages, settled
        last = last[-1]


def run_game(
    net: EffectiveNetwork,
    schedule: Schedule,
    start: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
) -> GameTrace:
    """Iterate water-filling responses under a schedule.

    start is a stacked power vector, checked by validate_profile when it is
    given; the default is the uniform split, feasible by construction.
    Convergence is declared once every user has updated inside the last
    update_bound steps and the residuals of those steps are all below tol.
    The step's residual is its one check: interference or a water level
    too large for a float makes it inf or NaN.

    Raises:
        ValueError: on a tol that check_number refuses as "nonnegative",
            naming it; on an infeasible start; or at a step whose residual is
            not finite, naming the float overflow.
        ScheduleError: on a schedule for another number of users, or on a
            plan step the schedule refuses.
    """
    cfg = net.config
    if schedule.num_users != cfg.num_users:
        raise ScheduleError(f"schedule for {schedule.num_users} users, network of {cfg.num_users}")
    check_number("tol", tol, "nonnegative")
    start = uniform_profile(cfg) if start is None else validate_profile(start, cfg)

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
    calm = 0  # the residuals below tol at the end of residuals
    converged = False

    # an overflow shows in the residual, which the step checks
    with np.errstate(over="ignore", invalid="ignore"):
        for n, (gather, keep, settled) in enumerate(schedule._played(layout)):
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
            calm = calm + 1 if residual < tol else 0
            # a settled step has at least window residuals, so the last
            # window of them are all below tol
            if settled and calm >= window:
                converged = True
                break

    states = history[lead : lead + len(residuals) + 1]
    states.setflags(write=False)
    return GameTrace(states=states, residuals=residuals, converged=converged, net=net)


def check_nash(net: EffectiveNetwork, x: np.ndarray) -> float:
    """Largest distance of any user's power in x from its own best response.

    The checked verifier: x goes through profile_vector, and the responses
    come from water_level, with every input check, where a game step runs
    the unchecked core.
    """
    x = profile_vector(x, net.config)
    layout = net.config.layout
    response = water_level(stream_floors(net, x), layout.budget).powers
    return float(np.abs(x - response.take(layout.antenna_slots)).max())


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
