"""Monte Carlo sweeps over interference distance and power budget.

Each trial draws a network realization, certifies uniqueness of the
water-filling equilibrium, and replays the game from three different
starting points to probe uniqueness empirically. Results aggregate into
one CSV row per sweep point.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, fields
from functools import cached_property, partial

import numpy as np

from .contraction import certify
from .engine import DEFAULT_IT_MAX, DEFAULT_TOL, SCHEDULE_KINDS, Schedule, make_schedule, run_game
from .netmodel import FLOAT_MAX, ConfigError, NetworkConfig, check_count, is_number
from .netmodel import default_rngs, sample_channels, seed_words
from .precode import build_effective_network
from .waterfill import greedy_profile, split_budgets, sum_rate, uniform_profile

SWEEP_VARIABLES = ("cross_distance", "power_budget_db")

CSV_COLUMNS = (
    "sweep_value",
    "p_norm_cond",
    "p_strict_cond",
    "p_spectral",
    "p_empirical_unique",
    "mean_sum_rate",
    "mean_iterations",
    "excluded_trials",
)


@dataclass(frozen=True)
class SweepSpec:
    """Scenario and sweep description shared by all trials.

    sweep_variable selects what sweep_values mean: the common cross-link
    distance, or the per-user power budget in dB over unit noise. Whichever
    is not swept is fixed by power_budget_db or by interference_ratio_db,
    the received cross-to-direct power ratio that sets the cross distance.

    Construction stores sweep_values as a tuple and runs validate_spec, so
    every instance is consistent and hashable: a field annotated int must be
    a count, and one annotated float, like each sweep value, a number. The
    points and plan are not fields: equality, hashing, repr, replace and
    pickling see the fields only.
    """

    num_users: int = 4
    tx_antennas: int = 2
    rx_antennas: int = 2
    direct_distance: float = 15.0
    pathloss_exponent: float = 2.5
    noise_power: float = 1.0
    sweep_variable: str = "cross_distance"
    sweep_values: tuple[float, ...] = (15.0, 25.0, 35.0, 45.0, 55.0)
    trials: int = 300
    power_budget_db: float = 10.0
    interference_ratio_db: float = -10.0
    schedule: str = "jacobi"
    it_max: int = DEFAULT_IT_MAX
    delay_bound: int = 3
    update_bound: int = 5
    game_tol: float = DEFAULT_TOL
    agreement_tol: float = 1e-5
    max_retries: int = 8
    base_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "sweep_values", tuple(self.sweep_values))
        validate_spec(self)

    def __getstate__(self) -> dict:
        # a pool worker's copy builds its own points and plan on first read
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def points(self) -> tuple[tuple[float, NetworkConfig, np.ndarray, np.ndarray], ...]:
        """(value, config, uniform start, greedy start) of each sweep point, built
        and checked on first read, which validate_spec makes, and shared by its
        trials; the starts are read-only.

        Raises:
            ConfigError: naming the sweep value whose network is refused.
        """
        points = []
        for v in self.sweep_values:
            try:
                cfg = trial_config(self, float(v))
            except (ConfigError, ArithmeticError) as exc:
                raise ConfigError(f"at {self.sweep_variable} = {v!r}: {exc}") from exc
            uniform, greedy = uniform_profile(cfg), greedy_profile(cfg)
            uniform.setflags(write=False)
            greedy.setflags(write=False)
            points.append((float(v), cfg, uniform, greedy))
        return tuple(points)

    @cached_property
    def plan(self) -> Schedule | None:
        """The one jacobi or gauss_seidel plan every trial plays, built on first
        read; None for random_async, whose trials draw their own."""
        if self.schedule == "random_async":
            return None
        return make_schedule(self.schedule, self.num_users, it_max=self.it_max)


@dataclass
class TrialRecord:
    """Outcome of a single Monte Carlo trial.

    A failed trial keeps the defaults: NaN values, false flags, 0 iterations.
    """

    point_index: int
    point_value: float
    trial_index: int
    failed: bool
    retries: int
    row_norm: float = float("nan")
    col_norm: float = float("nan")
    spectral: float = float("nan")
    norm_cond: bool = False
    strict_cond: bool = False
    spectral_cond: bool = False
    converged_all: bool = False
    max_disagreement: float = float("nan")
    empirically_unique: bool = False
    sum_rate_value: float = float("nan")
    iterations: int = 0


@dataclass
class SweepResult:
    """Aggregated sweep rows plus the raw per-trial records."""

    spec: SweepSpec
    rows: list[dict]
    records: list[TrialRecord]


def validate_spec(spec: SweepSpec) -> SweepSpec:
    """Check a SweepSpec, including the network of every sweep point.

    Every SweepSpec is checked when it is built; call this to re-check.

    Raises:
        ConfigError: naming the offending field.
    """
    if spec.sweep_variable not in SWEEP_VARIABLES:
        raise ConfigError(
            f"sweep_variable must be one of {SWEEP_VARIABLES}, got {spec.sweep_variable!r}"
        )
    if len(spec.sweep_values) == 0:
        raise ConfigError("sweep_values must be non-empty")
    for f in fields(spec):  # annotations are strings under the __future__ import
        value = getattr(spec, f.name)
        if f.type == "int":
            check_count(f.name, value, 0 if f.name in ("delay_bound", "base_seed") else 1)
        elif f.type == "float" and not is_number(value):
            raise ConfigError(f"{f.name} must be a number, got {value!r}")
    for k, v in enumerate(spec.sweep_values):
        if not is_number(v):
            raise ConfigError(f"sweep_values[{k}] must be a number, got {v!r}")
    if any(b <= a for a, b in zip(spec.sweep_values, spec.sweep_values[1:])):
        raise ConfigError("sweep_values must be strictly increasing")
    if not 0 < spec.game_tol <= FLOAT_MAX:
        raise ConfigError(f"game_tol must be positive and finite, got {spec.game_tol!r}")
    if not 0 <= spec.agreement_tol <= FLOAT_MAX:
        raise ConfigError(
            f"agreement_tol must be nonnegative and finite, got {spec.agreement_tol!r}"
        )
    if spec.schedule not in SCHEDULE_KINDS:
        raise ConfigError(f"schedule must be one of {SCHEDULE_KINDS}, got {spec.schedule!r}")
    spec.points  # builds and checks the network of every sweep point
    return spec


def db_to_linear(value_db: float) -> float:
    """Decibel value relative to unity, as a linear factor."""
    return float(10.0 ** (value_db / 10.0))


def trial_config(spec: SweepSpec, point_value: float) -> NetworkConfig:
    """Network description at one sweep point."""
    if spec.sweep_variable == "cross_distance":
        budget = db_to_linear(spec.power_budget_db)
        cross = float(point_value)
    else:
        budget = db_to_linear(float(point_value))
        # received cross/direct power ratio fixes the distance ratio
        if spec.pathloss_exponent == 0:
            raise ConfigError(
                "interference_ratio_db cannot set the cross distance at pathloss_exponent 0, "
                "where every link has the same gain"
            )
        try:
            cross = spec.direct_distance * 10.0 ** (
                -spec.interference_ratio_db / (10.0 * spec.pathloss_exponent)
            )
        except OverflowError:
            cross = np.inf
        if not 0.0 < cross < np.inf:
            raise ConfigError(
                f"interference_ratio_db {spec.interference_ratio_db!r} cannot set the cross "
                f"distance at pathloss_exponent {spec.pathloss_exponent!r}, where it comes out "
                f"as {cross!r}, not a positive finite float"
            )
    return NetworkConfig(
        num_users=spec.num_users,
        tx_antennas=spec.tx_antennas,
        rx_antennas=spec.rx_antennas,
        power_budget=budget,
        noise_power=spec.noise_power,
        direct_distance=spec.direct_distance,
        cross_distance=cross,
        pathloss_exponent=spec.pathloss_exponent,
    )


# A chunk is a run of at most this many consecutive (point, trial) keys,
# in point-major order, drawn, rotated and certified as one stack.
CHUNK_TRIALS = 64

# (id(spec), point index, trial index) -> prepared trial of the chunk being
# played. run_trial keeps its (spec, point, trial) call, which perfbench's
# tracer and self-check wrap, so a chunk hands each trial its draw here.
_ready: dict = {}


def _prepare(spec: SweepSpec, keys) -> list[tuple]:
    """(network or None, certificate, retries, random start, plan seed) of
    each (point, trial) key, drawn, rotated and certified as one stack, each
    draw under the config of its own sweep point.

    A trial's max_retries + 2 seeds are those of
    np.random.SeedSequence((base_seed, point, trial)), all derived in one
    seed_words pass; one default_rngs pass then seeds the generators of
    every key's first draw and random start, and of a random_async trial's
    plan. Attempt a draws every key that is still degenerate (all keys at
    attempt 0) with the trial's seed a, in one stack under the keys' own
    configs, up to max_retries draws in all. Seed max_retries draws the
    random start, seed max_retries + 1 an async trial's plan: the plan seed
    is that seed's generator, None for a schedule that draws no plan.
    """
    configs = [spec.points[p][1] for p, _ in keys]
    seeds = seed_words([(spec.base_seed, p, t) for p, t in keys], spec.max_retries + 2).tolist()
    firsts, starts = [s[0] for s in seeds], [s[spec.max_retries] for s in seeds]
    plans = [s[spec.max_retries + 1] for s in seeds] if spec.schedule == "random_async" else []
    rngs = default_rngs(firsts + starts + plans)
    nets, retries = [None] * len(keys), [spec.max_retries] * len(keys)
    redraw = range(len(keys))
    for attempt in range(spec.max_retries):
        cfgs = [configs[k] for k in redraw]
        draws = [seeds[k][attempt] if attempt else rngs[k] for k in redraw]
        for k, net in zip(redraw, build_effective_network(sample_channels(cfgs, draws), cfgs)):
            if net is not None:
                nets[k], retries[k] = net, attempt
        if not (redraw := [k for k in redraw if nets[k] is None]):
            break
    certs = iter(certify([net for net in nets if net is not None]))
    weights = np.empty((len(keys), configs[0].layout.offsets[-1]))
    for rng, row in zip(rngs[len(keys) : 2 * len(keys)], weights):
        rng.random(out=row)
    starts = split_budgets(weights, configs)
    plans = rngs[2 * len(keys) :] or [None] * len(keys)
    return [
        (net, None if net is None else next(certs), r, start, plan)
        for net, r, start, plan in zip(nets, retries, starts, plans)
    ]


def run_trial(spec: SweepSpec, point_index: int, trial_index: int) -> TrialRecord:
    """One seeded trial: draw, certify, replay from three starts.

    The trial seed is derived from (base_seed, point_index, trial_index)
    alone, so results do not depend on execution order, chunking or worker
    count. A rank-deficient draw is redrawn, up to max_retries draws in all,
    and the trial is marked failed when every one is rank-deficient. Called
    alone, the trial is a stack of one; within a sweep its chunk has
    prepared it.
    """
    point_value, cfg, uniform, greedy = spec.points[point_index]
    prepared = _ready.pop((id(spec), point_index, trial_index), None)
    net, cert, retries, random_start, plan_seed = (
        prepared or _prepare(spec, [(point_index, trial_index)])[0]
    )
    if net is None:
        return TrialRecord(point_index, point_value, trial_index, failed=True, retries=retries)

    schedule = spec.plan or make_schedule(
        spec.schedule,
        cfg.num_users,
        it_max=spec.it_max,
        seed=plan_seed,
        delay_bound=spec.delay_bound,
        update_bound=spec.update_bound,
    )
    starts = (uniform, greedy, random_start)
    traces = [run_game(net, schedule, start, tol=spec.game_tol) for start in starts]

    # the largest spread of any antenna's final power is the largest
    # pairwise distance between the three final states
    a, b, c = (t.states[-1] for t in traces)
    disagreement = float((np.maximum(np.maximum(a, b), c) - np.minimum(np.minimum(a, b), c)).max())
    converged_all = all(t.converged for t in traces)
    unique = converged_all and disagreement <= spec.agreement_tol

    return TrialRecord(
        point_index=point_index,
        point_value=point_value,
        trial_index=trial_index,
        failed=False,
        retries=retries,
        row_norm=cert.row_norm,
        col_norm=cert.col_norm,
        spectral=cert.spectral_radius,
        norm_cond=cert.norm_unique,
        strict_cond=cert.strict_row_cond or cert.strict_col_cond,
        spectral_cond=cert.spectral_unique,
        converged_all=converged_all,
        max_disagreement=disagreement,
        empirically_unique=unique,
        sum_rate_value=sum_rate(net, traces[0].states[-1]),
        iterations=traces[0].iterations_used,
    )


def _run_chunk(spec: SweepSpec, keys: list[tuple[int, int]]) -> list[TrialRecord]:
    """Records of some (point, trial) keys, prepared as one stack and then
    played one run_trial call each."""
    for key, prepared in zip(keys, _prepare(spec, keys)):
        _ready[(id(spec), *key)] = prepared
    try:
        return [run_trial(spec, p, t) for p, t in keys]
    finally:
        _ready.clear()


def _aggregate(spec: SweepSpec, records: list[TrialRecord]) -> list[dict]:
    rows = []
    for pi, value in enumerate(spec.sweep_values):
        batch = [r for r in records if r.point_index == pi]
        ok = [r for r in batch if not r.failed]
        excluded = len(batch) - len(ok)
        denom = max(len(ok), 1)

        def frac(flag) -> float:
            return sum(1 for r in ok if flag(r)) / denom

        rows.append(
            {
                "sweep_value": float(value),
                "p_norm_cond": frac(lambda r: r.norm_cond and r.empirically_unique),
                "p_strict_cond": frac(lambda r: r.strict_cond and r.empirically_unique),
                "p_spectral": frac(lambda r: r.spectral_cond and r.empirically_unique),
                "p_empirical_unique": frac(lambda r: r.empirically_unique),
                "mean_sum_rate": float(np.mean([r.sum_rate_value for r in ok]))
                if ok
                else float("nan"),
                "mean_iterations": float(np.mean([r.iterations for r in ok]))
                if ok
                else float("nan"),
                "excluded_trials": excluded,
            }
        )
    return rows


def _run_sweep(spec: SweepSpec, jobs: int, name: str, variable: str) -> SweepResult:
    if spec.sweep_variable != variable:
        raise ConfigError(
            f"{name} sweep needs sweep_variable {variable!r}, got {spec.sweep_variable!r}"
        )
    check_count("jobs", jobs, 1)
    keys = [(pi, t) for pi in range(len(spec.sweep_values)) for t in range(spec.trials)]
    # no more workers than CPUs, and at least four chunks a worker when the
    # sweep has that many trials
    workers = min(jobs, os.cpu_count() or 1)
    size = CHUNK_TRIALS if jobs == 1 else max(1, min(CHUNK_TRIALS, len(keys) // (4 * workers)))
    chunks = [keys[start : start + size] for start in range(0, len(keys), size)]
    run_chunk = partial(_run_chunk, spec)
    if jobs == 1:
        done = list(map(run_chunk, chunks))
    else:
        from concurrent.futures import ProcessPoolExecutor  # imported here: ~20 ms of start-up

        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            done = list(pool.map(run_chunk, chunks))
    records = [rec for chunk in done for rec in chunk]
    return SweepResult(spec=spec, rows=_aggregate(spec, records), records=records)


def sweep_uniqueness(spec: SweepSpec, jobs: int = 1) -> SweepResult:
    """Probability of certified and observed uniqueness vs cross distance."""
    return _run_sweep(spec, jobs, "uniqueness", "cross_distance")


def sweep_sumrate(spec: SweepSpec, jobs: int = 1) -> SweepResult:
    """Mean converged sum rate vs per-user power budget in dB."""
    return _run_sweep(spec, jobs, "sum-rate", "power_budget_db")


def write_csv(result: SweepResult, path: str) -> None:
    """Write one row per sweep point; floats carry 9 significant digits."""
    try:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for row in result.rows:
                cells = []
                for col in CSV_COLUMNS:
                    v = row[col]
                    cells.append(str(v) if col == "excluded_trials" else format(v, ".9g"))
                fh.write(",".join(cells) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write sweep results to {path!r}: {exc}") from exc
