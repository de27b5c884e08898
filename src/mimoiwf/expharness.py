"""Monte Carlo sweeps over interference distance and power budget.

Each trial draws a network realization, certifies uniqueness of the
water-filling equilibrium, and replays the game from three different
starting points to probe uniqueness empirically. Results aggregate into
one CSV row per sweep point.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property, partial

import numpy as np

from .contraction import certify
from .engine import SCHEDULE_KINDS, make_schedule, run_game
from .netmodel import ConfigError, NetworkConfig, symmetric_config
from .netmodel import sample_channels
from .precode import DegenerateChannelError, build_effective_network
from .waterfill import greedy_profile, random_profile, sum_rate, uniform_profile

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
    every instance is consistent and hashable. The points are not a field:
    equality, hashing, repr, replace and pickling see the fields only.
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
    it_max: int = 100
    delay_bound: int = 3
    update_bound: int = 5
    game_tol: float = 1e-6
    agreement_tol: float = 1e-5
    max_retries: int = 8
    base_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "sweep_values", tuple(self.sweep_values))
        validate_spec(self)

    def __getstate__(self) -> dict:
        # a pool worker's copy builds its own points, read-only, on its first read
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def points(self) -> tuple[tuple[float, NetworkConfig, np.ndarray, np.ndarray], ...]:
        """(value, config, uniform start, greedy start) of each sweep point, built
        on first read and shared by its trials; the starts are read-only."""
        points = []
        for value in self.sweep_values:
            cfg = trial_config(self, float(value))
            uniform, greedy = uniform_profile(cfg), greedy_profile(cfg)
            uniform.setflags(write=False)
            greedy.setflags(write=False)
            points.append((float(value), cfg, uniform, greedy))
        return tuple(points)


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
    if any(b <= a for a, b in zip(spec.sweep_values, spec.sweep_values[1:])):
        raise ConfigError("sweep_values must be strictly increasing")
    least = dict(trials=1, max_retries=1, it_max=1, delay_bound=0, update_bound=1, base_seed=0)
    for name, low in least.items():
        value = getattr(spec, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
            raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
    if not 0 < spec.game_tol < np.inf:
        raise ConfigError(f"game_tol must be positive and finite, got {spec.game_tol!r}")
    if not 0 <= spec.agreement_tol < np.inf:
        raise ConfigError(
            f"agreement_tol must be nonnegative and finite, got {spec.agreement_tol!r}"
        )
    if spec.schedule not in SCHEDULE_KINDS:
        raise ConfigError(f"schedule must be one of {SCHEDULE_KINDS}, got {spec.schedule!r}")
    for v in spec.sweep_values:
        try:
            trial_config(spec, v)
        except (ConfigError, ArithmeticError) as exc:
            raise ConfigError(f"at {spec.sweep_variable} = {v!r}: {exc}") from exc
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
        cross = spec.direct_distance * 10.0 ** (
            -spec.interference_ratio_db / (10.0 * spec.pathloss_exponent)
        )
    return symmetric_config(
        num_users=spec.num_users,
        tx_antennas=spec.tx_antennas,
        rx_antennas=spec.rx_antennas,
        power_budget=budget,
        noise_power=spec.noise_power,
        direct_distance=spec.direct_distance,
        cross_distance=cross,
        pathloss_exponent=spec.pathloss_exponent,
    )


# Trials of a chunk are drawn, rotated and certified as one stack.
CHUNK_TRIALS = 64

# (id(spec), point index, trial index) -> prepared trial of the chunk being
# played. run_trial keeps its (spec, point, trial) call, which perfbench's
# tracer and self-check wrap, so a chunk hands each trial its draw here.
_ready: dict = {}


def _prepare(spec: SweepSpec, point_index: int, trials) -> list[tuple]:
    """(seeds, network or None, certificate, retries) of each given trial of
    one sweep point, drawn, rotated and certified as one stack.

    Each trial draws first with its own seed; a degenerate draw is redrawn
    alone with the trial's next seeds, up to max_retries draws in all.
    """
    cfg = spec.points[point_index][1]
    seeds = [
        np.random.SeedSequence((spec.base_seed, point_index, t))
        .generate_state(spec.max_retries + 2, dtype=np.uint64)
        .tolist()
        for t in trials
    ]
    nets = build_effective_network(sample_channels(cfg, [s[0] for s in seeds]), cfg)
    retries = []
    for k, trial_seeds in enumerate(seeds):
        attempt = 0
        while nets[k] is None and attempt + 1 < spec.max_retries:
            attempt += 1
            try:
                nets[k] = build_effective_network(sample_channels(cfg, trial_seeds[attempt]), cfg)
            except DegenerateChannelError:
                pass
        retries.append(attempt if nets[k] is not None else spec.max_retries)
    certs = iter(certify([net for net in nets if net is not None]))
    return [
        (trial_seeds, net, None if net is None else next(certs), r)
        for trial_seeds, net, r in zip(seeds, nets, retries)
    ]


def run_trial(spec: SweepSpec, point_index: int, trial_index: int) -> TrialRecord:
    """One seeded trial: draw, certify, replay from three starts.

    The trial seed is derived from (base_seed, point_index, trial_index)
    alone, so results do not depend on execution order, chunking or worker
    count. Rank-deficient draws are redrawn up to max_retries times and the
    trial is marked failed when the budget is exhausted. Called alone, the
    trial is a stack of one; within a sweep its chunk has prepared it.
    """
    point_value, cfg, uniform, greedy = spec.points[point_index]
    prepared = _ready.pop((id(spec), point_index, trial_index), None)
    seeds, net, cert, retries = prepared or _prepare(spec, point_index, [trial_index])[0]
    if net is None:
        return TrialRecord(point_index, point_value, trial_index, failed=True, retries=retries)

    schedule = make_schedule(
        spec.schedule,
        cfg.num_users,
        it_max=spec.it_max,
        seed=seeds[spec.max_retries + 1],
        delay_bound=spec.delay_bound if spec.schedule == "random_async" else 0,
        update_bound=spec.update_bound if spec.schedule == "random_async" else 1,
    )
    init_rng = np.random.default_rng(seeds[spec.max_retries])
    starts = [uniform, greedy, random_profile(cfg, init_rng)]
    traces = [run_game(net, schedule, start, tol=spec.game_tol) for start in starts]

    # the largest spread of any antenna's final power is the largest
    # pairwise distance between the three final states
    disagreement = float(np.ptp([t.states[-1] for t in traces], axis=0).max())
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


def _run_chunk(spec: SweepSpec, point_index: int, trials: range) -> list[TrialRecord]:
    """Records of some trials of one sweep point, prepared as one stack and
    then played one run_trial call each."""
    for t, prepared in zip(trials, _prepare(spec, point_index, trials)):
        _ready[id(spec), point_index, t] = prepared
    try:
        return [run_trial(spec, point_index, t) for t in trials]
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
    if isinstance(jobs, bool) or not isinstance(jobs, (int, np.integer)) or jobs < 1:
        raise ConfigError(f"jobs must be an integer >= 1, got {jobs!r}")
    size = CHUNK_TRIALS
    if jobs > 1:  # at least four chunks a worker, when the sweep has that many trials
        size = max(1, min(size, len(spec.sweep_values) * spec.trials // (4 * jobs)))
    chunks = [
        (pi, range(start, min(start + size, spec.trials)))
        for pi in range(len(spec.sweep_values))
        for start in range(0, spec.trials, size)
    ]
    run_chunk = partial(_run_chunk, spec)
    if jobs == 1:
        done = list(map(run_chunk, *zip(*chunks)))
    else:
        from concurrent.futures import ProcessPoolExecutor  # imported here: ~20 ms of start-up

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(run_chunk, *zip(*chunks)))
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
