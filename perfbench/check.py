"""Output checker: which trials of a sweep have a missing or wrong outcome.

A trial fails in any of four cases:
  (a) the sweep call raised or returned an error;
  (b) the CSV row of its sweep point breaks an invariant: every p_* lies
      in [0, 1], p_strict_cond <= p_norm_cond <= p_spectral <=
      p_empirical_unique, and 1 <= mean_iterations <= it_max;
  (c) its uniform-start game reports converged with a Nash gap above
      GAP_BOUND_FACTOR * game_tol;
  (d) its spectral radius is below 1, which guarantees one equilibrium, yet
      the three starts are not empirically unique.
(a) and (b) are read from the CSV; (c) and (d) from the values `run_trial`
and `run_game` returned, which the tracer keeps.
"""
from __future__ import annotations

import math

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
ORDERED = ("p_strict_cond", "p_norm_cond", "p_spectral", "p_empirical_unique")

# A game that stops on a step residual below game_tol sits within a small
# multiple of game_tol of its fixed point when the stop is honest: the
# largest gap seen on synchronous games is about 0.5 * game_tol. A hundred
# times the tolerance leaves room for that and still flags the stale-view
# stops, whose gaps run from 1e-4 to 1e3.
GAP_BOUND_FACTOR = 100.0


def bad_points(text: str, config: dict) -> list[int]:
    """Indices of sweep points whose CSV row breaks an invariant.

    A malformed header or a wrong number of rows breaks every point.
    """
    values = config["sweep_values"]
    every = list(range(len(values)))
    lines = text.splitlines()
    if not lines or tuple(lines[0].split(",")) != CSV_COLUMNS or len(lines) != len(values) + 1:
        return every
    bad = []
    for i, line in enumerate(lines[1:]):
        try:
            row = dict(zip(CSV_COLUMNS, (float(cell) for cell in line.split(","))))
        except ValueError:
            bad.append(i)
            continue
        probs = [row[c] for c in CSV_COLUMNS if c.startswith("p_")]
        ok = (
            len(row) == len(CSV_COLUMNS)
            and math.isclose(row["sweep_value"], values[i], rel_tol=1e-8)
            and all(0.0 <= p <= 1.0 for p in probs)
            and all(row[a] <= row[b] for a, b in zip(ORDERED, ORDERED[1:]))
            and 1.0 <= row["mean_iterations"] <= config["it_max"]
        )
        if not ok:
            bad.append(i)
    return bad


def wrong_outcomes(trials: dict, config: dict) -> dict[str, set]:
    """Trials failing cases (c) and (d), from one sweep's kept return values.

    trials maps (point, trial) to (TrialRecord, games in call order).
    """
    bound = GAP_BOUND_FACTOR * config["game_tol"]
    cases: dict[str, set] = {"c": set(), "d": set()}
    for key, (rec, games) in trials.items():
        if rec.failed:
            continue
        converged, gap, _ = games[0]
        if converged and gap > bound:
            cases["c"].add(key)
        if rec.spectral_cond and not rec.empirically_unique:
            cases["d"].add(key)
    return cases


def complete(trials: dict, config: dict) -> bool:
    """Whether the checker saw every trial, and three games for each drawn one."""
    want = {(p, t) for p in range(len(config["sweep_values"])) for t in range(config["trials"])}
    return set(trials) == want and all(
        len(games) == 3 for rec, games in trials.values() if not rec.failed
    )
