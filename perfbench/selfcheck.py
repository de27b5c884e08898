#!/usr/bin/env python3
"""Self-check of the benchmark on a tiny trial count.

    python3 perfbench/selfcheck.py

1. Every workload, untraced and traced, at two trials per sweep point: the
   result is correct and carries every metric BENCHMARK.json names, with
   the unit it names.
2. A wrong outcome is injected: the uniform-start game of trial (0, 0) of
   every sweep reports a Nash gap of 1e3. The CSVs do not change, so the
   run stays correct, and failed_frac must count exactly one more failed
   trial per checked sweep. This proves the checker is live.

Exits 0 when every check holds.
"""
from __future__ import annotations

import dataclasses
import json
import sys

import run

TRIALS = 2
SECONDS = 0.5
INJECTED_GAP = 1e3


def expected_metrics(trace: int) -> dict:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def check_names(workload: str, trace: int, detail: dict, result: dict) -> list[str]:
    problems = []
    if not result["correct"]:
        problems.append("result is not correct")
    got = result["metrics"]
    for name, unit in expected_metrics(trace).items():
        if name == "expharness.pool_speedup" and detail.get("pool_speedup", {}).get("reason"):
            continue  # absent by design, with its reason in the detail line
        if name not in got:
            problems.append(f"metric {name} missing")
        elif got[name]["unit"] != unit:
            problems.append(f"metric {name} has unit {got[name]['unit']}, not {unit}")
    extra = set(got) - set(expected_metrics(trace))
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return [f"{workload} trace {trace}: {p}" for p in problems]


@dataclasses.dataclass
class Injector:
    """Gives the first game of trial (0, 0) a Nash gap far over any bound."""

    expharness: object

    def __enter__(self):
        ex = self.expharness
        self.run_trial, self.run_game = ex.run_trial, ex.run_game
        self.armed = False

        def run_trial(spec, point_index, trial_index):
            self.armed = (point_index, trial_index) == (0, 0)
            try:
                return self.run_trial(spec, point_index, trial_index)
            finally:
                self.armed = False

        def run_game(*args, **kwargs):
            trace = self.run_game(*args, **kwargs)
            if self.armed:
                self.armed = False
                return dataclasses.replace(trace, converged=True, nash_gap=INJECTED_GAP)
            return trace

        ex.run_trial, ex.run_game = run_trial, run_game
        return self

    def __exit__(self, *exc):
        self.expharness.run_trial, self.expharness.run_game = self.run_trial, self.run_game


def main() -> int:
    problems = []
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            detail, result = run.run(workload, run.DEFAULT_SEED, SECONDS, trace, trials=TRIALS)
            problems += check_names(workload, trace, detail, result)
            print(f"{workload} trace {trace}: {len(result['metrics'])} metrics, correct {result['correct']}")

    clean, _ = run.run("uniq-10db", run.DEFAULT_SEED, SECONDS, 0, trials=TRIALS)
    with Injector(run.load_program()["expharness"]):
        injected, result = run.run("uniq-10db", run.DEFAULT_SEED, SECONDS, 0, trials=TRIALS)
    checked = injected["failed_frac"]["base_trials"] // injected["trials_per_sweep"]
    added = injected["failed_frac"]["failed_trials"] - clean["failed_frac"]["failed_trials"]
    print(f"injected gap: {added} more failed trials over {checked} checked sweeps")
    if not result["correct"]:
        problems.append("injection changed a CSV")
    if added != checked or injected["failed_frac"]["cases"]["c"] < checked:
        problems.append(f"injected wrong outcomes: expected {checked} more failed trials, got {added}")

    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
