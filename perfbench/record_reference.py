#!/usr/bin/env python3
"""Record each workload's reference CSVs: one untraced pass at the default seed.

    python3 perfbench/record_reference.py

A run at the default seed reports rows_match_reference against these files.
Rerun this only for a change that alters sweep results on purpose, and say
so in that change; a speed-up leaves the references as they are.
"""
from __future__ import annotations

import sys

import run


def main() -> int:
    modules = run.load_program()
    run.REFERENCE.mkdir(exist_ok=True)
    for name, workload in run.WORKLOADS.items():
        cfgs, work = run.write_configs(name, run.DEFAULT_SEED)
        texts = []
        for k in range(workload.inputs):
            s = run.run_sweep(
                modules, workload.command, work / f"config-{k}.json", work / f"reference-{k}.csv", "reference", k
            )
            if s.error is not None or run.check.bad_points(s.csv, cfgs[k]):
                print(f"{name}: input {k} gave no valid CSV", file=sys.stderr)
                return 1
            texts.append(s.csv)
        path = run.REFERENCE / f"{name}.csv"
        path.write_text("".join(texts), encoding="ascii")
        print(f"{name}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
