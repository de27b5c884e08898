#!/usr/bin/env python3
"""Run every workload untraced, then traced, and print one table of each.

    python3 perfbench/report.py [--seed 0] [--seconds 20]

Each run is its own process, so peak RSS and set-up belong to one workload.
The end-to-end table also shows the raw trials_per_s and failed_frac from
the detail line, and whether the rows match the reference CSVs.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("uniq-10db", "sumrate-hi", "async-40db")
RUN_TIMEOUT_S = 600


def one_run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        check=True,
        timeout=RUN_TIMEOUT_S,
    )
    detail, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    return detail, result


def table(title: str, rows: list[tuple[str, str, list]]) -> None:
    print(f"\n{title}")
    print(f"{'metric':44s} {'unit':12s}" + "".join(f"{w:>14s}" for w in WORKLOADS))
    for name, unit, values in rows:
        cells = "".join(f"{v:>14.6g}" if isinstance(v, float) else f"{str(v):>14s}" for v in values)
        print(f"{name:44s} {unit:12s}{cells}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    runs = {trace: [one_run(w, args.seed, args.seconds, trace) for w in WORKLOADS] for trace in (0, 1)}

    for trace, title in ((0, "end to end, untraced runs"), (1, "per layer, traced runs")):
        names = {}
        for _, result in runs[trace]:
            names.update((k, v["unit"]) for k, v in result["metrics"].items())
        rows = [(k, u, [r["metrics"].get(k, {}).get("value", "-") for _, r in runs[trace]]) for k, u in names.items()]
        if trace == 0:
            rows += [
                ("trials_per_s (raw)", "trials/s", [d.get("trials_per_s", {}).get("value", "-") for d, _ in runs[0]]),
                ("failed_frac", "fraction", [d["failed_frac"]["value"] for d, _ in runs[0]]),
                ("failed_frac base", "trials", [d["failed_frac"]["base_trials"] for d, _ in runs[0]]),
                ("rows_match_reference", "", [d["checks"]["rows_match_reference"] for d, _ in runs[0]]),
            ]
        rows.append(("correct", "", [r["correct"] for _, r in runs[trace]]))
        table(title, rows)
    machine = runs[0][0][0]["machine"]
    print("\nmachine " + json.dumps(machine))
    return 0 if all(r["correct"] for t in runs.values() for _, r in t) else 1


if __name__ == "__main__":
    sys.exit(main())
