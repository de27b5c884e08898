"""The recorded reference sweeps of the benchmark, regenerated through the CLI.

perfbench/reference/<workload>.csv holds one pass of each benchmark
workload at seed 0; its first sweep (6 lines: header and five points) has
base_seed 0. The specs below are those sweeps, written out. This file only
reads the references.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from mimoiwf.cli import main

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"

NETWORK = {
    "num_users": 4,
    "tx_antennas": 2,
    "rx_antennas": 2,
    "direct_distance": 15.0,
    "pathloss_exponent": 2.5,
    "noise_power": 1.0,
    "it_max": 100,
    "game_tol": 1e-6,
    "agreement_tol": 1e-5,
    "base_seed": 0,
}
CROSS_DISTANCES = [15.0, 25.0, 35.0, 45.0, 55.0]

SWEEPS = {
    "uniq-10db": (
        "sweep-uniqueness",
        {
            "sweep_variable": "cross_distance",
            "sweep_values": CROSS_DISTANCES,
            "power_budget_db": 10.0,
            "schedule": "jacobi",
            "trials": 8,
        },
    ),
    "sumrate-hi": (
        "sweep-sumrate",
        {
            "sweep_variable": "power_budget_db",
            "sweep_values": [30.0, 35.0, 40.0, 45.0, 50.0],
            "interference_ratio_db": -10.0,
            "schedule": "jacobi",
            "trials": 6,
        },
    ),
    "async-40db": (
        "sweep-uniqueness",
        {
            "sweep_variable": "cross_distance",
            "sweep_values": CROSS_DISTANCES,
            "power_budget_db": 40.0,
            "schedule": "random_async",
            "delay_bound": 3,
            "update_bound": 5,
            "trials": 8,
        },
    ),
}


@pytest.mark.parametrize("workload", sorted(SWEEPS))
def test_first_reference_sweep_is_reproduced(workload, tmp_path):
    command, spec = SWEEPS[workload]
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({**NETWORK, **spec}), encoding="ascii")
    out = tmp_path / "sweep.csv"
    assert main([command, "--config", str(config), "--out", str(out), "--quiet"]) == 0
    reference = (REFERENCE / f"{workload}.csv").read_bytes().splitlines(keepends=True)[:6]
    assert out.read_bytes() == b"".join(reference)
