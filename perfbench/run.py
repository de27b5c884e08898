#!/usr/bin/env python3
"""Sweep benchmark for mimoiwf.

    python3 perfbench/run.py --workload uniq-10db --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout: the package is imported from
./src and scratch files go to ./.perfbench. Each run writes sweep configs
and calls the real entry point, `mimoiwf.cli.main` with sweep-uniqueness or
sweep-sumrate, in this process. One caller, closed loop: the next sweep
starts when the previous one returns.

A run's input is a set of short sweeps that differ only in base_seed: the
first has base_seed = --seed and the others follow at a fixed stride. One
pass runs each of them once. A host shared with other tenants slows the
same sweep by up to a half from one minute to the next, so each sweep's
wall time is divided by the time of a fixed calibration loop (see
calibrate.py) run just before and after it, and throughput is counted in
trials per calibration unit, over each sweep's median across passes. Short sweeps keep the calibration close to
the work it scales; many of them keep the number of distinct trials up, so
that the choice of seed moves the figure little.

--trace 0 makes untraced passes for --seconds and prints the end-to-end
metrics. One traced pass follows, because the output checker needs values
that the CSVs do not hold.

--trace 1 alternates untraced and traced passes for --seconds, then times
--jobs 2 against --jobs 1 on one sweep as large as a pass, and prints the
per-layer metrics.

Every CSV of one sweep config must be byte-identical, traced or not. The
line before the last holds the checks, the bases of every ratio and the
machine facts; the last line is the result object.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import calibrate
import check
import probes
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference"

DEFAULT_SEED = 0
SEED_STRIDE = 1_000_003
MIN_PASSES = 3
SETUP_REPEATS = 5  # at least; one probe per pass when there are more passes
IMPORT_REPEATS = 3
POOL_PAIRS = 3
POOL_JOBS = 2
POOL = "pool"
PACKAGE_MODULES = ("cli", "expharness", "contraction", "engine", "waterfill", "netmodel", "precode")

# The ROADMAP baseline network: 4 users, 2x2 antennas, direct distance 15,
# path-loss exponent 2.5. Tolerances are written out because the checker
# reads them from the config.
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
}
CROSS_DISTANCES = [15.0, 25.0, 35.0, 45.0, 55.0]


@dataclass(frozen=True)
class Workload:
    command: str
    trials: int  # per sweep point; every sweep has five points
    inputs: int  # sweeps in one pass
    spec: dict


WORKLOADS = {
    # The shipped uniqueness scenario. Noise-limited: every game stops after
    # two steps, so sampling, SVD and certification weigh most.
    "uniq-10db": Workload(
        "sweep-uniqueness",
        8,
        16,
        {
            "sweep_variable": "cross_distance",
            "sweep_values": CROSS_DISTANCES,
            "power_budget_db": 10.0,
            "schedule": "jacobi",
        },
    ),
    # Interference-limited sum-rate sweep: the game runs 4 to 11 steps and
    # water-filling dominates. Covers the power_budget_db path.
    "sumrate-hi": Workload(
        "sweep-sumrate",
        6,
        16,
        {
            "sweep_variable": "power_budget_db",
            "sweep_values": [30.0, 35.0, 40.0, 45.0, 50.0],
            "interference_ratio_db": -10.0,
            "schedule": "jacobi",
        },
    ),
    # Asynchronous game: stale views, delay tensors, and the known
    # stopping-rule defect, so some outcomes are wrong on purpose.
    "async-40db": Workload(
        "sweep-uniqueness",
        8,
        12,
        {
            "sweep_variable": "cross_distance",
            "sweep_values": CROSS_DISTANCES,
            "power_budget_db": 40.0,
            "schedule": "random_async",
            "delay_bound": 3,
            "update_bound": 5,
        },
    ),
}


@dataclass
class Sweep:
    kind: str  # untraced, traced, jobs1 or jobs2
    config: int | str  # input index, or POOL
    seconds: float
    error: str | None
    csv: str | None
    root: int | None  # root span of a traced sweep
    cal: float = float("nan")  # calibration unit around the sweep, in seconds


def load_program() -> dict:
    if not (SRC / "mimoiwf" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source under {SRC}; run from the root of a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return {name: importlib.import_module(f"mimoiwf.{name}") for name in PACKAGE_MODULES}


def sweep_configs(workload: str, seed: int, trials: int | None = None) -> dict:
    """Input index -> config, plus the POOL config: one sweep as large as a pass."""
    w = WORKLOADS[workload]
    trials = trials or w.trials
    base = {**NETWORK, **w.spec, "trials": trials}
    cfgs = {k: {**base, "base_seed": seed + k * SEED_STRIDE} for k in range(w.inputs)}
    cfgs[POOL] = {**base, "trials": trials * w.inputs, "base_seed": seed}
    return cfgs


def write_configs(workload: str, seed: int, trials: int | None = None) -> tuple[dict, Path]:
    """Write every sweep config as work/config-<k>.json; returns (configs, work)."""
    cfgs = sweep_configs(workload, seed, trials)
    work = OUT / workload
    work.mkdir(parents=True, exist_ok=True)
    for k, cfg in cfgs.items():
        (work / f"config-{k}.json").write_text(json.dumps(cfg, indent=1), encoding="ascii")
    return cfgs, work


def inputs_of(cfgs: dict) -> list[int]:
    return [k for k in cfgs if k != POOL]


def per_sweep(cfg: dict) -> int:
    return cfg["trials"] * len(cfg["sweep_values"])


def run_sweep(modules, command, config_path, csv_path, kind, config, tracer=None, jobs=1) -> Sweep:
    argv = [command, "--config", str(config_path), "--out", str(csv_path), "--quiet"]
    if jobs != 1:
        argv += ["--jobs", str(jobs)]
    main = tracer.call_main if tracer is not None else modules["cli"].main
    root = len(tracer.spans) if tracer is not None else None
    csv_path.unlink(missing_ok=True)
    gc.collect()
    sink = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
        if code != 0:
            error = f"exit code {code}: {sink.getvalue().strip()}"
    except SystemExit as exc:
        error = f"exit {exc.code}: {sink.getvalue().strip()}"
    except Exception:  # a crash of the program is a failed sweep, not of the benchmark
        error = traceback.format_exc()
    seconds = time.perf_counter() - start
    text = csv_path.read_text(encoding="ascii") if error is None and csv_path.is_file() else None
    if error is None and text is None:
        error = "no CSV written"
    if error is not None:
        print(f"perfbench: {kind} sweep of input {config} failed: {error}", file=sys.stderr)
    return Sweep(kind, config, seconds, error, text, root)


def accepts_jobs(modules, command) -> bool:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            modules["cli"].main([command, "--help"])
        except SystemExit:
            pass
    return "--jobs" in sink.getvalue()


def judge(sweeps: list[Sweep], summary, cfgs: dict) -> dict:
    """Count failed sweeps, and failed trials over the checked sweeps.

    Each input's first traced sweep is the checked one: its kept return
    values give cases (c) and (d), and every other sweep of that input must
    reproduce its CSV byte for byte. Pooled sweeps are not traced; they
    count as sweeps, must satisfy the CSV invariants and must agree with
    one another, but carry no trials into failed_frac.
    """
    by_root = summary.sweeps()
    checked = {}
    for s in sweeps:
        if s.kind == "traced" and s.config not in checked:
            trials = by_root.get(s.root, {})
            cfg = cfgs[s.config]
            live = s.error is None and check.complete(trials, cfg)
            checked[s.config] = (s.csv, check.wrong_outcomes(trials, cfg)) if live else (None, None)
    inputs = inputs_of(cfgs)
    live = all(checked.get(k, (None,))[0] is not None for k in inputs)
    pooled = next((s.csv for s in sweeps if s.config == POOL and s.error is None), None)

    failed_sweeps = failed_trials = attempted_trials = 0
    # Each failed trial is counted once, under the first case it meets;
    # "unchecked" is a sweep whose CSV differs from its checked traced one.
    counts = dict.fromkeys(("a", "b", "c", "d", "unchecked"), 0)
    for s in sweeps:
        cfg = cfgs[s.config]
        bad = check.bad_points(s.csv, cfg) if s.error is None else []
        if s.config == POOL:
            failed_sweeps += bool(s.error is not None or bad or s.csv != pooled)
            continue
        n = per_sweep(cfg)
        attempted_trials += n
        canonical, cases = checked.get(s.config, (None, None))
        if s.error is not None or canonical is None or s.csv != canonical:
            failed_sweeps += 1
            failed_trials += n
            counts["a" if s.error is not None else "b" if bad else "unchecked"] += n
            continue
        failed_sweeps += bool(bad)
        broken = {(p, t) for p in bad for t in range(cfg["trials"])}
        counts["b"] += len(broken)
        counts["c"] += len(cases["c"] - broken)
        counts["d"] += len(cases["d"] - broken - cases["c"])
        failed_trials += len(broken | cases["c"] | cases["d"])
    wrong = [checked[k][1] for k in inputs if checked.get(k, (None,))[0] is not None]
    return {
        "attempted": len(sweeps),
        "failed": failed_sweeps,
        "checker_live": live,
        "checked_csv": "".join(checked[k][0] for k in inputs) if live else None,
        "failed_frac": {
            "value": failed_trials / attempted_trials if attempted_trials else 1.0,
            "failed_trials": failed_trials,
            "base_trials": attempted_trials,
            "base": f"{attempted_trials} trials in {len(sweeps) - sum(s.config == POOL for s in sweeps)} checked sweeps",
            "cases": counts,
            "per_pass": {
                "trials": sum(per_sweep(cfgs[k]) for k in inputs),
                "c": sum(len(w["c"]) for w in wrong),
                "d": sum(len(w["d"]) for w in wrong),
                "union": sum(len(w["c"] | w["d"]) for w in wrong),
            },
        },
    }


def reference_check(workload: str, seed: int, trials: int | None, checked_csv: str | None):
    """Whether one pass's CSVs equal the reference recorded at the default seed."""
    if seed != DEFAULT_SEED or trials is not None:
        return None, f"recorded at seed {DEFAULT_SEED} with the workload's trial count only"
    path = REFERENCE / f"{workload}.csv"
    if not path.is_file():
        return None, "no reference CSV"
    return checked_csv == path.read_text(encoding="ascii"), str(path.relative_to(ROOT))


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def pass_time(sweeps: list[Sweep], kind: str, inputs: list) -> tuple[float, float] | None:
    """(wall seconds, calibration units) of one pass of this kind: the sum
    over inputs of each input's median over its sweeps. None when an input
    has no successful sweep."""
    times: dict = {}
    for s in sweeps:
        if s.kind == kind and s.error is None:
            times.setdefault(s.config, []).append(s)
    if set(times) != set(inputs):
        return None
    return (
        sum(statistics.median(s.seconds for s in times[k]) for k in inputs),
        sum(statistics.median(s.seconds / s.cal for s in times[k]) for k in inputs),
    )


def end_to_end(sweeps, cfgs, setup, rss_mb, verdict, detail) -> dict:
    out = {}
    inputs = inputs_of(cfgs)
    trials = sum(per_sweep(cfgs[k]) for k in inputs)
    one_pass = pass_time(sweeps, "untraced", inputs)
    if one_pass is not None:
        wall, cal = one_pass
        out["trials_per_cal"] = metric(trials / cal, "trials/cal")
        detail["trials_per_s"] = {
            "value": trials / wall,
            "unit": "trials/s",
            "base": f"{trials} trials a pass, each sweep's median over {detail['passes']} passes",
        }
        detail["calibration_s"] = statistics.median(s.cal for s in sweeps if s.kind == "untraced")
    out["setup_s"] = metric(statistics.median(setup), "s")
    out["peak_rss_mb"] = metric(rss_mb, "MB")
    ff = verdict["failed_frac"]
    out["ok_frac"] = metric((ff["base_trials"] - ff["failed_trials"]) / ff["base_trials"], "fraction")
    return out


def per_layer(summary, sweeps, cfgs, imports, pool, verdict, detail) -> dict:
    out = {}
    calls = detail.setdefault("per_call", {})
    bases = detail.setdefault("bases", {})

    def per_call(function, name=None):
        """Median self time and the tail percentile, with the sample behind them."""
        times = summary.self_times(function)
        if not times:
            return
        out[name or f"{function}.us_per_call"] = metric(statistics.median(times) * 1e6, "us")
        pct, value = tracing.tail(times)
        out[f"{function}.us_tail"] = metric(value * 1e6, "us")
        calls[function] = {"calls": len(times), "tail_percentile": pct}

    def ratio(name, num, den, unit="fraction"):
        out[name] = metric(num / den if den else 0.0, unit)
        bases[name] = f"{num} / {den}"

    records = list(summary.records.values())
    ok = [r for r in records if not r.failed]
    n_trials = len(records)
    for function in (
        "netmodel.sample_channels",
        "precode.build_effective_network",
        "contraction.certify",
        "contraction.spectral_radius",
        "engine.make_schedule",
        "engine.run_game",
        "engine.check_nash",
        "waterfill.water_level",
        "waterfill.sum_rate",
    ):
        per_call(function)
    per_call("expharness.run_trial", "expharness.run_trial.self_us")

    draws = len(summary.self_times("netmodel.sample_channels"))
    ratio("netmodel.sample_channels.calls_per_trial", draws, n_trials, "calls/trial")
    ratio("waterfill.water_level.calls_per_trial", len(summary.self_times("waterfill.water_level")), n_trials, "calls/trial")
    ratio("precode.built_per_draw", summary.built, draws, "ratio")
    spectral = [r for r in ok if r.spectral_cond]
    ratio("contraction.spectral_unique_frac", len(spectral), len(ok))
    ratio("engine.false_nonunique_frac", sum(1 for r in spectral if not r.empirically_unique), len(spectral))

    games = summary.games
    if games:
        iterations = [g[3] for g in games]
        out["engine.iterations_mean"] = metric(statistics.fmean(iterations), "iterations")
        out["engine.iterations_p95"] = metric(statistics.quantiles(iterations, n=20)[18], "iterations")
        bases["engine.iterations"] = f"{len(games)} games"
    converged = [g for g in games if g[1]]
    bound = check.GAP_BOUND_FACTOR * NETWORK["game_tol"]
    ratio("engine.converged_ratio", len(converged), len(games), "ratio")
    ratio("engine.false_converged_frac", sum(1 for g in converged if g[2] > bound), len(converged))

    shares, trial_s = summary.layer_shares()
    for layer in ("netmodel", "precode", "contraction", "engine", "waterfill", "expharness"):
        out[f"{layer}.self_share"] = metric(shares[layer], "fraction")
    bases["self_share"] = f"{trial_s!r} s of traced trial time, {n_trials} trials"

    sweep_self = [t for f in tracing.SWEEP_FUNCTIONS for t in summary.self_times(f)]
    if sweep_self:
        out["expharness.aggregate_ms"] = metric(statistics.median(sweep_self) * 1e3, "ms")
    root_self = summary.self_times(tracing.ROOT)
    if root_self:
        out["cli.self_ms"] = metric(statistics.median(root_self) * 1e3, "ms")

    if pool.get("value") is not None:
        out["expharness.pool_speedup"] = metric(pool["value"], "ratio")
    for module, ms in imports.items():
        out[f"{module}.import_ms"] = metric(ms, "ms")

    inputs = inputs_of(cfgs)
    untraced, traced = pass_time(sweeps, "untraced", inputs), pass_time(sweeps, "traced", inputs)
    if untraced and traced:
        out["trace.overhead_frac"] = metric(traced[1] / untraced[1] - 1.0, "fraction")
        bases["trace.overhead_frac"] = "traced over untraced pass, each sweep's median, in calibration units"
    out["failed_frac"] = metric(verdict["failed_frac"]["value"], "fraction")
    return out


def pool_pairs(sweep, modules, command, nproc) -> tuple[list[Sweep], dict]:
    """Untraced sweeps of the POOL config, --jobs 1 against --jobs 2, in
    pairs that alternate which runs first."""
    if nproc < POOL_JOBS:
        return [], {"value": None, "reason": f"nproc {nproc} < {POOL_JOBS}"}
    if not accepts_jobs(modules, command):
        return [], {"value": None, "reason": "the sweep command has no --jobs option"}
    sweeps, ratios = [], []
    for i in range(POOL_PAIRS):
        pair = {}
        for jobs in (1, POOL_JOBS) if i % 2 == 0 else (POOL_JOBS, 1):
            pair[jobs] = sweep(POOL, f"jobs{jobs}", jobs=jobs)
            sweeps.append(pair[jobs])
        if pair[1].error is None and pair[POOL_JOBS].error is None:
            ratios.append(pair[1].seconds / pair[POOL_JOBS].seconds)
    value = statistics.median(ratios) if ratios else None
    return sweeps, {"value": value, "pairs": ratios, "jobs": POOL_JOBS}


def run(workload: str, seed: int, seconds: float, trace: int, trials: int | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (detail, result)."""
    modules = load_program()
    cfgs, work = write_configs(workload, seed, trials)
    inputs = inputs_of(cfgs)
    command = WORKLOADS[workload].command
    machine = probes.machine_facts()
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "inputs": len(inputs),
        "trials_per_sweep": per_sweep(cfgs[0]),
        "base_seeds": [cfgs[k]["base_seed"] for k in inputs],
    }

    def sweep(k, kind, tracer=None, jobs=1):
        return run_sweep(
            modules, command, work / f"config-{k}.json", work / f"{kind}-{k}.csv", kind, k, tracer, jobs
        )

    tracer = tracing.Tracer(modules)
    sweeps: list[Sweep] = []

    def one_pass(kind):
        traced = tracer if kind == "traced" else None
        before = calibrate.seconds()
        with tracer if traced else contextlib.nullcontext():
            for k in inputs:
                s = sweep(k, kind, traced)
                after = calibrate.seconds()
                s.cal = 0.5 * (before + after)
                sweeps.append(s)
                before = after

    if trace == 0:
        # One warm-up interpreter, then one set-up probe after each pass, so
        # that the probes sample the whole run and not one moment of it. The
        # probes do not eat into the time for passes.
        probes.setup_seconds(SRC)
        setup = []
        deadline = time.perf_counter() + seconds
        passes = 0
        while passes < MIN_PASSES or time.perf_counter() < deadline:
            one_pass("untraced")
            passes += 1
            start = time.perf_counter()
            setup.append(probes.setup_seconds(SRC))
            deadline += time.perf_counter() - start
        setup += [probes.setup_seconds(SRC) for _ in range(SETUP_REPEATS - len(setup))]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        one_pass("traced")
    else:
        imports = probes.import_ms(SRC, IMPORT_REPEATS)
        deadline = time.perf_counter() + seconds
        passes = 0
        while passes < MIN_PASSES - 1 or time.perf_counter() < deadline:
            for kind in ("untraced", "traced") if passes % 2 == 0 else ("traced", "untraced"):
                one_pass(kind)
            passes += 1
        pooled, pool = pool_pairs(sweep, modules, command, machine["nproc"])
        sweeps += pooled
        detail["pool_speedup"] = pool
    detail["passes"] = passes
    detail["unwrapped_sites"] = tracer.missing

    summary = tracer.summary()
    verdict = judge(sweeps, summary, cfgs)
    match, source = reference_check(workload, seed, trials, verdict.pop("checked_csv"))
    detail["checks"] = {
        "rows_match_reference": match,
        "reference": source,
        "checker_live": verdict["checker_live"],
        "gap_bound": check.GAP_BOUND_FACTOR * NETWORK["game_tol"],
    }
    detail["failed_frac"] = verdict["failed_frac"]
    if trace == 0:
        metrics = end_to_end(sweeps, cfgs, setup, rss_mb, verdict, detail)
        detail["setup_seconds"] = setup
    else:
        metrics = per_layer(summary, sweeps, cfgs, imports, pool, verdict, detail)
    detail["sweep_seconds"] = {
        kind: [s.seconds for s in sweeps if s.kind == kind] for kind in dict.fromkeys(s.kind for s in sweeps)
    }
    tracer.write(work / f"spans-trace{trace}.csv", summary)
    detail["machine"] = machine
    correct = (
        verdict["failed"] == 0
        and verdict["checker_live"]
        and (trace == 1 or "trials_per_cal" in metrics)
    )
    result = {
        "correct": correct,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": metrics,
    }
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    detail, result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
