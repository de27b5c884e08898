"""Command line front end.

Subcommands: play one game, certify one realization, or run the two Monte
Carlo sweeps. Configs are JSON documents whose keys mirror the NetworkConfig
and SweepSpec fields one-to-one; unknown keys are rejected.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from functools import partial

import numpy as np

from .contraction import PowerIterationError, build_interference_matrix, certify, write_matrix_csv
from .engine import make_schedule, run_game, trace_to_csv
from .expharness import SweepSpec, sweep_sumrate, sweep_uniqueness, write_csv
from .netmodel import (
    ChannelRealization,
    ConfigError,
    NetworkConfig,
    sample_channels,
)
from .precode import DegenerateChannelError, SvdError, build_effective_network

_SCHEDULE_FLAG = {"jacobi": "jacobi", "gauss-seidel": "gauss_seidel", "async": "random_async"}

_NET_KEYS = {
    "num_users",
    "tx_antennas",
    "rx_antennas",
    "power_budget",
    "noise_power",
    "direct_distance",
    "cross_distance",
    "pathloss_exponent",
    "seed",
    "channels",
}


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}


def _typed(key: str, value, kind: type):
    """value as kind, without the coercions of int() and float(): bools are
    not numbers, strings are not numbers, and a count must be integral."""
    if kind is int and isinstance(value, float) and value.is_integer():
        return int(value)
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is not kind:
        raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def _per_user(doc: dict, key: str, q_count: int, kind: type) -> tuple:
    if key not in doc:
        raise ConfigError(f"missing config key {key!r}")
    v = doc[key]
    if isinstance(v, list):
        return tuple(_typed(f"{key}[{k}]", x, kind) for k, x in enumerate(v))
    return (_typed(key, v, kind),) * q_count


def network_from_dict(doc: dict) -> NetworkConfig:
    """Strict mapping of a JSON document onto a NetworkConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("network config must be a JSON object")
    unknown = sorted(set(doc) - _NET_KEYS)
    if unknown:
        raise ConfigError(f"unknown network config keys: {', '.join(unknown)}")
    if "num_users" not in doc:
        raise ConfigError("missing config key 'num_users'")
    q_count = _typed("num_users", doc["num_users"], int)
    if q_count < 1:
        raise ConfigError(f"num_users must be a positive integer, got {q_count!r}")

    direct = _per_user(doc, "direct_distance", q_count, float)
    cross_in = doc.get("cross_distance")
    if cross_in is None:
        raise ConfigError("missing config key 'cross_distance'")
    if isinstance(cross_in, list):
        if not all(isinstance(row, list) for row in cross_in):
            raise ConfigError("cross_distance must be a number or a list of rows")
        cross = tuple(
            tuple(_typed(f"cross_distance[{r}][{q}]", x, float) for q, x in enumerate(row))
            for r, row in enumerate(cross_in)
        )
    else:
        d = _typed("cross_distance", cross_in, float)
        cross = tuple(
            tuple(direct[r] if r == q else d for q in range(q_count)) for r in range(q_count)
        )

    return NetworkConfig(
        num_users=q_count,
        tx_antennas=_per_user(doc, "tx_antennas", q_count, int),
        rx_antennas=_per_user(doc, "rx_antennas", q_count, int),
        power_budget=_per_user(doc, "power_budget", q_count, float),
        noise_power=_per_user(doc, "noise_power", q_count, float),
        direct_distance=direct,
        cross_distance=cross,
        pathloss_exponent=_typed("pathloss_exponent", doc.get("pathloss_exponent", 2.5), float),
    )


def channels_from_dict(doc: dict, cfg: NetworkConfig) -> ChannelRealization:
    """Explicit channel matrices: channels[r][q] rows of [re, im] pairs."""
    raw = doc["channels"]
    if not isinstance(raw, list) or len(raw) != cfg.num_users:
        raise ConfigError(f"channels must be a {cfg.num_users}-row nested list")
    rows = []
    for r in range(cfg.num_users):
        if not isinstance(raw[r], list) or len(raw[r]) != cfg.num_users:
            raise ConfigError(f"channels[{r}] must have {cfg.num_users} entries")
        row = []
        for q in range(cfg.num_users):
            for leaf in _leaves(raw[r][q]):
                if type(leaf) not in (int, float) or not abs(leaf) <= sys.float_info.max:
                    raise ConfigError(
                        f"channels[{r}][{q}] entries must be finite numbers, got {leaf!r}"
                    )
            mat = np.asarray(raw[r][q], dtype=float)
            want = (cfg.rx_antennas[q], cfg.tx_antennas[r], 2)
            if mat.shape != want:
                raise ConfigError(
                    f"channels[{r}][{q}] must have shape {want} "
                    f"([re, im] leaf pairs), got {mat.shape}"
                )
            row.append(mat[..., 0] + 1j * mat[..., 1])
        rows.append(row)
    return ChannelRealization.from_matrices(rows, seed=-1)


def _leaves(value):
    """The non-list items of a nested list, depth first; a non-list is its own leaf."""
    if not isinstance(value, list):
        return [value]
    return [leaf for item in value for leaf in _leaves(item)]


def sweep_from_dict(doc: dict) -> SweepSpec:
    """Strict mapping of a JSON document onto a SweepSpec."""
    if not isinstance(doc, dict):
        raise ConfigError("sweep config must be a JSON object")
    kinds = {f.name: type(f.default) for f in dataclasses.fields(SweepSpec)}
    unknown = sorted(set(doc) - set(kinds))
    if unknown:
        raise ConfigError(f"unknown sweep config keys: {', '.join(unknown)}")
    kwargs = {}
    for key, value in doc.items():
        if key != "sweep_values":
            kwargs[key] = _typed(key, value, kinds[key])
        elif isinstance(value, list):
            kwargs[key] = tuple(_typed(f"{key}[{k}]", v, float) for k, v in enumerate(value))
        else:
            raise ConfigError(f"sweep_values must be a list, got {value!r}")
    return SweepSpec(**kwargs)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc


def _seed(doc: dict, seed_flag: int | None) -> int:
    seed = seed_flag if seed_flag is not None else _typed("seed", doc.get("seed", 0), int)
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def _build_net(doc: dict, seed_flag: int | None):
    cfg = network_from_dict(doc)
    seed = _seed(doc, seed_flag)
    if "channels" in doc:
        realization = channels_from_dict(doc, cfg)
    else:
        realization = sample_channels(cfg, seed)
    return cfg, build_effective_network(realization, cfg)


def _cmd_play(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    doc = _load_json(args.config)
    cfg, net = _build_net(doc, args.seed)
    schedule = make_schedule(
        _SCHEDULE_FLAG[args.schedule],
        cfg.num_users,
        seed=_seed(doc, args.seed),
        delay_bound=3 if args.schedule == "async" else 0,
        update_bound=5 if args.schedule == "async" else 1,
    )
    trace = run_game(net, schedule)
    print(f"schedule {args.schedule}")
    print(f"converged {'true' if trace.converged else 'false'} in {trace.iterations_used} iterations")
    for q, rate in enumerate(trace.final_rates):
        print(f"user {q} rate {format(rate, '.9g')}")
    print(f"sum_rate {format(trace.final_rates.sum(), '.9g')}")
    print(f"nash_gap {format(trace.nash_gap, '.3g')}")
    if args.out:
        trace_to_csv(trace, args.out)
        print(f"trace written to {args.out}")
    if not args.quiet:
        print(f"elapsed {time.perf_counter() - t0:.3f} s")
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    doc = _load_json(args.config)
    _, net = _build_net(doc, args.seed)
    cert = certify(net)
    for name in (
        "row_norm",
        "col_norm",
        "spectral_radius",
        "strict_row_value",
        "strict_col_value",
    ):
        print(f"{name} {format(getattr(cert, name), '.9g')}")
    for name in ("strict_row_cond", "strict_col_cond", "norm_unique", "spectral_unique"):
        print(f"{name} {'true' if getattr(cert, name) else 'false'}")
    modulus = cert.contraction_modulus
    print(f"contraction_modulus {format(modulus, '.9g') if modulus is not None else 'none'}")
    if args.out:
        write_matrix_csv(build_interference_matrix(net), args.out)
        print(f"coupling matrix written to {args.out}")
    if not args.quiet:
        print(f"elapsed {time.perf_counter() - t0:.3f} s")
    return 0


def _cmd_sweep(args: argparse.Namespace, runner) -> int:
    t0 = time.perf_counter()
    spec = sweep_from_dict(_load_json(args.config))
    overrides = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.schedule is not None:
        overrides["schedule"] = _SCHEDULE_FLAG[args.schedule]
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    result = runner(spec, jobs=args.jobs)
    write_csv(result, args.out)
    if not args.quiet:
        for row in result.rows:
            print(
                f"value {format(row['sweep_value'], '.9g')}: "
                f"p_unique {format(row['p_empirical_unique'], '.3g')}, "
                f"mean_sum_rate {format(row['mean_sum_rate'], '.6g')}"
            )
        print(f"elapsed {time.perf_counter() - t0:.3f} s")
    print(f"results written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimoiwf",
        description="Distributed power control by iterative water-filling "
        "in MIMO interference networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, schedule_default: str | None) -> None:
        p.add_argument("--config", required=True, help="path to a JSON config document")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true", help="suppress timing output")
        if schedule_default is not None:
            p.add_argument(
                "--schedule",
                choices=sorted(_SCHEDULE_FLAG),
                default=schedule_default,
                help="update schedule",
            )

    p_play = sub.add_parser("play", help="run one game on one realization")
    common(p_play, "jacobi")
    p_play.add_argument("--out", default=None, help="write the game trace CSV here")
    p_play.set_defaults(func=_cmd_play)

    p_cert = sub.add_parser("certify", help="uniqueness certificates for one realization")
    common(p_cert, None)
    p_cert.add_argument("--out", default=None, help="write the coupling matrix CSV here")
    p_cert.set_defaults(func=_cmd_certify)

    for name, runner in (
        ("sweep-uniqueness", sweep_uniqueness),
        ("sweep-sumrate", sweep_sumrate),
    ):
        p_sweep = sub.add_parser(name, help=f"run the {name.split('-')[1]} sweep")
        common(p_sweep, None)
        p_sweep.add_argument(
            "--schedule", choices=sorted(_SCHEDULE_FLAG), default=None, help="update schedule"
        )
        p_sweep.add_argument("--out", required=True, help="output CSV path")
        p_sweep.add_argument("--trials", type=int, default=None, help="override trial count")
        p_sweep.add_argument("--jobs", type=int, default=1, help="worker process count")
        p_sweep.set_defaults(func=partial(_cmd_sweep, runner=runner))

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        ConfigError,
        DegenerateChannelError,
        SvdError,
        PowerIterationError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
