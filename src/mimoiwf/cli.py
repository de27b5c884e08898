"""Command line front end.

Subcommands: play one game, certify one realization, or run the two Monte
Carlo sweeps. Configs are JSON documents whose keys mirror the NetworkConfig
and SweepSpec fields one-to-one; unknown keys are rejected. This module maps
JSON shape only: an object, no unknown keys and no missing ones. The types
check their own fields and NetworkConfig broadcasts its own scalars, so a
value is read and refused here as in the library. A JSON float that is
integral reads as an int, so a count may be written 2.0.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from functools import cache

import numpy as np

from .contraction import PowerIterationError, build_interference_matrix, certify, write_matrix_csv
from .engine import make_schedule, run_game, trace_to_csv
from .expharness import SweepSpec, sweep_sumrate, sweep_uniqueness, write_csv
from .netmodel import (
    ChannelRealization,
    ConfigError,
    NetworkConfig,
    check_count,
    check_numbers,
    sample_channels,
)
from .precode import EffectiveNetwork, SvdError, build_effective_network

_SCHEDULE_FLAG = {"jacobi": "jacobi", "gauss-seidel": "gauss_seidel", "async": "random_async"}

_NET_FIELDS = tuple(f.name for f in dataclasses.fields(NetworkConfig))
_NET_KEYS = {*_NET_FIELDS, "seed", "channels"}


def network_from_dict(doc: dict) -> NetworkConfig:
    """Strict mapping of a JSON document onto a NetworkConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("network config must be a JSON object")
    unknown = sorted(set(doc) - _NET_KEYS)
    if unknown:
        raise ConfigError(f"unknown network config keys: {', '.join(unknown)}")
    values = {"pathloss_exponent": SweepSpec.pathloss_exponent, **doc}
    for name in _NET_FIELDS:
        if name not in values:
            raise ConfigError(f"missing config key {name!r}")
    return NetworkConfig(**{name: values[name] for name in _NET_FIELDS})


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
            check_numbers(f"channels[{r}][{q}]", raw[r][q], "finite", ConfigError)
            want = (cfg.rx_antennas[q], cfg.tx_antennas[r], 2)
            expected = f"channels[{r}][{q}] must have shape {want} ([re, im] leaf pairs), got"
            try:
                mat = np.asarray(raw[r][q], dtype=float)
            except ValueError:  # numpy refuses rows of unequal length
                raise ConfigError(f"{expected} a ragged list") from None
            if mat.shape != want:
                raise ConfigError(f"{expected} {mat.shape}")
            row.append(mat[..., 0] + 1j * mat[..., 1])
        rows.append(row)
    return ChannelRealization.from_matrices(rows)


def sweep_from_dict(doc: dict) -> SweepSpec:
    """Strict mapping of a JSON document onto a SweepSpec."""
    if not isinstance(doc, dict):
        raise ConfigError("sweep config must be a JSON object")
    unknown = sorted(set(doc) - {f.name for f in dataclasses.fields(SweepSpec)})
    if unknown:
        raise ConfigError(f"unknown sweep config keys: {', '.join(unknown)}")
    if not isinstance(doc.get("sweep_values", []), list):
        raise ConfigError(f"sweep_values must be a list, got {doc['sweep_values']!r}")
    return SweepSpec(**doc)


def _json_float(text: str) -> int | float:
    """A JSON float, read as the int it equals when integral, so a count may be written 2.0."""
    value = float(text)
    return int(value) if value.is_integer() else value


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=_json_float)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc


def _build_net(doc: dict, seed_flag: int | None) -> tuple[EffectiveNetwork, int]:
    """The network of a config document, and its seed: the flag's, else the document's."""
    cfg = network_from_dict(doc)
    seed = seed_flag if seed_flag is not None else doc.get("seed", 0)
    check_count("seed", seed, 0)
    if "channels" in doc:
        realization = channels_from_dict(doc, cfg)
    else:
        realization = sample_channels(cfg, seed)
    return build_effective_network(realization, cfg), seed


def _format(value) -> str:
    """A printed value: a bool as true or false, None as none, a number to 9 digits."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    return format(value, ".9g")


def _cmd_play(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    doc = _load_json(args.config)
    net, seed = _build_net(doc, args.seed)
    # jacobi and gauss_seidel force their own fresh-view bounds
    schedule = make_schedule(
        _SCHEDULE_FLAG[args.schedule],
        net.config.num_users,
        seed=seed,
        delay_bound=SweepSpec.delay_bound,
        update_bound=SweepSpec.update_bound,
    )
    trace = run_game(net, schedule)
    print(f"schedule {args.schedule}")
    print(f"converged {_format(trace.converged)} in {trace.iterations_used} iterations")
    for q, rate in enumerate(trace.final_rates):
        print(f"user {q} rate {_format(rate)}")
    print(f"sum_rate {_format(trace.final_rates.sum())}")
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
    net, _ = _build_net(doc, args.seed)
    cert = certify(net)
    for f in dataclasses.fields(cert):
        print(f"{f.name} {_format(getattr(cert, f.name))}")
    if args.out:
        write_matrix_csv(build_interference_matrix(net), args.out)
        print(f"coupling matrix written to {args.out}")
    if not args.quiet:
        print(f"elapsed {time.perf_counter() - t0:.3f} s")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    doc = _load_json(args.config)
    # a flag replaces its key before the one spec is built and checked, so
    # the value it replaces is never checked
    flags = {
        "trials": args.trials,
        "base_seed": args.seed,
        "schedule": _SCHEDULE_FLAG.get(args.schedule),
    }
    if isinstance(doc, dict):  # sweep_from_dict refuses any other document
        doc.update((key, value) for key, value in flags.items() if value is not None)
    spec = sweep_from_dict(doc)
    # looked up at each call, not when the parser is built, so a sweep
    # function swapped into this module after the first call is the one that runs
    runner = {"sweep-uniqueness": sweep_uniqueness, "sweep-sumrate": sweep_sumrate}[args.command]
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


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="mimoiwf",
        description="Distributed power control by iterative water-filling "
        "in MIMO interference networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, schedule: bool = True) -> None:
        p.add_argument("--config", required=True, help="path to a JSON config document")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true", help="suppress timing output")
        if schedule:  # None keeps a sweep config's own schedule
            p.add_argument("--schedule", choices=sorted(_SCHEDULE_FLAG), help="update schedule")

    p_play = sub.add_parser("play", help="run one game on one realization")
    common(p_play)
    p_play.add_argument("--out", default=None, help="write the game trace CSV here")
    p_play.set_defaults(func=_cmd_play, schedule="jacobi")

    p_cert = sub.add_parser("certify", help="uniqueness certificates for one realization")
    common(p_cert, schedule=False)
    p_cert.add_argument("--out", default=None, help="write the coupling matrix CSV here")
    p_cert.set_defaults(func=_cmd_certify)

    for name in ("sweep-uniqueness", "sweep-sumrate"):
        p_sweep = sub.add_parser(name, help=f"run the {name.split('-')[1]} sweep")
        common(p_sweep)
        p_sweep.add_argument("--out", required=True, help="output CSV path")
        p_sweep.add_argument("--trials", type=int, default=None, help="override trial count")
        p_sweep.add_argument("--jobs", type=int, default=1, help="worker process count")
        p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SvdError, PowerIterationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
