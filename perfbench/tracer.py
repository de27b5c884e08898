"""Span tracer that times the program's layers from outside.

Each traced function is replaced, at the module attribute its caller looks
it up by, with a wrapper that records one span: which call site, start,
end and the enclosing span. Nothing in the package is edited; `install`
swaps the wrappers in and `uninstall` puts the original objects back.
Spans are kept in memory and written out once, when the run ends.

A few return values are kept as they pass the wrappers, because the output
checker needs them and the sweep CSV does not carry them: every
`TrialRecord` from `run_trial`, and `converged`, `nash_gap` and
`iterations_used` of every game.
"""
from __future__ import annotations

import statistics
import time

# (module, attribute) a caller looks the function up by -> the function it
# holds, named "<layer>.<function>" after the module that defines it.
SITES = {
    ("cli", "sweep_uniqueness"): "expharness.sweep_uniqueness",
    ("cli", "sweep_sumrate"): "expharness.sweep_sumrate",
    ("expharness", "run_trial"): "expharness.run_trial",
    ("expharness", "sample_channels"): "netmodel.sample_channels",
    ("expharness", "build_effective_network"): "precode.build_effective_network",
    ("expharness", "certify"): "contraction.certify",
    ("expharness", "make_schedule"): "engine.make_schedule",
    ("expharness", "run_game"): "engine.run_game",
    ("expharness", "sum_rate"): "waterfill.sum_rate",
    ("contraction", "spectral_radius"): "contraction.spectral_radius",
    ("engine", "check_nash"): "engine.check_nash",
    ("engine", "water_level"): "waterfill.water_level",
    ("waterfill", "water_level"): "waterfill.water_level",
}
ROOT = "cli.main"
TRIAL = "expharness.run_trial"
SWEEP_FUNCTIONS = ("expharness.sweep_uniqueness", "expharness.sweep_sumrate")
LAYERS = ("netmodel", "precode", "contraction", "engine", "waterfill", "expharness", "cli")


class Tracer:
    """Wraps the program's functions and records a span per call.

    The wrappers are built on the first install and reused, so spans from
    several installs share one set of site indices.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.sites: list[str] = []  # span name of each site index
        self.functions: list[str] = []  # function key of each site index
        self.spans: list = []  # (site index, start, end, parent span index or -1)
        self.trials: list = []  # (span index of run_trial, TrialRecord)
        self.games: list = []  # (span index of run_game, converged, nash_gap, iterations)
        self.built = 0  # effective networks build_effective_network returned
        self.missing: list[str] = []
        self._stack = [-1]
        self._wrapped: list = []  # (module, attribute, original, wrapper)
        self._sites_built = False
        self._root = self._wrap(ROOT, ROOT, modules["cli"].main, None)

    def _wrap(self, site, function, fn, leave):
        index = len(self.sites)
        self.sites.append(site)
        self.functions.append(function)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(me)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[me] = (index, start, clock(), parent)
                stack.pop()
            if leave is not None:
                leave(me, out)
            return out

        return traced

    def _keep_trial(self, me, record):
        self.trials.append((me, record))

    def _keep_game(self, me, trace):
        self.games.append((me, bool(trace.converged), float(trace.nash_gap), int(trace.iterations_used)))

    def _count_built(self, me, net):
        self.built += 1

    def install(self) -> None:
        if not self._sites_built:
            self._build_sites()
        for module, attr, _, wrapper in self._wrapped:
            setattr(module, attr, wrapper)

    def _build_sites(self) -> None:
        leaves = {
            "expharness.run_trial": self._keep_trial,
            "engine.run_game": self._keep_game,
            "precode.build_effective_network": self._count_built,
        }
        for (mod, attr), function in SITES.items():
            module = self.modules[mod]
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{mod}.{attr}")
                continue
            wrapper = self._wrap(f"{mod}.{attr}", function, fn, leaves.get(function))
            self._wrapped.append((module, attr, fn, wrapper))
        self._sites_built = True

    def uninstall(self) -> None:
        for module, attr, fn, _ in reversed(self._wrapped):
            setattr(module, attr, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def call_main(self, argv):
        """Run cli.main(argv) under a root span; one root span is one sweep."""
        return self._root(argv)

    def write(self, path, summary: "Summary") -> None:
        """Dump every span as CSV: id, name, start_s, end_s, parent, point, trial."""
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write("id,name,start_s,end_s,parent,point,trial\n")
            for i, (site, start, end, parent) in enumerate(self.spans):
                trial = summary.trial_id[i]
                point, index = trial if trial is not None else ("", "")
                fh.write(f"{i},{self.sites[site]},{start!r},{end!r},{parent},{point},{index}\n")

    def summary(self) -> "Summary":
        return Summary(self)


class Summary:
    """Self times, trial ids and per-sweep outcomes derived from the spans."""

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        n = len(spans)
        child = [0.0] * n
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self.self_s = [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]
        self.duration_s = [end - start for _, start, end, _ in spans]

        # Parents are recorded before their children, so one forward pass
        # hands each span its sweep (root span) and its trial.
        records = dict(tracer.trials)
        trial_index = tracer.functions.index(TRIAL) if TRIAL in tracer.functions else -1
        self.root = [0] * n
        self.trial_span = [-1] * n
        self.trial_id: list = [None] * n
        self.by_function: dict[str, list[float]] = {}  # function -> self times
        for i, (site, _, _, parent) in enumerate(spans):
            self.by_function.setdefault(tracer.functions[site], []).append(self.self_s[i])
            self.root[i] = i if parent < 0 else self.root[parent]
            if site == trial_index:
                self.trial_span[i] = i
            elif parent >= 0:
                self.trial_span[i] = self.trial_span[parent]
            t = self.trial_span[i]
            if t >= 0 and t in records:
                rec = records[t]
                self.trial_id[i] = (rec.point_index, rec.trial_index)

        self.spans = spans
        self.functions = tracer.functions
        self.records = records
        self.games = tracer.games
        self.built = tracer.built

    def sweeps(self) -> dict:
        """root span -> {(point, trial): (TrialRecord, [(converged, gap, iterations), ...])}.

        Games are listed in call order, so the first is the uniform start.
        """
        out: dict = {}
        for i, (site, _, _, parent) in enumerate(self.spans):
            if parent < 0:
                out[i] = {}
        for span, rec in self.records.items():
            out[self.root[span]][(rec.point_index, rec.trial_index)] = (rec, [])
        for span, converged, gap, iterations in self.games:
            trial = self.trial_id[span]
            if trial is not None:
                out[self.root[span]][trial][1].append((converged, gap, iterations))
        return out

    def self_times(self, function: str) -> list[float]:
        return self.by_function.get(function, [])

    def layer_shares(self) -> tuple[dict, float]:
        """Each layer's self time inside trials over the total trial time."""
        total = 0.0
        per_layer = dict.fromkeys(LAYERS, 0.0)
        for i, (site, _, _, _) in enumerate(self.spans):
            if self.trial_span[i] < 0:
                continue
            function = self.functions[site]
            per_layer[function.split(".")[0]] += self.self_s[i]
            if function == TRIAL:
                total += self.duration_s[i]
        return {k: v / total if total else 0.0 for k, v in per_layer.items()}, total


def tail(values: list[float]) -> tuple[float, float]:
    """Highest of a fixed set of percentiles with at least ten samples beyond it."""
    n = len(values)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            cut = statistics.quantiles(values, n=1000, method="inclusive")
            return pct, cut[round(pct * 10) - 1]
    return 50.0, statistics.median(values)
