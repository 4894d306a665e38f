"""Spans around the public functions of the direx layers, recorded from outside.

A :class:`Tracer` replaces each traced function in every direx module
namespace that holds it (``direx.planner.build_pef_table`` as well as
``direx.pef.build_pef_table``), so calls are caught wherever the program
looks them up.  Each call becomes a span ``[id, name, start, end, parent]``
kept in memory; :meth:`Tracer.dump` writes them out when the run ends and
:func:`layer_metrics` turns them into the per-layer metrics.

Nothing here changes what the program computes: the wrappers pass every
argument through, and the generator handed to ``simulate_block`` is a
proxy that forwards every draw to the original generator.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from pathlib import Path

DIREX_MODULES = (
    "direx",
    "direx.model",
    "direx.pef",
    "direx._ipm",
    "direx.protocol",
    "direx.extractor",
    "direx.planner",
    "direx.cli",
)

#: span name -> (module, attribute path) of the traced callable
TRACED = {
    "model.enumerate_extreme_points": ("direx.model", "enumerate_extreme_points"),
    "model.fit_mle": ("direx.model", "fit_mle"),
    "ipm.solve_trial_pef": ("direx._ipm", "solve_trial_pef"),
    "pef.optimize_trial_pef": ("direx.pef", "optimize_trial_pef"),
    "pef.build_pef_table": ("direx.pef", "build_pef_table"),
    "pef.block_gain": ("direx.pef", "block_gain"),
    "pef.PefTable.log2_f": ("direx.pef", "PefTable.log2_f"),
    "planner.GainCurve.rate": ("direx.planner", "GainCurve.rate"),
    "planner.expansion_feasible": ("direx.planner", "expansion_feasible"),
    "extractor.seed_length": ("direx.extractor", "seed_length"),
    "extractor.max_kout": ("direx.extractor", "max_kout"),
    "protocol.simulate_dataset": ("direx.protocol", "simulate_dataset"),
    "protocol.simulate_block": ("direx.protocol", "simulate_block"),
    "protocol.simulate_run_witness": ("direx.protocol", "simulate_run_witness"),
    "protocol.write_dataset": ("direx.protocol", "write_dataset"),
    "protocol.write_blocks": ("direx.protocol", "write_blocks"),
    "protocol.load_dataset": ("direx.protocol", "load_dataset"),
    "protocol.read_blocks": ("direx.protocol", "read_blocks"),
    "protocol.block_log2_pef": ("direx.protocol", "block_log2_pef"),
    "protocol.accumulate": ("direx.protocol", "accumulate"),
    "cli.main": ("direx.cli", "main"),
}

CLI_COMMANDS = ("simulate", "accumulate", "extract-params", "report")

#: per-layer metrics: name, unit; every traced run reports all of them
PER_LAYER = (
    ("model.enumerate_extreme_points.s", "s"),
    ("model.fit_mle.calls", "count"),
    ("model.fit_mle.s", "s"),
    ("pef.build_pef_table.calls", "count"),
    ("pef.build_pef_table.s", "s"),
    ("ipm.solve_trial_pef.calls", "count"),
    ("ipm.solve_trial_pef.s", "s"),
    ("pef.optimize_trial_pef.distinct_ratio", "ratio"),
    ("pef.block_gain.s", "s"),
    ("pef.PefTable.log2_f.s", "s"),
    ("planner.GainCurve.rate.calls", "count"),
    ("planner.GainCurve.rate.misses", "count"),
    ("planner.GainCurve.rate.s", "s"),
    ("planner.expansion_feasible.self_s", "s"),
    ("planner.expansion_feasible.warm_s", "s"),
    ("extractor.seed_length.calls", "count"),
    ("extractor.seed_length.s", "s"),
    ("extractor.max_kout.calls", "count"),
    ("extractor.max_kout.s", "s"),
    ("protocol.simulate_block.calls", "count"),
    ("protocol.simulate_block.s", "s"),
    ("protocol.simulate_block.position_draws_per_block", "draws/block"),
    ("protocol.simulate_run_witness.s", "s"),
    ("protocol.write_blocks.s", "s"),
    ("protocol.write_blocks.bytes", "B"),
    ("protocol.read_blocks.s", "s"),
    ("protocol.block_log2_pef.calls", "count"),
    ("protocol.block_log2_pef.s", "s"),
    ("protocol.accumulate.self_s", "s"),
    *((f"cli.{c}.s", "s") for c in CLI_COMMANDS),
    ("cli.startup.s", "s"),
    ("trace.overhead_s", "s"),
)


class CountingRng:
    """Generator proxy that counts position draws and forwards everything.

    A position draw is a call of ``integers`` with an explicit ``size`` or
    a ``permutation``: the two ways ``simulate_block`` draws detection
    positions.  Draws of the block length and spot settings pass no size.
    """

    def __init__(self, rng, counter: list):
        self._rng = rng
        self._counter = counter

    def integers(self, *args, **kwargs):
        if "size" in kwargs:
            self._counter[0] += 1
        return self._rng.integers(*args, **kwargs)

    def permutation(self, *args, **kwargs):
        self._counter[0] += 1
        return self._rng.permutation(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """In-memory span recorder installed over the direx namespaces."""

    def __init__(self, process: str = "main"):
        self.process = process
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.position_draws = [0]
        self.optimize_keys: set[tuple[float, float]] = set()
        self.bytes_written = 0

    # --- span recording ---------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        rec = [sid, name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        if name == "protocol.simulate_block":

            def wrapper(nu_h, k, rng):
                proxy = CountingRng(rng, self.position_draws)
                return self.span(name, fn, nu_h, k, proxy)

        elif name == "pef.optimize_trial_pef":

            def wrapper(nu_h, q, beta, *args, **kwargs):
                qv = getattr(q, "q", q)
                self.optimize_keys.add((float(qv), float(beta)))
                return self.span(name, fn, nu_h, q, beta, *args, **kwargs)

        elif name == "protocol.write_blocks":

            def wrapper(records, fh):
                start = fh.tell()
                try:
                    return self.span(name, fn, records, fh)
                finally:
                    self.bytes_written += fh.tell() - start

        else:

            def wrapper(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)

        return functools.wraps(fn)(wrapper)

    # --- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        modules = [importlib.import_module(m) for m in DIREX_MODULES]
        for name, (module, path) in TRACED.items():
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        return self

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # --- output -------------------------------------------------------------

    def export(self) -> dict:
        return {
            "process": self.process,
            "spans": self.spans,
            "position_draws": self.position_draws[0],
            "optimize_keys": sorted(self.optimize_keys),
            "bytes_written": self.bytes_written,
        }

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps(self.export()))


def layer_metrics(
    exports: list[dict], cli_walls: dict[str, float], overhead_s: float
) -> dict[str, float]:
    """Per-layer metrics from the spans of every traced process.

    ``cli_walls`` maps a CLI command to the wall time its child process
    took as seen by the parent; ``cli.startup.s`` is the part of those
    walls spent outside ``cli.main``.  ``planner.expansion_feasible.warm_s``
    is the median of the plans after the first in a process, which find
    their gain curve warm.  ``overhead_s`` is the traced round's
    wall time minus the untraced round's.
    """
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    misses = 0
    draws = 0
    keys: set[tuple[float, float]] = set()
    n_bytes = 0
    main_s = 0.0
    warm: list[float] = []
    for exp in exports:
        spans = exp["spans"]
        draws += exp["position_draws"]
        keys.update(tuple(k) for k in exp["optimize_keys"])
        n_bytes += exp["bytes_written"]
        child_s = [0.0] * len(spans)
        builds_under = [False] * len(spans)
        plans = [end - start for _, name, start, end, _ in spans if name == "planner.expansion_feasible"]
        warm += plans[1:]
        for sid, name, start, end, parent in spans:
            if parent is not None:
                child_s[parent] += end - start
                if name == "pef.build_pef_table":
                    builds_under[parent] = True
        for sid, name, start, end, parent in spans:
            d = end - start
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + d
            self_s[name] = self_s.get(name, 0.0) + d - child_s[sid]
            if name == "planner.GainCurve.rate" and builds_under[sid]:
                misses += 1
            if name == "cli.main":
                main_s += d
    sim_calls = calls.get("protocol.simulate_block", 0)
    opt_calls = calls.get("pef.optimize_trial_pef", 0)
    out = {
        "pef.optimize_trial_pef.distinct_ratio": len(keys) / opt_calls if opt_calls else 0.0,
        "planner.GainCurve.rate.misses": misses,
        "planner.expansion_feasible.self_s": self_s.get("planner.expansion_feasible", 0.0),
        "planner.expansion_feasible.warm_s": statistics.median(warm) if warm else 0.0,
        "protocol.simulate_block.position_draws_per_block": draws / sim_calls if sim_calls else 0.0,
        "protocol.write_blocks.bytes": n_bytes,
        "protocol.accumulate.self_s": self_s.get("protocol.accumulate", 0.0),
        "cli.startup.s": max(sum(cli_walls.values()) - main_s, 0.0) if cli_walls else 0.0,
        "trace.overhead_s": overhead_s,
    }
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.s"] = cli_walls.get(cmd, 0.0)
    for metric, _unit in PER_LAYER:
        if metric in out:
            continue
        name, stat = metric.rsplit(".", 1)
        out[metric] = calls.get(name, 0) if stat == "calls" else total.get(name, 0.0)
    return out
