"""Command-line front end wiring the analysis pipeline.

Subcommands mirror the library: ``fit``, ``strength``, ``pef-opt``,
``rate``, ``plan``, ``simulate``, ``accumulate``, ``extract-params`` and
``report``.  Every command prints one JSON object, to stdout or to the file
``--output`` names; ``fit``'s object is itself a valid distribution input.
All numeric output is deterministic given the seed; every result carries a
hash of the fully resolved inputs so reruns can be checked for identity.

Each ``cmd_*`` function computes and returns its result; ``main`` alone
writes it.  ``main`` opens ``--output`` before the command runs (and
``accumulate`` its ``--trace``, before reading a block), so an unwritable
destination costs no work; ``accumulate`` checks every option, and
``simulate`` that ``--out`` holds no dataset, before the work too.  Once the
result exists, ``main`` adds ``manifest_hash`` (and ``seed``), hashing the
inputs once, and writes it.  A run that fails, or writes nothing as
``report``'s exit 1 does, removes a file it created and leaves an existing
one as it was.

Each command imports the layers it runs when it runs, so a process loads
only those: ``extract-params`` and ``report`` need neither numpy nor
mpmath, and ``simulate`` loads no PEF optimiser or planner.

Exit codes: 0 success, 1 protocol failure (the accumulated witness did not
reach the threshold), 2 malformed input or unusable parameters.  Every
layer refuses bad input with a ``ValueError``, the fit, trial-PEF solve,
calibration and planner stages included, so ``main`` reports any
``ValueError``, ``KeyError``, ``OSError`` or ``RecursionError`` as one
``error:`` line and exit 2 without naming a layer; a ``MemoryError`` (a
``k`` near ``model.MAX_K`` asks for arrays of ``2**k`` positions) is one
``error: out of memory`` line, with numpy's message when there is one,
and exit 2 too.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import os
import re
import sys
from pathlib import Path

EXIT_OK = 0
EXIT_PROTOCOL_FAILURE = 1
EXIT_INPUT_ERROR = 2


class InputError(ValueError):
    """Bad file or parameter; reported with exit code 2."""


def _stamp(args) -> dict:
    """``manifest_hash``, and ``seed`` when the command takes one.

    The hash covers the command, its logical parameters and the name and
    SHA-256 of each input file that the subcommand's ``inputs`` lists (a
    callable, so no parameter).  Destinations and ``--threads``, which has
    no effect, are left out, so reruns that only change where results land
    hash the same.  It runs after the command has read its inputs, so a
    missing file has already been refused; one that vanishes before it is
    hashed ends as an ``OSError``.
    """
    skip = {"func", "output", "out", "trace", "command", "threads"}
    params = {k: str(v) for k, v in vars(args).items() if k not in skip and not callable(v)}
    h = hashlib.sha256()
    h.update(args.command.encode())
    h.update(json.dumps(params, sort_keys=True).encode())
    for p in map(Path, args.inputs(args)):
        h.update(p.name.encode())
        digest = hashlib.sha256()
        with open(p, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                digest.update(chunk)
        h.update(digest.digest())
    stamp = {"manifest_hash": h.hexdigest()[:16]}
    if getattr(args, "seed", None) is not None:
        stamp["seed"] = args.seed
    return stamp


@contextlib.contextmanager
def _destination(path, default=None):
    """The file at ``path`` opened for writing before the work that fills
    it, so that an unwritable destination is refused first; ``default``
    when there is no path.  The file is not truncated: the body writes from
    its start once its result exists.  If the body raises or writes
    nothing, a file opened here is removed and an existing one keeps its
    bytes."""
    if not path:
        yield default
        return
    created = not os.path.exists(path)
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
        try:
            yield fh
        except BaseException:
            if created:
                os.unlink(path)
            raise
        if fh.seekable() and fh.tell():  # a pipe or terminal has nothing to cut
            fh.truncate()
        elif created:
            os.unlink(path)


def _dataset_files(args) -> list[Path]:
    """A dataset's manifest, then each cycle's calibration and expansion
    files in reading order."""
    from direx import protocol

    root = Path(args.data)
    files = [root / "manifest.json"]
    for calib, pairs in protocol.dataset_layout(root):
        files += [calib, *(p for pair in pairs for p in pair)]
    return files


def _load(cls, path: str):
    """``cls.from_csv`` or ``cls.from_json`` of the file at ``path``, by its
    suffix: a counts table or a distribution."""
    p = Path(path)
    if not p.exists():
        raise InputError(f"input file not found: {path}")
    text = p.read_text()
    try:
        return cls.from_csv(text) if p.suffix.lower() == ".csv" else cls.from_json(text)
    except (ValueError, KeyError) as e:
        raise InputError(f"{path}: {e}") from e


# --- subcommand implementations --------------------------------------------
#
# Each takes the parsed arguments and ``stamp``, which hashes the run once
# (see :func:`_stamp`), and returns ``(result, exit code)``: ``main`` stamps
# and writes the result, or nothing when it is ``None``.


def cmd_fit(args, stamp):
    from direx import model

    counts = _load(model.CountsTable, args.counts)
    dist, rel_gap = model._fit_mle(counts)
    obj = json.loads(dist.to_json())
    obj["log_likelihood"] = model.log_likelihood(counts, dist)
    obj["mle_rel_gap"] = rel_gap
    return obj, EXIT_OK


def cmd_strength(args, stamp):
    from direx import model

    dist = _load(model.ConditionalDistribution, args.distribution)
    s, rel_gap = model._statistical_strength(dist)
    return {"statistical_strength_bits": s, "strength_rel_gap": rel_gap}, EXIT_OK


def cmd_pef_opt(args, stamp):
    from direx import model, pef

    dist = _load(model.ConditionalDistribution, args.distribution)
    table = pef.build_pef_table(
        dist,
        args.beta,
        args.k,
        j_mid=args.j_mid,
        optimize_j_mid=args.optimize_j_mid,
    )
    return json.loads(table.to_json()), EXIT_OK


def cmd_rate(args, stamp):
    import numpy as np

    from direx import model, pef

    table = pef.PefTable.from_json(Path(args.pef).read_text())
    for i, a in enumerate(table.anchors):
        if not pef.is_valid_pef(a):
            raise InputError(f"{args.pef}: anchor {i} fails the PEF inequality")
    dist = _load(model.ConditionalDistribution, args.distribution)
    with np.errstate(all="ignore"):  # a rate that is not finite is refused below
        rep = pef.block_gain(table, dist)
    if not (math.isfinite(rep.g_block) and math.isfinite(rep.var_block)):
        raise InputError(f"{args.pef}: the block rate at {args.distribution} is not finite")
    return json.loads(rep.to_json()), EXIT_OK


def cmd_plan(args, stamp):
    from direx import ledger, model, planner

    dist = _load(model.ConditionalDistribution, args.distribution)
    if args.k_range:
        lo, _, hi = args.k_range.partition(":")
        try:
            k_range = range(int(lo), int(hi) + 1)
        except ValueError:
            raise InputError(f"--k-range must be LO:HI with integer bounds, got {args.k_range!r}") from None
        return planner.optimal_block_length(dist, args.eps, k_range).to_dict(), EXIT_OK
    if args.blocks is not None:
        n_b = args.blocks
    elif args.budget is not None:
        if not 0.0 < args.budget < math.inf:
            raise InputError(f"--budget must be a finite number of trials > 0, got {args.budget}")
        n_b = int(args.budget / ledger.expected_trials(1, args.k))
    else:
        raise InputError("plan needs --blocks or --budget")
    _, plan = planner.expansion_feasible(dist, n_b, args.k, args.eps)
    return plan.to_dict(), EXIT_OK


def cmd_simulate(args, stamp):
    from direx import model, protocol

    dist = _load(model.ConditionalDistribution, args.distribution)
    protocol.check_dataset_destination(args.out)  # before a block is drawn
    # simulation reads only k, N_b, the seed and the dead time: beta and G_min are unused
    cfg = protocol.RunConfig(
        k=args.k,
        beta=1e-7,
        G_min=0.0,
        N_b=args.blocks,
        n_calib_min=args.calib_trials,
        seed=args.seed,
        deadtime_trials=args.deadtime,
    )
    cycles, summary = protocol.simulate_dataset(
        dist,
        cfg,
        blocks_per_file=args.blocks_per_file,
        files_per_cycle=args.files_per_cycle,
        calib_trials=args.calib_trials,
        trailing_calib_trials=args.trailing_calib_trials,
    )
    meta = {"k": args.k, "n_blocks": summary["n_blocks"], "distribution": str(args.distribution)}
    protocol.write_dataset(cycles, args.out, {**meta, **stamp()})
    summary["out"] = str(args.out)
    return summary, EXIT_OK


def cmd_accumulate(args, stamp):
    from direx import pef, protocol

    # every option is checked, and the trace opened, before any block is read
    root = Path(args.data)
    if not root.is_dir() or not (root / "manifest.json").exists():
        raise InputError(f"not a dataset directory: {args.data}")
    # the block length the data was recorded with: its spot-check law
    # sets the PEFs that are valid for it
    manifest = json.loads((root / "manifest.json").read_text())
    k = manifest.get("k") if isinstance(manifest, dict) else None
    if type(k) is not int:  # a bool is not a block length
        raise InputError(f"{root / 'manifest.json'}: needs an integer \"k\"")
    if args.gmin is None or args.beta is None:
        raise InputError("accumulate needs --beta and --gmin")
    if args.trace_decimation < 1:
        raise InputError(f"--trace-decimation must be at least 1, got {args.trace_decimation}")
    with _destination(args.trace) as trace_fh:
        cfg = protocol.RunConfig(
            k=k,
            beta=args.beta,
            G_min=args.gmin,
            N_b=1 if args.blocks is None else args.blocks,  # N_b's default needs the count
            n_calib_min=args.n_calib_min,
            seed=0,  # the analysis draws nothing at random
            check_granularity=args.check_granularity,
        )
        if args.j_mid is not None and not 1 < args.j_mid < 2**k:  # RunConfig bounded k
            raise InputError(f"--j-mid must satisfy 1 < j_mid < 2^k = {2**k}, got {args.j_mid}")
        cycles, _ = protocol.load_dataset(root)
        n_blocks = sum(len(f.blocks) for c in cycles for f in c.files)
        if not n_blocks:
            raise InputError(f"dataset at {args.data} contains no blocks")
        if args.blocks is None:
            cfg = dataclasses.replace(cfg, N_b=n_blocks)

        j_mid = args.j_mid

        def builder(nu_h):
            # the first cycle's build settles j_mid; later cycles reuse it
            nonlocal j_mid
            table = pef.build_pef_table(nu_h, cfg.beta, k, j_mid=j_mid)
            j_mid = table.j_mid
            return table

        state, trace = protocol.accumulate(cycles, cfg, builder)
        obj = {**state.to_dict(), **stamp()}  # the trace key follows the hash
        if trace_fh:
            protocol.write_trace_csv(trace, trace_fh, decimation=args.trace_decimation)
            obj["trace"] = str(args.trace)
    return obj, EXIT_OK if state.succeeded else EXIT_PROTOCOL_FAILURE


def cmd_extract_params(args, stamp):
    from direx import extractor as ext

    params = ext.ExtractorParams.budget(args.m_in, args.sigma_in, args.eps_ext, args.eps)
    obj = json.loads(params.to_json())
    obj["slacks"] = params.constraint_slacks()
    obj["in_set_X"] = (
        ext.check_set_X(params, args.beta) if args.beta is not None else None
    )
    return obj, EXIT_OK


def cmd_report(args, stamp):
    from direx import extractor as ext
    from direx import ledger

    state = ledger.AccumulatorState.from_dict(json.loads(Path(args.state).read_text()))
    params = ext.ExtractorParams.from_json(Path(args.extractor).read_text())
    try:
        rep = ledger.expansion_summary(state, params, args.k)
    except ledger.ProtocolFailure as e:
        print(str(e), file=sys.stderr)
        return None, EXIT_PROTOCOL_FAILURE
    return json.loads(rep.to_json()), EXIT_OK


# --- parser -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser, and through ``add_subparsers`` every subcommand's, that
    reads ``-1e9`` as a number: argparse before Python 3.13 takes it for an
    option, and ``--gmin -1e9`` would fail with "expected one argument".
    A parse error is one ``error: …`` line, as every other bad input is,
    without argparse's usage block."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.exit(EXIT_INPUT_ERROR, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="direx",
        description="Spot-checked device-independent randomness expansion toolkit",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="write the result here instead of stdout")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("fit", help="maximum-likelihood distribution from counts")
    p.add_argument("counts")
    p.set_defaults(func=cmd_fit, inputs=lambda a: [a.counts])

    p = add_parser("strength", help="statistical strength of a distribution")
    p.add_argument("distribution")
    p.set_defaults(func=cmd_strength, inputs=lambda a: [a.distribution])

    p = add_parser("pef-opt", help="optimise a per-block PEF table")
    p.add_argument("distribution")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j-mid", type=int, default=None)
    p.add_argument("--optimize-j-mid", action="store_true")
    p.set_defaults(func=cmd_pef_opt, inputs=lambda a: [a.distribution])

    p = add_parser("rate", help="block rate and variance of a PEF table")
    p.add_argument("pef")
    p.add_argument("distribution")
    p.set_defaults(func=cmd_rate, inputs=lambda a: [a.pef, a.distribution])

    p = add_parser("plan", help="expansion feasibility and design tables")
    p.add_argument("distribution")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--k", type=int, default=17)
    p.add_argument("--blocks", type=int)
    p.add_argument("--budget", type=float, help="trial budget instead of --blocks")
    p.add_argument("--k-range", help="sweep k, e.g. 15:19")
    p.set_defaults(func=cmd_plan, inputs=lambda a: [a.distribution])

    p = add_parser("simulate", help="simulate an honest dataset to disk")
    p.add_argument("distribution")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--blocks-per-file", type=int, default=1024)
    p.add_argument("--files-per-cycle", type=int, default=4)
    p.add_argument("--calib-trials", type=int, default=100_000)
    p.add_argument("--trailing-calib-trials", type=int, default=10_000)
    p.add_argument("--deadtime", type=int, default=0)
    p.add_argument("--threads", type=int, default=1, help="accepted; has no effect")
    p.set_defaults(func=cmd_simulate, inputs=lambda a: [a.distribution])

    p = add_parser("accumulate", help="run the witness accumulation analysis")
    p.add_argument("data")
    p.add_argument("--beta", type=float)
    p.add_argument("--gmin", type=float)
    p.add_argument("--blocks", type=int)
    p.add_argument("--n-calib-min", type=int, default=1)
    p.add_argument("--j-mid", type=int)
    p.add_argument("--check-granularity", choices=("block", "file"), default="block")
    p.add_argument("--trace", help="write the witness trace CSV here")
    p.add_argument("--trace-decimation", type=int, default=1)
    p.add_argument("--threads", type=int, default=1, help="accepted; has no effect")
    p.set_defaults(func=cmd_accumulate, inputs=_dataset_files)

    p = add_parser("extract-params", help="extractor seed/output budget")
    p.add_argument("--m-in", type=int, required=True)
    p.add_argument("--sigma-in", type=float, required=True)
    p.add_argument("--eps-ext", type=float, required=True)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--beta", type=float)
    p.set_defaults(func=cmd_extract_params, inputs=lambda a: [])

    p = add_parser("report", help="expansion accounting of a finished run")
    p.add_argument("state", help="accumulator state JSON")
    p.add_argument("extractor", help="extractor params JSON")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_report, inputs=lambda a: [a.state, a.extractor])

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    stamp = functools.cache(lambda: _stamp(args))
    try:
        with _destination(args.output, sys.stdout) as out:
            obj, code = args.func(args, stamp)
            if obj is not None:
                out.write(json.dumps({**obj, **stamp()}, indent=1, allow_nan=False) + "\n")
        return code
    except (ValueError, KeyError, OSError, RecursionError) as e:
        print(f"error: {e}", file=sys.stderr)
    except MemoryError as e:  # a bare MemoryError has no message
        print("error: out of memory" + (f": {e}" if str(e) else ""), file=sys.stderr)
    return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
