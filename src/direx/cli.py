"""Command-line front end wiring the analysis pipeline.

Subcommands mirror the library: ``fit``, ``strength``, ``pef-opt``,
``rate``, ``plan``, ``simulate``, ``accumulate``, ``extract-params`` and
``report``.  Every command prints one JSON object, to stdout or to the file
``--output`` names; ``fit``'s object is itself a valid distribution input.
All numeric output is deterministic given the seed; every result carries a
hash of the fully resolved inputs so reruns can be checked for identity.

Each command imports the layers it runs when it runs, so a process loads
only those: ``extract-params`` and ``report`` need neither numpy nor
mpmath, and ``simulate`` loads no PEF optimiser or planner.

Exit codes: 0 success, 1 protocol failure (the accumulated witness did not
reach the threshold), 2 malformed input or unusable parameters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

EXIT_OK = 0
EXIT_PROTOCOL_FAILURE = 1
EXIT_INPUT_ERROR = 2


class InputError(Exception):
    """Bad file or parameter; reported with exit code 2."""


@dataclass(frozen=True)
class RunManifest:
    """Resolved description of one command invocation.

    Captures the command, its logical parameters (output destinations and
    ``--threads``, which has no effect, are excluded, so reruns that only
    change where results land hash the same), the input files and the seed
    when the command consumes one.
    Every referenced file must exist before execution.
    """

    command: str
    params: dict
    files: tuple[Path, ...]
    seed: int | None = None

    @classmethod
    def resolve(cls, command: str, args, files: list[Path]) -> "RunManifest":
        skip = {"func", "output", "out", "trace", "command", "threads"}
        params = {
            k: str(v)
            for k, v in vars(args).items()
            if k not in skip and not callable(v)
        }
        for p in files:
            if not p.exists():
                raise InputError(f"input file not found: {p}")
        return cls(
            command=command,
            params=params,
            files=tuple(files),
            seed=getattr(args, "seed", None),
        )

    def hash(self) -> str:
        h = hashlib.sha256()
        h.update(self.command.encode())
        h.update(json.dumps(self.params, sort_keys=True).encode())
        for p in self.files:
            h.update(p.name.encode())
            digest = hashlib.sha256()
            with open(p, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 16), b""):
                    digest.update(chunk)
            h.update(digest.digest())
        return h.hexdigest()[:16]

    def stamp(self, obj: dict) -> dict:
        """Attach the hash (and seed, when present) to an output object."""
        obj["manifest_hash"] = self.hash()
        if self.seed is not None:
            obj["seed"] = self.seed
        return obj



def _emit(obj: dict, args) -> None:
    out = json.dumps(obj, indent=1)
    if getattr(args, "output", None):
        Path(args.output).write_text(out + "\n")
    else:
        print(out)


def _load(cls, path: str):
    """``cls.from_csv`` or ``cls.from_json`` of the file at ``path``, by its
    suffix: a counts table or a distribution."""
    p = Path(path)
    if not p.exists():
        raise InputError(f"input file not found: {path}")
    text = p.read_text()
    try:
        return cls.from_csv(text) if p.suffix.lower() == ".csv" else cls.from_json(text)
    except (ValueError, KeyError, json.JSONDecodeError) as e:
        raise InputError(f"{path}: {e}") from e


# --- subcommand implementations --------------------------------------------


def cmd_fit(args) -> int:
    from direx import model

    counts = _load(model.CountsTable, args.counts)
    dist, rel_gap = model._fit_mle(counts)
    obj = json.loads(dist.to_json())
    obj["log_likelihood"] = model.log_likelihood(counts, dist)
    obj["mle_rel_gap"] = rel_gap
    RunManifest.resolve("fit", args, [Path(args.counts)]).stamp(obj)
    _emit(obj, args)
    return EXIT_OK


def cmd_strength(args) -> int:
    from direx import model

    dist = _load(model.ConditionalDistribution, args.distribution)
    s, rel_gap = model._statistical_strength(dist)
    manifest = RunManifest.resolve("strength", args, [Path(args.distribution)])
    _emit(manifest.stamp({"statistical_strength_bits": s, "strength_rel_gap": rel_gap}), args)
    return EXIT_OK


def cmd_pef_opt(args) -> int:
    from direx import model, pef

    dist = _load(model.ConditionalDistribution, args.distribution)
    table = pef.build_pef_table(
        dist,
        args.beta,
        args.k,
        j_mid=args.j_mid,
        optimize_j_mid=args.optimize_j_mid,
    )
    obj = json.loads(table.to_json())
    RunManifest.resolve("pef-opt", args, [Path(args.distribution)]).stamp(obj)
    _emit(obj, args)
    return EXIT_OK


def cmd_rate(args) -> int:
    from direx import model, pef

    table = pef.PefTable.from_json(Path(args.pef).read_text())
    for i, a in enumerate(table.anchors):
        if not pef.is_valid_pef(a):
            raise InputError(f"{args.pef}: anchor {i} fails the PEF inequality")
    dist = _load(model.ConditionalDistribution, args.distribution)
    rep = pef.block_gain(table, dist)
    obj = json.loads(rep.to_json())
    RunManifest.resolve(
        "rate", args, [Path(args.pef), Path(args.distribution)]
    ).stamp(obj)
    _emit(obj, args)
    return EXIT_OK


def cmd_plan(args) -> int:
    from direx import ledger, model, planner

    dist = _load(model.ConditionalDistribution, args.distribution)
    files = [Path(args.distribution)]
    if args.k_range:
        lo, _, hi = args.k_range.partition(":")
        try:
            k_range = range(int(lo), int(hi) + 1)
        except ValueError:
            raise InputError(f"--k-range must be LO:HI with integer bounds, got {args.k_range!r}") from None
        obj = planner.optimal_block_length(dist, args.eps, k_range).to_dict()
    else:
        if args.blocks is not None:
            n_b = args.blocks
        elif args.budget is not None:
            if not 0.0 < args.budget < math.inf:
                raise InputError(f"--budget must be a finite number of trials > 0, got {args.budget}")
            n_b = int(args.budget / ledger.expected_trials(1, args.k))
        else:
            raise InputError("plan needs --blocks or --budget")
        feasible, plan = planner.expansion_feasible(dist, n_b, args.k, args.eps)
        obj = plan.to_dict()
    RunManifest.resolve("plan", args, files).stamp(obj)
    _emit(obj, args)
    return EXIT_OK


def cmd_simulate(args) -> int:
    from direx import model, protocol

    dist = _load(model.ConditionalDistribution, args.distribution)
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
    # the hash and seed, computed once for the dataset's manifest and stdout
    stamp = RunManifest.resolve("simulate", args, [Path(args.distribution)]).stamp({})
    meta = {"k": args.k, "n_blocks": summary["n_blocks"], "distribution": str(args.distribution)}
    protocol.write_dataset(cycles, args.out, {**meta, **stamp})
    summary["out"] = str(args.out)
    _emit({**summary, **stamp}, args)
    return EXIT_OK


def cmd_accumulate(args) -> int:
    from direx import pef, protocol

    root = Path(args.data)
    if not root.is_dir() or not (root / "manifest.json").exists():
        raise InputError(f"not a dataset directory: {args.data}")
    cycles, manifest = protocol.load_dataset(root)
    n_blocks = sum(len(f.blocks) for c in cycles for f in c.files)
    if not n_blocks:
        raise InputError(f"dataset at {args.data} contains no blocks")
    k = args.k
    if k is None:
        k = manifest.get("k") if isinstance(manifest, dict) else None
        if type(k) is not int:  # a bool is not a block length
            raise InputError(f"{root / 'manifest.json'}: needs an integer \"k\", or pass --k")
    if args.gmin is None or args.beta is None:
        raise InputError("accumulate needs --beta and --gmin")
    cfg = protocol.RunConfig(
        k=k,
        beta=args.beta,
        G_min=args.gmin,
        N_b=args.blocks or n_blocks,
        n_calib_min=args.n_calib_min,
        seed=0,  # the analysis draws nothing at random
        check_granularity=args.check_granularity,
    )

    j_mid = args.j_mid

    def builder(nu_h):
        # the first cycle's build settles j_mid; later cycles reuse it
        nonlocal j_mid
        table = pef.build_pef_table(nu_h, cfg.beta, k, j_mid=j_mid)
        j_mid = table.j_mid
        return table

    state, trace = protocol.accumulate(cycles, cfg, builder)
    obj = state.to_dict()
    files = [root / "manifest.json"]
    for calib, pairs in protocol.dataset_layout(root):
        files += [calib, *(p for pair in pairs for p in pair)]
    RunManifest.resolve("accumulate", args, files).stamp(obj)
    if args.trace:
        with open(args.trace, "w") as fh:
            protocol.write_trace_csv(trace, fh, decimation=args.trace_decimation)
        obj["trace"] = str(args.trace)
    _emit(obj, args)
    return EXIT_OK if state.succeeded else EXIT_PROTOCOL_FAILURE


def cmd_extract_params(args) -> int:
    from direx import extractor as ext

    params = ext.ExtractorParams.budget(args.m_in, args.sigma_in, args.eps_ext, args.eps)
    obj = json.loads(params.to_json())
    obj["slacks"] = params.constraint_slacks()
    obj["in_set_X"] = (
        ext.check_set_X(params, args.beta) if args.beta is not None else None
    )
    RunManifest.resolve("extract-params", args, []).stamp(obj)
    _emit(obj, args)
    return EXIT_OK


def cmd_report(args) -> int:
    from direx import extractor as ext
    from direx import ledger

    state = ledger.AccumulatorState.from_dict(json.loads(Path(args.state).read_text()))
    params = ext.ExtractorParams.from_json(Path(args.extractor).read_text())
    try:
        rep = ledger.expansion_summary(state, params, args.k)
    except ledger.ProtocolFailure as e:
        print(str(e), file=sys.stderr)
        return EXIT_PROTOCOL_FAILURE
    obj = json.loads(rep.to_json())
    RunManifest.resolve(
        "report", args, [Path(args.state), Path(args.extractor)]
    ).stamp(obj)
    _emit(obj, args)
    return EXIT_OK


# --- parser -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser, and through ``add_subparsers`` every subcommand's, that
    reads ``-1e9`` as a number: argparse before Python 3.13 takes it for an
    option, and ``--gmin -1e9`` would fail with "expected one argument"."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


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
    p.set_defaults(func=cmd_fit)

    p = add_parser("strength", help="statistical strength of a distribution")
    p.add_argument("distribution")
    p.set_defaults(func=cmd_strength)

    p = add_parser("pef-opt", help="optimise a per-block PEF table")
    p.add_argument("distribution")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j-mid", type=int, default=None)
    p.add_argument("--optimize-j-mid", action="store_true")
    p.set_defaults(func=cmd_pef_opt)

    p = add_parser("rate", help="block rate and variance of a PEF table")
    p.add_argument("pef")
    p.add_argument("distribution")
    p.set_defaults(func=cmd_rate)

    p = add_parser("plan", help="expansion feasibility and design tables")
    p.add_argument("distribution")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--k", type=int, default=17)
    p.add_argument("--blocks", type=int)
    p.add_argument("--budget", type=float, help="trial budget instead of --blocks")
    p.add_argument("--k-range", help="sweep k, e.g. 15:19")
    p.set_defaults(func=cmd_plan)

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
    p.set_defaults(func=cmd_simulate)

    p = add_parser("accumulate", help="run the witness accumulation analysis")
    p.add_argument("data")
    p.add_argument("--beta", type=float)
    p.add_argument("--gmin", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--blocks", type=int)
    p.add_argument("--n-calib-min", type=int, default=1)
    p.add_argument("--j-mid", type=int)
    p.add_argument("--check-granularity", choices=("block", "file"), default="block")
    p.add_argument("--trace", help="write the witness trace CSV here")
    p.add_argument("--trace-decimation", type=int, default=1)
    p.add_argument("--threads", type=int, default=1, help="accepted; has no effect")
    p.set_defaults(func=cmd_accumulate)

    p = add_parser("extract-params", help="extractor seed/output budget")
    p.add_argument("--m-in", type=int, required=True)
    p.add_argument("--sigma-in", type=float, required=True)
    p.add_argument("--eps-ext", type=float, required=True)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--beta", type=float)
    p.set_defaults(func=cmd_extract_params)

    p = add_parser("report", help="expansion accounting of a finished run")
    p.add_argument("state", help="accumulator state JSON")
    p.add_argument("extractor", help="extractor params JSON")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_report)

    return ap


#: the bad-input exception of each layer that defines one
_LAYER_INPUT_ERRORS = {
    "direx.model": "MleConvergenceError",
    "direx.pef": "PefOptimizationError",
    "direx.planner": "InfeasiblePlan",
    "direx.protocol": "CalibrationShortfallError",
}


def _input_errors() -> tuple[type[Exception], ...]:
    """Exceptions reported as bad input (exit 2).

    Only layers already imported are consulted: a layer this process never
    loaded cannot have raised, and looking it up would load it.
    """
    layered = tuple(
        getattr(sys.modules[module], name)
        for module, name in _LAYER_INPUT_ERRORS.items()
        if module in sys.modules
    )
    return (ValueError, KeyError, OSError, RecursionError, *layered)


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, *_input_errors()) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
