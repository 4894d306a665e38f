"""Benchmark of the three paths direx users wait on.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload production-k17 --seed 1 --seconds 30 --trace 0

Workloads: ``production-k17`` (simulate, write, read and analyse k=17
blocks, plus a completeness study), ``planning-k17`` (the paper's
production plan, cold and warm) and ``desk-cli-k6`` (the CLI chain
``simulate -> accumulate -> extract-params -> report`` as child processes).

With ``--trace 0`` the run first times ``setup_s``, the median over a few
fresh interpreters (``setup_child.py``) of importing direx, building the
vertex set and loading the bundled data.  Then whole rounds run for
``--seconds`` (no round is started that would end later, but at least one
runs).  Every workload reports the same end-to-end metrics: ``setup_s``,
``round_s`` (the median over rounds of one round's wall time) and
``peak_rss_mb``; each round's own figures, the wall times of its steps
among them, go to stderr as one JSON line.  With ``--trace 1`` one round
runs untraced and then again traced, on the same inputs; the per-layer
metrics come from the traced round and ``trace.overhead_s`` is the
difference of the two rounds' wall times.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
failed correctness check, or an operation that raises or whose child exits
nonzero, prints ``"correct": false`` with the counts so far and exits 1.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# pinned before numpy loads: one BLAS thread keeps CPU time and wall time steady
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("production-k17", "planning-k17", "desk-cli-k6")
SETUP_CHILDREN = 5
SETUP_TIMEOUT_S = 60


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _emit(result: dict, name: str) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    line = json.dumps(result)
    (out / f"result-{name}.json").write_text(line + "\n")
    print(line, flush=True)


def setup_seconds(env: dict) -> float:
    """Median wall time of fresh interpreters each doing one cold set-up."""
    walls = []
    for _ in range(SETUP_CHILDREN):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "setup_child.py")],
            cwd=ROOT, env=env, check=True, capture_output=True, timeout=SETUP_TIMEOUT_S,
        )
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "direx" / "__init__.py").is_file():
        print(f"perfbench: no direx sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    import workloads

    env = workloads.child_env(ROOT)
    wl = workloads.make(args.workload, ROOT, env)
    tmp = HERE / "tmp" / f"{run_name}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        metrics = _measure(args, wl, env, tmp, run_name)
    except Exception as e:
        print(f"perfbench: {type(e).__name__}: {e}", file=sys.stderr)
        result = {"correct": False, "attempted": max(wl.ops.attempted, 1), "failed": wl.ops.failed, "metrics": {}}
        _emit(result, run_name)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    result = {
        "correct": True,
        "attempted": wl.ops.attempted,
        "failed": wl.ops.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    _emit(result, run_name)
    return 0


def _measure(args, wl, env: dict, tmp: Path, run_name: str) -> dict:
    """Set-up, then the untraced rounds or the untraced and traced round."""
    setup_s = None if args.trace else setup_seconds(env)

    # the benchmark's own set-up, untimed: it warms the vertex set
    from direx import data, model

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer().install()
    model.enumerate_extreme_points()
    data.commissioning_distribution()
    data.commissioning_counts()
    if tracer is not None:
        tracer.uninstall()

    import workloads
    from tracing import PER_LAYER, layer_metrics

    wl.prepare(args.seed, tmp)
    if not args.trace:
        # whole rounds; a round is started only if one more of the last
        # round's length still ends within --seconds
        start = time.perf_counter()
        elapsed = last = 0.0
        walls = []
        while not walls or elapsed + last <= args.seconds:
            t0 = time.perf_counter()
            out = wl.round(len(walls))
            walls.append(time.perf_counter() - t0)
            figures = wl.check(out)
            # no reference to a round's outputs outlives its check, so the
            # peak RSS is that of one round
            del out
            last = time.perf_counter() - t0
            elapsed = time.perf_counter() - start
            print(json.dumps({"round": len(walls) - 1, "round_s": walls[-1], "elapsed_s": elapsed, **figures}), file=sys.stderr)
        wl.finish()
        return {"setup_s": (setup_s, "s"), "round_s": (statistics.median(walls), "s"), **wl.metrics()}

    t0 = time.perf_counter()
    out = wl.round(0)
    untraced = time.perf_counter() - t0
    wl.check(out)
    if isinstance(wl, workloads.DeskCliK6):
        wl.trace_dir = tmp / "trace"
        wl.trace_dir.mkdir()
    tracer.install()
    t0 = time.perf_counter()
    try:
        out = wl.round(0)
    finally:
        traced = time.perf_counter() - t0
        tracer.uninstall()
    exports = [tracer.export()]
    cli_walls = {}
    if isinstance(wl, workloads.DeskCliK6):
        exports += [json.loads(p.read_text()) for p in sorted(wl.trace_dir.glob("*.json"))]
        cli_walls = dict(out["walls"])
    wl.check(out)
    wl.finish()
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"trace-{run_name}.json").write_text(json.dumps(exports))
    values = layer_metrics(exports, cli_walls, traced - untraced)
    return {name: (values[name], unit) for name, unit in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
