"""The three workloads: production analysis, production planning, desk CLI chain.

Each workload is a class with ``prepare`` (inputs from the seed, caches
warmed, untimed), ``round`` (one whole round of timed operations, returning
raw outputs; every operation goes through the workload's :class:`Ops`
counter), ``check`` (correctness checks of one round, untimed; returns
the round's own figures), ``finish`` (run-level checks) and ``metrics``
(the end-to-end metrics a workload measures itself; ``run.py`` times the
rounds).  ``round`` does nothing but the timed calls, so its wall time is
the program's work and a traced round records spans of that work only.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from direx import data, model, pef, planner, protocol

import checks

clock = time.perf_counter


def round_seed(seed: int, r: int) -> int:
    return seed * 1_000_003 + r


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


class OperationFailed(Exception):
    """A CLI child exited nonzero or did not end in time."""


class Ops:
    """Counts the operations a run attempts and the ones that fail.

    An operation fails when it raises; the exception goes on to the caller.
    """

    def __init__(self):
        self.attempted = self.failed = 0

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise


class ProductionK17:
    """Simulate, write, read and analyse k=17 blocks; a completeness study.

    One round is ``CYCLES`` cycles of ``FILES`` files of ``BLOCKS_PER_FILE``
    blocks, each cycle with its own calibration counts and refit, plus one
    call of ``simulate_run_witness`` on ``WITNESS_BLOCKS`` blocks.  Rounds
    are short, so that a run's medians cover many of the host's slow and
    fast spells.
    """

    name = "production-k17"
    CYCLES, FILES, BLOCKS_PER_FILE = 1, 2, 512
    N_B = CYCLES * FILES * BLOCKS_PER_FILE
    CALIB_TRIALS = 50_000_000
    TRAILING_CALIB_TRIALS = 1_000_000
    WITNESS_BLOCKS = 512
    SAMPLES_PER_CYCLE = 3

    def __init__(self):
        self.ops = Ops()

    def prepare(self, seed: int, tmp: Path) -> None:
        self.seed, self.tmp = seed, tmp
        self.nu = data.commissioning_distribution()
        self.beta = checks.PAPER_BETA
        self.table = pef.build_pef_table(self.nu, self.beta, 17, j_mid=checks.PAPER_J_MID)
        rep = pef.block_gain(self.table, self.nu)
        self.g_true, self.var_true = rep.g_block, rep.var_block
        self.p_det = float(1.0 - self.nu.table[0, 0])
        self.law = dict(n_blocks=0, sum_length=0, pre_spot_trials=0, events=0, spot_settings=[0] * 4)
        self.acc_total = self.acc_g = self.acc_var = 0.0
        self.acc_n = 0
        self.wit_total, self.wit_n = 0.0, 0

    def round(self, r: int) -> dict:
        seed = round_seed(self.seed, r)
        cfg = protocol.RunConfig(
            k=17,
            beta=self.beta,
            G_min=checks.PAPER_G_MIN,
            N_b=self.N_B,
            n_calib_min=self.CALIB_TRIALS,
            seed=seed,
        )
        path = self.tmp / f"round{r:04d}"
        tables: list = []

        def builder(nu_h):
            table = pef.build_pef_table(nu_h, self.beta, 17, j_mid=checks.PAPER_J_MID)
            tables.append(table)
            return table

        def analyse():
            loaded, _ = protocol.load_dataset(path)
            return loaded, *protocol.accumulate(loaded, cfg, builder, stop_on_success=False, threads=1)

        ops = self.ops
        t0 = clock()
        cycles, summary = ops(
            protocol.simulate_dataset,
            self.nu,
            cfg,
            blocks_per_file=self.BLOCKS_PER_FILE,
            files_per_cycle=self.FILES,
            calib_trials=self.CALIB_TRIALS,
            trailing_calib_trials=self.TRAILING_CALIB_TRIALS,
            threads=1,
        )
        t1 = clock()
        ops(protocol.write_dataset, cycles, path, {"k": 17, "seed": seed})
        t2 = clock()
        loaded, state, trace = ops(analyse)
        t3 = clock()
        witness = ops(protocol.simulate_run_witness, self.table, self.nu, self.WITNESS_BLOCKS, seed=seed, stream=1)
        t4 = clock()
        return dict(
            seed=seed, path=path, cycles=cycles, summary=summary, loaded=loaded, state=state,
            trace=trace, tables=tables, witness=witness,
            t_sim=t1 - t0, t_analysis=t3 - t2, t_witness=t4 - t3,
        )

    def check(self, out: dict) -> dict:
        records = [b for c in out["cycles"] for b in c.blocks]
        loaded = [b for c in out["loaded"] for b in c.blocks]
        files = sorted(out["path"].glob("cycle_*/expansion_*.blocks"))
        n_bytes = sum(f.stat().st_size for f in files)
        shutil.rmtree(out["path"])
        per_file = [f.blocks for c in out["cycles"] for f in c.files]
        checks.conservation(
            {
                "simulated": out["summary"]["n_blocks"],
                "written": sum(len(b) for b in per_file),
                "read": len(loaded),
                "N_run": out["state"].N_run,
                "trace rows": len(out["trace"]),
            }
        )
        checks.require(loaded == records, "blocks read back differ from the blocks written")
        checks.require(len(files) == len(per_file), f"{len(files)} block files for {len(per_file)} written")
        checks.bytes_on_disk(n_bytes, [len(b.events) for b in records])

        law = self.law
        law["n_blocks"] += len(records)
        for b in records:
            law["sum_length"] += b.length
            law["pre_spot_trials"] += b.length - 1
            law["events"] += len(b.events)
            law["spot_settings"][b.spot_settings] += 1

        # trace increments against a dense evaluation, on sampled blocks
        increments = np.diff(out["trace"][:, 1], prepend=0.0)
        per_cycle = self.FILES * self.BLOCKS_PER_FILE
        checks.require(len(out["tables"]) == self.CYCLES, f"{len(out['tables'])} refits for {self.CYCLES} cycles")
        pick = np.random.default_rng(out["seed"] % 2**63)
        samples = []
        for ci, table in enumerate(out["tables"]):
            first = ci * per_cycle
            chosen = [first, *pick.integers(first, first + per_cycle, self.SAMPLES_PER_CYCLE - 1)]
            for i in chosen:
                b = records[i]
                spot = 4 * b.spot_settings + b.spot_outcome
                samples.append((f"block {i}", float(increments[i]), b.length, b.events, spot, table))
            rep = pef.block_gain(table, self.nu)
            self.acc_g += rep.g_block * per_cycle
            self.acc_var += rep.var_block * per_cycle
        checks.increments_match(samples)
        self.acc_total += float(out["trace"][-1, 1])
        self.acc_n += len(records)
        self.wit_total += float(out["witness"].sum())
        self.wit_n += len(out["witness"])
        return {
            "sim_blocks_per_s": len(records) / out["t_sim"],
            "analysis_blocks_per_s": len(records) / out["t_analysis"],
            "witness_sim_blocks_per_s": len(out["witness"]) / out["t_witness"],
            "bytes_per_block": n_bytes / len(records),
        }

    def finish(self) -> None:
        checks.sampler_law(self.p_det, 17, **self.law)
        checks.mean_increment(
            self.acc_total, self.acc_n, self.acc_g / self.acc_n, self.acc_var / self.acc_n,
            "mean accumulate increment",
        )
        checks.mean_increment(
            self.wit_total, self.wit_n, self.g_true, self.var_true, "mean simulate_run_witness increment"
        )

    def metrics(self) -> dict:
        return {"peak_rss_mb": (peak_rss_mb(), "MB")}


class PlanningK17:
    """One cold production plan on a fresh gain curve, then warm repeats.

    The warm repeats feed the identical-plan check and, in traced runs,
    ``planner.expansion_feasible.warm_s``.  They are not an end-to-end
    metric of their own: the spread of a run's warm median over sets of ten
    runs (IQR over median) was 0.06-0.33, above the largest bound allowed
    when the host is noisy, because all repeats fall in one few-second
    window after the cold plan.
    """

    name = "planning-k17"
    WARM_REPEATS = 3

    def __init__(self):
        self.ops = Ops()

    def prepare(self, seed: int, tmp: Path) -> None:
        self.nu = data.commissioning_distribution()
        self.vertices = checks.closed_form_vertices()
        # warm the polytope-derived caches the way any earlier PEF call would
        pef.build_pef_table(self.nu, checks.PAPER_BETA, 17, j_mid=checks.PAPER_J_MID)

    def _plan(self, curve):
        return self.ops(
            planner.expansion_feasible, self.nu, checks.PAPER_N_B, checks.PAPER_K, checks.PAPER_EPS, curve=curve
        )

    def round(self, r: int) -> dict:
        curve = planner.GainCurve(self.nu, checks.PAPER_K)
        t0 = clock()
        feasible, plan = self._plan(curve)
        cold = clock() - t0
        warm_plans, warm = [], []
        for _ in range(self.WARM_REPEATS):
            t0 = clock()
            warm_plans.append(self._plan(curve)[1])
            warm.append(clock() - t0)
        return dict(feasible=feasible, plan=plan, warm_plans=warm_plans, cold=cold, warm=warm)

    def check(self, out: dict) -> dict:
        plan = out["plan"]
        checks.require(out["feasible"] and plan.feasible, "the paper's point is reported infeasible")
        checks.paper_values(plan.beta_opt, plan.G_min, plan.p_succ)
        table = pef.build_pef_table(self.nu, plan.beta_opt, plan.k, j_mid=plan.j_mid, strict=False)
        checks.pef_valid_at_vertices(table, self.vertices)
        ext = plan.extractor
        checks.kout_maximal(ext.k_out, ext.sigma_in, ext.eps_ext)
        checks.identical_plans(plan.to_dict(), [p.to_dict() for p in out["warm_plans"]])
        return {"plan_cold_s": out["cold"], "warm_plan_s": out["warm"]}

    def finish(self) -> None:
        pass

    def metrics(self) -> dict:
        return {"peak_rss_mb": (peak_rss_mb(), "MB")}


def synthetic_source(visibility: float = 0.9) -> model.ConditionalDistribution:
    """CHSH-optimal correlations at a visibility:
    ``p(ab|xy) = (1 + (-1)^(a xor b xor xy) * v / sqrt2) / 4``."""
    t = np.empty((4, 4))
    for s in range(4):
        x, y = s & 1, s >> 1
        for o in range(4):
            a, b = o & 1, o >> 1
            t[s, o] = (1.0 + (-1) ** (a ^ b ^ (x * y)) * visibility / math.sqrt(2.0)) / 4.0
    return model.ConditionalDistribution(t)


class DeskCliK6:
    """``direx simulate -> accumulate -> extract-params -> report`` at k=6.

    Every command is its own child process, one at a time, with one BLAS
    thread and ``--threads 1``.  The threshold sits 6 standard deviations
    below the analytic mean, so every realisation succeeds.
    """

    name = "desk-cli-k6"
    K, BETA, N_B, Z_THRESHOLD = 6, 1e-3, 4096, 6.0
    EPS = 1e-2
    EPS_EN = EPS / 2
    COMMANDS = ("simulate", "accumulate", "extract-params", "report")
    CHILD_TIMEOUT_S = 150

    def __init__(self, root: Path, env: dict):
        self.root, self.env = root, env
        self.trace_dir: Path | None = None
        self.ops = Ops()

    def prepare(self, seed: int, tmp: Path) -> None:
        self.seed, self.tmp = seed, tmp
        nu = synthetic_source()
        self.source = tmp / "source.json"
        self.source.write_text(nu.to_json())
        table = pef.build_pef_table(nu, self.BETA, self.K, optimize_j_mid=True)
        rep = pef.block_gain(table, nu)
        self.g_b, self.var_b = rep.g_block, rep.var_block
        self.g_min = planner.threshold_from_sigma(self.N_B, self.g_b, self.var_b, self.Z_THRESHOLD)
        self.sigma_in = self.g_min + math.log2(self.EPS_EN) / self.BETA + math.log2(self.EPS)
        self.m_in = self.N_B * 2**self.K * 2

    def _argv(self, cmd: str, rdir: Path) -> list[str]:
        if cmd == "simulate":
            return [
                "simulate", str(self.source), "--k", str(self.K), "--blocks", str(self.N_B),
                "--seed", str(self._seed), "--out", str(rdir / "data"),
                "--blocks-per-file", str(self.N_B), "--files-per-cycle", "1", "--threads", "1",
            ]
        if cmd == "accumulate":
            return [
                "accumulate", str(rdir / "data"), "--beta", repr(self.BETA), "--gmin", str(self.g_min),
                "--check-granularity", "file", "--threads", "1",
            ]
        if cmd == "extract-params":
            return [
                "extract-params", "--m-in", str(self.m_in), "--sigma-in", repr(self.sigma_in),
                "--eps-ext", repr(self.EPS - self.EPS_EN), "--eps", repr(self.EPS),
            ]
        return ["report", str(rdir / "state.json"), str(rdir / "extractor.json"), "--k", str(self.K)]

    def round(self, r: int) -> dict:
        self._seed = round_seed(self.seed, r)
        rdir = self.tmp / f"round{r:04d}"
        rdir.mkdir()
        child = Path(__file__).with_name("cli_child.py")
        walls, stdout = {}, {}
        for cmd in self.COMMANDS:
            env = dict(self.env)
            if self.trace_dir is not None:
                env["PERFBENCH_TRACE"] = str(self.trace_dir / f"{cmd}.json")
            t0 = clock()
            proc = self.ops(self._run, [sys.executable, str(child), *self._argv(cmd, rdir)], env)
            walls[cmd] = clock() - t0
            stdout[cmd] = proc.stdout
            if cmd == "accumulate":
                (rdir / "state.json").write_text(proc.stdout)
            elif cmd == "extract-params":
                (rdir / "extractor.json").write_text(proc.stdout)
        return dict(rdir=rdir, walls=walls, stdout=stdout)

    def _run(self, argv: list[str], env: dict) -> subprocess.CompletedProcess:
        """One CLI child; exiting nonzero or outliving its timeout fails it."""
        try:
            proc = subprocess.run(
                argv, cwd=self.root, env=env, capture_output=True, text=True, timeout=self.CHILD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            raise OperationFailed(f"direx {argv[2]} did not end within {self.CHILD_TIMEOUT_S} s") from None
        if proc.returncode != 0:
            last = proc.stderr.strip().splitlines()[-1:] or [""]
            raise OperationFailed(f"direx {argv[2]} exited {proc.returncode}: {last[0]}")
        return proc

    def check(self, out: dict) -> dict:
        blocks = out["rdir"] / "data" / "cycle_0000" / "expansion_0000.blocks"
        n_bytes = blocks.stat().st_size if blocks.exists() else 0
        shutil.rmtree(out["rdir"])
        outputs = {}
        for cmd in self.COMMANDS:
            try:
                outputs[cmd] = json.loads(out["stdout"][cmd])
            except json.JSONDecodeError:
                raise checks.CheckError(f"direx {cmd} printed no JSON on stdout") from None
        checks.desk_chain(outputs, self.N_B, self.K, self.g_b, self.var_b)
        return {
            "desk_chain_s": sum(out["walls"].values()),
            "bytes_per_block": n_bytes / self.N_B,
            **{f"cli.{c}.s": w for c, w in out["walls"].items()},
        }

    def finish(self) -> None:
        pass

    def metrics(self) -> dict:
        return {"peak_rss_mb": (peak_rss_mb(resource.RUSAGE_CHILDREN), "MB")}


def make(name: str, root: Path, env: dict):
    if name == ProductionK17.name:
        return ProductionK17()
    if name == PlanningK17.name:
        return PlanningK17()
    if name == DeskCliK6.name:
        return DeskCliK6(root, env)
    raise KeyError(name)


def child_env(root: Path) -> dict:
    """Environment of every child: the checkout's sources, one BLAS thread."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env.pop("PERFBENCH_TRACE", None)
    return env
