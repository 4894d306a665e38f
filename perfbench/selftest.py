"""Self-test of the benchmark's correctness checks.

Hands each check a correct input, which it must accept, and deliberately
wrong inputs, which it must refuse.  Asserts no wall-clock times.  Run from
the root of a checkout::

    python3 perfbench/selftest.py
"""

import dataclasses
import math
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from direx import data, model, pef, protocol  # noqa: E402
from direx.extractor import max_kout  # noqa: E402

failures: list[str] = []
refusals = 0


def accepts(label, fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except checks.CheckError as e:
        failures.append(f"{label}: refused a correct input ({e})")


def refuses(label, fn, *args, **kwargs):
    global refusals
    try:
        fn(*args, **kwargs)
    except checks.CheckError:
        refusals += 1
    else:
        failures.append(f"{label}: accepted a wrong input")


def conservation_and_bytes():
    accepts("conservation", checks.conservation, {"simulated": 2048, "read": 2048, "N_run": 2048})
    refuses("conservation, one block lost", checks.conservation, {"simulated": 2048, "read": 2047, "N_run": 2048})
    events = [300, 0, 17]
    n = 3 * 8 + 5 * 317
    accepts("bytes", checks.bytes_on_disk, n, events)
    refuses("bytes, one extra byte", checks.bytes_on_disk, n + 1, events)


def sampler_law():
    k, p = 17, 0.0046
    n_blocks = 14 * 1024
    mean_len = (2**k + 1) / 2
    trials = int(n_blocks * (mean_len - 1))
    good = dict(
        n_blocks=n_blocks,
        sum_length=int(n_blocks * mean_len),
        pre_spot_trials=trials,
        events=round(trials * p),
        spot_settings=[n_blocks // 4] * 4,
    )
    accepts("sampler law", checks.sampler_law, p, k, **good)
    refuses("detection rate 1% high", checks.sampler_law, p, k, **{**good, "events": round(trials * p * 1.01)})
    refuses("detection rate 1% low", checks.sampler_law, p, k, **{**good, "events": round(trials * p * 0.99)})
    refuses("block length 5% long", checks.sampler_law, p, k, **{**good, "sum_length": int(n_blocks * mean_len * 1.05)})
    skew = [int(n_blocks * f) for f in (0.3, 0.25, 0.25, 0.2)]
    refuses("spot settings skewed", checks.sampler_law, p, k, **{**good, "spot_settings": skew})


def increments():
    # any anchors serve: the check compares two evaluations of one table
    rng = np.random.default_rng(7)
    k, beta = 6, 1e-3
    anchors = tuple(
        pef.TrialPef.from_excess(rng.normal(size=(4, 4)), beta, 1.0 / (2**k - j + 1))
        for j in (1, 20, 2**k)
    )
    table = pef.PefTable(k=k, beta=beta, j_mid=20, anchors=anchors)
    nu = data.commissioning_distribution()
    samples = []
    for i in range(20):
        b = protocol.simulate_block(nu, k, protocol.stream_rng(3, i))
        b = dataclasses.replace(b, events=((1, 2), (3, 1))) if b.length > 4 else b
        inc = protocol.block_log2_pef(b, table) / beta
        samples.append((f"block {i}", inc, b.length, b.events, 4 * b.spot_settings + b.spot_outcome, table))
    accepts("increments", checks.increments_match, samples)
    label, inc, *rest = samples[5]
    bad = samples[:5] + [(label, inc + 1e-3, *rest)] + samples[6:]
    refuses("one increment changed by 1e-3", checks.increments_match, bad)
    g, var, n = 36.06, 4.67e8, 10_000
    sd = math.sqrt(var / n)
    accepts("mean increment", checks.mean_increment, n * (g + 3 * sd), n, g, var, "mean")
    refuses("mean increment 8 sd off", checks.mean_increment, n * (g + 8 * sd), n, g, var, "mean")


def planning():
    accepts("paper values", checks.paper_values, checks.PAPER_BETA, checks.PAPER_G_MIN, checks.PAPER_P_SUCC)
    refuses("beta 5% off", checks.paper_values, 1.05 * checks.PAPER_BETA, checks.PAPER_G_MIN, 0.9938)
    refuses("G_min 1% off", checks.paper_values, checks.PAPER_BETA, int(1.01 * checks.PAPER_G_MIN), 0.9938)
    refuses("p_succ 2e-3 off", checks.paper_values, checks.PAPER_BETA, checks.PAPER_G_MIN, 0.9918)

    verts = checks.closed_form_vertices()
    enumerated = model.enumerate_extreme_points().vertices

    def canonical(x):
        return x[np.lexsort(np.round(x, 12).T[::-1])]

    if np.abs(canonical(verts) - canonical(enumerated)).max() > 1e-12:
        failures.append("closed-form vertices differ from the enumerated polytope")

    nu = data.commissioning_distribution()
    table = pef.build_pef_table(nu, checks.PAPER_BETA, checks.PAPER_K, j_mid=checks.PAPER_J_MID)
    accepts("PEF validity", checks.pef_valid_at_vertices, table, verts)
    for i in range(3):
        anchors = list(table.anchors)
        a = anchors[i]
        anchors[i] = pef.TrialPef.from_excess(a.excess * (1 + 1e-3), a.beta, a.position_q)
        bad = dataclasses.replace(table, anchors=tuple(anchors))
        refuses(f"anchor {i} scaled by 1+1e-3", checks.pef_valid_at_vertices, bad, verts)

    sigma_in, eps_ext = 1_585_919_552.5552673, 1.778177882263441e-09
    k_out = max_kout(sigma_in, eps_ext)
    accepts("k_out", checks.kout_maximal, k_out, sigma_in, eps_ext)
    refuses("k_out + 1", checks.kout_maximal, k_out + 1, sigma_in, eps_ext)
    refuses("k_out - 1", checks.kout_maximal, k_out - 1, sigma_in, eps_ext)

    cold = {"beta_opt": 4.7e-8, "evaluations": [(1e-10, -math.inf), (4.7e-8, 5.1e8)]}
    accepts("identical plans", checks.identical_plans, cold, [dict(cold), dict(cold)])
    refuses("warm plan differs", checks.identical_plans, cold, [dict(cold), {**cold, "beta_opt": 4.8e-8}])


def desk():
    n, k, g, var = 4096, 6, 12.8, 9242.0
    sigma_in, eps_ext = 7849.0, 5e-3
    k_out = max_kout(sigma_in, eps_ext)
    d_s = 177_419
    good = {
        "simulate": {"n_blocks": n},
        "accumulate": {"N_run": n, "succeeded": True, "G_run": n * g, "bits_consumed": n * (k + 2)},
        "extract-params": {"k_out": k_out, "sigma_in": sigma_in, "eps_ext": eps_ext, "d_s": d_s},
        "report": {"k_out": k_out, "bits_consumed": n * (k + 2), "k_in": n * (k + 2) + d_s},
    }
    accepts("desk chain", checks.desk_chain, good, n, k, g, var)
    sd = math.sqrt(n * var)
    wrong = {
        "a block not counted": ("accumulate", "N_run", n - 1),
        "did not succeed": ("accumulate", "succeeded", False),
        "G_run 8 sd low": ("accumulate", "G_run", n * g - 8 * sd),
        "k_out + 1": ("extract-params", "k_out", k_out + 1),
        "ledger off by one bit": ("report", "bits_consumed", n * (k + 2) + 1),
    }
    for label, (cmd, key, value) in wrong.items():
        bad = {c: dict(o) for c, o in good.items()}
        bad[cmd][key] = value
        refuses(f"desk chain, {label}", checks.desk_chain, bad, n, k, g, var)


def main() -> int:
    for part in (conservation_and_bytes, sampler_law, increments, planning, desk):
        part()
    for f in failures:
        print(f"selftest: {f}", file=sys.stderr)
    print(f"selftest: {refusals} wrong inputs refused, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
