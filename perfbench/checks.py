"""Correctness checks of the benchmark's workloads.

Every check compares the program's output with a computation made here,
apart from the program, or with a property the method must have; none
compares with a stored copy of earlier output.  A check raises
:class:`CheckError` with a one-line reason when it refuses its input.

Statistical bounds sit ``Z`` standard deviations wide, so a correct program
misses one with probability below 1e-11 at any seed.
"""

from __future__ import annotations

import itertools
import math

import mpmath
import numpy as np

Z = 7.0

#: the paper's production point and its published outputs
PAPER_N_B = 56_070_910
PAPER_EPS = 5.7e-7
PAPER_K = 17
PAPER_BETA = 4.7614e-8
PAPER_J_MID = 53_478
PAPER_G_MIN = 1_616_998_677
PAPER_P_SUCC = 0.9938

BLOCK_HEAD_BYTES = 8  # u32 length, u16 event count, u8 spot settings, u8 spot outcome
EVENT_BYTES = 5  # u32 position, u8 outcome


class CheckError(AssertionError):
    """A workload's output failed a correctness check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def within(value: float, mean: float, sd: float, what: str, z: float = Z) -> None:
    require(
        abs(value - mean) <= z * sd,
        f"{what}: {value!r} is {abs(value - mean) / sd:.1f} sd from {mean!r} (bound {z})",
    )


# ---------------------------------------------------------------------------
# production-k17
# ---------------------------------------------------------------------------


def conservation(counts: dict[str, int]) -> None:
    """Blocks simulated, written, read and counted agree at every step."""
    require(len(set(counts.values())) == 1, f"block counts disagree: {counts}")


def bytes_on_disk(n_bytes: int, event_counts) -> None:
    """A block file holds 8 bytes per block plus 5 per recorded event."""
    expected = sum(BLOCK_HEAD_BYTES + EVENT_BYTES * int(e) for e in event_counts)
    require(n_bytes == expected, f"{n_bytes} bytes on disk, records need {expected}")


def sampler_law(
    p_det: float,
    k: int,
    n_blocks: int,
    sum_length: int,
    pre_spot_trials: int,
    events: int,
    spot_settings: list[int],
) -> None:
    """Detection rate, mean block length and spot settings follow their laws.

    Given the block lengths, the event count is binomial over the pre-spot
    trials; lengths are uniform on ``1..2^k``; spot settings are uniform
    on the four pairs.
    """
    within(
        events,
        pre_spot_trials * p_det,
        math.sqrt(pre_spot_trials * p_det * (1.0 - p_det)),
        "detections per pre-spot trial",
    )
    n = 2**k
    within(
        sum_length / n_blocks,
        (n + 1) / 2.0,
        math.sqrt((n * n - 1) / 12.0 / n_blocks),
        "mean block length",
    )
    require(sum(spot_settings) == n_blocks, "spot settings do not cover every block")
    for s, c in enumerate(spot_settings):
        within(c, n_blocks / 4.0, math.sqrt(n_blocks * 3.0 / 16.0), f"spot setting {s}")


def dense_increment(length: int, events, spot: int, table) -> tuple[float, float]:
    """Witness increment of one block, summed over all of its trials.

    Re-derives each position's PEF from the table's three anchors: the
    lifted tables ``4 nu_q(z) F`` are interpolated linearly in the spot
    probability ``q = 1/(2^k - j + 1)`` and divided by the position's own
    scale, in deviation form ``F = 1 + beta * Y``.  Returns the increment
    ``sum_j log2 F_j(c_j z_j) / beta`` and the sum of the terms' magnitudes.
    """
    n = 2**table.k
    beta = table.beta
    anchor_pos = np.array([1.0, table.j_mid, n])
    q_anchor = 1.0 / (n - anchor_pos + 1.0)
    y = np.array([a.excess.ravel() for a in table.anchors])  # (3, 16)

    j = np.arange(1, length + 1, dtype=np.float64)
    cells = np.zeros(length, dtype=np.int64)  # settings 00, outcome 00
    for pos, out in events:
        cells[pos - 1] = out
    cells[-1] = spot

    q = 1.0 / (n - j + 1.0)
    upper = q > q_anchor[1]
    lo = upper.astype(np.int64)  # segment: anchors (0, 1) or (1, 2)
    q_lo, q_hi = q_anchor[lo], q_anchor[lo + 1]
    lam = (q_hi - q) / (q_hi - q_lo)

    def scale(qv, cell):
        return np.where(cell < 4, 4.0 - 3.0 * qv, qv)

    num = lam * scale(q_lo, cells) * y[lo, cells] + (1.0 - lam) * scale(q_hi, cells) * y[lo + 1, cells]
    terms = np.log1p(beta * num / scale(q, cells)) / math.log(2.0) / beta
    return float(terms.sum()), float(np.abs(terms).sum())


def increments_match(samples) -> None:
    """Each sampled trace increment equals the dense evaluation of its block.

    ``samples`` holds ``(label, increment, length, events, spot, table)``.
    The tolerance covers float64 summation in a different order.
    """
    for label, inc, length, events, spot, table in samples:
        dense, size = dense_increment(length, events, spot, table)
        require(
            abs(inc - dense) <= 1e-9 * size + 1e-9,
            f"{label}: increment {inc!r} but dense evaluation gives {dense!r}",
        )


def mean_increment(total: float, n: int, g_b: float, var_b: float, what: str) -> None:
    """The mean witness increment lies within Z standard errors of g_b."""
    within(total / n, g_b, math.sqrt(var_b / n), what)


# ---------------------------------------------------------------------------
# planning-k17
# ---------------------------------------------------------------------------


def paper_values(beta_opt: float, g_min: int, p_succ: float) -> None:
    """The production plan reproduces the paper's power, threshold and p_succ."""
    require(
        abs(beta_opt - PAPER_BETA) <= 0.03 * PAPER_BETA,
        f"beta_opt {beta_opt!r} not within 3% of {PAPER_BETA}",
    )
    require(
        abs(g_min - PAPER_G_MIN) <= 0.005 * PAPER_G_MIN,
        f"G_min {g_min} not within 0.5% of {PAPER_G_MIN}",
    )
    require(
        abs(p_succ - PAPER_P_SUCC) <= 1e-3,
        f"p_succ {p_succ!r} not within 1e-3 of {PAPER_P_SUCC}",
    )


def _flat(x: int, y: int, a: int, b: int) -> int:
    return 4 * (x + 2 * y) + (a + 2 * b)


def closed_form_vertices() -> np.ndarray:
    """The 80 extreme points of the Tsirelson-bounded polytope, (80, 16).

    The 16 local-deterministic tables, then for each of the 8 PR boxes
    ``a xor b = xy xor alpha.x xor beta.y xor gamma`` and each of the 8
    deterministic tables that satisfy that relation on three of the four
    settings pairs, the point ``(sqrt2 - 1) PR + (2 - sqrt2) LD``.
    """
    pairs = list(itertools.product((0, 1), repeat=2))
    ld = []
    for a0, a1, b0, b1 in itertools.product((0, 1), repeat=4):
        v = np.zeros(16)
        for x, y in pairs:
            v[_flat(x, y, (a0, a1)[x], (b0, b1)[y])] = 1.0
        ld.append(((a0, a1), (b0, b1), v))
    out = [v for _, _, v in ld]
    for al, be, ga in itertools.product((0, 1), repeat=3):
        rel = {(x, y): (x * y) ^ (al * x) ^ (be * y) ^ ga for x, y in pairs}
        pr = np.zeros(16)
        for x, y in pairs:
            for a in (0, 1):
                pr[_flat(x, y, a, a ^ rel[x, y])] = 0.5
        for av, bv, v in ld:
            hits = sum((av[x] ^ bv[y]) == rel[x, y] for x, y in pairs)
            if hits == 3:
                out.append((math.sqrt(2.0) - 1.0) * pr + (2.0 - math.sqrt(2.0)) * v)
    verts = np.array(out)
    require(verts.shape == (80, 16), f"closed form gave {verts.shape[0]} vertices")
    return verts


def pef_valid_at_vertices(table, vertices: np.ndarray, tol: float = 1e-9) -> None:
    """Every anchor satisfies the PEF inequality at every vertex.

    In deviation form ``F = 1 + beta*y`` the inequality
    ``sum nu_q(z) mu(c|z)^(1+beta) F(cz) <= 1`` reads ``A y <= rho`` with
    ``rho = -sum nu mu expm1(beta ln mu) / beta``, free of cancellation.
    """
    n = 2**table.k
    beta = table.beta
    with np.errstate(divide="ignore"):
        log_v = np.where(vertices > 0, np.log(np.where(vertices > 0, vertices, 1.0)), 0.0)
    e1 = np.where(vertices > 0, np.expm1(beta * log_v), 0.0)
    for pos, anchor in zip((1, table.j_mid, n), table.anchors):
        q = 1.0 / (n - pos + 1.0)
        nu = np.where(np.arange(16) < 4, 1.0 - 0.75 * q, q / 4.0)
        A = nu * vertices * (1.0 + e1)
        rho = -(nu * vertices * e1).sum(axis=1) / beta
        y = anchor.excess.ravel()
        require(bool((1.0 + beta * y >= 0).all()), f"anchor at j={pos} has F < 0")
        excess = A @ y - rho
        worst = int(np.argmax(excess))
        require(
            excess[worst] <= tol * (1.0 + abs(rho[worst])),
            f"anchor at j={pos} breaks the PEF inequality at vertex {worst} by {excess[worst]:.3e}",
        )


def kout_maximal(k_out: int, sigma_in: float, eps_ext: float) -> None:
    """k_out is the largest k with k + 4 log2 k <= sigma_in - 6 + 4 log2 eps_ext."""
    with mpmath.workdps(50):
        rhs = mpmath.mpf(sigma_in) - 6 + 4 * mpmath.log(mpmath.mpf(eps_ext), 2)

        def lhs(k):
            return k + 4 * mpmath.log(k, 2)

        require(k_out >= 1 and lhs(k_out) <= rhs, f"k_out={k_out} breaks the entropy-loss bound")
        require(lhs(k_out + 1) > rhs, f"k_out={k_out} is not maximal: {k_out + 1} also fits")


def identical_plans(cold: dict, warm: list[dict]) -> None:
    """Plans from a warm gain curve equal the cold plan exactly."""
    for i, plan in enumerate(warm):
        require(plan == cold, f"warm plan {i} differs from the cold plan")


# ---------------------------------------------------------------------------
# desk-cli-k6
# ---------------------------------------------------------------------------


def desk_chain(
    outputs: dict[str, dict],
    n_blocks: int,
    k: int,
    g_b: float,
    var_b: float,
) -> None:
    """The CLI chain counted every block, succeeded and kept its ledger.

    ``outputs`` maps each command to its parsed stdout JSON.
    """
    sim, state, ext, rep = (outputs[c] for c in ("simulate", "accumulate", "extract-params", "report"))
    require(sim["n_blocks"] == n_blocks, f"simulate made {sim['n_blocks']} blocks, asked {n_blocks}")
    require(state["N_run"] == n_blocks, f"accumulate counted {state['N_run']} of {n_blocks} blocks")
    require(state["succeeded"] is True, "accumulate did not reach the threshold")
    within(state["G_run"], n_blocks * g_b, math.sqrt(n_blocks * var_b), "G_run against N g_b")
    kout_maximal(ext["k_out"], ext["sigma_in"], ext["eps_ext"])
    consumed = n_blocks * (k + 2)
    require(
        state["bits_consumed"] == consumed and rep["bits_consumed"] == consumed,
        f"bits consumed {state['bits_consumed']}/{rep['bits_consumed']}, expected {consumed}",
    )
    require(
        rep["k_out"] == ext["k_out"] and rep["k_in"] == consumed + ext["d_s"],
        "report's k_out or k_in disagrees with the extractor budget",
    )
