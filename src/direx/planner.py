"""Experiment design: block counts, block length, thresholds, completeness.

Feasibility of randomness expansion is decided by the expected net yield

    sigma_net = k_out - d_s - N_b * (k + 2),

where each block consumes ``k`` bits to pick its length and 2 bits for the
spot-check settings, and ``k_out``/``d_s`` come from the extractor budget at
the certified entropy

    sigma_in = N_b * g_b(beta) + log2(eps_en)/beta + log2(eps).

The search optimises ``beta`` on a log grid with zoom refinement (every
evaluation is kept for audit) and ``eps_en`` by a nested line search; block
rates ``g_b(beta)`` are expensive (three PEF optimisations plus a middle-
anchor line search each) and are cached per distribution and block length.
Each grid round fills that cache for all its powers with one batched table
build (:meth:`GainCurve.rates`), whose anchors are solved a search step at
a time across powers; plans are the same as with one build per power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from direx.extractor import ExtractorParams, InfeasibleParameters
from direx.ledger import consumed_bits, expected_trials, experiment_output_length
from direx.model import ConditionalDistribution, is_member_T
from direx.pef import block_gain, build_pef_tables

__all__ = [
    "PlanResult",
    "GainCurve",
    "InfeasiblePlan",
    "expansion_feasible",
    "min_blocks",
    "optimal_block_length",
    "success_probability",
    "threshold_from_sigma",
]

BETA_BRACKET = (1e-10, 1e-5)
BETA_GRID_POINTS = 40
BETA_ZOOM_ROUNDS = 2
#: the threshold sits this many standard deviations below the mean witness
DEFAULT_Z = 2.5
#: largest block budget :func:`min_blocks` tries
BLOCK_CAP = 1 << 40


class InfeasiblePlan(RuntimeError):
    """Raised when no parameter choice achieves expansion."""


def success_probability(N_b: int, g_b: float, var_b: float, G_min: float) -> float:
    """Normal-approximation probability that the witness reaches ``G_min``.

    The witness after ``N_b`` honest blocks is treated as normal with mean
    ``N_b*g_b`` and variance ``N_b*var_b``; the estimate is heuristic in
    exactly that sense and ignores early threshold crossings.
    """
    if var_b <= 0:
        raise ValueError("var_b must be positive")
    z = (N_b * g_b - G_min) / math.sqrt(N_b * var_b)
    return _q_tail(-z)


def _q_tail(x: float) -> float:
    """Standard normal tail probability Q(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def threshold_from_sigma(N_b: int, g_b: float, var_b: float, z: float) -> int:
    """Witness threshold sitting ``z`` standard deviations below the mean."""
    if var_b <= 0:
        raise ValueError("var_b must be positive")
    return math.floor(N_b * g_b - z * math.sqrt(N_b * var_b))


@dataclass
class PlanResult:
    """Outcome of a planning computation; fields filled per operation."""

    feasible: bool
    k: int
    eps: float
    beta_opt: float | None = None
    eps_en_opt: float | None = None
    sigma_net: float | None = None
    sigma_in: float | None = None
    g_b: float | None = None
    var_b: float | None = None
    j_mid: int | None = None
    extractor: ExtractorParams | None = None
    N_b: int | None = None
    N_b_min: int | None = None
    N_t_min: float | None = None
    k_opt: int | None = None
    G_min: int | None = None
    p_succ: float | None = None
    #: every (beta, sigma_net) pair evaluated, for audit
    evaluations: list[tuple[float, float]] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {}
        for name, val in self.__dict__.items():
            if name == "extractor":
                out[name] = None if val is None else val.__dict__.copy()
            elif isinstance(val, np.generic):
                out[name] = val.item()
            elif isinstance(val, float) and not math.isfinite(val):
                out[name] = None  # keep the dict JSON-serialisable
            elif name == "evaluations":
                out[name] = [(b, sn if math.isfinite(sn) else None) for b, sn in val]
            else:
                out[name] = val
        return out


class GainCurve:
    """Cached block rates ``g_b(beta)`` for one distribution and length.

    Each evaluation builds a PEF table with the middle anchor optimised and
    returns the full-resolution block rate.  :meth:`rates` builds the
    tables of all missing powers together, so their anchor solves share
    batched interior-point calls; :meth:`rate` is the lookup.  Results are
    memoised on the exact float value of ``beta``, so grid-with-zoom
    searches and the block bisection share work.
    """

    def __init__(self, nu_h: ConditionalDistribution, k: int):
        self.nu_h = nu_h
        self.k = k
        self._cache: dict[float, tuple[float, float, int]] = {}

    def rate(self, beta: float) -> tuple[float, float, int]:
        """(g_b bits/block, var_b bits^2/block, j_mid) at this power."""
        return self.rates([beta])[0]

    def rates(self, betas) -> list[tuple[float, float, int]]:
        """:meth:`rate` for many powers, building the missing ones together."""
        betas = [float(b) for b in betas]
        missing = list(dict.fromkeys(b for b in betas if b not in self._cache))
        if missing:
            # design sweeps touch extreme powers where certification can be
            # float-limited; anchors stay feasible (hence rates attainable)
            tables = build_pef_tables(
                self.nu_h, missing, self.k, optimize_j_mid=True, strict=False
            )
            for beta, table in zip(missing, tables):
                rep = block_gain(table, self.nu_h)
                self._cache[beta] = (rep.g_block, rep.var_block, table.j_mid)
        return [self._cache[b] for b in betas]


def _sigma_net_at(
    curve: GainCurve, beta: float, N_b: int, eps: float, eps_en: float
) -> tuple[float, dict | None]:
    """Net yield for one (beta, eps_en) candidate; -inf when out of range."""
    g_b, var_b, j_mid = curve.rate(beta)
    sigma_in = N_b * g_b + math.log2(eps_en) / beta + math.log2(eps)
    m_in = experiment_output_length(N_b, curve.k)
    try:
        params = ExtractorParams.budget(m_in, sigma_in, eps - eps_en, eps)
    except InfeasibleParameters:
        return -math.inf, None
    sigma_net = params.k_out - params.d_s - consumed_bits(N_b, curve.k)
    return sigma_net, {
        "sigma_in": sigma_in, "g_b": g_b, "var_b": var_b, "j_mid": j_mid, "extractor": params
    }


def _best_eps_en(curve, beta, N_b, eps):
    """Line search over the error split, log-parameterised on (0, eps)."""

    def val(u: float) -> float:
        eps_en = eps * math.exp(-math.exp(u))
        return _sigma_net_at(curve, beta, N_b, eps, eps_en)[0]

    us = np.linspace(-7.0, 3.0, 30)
    vals = [val(float(u)) for u in us]
    i = int(np.argmax(vals))
    if not math.isfinite(vals[i]):
        return -math.inf, None
    lo, hi = float(us[max(0, i - 1)]), float(us[min(len(us) - 1, i + 1)])
    for _ in range(40):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if val(m1) < val(m2):
            lo = m1
        else:
            hi = m2
    u = 0.5 * (lo + hi)
    eps_en = eps * math.exp(-math.exp(u))
    return _sigma_net_at(curve, beta, N_b, eps, eps_en)[0], eps_en


def _optimize_beta(curve, N_b, eps, evaluations):
    grid = np.geomspace(*BETA_BRACKET, BETA_GRID_POINTS)
    step = grid[1] / grid[0]
    best = (-math.inf, None, None)
    for _round in range(1 + BETA_ZOOM_ROUNDS):
        curve.rates(grid)
        for b in grid:
            b = float(b)
            sn, eps_en = _best_eps_en(curve, b, N_b, eps)
            evaluations.append((b, sn))
            if sn > best[0]:
                best = (sn, b, eps_en)
        if best[1] is None:
            return best
        lo, hi = best[1] / step, best[1] * step
        grid = np.geomspace(lo, hi, 9)
        step = grid[1] / grid[0]
    return best


def expansion_feasible(
    nu_h: ConditionalDistribution,
    N_b: int,
    k: int,
    eps: float,
    curve: GainCurve | None = None,
) -> tuple[bool, PlanResult]:
    """Whether ``N_b`` blocks of up to ``2^k`` trials suffice for expansion.

    Optimises the PEF power on a log grid with zoom refinement and the
    entropy/extractor error split by a nested line search, then reports the
    best net yield.  The returned plan carries the audit list of every
    ``(beta, sigma_net)`` evaluation, plus the threshold and success
    probability at the conventional ``DEFAULT_Z``-sigma criterion.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must be in (0, 1]")
    if N_b < 1:
        raise ValueError(f"N_b must be at least 1 block, got {N_b}")
    if not is_member_T(nu_h):
        raise ValueError("nu_h is outside the trial polytope")
    if curve is None:
        curve = GainCurve(nu_h, k)
    plan = PlanResult(feasible=False, k=k, eps=eps, N_b=N_b)
    sn, beta, eps_en = _optimize_beta(curve, N_b, eps, plan.evaluations)
    if beta is None:
        return False, plan
    sigma_net, detail = _sigma_net_at(curve, beta, N_b, eps, eps_en)
    plan.beta_opt = beta
    plan.eps_en_opt = eps_en
    plan.sigma_net = sigma_net
    plan.feasible = bool(sigma_net >= 0)
    if detail is not None:
        plan.sigma_in = detail["sigma_in"]
        plan.g_b = detail["g_b"]
        plan.var_b = detail["var_b"]
        plan.j_mid = detail["j_mid"]
        plan.extractor = detail["extractor"]
        plan.G_min = threshold_from_sigma(N_b, plan.g_b, plan.var_b, DEFAULT_Z)
        plan.p_succ = success_probability(N_b, plan.g_b, plan.var_b, plan.G_min)
    return plan.feasible, plan


def _asymptotically_feasible(curve: GainCurve, k: int) -> bool:
    """Expansion needs some power with g_b above the per-block consumption."""
    probe = np.geomspace(*BETA_BRACKET, 12)
    return any(g_b > consumed_bits(1, k) for g_b, _, _ in curve.rates(probe))


def min_blocks(
    nu_h: ConditionalDistribution,
    k: int,
    eps: float,
    curve: GainCurve | None = None,
) -> PlanResult:
    """Least block budget with a feasible expansion plan, by bisection."""
    if curve is None:
        curve = GainCurve(nu_h, k)
    if not _asymptotically_feasible(curve, k):
        raise InfeasiblePlan(
            f"block rate never exceeds the {consumed_bits(1, k)} bits consumed per block at k={k}"
        )
    lo, hi = 1, None
    n = 1 << 18
    while hi is None:
        if n > BLOCK_CAP:
            raise InfeasiblePlan(f"no feasible block count up to the cap {BLOCK_CAP}")
        ok, _ = expansion_feasible(nu_h, n, k, eps, curve=curve)
        if ok:
            hi = n
        else:
            lo = n
            n *= 4
    while hi - lo > 1:
        mid = (lo + hi) // 2
        ok, _ = expansion_feasible(nu_h, mid, k, eps, curve=curve)
        if ok:
            hi = mid
        else:
            lo = mid
    _, plan = expansion_feasible(nu_h, hi, k, eps, curve=curve)
    plan.N_b_min = hi
    plan.N_t_min = expected_trials(hi, k)
    return plan


def optimal_block_length(
    nu_h: ConditionalDistribution,
    eps: float,
    k_range,
    curves: dict[int, GainCurve] | None = None,
) -> PlanResult:
    """Block-length exponent minimising the expected number of trials.

    Evaluates ``N_t_min(k) = N_b_min(k) * (1 + 2^k)/2`` over ``k_range``;
    infeasible lengths are skipped, ties break toward the smaller ``k``.
    """
    k_list = sorted(set(int(k) for k in k_range))
    if not k_list:
        raise ValueError("k_range must be nonempty")
    best: PlanResult | None = None
    for k in k_list:
        curve = None if curves is None else curves.setdefault(k, GainCurve(nu_h, k))
        try:
            plan = min_blocks(nu_h, k, eps, curve=curve)
        except InfeasiblePlan:
            continue
        if best is None or plan.N_t_min < best.N_t_min:
            best = plan
    if best is None:
        raise InfeasiblePlan(f"no feasible block length in {k_list}")
    best.k_opt = best.k
    return best
