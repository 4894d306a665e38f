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
Each grid round builds the tables of all its powers with one batched build
(:meth:`GainCurve.estimates`), whose anchors are solved a search step at a
time across powers, and ranks the powers on the middle-anchor search's own
decimated rate estimate; the full-resolution rate is summed only for the
leader and its grid neighbours, and the plan is built from it.
:func:`min_blocks` first checks, on every third power of the first grid
round, that some estimated rate out-earns the bits a block consumes, so a
block length that passes builds no table its search does not read.
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


class InfeasiblePlan(ValueError):
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
    #: every (beta, sigma_net) pair of the power search, in grid order round
    #: by round, for audit.  Each round's finalists (its leader on the
    #: estimated rate and the leader's two grid neighbours) hold sigma_net at
    #: the exact rate; every other power holds it at the estimated rate
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
    """Block rates ``g_b(beta)`` for one distribution and length, exact and
    estimated.

    Each power gets a PEF table with the middle anchor optimised.
    :meth:`estimates` builds the tables of all missing powers together, so
    their anchor solves share batched interior-point calls, and returns the
    decimated rate estimate the middle-anchor search scored each chosen
    table by.  :meth:`rate` is exact: the full-resolution block rate of the
    power's table, summed on first use.  One memo entry per power, keyed on
    the exact float value of ``beta``, holds the table, its estimate and
    the exact ``(g_b, var_b)`` once summed, so grid-with-zoom searches and
    the block bisection share work.
    """

    def __init__(self, nu_h: ConditionalDistribution, k: int):
        self.nu_h = nu_h
        self.k = k
        #: beta -> [table, estimate, (g_b, var_b) or None until summed]
        self._memo: dict[float, list] = {}

    def estimates(self, betas) -> list[float]:
        """Estimated g_b (bits/block) at many powers, building the missing
        tables together."""
        betas = [float(b) for b in betas]
        missing = list(dict.fromkeys(b for b in betas if b not in self._memo))
        if missing:
            # design sweeps touch extreme powers where certification can be
            # float-limited; anchors stay feasible (hence rates attainable)
            built = build_pef_tables(self.nu_h, missing, self.k, optimize_j_mid=True, strict=False)
            self._memo.update((b, [table, est, None]) for b, (table, est) in zip(missing, built))
        return [self._memo[b][1] for b in betas]

    def rate(self, beta: float) -> tuple[float, float, int]:
        """(g_b bits/block, var_b bits^2/block, j_mid) at this power."""
        beta = float(beta)
        self.estimates([beta])
        entry = self._memo[beta]
        if entry[2] is None:
            rep = block_gain(entry[0], self.nu_h)
            entry[2] = (rep.g_block, rep.var_block)
        return (*entry[2], entry[0].j_mid)


def _sigma_net_at(
    g_b: float, k: int, beta: float, N_b: int, eps: float, eps_en: float
) -> tuple[float, ExtractorParams | None]:
    """Net yield and extractor at block rate ``g_b`` for one (beta, eps_en)
    candidate; ``(-inf, None)`` when out of range."""
    sigma_in = N_b * g_b + math.log2(eps_en) / beta + math.log2(eps)
    m_in = experiment_output_length(N_b, k)
    try:
        params = ExtractorParams.budget(m_in, sigma_in, eps - eps_en, eps)
    except InfeasibleParameters:
        return -math.inf, None
    return params.k_out - params.d_s - consumed_bits(N_b, k), params


def _best_eps_en(g_b, k, beta, N_b, eps):
    """Line search over the error split, log-parameterised on (0, eps)."""

    def val(u: float) -> float:
        eps_en = eps * math.exp(-math.exp(u))
        return _sigma_net_at(g_b, k, beta, N_b, eps, eps_en)[0]

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
    return _sigma_net_at(g_b, k, beta, N_b, eps, eps_en)[0], eps_en


def _optimize_beta(curve, N_b, eps, evaluations):
    """Best (sigma_net, beta, eps_en) over the power grid and its zooms.

    Each round ranks its powers on the estimated rate; only the leader and
    its two grid neighbours, the finalists, are evaluated on the exact rate,
    and the best exact finalist so far is the centre of the next zoom.
    """
    grid = np.geomspace(*BETA_BRACKET, BETA_GRID_POINTS)
    step = grid[1] / grid[0]
    best = (-math.inf, None, None)
    for _round in range(1 + BETA_ZOOM_ROUNDS):
        betas = [float(b) for b in grid]
        found = [
            _best_eps_en(g_b, curve.k, b, N_b, eps)
            for g_b, b in zip(curve.estimates(betas), betas)
        ]
        lead = int(np.argmax([sn for sn, _ in found]))
        for i in range(max(0, lead - 1), min(len(betas), lead + 2)):
            found[i] = _best_eps_en(curve.rate(betas[i])[0], curve.k, betas[i], N_b, eps)
            if found[i][0] > best[0]:
                best = (found[i][0], betas[i], found[i][1])
        evaluations.extend((b, sn) for b, (sn, _) in zip(betas, found))
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
    g_b, var_b, j_mid = curve.rate(beta)
    sigma_net, extractor = _sigma_net_at(g_b, curve.k, beta, N_b, eps, eps_en)
    plan.beta_opt = beta
    plan.eps_en_opt = eps_en
    plan.sigma_net = sigma_net
    plan.feasible = bool(sigma_net >= 0)
    if extractor is not None:
        plan.sigma_in = extractor.sigma_in
        plan.g_b = g_b
        plan.var_b = var_b
        plan.j_mid = j_mid
        plan.extractor = extractor
        plan.G_min = threshold_from_sigma(N_b, plan.g_b, plan.var_b, DEFAULT_Z)
        plan.p_succ = success_probability(N_b, plan.g_b, plan.var_b, plan.G_min)
    return plan.feasible, plan


def _asymptotically_feasible(curve: GainCurve, k: int) -> bool:
    """Expansion needs some power, among every third of the first search
    round, whose estimated g_b exceeds the per-block consumption."""
    probe = np.geomspace(*BETA_BRACKET, BETA_GRID_POINTS)[::3]
    return any(g_b > consumed_bits(1, k) for g_b in curve.estimates(probe))


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
            f"estimated block rate never exceeds the {consumed_bits(1, k)} bits consumed per block"
            f" at k={k}"
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
