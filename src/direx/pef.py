"""Probability estimation factors: validity, optimisation, interpolation.

A trial PEF with power ``beta`` for input distribution ``nu_q`` is a
nonnegative table ``F(ab, xy)`` satisfying, at every extreme point ``mu`` of
the trial polytope,

    sum_{ab,xy} nu_q(xy) * mu(ab|xy)^(1+beta) * F(ab,xy) <= 1.

Products of per-trial PEFs over a block witness accumulated randomness: the
block rate is ``E[log2 F]/beta`` summed over positions weighted by the
probability the block reaches them.  At the powers used in practice
(``beta ~ 5e-8``) the optimal ``F`` sits within parts in 1e6 of the constant
table, so this module holds PEFs in deviation form ``F = 1 + beta * y``
everywhere: a :class:`TrialPef` holds the deviation table ``y`` alone.  The
inequality runs over the 80 vertices of
:func:`direx.model.enumerate_extreme_points`, and every anchor is solved to
the one tolerance ``_ipm.REL_TOL``.

Per-position PEFs for a whole block come from three optimised anchors at
positions ``1 < j_mid < 2^k``; :meth:`PefTable._excess` is the one
interpolation between them, entered by position through
:meth:`PefTable.excess_at` and :meth:`PefTable.log2_f` with
:func:`direx.model.spot_probability`.  Multiplying a PEF for ``nu_q`` by
``4 nu_q(z)`` gives a PEF valid for uniform inputs, and convex combinations
of those are again valid, so the lifted anchors are interpolated linearly in
the spot-check probability ``q`` and divided by the position's own
``4 nu_q(z)``; the weights ``nu_q(z)`` come from :func:`_cell_input_weights`
alone.

:func:`build_pef_tables` builds tables for many powers at once: each power
runs its own middle-anchor line search, and the anchors all searches need
at a step are solved in one batched interior-point call, with results
bit-identical to :func:`build_pef_table` called once per power.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from direx._ipm import (
    PefOptimizationError,
    PefSolution,
    solve_trial_pef,
    solve_trial_pefs,
)
from direx.model import (
    MAX_K,
    ConditionalDistribution,
    enumerate_extreme_points,
    spot_probability,
)

__all__ = [
    "TrialPef",
    "PefTable",
    "GainReport",
    "PefOptimizationError",
    "InvalidRegimeError",
    "pef_constraints",
    "is_valid_pef",
    "optimize_trial_pef",
    "block_gain",
    "entropy_certificate",
    "build_pef_table",
    "build_pef_tables",
]

_LN2 = math.log(2.0)

PEF_VALIDITY_TOL = 1e-9


#: positions interpolated per step; bounds the temporaries of a 2^k table
_ROWS = 1 << 14

#: every flat cell, in the ``cells`` form of :meth:`PefTable._excess`
_ALL_CELLS = np.arange(16)[None]


class InvalidRegimeError(ValueError):
    """Raised when certificate parameters are outside their domain."""


def _cell_input_weights(q) -> np.ndarray:
    """nu_q(z) per flat cell (settings-major), shape ``(..., 16)`` for ``q``.

    ``q`` may be a scalar or an array; this is the only place the input
    weights are built.
    """
    q = np.asarray(q, dtype=np.float64)
    out = np.empty(q.shape + (16,))
    out[..., :4] = (1.0 - 0.75 * q)[..., None]
    out[..., 4:] = (q / 4.0)[..., None]
    return out


def pef_constraints(q: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Constraint system of the PEF inequality in deviation coordinates.

    Returns ``(A, rho)`` with ``A[v, i] = nu_q(z_i) * mu_v(c_i|z_i)^(1+beta)``
    over flat cells ``i`` and ``rho_v = (1 - sum_i A[v, i])/beta`` evaluated
    without cancellation, so that ``F = 1 + beta*y`` is a valid PEF iff
    ``A y <= rho``.  Local-deterministic vertices give ``rho_v = 0`` exactly.
    """
    vertices = enumerate_extreme_points()
    V = vertices.vertices
    nu = _cell_input_weights(q)
    e1 = np.expm1(beta * vertices.log_vertices)  # 0 where mu = 0
    A = nu[None, :] * V * (1.0 + e1)
    # sum_i nu*mu = 1 per vertex, so 1 - sum(A) = -sum(nu*mu*e1) term by term
    rho = -np.einsum("i,vi,vi->v", nu, V, e1) / beta
    return A, rho


@dataclass(frozen=True)
class TrialPef:
    """PEF table for one trial position, in deviation form.

    ``excess`` holds the (4, 4) deviations ``y = (F - 1)/beta`` in the
    standard layout and carries the full working precision; ``f`` is the
    table ``F(ab|xy) = 1 + beta * y`` they stand for.
    """

    excess: np.ndarray
    beta: float
    position_q: float

    def __post_init__(self):
        y = np.ascontiguousarray(self.excess, dtype=np.float64)
        if y.shape != (4, 4) or not 0.0 < self.beta < math.inf:
            raise ValueError(f"expected a (4, 4) table at a power > 0, got {y.shape}, {self.beta}")
        y.setflags(write=False)
        object.__setattr__(self, "excess", y)
        with np.errstate(over="ignore"):
            f = self.f
        if not (np.isfinite(f) & (f >= 0)).all():
            raise ValueError("PEF values must be finite and nonnegative")

    @property
    def f(self) -> np.ndarray:
        return 1.0 + self.beta * self.excess

    @classmethod
    def from_excess(cls, excess: np.ndarray, beta: float, q: float) -> "TrialPef":
        return cls(excess=excess, beta=beta, position_q=q)


def is_valid_pef(f: TrialPef) -> bool:
    """Check the PEF inequality at every extreme point of the polytope, at
    the PEF's own ``position_q`` and to ``PEF_VALIDITY_TOL`` per trial."""
    A, rho = pef_constraints(f.position_q, f.beta)
    # constraint in deviation form avoids the 1 +/- 1e-6 cancellation
    return bool((A @ f.excess.ravel() <= rho + PEF_VALIDITY_TOL / f.beta).all())


def optimize_trial_pef(
    nu_h: ConditionalDistribution,
    q: float,
    beta: float,
    strict: bool = True,
) -> tuple[TrialPef, float]:
    """Best trial PEF for honest distribution ``nu_h`` at one position.

    Maximises ``E[log2 F]/beta`` under the honest joint distribution
    ``nu_q(z) * nu_h(c|z)`` subject to the PEF inequality at all extreme
    points.  Returns the PEF and its certified gain in bits; the certified
    relative duality gap is at most ``max(_ipm.REL_TOL, 1e-6)`` or
    :class:`PefOptimizationError` is raised.

    Cells with zero honest probability do not enter the objective; they are
    raised afterwards to the largest common value that keeps every vertex
    constraint satisfied, which keeps the output deterministic.
    """
    problem = _pef_problem(nu_h, q, beta)
    sol: PefSolution = solve_trial_pef(*problem, strict=strict)
    return _lift_zero_cells(problem, sol, q), sol.gain_bits


def _pef_problem(nu_h, qv: float, beta: float) -> tuple:
    """Objective weights and constraints ``(w, A, rho, beta)`` at one position."""
    w = _cell_input_weights(qv) * nu_h.table.ravel()
    A, rho = pef_constraints(qv, beta)
    return w, A, rho, beta


def _lift_zero_cells(problem, sol: PefSolution, qv: float) -> TrialPef:
    """The solved PEF with its zero-weight cells raised as far as valid."""
    w, A, rho, beta = problem
    y = sol.excess.copy()
    zero = w == 0
    if zero.any():
        slack = rho - A @ y
        col = A[:, zero].sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(col > 0, slack / np.where(col > 0, col, 1.0), np.inf)
        lift = max(float(ratios.min()), 0.0)
        y[zero] = lift
    return TrialPef.from_excess(y.reshape(4, 4), beta, qv)


# ---------------------------------------------------------------------------
# per-block tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PefTable:
    """Per-position PEF family for blocks of up to ``2^k`` trials.

    Holds the three optimised anchors at positions 1, ``j_mid`` and ``2^k``,
    each at its position's ``q``; :meth:`excess_at` and :meth:`log2_f` give
    the interpolated PEF at any positions.
    """

    k: int
    beta: float
    j_mid: int
    anchors: tuple[TrialPef, TrialPef, TrialPef]

    def __post_init__(self):
        qs = _anchor_qs(self.k, self.j_mid)
        if [a.position_q for a in self.anchors] != qs:
            raise ValueError(f"anchors must be PEFs for positions (1, {self.j_mid}, 2^{self.k})")

    @property
    def n_positions(self) -> int:
        return 2**self.k

    def excess_at(self, positions: np.ndarray) -> np.ndarray:
        """Deviation tables ``(F - 1)/beta`` for many positions at once.

        Returns an ``(n, 16)`` array over flat cells.  With the lift
        ``s(q) = 4 nu_q(z)`` and anchors ``(q', y')``, ``(q'', y'')`` enclosing
        ``q_j``, the lifted interpolant ``lam s'(1 + beta y') + (1 - lam)
        s''(1 + beta y'')`` divided by ``s(q_j)`` is ``1 + beta * (lam s' y' +
        (1 - lam) s'' y'') / s(q_j)``, because ``s`` is linear in ``q``.
        """
        return self._excess(spot_probability(positions, self.k))

    def _excess(self, q: np.ndarray, cells: np.ndarray = _ALL_CELLS) -> np.ndarray:
        """:meth:`excess_at` at spot-check probabilities ``q``.

        ``cells``, a ``(1, c)`` index array, keeps the same ``c`` flat cells
        of every row.  The result is stored cell-major, so that every
        operation runs along the positions, and each entry takes the same
        arithmetic whichever cells are kept.
        """
        q = np.ravel(q)
        if q.size > 1 and (q[1:] < q[:-1]).any():
            order = np.argsort(q, kind="stable")
            out = np.empty((q.size, cells.shape[1]))
            out[order] = self._excess(q[order], cells)
            return out
        qa = np.array([a.position_q for a in self.anchors])
        ya = np.array([a.excess.ravel() for a in self.anchors])
        sy = _cell_input_weights(qa) * 4.0 * ya
        out = np.empty((cells.shape[1], q.size)).T
        # q rises with the position, so the anchor segments are slices; they
        # are filled in place, a bounded run of rows at a time
        split = int(np.searchsorted(q, qa[1], side="right"))
        bounds = sorted({0, split, q.size} | set(range(0, q.size, _ROWS)))
        # each cell's lift is one of two per row: 4 (1 - 0.75 q) for
        # settings 00, and (q / 4) * 4 = q for the others
        is00 = (cells[0] < 4).tolist()
        for a, b in zip(bounds[:-1], bounds[1:]):
            lo = 0 if b <= split else 1
            qs = q[a:b]
            lam = (qa[lo + 1] - qs) / (qa[lo + 1] - qa[lo])
            o = out[a:b].T
            np.multiply(lam, sy[lo][cells.T], out=o)
            o += (1 - lam) * sy[lo + 1][cells.T]
            lift00 = (1.0 - 0.75 * qs) * 4.0
            for row, s00 in zip(o, is00):
                row /= lift00 if s00 else qs
        return out

    def log2_f(self, positions: np.ndarray, cells: np.ndarray = _ALL_CELLS) -> np.ndarray:
        """``log2 F_j`` per cell for many positions, shape ``(n, 16)``.

        ``cells`` keeps only some cells, as in :meth:`_excess`; the shape is
        then ``(n, c)``.
        """
        out = self._excess(spot_probability(positions, self.k), cells)
        out *= self.beta
        np.log1p(out, out=out)
        out /= _LN2
        return out

    # --- serialization --------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "k": self.k,
                "beta": self.beta,
                "j_mid": self.j_mid,
                "anchors": [[float(v) for v in a.f.T.ravel()] for a in self.anchors],
                "anchors_excess": [
                    [float(v) for v in a.excess.T.ravel()] for a in self.anchors
                ],
                "anchor_q": [a.position_q for a in self.anchors],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "PefTable":
        """The table :meth:`to_json` wrote, or one without ``anchors_excess``
        (deviations then come from the ``F`` values) or ``anchor_q``; any
        other shape raises ``ValueError``."""
        try:
            obj = json.loads(text)
            key = "anchors_excess" if "anchors_excess" in obj else "anchors"
            k, j_mid = operator.index(obj["k"]), operator.index(obj["j_mid"])
            beta = float(obj["beta"])
            y = np.array(obj[key], dtype=np.float64)
            qs = [float(q) for q in obj["anchor_q"]] if "anchor_q" in obj else _anchor_qs(k, j_mid)
        except (KeyError, TypeError, OverflowError, RecursionError) as e:
            raise ValueError(f"malformed PEF table ({type(e).__name__}: {e})") from None
        if y.shape != (3, 16) or len(qs) != 3:
            raise ValueError(f"{key!r} must be 3 anchors of 16 numbers, 'anchor_q' 3 numbers")
        y = y.reshape(3, 4, 4).transpose(0, 2, 1)
        if key == "anchors":
            with np.errstate(all="ignore"):
                y = (y - 1.0) / beta
        anchors = tuple(TrialPef.from_excess(ya, beta, q) for ya, q in zip(y, qs))
        return cls(k=k, beta=beta, j_mid=j_mid, anchors=anchors)


def _anchor_qs(k: int, j_mid: int) -> list[float]:
    """Spot-check probabilities of the anchor positions 1, ``j_mid`` and ``2^k``."""
    if not (2 <= k <= MAX_K and 1 < j_mid < 2**k):
        raise ValueError(f"need 2 <= k <= {MAX_K} and 1 < j_mid < 2^k, got k={k}, j_mid={j_mid}")
    return [spot_probability(j, k) for j in (1, j_mid, 2**k)]


@dataclass(frozen=True)
class GainReport:
    """Expected witness rate and variance per block for honest devices."""

    g_block: float
    var_block: float
    beta: float
    k: int

    def to_json(self) -> str:
        obj = {
            "g_block_bits": self.g_block,
            "var_block_bits2": self.var_block,
            "beta": self.beta,
            "k": self.k,
        }
        return json.dumps(obj)


def block_gain(table: PefTable, nu_h: ConditionalDistribution) -> GainReport:
    """Expected per-block witness rate and variance at ``nu_h``.

    The rate is ``sum_j omega_j E_j[log2 F_j]/beta`` with
    ``omega_j = (2^k - j + 1)/2^k`` the probability the block reaches
    position ``j``.  The variance uses the exact second-moment expansion for
    honest devices: trials are conditionally independent given the inputs
    and every pre-spot trial has settings 00, so cross terms reduce to
    products of conditional means with prefix sums over earlier positions.
    """
    n = table.n_positions
    j = np.arange(1, n + 1)
    q = spot_probability(j, table.k)
    omega = (n - j + 1.0) / n
    m_j, m00, s_j = np.empty(n), np.empty(n), np.empty(n)
    # moments over bounded runs of rows: no (2^k, 16) temporaries at k=17
    for a in range(0, n, _ROWS):
        rows = slice(a, a + _ROWS)
        w = _cell_input_weights(q[rows])
        # row-major, so that each moment sums its 16 cells in the same order
        # as over a full (2^k, 16) table
        log2f = np.ascontiguousarray(table.log2_f(j[rows]))
        w *= nu_h.table.ravel()[None, :]
        m_j[rows] = np.einsum("ji,ji->j", w, log2f)
        m00[rows] = log2f[:, :4] @ nu_h.table[0]  # E[log2 F_j | z = 00]
        s_j[rows] = np.einsum("ji,ji->j", w, np.square(log2f, out=log2f))
    prefix = np.concatenate(([0.0], np.cumsum(m00)[:-1]))

    e1 = float(omega @ m_j)
    e2 = float(omega @ s_j + 2.0 * (omega * m_j) @ prefix)
    beta = table.beta
    g_block = e1 / beta
    var_block = max((e2 - e1 * e1) / beta**2, 0.0)
    return GainReport(
        g_block=g_block,
        var_block=var_block,
        beta=beta,
        k=table.k,
    )


def entropy_certificate(
    log2_T: float, beta: float, eps_s: float, kappa: float
) -> float:
    """Smooth min-entropy certified by an achieved PEF product.

    Solves ``log2 T = -beta*log2(p) - log2(eps_s)`` for the guessing
    probability level ``p`` and returns the bound
    ``-log2(p) + ((1+beta)/beta) * log2(kappa)`` in bits, where ``kappa``
    lower-bounds the probability of the success event.  A nonpositive
    return means nothing is certified at these parameters.
    """
    if beta <= 0:
        raise InvalidRegimeError("beta must be positive")
    if not 0.0 < eps_s <= 1.0:
        raise InvalidRegimeError(f"eps_s must be in (0, 1], got {eps_s}")
    if not 0.0 < kappa <= 1.0:
        raise InvalidRegimeError(f"kappa must be in (0, 1], got {kappa}")
    minus_log2_p = (log2_T + math.log2(eps_s)) / beta
    return minus_log2_p + (1.0 + beta) / beta * math.log2(kappa)


# ---------------------------------------------------------------------------
# table construction
# ---------------------------------------------------------------------------

DEFAULT_J_MID_K17 = 53_478

#: anchor problems per batched interior-point call; larger stacks gain no
#: speed and only hold more memory
ANCHOR_BATCH = 128

#: positions on the decimated grid of the middle-anchor search's rate estimate
_GRID_SAMPLES = 2048


@functools.lru_cache(maxsize=8)
def _sample_grid(k: int) -> tuple[np.ndarray, ...]:
    """Decimated positions of a ``2^k`` block with their ``nu_q`` and reach."""
    n = 2**k
    pos = np.unique(np.round(np.linspace(1, n, _GRID_SAMPLES)).astype(np.int64))
    nu = _cell_input_weights(spot_probability(pos, k))
    grid = (pos, nu, (n - pos + 1.0) / n)
    for a in grid:
        a.setflags(write=False)
    return grid


def _table_gain_estimate(table: PefTable, nu_h) -> float:
    """Trapezoid estimate of the block rate on a decimated position grid."""
    if table.n_positions <= _GRID_SAMPLES:
        return block_gain(table, nu_h).g_block
    pos, nu, omega = _sample_grid(table.k)
    log2f = np.ascontiguousarray(table.log2_f(pos))
    w = nu * nu_h.table.ravel()[None, :]
    m_j = np.einsum("ji,ji->j", w, log2f)
    return float(np.trapezoid(omega * m_j, pos) / table.beta)


def _j_mid_search(n: int, scores: dict[int, float]):
    """Line search for the middle anchor, as a generator.

    Yields the positions whose scores it needs next and reads them from
    ``scores`` once resumed; returns the chosen position.  The grid is
    log-spaced, then a Fibonacci (golden-section) refinement runs on the
    bracket of the best grid point, and ties at the end break toward the
    smaller position.  The bracket is padded to a Fibonacci length with
    positions that score ``-inf`` and are never solved, so each step keeps
    its surviving interior point and asks for one new position (Kiefer,
    "Sequential minimax search for a maximum", Proc. AMS 4, 1953).
    """

    def clamp(jm) -> int:
        return int(min(max(int(jm), 2), n - 1))

    def score(jm) -> float:
        return scores[clamp(jm)]

    grid = np.unique(np.round(np.geomspace(2, n - 1, 25)).astype(np.int64))
    yield [clamp(g) for g in grid]
    best = int(grid[int(np.argmax([score(int(g)) for g in grid]))])
    gi = int(np.searchsorted(grid, best))
    lo = int(grid[max(0, gi - 1)])
    hi = int(grid[min(len(grid) - 1, gi + 1)])
    fib = [1, 2]
    while fib[-1] < hi - lo:
        fib.append(fib[-1] + fib[-2])
    # [lo, lo + fib[f]] covers the bracket; its interior points are
    # lo + fib[f - 2] and lo + fib[f - 1]
    f = len(fib) - 1
    while f >= 2:
        m1, m2 = lo + fib[f - 2], lo + fib[f - 1]
        yield [clamp(m) for m in (m1, m2) if m <= hi]
        s1 = score(m1) if m1 <= hi else -math.inf
        s2 = score(m2) if m2 <= hi else -math.inf
        if s1 < s2:
            lo = m1
        f -= 1
    hi = min(hi, lo + fib[f])
    yield [clamp(jm) for jm in range(lo, hi + 1)]
    return max(range(lo, hi + 1), key=lambda jm: (score(jm), -jm))


def build_pef_table(
    nu_h: ConditionalDistribution,
    beta: float,
    k: int,
    j_mid: int | None = None,
    optimize_j_mid: bool = False,
    strict: bool = True,
) -> PefTable:
    """Optimise anchors and assemble the per-block PEF table.

    When ``j_mid`` is given it is used as the middle anchor position.  With
    ``optimize_j_mid`` a line search (coarse log-spaced grid, then Fibonacci
    refinement, on a decimated rate estimate) picks the position that
    maximises the interpolated block rate.  Without either, ``k == 17``
    falls back to the production value 53478, other ``k`` run the search.
    This is :func:`build_pef_tables` for one power.
    """
    return build_pef_tables(nu_h, [beta], k, j_mid, optimize_j_mid, strict)[0]


def build_pef_tables(
    nu_h: ConditionalDistribution,
    betas,
    k: int,
    j_mid: int | None = None,
    optimize_j_mid: bool = False,
    strict: bool = True,
) -> list[PefTable]:
    """:func:`build_pef_table` for many powers, one table per power.

    Every power runs its own middle-anchor search, step for step as if
    built alone; the anchors all searches need next are solved together
    in one batched interior-point call per step.
    """
    return [table for table, _ in _built_tables(nu_h, betas, k, j_mid, optimize_j_mid, strict)]


def _built_tables(nu_h, betas, k, j_mid, optimize_j_mid, strict):
    """:func:`build_pef_tables`, each table paired with the decimated rate
    estimate (:func:`_table_gain_estimate`) the middle-anchor search scored
    it by, or ``None`` when the middle anchor was fixed."""
    if k < 2:
        raise ValueError("table construction needs k >= 2 (a middle anchor must exist)")
    n = 2**k
    betas = [float(b) for b in betas]
    for beta in betas:
        if not 0.0 < beta < math.inf:
            raise ValueError(f"beta must be finite and > 0, got {beta}")
    anchors: list[dict[int, TrialPef]] = [{} for _ in betas]

    def solve(wanted: dict[int, list[int]]) -> None:
        jobs = [
            (i, j) for i, js in wanted.items() for j in dict.fromkeys(js)
            if j not in anchors[i]
        ]
        for at in range(0, len(jobs), ANCHOR_BATCH):
            batch = jobs[at : at + ANCHOR_BATCH]
            qs = [spot_probability(j, k) for _, j in batch]
            problems = [_pef_problem(nu_h, q, betas[i]) for (i, _), q in zip(batch, qs)]
            sols = solve_trial_pefs(problems, strict=strict)
            for (i, j), problem, sol, q in zip(batch, problems, sols, qs):
                anchors[i][j] = _lift_zero_cells(problem, sol, q)

    def table(i: int, jm: int) -> PefTable:
        a = anchors[i]
        return PefTable(k=k, beta=betas[i], j_mid=jm, anchors=(a[1], a[jm], a[n]))

    if j_mid is None and not optimize_j_mid and k == 17:
        j_mid = DEFAULT_J_MID_K17
    if j_mid is not None:
        solve({i: [1, n, int(j_mid)] for i in range(len(betas))})
        return [(table(i, int(j_mid)), None) for i in range(len(betas))]

    scores: list[dict[int, float]] = [{} for _ in betas]
    searches = {i: _j_mid_search(n, scores[i]) for i in range(len(betas))}
    wanted = {i: [1, n] + next(s) for i, s in searches.items()}
    best: dict[int, int] = {}
    while wanted:
        solve(wanted)
        for i, js in wanted.items():
            for jm in js:
                if jm not in scores[i] and jm not in (1, n):
                    scores[i][jm] = _table_gain_estimate(table(i, jm), nu_h)
        wanted = {}
        for i, s in searches.items():
            if i in best:
                continue
            try:
                wanted[i] = next(s)
            except StopIteration as done:
                best[i] = done.value
    return [(table(i, best[i]), scores[i][best[i]]) for i in range(len(betas))]
