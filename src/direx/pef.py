"""Probability estimation factors: validity, optimisation, interpolation.

A trial PEF with power ``beta`` for input distribution ``nu_q`` is a
nonnegative table ``F(ab, xy)`` satisfying, at every extreme point ``mu`` of
the trial polytope,

    sum_{ab,xy} nu_q(xy) * mu(ab|xy)^(1+beta) * F(ab,xy) <= 1.

Products of per-trial PEFs over a block witness accumulated randomness: the
block rate is ``E[log2 F]/beta`` summed over positions weighted by the
probability the block reaches them.  At the powers used in practice
(``beta ~ 5e-8``) the optimal ``F`` sits within parts in 1e6 of the constant
table, so this module tracks PEFs in deviation form ``F = 1 + beta * y``
wherever precision matters.

Per-position PEFs for a whole block come from three optimised anchors at
positions ``1 < j_mid < 2^k``; :meth:`PefTable.excess_at` is the one path
that interpolates between them.  Multiplying a PEF for ``nu_q`` by
``4 nu_q(z)`` gives a PEF valid for uniform inputs, and convex combinations
of those are again valid, so the lifted anchors are interpolated linearly in
the spot-check probability ``q`` and divided by the position's own
``4 nu_q(z)``; the weights ``nu_q(z)`` come from :func:`_cell_input_weights`
alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from direx._ipm import PefOptimizationError, PefSolution, solve_trial_pef
from direx.model import (
    ConditionalDistribution,
    InputDistribution,
    PolytopeVertexSet,
    enumerate_extreme_points,
    input_distribution,
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
]

_LN2 = math.log(2.0)

PEF_VALIDITY_TOL = 1e-9


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


def pef_constraints(
    q: float, beta: float, vertices: PolytopeVertexSet | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Constraint system of the PEF inequality in deviation coordinates.

    Returns ``(A, rho)`` with ``A[v, i] = nu_q(z_i) * mu_v(c_i|z_i)^(1+beta)``
    over flat cells ``i`` and ``rho_v = (1 - sum_i A[v, i])/beta`` evaluated
    without cancellation, so that ``F = 1 + beta*y`` is a valid PEF iff
    ``A y <= rho``.  Local-deterministic vertices give ``rho_v = 0`` exactly.
    """
    if vertices is None:
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
    """PEF table for one trial position.

    ``f`` holds the (4, 4) values ``F(ab|xy)`` in the standard layout.  When
    present, the deviation table ``excess = (F - 1)/beta`` carries the full
    working precision.
    """

    f: np.ndarray
    beta: float
    position_q: float
    excess: np.ndarray | None = None

    def __post_init__(self):
        f = np.ascontiguousarray(self.f, dtype=np.float64)
        if f.shape != (4, 4):
            raise ValueError(f"expected a (4, 4) PEF table, got {f.shape}")
        if (f < 0).any():
            raise ValueError("PEF values must be nonnegative")
        if self.beta <= 0:
            raise ValueError("the power beta must be positive")
        f.setflags(write=False)
        object.__setattr__(self, "f", f)
        if self.excess is not None:
            y = np.ascontiguousarray(self.excess, dtype=np.float64)
            y.setflags(write=False)
            object.__setattr__(self, "excess", y)

    @classmethod
    def constant_one(cls, beta: float, q: float) -> "TrialPef":
        return cls.from_excess(np.zeros((4, 4)), beta, q)

    @classmethod
    def from_excess(cls, excess: np.ndarray, beta: float, q: float) -> "TrialPef":
        excess = np.asarray(excess, dtype=np.float64)
        return cls(f=1.0 + beta * excess, beta=beta, position_q=q, excess=excess)

    def flat_outcome_major(self) -> np.ndarray:
        """Flat 16-vector ordered by (ab, xy), outcomes major."""
        return self.f.T.ravel()


def is_valid_pef(
    f: TrialPef,
    q: InputDistribution | float,
    vertices: PolytopeVertexSet | None = None,
    tol: float = PEF_VALIDITY_TOL,
) -> bool:
    """Check the PEF inequality at every extreme point of the polytope."""
    if vertices is None:
        vertices = enumerate_extreme_points()
    qv = q.q if isinstance(q, InputDistribution) else float(q)
    if (f.f < -tol).any():
        return False
    A, rho = pef_constraints(qv, f.beta, vertices)
    if f.excess is not None:
        # constraint in deviation form avoids the 1 +/- 1e-6 cancellation
        return bool((A @ f.excess.ravel() <= rho + tol / f.beta).all())
    lhs = A @ f.f.ravel()
    return bool((lhs <= 1.0 + tol).all())


def optimize_trial_pef(
    nu_h: ConditionalDistribution,
    q: InputDistribution | float,
    beta: float,
    vertices: PolytopeVertexSet | None = None,
    rel_tol: float = 1e-7,
    strict: bool = True,
) -> tuple[TrialPef, float]:
    """Best trial PEF for honest distribution ``nu_h`` at one position.

    Maximises ``E[log2 F]/beta`` under the honest joint distribution
    ``nu_q(z) * nu_h(c|z)`` subject to the PEF inequality at all extreme
    points.  Returns the PEF and its certified gain in bits; the certified
    relative duality gap is at most ``max(rel_tol, 1e-6)`` or
    :class:`PefOptimizationError` is raised.

    Cells with zero honest probability do not enter the objective; they are
    raised afterwards to the largest common value that keeps every vertex
    constraint satisfied, which keeps the output deterministic.
    """
    if vertices is None:
        vertices = enumerate_extreme_points()
    qv = q.q if isinstance(q, InputDistribution) else float(q)
    nu = _cell_input_weights(qv)
    w = nu * nu_h.table.ravel()
    A, rho = pef_constraints(qv, beta, vertices)
    sol: PefSolution = solve_trial_pef(w, A, rho, beta, rel_tol=rel_tol, strict=strict)
    y = sol.excess.copy()

    zero = w == 0
    if zero.any():
        slack = rho - A @ y
        col = A[:, zero].sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(col > 0, slack / np.where(col > 0, col, 1.0), np.inf)
        lift = max(float(ratios.min()), 0.0)
        y[zero] = lift

    pef = TrialPef.from_excess(y.reshape(4, 4), beta, qv)
    return pef, sol.gain_bits


# ---------------------------------------------------------------------------
# per-block tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PefTable:
    """Per-position PEF family for blocks of up to ``2^k`` trials.

    Holds the three optimised anchors (with deviations) at positions 1,
    ``j_mid`` and ``2^k``; :meth:`excess_at` and :meth:`log2_f` give the
    interpolated PEF at any positions.
    """

    k: int
    beta: float
    j_mid: int
    anchors: tuple[TrialPef, TrialPef, TrialPef]

    def __post_init__(self):
        if not 1 < self.j_mid < 2**self.k:
            raise ValueError(f"j_mid={self.j_mid} outside 2..2^{self.k}-1")
        if any(a.excess is None for a in self.anchors):
            raise ValueError("anchors must be PEFs with deviation tables")

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
        j = np.asarray(positions, dtype=np.int64)
        if ((j < 1) | (j > self.n_positions)).any():
            raise ValueError("positions outside 1..2^k")
        q = 1.0 / (self.n_positions - j + 1.0)
        qa = np.array([a.position_q for a in self.anchors])
        ya = np.array([a.excess.ravel() for a in self.anchors])
        sy = _cell_input_weights(qa) * 4.0 * ya
        sq = _cell_input_weights(q) * 4.0
        out = np.empty((j.size, 16))
        for seg, lo in ((q <= qa[1], 0), (q > qa[1], 1)):
            lam = ((qa[lo + 1] - q[seg]) / (qa[lo + 1] - qa[lo]))[:, None]
            out[seg] = (lam * sy[lo] + (1 - lam) * sy[lo + 1]) / sq[seg]
        return out

    def log2_f(self, positions: np.ndarray) -> np.ndarray:
        """``log2 F_j`` per cell for many positions, shape ``(n, 16)``."""
        return np.log1p(self.beta * self.excess_at(positions)) / _LN2

    # --- serialization --------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "k": self.k,
                "beta": self.beta,
                "j_mid": self.j_mid,
                "anchors": [
                    [float(v) for v in a.flat_outcome_major()] for a in self.anchors
                ],
                "anchors_excess": [
                    [float(v) for v in a.excess.T.ravel()] for a in self.anchors
                ],
                "anchor_q": [a.position_q for a in self.anchors],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "PefTable":
        obj = json.loads(text)
        k, beta, j_mid = int(obj["k"]), float(obj["beta"]), int(obj["j_mid"])
        qs = obj.get("anchor_q")
        if qs is None:
            qs = [input_distribution(j, k).q for j in (1, j_mid, 2**k)]
        anchors = []
        if "anchors_excess" in obj:
            for exc, q in zip(obj["anchors_excess"], qs):
                y = np.array(exc, dtype=np.float64).reshape(4, 4).T
                anchors.append(TrialPef.from_excess(y, beta, float(q)))
        else:
            for fvals, q in zip(obj["anchors"], qs):
                f = np.array(fvals, dtype=np.float64).reshape(4, 4).T
                anchors.append(
                    TrialPef.from_excess((f - 1.0) / beta, beta, float(q))
                )
        return cls(k=k, beta=beta, j_mid=j_mid, anchors=tuple(anchors))


@dataclass(frozen=True)
class GainReport:
    """Expected witness rate and variance per block for honest devices."""

    g_block: float
    var_block: float
    beta: float
    k: int
    per_position_gain: np.ndarray | None = None

    def to_json(self) -> str:
        obj = {
            "g_block_bits": self.g_block,
            "var_block_bits2": self.var_block,
            "beta": self.beta,
            "k": self.k,
        }
        if self.per_position_gain is not None:
            obj["per_position_gain"] = [float(v) for v in self.per_position_gain]
        return json.dumps(obj)


def block_gain(
    table: PefTable,
    nu_h: ConditionalDistribution,
    keep_per_position: bool = False,
) -> GainReport:
    """Expected per-block witness rate and variance at ``nu_h``.

    The rate is ``sum_j omega_j E_j[log2 F_j]/beta`` with
    ``omega_j = (2^k - j + 1)/2^k`` the probability the block reaches
    position ``j``.  The variance uses the exact second-moment expansion for
    honest devices: trials are conditionally independent given the inputs
    and every pre-spot trial has settings 00, so cross terms reduce to
    products of conditional means with prefix sums over earlier positions.
    """
    n = table.n_positions
    j = np.arange(1, n + 1, dtype=np.float64)
    q = 1.0 / (n - j + 1.0)
    log2f = table.log2_f(np.arange(1, n + 1))
    w = _cell_input_weights(q) * nu_h.table.ravel()[None, :]
    omega = (n - j + 1.0) / n

    m_j = np.einsum("ji,ji->j", w, log2f)
    s_j = np.einsum("ji,ji->j", w, log2f**2)
    m00 = log2f[:, :4] @ nu_h.table[0]  # E[log2 F_j | z = 00]
    prefix = np.concatenate(([0.0], np.cumsum(m00)[:-1]))

    e1 = float(omega @ m_j)
    e2 = float(omega @ s_j + 2.0 * (omega * m_j) @ prefix)
    beta = table.beta
    g_block = e1 / beta
    var_block = max((e2 - e1 * e1) / beta**2, 0.0)
    per = (m_j / beta) if keep_per_position else None
    return GainReport(
        g_block=g_block,
        var_block=var_block,
        beta=beta,
        k=table.k,
        per_position_gain=per,
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


def _anchor(nu_h, j, k, beta, vertices, rel_tol, strict=True):
    q = input_distribution(j, k)
    pef, gain = optimize_trial_pef(
        nu_h, q, beta, vertices=vertices, rel_tol=rel_tol, strict=strict
    )
    return pef


def _table_gain_estimate(table: PefTable, nu_h, n_samples: int = 2048) -> float:
    """Trapezoid estimate of the block rate on a decimated position grid."""
    n = table.n_positions
    if n <= n_samples:
        return block_gain(table, nu_h).g_block
    pos = np.unique(np.round(np.linspace(1, n, n_samples)).astype(np.int64))
    log2f = table.log2_f(pos)
    q = 1.0 / (n - pos + 1.0)
    w = _cell_input_weights(q) * nu_h.table.ravel()[None, :]
    m_j = np.einsum("ji,ji->j", w, log2f)
    omega = (n - pos + 1.0) / n
    return float(np.trapezoid(omega * m_j, pos) / table.beta)


def build_pef_table(
    nu_h: ConditionalDistribution,
    beta: float,
    k: int,
    j_mid: int | None = None,
    optimize_j_mid: bool = False,
    vertices: PolytopeVertexSet | None = None,
    rel_tol: float = 1e-7,
    strict: bool = True,
) -> PefTable:
    """Optimise anchors and assemble the per-block PEF table.

    When ``j_mid`` is given it is used as the middle anchor position.  With
    ``optimize_j_mid`` a line search (coarse log-spaced grid, then ternary
    refinement, on a decimated rate estimate) picks the position that
    maximises the interpolated block rate.  Without either, ``k == 17``
    falls back to the production value 53478, other ``k`` run the search.
    """
    if k < 2:
        raise ValueError("table construction needs k >= 2 (a middle anchor must exist)")
    if vertices is None:
        vertices = enumerate_extreme_points()
    n = 2**k
    a1 = _anchor(nu_h, 1, k, beta, vertices, rel_tol, strict)
    ak = _anchor(nu_h, n, k, beta, vertices, rel_tol, strict)

    def table_at(jm: int, mid_pef=None) -> PefTable:
        mid = mid_pef or _anchor(nu_h, jm, k, beta, vertices, rel_tol, strict)
        return PefTable(k=k, beta=beta, j_mid=jm, anchors=(a1, mid, ak))

    if j_mid is None and not optimize_j_mid and k == 17:
        j_mid = DEFAULT_J_MID_K17
    if j_mid is not None:
        return table_at(int(j_mid))

    cache: dict[int, float] = {}

    def score(jm: int) -> float:
        jm = int(min(max(jm, 2), n - 1))
        if jm not in cache:
            cache[jm] = _table_gain_estimate(table_at(jm), nu_h)
        return cache[jm]

    grid = np.unique(np.round(np.geomspace(2, n - 1, 25)).astype(np.int64))
    best = int(grid[int(np.argmax([score(int(g)) for g in grid]))])
    gi = int(np.searchsorted(grid, best))
    lo = int(grid[max(0, gi - 1)])
    hi = int(grid[min(len(grid) - 1, gi + 1)])
    while hi - lo > 2:
        m1 = lo + (hi - lo) // 3
        m2 = hi - (hi - lo) // 3
        if score(m1) < score(m2):
            lo = m1
        else:
            hi = m2
    best = max(range(lo, hi + 1), key=lambda jm: (score(jm), -jm))
    return table_at(best)
