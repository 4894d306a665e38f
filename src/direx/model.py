"""CHSH trial model: distributions, the Tsirelson-bounded polytope, fitting.

The scenario is the standard two-party, two-setting, two-outcome Bell trial.
Settings pairs ``(x, y)`` and outcome pairs ``(a, b)`` are binary.  A trial is
summarised by the settings-conditional outcome distribution ``p(ab|xy)``, a
table of 16 probabilities.  The admissible set is the convex polytope of
tables that are non-signaling and respect Tsirelson's bounds on all eight
CHSH combinations; it has exactly 80 extreme points, 16 of which are the
local-deterministic strategies, and they are built in closed form.

Canonical layout used throughout the package:

* pair index ``first + 2*second``, giving the order 00, 10, 01, 11 for both
  settings and outcomes;
* tables are ``(4, 4)`` arrays indexed ``[settings, outcomes]``;
* flat 16-vectors are row-major ravels of such tables (settings-major).
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TSIRELSON_BOUND",
    "PAIR_ORDER",
    "ConditionalDistribution",
    "CountsTable",
    "PolytopeVertexSet",
    "MleConvergenceError",
    "enumerate_extreme_points",
    "is_member_T",
    "fit_mle",
    "statistical_strength",
    "spot_probability",
]

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

#: canonical order of binary pairs: index = first + 2 * second
PAIR_ORDER: tuple[tuple[int, int], ...] = ((0, 0), (1, 0), (0, 1), (1, 1))

NORMALIZATION_TOL = 1e-12
MEMBERSHIP_TOL = 1e-9

#: certified relative gaps that :func:`fit_mle` and
#: :func:`statistical_strength` must reach, and the Newton steps each may take
FIT_REL_TOL = 1e-10
STRENGTH_REL_TOL = 1e-3
MAX_NEWTON_STEPS = 500

#: largest block-length exponent: ``.blocks`` files store lengths as u32
MAX_K = 31

_LN2 = math.log(2.0)


def pair_index(first: int, second: int) -> int:
    """Index of a binary pair in the canonical 00, 10, 01, 11 order."""
    return first + 2 * second


class MleConvergenceError(RuntimeError):
    """Raised when the likelihood maximiser fails to converge.

    Carries the best iterate found so far in ``best`` and the certified
    optimality gap in ``gap``.
    """

    def __init__(self, message: str, best: "ConditionalDistribution", gap: float):
        super().__init__(message)
        self.best = best
        self.gap = gap


_INT64_MAX = 2**63 - 1


def _csv_cells(text: str) -> dict[tuple[int, int], str]:
    """The value field of each ``x,y,a,b,<value>`` CSV row, by table cell.

    Labels must be 0 or 1 and no cell may repeat; anything else malformed
    raises ``ValueError``.
    """
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as e:
        raise ValueError(f"malformed CSV: {e}") from None
    header = [h.strip() for h in rows[0]] if rows else []
    if len(header) < 5 or header[:4] != ["x", "y", "a", "b"]:
        raise ValueError("expected header x,y,a,b,<value>")
    cells: dict[tuple[int, int], str] = {}
    for n, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) < 5:
            raise ValueError(f"row {n}: expected x,y,a,b,<value>")
        x, y, a, b = (int(v) for v in row[:4])
        if not {x, y, a, b} <= {0, 1}:
            raise ValueError(f"row {n}: labels must be 0 or 1")
        cell = (pair_index(x, y), pair_index(a, b))
        if cell in cells:
            raise ValueError(f"row {n}: repeated cell x={x},y={y},a={a},b={b}")
        cells[cell] = row[4]
    return cells


def _json_table(text: str, key: str) -> list:
    """The 4x4 array of numbers under ``key`` in a JSON object."""
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"expected a JSON object with key {key!r}")
    rows = obj[key]
    if not (
        isinstance(rows, list)
        and len(rows) == 4
        and all(isinstance(r, list) and len(r) == 4 for r in rows)
    ):
        raise ValueError(f"{key!r} must be a 4x4 array")
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for r in rows for v in r):
        raise ValueError(f"{key!r} entries must be numbers")
    return rows


def _count(v: int | float) -> int:
    """A count as a Python int in int64 range, or ``ValueError``."""
    if isinstance(v, float) and not v.is_integer():
        raise ValueError(f"counts must be nonnegative integers, got {v}")
    if not 0 <= v <= _INT64_MAX:
        raise ValueError(f"counts must lie in 0..2^63-1, got {v}")
    return int(v)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ConditionalDistribution:
    """Settings-conditional outcome table ``p(ab|xy)``.

    ``table[s, o]`` holds ``p(ab|xy)`` with ``s = x + 2y`` and ``o = a + 2b``.
    Each row must be a probability distribution over the four outcomes.
    """

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.float64)
        if t.shape != (4, 4):
            raise ValueError(f"expected a (4, 4) table, got shape {t.shape}")
        if not np.isfinite(t).all():
            raise ValueError("probabilities must be finite")
        if (t < -NORMALIZATION_TOL).any():
            raise ValueError("probabilities must be nonnegative")
        sums = t.sum(axis=1)
        if np.abs(sums - 1.0).max() > 1e-9:
            raise ValueError(f"settings rows must each sum to 1, got {sums}")
        t = np.clip(t, 0.0, None)
        # forgive rounding up to 1e-9 on input, but store rows inside the
        # 1e-12 type tolerance; rows already there are kept bit-identical
        sums = t.sum(axis=1)
        off = np.abs(sums - 1.0) > 1e-13
        if off.any():
            t = t.copy()
            t[off] /= sums[off, None]
        object.__setattr__(self, "table", _freeze(t))

    def prob(self, a: int, b: int, x: int, y: int) -> float:
        return float(self.table[pair_index(x, y), pair_index(a, b)])

    def flat(self) -> np.ndarray:
        """Flat 16-vector in settings-major canonical order."""
        return self.table.ravel()

    def correlators(self) -> np.ndarray:
        """E(xy) = sum_ab (-1)^(a+b) p(ab|xy), indexed by settings."""
        signs = np.array([(-1.0) ** (a + b) for a, b in PAIR_ORDER])
        return self.table @ signs

    def chsh_values(self) -> np.ndarray:
        """All eight signed CHSH combinations of the four correlators."""
        return _chsh_sign_matrix() @ self.correlators()

    def __eq__(self, other):
        if not isinstance(other, ConditionalDistribution):
            return NotImplemented
        return bool(np.array_equal(self.table, other.table))

    def __hash__(self):
        return hash(self.table.tobytes())

    # --- serialization -------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"p": [list(map(float, row)) for row in self.table]})

    @classmethod
    def from_json(cls, text: str) -> "ConditionalDistribution":
        rows = _json_table(text, "p")
        try:
            return cls(np.array(rows, dtype=np.float64))
        except OverflowError as e:
            raise ValueError(f"probability out of range: {e}") from None

    def to_csv(self) -> str:
        buf = io.StringIO()
        wr = csv.writer(buf)
        wr.writerow(["x", "y", "a", "b", "p"])
        for x, y in PAIR_ORDER:
            for a, b in PAIR_ORDER:
                wr.writerow([x, y, a, b, repr(self.prob(a, b, x, y))])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "ConditionalDistribution":
        t = np.zeros((4, 4))
        for cell, value in _csv_cells(text).items():
            t[cell] = float(value)
        return cls(t)


@dataclass(frozen=True)
class CountsTable:
    """Observed trial counts ``n(ab, xy)`` with the same layout as tables."""

    counts: np.ndarray
    total: int = field(init=False)

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.shape != (4, 4):
            raise ValueError(f"expected a (4, 4) counts table, got {c.shape}")
        if (c < 0).any() or not np.equal(np.mod(c, 1), 0).all():
            raise ValueError("counts must be nonnegative integers")
        if sum(int(v) for v in c.ravel()) > _INT64_MAX:
            raise ValueError("counts must total at most 2^63 - 1")
        c = np.ascontiguousarray(c, dtype=np.int64)
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "total", int(c.sum()))

    def count(self, a: int, b: int, x: int, y: int) -> int:
        return int(self.counts[pair_index(x, y), pair_index(a, b)])

    def __eq__(self, other):
        if not isinstance(other, CountsTable):
            return NotImplemented
        return bool(np.array_equal(self.counts, other.counts))

    def __hash__(self):
        return hash(self.counts.tobytes())

    def setting_totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def to_json(self) -> str:
        return json.dumps(
            {"counts": [[int(v) for v in row] for row in self.counts]}
        )

    @classmethod
    def from_json(cls, text: str) -> "CountsTable":
        rows = _json_table(text, "counts")
        return cls(np.array([[_count(v) for v in row] for row in rows], dtype=np.int64))

    def to_csv(self) -> str:
        buf = io.StringIO()
        wr = csv.writer(buf)
        wr.writerow(["x", "y", "a", "b", "count"])
        for x, y in PAIR_ORDER:
            for a, b in PAIR_ORDER:
                wr.writerow([x, y, a, b, self.count(a, b, x, y)])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "CountsTable":
        c = np.zeros((4, 4), dtype=np.int64)
        for cell, value in _csv_cells(text).items():
            c[cell] = _count(int(value))
        return cls(c)


def spot_probability(j, k: int):
    """Probability ``q_j = 1/(2^k - j + 1)`` that position ``j`` is a block's
    spot check, for blocks of length uniform on ``1..2^k``.

    Position ``j`` takes the settings ``nu_q(00) = 1 - 3q/4`` and
    ``nu_q(z) = q/4`` for the other three.  ``j`` is a position or an
    integer array of positions in ``1..2^k``; a position gives a float, an
    array a float64 array.  This is the only place the law is written.
    """
    if not 0 <= k <= MAX_K:
        raise ValueError(f"k must lie in 0..{MAX_K}, got {k}")
    j = np.asarray(j)
    if j.dtype.kind not in "iu":
        raise TypeError(f"positions must be integers, got {j.dtype}")
    n = 2**k
    if ((j < 1) | (j > n)).any():
        raise ValueError(f"positions outside 1..2^{k}")
    q = 1.0 / (n - j.astype(np.int64, copy=False) + 1.0)
    return float(q) if q.ndim == 0 else q


# ---------------------------------------------------------------------------
# polytope geometry
# ---------------------------------------------------------------------------


def _chsh_sign_matrix() -> np.ndarray:
    """The 8 sign patterns (odd number of minus signs) over the correlators."""
    rows = [
        s
        for s in itertools.product((1.0, -1.0), repeat=4)
        if s[0] * s[1] * s[2] * s[3] == -1.0
    ]
    return np.array(rows)


def _equality_system() -> tuple[np.ndarray, np.ndarray]:
    """Normalisation and non-signaling equalities on the flat 16-vector."""
    rows, rhs = [], []
    for s in range(4):
        row = np.zeros(16)
        row[4 * s : 4 * s + 4] = 1.0
        rows.append(row)
        rhs.append(1.0)
    # Alice's marginal must not depend on y, Bob's must not depend on x.
    for a in (0, 1):
        for x in (0, 1):
            row = np.zeros(16)
            for b in (0, 1):
                row[4 * pair_index(x, 0) + pair_index(a, b)] += 1.0
                row[4 * pair_index(x, 1) + pair_index(a, b)] -= 1.0
            rows.append(row)
            rhs.append(0.0)
    for b in (0, 1):
        for y in (0, 1):
            row = np.zeros(16)
            for a in (0, 1):
                row[4 * pair_index(0, y) + pair_index(a, b)] += 1.0
                row[4 * pair_index(1, y) + pair_index(a, b)] -= 1.0
            rows.append(row)
            rhs.append(0.0)
    return np.array(rows), np.array(rhs)


@dataclass(frozen=True)
class PolytopeVertexSet:
    """Extreme points of the non-signaling, Tsirelson-bounded polytope.

    ``vertices`` has shape (80, 16) in the canonical flat layout and
    canonical (lexicographic) order.  ``deterministic_mask`` flags the 16
    local-deterministic strategies, whose convex hull is the local-realistic
    polytope.  ``log_vertices`` holds ``log(mu)`` per cell, with 0 where
    ``mu = 0`` (so that ``mu^(1+beta) = mu * exp(beta * log_vertices)``).
    """

    vertices: np.ndarray
    deterministic_mask: np.ndarray
    log_vertices: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        V = _freeze(self.vertices)
        object.__setattr__(self, "vertices", V)
        m = np.asarray(self.deterministic_mask, dtype=bool).copy()
        m.setflags(write=False)
        object.__setattr__(self, "deterministic_mask", m)
        with np.errstate(divide="ignore"):
            log_v = np.where(V > 0, np.log(np.where(V > 0, V, 1.0)), 0.0)
        object.__setattr__(self, "log_vertices", _freeze(log_v))

    def __len__(self) -> int:
        return self.vertices.shape[0]

    @property
    def lr_vertices(self) -> np.ndarray:
        """The 16 local-deterministic tables, shape (16, 16) flat."""
        return self.vertices[self.deterministic_mask]

    def distributions(self) -> list[ConditionalDistribution]:
        return [ConditionalDistribution(v.reshape(4, 4)) for v in self.vertices]


def _closed_form_vertices() -> PolytopeVertexSet:
    """The 80 extreme points in closed form (Barrett et al., quant-ph/0404097).

    The 16 local-deterministic tables ``a = a_x``, ``b = b_y``; and for each
    of the 8 PR boxes ``a xor b = xy xor alpha x xor beta y xor gamma`` and
    each of the 8 deterministic tables that obey its relation at three of
    the four settings, ``(sqrt2 - 1) PR + (2 - sqrt2) LD``, which takes the
    box's CHSH form to Tsirelson's bound.
    """
    x, y = np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1])  # settings s = x + 2y
    strategies = np.array(list(itertools.product((0, 1), repeat=4)))  # a0 a1 b0 b1
    a, b = strategies[:, x], strategies[:, 2 + y]  # outputs per setting, (16, 4)
    ld = np.zeros((16, 4, 4))
    ld[np.arange(16)[:, None], np.arange(4), a + 2 * b] = 1.0
    triples = np.array(list(itertools.product((0, 1), repeat=3)))[:, :, None]
    rel = (x * y) ^ (triples[:, 0] * x) ^ (triples[:, 1] * y) ^ triples[:, 2]  # (8, 4)
    pr = np.zeros((8, 4, 4))
    for out_a in (0, 1):
        pr[np.arange(8)[:, None], np.arange(4), out_a + 2 * (out_a ^ rel)] = 0.5
    box, det = np.nonzero(((a ^ b)[None] == rel[:, None]).sum(axis=2) == 3)
    mixed = (math.sqrt(2.0) - 1.0) * pr[box] + (2.0 - math.sqrt(2.0)) * ld[det]
    X = np.vstack([ld.reshape(16, 16), mixed.reshape(-1, 16)])
    X = X[np.lexsort(np.round(X, 12).T[::-1])]
    deterministic = ((X == 0.0) | (X == 1.0)).all(axis=1)
    return PolytopeVertexSet(vertices=X, deterministic_mask=deterministic)


_VERTICES = _closed_form_vertices()


def enumerate_extreme_points() -> PolytopeVertexSet:
    """Vertex set of the trial polytope (built once, at import)."""
    return _VERTICES


def is_member_T(d: ConditionalDistribution) -> bool:
    """Whether ``d`` is non-signaling and within Tsirelson's bounds, to
    ``MEMBERSHIP_TOL``."""
    t = d.table
    if (t < -MEMBERSHIP_TOL).any():
        return False
    E, f = _equality_system()
    if (np.abs(E @ t.ravel() - f) > MEMBERSHIP_TOL).any():
        return False
    return bool(d.chsh_values().max() <= TSIRELSON_BOUND + MEMBERSHIP_TOL)


# ---------------------------------------------------------------------------
# likelihood maximisation over the polytope
# ---------------------------------------------------------------------------


@functools.cache
def _barrier_system() -> tuple[np.ndarray, np.ndarray]:
    """``(E8, C)`` for the barrier solver, built on first use.

    ``E8`` holds 8 linearly independent rows of :func:`_equality_system`
    (the four normalisations, Alice's and Bob's no-signaling for outcome 0)
    with the same solutions, and ``C`` the 8 CHSH rows acting on flat
    16-vectors, so that ``C @ d.flat() == d.chsh_values()``.
    """
    E, _ = _equality_system()
    parity = np.array([(-1.0) ** (a + b) for a, b in PAIR_ORDER])
    C = (_chsh_sign_matrix()[:, :, None] * parity).reshape(8, 16)
    return E[[0, 1, 2, 3, 4, 5, 8, 9]], C


def _maximize_loglik(
    w: np.ndarray,
    bound: float,
    vertices: np.ndarray,
    scale,
    rel_tol: float,
) -> tuple[np.ndarray, float, float]:
    """Maximise ``sum_i w_i log(mu_i)`` over the polytope with CHSH ``bound``.

    The polytope is ``{E mu = f, mu >= 0, C mu <= bound}`` with ``vertices``
    its extreme points: Tsirelson's bound and the 80 vertices for the trial
    polytope, 2 and the 16 deterministic tables for the local one.  The
    row-normalised weights maximise the objective over all tables, so when
    they lie in the polytope they are the answer.  Otherwise damped Newton
    steps follow the central path of the barrier ``t sum w log mu + sum log
    mu + sum log(bound - C mu)`` on the equalities' null space, starting
    from the uniform table at ``t = 1``; ``t`` grows tenfold after every
    full step (Newton decrement at most 1/4).  Each step is solved in the
    scaled variables ``u = dmu sqrt(t w + 1) / mu``, where the positivity
    part of the Hessian is the identity, so that a cell far below 1 keeps
    its relative accuracy at large ``t``; the CHSH slacks ``bound - C mu``
    are carried along with ``mu`` for the same reason.

    Every iterate is certified by the Frank-Wolfe gap ``max(vertices @
    (w/mu)) - 1``, an upper bound on the objective's shortfall from the
    maximum; the first iterate whose gap relative to ``max(scale(obj),
    1e-12)`` is at most ``rel_tol`` is returned as ``(mu, obj, rel_gap)``.
    Raises :class:`MleConvergenceError` with the best-certified iterate if
    none is within ``MAX_NEWTON_STEPS`` Newton steps, or the Newton system
    breaks down.
    """
    E8, C = _barrier_system()
    E, f = _equality_system()
    support = w > 0
    rows = w.reshape(4, 4)
    mu = (rows / rows.sum(axis=1, keepdims=True)).ravel()
    if (np.abs(E @ mu - f) > NORMALIZATION_TOL).any() or (
        C @ mu > bound + NORMALIZATION_TOL
    ).any():
        mu = np.full(16, 0.25)
    t = 1.0
    s = bound - C @ mu
    best = (math.inf, math.inf, mu)
    for it in range(MAX_NEWTON_STEPS + 1):
        obj = float(np.dot(w[support], np.log(mu[support])))
        g = np.divide(w, mu, out=np.zeros(16), where=support)
        # max(vertices @ g) - 1, as sum(mu * g) = sum(w) = 1, summed term
        # by term so that gaps far below 1e-16 stay resolved
        gap = float(((vertices - mu) @ g).max())
        rel_gap = gap / max(scale(obj), 1e-12)
        if rel_gap <= rel_tol:
            return mu, obj, rel_gap
        if rel_gap < best[0]:
            best = (rel_gap, gap, mu)
        if it == MAX_NEWTON_STEPS:
            break
        a = t * w + 1.0
        # dmu = D u with u in the null space of the scaled equalities, whose
        # orthonormal basis Z ends a complete QR of their transpose; the
        # Hessian in u is I + K.T K with K the scaled CHSH rows
        D = mu / np.sqrt(a)
        Z = np.linalg.qr((E8 * D).T, mode="complete")[0][:, 8:]
        K = (C * D) @ Z / s[:, None]
        grad = Z.T @ np.sqrt(a) - K.sum(axis=0)
        y = np.linalg.solve(np.eye(8) + K.T @ K, grad)
        decrement = math.sqrt(max(float(grad @ y), 0.0))
        if not math.isfinite(decrement):
            break
        # the damped step stays inside the Dikin ellipsoid, hence strictly
        # feasible; the reach guard only catches directions spoiled by
        # rounding at large t
        step = 1.0 if decrement <= 0.25 else 1.0 / (1.0 + decrement)
        dmu = D * (Z @ y)
        ds = C @ dmu
        reach = max(float((-dmu / mu).max()), float((ds / s).max()))
        if step * reach >= 1.0:
            step = 0.5 / reach
        mu = mu + step * dmu
        s = s - step * ds
        if decrement <= 0.25:
            t *= 10.0
    rel_gap, gap, mu = best
    raise MleConvergenceError(
        f"likelihood maximisation stalled with relative gap {rel_gap:.3e}",
        best=ConditionalDistribution(mu.reshape(4, 4)),
        gap=gap,
    )


def fit_mle(counts: CountsTable) -> ConditionalDistribution:
    """Maximum-likelihood table in the trial polytope for observed counts.

    Maximises ``sum n(ab,xy) log p(ab|xy)`` over the polytope with the
    barrier solver, certified by the Frank-Wolfe gap over the 80 extreme
    points.  Raises :class:`MleConvergenceError` (with the best iterate
    attached) if the certified gap relative to the log-likelihood per trial
    is still above ``FIT_REL_TOL`` after ``MAX_NEWTON_STEPS`` Newton steps.
    """
    return _fit_mle(counts)[0]


def _fit_mle(counts: CountsTable) -> tuple[ConditionalDistribution, float]:
    """:func:`fit_mle` and the certified relative gap of its result."""
    if counts.total <= 0:
        raise ValueError("counts table is empty")
    if (counts.setting_totals() == 0).any():
        raise ValueError("every settings pair needs at least one count")
    w = counts.counts.ravel() / counts.total
    mu, _, rel_gap = _maximize_loglik(w, TSIRELSON_BOUND, _VERTICES.vertices, abs, FIT_REL_TOL)
    return ConditionalDistribution(mu.reshape(4, 4)), rel_gap


def log_likelihood(counts: CountsTable, d: ConditionalDistribution) -> float:
    """Log-likelihood of counts under a table, with probabilities clipped."""
    p = np.clip(d.table.ravel(), 1e-300, None)
    return float(np.dot(counts.counts.ravel(), np.log(p)))


def statistical_strength(d: ConditionalDistribution) -> float:
    """Statistical strength for rejecting local realism, in bits per trial.

    The minimum Kullback-Leibler divergence (base 2) of the joint
    distribution ``p(ab|xy)/4`` from the local-realistic polytope, i.e. the
    convex hull of the 16 deterministic strategies, with uniformly random
    settings.  The KL minimisation is the likelihood maximisation of
    ``p/4`` over that hull (CHSH bound 2), so it reuses the barrier solver,
    certified over the 16 deterministic tables.  ``STRENGTH_REL_TOL`` is
    relative to the strength itself (floored at 1e-12 nats), which is
    typically orders of magnitude smaller than the raw log-likelihood; a gap
    above it after ``MAX_NEWTON_STEPS`` Newton steps raises
    :class:`MleConvergenceError`.
    """
    return _statistical_strength(d)[0]


def _statistical_strength(d: ConditionalDistribution) -> tuple[float, float]:
    """:func:`statistical_strength` and the certified relative gap."""
    w = d.table.ravel() / 4.0
    mask = w > 0
    self_term = float(np.dot(w[mask], np.log(w[mask] * 4.0)))  # sum w ln p(ab|xy)
    _, obj, rel_gap = _maximize_loglik(
        w, 2.0, _VERTICES.lr_vertices, lambda obj: self_term - obj, STRENGTH_REL_TOL
    )
    return max((self_term - obj) / _LN2, 0.0), rel_gap
