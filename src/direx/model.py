"""CHSH trial model: distributions, the Tsirelson-bounded polytope, fitting.

The scenario is the standard two-party, two-setting, two-outcome Bell trial.
Settings pairs ``(x, y)`` and outcome pairs ``(a, b)`` are binary.  A trial is
summarised by the settings-conditional outcome distribution ``p(ab|xy)``, a
table of 16 probabilities.  The admissible set is the convex polytope of
tables that are non-signaling and respect Tsirelson's bounds on all eight
CHSH combinations; it has exactly 80 extreme points, 16 of which are the
local-deterministic strategies.

Canonical layout used throughout the package:

* pair index ``first + 2*second``, giving the order 00, 10, 01, 11 for both
  settings and outcomes;
* tables are ``(4, 4)`` arrays indexed ``[settings, outcomes]``;
* flat 16-vectors are row-major ravels of such tables (settings-major).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TSIRELSON_BOUND",
    "PAIR_ORDER",
    "ConditionalDistribution",
    "CountsTable",
    "InputDistribution",
    "PolytopeVertexSet",
    "PolytopeError",
    "MleConvergenceError",
    "enumerate_extreme_points",
    "is_member_T",
    "fit_mle",
    "statistical_strength",
    "input_distribution",
]

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

#: canonical order of binary pairs: index = first + 2 * second
PAIR_ORDER: tuple[tuple[int, int], ...] = ((0, 0), (1, 0), (0, 1), (1, 1))

NORMALIZATION_TOL = 1e-12
MEMBERSHIP_TOL = 1e-9

_LN2 = math.log(2.0)


def pair_index(first: int, second: int) -> int:
    """Index of a binary pair in the canonical 00, 10, 01, 11 order."""
    return first + 2 * second


class PolytopeError(RuntimeError):
    """Raised when vertex enumeration contradicts the expected geometry."""


class MleConvergenceError(RuntimeError):
    """Raised when the likelihood maximiser fails to converge.

    Carries the best iterate found so far in ``best`` and the certified
    optimality gap in ``gap``.
    """

    def __init__(self, message: str, best: "ConditionalDistribution", gap: float):
        super().__init__(message)
        self.best = best
        self.gap = gap


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

    def alice_marginal(self, a: int, x: int, y: int) -> float:
        s = pair_index(x, y)
        return float(sum(self.table[s, pair_index(a, b)] for b in (0, 1)))

    def bob_marginal(self, b: int, x: int, y: int) -> float:
        s = pair_index(x, y)
        return float(sum(self.table[s, pair_index(a, b)] for a in (0, 1)))

    def correlators(self) -> np.ndarray:
        """E(xy) = sum_ab (-1)^(a+b) p(ab|xy), indexed by settings."""
        signs = np.array([(-1.0) ** (a + b) for a, b in PAIR_ORDER])
        return self.table @ signs

    def chsh_values(self) -> np.ndarray:
        """All eight signed CHSH combinations of the four correlators."""
        return _chsh_sign_matrix() @ self.correlators()

    def is_normalized(self, tol: float = NORMALIZATION_TOL) -> bool:
        return bool(np.abs(self.table.sum(axis=1) - 1.0).max() <= tol)

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
        obj = json.loads(text)
        return cls(np.array(obj["p"], dtype=np.float64))

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
        rd = csv.reader(io.StringIO(text))
        header = next(rd)
        if [h.strip() for h in header[:4]] != ["x", "y", "a", "b"]:
            raise ValueError("expected header x,y,a,b,<value>")
        for row in rd:
            if not row:
                continue
            x, y, a, b = (int(v) for v in row[:4])
            t[pair_index(x, y), pair_index(a, b)] = float(row[4])
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

    def empirical(self) -> ConditionalDistribution:
        """Row-normalised frequencies (requires every setting observed)."""
        tot = self.setting_totals()
        if (tot == 0).any():
            raise ValueError("every settings pair needs at least one count")
        return ConditionalDistribution(self.counts / tot[:, None])

    def to_json(self) -> str:
        return json.dumps(
            {"counts": [[int(v) for v in row] for row in self.counts]}
        )

    @classmethod
    def from_json(cls, text: str) -> "CountsTable":
        obj = json.loads(text)
        return cls(np.array(obj["counts"], dtype=np.int64))

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
        rd = csv.reader(io.StringIO(text))
        header = next(rd)
        if [h.strip() for h in header[:4]] != ["x", "y", "a", "b"]:
            raise ValueError("expected header x,y,a,b,count")
        for row in rd:
            if not row:
                continue
            x, y, a, b = (int(v) for v in row[:4])
            c[pair_index(x, y), pair_index(a, b)] = int(row[4])
        return cls(c)


@dataclass(frozen=True)
class InputDistribution:
    """Settings distribution for one trial position inside a block.

    With spot-check probability ``q`` the settings are uniform, otherwise
    they are pinned to 00, so ``nu(00) = 1 - 3q/4`` and ``nu(z) = q/4`` for
    the other three settings.  ``q`` may take any value in (0, 4/3); trial
    positions give ``q = 1/(2^k - j + 1) <= 1``.
    """

    q: float

    def __post_init__(self):
        if not 0.0 < self.q < 4.0 / 3.0:
            raise ValueError(f"q must lie in (0, 4/3), got {self.q}")

    @property
    def probabilities(self) -> np.ndarray:
        p = np.full(4, self.q / 4.0)
        p[0] = 1.0 - 0.75 * self.q
        return p

    def prob(self, x: int, y: int) -> float:
        return float(self.probabilities[pair_index(x, y)])

    def cell_weights(self) -> np.ndarray:
        """nu(z) expanded to the (4, 4) table layout (constant per row)."""
        return np.repeat(self.probabilities[:, None], 4, axis=1)


def input_distribution(j: int, k: int) -> InputDistribution:
    """Input distribution at trial position ``j`` of a block, 1 <= j <= 2^k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if not 1 <= j <= 2**k:
        raise ValueError(f"position j={j} outside 1..2^{k}")
    return InputDistribution(q=1.0 / (2**k - j + 1))


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


def _chsh_rows_flat() -> np.ndarray:
    """CHSH functionals as rows acting on the flat 16-vector."""
    signs = _chsh_sign_matrix()
    out = np.zeros((8, 16))
    parity = np.array([(-1.0) ** (a + b) for a, b in PAIR_ORDER])
    for r in range(8):
        for s in range(4):
            out[r, 4 * s : 4 * s + 4] = signs[r, s] * parity
    return out


@dataclass(frozen=True)
class PolytopeVertexSet:
    """Extreme points of the non-signaling, Tsirelson-bounded polytope.

    ``vertices`` has shape (80, 16) in the canonical flat layout and
    canonical (lexicographic) order.  ``deterministic_mask`` flags the 16
    local-deterministic strategies, whose convex hull is the local-realistic
    polytope.
    """

    vertices: np.ndarray
    deterministic_mask: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vertices", _freeze(self.vertices))
        m = np.asarray(self.deterministic_mask, dtype=bool).copy()
        m.setflags(write=False)
        object.__setattr__(self, "deterministic_mask", m)

    def __len__(self) -> int:
        return self.vertices.shape[0]

    @property
    def lr_vertices(self) -> np.ndarray:
        """The 16 local-deterministic tables, shape (16, 16) flat."""
        return self.vertices[self.deterministic_mask]

    def distributions(self) -> list[ConditionalDistribution]:
        return [ConditionalDistribution(v.reshape(4, 4)) for v in self.vertices]


_VERTEX_CACHE: PolytopeVertexSet | None = None
_VERTEX_LOCK = threading.Lock()


def _enumerate_vertices() -> PolytopeVertexSet:
    """Brute-force vertex enumeration of the half-space description.

    The equalities define an 8-dimensional affine hull; every basic solution
    of 8 of the 24 remaining inequalities (positivity and CHSH) is tested for
    feasibility.  Entries indistinguishable from 0 or 1 are snapped before
    rows are renormalised, so deterministic vertices come out exact.
    """
    E, f = _equality_system()
    chsh = _chsh_rows_flat()

    x0 = np.full(16, 0.25)  # uniform table, center of the polytope
    _, sv, vt = np.linalg.svd(E)
    rank = int((sv > 1e-10).sum())
    null = vt[rank:].T  # (16, 8)
    dim = null.shape[1]
    if dim != 8:
        raise PolytopeError(f"affine hull has dimension {dim}, expected 8")

    G = np.vstack([-null, chsh @ null])
    h = np.concatenate([x0, TSIRELSON_BOUND - chsh @ x0])
    norms = np.linalg.norm(G, axis=1)
    G /= norms[:, None]
    h /= norms

    n_ineq = G.shape[0]
    combos = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n_ineq), dim)),
        dtype=np.int64,
    ).reshape(-1, dim)

    points = []
    chunk = 65536
    for start in range(0, combos.shape[0], chunk):
        idx = combos[start : start + chunk]
        A = G[idx]
        dets = np.abs(np.linalg.det(A))
        ok = dets > 1e-9
        if not ok.any():
            continue
        sols = np.linalg.solve(A[ok], h[idx][ok][..., None])[..., 0]
        feasible = (sols @ G.T <= h + 1e-9).all(axis=1)
        if feasible.any():
            points.append(sols[feasible])
    if not points:
        raise PolytopeError("vertex enumeration found no feasible basic solutions")

    X = np.vstack(points) @ null.T + x0
    X[np.abs(X) < 1e-9] = 0.0
    X[np.abs(X - 1.0) < 1e-9] = 1.0
    X /= X.reshape(-1, 4, 4).sum(axis=2).repeat(4, axis=1)

    uniq, first = np.unique(np.round(X, 9), axis=0, return_index=True)
    X = X[np.sort(first)]
    order = np.lexsort(np.round(X, 12).T[::-1])
    X = X[order]

    if X.shape[0] != 80:
        raise PolytopeError(
            f"vertex enumeration produced {X.shape[0]} extreme points, "
            "expected 80; the half-space description needs review"
        )
    det_mask = np.array([bool(np.all((v == 0.0) | (v == 1.0))) for v in X])
    if det_mask.sum() != 16:
        raise PolytopeError(
            f"expected 16 deterministic vertices, found {det_mask.sum()}"
        )
    return PolytopeVertexSet(vertices=X, deterministic_mask=det_mask)


def enumerate_extreme_points() -> PolytopeVertexSet:
    """Vertex set of the trial polytope, enumerated once per process."""
    global _VERTEX_CACHE
    if _VERTEX_CACHE is None:
        with _VERTEX_LOCK:
            if _VERTEX_CACHE is None:
                _VERTEX_CACHE = _enumerate_vertices()
    return _VERTEX_CACHE


def is_member_T(d: ConditionalDistribution, tol: float = MEMBERSHIP_TOL) -> bool:
    """Whether ``d`` is non-signaling and within Tsirelson's bounds."""
    t = d.table
    if (t < -tol).any():
        return False
    for a in (0, 1):
        for x in (0, 1):
            if abs(d.alice_marginal(a, x, 0) - d.alice_marginal(a, x, 1)) > tol:
                return False
    for b in (0, 1):
        for y in (0, 1):
            if abs(d.bob_marginal(b, 0, y) - d.bob_marginal(b, 1, y)) > tol:
                return False
    return bool(d.chsh_values().max() <= TSIRELSON_BOUND + tol)


# ---------------------------------------------------------------------------
# likelihood maximisation over a convex hull
# ---------------------------------------------------------------------------


def _maximize_mixture_loglik(
    weights: np.ndarray,
    vertices: np.ndarray,
    gap_tol,
    max_iter: int,
) -> tuple[np.ndarray, np.ndarray, float, list[float]]:
    """Maximise ``sum_i w_i log(mu_i)`` over ``mu`` in conv(vertices).

    Multiplicative (EM) updates on the mixture weights; the Frank-Wolfe
    linearisation supplies a duality-gap certificate at every step.
    ``gap_tol`` maps the current objective to the acceptable absolute gap.
    Returns ``(lam, mu, gap, objective_history)``; ``gap`` bounds the
    objective suboptimality from above.
    """
    w = weights / weights.sum()
    n = vertices.shape[0]
    lam = np.full(n, 1.0 / n)
    mu = lam @ vertices
    history: list[float] = []

    def objective(m):
        return float(np.dot(w, np.log(np.clip(m, 1e-300, None))))

    obj = objective(mu)
    gap = math.inf
    for it in range(max_iter):
        grad = vertices @ (w / np.clip(mu, 1e-300, None))  # d obj / d lam
        # sum(lam * grad) == 1, so the Frank-Wolfe gap is max(grad) - 1
        gap = float(grad.max()) - 1.0
        if it % 16 == 0:
            history.append(obj)
        if gap <= gap_tol(obj):
            break
        lam_new = lam * grad
        lam_new /= lam_new.sum()
        mu_new = lam_new @ vertices
        obj_new = objective(mu_new)
        if obj_new < obj - 1e-13 * max(abs(obj), 1.0):
            # EM is monotone up to rounding; a genuine decrease means a
            # numerical stall, so fall back to a damped Frank-Wolfe step.
            best_v = int(np.argmax(grad))
            step = min(2.0 / (it + 2.0), 1e-2)
            while step > 1e-18:
                lam_new = (1.0 - step) * lam
                lam_new[best_v] += step
                mu_new = lam_new @ vertices
                obj_new = objective(mu_new)
                if obj_new >= obj:
                    break
                step *= 0.5
            else:
                break
        lam, mu, obj = lam_new, mu_new, obj_new
    history.append(obj)
    return lam, mu, gap, history


def fit_mle(
    counts: CountsTable,
    rel_tol: float = 1e-10,
    max_iter: int = 500_000,
) -> ConditionalDistribution:
    """Maximum-likelihood table in the trial polytope for observed counts.

    Maximises ``sum n(ab,xy) log p(ab|xy)`` over the polytope by expressing
    ``p`` as a mixture of the 80 extreme points.  Raises
    :class:`MleConvergenceError` (with the best iterate attached) if the
    certified relative gap is still above ``rel_tol`` after ``max_iter``
    updates.
    """
    if counts.total <= 0:
        raise ValueError("counts table is empty")
    if (counts.setting_totals() == 0).any():
        raise ValueError("every settings pair needs at least one count")
    verts = enumerate_extreme_points().vertices
    w = counts.counts.ravel() / counts.total
    _, mu, gap, history = _maximize_mixture_loglik(
        w, verts, lambda obj: rel_tol * max(abs(obj), 1e-12), max_iter
    )
    dist = ConditionalDistribution(mu.reshape(4, 4))
    if gap > rel_tol * max(abs(history[-1]), 1e-12):
        raise MleConvergenceError(
            f"likelihood maximisation stalled with relative gap {gap:.3e}",
            best=dist,
            gap=gap,
        )
    return dist


def log_likelihood(counts: CountsTable, d: ConditionalDistribution) -> float:
    """Log-likelihood of counts under a table, with probabilities clipped."""
    p = np.clip(d.table.ravel(), 1e-300, None)
    return float(np.dot(counts.counts.ravel(), np.log(p)))


def statistical_strength(
    d: ConditionalDistribution,
    rel_tol: float = 1e-3,
    max_iter: int = 200_000,
) -> float:
    """Statistical strength for rejecting local realism, in bits per trial.

    The minimum Kullback-Leibler divergence (base 2) of the joint
    distribution ``p(ab|xy)/4`` from the local-realistic polytope, i.e. the
    convex hull of the 16 deterministic strategies, with uniformly random
    settings.  The KL minimisation is the likelihood maximisation of
    ``p/4`` over that hull, so it reuses the mixture solver.  ``rel_tol`` is
    relative to the strength itself, which is typically orders of magnitude
    smaller than the raw log-likelihood.
    """
    verts = enumerate_extreme_points()
    ld = verts.lr_vertices
    w = d.table.ravel() / 4.0
    mask = w > 0
    self_term = float(np.dot(w[mask], np.log(w[mask] * 4.0)))  # sum w ln p(ab|xy)

    def gap_tol(obj: float) -> float:
        strength_nats = max(self_term - obj, 0.0)
        return max(rel_tol * strength_nats, 1e-15)

    _, sigma, gap, _ = _maximize_mixture_loglik(w, ld, gap_tol, max_iter)
    kl = (
        self_term - float(np.dot(w[mask], np.log(np.clip(sigma[mask], 1e-300, None))))
    ) / _LN2
    return max(kl, 0.0)
