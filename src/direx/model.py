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
    "InputDistribution",
    "PolytopeVertexSet",
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


def is_member_T(d: ConditionalDistribution, tol: float = MEMBERSHIP_TOL) -> bool:
    """Whether ``d`` is non-signaling and within Tsirelson's bounds."""
    t = d.table
    if (t < -tol).any():
        return False
    E, f = _equality_system()
    if (np.abs(E @ t.ravel() - f) > tol).any():
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
