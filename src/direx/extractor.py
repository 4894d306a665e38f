"""Seed and output budgets for the Trevisan extractor parameterisation.

Only the parameter arithmetic is implemented: how many near-uniform bits
``k_out`` can be drawn from ``m_in`` input bits carrying ``sigma_in`` bits of
conditional min-entropy at extractor error ``eps_ext``, and how many seed
bits ``d_s`` that costs.  The governing constraints are

    k_out + 4*log2(k_out) <= sigma_in - 6 + 4*log2(eps_ext)
    d_s <= w^2 * max(2, 1 + ceil((log2(k_out - e) - log2(w - e))
                                 / (log2(e) - log2(e - 1))))

with ``w`` the smallest prime above ``2*ceil(log2(4*m_in*k_out^2 /
eps_ext^2))`` and ``e`` Euler's number.  ``eps_ext`` is a binary fraction,
so the ratio's ceiling is taken exactly in integer arithmetic.  The inner
term's is taken in float64 first; an argument within a stated margin of an
integer is redone in high-precision floating point with a near-integer
guard.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from direx.ledger import plain_fields

__all__ = [
    "ExtractorParams",
    "InfeasibleParameters",
    "smallest_prime_above",
    "ceil_log2_fraction",
    "max_kout",
    "seed_length",
    "check_set_X",
]


class InfeasibleParameters(ValueError):
    """Raised when no parameter choice satisfies the extractor constraints."""


def smallest_prime_above(n: int) -> int:
    """Least prime strictly greater than ``n``, by deterministic testing."""
    if n < 1:
        raise ValueError("n must be at least 1")
    m = n + 1
    while not _is_prime(m):
        m += 1
    return m


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    # deterministic Miller-Rabin, valid far beyond any size used here
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def ceil_log2_fraction(value: Fraction) -> int:
    """Exact ``ceil(log2(value))`` for a positive rational ``p/q``.

    Above 1 it is the least ``c`` with ``ceil(p/q) <= 2^c``; at or below 1
    it is ``-floor(log2(floor(q/p)))``.  Both are integer bit lengths.
    """
    p, q = value.numerator, value.denominator
    if p <= 0:  # q is positive
        raise ValueError("value must be positive")
    return ((p - 1) // q).bit_length() if p > q else 1 - (q // p).bit_length()


def max_kout(sigma_in: float, eps_ext: float) -> int:
    """Largest output length satisfying the entropy-loss inequality.

    Monotone bisection on ``k_out + 4*log2(k_out)`` against
    ``sigma_in - 6 + 4*log2(eps_ext)``, started from a float bracket around
    ``rhs - 4*log2(rhs)`` whose ends are kept only where they verify.
    Raises :class:`InfeasibleParameters` when even one output bit is
    impossible.
    """
    if eps_ext <= 0 or eps_ext > 1:
        raise ValueError("eps_ext must be in (0, 1]")
    rhs = sigma_in - 6 + 4.0 * math.log2(eps_ext)
    if 1.0 + 4.0 * math.log2(1.0) > rhs:
        raise InfeasibleParameters(
            f"sigma_in={sigma_in} too small for any output at eps_ext={eps_ext}"
        )

    def fits(k: int) -> bool:
        return k + 4.0 * math.log2(k) <= rhs

    lo, hi = 1, 1 << 62
    if math.isfinite(rhs):
        guess = int(rhs - 4.0 * math.log2(rhs))
        below = min(max(lo, guess - 64), hi)
        above = max(min(hi, guess + 64), lo)
        if fits(below):
            lo = below
        if not fits(above):
            hi = above - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


#: a float ceiling argument farther than this from an integer is decided
#: in float64, whose error on these arguments is below 1e-12
CEIL_MARGIN = 1e-9


def _ceil_log2_ratio(m_in: int, k_out: int, eps_ext: float) -> int:
    """``ceil(log2(4*m_in*k_out^2/eps_ext^2))`` exactly, with ``eps_ext = n/d``."""
    n, d = eps_ext.as_integer_ratio()
    return ceil_log2_fraction(Fraction(4 * m_in * k_out * k_out * d * d, n * n))


def _ceil_inner(k_out: int, w: int) -> int:
    """Ceiling of the seed-length inner term, at 60 digits near integers.

    A 60-digit value within 1e-30 of an integer would be ambiguous and
    raises instead of guessing.  mpmath is imported only on this branch,
    so the float path costs no import.
    """
    e = math.e
    if k_out < 2**1000:  # k_out - e fits a float64
        x = (math.log2(k_out - e) - math.log2(w - e)) / (math.log2(e) - math.log2(e - 1))
        if abs(x - round(x)) > CEIL_MARGIN:
            return math.ceil(x)
    import mpmath

    e = mpmath.e
    with mpmath.workdps(60):
        inner = (mpmath.log(k_out - e, 2) - mpmath.log(w - e, 2)) / (
            mpmath.log(e, 2) - mpmath.log(e - 1, 2)
        )
        nearest = mpmath.nint(inner)
        if abs(inner - nearest) < mpmath.mpf("1e-30"):
            raise InfeasibleParameters(
                f"seed-length ceiling ambiguous at {inner}; cannot certify d_s"
            )
        return int(mpmath.ceil(inner))


def _entropy_in_range(sigma_in: float, m_in: int) -> bool:
    """Whether ``1 <= sigma_in <= m_in``: the input certifies at least one bit
    and no more than it holds.  With ``m_in`` an int, NaN and the infinities
    fail."""
    return 1 <= sigma_in <= m_in


def seed_length(m_in: int, k_out: int, eps_ext: float) -> tuple[int, int]:
    """Seed bits ``d_s`` and field size prime ``w`` for the extractor.

    ``w`` is the smallest prime above ``2*ceil(log2(4*m_in*k_out^2 /
    eps_ext^2))``, taken exactly over the rationals.  The second ceiling is
    taken in float64 first; an argument within ``CEIL_MARGIN`` of an
    integer is redone at 60 significant digits.
    """
    if m_in <= 0 or k_out <= 0:
        raise ValueError("m_in and k_out must be positive")
    if eps_ext <= 0 or eps_ext > 1:
        raise ValueError("eps_ext must be in (0, 1]")
    w = smallest_prime_above(2 * _ceil_log2_ratio(m_in, k_out, eps_ext))
    if k_out <= math.e or w <= math.e:
        raise InfeasibleParameters("k_out and w must exceed Euler's number")
    d_s = w * w * max(2, 1 + _ceil_inner(k_out, w))
    return d_s, w


@dataclass(frozen=True)
class ExtractorParams:
    """Full parameter tuple of one extractor invocation."""

    m_in: int
    sigma_in: float
    eps_ext: float
    eps: float
    k_out: int
    d_s: int
    w: int

    @classmethod
    def budget(
        cls, m_in: int, sigma_in: float, eps_ext: float, eps: float
    ) -> "ExtractorParams":
        """Derive the maximal output budget from the entropy input.

        Raises :class:`InfeasibleParameters` when ``sigma_in`` lies outside
        ``[1, m_in]`` or allows no output at ``eps_ext``.
        """
        if not _entropy_in_range(sigma_in, m_in):
            raise InfeasibleParameters(f"sigma_in={sigma_in} must lie in [1, m_in={m_in}]")
        k_out = max_kout(sigma_in, eps_ext)
        d_s, w = seed_length(m_in, k_out, eps_ext)
        return cls(
            m_in=m_in,
            sigma_in=sigma_in,
            eps_ext=eps_ext,
            eps=eps,
            k_out=k_out,
            d_s=d_s,
            w=w,
        )

    def constraint_slacks(self) -> dict[str, float]:
        """Slack of each governing inequality (nonnegative when satisfied)."""
        lhs = self.k_out + 4.0 * math.log2(self.k_out)
        rhs = self.sigma_in - 6 + 4.0 * math.log2(self.eps_ext)
        d_cap, _ = seed_length(self.m_in, self.k_out, self.eps_ext)
        return {
            "entropy_loss": rhs - lhs,
            "seed_cap": float(d_cap - self.d_s),
            "output_entropy": self.sigma_in - self.k_out,
            "input_entropy": self.m_in - self.sigma_in,
            "error_budget": self.eps - self.eps_ext,
        }

    def satisfies_constraints(self) -> bool:
        if not _entropy_in_range(self.sigma_in, self.m_in):
            return False
        if not (0 < self.eps_ext <= 1) or self.d_s < 0:
            return False
        if self.k_out > self.sigma_in:
            return False
        s = self.constraint_slacks()
        return s["entropy_loss"] >= 0 and s["seed_cap"] >= 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "m_in": self.m_in,
                "sigma_in": self.sigma_in,
                "eps_ext": self.eps_ext,
                "eps": self.eps,
                "k_out": self.k_out,
                "d_s": self.d_s,
                "w": self.w,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "ExtractorParams":
        """The parameters :meth:`to_json` wrote; ``ValueError`` on any other shape."""
        return cls(**plain_fields(cls, json.loads(text), "extractor parameters"))


def check_set_X(params: ExtractorParams, beta: float) -> bool:
    """Whether the parameter tuple is admissible for the protocol.

    Requires the extractor constraints, a strict error split
    ``eps_ext < eps``, and the entropy cap
    ``sigma_in <= m_in + ((1+beta)/beta) * log2(eps)``.
    """
    if not 0.0 < beta < math.inf:
        raise ValueError(f"beta must be finite and > 0, got {beta}")
    if not params.eps_ext < params.eps:
        return False
    if not params.satisfies_constraints():
        return False
    cap = params.m_in + (1.0 + beta) / beta * math.log2(params.eps)
    return params.sigma_in <= cap
