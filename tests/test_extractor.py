"""Extractor budget arithmetic tests."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings

from direx.extractor import (
    ExtractorParams,
    InfeasibleParameters,
    ceil_log2_fraction,
    check_set_X,
    max_kout,
    seed_length,
    smallest_prime_above,
)
from tests.test_model import json_near

GOLD_M_IN = 14_698_652_631_040
GOLD_SIGMA_IN = 1_181_264_480
GOLD_EPS_EXT = 1.78e-9
GOLD_K_OUT = 1_181_264_237
GOLD_D_S = 3_725_074
GOLD_PARAMS = ExtractorParams(
    m_in=GOLD_M_IN,
    sigma_in=GOLD_SIGMA_IN,
    eps_ext=GOLD_EPS_EXT,
    eps=5.7e-7,
    k_out=GOLD_K_OUT,
    d_s=GOLD_D_S,
    w=331,
)


def _sieve(limit: int) -> np.ndarray:
    is_p = np.ones(limit + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return np.flatnonzero(is_p)


class TestPrimes:
    def test_examples(self):
        assert smallest_prime_above(330) == 331
        assert smallest_prime_above(1) == 2
        assert smallest_prime_above(7) == 11

    def test_against_sieve_below_1e6(self):
        primes = _sieve(1_100_000)
        rng = np.random.default_rng(0)
        ns = np.concatenate([np.arange(1, 2000), rng.integers(1, 1_000_000, 300)])
        for n in ns:
            expected = int(primes[np.searchsorted(primes, n, side="right")])
            assert smallest_prime_above(int(n)) == expected


class TestCeilLog2:
    @pytest.mark.parametrize(
        "fr,expected",
        [
            (Fraction(8), 3),
            (Fraction(9), 4),
            (Fraction(1), 0),
            (Fraction(1, 8), -3),
            (Fraction(1, 9), -3),
            (Fraction(2**100), 100),
            (Fraction(2**100 + 1), 101),
            (Fraction(2**100 - 1), 100),
        ],
    )
    def test_exact_boundaries(self, fr, expected):
        assert ceil_log2_fraction(fr) == expected

    def test_random_against_mpmath(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = int(rng.integers(1, 10**12))
            q = int(rng.integers(1, 10**12))
            got = ceil_log2_fraction(Fraction(p, q))
            with mpmath.workdps(60):
                want = int(mpmath.ceil(mpmath.log(mpmath.mpf(p) / q, 2)))
            assert got == want


class TestMaxKout:
    def test_golden(self):
        assert max_kout(GOLD_SIGMA_IN, GOLD_EPS_EXT) == GOLD_K_OUT

    def test_boundary_is_exact(self):
        k = max_kout(GOLD_SIGMA_IN, GOLD_EPS_EXT)
        rhs = GOLD_SIGMA_IN - 6 + 4 * math.log2(GOLD_EPS_EXT)
        assert k + 4 * math.log2(k) <= rhs
        assert (k + 1) + 4 * math.log2(k + 1) > rhs

    @pytest.mark.parametrize("sigma,eps", [(10.0, 0.5), (12.0, 0.5), (30.0, 0.25), (64.0, 1e-3)])
    def test_small_case_matches_scan(self, sigma, eps):
        rhs = sigma - 6 + 4 * math.log2(eps)
        best = max(
            (k for k in range(1, 2**10) if k + 4 * math.log2(k) <= rhs), default=None
        )
        if best is None:
            with pytest.raises(InfeasibleParameters):
                max_kout(sigma, eps)
        else:
            assert max_kout(sigma, eps) == best

    def test_monotone_in_eps_ext(self):
        prev = 0
        for eps in (1e-12, 1e-9, 1e-6, 1e-3, 0.9):
            k = max_kout(1_000_000, eps)
            assert k >= prev
            prev = k

    def test_infeasible(self):
        with pytest.raises(InfeasibleParameters):
            max_kout(5.0, 1e-9)


class TestSeedLength:
    def test_golden(self):
        d_s, w = seed_length(GOLD_M_IN, GOLD_K_OUT, GOLD_EPS_EXT)
        assert (d_s, w) == (GOLD_D_S, 331)

    def test_small_case_dual_path(self):
        m_in, k_out, eps = 2**20, 2**10, 2.0**-20
        d_s, w = seed_length(m_in, k_out, eps)
        # independent high-precision re-derivation
        with mpmath.workdps(80):
            arg = mpmath.mpf(4) * m_in * k_out * k_out / mpmath.mpf(eps) ** 2
            w2 = smallest_prime_above(2 * int(mpmath.ceil(mpmath.log(arg, 2))))
            e = mpmath.e
            inner = (mpmath.log(k_out - e, 2) - mpmath.log(w2 - e, 2)) / (
                mpmath.log(e, 2) - mpmath.log(e - 1, 2)
            )
            d2 = w2 * w2 * max(2, 1 + int(mpmath.ceil(inner)))
        assert (d_s, w) == (d2, w2)

    def test_max_branch_small_kout(self):
        # small enough output that the max(2, .) clamps: d_s = 2 w^2
        d_s, w = seed_length(2**10, 4, 0.5)
        assert d_s == 2 * w * w

    def test_domain_errors(self):
        with pytest.raises(InfeasibleParameters):
            seed_length(2**10, 2, 0.5)  # k_out below Euler's number
        with pytest.raises(ValueError):
            seed_length(0, 8, 0.5)


class TestRoundTripFeasibility:
    def test_budget_satisfies_all_constraints(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            m_in = int(rng.integers(2**16, 2**44))
            sigma_in = float(rng.uniform(64, m_in / 2))
            eps_ext = float(10 ** rng.uniform(-12, -0.5))
            try:
                params = ExtractorParams.budget(m_in, sigma_in, eps_ext, eps=1.0)
            except InfeasibleParameters:
                continue
            assert params.satisfies_constraints()
            slacks = params.constraint_slacks()
            assert all(v >= 0 for v in slacks.values())

    @pytest.mark.parametrize("sigma_in", [math.nan, math.inf, -math.inf, 0.5, 1001.0, 1e300])
    def test_budget_refuses_sigma_in_outside_one_to_m_in(self, sigma_in):
        with pytest.raises(InfeasibleParameters, match=r"must lie in \[1, m_in=1000\]$"):
            ExtractorParams.budget(1000, sigma_in, 1e-3, 1.0)

    def test_golden_tuple(self):
        params = ExtractorParams.budget(GOLD_M_IN, GOLD_SIGMA_IN, GOLD_EPS_EXT, 5.7e-7)
        assert params.k_out == GOLD_K_OUT
        assert params.d_s == GOLD_D_S


class TestSetX:
    def _gold(self) -> ExtractorParams:
        return ExtractorParams.budget(GOLD_M_IN, GOLD_SIGMA_IN, GOLD_EPS_EXT, 5.7e-7)

    def test_production_tuple_admissible(self):
        assert check_set_X(self._gold(), beta=4.7614e-8)

    def test_sigma_above_m_in_rejected(self):
        p = self._gold()
        bad = ExtractorParams(
            m_in=p.m_in,
            sigma_in=p.m_in + 1,
            eps_ext=p.eps_ext,
            eps=p.eps,
            k_out=p.k_out,
            d_s=p.d_s,
            w=p.w,
        )
        assert not check_set_X(bad, beta=4.7614e-8)

    def test_eps_ext_must_be_strictly_smaller(self):
        p = self._gold()
        bad = ExtractorParams(
            m_in=p.m_in,
            sigma_in=p.sigma_in,
            eps_ext=p.eps,
            eps=p.eps,
            k_out=p.k_out,
            d_s=p.d_s,
            w=p.w,
        )
        assert not check_set_X(bad, beta=4.7614e-8)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, 0.0, -1e-8])
    def test_beta_must_be_finite_and_positive(self, beta):
        with pytest.raises(ValueError, match="^beta must be finite and > 0"):
            check_set_X(self._gold(), beta=beta)

    def test_json_roundtrip(self):
        p = self._gold()
        assert ExtractorParams.from_json(p.to_json()) == p

    @given(text=json_near(json.loads(GOLD_PARAMS.to_json())))
    @settings(max_examples=300, deadline=None)
    def test_json_fuzz(self, text):
        """Every input decodes to parameters that round-trip, or raises ValueError."""
        try:
            p = ExtractorParams.from_json(text)
        except ValueError:
            return
        assert ExtractorParams.from_json(p.to_json()).to_json() == p.to_json()


# ---------------------------------------------------------------------------
# float-first ceilings against the former exact-only arithmetic
# ---------------------------------------------------------------------------


def _exact_max_kout(sigma_in: float, eps_ext: float) -> int:
    """The former ``max_kout``: bisection over the whole range."""
    rhs = sigma_in - 6 + 4.0 * math.log2(eps_ext)
    if 1.0 > rhs:
        raise InfeasibleParameters("no output")
    lo, hi = 1, 1 << 62
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid + 4.0 * math.log2(mid) <= rhs:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _exact_w(m_in: int, k_out: int, eps_ext: float) -> int:
    ratio = Fraction(4) * m_in * k_out * k_out / (Fraction(eps_ext) ** 2)
    return smallest_prime_above(2 * ceil_log2_fraction(ratio))


def _exact_inner(k_out: int, w: int):
    e = mpmath.e
    return (mpmath.log(k_out - e, 2) - mpmath.log(w - e, 2)) / (
        mpmath.log(e, 2) - mpmath.log(e - 1, 2)
    )


def _exact_seed_length(m_in: int, k_out: int, eps_ext: float) -> tuple[int, int]:
    """The former ``seed_length``: exact rationals, then 60 digits."""
    w = _exact_w(m_in, k_out, eps_ext)
    if k_out <= mpmath.e or w <= mpmath.e:
        raise InfeasibleParameters("k_out and w must exceed Euler's number")
    with mpmath.workdps(60):
        inner = _exact_inner(k_out, w)
        if abs(inner - mpmath.nint(inner)) < mpmath.mpf("1e-30"):
            raise InfeasibleParameters("ambiguous")
        return w * w * max(2, 1 + int(mpmath.ceil(inner))), w


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InfeasibleParameters:
        return InfeasibleParameters


def _kout_at_integer_inner(m_in: int, eps_ext: float, n: int) -> int:
    """The integer ``k_out`` whose inner seed term lies closest to ``n``.

    ``w`` depends on ``k_out`` only through a ceiling, so a few rounds of
    solving ``inner(k_out, w) = n`` for ``k_out`` settle it.
    """
    w = 7
    with mpmath.workdps(80):
        for _ in range(10):
            e = mpmath.e
            k_out = int(mpmath.nint(e + (w - e) * (e / (e - 1)) ** n))
            w, w_old = _exact_w(m_in, k_out, eps_ext), w
            if w == w_old:
                return k_out
    raise AssertionError("w did not settle")


class TestFloatFirst:
    def test_max_kout_random(self):
        rng = np.random.default_rng(2026)
        for _ in range(400):
            sigma = float(10 ** rng.uniform(0.5, 19))
            eps = float(10 ** rng.uniform(-15, 0))
            assert _outcome(max_kout, sigma, eps) == _outcome(_exact_max_kout, sigma, eps)

    def test_max_kout_boundaries_and_extremes(self):
        rng = np.random.default_rng(17)
        sigmas = [math.inf, math.nan, 1e30, 2.0**62, 7.0, 7.000001]
        for k in rng.integers(1, 2**40, 50).tolist() + [1, 2, 3, 2**53, 2**62 - 1]:
            edge = k + 4.0 * math.log2(k) + 6.0
            sigmas += [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)]
        for sigma in sigmas:
            for eps in (1.0, 0.5):
                assert _outcome(max_kout, sigma, eps) == _outcome(
                    _exact_max_kout, sigma, eps
                ), sigma

    def test_seed_length_random(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            m_in = int(rng.integers(16, 2**50))
            k_out = int(rng.integers(3, m_in))
            eps = float(10 ** rng.uniform(-15, 0))
            assert seed_length(m_in, k_out, eps) == _exact_seed_length(m_in, k_out, eps)
        # an output length beyond float64's range takes the exact path
        assert seed_length(2**1400, 10**400, 0.5) == _exact_seed_length(2**1400, 10**400, 0.5)

    def test_exact_ratio_takes_the_rational_path(self, monkeypatch):
        from direx import extractor

        calls = []
        monkeypatch.setattr(
            extractor, "ceil_log2_fraction", lambda v: calls.append(v) or ceil_log2_fraction(v)
        )
        # 4 * 2^30 * (2^20)^2 / 0.5^2 = 2^74 exactly: the float log2 is an integer
        assert seed_length(2**30, 2**20, 0.5) == _exact_seed_length(2**30, 2**20, 0.5)
        assert calls == [Fraction(2**74)]

    def test_inner_near_an_integer_takes_the_exact_path(self, monkeypatch):
        m_in, eps = 2**50, 1e-6
        k_out = _kout_at_integer_inner(m_in, eps, 57)
        w = _exact_w(m_in, k_out, eps)
        with mpmath.workdps(60):
            assert abs(_exact_inner(k_out, w) - 57) < 1e-12
        want = _exact_seed_length(m_in, k_out, eps)
        calls = []
        workdps = mpmath.workdps
        monkeypatch.setattr(mpmath, "workdps", lambda n: calls.append(n) or workdps(n))
        assert seed_length(m_in, k_out, eps) == want
        assert calls == [60]

    def test_ambiguous_inner_still_raises(self):
        m_in, eps = 2**50, 1e-6
        k_out = _kout_at_integer_inner(m_in, eps, 160)
        with pytest.raises(InfeasibleParameters):
            _exact_seed_length(m_in, k_out, eps)
        with pytest.raises(InfeasibleParameters, match="ambiguous"):
            seed_length(m_in, k_out, eps)
