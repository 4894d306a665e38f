"""PEF constraints, validity, optimisation, interpolation and certificate tests.

Oracles used here are independent of the optimised code paths: validity is
always the raw inequality at all 80 extreme points; toy-model optima are
bracketed by a dual grid; small-block rates and variances come from exact
enumeration of the full block tree; large-block moments are checked against
Monte-Carlo simulation.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from direx import _ipm, pef, protocol
from direx.model import ConditionalDistribution, spot_probability
from tests.conftest import PAPER_BETA, PAPER_J_MID, PAPER_K, constant_pef, random_polytope_point
from tests.test_model import json_near

LN2 = math.log(2.0)


class TestValidity:
    @pytest.mark.parametrize("q", [1e-5, 0.01, 0.5, 1.0])
    @pytest.mark.parametrize("beta", [1e-8, 1e-3, 0.2])
    def test_constant_one_is_always_valid(self, q, beta):
        f = constant_pef(beta, q)
        assert pef.is_valid_pef(f)

    def test_scaled_violation_detected(self, commissioning):
        tp, _ = pef.optimize_trial_pef(
            commissioning["distribution"], 0.3, 0.05
        )
        bad = tp.f.copy()
        bad[0, 0] *= 1.001  # push past a tight vertex constraint
        broken = pef.TrialPef.from_excess((bad - 1.0) / tp.beta, tp.beta, tp.position_q)
        assert not pef.is_valid_pef(broken)

    def test_production_anchor_valid(self, production_table):
        for a in production_table.anchors:
            assert pef.is_valid_pef(a)


class TestOptimizer:
    def test_local_deterministic_gain_zero(self, vertices):
        d = ConditionalDistribution(vertices.lr_vertices[7].reshape(4, 4))
        tp, g = pef.optimize_trial_pef(d, 1.0, 0.01)
        assert abs(g) < 1e-10
        assert pef.is_valid_pef(tp)
        np.testing.assert_allclose(tp.f, 1.0, atol=1e-9)

    def test_two_vertex_toy_matches_dual_grid(self, vertices):
        """Bracket the toy optimum with an exhaustive dual-side grid."""
        beta, q = 0.05, 0.7
        # a vertex pair covering every cell keeps the toy problem bounded
        V = vertices.vertices
        pair = next(
            (i, j)
            for i, j in itertools.combinations(range(80), 2)
            if ((V[i] + V[j]) > 0).all()
        )
        A_full, rho_full = pef.pef_constraints(q, beta)
        A = A_full[list(pair)]
        rho = rho_full[list(pair)]
        nu_h = ConditionalDistribution(
            (0.5 * V[pair[0]] + 0.5 * V[pair[1]]).reshape(4, 4)
        )
        w = pef._cell_input_weights(q) * nu_h.table.ravel()
        sol = _ipm.solve_trial_pef(w, A, rho, beta)

        def dual(lam):
            atl = A.T @ lam
            sup = w > 0
            if (atl[sup] <= 0).any():
                return math.inf
            val = (
                float(np.dot(w[sup], np.log(w[sup] / atl[sup])))
                - w.sum()
                + atl[sup].sum()
            ) / beta + float(lam @ rho)
            # zero-weight cells are bounded below by F >= 0
            val += atl[~sup].sum() / beta
            return val

        grid = np.geomspace(1e-4, 1e3, 400)
        upper = min(dual(np.array([l1, l2])) for l1 in grid for l2 in grid)
        gain_nats = sol.gain_bits * LN2
        assert gain_nats <= upper + 1e-9
        assert upper - gain_nats <= 2e-3 * abs(gain_nats)

    def test_certified_gap_is_tight(self, commissioning):
        tp, g = pef.optimize_trial_pef(
            commissioning["distribution"],
            spot_probability(PAPER_J_MID, PAPER_K),
            PAPER_BETA,
        )
        assert pef.is_valid_pef(tp)
        assert g > 0

    def test_gain_continuous_in_beta(self, commissioning):
        d = commissioning["distribution"]
        for beta in (1e-7, 1e-4, 0.02):
            _, g0 = pef.optimize_trial_pef(d, 0.2, beta)
            _, g1 = pef.optimize_trial_pef(d, 0.2, beta * (1 + 1e-3))
            assert g1 == pytest.approx(g0, rel=5e-3)


def _pef_at(table: pef.PefTable, j: int) -> pef.TrialPef:
    """The interpolated PEF at position ``j``, from ``excess_at``."""
    y = table.excess_at(np.array([j]))[0].reshape(4, 4)
    return pef.TrialPef.from_excess(y, table.beta, spot_probability(j, table.k))


def _lifted(tp: pef.TrialPef) -> np.ndarray:
    """The uniform-input table ``4 nu_q(z) F(cz)`` of a PEF built for ``nu_q``."""
    return 4.0 * pef._cell_input_weights(tp.position_q).reshape(4, 4) * tp.f


class TestLift:
    def test_uniform_q_is_identity(self, commissioning):
        tp, _ = pef.optimize_trial_pef(
            commissioning["distribution"], 1.0, 0.01
        )
        np.testing.assert_array_equal(_lifted(tp), tp.f)

    def test_constant_lift_valid_for_uniform(self):
        q = 0.37
        lifted = _lifted(constant_pef(0.01, q))
        expected = 4.0 * pef._cell_input_weights(q).reshape(4, 4)
        np.testing.assert_allclose(lifted, expected, rtol=1e-15)
        assert pef.is_valid_pef(pef.TrialPef.from_excess((lifted - 1.0) / 0.01, 0.01, 1.0))


class TestInterpolation:
    def test_anchor_positions_return_anchors(self, production_table):
        t = production_table
        got = t.excess_at(np.array([1, t.j_mid, 2**t.k]))
        for row, anchor in zip(got, t.anchors):
            np.testing.assert_allclose(row.reshape(4, 4), anchor.excess, rtol=1e-15)

    def test_interpolated_positions_are_valid(self, production_table):
        rng = np.random.default_rng(5)
        for j in rng.integers(2, 2**PAPER_K, size=12):
            tp = _pef_at(production_table, int(j))
            assert pef.is_valid_pef(tp)

    def test_lifted_entries_between_anchor_entries(self, production_table):
        t = production_table
        lifted = [_lifted(a) for a in t.anchors]
        rng = np.random.default_rng(6)
        for j in rng.integers(2, t.j_mid, size=6):
            lif = _lifted(_pef_at(t, int(j)))
            lo = np.minimum(lifted[0], lifted[1]) - 1e-12
            hi = np.maximum(lifted[0], lifted[1]) + 1e-12
            assert (lif >= lo).all() and (lif <= hi).all()

    def test_excess_at_matches_scalar_interpolant(self, production_table):
        """Against the lifted interpolant with the scale mixed from the anchors.

        ``excess_at`` divides by the position's own ``4 nu_q``; mixing the
        anchors' scales instead gives the same table because the scale is
        linear in ``q``.
        """
        t = production_table
        qs = [a.position_q for a in t.anchors]
        scales = [4.0 * pef._cell_input_weights(q).reshape(4, 4) for q in qs]
        js = np.array([2, 77, 9999, 53_477, 100_000])
        for row, j in zip(t.excess_at(js), js):
            q = spot_probability(int(j), t.k)
            i = 0 if q <= qs[1] else 1
            lam = (qs[i + 1] - q) / (qs[i + 1] - qs[i])
            s_lo, s_hi = scales[i], scales[i + 1]
            y_lo, y_hi = t.anchors[i].excess, t.anchors[i + 1].excess
            want = (lam * s_lo * y_lo + (1 - lam) * s_hi * y_hi) / (
                lam * s_lo + (1 - lam) * s_hi
            )
            np.testing.assert_allclose(row.reshape(4, 4), want, rtol=1e-11, atol=1e-13)

    def test_out_of_range_position(self, production_table):
        t = production_table
        for j in (0, 2**17 + 1):
            for positions in (np.array([j]), np.array([1, 2**17, j, 5])):
                for entry in (t.excess_at, t.log2_f):
                    with pytest.raises(ValueError, match="outside"):
                        entry(positions)


def _exact_block_moments(table: pef.PefTable, nu_h: ConditionalDistribution):
    """Exact E and E^2 of log2 G by enumerating the whole block tree."""
    k = table.k
    n = 2**k
    log2f = table.log2_f(np.arange(1, n + 1))
    p = nu_h.table
    e1 = 0.0
    e2 = 0.0
    total_p = 0.0
    for length in range(1, n + 1):
        # P(L = length) built from the per-position spot probabilities
        p_len = 1.0
        for j in range(1, length):
            p_len *= 1.0 - 1.0 / (n - j + 1)
        p_len *= 1.0 / (n - length + 1)
        pre = list(itertools.product(range(4), repeat=length - 1))
        for cs in pre:
            p_pre = p_len
            val_pre = 0.0
            for j, c in enumerate(cs, start=1):
                p_pre *= p[0, c]
                val_pre += log2f[j - 1, c]
            for s in range(4):
                for c in range(4):
                    prob = p_pre * 0.25 * p[s, c]
                    val = val_pre + log2f[length - 1, 4 * s + c]
                    e1 += prob * val
                    e2 += prob * val * val
                    total_p += prob
    assert abs(total_p - 1.0) < 1e-12
    return e1, e2


class TestBlockGain:
    def test_all_ones_table_gives_zero(self):
        beta, k = 0.01, 3
        anchors = tuple(
            constant_pef(beta, spot_probability(j, k))
            for j in (1, 4, 8)
        )
        table = pef.PefTable(k=k, beta=beta, j_mid=4, anchors=anchors)
        rep = pef.block_gain(table, ConditionalDistribution(np.full((4, 4), 0.25)))
        assert rep.g_block == 0.0
        assert rep.var_block == 0.0

    def test_k3_toy_matches_exact_enumeration(self, vertices, commissioning):
        nu_h = commissioning["distribution"]
        table = pef.build_pef_table(nu_h, 0.02, 3, j_mid=4)
        rep = pef.block_gain(table, nu_h)
        e1, e2 = _exact_block_moments(table, nu_h)
        beta = table.beta
        assert rep.g_block == pytest.approx(e1 / beta, rel=1e-12)
        assert rep.var_block == pytest.approx((e2 - e1 * e1) / beta**2, rel=1e-9)

    def test_monte_carlo_agreement(self, commissioning, small_table):
        nu_h = commissioning["distribution"]
        rep = pef.block_gain(small_table, nu_h)
        n = 1_000_000
        w = protocol.simulate_run_witness(small_table, nu_h, n, seed=2024, stream=9)
        se = math.sqrt(rep.var_block / n)
        assert abs(w.mean() - rep.g_block) < 4.0 * se
        assert w.var() == pytest.approx(rep.var_block, rel=0.05)


class TestChaining:
    def test_block_product_inequality_exact_k2(self, vertices, commissioning):
        """Chained per-trial PEFs satisfy the block-level inequality.

        Full enumeration of every k=2 block against per-position models
        drawn as random vertex mixtures (the trial distributions may differ
        across positions).
        """
        k, beta = 2, 0.05
        n = 2**k
        table = pef.build_pef_table(commissioning["distribution"], beta, k, j_mid=2)
        log2f = table.log2_f(np.arange(1, n + 1))
        rng = np.random.default_rng(17)
        for _case in range(10):
            mus = [random_polytope_point(rng, vertices).table for _ in range(n)]
            total = 0.0
            for length in range(1, n + 1):
                p_len = 1.0
                for j in range(1, length):
                    p_len *= 1.0 - 1.0 / (n - j + 1)
                p_len *= 1.0 / (n - length + 1)
                for cs in itertools.product(range(4), repeat=length - 1):
                    base_p = p_len
                    base_v = 1.0
                    for j, c in enumerate(cs, start=1):
                        base_p *= mus[j - 1][0, c]
                        base_v *= 2.0 ** log2f[j - 1, c] * mus[j - 1][0, c] ** beta
                    for s in range(4):
                        for c in range(4):
                            prob = base_p * 0.25 * mus[length - 1][s, c]
                            val = (
                                base_v
                                * 2.0 ** log2f[length - 1, 4 * s + c]
                                * mus[length - 1][s, c] ** beta
                            )
                            total += prob * val
            assert total <= 1.0 + 1e-10


class TestEntropyCertificate:
    def test_trivial_reduction(self):
        out = pef.entropy_certificate(0.0, 0.5, eps_s=0.01, kappa=1.0)
        assert out == pytest.approx(math.log2(0.01) / 0.5)
        assert out < 0

    def test_kappa_doubling_adds_exactly(self):
        beta = 0.2
        lo = pef.entropy_certificate(3.0, beta, 0.5, 0.25)
        hi = pef.entropy_certificate(3.0, beta, 0.5, 0.5)
        assert hi - lo == pytest.approx((1 + beta) / beta, rel=1e-12)

    def test_production_entropy_budget(self):
        beta = PAPER_BETA
        g_min = 1_616_998_677
        eps, eps_en = 5.7e-7, 5.6822e-7
        # success at the threshold certifies sigma_in for the extractor:
        # the smoothing parameter is eps_en scaled by the success floor
        sigma_in = pef.entropy_certificate(beta * g_min, beta, eps_en / eps, eps)
        assert math.floor(sigma_in) == 1_181_264_480

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(log2_T=1.0, beta=0.0, eps_s=0.5, kappa=0.5),
            dict(log2_T=1.0, beta=0.1, eps_s=0.0, kappa=0.5),
            dict(log2_T=1.0, beta=0.1, eps_s=1.5, kappa=0.5),
            dict(log2_T=1.0, beta=0.1, eps_s=0.5, kappa=0.0),
        ],
    )
    def test_domain_errors(self, kwargs):
        with pytest.raises(pef.InvalidRegimeError):
            pef.entropy_certificate(**kwargs)


class TestSerialization:
    def test_json_roundtrip_preserves_rates(self, commissioning, production_table):
        back = pef.PefTable.from_json(production_table.to_json())
        r0 = pef.block_gain(production_table, commissioning["distribution"])
        r1 = pef.block_gain(back, commissioning["distribution"])
        assert r0.g_block == r1.g_block
        assert r0.var_block == r1.var_block

    def test_json_anchor_layout(self, production_table):
        obj = json.loads(production_table.to_json())
        assert obj["k"] == PAPER_K
        assert obj["j_mid"] == PAPER_J_MID
        assert len(obj["anchors"]) == 3
        assert all(len(a) == 16 for a in obj["anchors"])
        # outcome-major flat order: entry 1 is (outcome 00, settings 10)
        a0 = production_table.anchors[0]
        assert obj["anchors"][0][1] == a0.f[1, 0]

    def test_legacy_json_without_excess(self, production_table, commissioning):
        obj = json.loads(production_table.to_json())
        del obj["anchors_excess"]
        back = pef.PefTable.from_json(json.dumps(obj))
        r0 = pef.block_gain(production_table, commissioning["distribution"])
        r1 = pef.block_gain(back, commissioning["distribution"])
        assert r1.g_block == pytest.approx(r0.g_block, rel=1e-4)

    def test_gain_report_json(self, commissioning, small_table):
        rep = pef.block_gain(small_table, commissioning["distribution"])
        obj = json.loads(rep.to_json())
        assert obj["g_block_bits"] == rep.g_block
        assert obj["k"] == small_table.k

    @pytest.mark.parametrize(
        "change",
        [
            {"anchors_excess": 3},
            {"anchors_excess": [[0.0] * 16]},
            {"anchors_excess": [[0.0] * 16] * 3 + [[0.0] * 16]},
            {"anchors_excess": [[0.0] * 15] * 3},
            {"anchor_q": [1, 0.5, 0.2]},
            {"anchor_q": [0.125, 0.2, "1"]},
            {"k": 6.0},
            {"k": 63},
            {"j_mid": 8},
            {"beta": 0},
            {"beta": True},
        ],
    )
    def test_malformed_json_rejected(self, small_table, change):
        obj = {**json.loads(small_table.to_json()), **change}
        with pytest.raises(ValueError):
            pef.PefTable.from_json(json.dumps(obj))

    def test_anchors_must_sit_at_their_positions(self, small_table):
        first, mid, last = small_table.anchors
        with pytest.raises(ValueError, match="anchors must be PEFs"):
            pef.PefTable(small_table.k, small_table.beta, small_table.j_mid, (first, last, mid))
        with pytest.raises(ValueError, match="anchors must be PEFs"):
            pef.PefTable(small_table.k, small_table.beta, small_table.j_mid, (first, mid))


#: a valid k=3 table as ``to_json`` writes it
_TABLE = json.loads(
    pef.PefTable(
        3, 0.01, 4, tuple(constant_pef(0.01, spot_probability(j, 3)) for j in (1, 4, 8))
    ).to_json()
)


class TestLoaderFuzz:
    @given(text=json_near(_TABLE))
    @settings(max_examples=300, deadline=None)
    def test_pef_table_json(self, text):
        """Every input decodes to a table that round-trips, or raises ValueError."""
        try:
            table = pef.PefTable.from_json(text)
        except ValueError:
            return
        assert pef.PefTable.from_json(table.to_json()).to_json() == table.to_json()


# ---------------------------------------------------------------------------
# batched table construction against the former one-power code
# ---------------------------------------------------------------------------


def _masked_excess_at(table: pef.PefTable, positions) -> np.ndarray:
    """The former ``excess_at``: anchor segments picked by boolean masks."""
    j = np.asarray(positions, dtype=np.int64)
    q = 1.0 / (table.n_positions - j + 1.0)
    qa = np.array([a.position_q for a in table.anchors])
    ya = np.array([a.excess.ravel() for a in table.anchors])
    sy = pef._cell_input_weights(qa) * 4.0 * ya
    sq = pef._cell_input_weights(q) * 4.0
    out = np.empty((j.size, 16))
    for seg, lo in ((q <= qa[1], 0), (q > qa[1], 1)):
        lam = ((qa[lo + 1] - q[seg]) / (qa[lo + 1] - qa[lo]))[:, None]
        out[seg] = (lam * sy[lo] + (1 - lam) * sy[lo + 1]) / sq[seg]
    return out


def _masked_log2_f(table, positions):
    return np.log1p(table.beta * _masked_excess_at(table, positions)) / LN2


def _former_block_gain(table, nu_h) -> tuple[float, float]:
    """The former ``block_gain``: full ``(2^k, 16)`` arrays; rate and variance."""
    n = table.n_positions
    j = np.arange(1, n + 1, dtype=np.float64)
    q = 1.0 / (n - j + 1.0)
    log2f = _masked_log2_f(table, np.arange(1, n + 1))
    w = pef._cell_input_weights(q) * nu_h.table.ravel()[None, :]
    omega = (n - j + 1.0) / n
    m_j = np.einsum("ji,ji->j", w, log2f)
    s_j = np.einsum("ji,ji->j", w, log2f**2)
    m00 = log2f[:, :4] @ nu_h.table[0]
    prefix = np.concatenate(([0.0], np.cumsum(m00)[:-1]))
    e1 = float(omega @ m_j)
    e2 = float(omega @ s_j + 2.0 * (omega * m_j) @ prefix)
    return e1 / table.beta, max((e2 - e1 * e1) / table.beta**2, 0.0)


def _former_estimate(table, nu_h, n_samples=2048) -> float:
    n = table.n_positions
    pos = np.unique(np.round(np.linspace(1, n, n_samples)).astype(np.int64))
    log2f = _masked_log2_f(table, pos)
    q = 1.0 / (n - pos + 1.0)
    w = pef._cell_input_weights(q) * nu_h.table.ravel()[None, :]
    m_j = np.einsum("ji,ji->j", w, log2f)
    omega = (n - pos + 1.0) / n
    return float(np.trapezoid(omega * m_j, pos) / table.beta)


def _former_search_table(nu_h, beta, k) -> tuple[pef.PefTable, list[int]]:
    """The one-power build written out: anchors solved one by one, no anchor
    cache, and the Fibonacci bracketing step by step.  Returns the table and
    the middle-anchor positions the search scored."""
    n = 2**k

    def anchor(j):
        q = spot_probability(j, k)
        return pef.optimize_trial_pef(nu_h, q, beta, strict=False)[0]

    a1, ak = anchor(1), anchor(n)

    def table_at(jm):
        return pef.PefTable(k=k, beta=beta, j_mid=jm, anchors=(a1, anchor(jm), ak))

    cache = {}

    def score(jm):
        jm = int(min(max(jm, 2), n - 1))
        if jm not in cache:
            cache[jm] = _former_estimate(table_at(jm), nu_h)
        return cache[jm]

    grid = np.unique(np.round(np.geomspace(2, n - 1, 25)).astype(np.int64))
    best = int(grid[int(np.argmax([score(int(g)) for g in grid]))])
    gi = int(np.searchsorted(grid, best))
    lo = int(grid[max(0, gi - 1)])
    hi = int(grid[min(len(grid) - 1, gi + 1)])

    def padded(jm):  # the bracket padded to a Fibonacci length with -inf
        return score(jm) if jm <= hi else -math.inf

    # Fibonacci search on [lo, lo + F] with F the least Fibonacci number
    # (1, 2, 3, 5, ...) >= hi - lo: probes at lo + F'' and lo + F', F = F' + F''
    small, big = 1, 2
    while big < hi - lo:
        small, big = big, small + big
    width = big
    while width > 2:
        upper, lower = small, width - small
        if padded(lo + lower) < padded(lo + upper):
            lo += lower
        width, small = upper, lower
    hi = min(hi, lo + width)
    best = max(range(lo, hi + 1), key=lambda jm: (score(jm), -jm))
    return table_at(best), sorted(cache)


def _same_table(a: pef.PefTable, b: pef.PefTable) -> bool:
    return (a.k, a.beta, a.j_mid) == (b.k, b.beta, b.j_mid) and all(
        x.position_q == y.position_q and x.excess.tobytes() == y.excess.tobytes()
        for x, y in zip(a.anchors, b.anchors)
    )


class TestBatchedBuild:
    def test_search_matches_former_build(self, commissioning, monkeypatch):
        nu = commissioning["distribution"]
        scored = []
        estimate = pef._table_gain_estimate
        monkeypatch.setattr(
            pef, "_table_gain_estimate", lambda t, nu_h: scored.append(t.j_mid) or estimate(t, nu_h)
        )
        got = pef.build_pef_table(nu, 2e-8, 17, optimize_j_mid=True, strict=False)
        monkeypatch.undo()
        want, want_scored = _former_search_table(nu, 2e-8, 17)
        assert _same_table(got, want)
        # the same positions, each scored once
        assert len(scored) == len(set(scored))
        assert sorted(scored) == want_scored

    def test_many_powers_match_one_at_a_time(self, design):
        nu = design["distribution"]
        betas = [1e-9, PAPER_BETA, 3e-6, 1e-9]
        for k in (5, 17):
            many = pef.build_pef_tables(nu, betas, k, optimize_j_mid=True, strict=False)
            for beta, (table, estimate) in zip(betas, many):
                one = pef.build_pef_table(nu, beta, k, optimize_j_mid=True, strict=False)
                assert _same_table(table, one)
                assert estimate == pef._table_gain_estimate(one, nu)

    def test_fixed_middle_anchor(self, commissioning, production_table):
        nu = commissioning["distribution"]
        ((got, estimate),) = pef.build_pef_tables(nu, [PAPER_BETA], PAPER_K, j_mid=PAPER_J_MID)
        assert _same_table(got, production_table)
        assert estimate is None

    def test_excess_at_matches_masked_form(self, production_table):
        t = production_table
        rng = np.random.default_rng(11)
        for js in (np.arange(1, 2**17 + 1), rng.integers(1, 2**17 + 1, 5000)):
            assert t.excess_at(js).tobytes() == _masked_excess_at(t, js).tobytes()

    def test_rates_match_former_formulas(self, commissioning, production_table, small_table):
        nu = commissioning["distribution"]
        assert pef._table_gain_estimate(production_table, nu) == _former_estimate(
            production_table, nu
        )
        for t in (production_table, small_table):
            rep = pef.block_gain(t, nu)
            assert (rep.g_block, rep.var_block) == _former_block_gain(t, nu)

    def test_block_gain_row_runs_match_full_arrays(self, design):
        """Moments summed a run of rows at a time equal the full-array sums bit for bit."""
        nu = design["distribution"]
        betas = [1e-9, PAPER_BETA, 3e-6]
        for t, _ in pef.build_pef_tables(nu, betas, PAPER_K, j_mid=PAPER_J_MID):
            rep = pef.block_gain(t, nu)
            assert (rep.g_block, rep.var_block) == _former_block_gain(t, nu)
