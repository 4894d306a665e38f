"""Polytope geometry, fitting and strength tests."""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from direx import model
from direx.model import (
    MAX_K,
    TSIRELSON_BOUND,
    ConditionalDistribution,
    CountsTable,
    MleConvergenceError,
    enumerate_extreme_points,
    fit_mle,
    is_member_T,
    pair_index,
    spot_probability,
    statistical_strength,
)
from direx.pef import _cell_input_weights
from tests.conftest import random_polytope_point

UNIFORM = ConditionalDistribution(np.full((4, 4), 0.25))


def pr_box() -> ConditionalDistribution:
    """Perfect correlations except anti-correlation at x=y=1; CHSH = 4."""
    t = np.zeros((4, 4))
    for x, y in model.PAIR_ORDER:
        s = model.pair_index(x, y)
        for a, b in model.PAIR_ORDER:
            want = (a ^ b) == (x & y)
            if want:
                t[s, model.pair_index(a, b)] = 0.5
    return ConditionalDistribution(t)


def _chsh_rows_flat() -> np.ndarray:
    """CHSH functionals as rows acting on the flat 16-vector."""
    signs = model._chsh_sign_matrix()
    out = np.zeros((8, 16))
    parity = np.array([(-1.0) ** (a + b) for a, b in model.PAIR_ORDER])
    for r in range(8):
        for s in range(4):
            out[r, 4 * s : 4 * s + 4] = signs[r, s] * parity
    return out


def _enumerate_vertices() -> tuple[np.ndarray, np.ndarray]:
    """Brute-force oracle: vertices of the half-space description.

    The equalities define an 8-dimensional affine hull; every basic solution
    of 8 of the 24 remaining inequalities (positivity and CHSH) is tested for
    feasibility.  Entries indistinguishable from 0 or 1 are snapped before
    rows are renormalised.  Returns the vertices in canonical order and the
    deterministic mask.
    """
    E, f = model._equality_system()
    chsh = _chsh_rows_flat()
    x0 = np.full(16, 0.25)  # uniform table, center of the polytope
    _, sv, vt = np.linalg.svd(E)
    null = vt[int((sv > 1e-10).sum()) :].T  # (16, 8)
    dim = null.shape[1]
    assert dim == 8

    G = np.vstack([-null, chsh @ null])
    h = np.concatenate([x0, TSIRELSON_BOUND - chsh @ x0])
    norms = np.linalg.norm(G, axis=1)
    G /= norms[:, None]
    h /= norms
    combos = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(G.shape[0]), dim)),
        dtype=np.int64,
    ).reshape(-1, dim)

    points = []
    for start in range(0, combos.shape[0], 65536):
        idx = combos[start : start + 65536]
        A = G[idx]
        ok = np.abs(np.linalg.det(A)) > 1e-9
        sols = np.linalg.solve(A[ok], h[idx][ok][..., None])[..., 0]
        points.append(sols[(sols @ G.T <= h + 1e-9).all(axis=1)])

    X = np.vstack(points) @ null.T + x0
    X[np.abs(X) < 1e-9] = 0.0
    X[np.abs(X - 1.0) < 1e-9] = 1.0
    X /= X.reshape(-1, 4, 4).sum(axis=2).repeat(4, axis=1)
    _, first = np.unique(np.round(X, 9), axis=0, return_index=True)
    X = X[np.sort(first)]
    X = X[np.lexsort(np.round(X, 12).T[::-1])]
    return X, ((X == 0.0) | (X == 1.0)).all(axis=1)


def _maximize_mixture_loglik(
    weights: np.ndarray,
    vertices: np.ndarray,
    gap_tol,
    max_iter: int,
) -> tuple[np.ndarray, np.ndarray, float, list[float]]:
    """Oracle: maximise ``sum_i w_i log(mu_i)`` over ``mu`` in conv(vertices).

    Multiplicative (EM) updates on the mixture weights, independent of the
    barrier solver's half-space description; the Frank-Wolfe
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


class TestPolytope:
    def test_closed_form_matches_brute_force(self, vertices):
        X, det_mask = _enumerate_vertices()
        assert X.shape == (80, 16)
        assert np.abs(vertices.vertices - X).max() <= 1e-14
        assert np.array_equal(vertices.deterministic_mask, det_mask)

    def test_eighty_extreme_points(self, vertices):
        assert len(vertices) == 80

    def test_sixteen_deterministic_points(self, vertices):
        assert vertices.deterministic_mask.sum() == 16
        for v in vertices.lr_vertices:
            assert set(np.unique(v)) <= {0.0, 1.0}
        # all 16 distinct deterministic strategies appear
        assert len({tuple(v) for v in vertices.lr_vertices}) == 16

    def test_all_vertices_members(self, vertices):
        for d in vertices.distributions():
            assert is_member_T(d)

    def test_nondeterministic_vertices_saturate_tsirelson(self, vertices):
        # brute-force check of all 8 CHSH combinations per vertex
        for v, det in zip(vertices.vertices, vertices.deterministic_mask):
            d = ConditionalDistribution(v.reshape(4, 4))
            top = np.abs(d.chsh_values()).max()
            if det:
                assert top <= 2.0 + 1e-9
            else:
                assert abs(top - TSIRELSON_BOUND) < 1e-9

    def test_canonical_order_is_lexicographic(self, vertices):
        keys = [tuple(np.round(v, 12)) for v in vertices.vertices]
        assert keys == sorted(keys)

    def test_cache_returns_same_object(self, vertices):
        assert enumerate_extreme_points() is vertices


class TestMembership:
    def test_uniform_is_member(self):
        assert is_member_T(UNIFORM)

    def test_pr_box_is_not(self):
        d = pr_box()
        assert d.chsh_values().max() == pytest.approx(4.0)
        assert not is_member_T(d)

    def test_commissioning_fit_is_member(self, commissioning):
        assert is_member_T(commissioning["distribution"])

    @pytest.mark.parametrize("shift,member", [(2e-9, False), (5e-10, True)])
    def test_signaling_at_the_tolerance(self, shift, member):
        t = np.full((4, 4), 0.25)
        t[0, :2] += (shift, -shift)  # Alice's a=0 marginal at x=0 now depends on y
        assert is_member_T(ConditionalDistribution(t)) is member

    def test_signaling_table_rejected(self):
        t = np.full((4, 4), 0.25)
        t[0] = [0.4, 0.1, 0.4, 0.1]  # Alice marginal now depends on y
        assert not is_member_T(ConditionalDistribution(t))


class TestInputDistribution:
    """The spot-check law ``q_j = 1/(2^k - j + 1)`` and the settings
    distribution ``nu_q`` it gives position ``j``."""

    def test_last_position_is_uniform(self):
        for k in (0, 3, 17):
            q = spot_probability(2**k, k)
            assert q == 1.0
            np.testing.assert_allclose(_cell_input_weights(q), 0.25)

    def test_first_position_k17(self):
        q = spot_probability(1, 17)
        assert q == 2.0**-17
        nu = _cell_input_weights(q).reshape(4, 4)[:, 0]
        assert nu[pair_index(0, 0)] == pytest.approx(1 - 3 / (4 * 2**17))
        assert nu[pair_index(1, 0)] == pytest.approx(1 / (4 * 2**17))

    def test_middle_position_formula(self):
        assert spot_probability(53_478, 17) == 1.0 / 77_595

    @pytest.mark.parametrize("j,k", [(0, 4), (17, 4), (2**17 + 1, 17)])
    def test_out_of_range(self, j, k):
        with pytest.raises(ValueError):
            spot_probability(j, k)
        with pytest.raises(ValueError):
            spot_probability(np.array([1, j]), k)

    def test_non_integer_positions_refused(self):
        for j in (2.5, np.array([1.0, 2.0])):
            with pytest.raises(TypeError):
                spot_probability(j, 3)

    @given(k=st.integers(0, 20), frac=st.floats(0, 1, exclude_max=True))
    @settings(max_examples=60, deadline=None)
    def test_probabilities_form_distribution(self, k, frac):
        j = 1 + int(frac * (2**k - 1))
        q = spot_probability(j, k)
        nu = _cell_input_weights(q).reshape(4, 4)[:, 0]
        assert (nu >= 0).all()
        assert nu.sum() == pytest.approx(1.0, abs=1e-12)
        assert q == pytest.approx(1.0 / (2**k - j + 1))

    @given(k=st.integers(0, MAX_K), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_array_matches_scalar_bit_for_bit(self, k, data):
        js = data.draw(st.lists(st.integers(1, 2**k), min_size=1, max_size=16))
        got = spot_probability(np.array(js), k)
        assert got.dtype == np.float64 and got.shape == (len(js),)
        for g, j in zip(got.tolist(), js):
            scalar = spot_probability(j, k)
            assert type(scalar) is float
            assert g.hex() == scalar.hex() == (1.0 / (2**k - j + 1)).hex()


class TestMle:
    def test_commissioning_golden(self, commissioning):
        fit = fit_mle(commissioning["counts"])
        np.testing.assert_allclose(
            fit.table, commissioning["distribution"].table, atol=1e-8
        )

    def test_design_golden(self, design):
        fit = fit_mle(design["counts"])
        np.testing.assert_allclose(fit.table, design["distribution"].table, atol=1e-8)

    def test_counts_proportional_to_vertex_recover_it(self, vertices):
        v = vertices.vertices[40].reshape(4, 4)
        counts = CountsTable(np.round(v * 4_000_000).astype(np.int64))
        fit = fit_mle(counts)
        assert np.abs(fit.table - v).max() < 5e-4

    def test_loglik_beats_feasible_competitors(self, vertices, commissioning):
        counts = commissioning["counts"]
        fit = fit_mle(counts)
        base = model.log_likelihood(counts, fit)
        rng = np.random.default_rng(11)
        for _ in range(25):
            other = random_polytope_point(rng, vertices)
            assert model.log_likelihood(counts, other) <= base + 1e-6 * abs(base)

    def test_empty_setting_rejected(self):
        c = np.zeros((4, 4), dtype=np.int64)
        c[0, 0] = 10
        with pytest.raises(ValueError):
            fit_mle(CountsTable(c))

    def test_iteration_cap_raises_with_best_iterate(self, commissioning, monkeypatch):
        monkeypatch.setattr(model, "FIT_REL_TOL", 1e-15)
        monkeypatch.setattr(model, "MAX_NEWTON_STEPS", 5)
        with pytest.raises(MleConvergenceError) as exc:
            fit_mle(commissioning["counts"])
        assert isinstance(exc.value.best, ConditionalDistribution)
        assert exc.value.gap > 0

    def test_em_objective_monotone(self, vertices, commissioning):
        w = commissioning["counts"].counts.ravel() / commissioning["counts"].total
        _, _, _, history = _maximize_mixture_loglik(
            w, vertices.vertices, lambda obj: 1e-12 * abs(obj), 3000
        )
        diffs = np.diff(history)
        assert (diffs >= -1e-12 * np.abs(history[:-1])).all()


def _relabel(d: ConditionalDistribution, swap_parties, flip_x, flip_a) -> ConditionalDistribution:
    t = np.empty((4, 4))
    for x, y in model.PAIR_ORDER:
        for a, b in model.PAIR_ORDER:
            xx, yy, aa, bb = x, y, a, b
            if flip_x:
                xx ^= 1
            if flip_a:
                aa ^= 1
            if swap_parties:
                xx, yy, aa, bb = yy, xx, bb, aa
            t[model.pair_index(xx, yy), model.pair_index(aa, bb)] = d.prob(a, b, x, y)
    return ConditionalDistribution(t)


class TestStatisticalStrength:
    def test_commissioning_value(self, commissioning):
        s = statistical_strength(commissioning["distribution"])
        assert s == pytest.approx(3.0329e-6, rel=5e-3)

    def test_design_value(self, design):
        s = statistical_strength(design["distribution"])
        assert s == pytest.approx(7.1891e-6, rel=5e-3)

    def test_local_deterministic_strength_zero(self, vertices):
        d = ConditionalDistribution(vertices.lr_vertices[5].reshape(4, 4))
        assert statistical_strength(d) <= 1e-12

    def test_uniform_strength_zero(self):
        assert statistical_strength(UNIFORM) <= 1e-12

    def test_iteration_cap_raises_with_best_iterate(self, commissioning, monkeypatch):
        monkeypatch.setattr(model, "STRENGTH_REL_TOL", 1e-15)
        monkeypatch.setattr(model, "MAX_NEWTON_STEPS", 3)
        with pytest.raises(MleConvergenceError) as exc:
            statistical_strength(commissioning["distribution"])
        assert is_member_T(exc.value.best)
        assert exc.value.gap > 0

    @pytest.mark.parametrize("swap,flipx,flipa", [(True, False, False), (False, True, False), (False, False, True)])
    def test_relabeling_invariance(self, commissioning, swap, flipx, flipa):
        d = commissioning["distribution"]
        s0 = statistical_strength(d)
        s1 = statistical_strength(_relabel(d, swap, flipx, flipa))
        assert s1 == pytest.approx(s0, rel=2e-3)


def _slacks(mu: np.ndarray, bound: float) -> np.ndarray:
    """Positivity and CHSH slacks of a flat table."""
    return np.concatenate([mu, bound - _chsh_rows_flat() @ mu])


def _oracle_fit(counts: CountsTable, vertices) -> tuple[np.ndarray, float]:
    w = counts.counts.ravel() / counts.total
    _, mu, _, history = _maximize_mixture_loglik(
        w, vertices.vertices, lambda obj: 1e-10 * abs(obj), 500_000
    )
    return mu, history[-1]


class TestBarrierAgainstEmOracle:
    """The barrier solver against the EM oracle, or the vertex where EM is slow."""

    @pytest.mark.parametrize("name", ["commissioning", "design"])
    def test_data_counts(self, request, vertices, name):
        counts = request.getfixturevalue(name)["counts"]
        fit, rel_gap = model._fit_mle(counts)
        assert rel_gap <= 1e-10
        mu, _ = _oracle_fit(counts, vertices)
        assert np.abs(fit.flat() - mu).max() <= 1e-9

    def test_multinomial_counts_from_random_points(self, vertices):
        rng = np.random.default_rng(2024)
        interior = 0
        for _ in range(20):
            p = random_polytope_point(rng, vertices)
            counts = CountsTable(rng.multinomial(250_000, p.flat() / 4).reshape(4, 4))
            fit, rel_gap = model._fit_mle(counts)
            assert rel_gap <= 1e-10
            mu, oracle_obj = _oracle_fit(counts, vertices)
            w = counts.counts.ravel() / counts.total
            obj = float(np.dot(w, np.log(fit.flat())))
            assert obj >= oracle_obj - 1e-10 * abs(oracle_obj)
            if _slacks(mu, TSIRELSON_BOUND).min() > 1e-6:
                interior += 1
                assert np.abs(fit.flat() - mu).max() <= 1e-9
        assert interior >= 10

    @pytest.mark.parametrize("index", [17, 40])
    def test_counts_proportional_to_vertex(self, vertices, index):
        v = vertices.vertices[index]
        at_v = ConditionalDistribution(v.reshape(4, 4))
        rng = np.random.default_rng(index)
        # rounded counts are non-signaling, so their frequencies are the
        # maximiser; multinomial ones are not, and need the barrier path
        for counts, tol in (
            (CountsTable(np.round(v.reshape(4, 4) * 4_000_000).astype(np.int64)), 1e-6),
            (CountsTable(rng.multinomial(4_000_000, v / 4).reshape(4, 4)), 3e-3),
        ):
            fit, rel_gap = model._fit_mle(counts)
            assert rel_gap <= 1e-10
            assert is_member_T(fit)
            assert np.abs(fit.flat() - v).max() <= tol
            at_vertex = model.log_likelihood(counts, at_v)
            assert model.log_likelihood(counts, fit) >= at_vertex - 1e-10 * abs(at_vertex)

    def test_sparse_counts_with_a_rare_setting(self):
        # one trial each at settings 00 and 11 against ~10^6 at the others:
        # cell weights span six decades, where a Newton system in unscaled
        # variables turns singular to working precision
        counts = CountsTable(
            np.array([[1, 0, 420677, 0], [148854, 0, 0, 0], [1, 0, 0, 903579], [1, 0, 0, 0]])
        )
        fit, rel_gap = model._fit_mle(counts)
        assert rel_gap <= 1e-10
        assert is_member_T(fit)

    def test_rare_settings_among_ten_million_trials(self, vertices):
        # the log-likelihood per trial is -3.3e-6, so the certificate asks
        # for an absolute gap of 3.3e-16; the EM oracle meets it too
        counts = CountsTable(
            np.array([[1, 0, 0, 0], [0, 0, 7196921, 0], [0, 0, 0, 2748644], [1, 0, 0, 0]])
        )
        fit, rel_gap = model._fit_mle(counts)
        assert rel_gap <= 1e-10
        assert is_member_T(fit)
        _, oracle_obj = _oracle_fit(counts, vertices)
        assert model.log_likelihood(counts, fit) / counts.total >= oracle_obj - 1e-10 * abs(
            oracle_obj
        )

    @pytest.mark.xfail(
        strict=True,
        raises=MleConvergenceError,
        reason="the certificate asks for absolute gaps of 5e-15 and 4e-17, a few "
        "ulps of the table's large entries; the barrier stalls at relative gaps "
        "of 1.5e-10 and 7.5e-10, where the EM oracle's vertex mixtures certify",
    )
    @pytest.mark.parametrize(
        "table",
        [
            [[0, 45656, 0, 0], [0, 0, 0, 1], [0, 0, 0, 88898], [0, 0, 0, 94430]],
            [[0, 0, 0, 1281419], [0, 0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 88380812]],
        ],
    )
    def test_gap_at_the_float64_floor(self, table):
        model._fit_mle(CountsTable(np.array(table)))

    @pytest.mark.parametrize(
        "case", ["commissioning", "design", "deterministic", "uniform", "vertex40", "edge"]
    )
    def test_strength(self, vertices, commissioning, design, case):
        ld = vertices.lr_vertices
        flat = {
            "commissioning": commissioning["distribution"].flat(),
            "design": design["distribution"].flat(),
            "deterministic": ld[5],
            "uniform": UNIFORM.flat(),
            "vertex40": vertices.vertices[40],
            "edge": 0.5 * (ld[3] + ld[5]),  # local, on an edge of the hull
        }[case]
        s, rel_gap = model._statistical_strength(ConditionalDistribution(flat.reshape(4, 4)))
        assert rel_gap <= 1e-3
        w = flat / 4.0
        mask = w > 0
        self_term = float(np.dot(w[mask], np.log(4.0 * w[mask])))
        _, _, _, history = _maximize_mixture_loglik(
            w, ld, lambda obj: max(1e-4 * (self_term - obj), 1e-15), 200_000
        )
        oracle = max((self_term - history[-1]) / math.log(2.0), 0.0)
        assert s == pytest.approx(oracle, rel=1e-3, abs=1e-12)


class TestSerialization:
    def test_distribution_json_roundtrip(self, commissioning):
        d = commissioning["distribution"]
        back = ConditionalDistribution.from_json(d.to_json())
        np.testing.assert_array_equal(back.table, d.table)

    def test_distribution_csv_roundtrip(self, commissioning):
        d = commissioning["distribution"]
        back = ConditionalDistribution.from_csv(d.to_csv())
        np.testing.assert_array_equal(back.table, d.table)

    def test_counts_roundtrips(self, commissioning):
        c = commissioning["counts"]
        assert CountsTable.from_json(c.to_json()).counts.tolist() == c.counts.tolist()
        assert CountsTable.from_csv(c.to_csv()).counts.tolist() == c.counts.tolist()

    def test_counts_json_layout_matches_table(self, commissioning):
        # outer rows are settings in the 00,10,01,11 order, inner outcomes
        obj = json.loads(commissioning["counts"].to_json())
        assert obj["counts"][1][1] == commissioning["counts"].count(1, 0, 1, 0)

    def test_bad_csv_header(self):
        with pytest.raises(ValueError):
            CountsTable.from_csv("a,b,c,d,e\n")

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "x,y,a,b,count\n2,0,0,0,5\n",
            "x,y,a,b,count\n0,0,0,0,5\n0,0,0,0,6\n",
            "x,y,a,b,count\n0,0,0\n",
        ],
        ids=["empty", "label-2", "repeated-cell", "short-row"],
    )
    def test_malformed_csv_rejected(self, text):
        with pytest.raises(ValueError):
            CountsTable.from_csv(text)
        with pytest.raises(ValueError):
            ConditionalDistribution.from_csv(text.replace("count", "p"))

    @pytest.mark.parametrize("text", ["[1, 2]", '{"p": 3}', '{"counts": [[1, 2]]}'])
    def test_malformed_json_rejected(self, text):
        with pytest.raises(ValueError):
            CountsTable.from_json(text)
        with pytest.raises(ValueError):
            ConditionalDistribution.from_json(text)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_probability_rejected(self, bad):
        t = np.full((4, 4), 0.25)
        t[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            ConditionalDistribution(t)


_CELLS = [(x, y, a, b) for x, y in model.PAIR_ORDER for a, b in model.PAIR_ORDER]
_LABELS = st.sampled_from(["0", "1", "0", "1", "2", "-1", " 1", "1.0", ""])
_VALUES = st.one_of(
    st.sampled_from(["0", "1", "0.25", "0.5", "", "nan", "inf", "-0.0", "1e999", "abc"]),
    st.integers(-3, 2**64).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)


@st.composite
def _csv_texts(draw):
    """Tables near the valid form: the uniform table or unit counts, mutated."""
    header = draw(st.sampled_from(["x,y,a,b,v", "x,y,a,b", "a,b,c,d,e", " x, y, a, b, p"]))
    fill = draw(st.sampled_from(["0.25", "1"]))
    rows = [[*map(str, cell), fill] for cell in _CELLS]
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(rows) - 1))
        op = draw(st.sampled_from(["drop", "repeat", "label", "value"]))
        if op == "drop":
            rows.pop(i)
        elif op == "repeat":
            rows.append(list(rows[i]))
        elif op == "label":
            rows[i][draw(st.integers(0, 3))] = draw(_LABELS)
        else:
            rows[i][4] = draw(_VALUES)
    if draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i][: draw(st.integers(0, 4))]
    return "\n".join([header, *(",".join(r) for r in rows)]) + "\n"


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=30,
)
_ENTRIES = st.one_of(
    st.sampled_from([0, 1, 0.25, 0.5, 2.5, -1, True, "1", None]),
    st.integers(-3, 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def _json_texts(draw):
    """Arbitrary JSON, or a 4x4 table under either key with some entries changed."""
    if draw(st.booleans()):
        return json.dumps(draw(_JSON))
    fill = draw(st.sampled_from([0.25, 1]))
    rows = [[fill] * 4 for _ in range(4)]
    for _ in range(draw(st.integers(0, 3))):
        rows[draw(st.integers(0, 3))][draw(st.integers(0, 3))] = draw(_ENTRIES)
    if draw(st.booleans()):
        rows = rows[: draw(st.integers(0, 3))]
    return json.dumps({draw(st.sampled_from(["p", "counts", "q"])): rows})

_JSON_VALUES = st.one_of(
    st.sampled_from([0, 1, -1, 0.5, 1e308, True, False, "1", None]),
    st.integers(-3, 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    _JSON,
)


@st.composite
def json_near(draw, base: dict) -> str:
    """Arbitrary JSON, or ``base`` with keys dropped or values, items or entries changed."""
    if draw(st.booleans()):
        return json.dumps(draw(_JSON))
    obj = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(sorted(base)))
        op = draw(st.sampled_from(["drop", "value", "item"]))
        if op == "drop":
            obj.pop(key, None)
        elif op == "value" or not isinstance(obj.get(key), list):
            obj[key] = draw(_JSON_VALUES)
        else:
            seq = obj[key]
            i = draw(st.integers(0, len(seq)))
            if i == len(seq) or draw(st.booleans()):
                seq[i : i + 1] = draw(st.lists(_JSON_VALUES, max_size=2))
            elif isinstance(seq[i], list) and seq[i]:
                seq[i][draw(st.integers(0, len(seq[i]) - 1))] = draw(_JSON_VALUES)
            else:
                seq[i] = draw(_JSON_VALUES)
    return json.dumps(obj)


def _decodes_or_rejects(cls, decode, text: str) -> None:
    """Decode to a table that round-trips through both forms, or raise ValueError."""
    try:
        table = decode(text)
    except ValueError:
        return
    assert cls.from_json(table.to_json()) == table
    assert cls.from_csv(table.to_csv()) == table


class TestLoaderFuzz:
    @given(text=st.one_of(_csv_texts(), st.text(max_size=80)))
    @settings(max_examples=300, deadline=None)
    def test_csv(self, text):
        for cls in (CountsTable, ConditionalDistribution):
            _decodes_or_rejects(cls, cls.from_csv, text)

    @given(text=st.one_of(_json_texts(), st.text(max_size=80)))
    @settings(max_examples=300, deadline=None)
    def test_json(self, text):
        for cls in (CountsTable, ConditionalDistribution):
            _decodes_or_rejects(cls, cls.from_json, text)
