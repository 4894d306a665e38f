"""Polytope geometry, fitting and strength tests."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from direx import model
from direx.model import (
    TSIRELSON_BOUND,
    ConditionalDistribution,
    CountsTable,
    InputDistribution,
    MleConvergenceError,
    enumerate_extreme_points,
    fit_mle,
    input_distribution,
    is_member_T,
    statistical_strength,
)
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
            assert is_member_T(d, tol=1e-9)

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
    def test_last_position_is_uniform(self):
        for k in (0, 3, 17):
            nu = input_distribution(2**k, k)
            assert nu.q == 1.0
            np.testing.assert_allclose(nu.probabilities, 0.25)

    def test_first_position_k17(self):
        nu = input_distribution(1, 17)
        assert nu.q == pytest.approx(2.0**-17)
        assert nu.prob(0, 0) == pytest.approx(1 - 3 / (4 * 2**17))
        assert nu.prob(1, 0) == pytest.approx(1 / (4 * 2**17))

    def test_middle_position_formula(self):
        nu = input_distribution(53_478, 17)
        assert nu.q == pytest.approx(1.0 / 77_595)

    @pytest.mark.parametrize("j,k", [(0, 4), (17, 4), (2**17 + 1, 17)])
    def test_out_of_range(self, j, k):
        with pytest.raises(ValueError):
            input_distribution(j, k)

    @given(k=st.integers(0, 20), frac=st.floats(0, 1, exclude_max=True))
    @settings(max_examples=60, deadline=None)
    def test_probabilities_form_distribution(self, k, frac):
        j = 1 + int(frac * (2**k - 1))
        nu = input_distribution(j, k)
        p = nu.probabilities
        assert (p >= 0).all()
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert nu.q == pytest.approx(1.0 / (2**k - j + 1))


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

    def test_iteration_cap_raises_with_best_iterate(self, commissioning):
        with pytest.raises(MleConvergenceError) as exc:
            fit_mle(commissioning["counts"], rel_tol=1e-15, max_iter=5)
        assert isinstance(exc.value.best, ConditionalDistribution)
        assert exc.value.gap > 0

    def test_em_objective_monotone(self, vertices, commissioning):
        w = commissioning["counts"].counts.ravel() / commissioning["counts"].total
        _, _, _, history = model._maximize_mixture_loglik(
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

    @pytest.mark.parametrize("swap,flipx,flipa", [(True, False, False), (False, True, False), (False, False, True)])
    def test_relabeling_invariance(self, commissioning, swap, flipx, flipa):
        d = commissioning["distribution"]
        s0 = statistical_strength(d)
        s1 = statistical_strength(_relabel(d, swap, flipx, flipa))
        assert s1 == pytest.approx(s0, rel=2e-3)


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
        import json

        obj = json.loads(commissioning["counts"].to_json())
        assert obj["counts"][1][1] == commissioning["counts"].count(1, 0, 1, 0)

    def test_bad_csv_header(self):
        with pytest.raises(ValueError):
            CountsTable.from_csv("a,b,c,d,e\n")
