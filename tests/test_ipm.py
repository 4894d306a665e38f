"""The batched interior-point loop against the single-problem oracle.

The oracle below is the solver's former one-problem-at-a-time loop, kept
verbatim (helpers renamed with an ``_o`` prefix).  The batched loop must
reproduce it bit for bit on every problem, alone or inside any batch.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from direx import _ipm, model, pef
from direx.data import commissioning_distribution, design_distribution

# ---------------------------------------------------------------------------
# oracle: the single-problem solver
# ---------------------------------------------------------------------------


def _o_spd_solve(B: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve B z = rhs for SPD B with diagonal scaling for conditioning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _o_spd_solve_inner(B, rhs)


def _o_spd_solve_inner(B: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    d = 1.0 / np.sqrt(np.diag(B))
    Bs = B * d[:, None] * d[None, :]
    try:
        L = np.linalg.cholesky(Bs)
        z = np.linalg.solve(L.T, np.linalg.solve(L, rhs * d))
    except np.linalg.LinAlgError:
        z = np.linalg.solve(Bs + 1e-14 * np.eye(B.shape[0]), rhs * d)
    return z * d


def _o_certified_gap(ws, A, r, beta, y, lam) -> float:
    """Duality gap at (y, lam), computed as a sum of nonnegative terms."""
    lam = np.maximum(lam, 0.0)
    fy = 1.0 + beta * y
    atl = A.T @ lam
    delta = (atl * fy - ws) / ws
    if (delta <= -1.0).any():
        return math.inf
    s = r - A @ y
    if (s < -1e-10 * np.maximum(1.0, np.abs(r))).any():
        return math.inf
    h = delta - np.log1p(delta)
    return float(np.dot(ws, h)) / beta + float(np.dot(lam, np.maximum(s, 0.0)))


def _o_max_step(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0
    if not neg.any():
        return 1.0
    return min(1.0, float((v[neg] / -dv[neg]).min()))


def _o_phi_factory(ws, beta):
    def phi(yv):
        arg = beta * yv
        if (arg <= -1.0).any():
            return -math.inf
        return float(np.dot(ws, np.log1p(arg))) / beta

    return phi


def _o_pdipm(ws, A, r, beta, rel_tol, max_iter=150):
    M, m = A.shape
    phi = _o_phi_factory(ws, beta)

    y = np.full(m, -1.0 / max(1.0, 2.0 * beta))  # strictly inside everything
    s = r - A @ y
    lam = np.ones(M)
    best = (y.copy(), phi(y), math.inf, lam.copy())
    # slacks can hit denormals near convergence; 1/s overflow is expected
    # there and any non-finite step is rejected by the step-length rules
    with np.errstate(over="ignore", invalid="ignore"):
        best = _o_pdipm_loop(ws, A, r, beta, rel_tol, max_iter, y, s, lam, best, phi)
    return best


def _o_pdipm_loop(ws, A, r, beta, rel_tol, max_iter, y, s, lam, best, phi):
    M, m = A.shape
    for _ in range(max_iter):
        fy = 1.0 + beta * y
        D = beta * ws / fy**2
        r_d = ws / fy - A.T @ lam
        r_p = A @ y + s - r
        mu = float(lam @ s) / M

        gap = _o_certified_gap(ws, A, r, beta, y, lam)
        pv = phi(y)
        if gap < best[2]:
            best = (y.copy(), pv, gap, lam.copy())
        if gap <= max(rel_tol * abs(pv), _ipm.GAP_FLOOR):
            break

        inv_s = 1.0 / s
        B = np.diag(D) + (A.T * (lam * inv_s)) @ A
        # predictor
        rc = lam * s
        dy_a = _o_spd_solve(B, r_d + A.T @ (inv_s * (rc - lam * r_p)))
        ds_a = -r_p - A @ dy_a
        dl_a = inv_s * (-rc - lam * ds_a)
        ap = _o_max_step(s, ds_a)
        ad = _o_max_step(lam, dl_a)
        mu_aff = float((lam + ad * dl_a) @ (s + ap * ds_a)) / M
        sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.1
        # corrector
        rc = lam * s + dl_a * ds_a - sigma * mu
        dy = _o_spd_solve(B, r_d + A.T @ (inv_s * (rc - lam * r_p)))
        ds = -r_p - A @ dy
        dl = inv_s * (-rc - lam * ds)
        tau = 0.995 if mu > 1e-10 else 0.9999
        ap = tau * _o_max_step(s, ds)
        ad = tau * _o_max_step(lam, dl)
        y = y + ap * dy
        s = s + ap * ds
        lam = lam + ad * dl
        if mu < 1e-17 and max(np.abs(r_p).max(), np.abs(r_d).max()) < 1e-14:
            break
    return best


def _o_polish(ws, A, r, beta, y0, lam0, best, act=None):
    """Exact Newton solve on the active face guessed from the dual point."""
    M, m = A.shape
    phi = _o_phi_factory(ws, beta)

    s0 = r - A @ y0
    if act is None:
        act = [int(i) for i in range(M) if lam0[i] > s0[i]]
    for _ in range(len(act) + 2):
        if act:
            Aact = A[act]
            u_, sv_, vt_ = np.linalg.svd(Aact, full_matrices=True)
            rank = int((sv_ > 1e-12 * sv_[0]).sum()) if sv_.size else 0
            yp = vt_[:rank].T @ ((u_.T[:rank] @ r[act]) / sv_[:rank])
            Z = vt_[rank:].T
        else:
            yp = np.zeros(m)
            Z = np.eye(m)
        u = Z.T @ (y0 - yp)
        if (1.0 + beta * (yp + Z @ u) <= 0).any():
            u = np.zeros(Z.shape[1])
        if Z.shape[1]:
            for _n in range(100):
                yv = yp + Z @ u
                fy = 1.0 + beta * yv
                gradu = Z.T @ (ws / fy)
                Hu = (Z.T * (ws / fy**2)) @ Z  # -hessian/beta, SPD
                du = _o_spd_solve(Hu, gradu) / beta
                ndec = float(gradu @ du) * beta
                if not np.isfinite(ndec) or ndec <= 0:
                    break
                step = 1.0
                while step > 1e-16 and (
                    1.0 + beta * (yp + Z @ (u + step * du)) <= 0
                ).any():
                    step *= 0.5
                u = u + step * du
                if 0.5 * ndec <= 1e-18 * max(abs(phi(yv)) * beta, 1e-20):
                    break
            ycand = yp + Z @ u
        else:
            ycand = yp
        fy = 1.0 + beta * ycand
        if (fy <= 0).any():
            break  # face pins a support cell to F = 0; no valid multipliers
        if act:
            lam_act, *_ = np.linalg.lstsq(A[act].T, ws / fy, rcond=None)
        else:
            lam_act = np.zeros(0)
        lam = np.zeros(M)
        for k_, a_ in enumerate(act):
            lam[a_] = max(float(lam_act[k_]), 0.0)
        gap = _o_certified_gap(ws, A, r, beta, ycand, lam)
        if gap < best[2]:
            best = (ycand.copy(), phi(ycand), gap, lam.copy())
        scale = max(1.0, float(np.abs(lam_act).max())) if act else 1.0
        negs = [act[k_] for k_ in range(len(act)) if lam_act[k_] < -1e-9 * scale]
        if not negs:
            break
        act = [a_ for a_ in act if a_ not in negs]
    return best


def _oracle_solve(w, A_full, rho, beta, rel_tol=1e-7):
    """The former ``solve_trial_pef`` up to its certificate: ``(y, pv, gap, lam)``."""
    sup = w > 0
    A = np.ascontiguousarray(A_full[:, sup])
    keep = (A != 0).any(axis=1)
    A = A[keep]
    r = rho[keep].astype(np.float64)
    ws = w[sup]
    m = A.shape[1]
    A = np.vstack([A, -beta * np.eye(m)])
    r = np.concatenate([r, np.ones(m)])

    best = _o_pdipm(ws, A, r, beta, rel_tol)
    pdipm_best = best
    if best[2] > max(rel_tol * abs(best[1]), _ipm.GAP_FLOOR):
        best = _o_polish(ws, A, r, beta, best[0], best[3], best)
    if best[2] > max(rel_tol * abs(best[1]), _ipm.GAP_FLOOR):
        order = np.argsort(r - A @ best[0])
        for size in range(1, min(A.shape[0], 2 * m) + 1):
            cand = [int(i) for i in order[:size]]
            best = _o_polish(ws, A, r, beta, best[0], best[3], best, act=cand)
            if best[2] <= max(rel_tol * abs(best[1]), _ipm.GAP_FLOOR):
                break
    return (ws, A, r), pdipm_best, best


# ---------------------------------------------------------------------------
# fixed problems
# ---------------------------------------------------------------------------


def _distributions() -> dict[str, model.ConditionalDistribution]:
    V = model.enumerate_extreme_points()
    pr = V.vertices[int(np.flatnonzero(~V.deterministic_mask)[0])]
    return {
        "commissioning": commissioning_distribution(),
        "design": design_distribution(),
        "tsirelson": model.ConditionalDistribution(pr.reshape(4, 4)),
        "mixed": model.ConditionalDistribution((0.7 * pr + 0.3 * V.vertices[0]).reshape(4, 4)),
    }


#: (distribution, q, beta); the last two need the active-face polish
CASES = [
    ("commissioning", 2.0**-17, 4.7614e-8),
    ("commissioning", 1.0 / 53_478, 1e-10),
    ("commissioning", 1.0, 1e-5),
    ("commissioning", 1e-3, 3e-7),
    ("design", 2.0**-17, 4.7614e-8),
    ("design", 0.25, 1e-9),
    ("tsirelson", 1e-3, 1e-6),
    ("tsirelson", 0.3, 1e-10),
    ("mixed", 1e-3, 1e-6),
]


def _problem(dist, q, beta):
    d = _distributions()[dist]
    w = pef._cell_input_weights(q) * d.table.ravel()
    A, rho = pef.pef_constraints(q, beta)
    return w, A, rho, beta


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBatchedLoop:
    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-q{c[1]:.3g}-b{c[2]:.3g}")
    def test_matches_oracle_bitwise(self, case):
        w, A_full, rho, beta = _problem(*case)
        (ws, A, r), want_ipm, want = _oracle_solve(w, A_full, rho, beta)
        got_ipm = _ipm._pdipm(ws[None], A[None], r[None], np.array([beta]), 1e-7)
        assert _same(got_ipm[0][0], want_ipm[0])
        assert got_ipm[1][0] == want_ipm[1] and got_ipm[2][0] == want_ipm[2]
        assert _same(got_ipm[3][0], want_ipm[3])

        sol = _ipm.solve_trial_pef(w, A_full, rho, beta, strict=False)
        y, pv, gap, _lam = want
        assert _same(sol.excess[w > 0], y)
        assert sol.gain_bits == pv / math.log(2.0)
        assert sol.rel_gap == gap / max(abs(pv), 1e-300)

    def test_polish_cases_need_the_polish(self, monkeypatch):
        calls = []
        polish = _ipm._polish
        monkeypatch.setattr(
            _ipm, "_polish", lambda *a, **kw: calls.append(1) or polish(*a, **kw)
        )
        for case in CASES[-2:]:
            calls.clear()
            _ipm.solve_trial_pef(*_problem(*case), strict=False)
            assert calls, case

    def test_alone_equals_inside_a_shuffled_batch(self):
        problems = [_problem(*c) for c in CASES]
        betas = np.geomspace(1e-10, 1e-5, 7)
        d = commissioning_distribution()
        for q in (2.0**-17, 1e-2, 0.5):
            for b in betas:
                w = pef._cell_input_weights(q) * d.table.ravel()
                problems.append((w, *pef.pef_constraints(q, float(b)), float(b)))
        order = np.random.default_rng(7).permutation(len(problems))
        batch = _ipm.solve_trial_pefs([problems[i] for i in order], strict=False)
        for got, i in zip(batch, order):
            alone = _ipm.solve_trial_pef(*problems[i], strict=False)
            assert _same(got.excess, alone.excess)
            assert _same(got.dual, alone.dual)
            assert got.gain_bits == alone.gain_bits and got.rel_gap == alone.rel_gap

    def test_first_failure_is_raised(self):
        good = _problem("commissioning", 0.5, 1e-7)
        # y <= -20 contradicts the F >= 0 bound y >= -1/beta = -10
        bad = (np.full(16, 1 / 16), np.eye(16), np.full(16, -20.0), 0.1)
        with pytest.raises(_ipm.PefOptimizationError) as alone:
            _ipm.solve_trial_pef(*bad, strict=False)
        with pytest.raises(_ipm.PefOptimizationError) as batched:
            _ipm.solve_trial_pefs([good, bad, good], strict=False)
        assert batched.value.rel_gap == alone.value.rel_gap == math.inf
        assert _same(batched.value.solution, alone.value.solution)
