"""Primal-dual interior-point solver for trial-PEF optimisation.

The problem is posed in deviation coordinates ``y = (F - 1)/beta``:

    maximise   (1/beta) * sum_i w_i * log1p(beta * y_i)
    subject to A y <= rho,   1 + beta * y > 0,

where row ``v`` of ``A`` collects ``nu(z) * mu_v(c|z)^(1+beta)`` over the 16
cells and ``rho_v = (1 - sum_i A_vi)/beta``.  Working with ``y`` rather than
``F`` keeps full precision at the tiny powers this protocol uses, where the
optimal ``F`` differs from 1 by parts in 1e6.

A Mehrotra predictor-corrector loop drives the KKT residuals down; an
active-set Newton polish then lands on the face and produces a certificate
from the dual decomposition

    gap = (1/beta) * sum_i w_i * h(u_i) + lam . s,    h(u) = u - 1 - ln(u),

whose two terms are nonnegative, so the bound survives floating-point
cancellation.

The loop runs on a stack of ``P`` problems of equal shape ``(M, m)`` at
once (:func:`solve_trial_pefs`; a single solve is a stack of one).  Every
product is a per-problem BLAS call with the memory layout of the one-problem
loop (``A.T`` is a transposed view, reductions are ``matmul``), each
iteration factors its normal matrix once for predictor and corrector, and a
failed factorisation is handled per problem, so each result is
bit-identical to solving that problem alone.  Converged problems leave the
stack; the polish and the face scan run per problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_LN2 = math.log(2.0)

#: absolute duality-gap floor, in the E[ln F]/beta objective units; gains of
#: interest are 1e-4 and larger, so this only matters for zero-gain inputs
GAP_FLOOR = 1e-12

#: certified relative duality gap at which a solve stops
REL_TOL = 1e-7


class PefOptimizationError(ValueError):
    """Solver failed to certify the requested optimality gap.

    ``solution`` carries the best deviation vector found, ``rel_gap`` the
    certified relative duality gap at that point.
    """

    def __init__(self, message: str, solution: np.ndarray, rel_gap: float):
        super().__init__(message)
        self.solution = solution
        self.rel_gap = rel_gap


@dataclass(frozen=True)
class PefSolution:
    """Optimal deviation vector with its optimality certificate.

    ``excess`` is the full 16-vector ``y`` (zero-weight cells are zero and
    are filled by the caller), ``gain_bits`` the certified objective
    ``E[log2 F]/beta`` and ``rel_gap`` the certified relative duality gap.
    """

    excess: np.ndarray
    gain_bits: float
    rel_gap: float
    dual: np.ndarray


def _mv(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix-vector product per problem of a stack (one gemv each)."""
    return (A @ x[..., None])[..., 0]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product per problem of a stack (one BLAS dot each)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _first_max(a, b):
    """Elementwise ``max(a, b)`` with Python's rule: ``b`` only if ``b > a``."""
    return np.where(b > a, b, a)


def _scaled(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal scaling ``d`` and ``Bs = diag(d) B diag(d)`` for conditioning."""
    d = 1.0 / np.sqrt(np.diagonal(B, axis1=-2, axis2=-1))
    return d, B * d[..., :, None] * d[..., None, :]


def _cholesky(Bs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factors of a stack and the mask of systems where it fails."""
    failed = np.zeros(len(Bs), dtype=bool)
    try:
        return np.linalg.cholesky(Bs), failed
    except np.linalg.LinAlgError:
        L = np.zeros_like(Bs)
        for p, Bp in enumerate(Bs):
            try:
                L[p] = np.linalg.cholesky(Bp)
            except np.linalg.LinAlgError:
                failed[p] = True
        return L, failed


def _solve_scaled(Bs: np.ndarray, factor, b: np.ndarray) -> np.ndarray:
    """Solve each ``Bs z = b`` of a stack through its Cholesky ``factor``.

    A system whose factorisation or triangular solve fails is solved with a
    1e-14 diagonal shift instead; the others keep their exact result.
    """
    L, failed = factor
    failed = failed.copy()
    z = np.empty_like(b)
    ok = np.flatnonzero(~failed)
    try:
        if ok.size:
            Lk = L[ok]
            z[ok] = np.linalg.solve(Lk.swapaxes(1, 2), np.linalg.solve(Lk, b[ok, :, None]))[..., 0]
    except np.linalg.LinAlgError:
        for p in ok:
            try:
                z[p] = np.linalg.solve(L[p].T, np.linalg.solve(L[p], b[p]))
            except np.linalg.LinAlgError:
                failed[p] = True
    shift = 1e-14 * np.eye(b.shape[1])
    for p in np.flatnonzero(failed):
        z[p] = np.linalg.solve(Bs[p] + shift, b[p])
    return z


def _spd_solve(B: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve B z = rhs for SPD B with diagonal scaling for conditioning."""
    with np.errstate(over="ignore", invalid="ignore"):
        d, Bs = _scaled(B[None])
        return _solve_scaled(Bs, _cholesky(Bs), rhs[None] * d)[0] * d[0]


def _certified_gaps(ws, A, r, beta, y, lam) -> np.ndarray:
    """Duality gap at (y, lam) per problem, as a sum of nonnegative terms."""
    lam = np.maximum(lam, 0.0)
    fy = 1.0 + beta[:, None] * y
    atl = _mv(A.swapaxes(1, 2), lam)
    delta = (atl * fy - ws) / ws
    s = r - _mv(A, y)
    off = (delta <= -1.0).any(axis=1)
    off |= (s < -1e-10 * np.maximum(1.0, np.abs(r))).any(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = delta - np.log1p(delta)
    gap = _dot(ws, h) / beta + _dot(lam, np.maximum(s, 0.0))
    return np.where(off, np.inf, gap)


def _phis(ws, beta, y) -> np.ndarray:
    """Objective ``sum w log1p(beta y) / beta`` per problem; -inf off-domain."""
    arg = beta[:, None] * y
    with np.errstate(divide="ignore", invalid="ignore"):
        val = _dot(ws, np.log1p(arg)) / beta
    return np.where((arg <= -1.0).any(axis=1), -np.inf, val)


def _certified_gap(ws, A, r, beta, y, lam) -> float:
    """:func:`_certified_gaps` for one problem."""
    b = np.array([beta])
    return float(_certified_gaps(ws[None], A[None], r[None], b, y[None], lam[None])[0])


def _phi_factory(ws, beta):
    b = np.array([beta])

    def phi(yv):
        return float(_phis(ws[None], b, yv[None])[0])

    return phi


def _max_steps(v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Largest step in (0, 1] keeping ``v + step * dv >= 0``, per problem."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(dv < 0, v / -dv, np.inf).min(axis=1)
    return np.where(ratio < 1.0, ratio, 1.0)


def _pdipm(ws, A, r, beta, rel_tol, max_iter=150):
    """Mehrotra predictor-corrector on a stack of problems.

    ``ws`` is ``(P, m)``, ``A`` is ``(P, M, m)``, ``r`` is ``(P, M)`` and
    ``beta`` is ``(P,)``.  Every problem follows its own iterates exactly as
    if solved alone and leaves the active stack when it converges.  Returns
    the best iterate per problem as ``(y, phi, gap, lam)`` stacks.
    """
    P, M, m = A.shape
    y = np.repeat((-1.0 / np.maximum(1.0, 2.0 * beta))[:, None], m, axis=1)
    s = r - _mv(A, y)  # strictly inside everything
    lam = np.ones((P, M))
    best = [y.copy(), _phis(ws, beta, y), np.full(P, np.inf), lam.copy()]
    # slacks can hit denormals near convergence; 1/s overflow is expected
    # there and any non-finite step is rejected by the step-length rules
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _pdipm_loop(ws, A, r, beta, rel_tol, max_iter, y, s, lam, best)
    return best


def _pdipm_loop(ws, A, r, beta, rel_tol, max_iter, y, s, lam, best):
    M = A.shape[1]
    idx = np.arange(A.shape[0])  # rows of ``best`` still being iterated
    for _ in range(max_iter):
        if not idx.size:
            break
        At = A.swapaxes(1, 2)
        b = beta[:, None]
        fy = 1.0 + b * y
        D = b * ws / fy**2
        r_d = ws / fy - _mv(At, lam)
        r_p = _mv(A, y) + s - r
        mu = _dot(lam, s) / M

        gap = _certified_gaps(ws, A, r, beta, y, lam)
        pv = _phis(ws, beta, y)
        up = gap < best[2][idx]
        for dst, src in zip(best, (y, pv, gap, lam)):
            dst[idx[up]] = src[up]
        go = ~(gap <= _first_max(rel_tol * np.abs(pv), GAP_FLOOR))
        if not go.all():
            ws, A, r, beta, idx, y, s, lam, D, r_d, r_p, mu = (
                v[go] for v in (ws, A, r, beta, idx, y, s, lam, D, r_d, r_p, mu)
            )
            if not idx.size:
                break
            At = A.swapaxes(1, 2)

        inv_s = 1.0 / s
        B = np.zeros(D.shape + D.shape[-1:])
        B[:, np.arange(D.shape[1]), np.arange(D.shape[1])] = D
        B = B + (At * (lam * inv_s)[:, None, :]) @ A
        d, Bs = _scaled(B)  # factored once for predictor and corrector
        factor = _cholesky(Bs)

        def newton(rc):
            rhs = r_d + _mv(At, inv_s * (rc - lam * r_p))
            dy = _solve_scaled(Bs, factor, rhs * d) * d
            ds = -r_p - _mv(A, dy)
            return dy, ds, inv_s * (-rc - lam * ds)

        # predictor
        rc = lam * s
        dy_a, ds_a, dl_a = newton(rc)
        ap = _max_steps(s, ds_a)[:, None]
        ad = _max_steps(lam, dl_a)[:, None]
        mu_aff = _dot(lam + ad * dl_a, s + ap * ds_a) / M
        sigma = np.array(
            [(a / u) ** 3 if u > 0 else 0.1 for a, u in zip(mu_aff.tolist(), mu.tolist())]
        )
        # corrector
        rc = lam * s + dl_a * ds_a - (sigma * mu)[:, None]
        dy, ds, dl = newton(rc)
        tau = np.where(mu > 1e-10, 0.995, 0.9999)
        ap = (tau * _max_steps(s, ds))[:, None]
        ad = (tau * _max_steps(lam, dl))[:, None]
        y = y + ap * dy
        s = s + ap * ds
        lam = lam + ad * dl
        res = _first_max(np.abs(r_p).max(axis=1), np.abs(r_d).max(axis=1))
        go = ~((mu < 1e-17) & (res < 1e-14))
        if not go.all():
            ws, A, r, beta, idx, y, s, lam = (
                v[go] for v in (ws, A, r, beta, idx, y, s, lam)
            )


def _polish(ws, A, r, beta, y0, lam0, best, act=None):
    """Exact Newton solve on the active face guessed from the dual point."""
    M, m = A.shape
    phi = _phi_factory(ws, beta)

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
                # a cell at F = 0 makes the step non-finite; ndec rejects it
                with np.errstate(divide="ignore", invalid="ignore"):
                    gradu = Z.T @ (ws / fy)
                    Hu = (Z.T * (ws / fy**2)) @ Z  # -hessian/beta, SPD
                    du = _spd_solve(Hu, gradu) / beta
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
        gap = _certified_gap(ws, A, r, beta, ycand, lam)
        if gap < best[2]:
            best = (ycand.copy(), phi(ycand), gap, lam.copy())
        scale = max(1.0, float(np.abs(lam_act).max())) if act else 1.0
        negs = [act[k_] for k_ in range(len(act)) if lam_act[k_] < -1e-9 * scale]
        if not negs:
            break
        act = [a_ for a_ in act if a_ not in negs]
    return best


def solve_trial_pef(
    w: np.ndarray, A_full: np.ndarray, rho: np.ndarray, beta: float, strict: bool = True
) -> PefSolution:
    """Optimise a trial PEF in deviation coordinates.

    ``w`` are the 16 honest joint cell probabilities (objective weights),
    ``A_full`` the (n_vertices, 16) constraint matrix and ``rho`` its
    right-hand side, all as produced by ``pef.pef_constraints``.  Cells with
    zero weight are excluded from the optimisation (their deviation is
    returned as 0) and constraint rows that do not touch the support are
    vacuous.  Raises :class:`PefOptimizationError` if the certified relative
    gap exceeds ``max(REL_TOL, 1e-6)``; with ``strict=False`` the best
    feasible iterate is returned instead together with its certified gap
    (useful for coarse design sweeps at extreme powers where float64 cannot
    certify below roughly 1e-5).  This is :func:`solve_trial_pefs` on a
    stack of one.
    """
    return solve_trial_pefs([(w, A_full, rho, beta)], strict)[0]


def solve_trial_pefs(problems, strict: bool = True) -> list[PefSolution]:
    """:func:`solve_trial_pef` for many ``(w, A_full, rho, beta)`` problems.

    Problems of equal reduced shape share one interior-point loop; each
    result is bit-identical to solving that problem alone.  The first
    failure in problem order is raised after all are solved.
    """
    reduced = [_reduce(*p) for p in problems]
    bests: list = [None] * len(reduced)
    shapes: dict[tuple[int, int], list[int]] = {}
    for i, red in enumerate(reduced):
        shapes.setdefault(red[1].shape, []).append(i)
    for ids in shapes.values():
        ws, A, r, beta = (np.stack([reduced[i][f] for i in ids]) for f in range(4))
        for row, i in enumerate(ids):  # keep one copy of each problem: the stack's
            reduced[i] = (ws[row], A[row], r[row], *reduced[i][3:])
        stack = _pdipm(ws, A, r, beta, REL_TOL)
        for row, i in enumerate(ids):
            bests[i] = tuple(v[row].copy() if v.ndim > 1 else v[row] for v in stack)
    out = [_finish(red, best, strict) for red, best in zip(reduced, bests)]
    for sol in out:
        if isinstance(sol, PefOptimizationError):
            raise sol
    return out


def _reduce(w, A_full, rho, beta):
    """Support-reduced problem ``(ws, A, r, beta, sup, keep, n_rows)``."""
    sup = w > 0
    if not sup.any():
        raise ValueError("objective weights are all zero")
    A = np.ascontiguousarray(A_full[:, sup])
    keep = (A != 0).any(axis=1)
    A = A[keep]
    r = rho[keep].astype(np.float64)
    ws = w[sup]
    m = A.shape[1]
    # the F >= 0 bounds join the constraint set so they carry dual variables
    A = np.vstack([A, -beta * np.eye(m)])
    r = np.concatenate([r, np.ones(m)])
    return ws, A, r, float(beta), sup, keep, A_full.shape[0]


def _finish(reduced, best, strict) -> PefSolution | PefOptimizationError:
    """Polish one interior-point result and certify it."""
    ws, A, r, beta, sup, keep, n_rows = reduced
    best = (best[0], float(best[1]), float(best[2]), best[3])
    m = A.shape[1]
    if best[2] > max(REL_TOL * abs(best[1]), GAP_FLOOR):
        best = _polish(ws, A, r, beta, best[0], best[3], best)
    if best[2] > max(REL_TOL * abs(best[1]), GAP_FLOOR):
        # fall back to scanning candidate faces by ascending slack
        order = np.argsort(r - A @ best[0])
        for size in range(1, min(A.shape[0], 2 * m) + 1):
            cand = [int(i) for i in order[:size]]
            best = _polish(ws, A, r, beta, best[0], best[3], best, act=cand)
            if best[2] <= max(REL_TOL * abs(best[1]), GAP_FLOOR):
                break

    y, pv, gap, lam = best
    rel_gap = gap / max(abs(pv), 1e-300)
    y_full = np.zeros(16)
    y_full[sup] = y
    lam_full = np.zeros(n_rows)
    lam_full[keep] = lam[: keep.sum()]  # bound-row duals are internal
    if not math.isfinite(gap) or gap > max(max(REL_TOL, 1e-6) * abs(pv), GAP_FLOOR):
        if strict or not math.isfinite(gap):
            return PefOptimizationError(
                f"PEF optimisation stalled with certified relative gap {rel_gap:.3e}",
                solution=y_full,
                rel_gap=rel_gap,
            )
    return PefSolution(excess=y_full, gain_bits=pv / _LN2, rel_gap=rel_gap, dual=lam_full)
