"""Certified minimization of c*||w|| + total hinge loss.

By the paper's equivalence, robust training is the small conic program

    minimize  c t + sum_i xi_i
    subject to  xi_i >= 1 - y_i (<w, x_i> + b),  xi >= 0,  ||w|| <= t.

One primal-dual interior-point method (Mehrotra predictor-corrector with
Nesterov-Todd scaling) solves it for every norm: the L1 and Linf epigraphs
are rows of the nonnegative orthant, L2 is one second-order cone, and an
ellipsoidal norm is L2 on the features X L (Sigma = L L', w = L v).  Kernel
training runs the same method on the Gram eigen-features.  The per-sample
slacks are eliminated, so a Newton step costs O(m n^2).

The hinge rows' multipliers alpha, repaired into a dual point (0 <= alpha
<= 1, sum_i alpha_i y_i = 0, N*(sum_i alpha_i y_i x_i) <= c), certify
sum(alpha) as a lower bound on the optimum by weak duality.  Training
stops once this certified gap is within the tolerance.  Deterministic.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Dataset,
    LinearClassifier,
    NormSpec,
    dual,
    dual_norm,
    norm_value,
)
from .reduction import robustify
from .uncertainty import SublinearSet

__all__ = [
    "SolverConfig",
    "TrainResult",
    "objective_value",
    "objective_subgradient",
    "check_separability",
    "train_regularized",
    "train_robust",
    "grid_oracle",
]

_GRID_CAP = 100_000_000
_MAX_STEPS = 100  # Newton steps per solve
_STEP_FRACTION = 0.99  # share of the distance to the cone boundary taken per step
_RIDGE = 1e-10  # relative to each column of the factored matrix
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings: training stops once the certified gap satisfies
    objective - lower_bound <= tolerance * max(1, objective)."""

    tolerance: float = 1e-10

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True, eq=False)
class TrainResult:
    """A trained classifier with lower_bound <= optimum <= objective;
    `converged` says their relative gap is within the tolerance, and
    `iterations_used` counts Newton steps.  At c = 0 on non-separable data
    the bound is usually 0: no floating-point dual point has
    sum_i alpha_i y_i x_i = 0 exactly unless the data make it so."""

    classifier: LinearClassifier
    objective: float
    lower_bound: float
    iterations_used: int
    converged: bool
    separable: bool


def objective_value(ds: Dataset, norm: NormSpec, c: float, w, b: float) -> float:
    """c*||w|| + sum_i max(1 - y_i(<w,x_i>+b), 0)."""
    w = np.asarray(w, dtype=float)
    margins = ds.y * (ds.X @ w + b)
    return float(c * norm_value(norm, w) + np.maximum(1.0 - margins, 0.0).sum())


def _norm_subgradient(norm: NormSpec, w: np.ndarray) -> np.ndarray:
    """A deterministic subgradient selection for ||w||; 0 at w = 0."""
    if not np.any(w):
        return np.zeros_like(w)
    if norm.kind == NormSpec.L2:
        return w / norm_value(norm, w)
    if norm.kind == NormSpec.L1:
        return np.sign(w)
    if norm.kind == NormSpec.LINF:
        g = np.zeros_like(w)
        j = int(np.argmax(np.abs(w)))  # lowest index among ties
        g[j] = math.copysign(1.0, w[j])
        return g
    val = norm_value(norm, w)
    return (norm.sigma_inv @ w) / val


def objective_subgradient(ds: Dataset, norm: NormSpec, c: float, w, b: float):
    """Subgradient of the regularized objective at (w, b).

    Hinge terms with margin exactly 1 take the zero branch; the norm term
    takes the zero subgradient at w = 0.  Both choices are valid and keep
    the selection deterministic.
    """
    w = np.asarray(w, dtype=float)
    margins = ds.y * (ds.X @ w + b)
    active = margins < 1.0
    gw = c * _norm_subgradient(norm, w)
    gb = 0.0
    if np.any(active):
        ya = ds.y[active].astype(float)
        gw = gw - ds.X[active].T @ ya
        gb = -float(ya.sum())
    return gw, gb


def _objective_batch(ds: Dataset, norm: NormSpec, c: float, P: np.ndarray) -> np.ndarray:
    """Objective at each row of P = [w | b]."""
    n = ds.dim
    scores = ds.X @ P[:, :n].T + P[:, n]
    hinge = np.maximum(1.0 - ds.y[:, None] * scores, 0.0).sum(axis=0)
    return c * np.atleast_1d(norm_value(norm, P[:, :n])) + hinge


# Cone algebra.  The norm rows lie in the nonnegative orthant (soc=False),
# where products are elementwise, or in one second-order cone
# {x : x_0 >= |x_1:|} (soc=True) with its Jordan product.

def _jordan(soc: bool, x, y):
    if not soc:
        return x * y
    return np.concatenate(([x @ y], x[0] * y[1:] + y[0] * x[1:]))


def _jordan_solve(soc: bool, lam, r):
    """The u with lam o u = r."""
    if not soc:
        return r / lam
    u0 = (lam[0] * r[0] - lam[1:] @ r[1:]) / _det(lam)
    return np.concatenate(([u0], (r[1:] - u0 * lam[1:]) / lam[0]))


def _det(x) -> float:
    """x_0^2 - |x_1:|^2, factored to keep its digits near the boundary."""
    r = float(np.linalg.norm(x[1:]))
    return (x[0] - r) * (x[0] + r)


def _max_step(soc: bool, x, dx) -> float:
    """Largest t with x + t dx in the cone, for x in its interior."""
    if not soc:
        neg = dx < 0.0
        return 1.0 / float((-dx[neg] / x[neg]).max()) if np.any(neg) else math.inf
    # The smallest eigenvalue of dx in the frame that maps x to the identity.
    root = math.sqrt(_det(x))
    xb = x / root
    rho0 = (xb[0] * dx[0] - xb[1:] @ dx[1:]) / root
    rho1 = dx[1:] / root - (rho0 + dx[0] / root) / (xb[0] + 1.0) * xb[1:]
    worst = float(np.linalg.norm(rho1)) - rho0
    return 1.0 / worst if worst > 0.0 else math.inf


def _nt_scaling(soc: bool, s, z):
    """Nesterov-Todd scaling: symmetric W with W z = inv(W) s; returns
    (W, inv(W))."""
    if not soc:
        d = np.sqrt(s / z)
        return np.diag(d), np.diag(1.0 / d)
    sr, zr = math.sqrt(_det(s)), math.sqrt(_det(z))
    sb, zb = s / sr, z / zr
    gamma = math.sqrt((1.0 + sb @ zb) / 2.0)
    w0 = (sb[0] + zb[0]) / (2.0 * gamma)
    w1 = (sb[1:] - zb[1:]) / (2.0 * gamma)
    eta = math.sqrt(sr / zr)
    core = np.eye(w1.size) + np.outer(w1, w1) / (1.0 + w0)
    W = np.block([[np.array([[w0]]), w1[None, :]], [w1[:, None], core]])
    Winv = np.block([[np.array([[w0]]), -w1[None, :]], [-w1[:, None], core]])
    return eta * W, Winv / eta


def _certified_lower(alpha, y, X, norm: NormSpec, c: float) -> float:
    """sum(alpha) after repairing alpha into a dual point: clip to [0, 1],
    balance the two classes so that sum alpha_i y_i = 0, then shrink until
    N*(X' (alpha y)) <= c.  Weak duality makes the result a lower bound."""
    a = np.clip(alpha, 0.0, 1.0)
    sp, sn = a[y > 0].sum(), a[y < 0].sum()
    a[(y > 0) if sp > sn else (y < 0)] *= min(sp, sn) / max(sp, sn, _TINY)
    nv = dual_norm(norm, X.T @ (a * y))
    if nv > c:
        a *= c / nv
    return float(a.sum())


def _factor(M):
    """A solver for (M'M) x = r, from the triangular factor of M with a
    tiny ridge appended (M'M is singular at c = 0 when the data do not span
    every coordinate).  Factoring M rather than forming M'M keeps the
    rounding at the level of M's rows, whose scales differ by many orders
    of magnitude near the optimum."""
    d = np.linalg.norm(M, axis=0)
    d[d == 0.0] = 1.0
    R = np.linalg.qr(np.vstack([M / d, _RIDGE * np.eye(d.size)]), mode="r")
    return lambda r: np.linalg.solve(R, np.linalg.solve(R.T, r / d)) / d


def _solve(X, y, kind: str, c: float, tol: float):
    """Minimize c*N(w) + total hinge over (w, b) for N in {L1, L2, Linf}.

    Returns (w, b, objective, lower bound, Newton steps).  The primal-dual
    pairs are the hinge rows (slacks s_h = A v + xi - 1, multipliers
    alpha), xi >= 0 (multipliers beta = 1 - alpha) and the norm rows
    (s_N = N v in the norm's cone, multipliers z); v = (w, b) followed by
    the epigraph variable t (L2, Linf) or the bounds u_j >= |w_j| (L1).
    The norm rows' scaling W is carried from step to step and updated from
    the scaled point lam = W z = inv(W') s_N, which stays away from the
    cone's boundary while s_N and z approach it.

    At c = 0 there are no norm rows, and no dual point certifies a positive
    bound unless sum_i alpha_i y_i x_i = 0 exactly, so the method stops on
    the duality measure.  Once some (w, b) has total hinge < 1, every
    margin is positive; scaled until all margins exceed 1, it attains the
    optimum 0.
    """
    m, n = X.shape
    scale = float(np.abs(X).max(initial=0.0)) or 1.0
    X = X / scale  # entries in [-1, 1]; the objective is unchanged with c / scale
    c = c / scale
    yf = y.astype(float)
    soc = kind == NormSpec.L2 and c > 0.0
    extra = 0 if c == 0.0 else (n if kind == NormSpec.L1 else 1)
    A = np.column_stack([yf[:, None] * X, yf, np.zeros((m, extra))])
    q = np.r_[np.zeros(n + 1), np.ones(extra)]
    cw = np.hstack([c * np.eye(n), np.zeros((n, 1))])
    if c == 0.0:
        N = np.zeros((0, n + 1))
    elif soc:  # (t, c w) in the second-order cone
        N = np.block([[np.zeros((1, n + 1)), np.ones((1, 1))], [cw, np.zeros((n, 1))]])
    else:  # u_j -+ c w_j >= 0 (L1) or t -+ c w_j >= 0 (Linf)
        bound = np.eye(n) if kind == NormSpec.L1 else np.ones((n, 1))
        N = np.vstack([np.hstack([-cw, bound]), np.hstack([cw, bound])])
    p = N.shape[0]
    e = np.r_[1.0, np.zeros(p - 1)] if soc else np.ones(p)  # the cone's identity
    degree = 2 * m + (1 if soc else p)

    v = q.copy()  # w = 0, b = 0, t or u = 1, so that s_N = N v = e
    xi, s_h = np.ones(m), np.ones(m)
    alpha, beta = np.full(m, 0.5), np.full(m, 0.5)
    s_N, z = N @ v, 0.5 * e
    W, Winv = _nt_scaling(soc, s_N, z)
    lam = W @ z
    base = NormSpec(kind)
    best, best_wb, lower = math.inf, (np.zeros(n), 0.0), 0.0
    for steps in range(_MAX_STEPS + 1):
        w, b = v[:n], float(v[n])
        margins = yf * (X @ w + b)
        upper = c * norm_value(base, w) + float(np.maximum(1.0 - margins, 0.0).sum())
        if c == 0.0 and upper < 1.0:  # every margin is positive: scale them past 1
            w, b = w * (2.0 / margins.min()), b * (2.0 / margins.min())
            best, best_wb = float(np.maximum(1.0 - yf * (X @ w + b), 0.0).sum()), (w, b)
            break
        if upper < best:
            best, best_wb = upper, (w, b)
        lower = max(lower, _certified_lower(alpha, yf, X, base, c))
        mu = (s_h @ alpha + xi @ beta + lam @ lam) / degree
        done = mu * degree if c == 0.0 else best - lower
        if done <= tol * max(1.0, best) or steps == _MAX_STEPS:
            break
        r_v = q - A.T @ alpha - N.T @ z
        r_xi = 1.0 - alpha - beta
        r_h = 1.0 + s_h - A @ v - xi
        r_N = Winv.T @ (s_N - N @ v)  # scaled, like every norm-row quantity below
        Nt = Winv.T @ N
        D_h, D_xi = s_h / alpha, xi / beta
        E = 1.0 / (D_h + D_xi)
        solve = _factor(np.vstack([np.sqrt(E)[:, None] * A, Nt]))

        def eliminate(r_v, r_xi, r_h, r_N, rc_h, rc_xi, rc_N):
            """Solve A'da + Nt'dz = r_v, da + db = r_xi, A dv + dxi - ds_h = r_h,
            Nt dv - ds = r_N, alpha ds_h + s_h da = rc_h, beta dxi + xi db = rc_xi
            and lam o (ds + dz) = rc_N, with the norm rows in scaled form:
            ds = inv(W') ds_N, dz = W dz_N and Nt = inv(W') N."""
            d_h, d_xi = rc_h / alpha, rc_xi / beta
            u = _jordan_solve(soc, lam, rc_N) + r_N
            g = r_h + d_h - d_xi + D_xi * r_xi
            dv = solve(A.T @ (E * g) + Nt.T @ u - r_v)
            da = E * (g - A @ dv)
            db = r_xi - da
            dxi = d_xi - D_xi * db
            return [dv, dxi, d_h - D_h * da, da, db, Nt @ dv - r_N, u - Nt @ dv]

        def direction(rc_h, rc_xi, rc_N):
            """The Newton step, refined once against the rows' residuals."""
            d = eliminate(r_v, r_xi, r_h, r_N, rc_h, rc_xi, rc_N)
            dv, dxi, dsh, da, db, ds, dz = d
            fix = eliminate(r_v - A.T @ da - Nt.T @ dz, r_xi - da - db,
                            r_h - A @ dv - dxi + dsh, r_N - Nt @ dv + ds,
                            rc_h - alpha * dsh - s_h * da, rc_xi - beta * dxi - xi * db,
                            rc_N - _jordan(soc, lam, ds + dz))
            return [x + y for x, y in zip(d, fix)]

        def longest(d):
            _, dxi, dsh, da, db, ds, dz = d
            return min(1.0, _max_step(False, np.concatenate([xi, s_h, alpha, beta]),
                                      np.concatenate([dxi, dsh, da, db])),
                       _max_step(soc, lam, ds), _max_step(soc, lam, dz))

        try:
            _, dxi, dsh, da, db, ds, dz = aff = direction(-s_h * alpha, -xi * beta,
                                                          -_jordan(soc, lam, lam))
            t = longest(aff)
            mu_aff = ((s_h + t * dsh) @ (alpha + t * da) + (xi + t * dxi) @ (beta + t * db)
                      + (lam + t * ds) @ (lam + t * dz)) / degree
            smu = (mu_aff / mu) ** 3 * mu
            d = direction(smu - s_h * alpha - dsh * da, smu - xi * beta - dxi * db,
                          smu * e - _jordan(soc, lam, lam) - _jordan(soc, ds, dz))
            t = _STEP_FRACTION * longest(d)
            dv, dxi, dsh, da, db, ds, dz = d
            Wt, Wtinv = _nt_scaling(soc, lam + t * ds, lam + t * dz)
        except (ValueError, np.linalg.LinAlgError):  # rounding reached a cone's boundary
            break
        if not (t > 1e-12 and all(np.all(np.isfinite(x)) for x in d)):
            break
        s_N, z = s_N + t * (W.T @ ds), z + t * (Winv @ dz)
        lam = Wt @ (lam + t * dz)
        W, Winv = Wt @ W, Winv @ Wtinv
        v, xi, s_h = v + t * dv, xi + t * dxi, s_h + t * dsh
        alpha, beta = alpha + t * da, beta + t * db
    return best_wb[0] / scale, best_wb[1], best, lower, steps


def check_separability(ds: Dataset) -> bool:
    """True iff some (w, b) puts every sample strictly on its label's side.

    Strictly separable data admit a (w, b) with total hinge < 1 (and the
    infimum is 0); on any other data every (w, b) leaves some margin <= 0,
    so the total hinge is at least 1.  The interior-point method at c = 0
    decides which: it stops as soon as an iterate reaches total hinge < 1.
    """
    return _solve(ds.X, ds.y, NormSpec.L2, 0.0, SolverConfig().tolerance)[2] < 1.0


def _fit(ds: Dataset, norm: NormSpec, c: float, tol: float):
    """The certified minimizer: (classifier, lower bound, Newton steps)."""
    if norm.kind != NormSpec.ELLIPSOIDAL:
        w, b, _, lower, steps = _solve(ds.X, ds.y, norm.kind, c, tol)
        return LinearClassifier(w, b), lower, steps
    L = norm._chol  # ||w|| = |inv(L) w|: L2 training on X L, then w = L v
    v, b, _, lower, steps = _solve(ds.X @ L, ds.y, NormSpec.L2, c, tol)
    return LinearClassifier(L @ v, b), lower, steps


def polish_minimizer(ds: Dataset, norm: NormSpec, c: float, w, b: float):
    """Kept by name because benchmark tooling looks it up; training does not
    call it.  Returns the better of the incumbent (w, b) and the certified
    minimizer, as (w, b, objective)."""
    clf = _fit(ds, norm, c, SolverConfig().tolerance)[0]
    mine = (clf.w, clf.b, objective_value(ds, norm, c, clf.w, clf.b))
    theirs = (np.asarray(w, dtype=float), float(b), objective_value(ds, norm, c, w, b))
    return min(mine, theirs, key=lambda r: r[2])


def train_regularized(ds: Dataset, norm: NormSpec, c: float, cfg: SolverConfig) -> TrainResult:
    """Minimize c*||w|| + total hinge with a certified lower bound.
    Deterministic; the returned objective is recomputed from the returned
    classifier."""
    if c < 0:
        raise ValueError("c must be nonnegative")
    clf, lower, steps = _fit(ds, norm, c, cfg.tolerance)
    final = objective_value(ds, norm, c, clf.w, clf.b)
    lower = min(lower, final)  # the two agree up to rounding once the gap closes
    return TrainResult(
        classifier=clf,
        objective=final,
        lower_bound=lower,
        iterations_used=steps,
        converged=final - lower <= cfg.tolerance * max(1.0, final),
        separable=check_separability(ds),
    )


def train_robust(ds: Dataset, s: SublinearSet, cfg: SolverConfig) -> TrainResult:
    """Train against a sublinear aggregated uncertainty set by reducing it
    to the equivalent regularized problem (same code path as
    `train_regularized` on the predual norm).

    The reduction is the exact worst case only on non-separable data; on
    separable data the minimized objective is the worst-case upper bound,
    and the result's `separable` flag says which case occurred.
    """
    problem = robustify(ds, s)  # validates the atomic set
    atomic = problem.atomic
    return train_regularized(ds, dual(atomic.norm), atomic.radius, cfg)


def grid_oracle(ds: Dataset, norm: NormSpec, c: float, bounds, resolution: int,
                require_origin: bool = True):
    """Exhaustive minimum of the regularized objective on a uniform grid
    over a box in (w, b)-space.  Test oracle only.

    `bounds` is either a (lo, hi) pair applied to every coordinate or a
    sequence of per-coordinate pairs; by default the box must contain the
    origin so the zero classifier's value m upper-bounds the result.
    Zoomed refinement stages around an incumbent may pass
    `require_origin=False` once a first origin-containing stage has
    established that bound.
    """
    d = ds.dim + 1
    bounds = np.asarray(bounds, dtype=float)
    if bounds.shape == (2,):
        bounds = np.tile(bounds, (d, 1))
    if bounds.shape != (d, 2):
        raise ValueError(f"bounds must be (lo, hi) or shape ({d}, 2)")
    if require_origin and (np.any(bounds[:, 0] > 0.0) or np.any(bounds[:, 1] < 0.0)):
        raise ValueError("bounds must contain the origin")
    if resolution < 2 or resolution ** d > _GRID_CAP:
        raise ValueError("grid resolution out of range")
    axes = [np.linspace(lo, hi, resolution) for lo, hi in bounds]
    best_val = math.inf
    best_point = None
    first = axes[0]
    rest = np.array(list(itertools.product(*axes[1:])))
    chunk = max(1, 2 ** 18 // rest.shape[0])  # ~2**18 evaluated points per block
    for start in range(0, first.size, chunk):
        block = first[start:start + chunk]
        P = np.column_stack(
            [
                np.repeat(block, rest.shape[0]),
                np.tile(rest, (block.size, 1)).reshape(-1, d - 1),
            ]
        )
        vals = _objective_batch(ds, norm, c, P)
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val = float(vals[j])
            best_point = P[j].copy()
    return best_point, best_val
