"""Subgradient minimization of c*||w|| + total hinge loss.

The objective is convex and nonsmooth, with closed-form subgradients.
Training runs plain subgradient descent with step eta0/sqrt(t) from the
zero classifier, keeps the best iterate seen (so the zero classifier's
objective m is an immediate upper bound), optionally evaluates the
suffix-averaged iterate, and finishes with a deterministic derivative-free
polish (diagonal compass search plus a shrinking local grid) that the
plain 1/sqrt(t) schedule needs in order to reach oracle-level accuracy at
desk scale.  Everything is deterministic given the config.
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
_STALL_WINDOW = 500


@dataclass(frozen=True)
class SolverConfig:
    """Subgradient solver settings; the step schedule is eta0 / sqrt(t)."""

    max_iters: int = 20_000
    eta0: float = 0.5
    tolerance: float = 1e-10
    averaging: bool = True
    polish: bool = True

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.eta0 <= 0:
            raise ValueError("eta0 must be positive")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True, eq=False)
class TrainResult:
    classifier: LinearClassifier
    objective: float
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
    training deterministic.
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


def _compass_directions(d: int) -> np.ndarray:
    if d <= 5:
        dirs = [np.array(s, dtype=float) for s in itertools.product((-1, 0, 1), repeat=d)]
        dirs = [v for v in dirs if np.any(v)]
    else:
        dirs = [v for v in np.vstack([np.eye(d), -np.eye(d)])]
        dirs.append(np.ones(d))
        dirs.append(-np.ones(d))
    D = np.vstack([v / np.linalg.norm(v) for v in dirs])
    return D


def _compass_refine(fn_batch, p: np.ndarray, f: float, h0: float, min_h: float = 1e-10,
                    extra_dirs=None):
    dirs = _compass_directions(p.shape[0])
    if extra_dirs is not None and len(extra_dirs):
        extra = np.vstack(extra_dirs)
        norms = np.linalg.norm(extra, axis=1, keepdims=True)
        dirs = np.vstack([dirs, extra / np.maximum(norms, 1e-30)])
    h = h0
    while h > min_h:
        cand = p[None, :] + h * dirs
        vals = fn_batch(cand)
        j = int(np.argmin(vals))
        if vals[j] < f - 1e-15:
            p, f = cand[j], float(vals[j])
        else:
            h *= 0.5
    return p, f


def _active_edge_directions(ds: Dataset, norm: NormSpec, c: float, p: np.ndarray,
                            tol: float = 1e-6) -> np.ndarray:
    """Directions along intersections of near-active kink planes at p.

    The objective is piecewise linear (plus the smooth L2/ellipsoidal norm
    away from 0), so its minimizers sit on intersections of hinge planes
    {margin_i = 1} and coordinate kinks of the polyhedral norms.  Null-space
    bases of small subsets of the active normals are exactly the edges a
    compass search must follow to reach such a vertex.
    """
    n = ds.dim
    w, b = p[:-1], p[-1]
    margins = ds.y * (ds.X @ w + b)
    normals = [
        np.append(ds.y[i] * ds.X[i], ds.y[i])
        for i in np.nonzero(np.abs(margins - 1.0) < tol)[0]
    ]
    if norm.kind in (NormSpec.L1, NormSpec.LINF):
        for j in np.nonzero(np.abs(w) < tol)[0]:
            e = np.zeros(n + 1)
            e[j] = 1.0
            normals.append(e)
    if not normals or len(normals) > 8:
        return np.zeros((0, n + 1))
    dirs = []
    for size in range(1, min(len(normals), n) + 1):
        for subset in itertools.combinations(range(len(normals)), size):
            A = np.vstack([normals[i] for i in subset])
            _, s, vt = np.linalg.svd(A)
            rank = int((s > 1e-12 * s[0]).sum()) if s.size else 0
            for row in vt[rank:]:
                dirs.append(row)
                dirs.append(-row)
    if not dirs:
        return np.zeros((0, n + 1))
    return np.vstack(dirs)


def _zoom_refine(fn_batch, p: np.ndarray, f: float, radius: float, stages: int = 42,
                 res: int = 7, shrink: float = 0.5):
    d = p.shape[0]
    offsets = np.array(list(itertools.product(np.linspace(-1.0, 1.0, res), repeat=d)))
    for _ in range(stages):
        cand = p[None, :] + radius * offsets
        vals = fn_batch(cand)
        j = int(np.argmin(vals))
        if vals[j] < f:
            p, f = cand[j].copy(), float(vals[j])
        radius *= shrink
    return p, f


def _subgradient_descent(ds: Dataset, norm: NormSpec, c: float, cfg: SolverConfig):
    """Core loop shared by training and the separability check.  Returns
    the best iterate by objective, iterations used, and the stall flag."""
    X, y = ds.X, ds.y.astype(float)
    n = ds.dim
    w = np.zeros(n)
    b = 0.0
    best_w, best_b = w.copy(), b
    best_obj = objective_value(ds, norm, c, w, b)
    sum_w, sum_b, n_avg = np.zeros(n), 0.0, 0
    avg_start = cfg.max_iters // 2
    last_significant = 0
    iterations = cfg.max_iters
    converged = False
    for t in range(1, cfg.max_iters + 1):
        margins = y * (X @ w + b)
        obj = c * norm_value(norm, w) + float(np.maximum(1.0 - margins, 0.0).sum())
        if obj < best_obj:
            if best_obj - obj > cfg.tolerance:
                last_significant = t
            best_obj = obj
            best_w, best_b = w.copy(), b
        if t - last_significant >= _STALL_WINDOW:
            iterations = t
            converged = True
            break
        active = margins < 1.0
        gw = c * _norm_subgradient(norm, w)
        gb = 0.0
        if np.any(active):
            ya = y[active]
            gw = gw - X[active].T @ ya
            gb = -float(ya.sum())
        step = cfg.eta0 / math.sqrt(t)
        w = w - step * gw
        b = b - step * gb
        if cfg.averaging and t > avg_start:
            sum_w += w
            sum_b += b
            n_avg += 1
    if cfg.averaging and n_avg > 0:
        aw, ab = sum_w / n_avg, sum_b / n_avg
        aobj = objective_value(ds, norm, c, aw, ab)
        if aobj < best_obj:
            best_w, best_b, best_obj = aw, ab, aobj
    return best_w, best_b, best_obj, iterations, converged


def check_separability(ds: Dataset) -> bool:
    """True iff some (w, b) puts every sample strictly on its label's side.

    Runs the subgradient scheme on the unregularized hinge and accepts iff
    the best iterate's smallest signed margin is strictly positive (direct
    evaluation; scaling preserves signs).  For tiny instances (n <= 2,
    m <= 20) an exhaustive geometric check settles the answer exactly.
    """
    labels = set(int(v) for v in ds.y)
    if len(labels) == 1:
        return True
    if ds.dim <= 2 and len(ds) <= 20:
        return _separable_exhaustive(ds)
    cfg = SolverConfig(max_iters=4000, eta0=1.0, tolerance=1e-12, averaging=False)
    X, y = ds.X, ds.y.astype(float)
    w = np.zeros(ds.dim)
    b = 0.0
    best_min_margin = -math.inf
    for t in range(1, cfg.max_iters + 1):
        margins = y * (X @ w + b)
        mm = float(margins.min())
        if mm > best_min_margin:
            best_min_margin = mm
            if mm > 0.0:
                return True
        active = margins < 1.0
        if not np.any(active):
            break
        ya = y[active]
        gw = -X[active].T @ ya
        gb = -float(ya.sum())
        step = cfg.eta0 / math.sqrt(t)
        w = w - step * gw
        b = b - step * gb
    return best_min_margin > 0.0


def _separable_exhaustive(ds: Dataset) -> bool:
    """Exact check for n <= 2: the max-margin separator of two disjoint
    hulls is supported by a closest vertex-vertex or vertex-edge pair, so
    trying each candidate and evaluating all margins settles the question."""
    pos = ds.X[ds.y == 1]
    neg = ds.X[ds.y == -1]
    if len(pos) == 0 or len(neg) == 0:
        return True

    def separates(w, b):
        return bool(np.all(ds.y * (ds.X @ w + b) > 0.0))

    candidates = []
    for p in pos:
        for q in neg:
            candidates.append((p, q))
    if ds.dim == 2:
        for points, others in ((pos, neg), (neg, pos)):
            for i in range(len(points)):
                for j in range(i + 1, len(points)):
                    a, bseg = points[i], points[j]
                    seg = bseg - a
                    denom = float(seg @ seg)
                    if denom == 0.0:
                        continue
                    for p in others:
                        ttt = float(np.clip((p - a) @ seg / denom, 0.0, 1.0))
                        proj = a + ttt * seg
                        candidates.append((p, proj))
    for p, q in candidates:
        w = p - q
        if not np.any(w):
            continue
        b = -float(w @ (p + q)) / 2.0
        if separates(w, b):
            return True
        if separates(-w, -b):
            return True
    return False


def polish_minimizer(ds: Dataset, norm: NormSpec, c: float, w, b: float):
    """Deterministic derivative-free refinement of an incumbent (w, b):
    compass search alternating with local grids (dimension <= 3) and
    edge directions of the active kink planes."""
    w = np.asarray(w, dtype=float)
    fn = lambda P: _objective_batch(ds, norm, c, P)
    p = np.append(w, b)
    obj = float(fn(p[None, :])[0])
    p, obj = _compass_refine(fn, p, obj, h0=0.25)
    if ds.dim <= 3:
        # Alternating local grids and edge-aware compass passes escape
        # the shallow kink valleys where either one alone stalls.
        for radius, edge_tol in ((0.5, 1e-3), (0.02, 1e-7)):
            p, obj = _zoom_refine(fn, p, obj, radius=radius)
            extra = _active_edge_directions(ds, norm, c, p, tol=edge_tol)
            p, obj = _compass_refine(fn, p, obj, h0=4.0 * radius, extra_dirs=extra)
    else:
        extra = _active_edge_directions(ds, norm, c, p, tol=1e-7)
        p, obj = _compass_refine(fn, p, obj, h0=0.05, extra_dirs=extra)
    return p[:-1], float(p[-1]), obj


def train_regularized(ds: Dataset, norm: NormSpec, c: float, cfg: SolverConfig) -> TrainResult:
    """Minimize c*||w|| + total hinge.  Deterministic given the config; the
    returned objective is recomputed from the returned classifier and never
    exceeds the zero classifier's value m."""
    if c < 0:
        raise ValueError("c must be nonnegative")
    w, b, obj, iterations, converged = _subgradient_descent(ds, norm, c, cfg)
    if cfg.polish:
        w, b, obj = polish_minimizer(ds, norm, c, w, b)
    clf = LinearClassifier(w, b)
    final = objective_value(ds, norm, c, clf.w, clf.b)
    return TrainResult(
        classifier=clf,
        objective=final,
        iterations_used=iterations,
        converged=converged,
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
