"""Reference computations the benchmark checks robustsvm's outputs against.

Nothing here imports robustsvm.  Optima of the regularized hinge problem

    minimize  c * N(w) + sum_i max(0, 1 - y_i (<w, x_i> + b))

come as a certified bracket [lower, upper]: `upper` is the objective at a
primal point, and `lower` is sum(alpha) for a point alpha that satisfies the
dual constraints

    0 <= alpha <= 1,   sum_i alpha_i y_i = 0,   N*(sum_i alpha_i y_i x_i) <= c

(N* the dual norm of N), which weak duality makes a lower bound on every
primal value.  Both points come from scipy's HiGHS linear programs: for the
L1 and Linf regularizers one LP is exact; for L2 and ellipsoidal ones, and
for kernel problems, N is replaced by the maximum of a growing set of
tangent cuts.  Separability is an LP feasibility test and maximum pairings
come from networkx's Hopcroft-Karp on an edge list built here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import networkx as nx
import numpy as np
from scipy import sparse
from scipy.linalg import solve_triangular
from scipy.optimize import linprog, minimize
from scipy.spatial import cKDTree

# A bracket is accepted once upper - lower is this small relative to max(1, upper);
# it is far below the 1e-6 tolerance the checks allow the program.
BRACKET_GAP = 1e-8
_MAX_CUT_ROUNDS = 200
_HIGHS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


class Reg:
    """The regularizer N(w): 'l1', 'l2', 'linf', or 'ellipsoidal' with
    N(w) = sqrt(w' S w) for a symmetric positive-definite S."""

    def __init__(self, kind: str, shape=None):
        if kind not in ("l1", "l2", "linf", "ellipsoidal"):
            raise ValueError(f"unknown regularizer {kind!r}")
        self.kind = kind
        self.chol = None
        if kind == "ellipsoidal":
            self.chol = np.linalg.cholesky(np.asarray(shape, dtype=float))  # S = L L'

    def value(self, w) -> float:
        w = np.asarray(w, dtype=float)
        if self.kind == "l1":
            return float(np.abs(w).sum())
        if self.kind == "linf":
            return float(np.abs(w).max())
        if self.kind == "l2":
            return math.hypot(*w)
        return math.hypot(*(self.chol.T @ w))

    def dual_value(self, v) -> float:
        v = np.asarray(v, dtype=float)
        if self.kind == "l1":
            return float(np.abs(v).max())
        if self.kind == "linf":
            return float(np.abs(v).sum())
        if self.kind == "l2":
            return math.hypot(*v)
        return math.hypot(*solve_triangular(self.chol, v, lower=True))

    def initial_cuts(self, n: int) -> np.ndarray:
        """Rows d with N*(d) <= 1; for L1 and Linf their maximum is N exactly."""
        if self.kind == "l1":
            return np.array(np.meshgrid(*([[-1.0, 1.0]] * n), indexing="ij")).reshape(n, -1).T
        if self.kind == "linf":
            return np.vstack([np.eye(n), -np.eye(n)])
        u = _sphere_points(n)
        return u if self.kind == "l2" else u @ self.chol.T

    def cut(self, w) -> np.ndarray:
        """The tangent at w: d with N*(d) = 1 and <d, w> = N(w)."""
        w = np.asarray(w, dtype=float)
        if self.kind == "l2":
            return w / math.hypot(*w)
        u = self.chol.T @ w
        return self.chol @ (u / math.hypot(*u))


def _sphere_points(n: int) -> np.ndarray:
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        t = 2.0 * np.pi * np.arange(64) / 64
        return np.column_stack([np.cos(t), np.sin(t)])
    if n == 3:
        k = np.arange(256) + 0.5
        z = 1.0 - 2.0 * k / 256
        r = np.sqrt(1.0 - z * z)
        phi = np.pi * (3.0 - math.sqrt(5.0)) * k
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    return np.vstack([np.eye(n), -np.eye(n)])


@dataclass(frozen=True)
class Bracket:
    lower: float
    upper: float
    w: np.ndarray
    b: float


def hinge_objective(X, y, reg: Reg, c: float, w, b: float) -> float:
    """c * N(w) + total hinge, evaluated directly."""
    margins = y * (X @ np.asarray(w, dtype=float) + b)
    return float(c * reg.value(w) + np.maximum(1.0 - margins, 0.0).sum())


def _certified_lower(alpha, y, c: float, dual_norm_of) -> float:
    """Repair an approximate dual point so that it satisfies every dual
    constraint, then return sum(alpha), a rigorous lower bound."""
    a = np.clip(np.asarray(alpha, dtype=float), 0.0, 1.0)
    pos, neg = y > 0, y < 0
    sp, sn = a[pos].sum(), a[neg].sum()
    if sp > sn:
        a[pos] *= sn / sp
    elif sn > sp:
        a[neg] *= sp / sn
    nv = dual_norm_of(a * y)
    if nv > c:
        a *= c / nv
    return float(a.sum())


def _hinge_lp(F, y, c: float, cuts: np.ndarray):
    """LP over (w, b, t, xi): minimize c t + sum xi subject to
    xi_i >= 1 - y_i (<w, F_i> + b), xi >= 0, t >= 0 and t >= <d_k, w>.
    Returns (w, b, alpha) with alpha the hinge rows' multipliers."""
    m, n = F.shape
    hinge = sparse.hstack(
        [
            sparse.csr_matrix(-(y[:, None] * F)),
            sparse.csr_matrix(-y[:, None].astype(float)),
            sparse.csr_matrix((m, 1)),
            -sparse.identity(m, format="csr"),
        ]
    )
    k = cuts.shape[0]
    cut_rows = sparse.hstack(
        [
            sparse.csr_matrix(cuts),
            sparse.csr_matrix((k, 1)),
            sparse.csr_matrix(-np.ones((k, 1))),
            sparse.csr_matrix((k, m)),
        ]
    )
    A = sparse.vstack([hinge, cut_rows], format="csc")
    rhs = np.concatenate([-np.ones(m), np.zeros(k)])
    cost = np.concatenate([np.zeros(n + 1), [c], np.ones(m)])
    bounds = [(None, None)] * (n + 1) + [(0.0, None)] * (m + 1)
    res = linprog(cost, A_ub=A, b_ub=rhs, bounds=bounds, method="highs", options=_HIGHS)
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return res.x[:n], float(res.x[n]), -res.ineqlin.marginals[:m]


def _cutting_planes(F, y, c: float, cuts, objective, dual_norm_of, cut, exact: bool):
    """Solve the LP, certify its multipliers, evaluate its point, and add the
    tangent cut at that point until the bracket closes.  `objective(z, b)`
    returns the primal value and the point to report."""
    lower, upper, point = -math.inf, math.inf, None
    for _ in range(_MAX_CUT_ROUNDS):
        z, b, alpha = _hinge_lp(F, y, c, cuts)
        value, at = objective(z, b)
        if value < upper:
            upper, point = value, (at, b)
        lower = max(lower, _certified_lower(alpha, y, c, dual_norm_of))
        if upper - lower <= BRACKET_GAP * max(1.0, upper):
            return Bracket(lower, upper, *point)
        if exact or not np.any(z):
            break
        cuts = np.vstack([cuts, cut(z)])
    raise RuntimeError(f"reference bracket did not close: [{lower}, {upper}]")


def linear_bracket(X, y, reg: Reg, c: float) -> Bracket:
    """Certified bracket on the optimum of c * N(w) + total hinge."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    return _cutting_planes(
        X, y, c, reg.initial_cuts(X.shape[1]),
        objective=lambda w, b: (hinge_objective(X, y, reg, c, w, b), w),
        dual_norm_of=lambda v: reg.dual_value(X.T @ v),
        cut=reg.cut,
        exact=reg.kind in ("l1", "linf"),
    )


def rbf_gram(A, B, gamma: float) -> np.ndarray:
    """exp(-gamma |a - b|^2) from coordinate differences."""
    d2 = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-gamma * d2)


def kernel_bracket(K, y, c: float) -> Bracket:
    """Certified bracket on the optimum of c * sqrt(a'Ka) + total hinge of
    y_i ((K a)_i + b) over (a, b).  The returned `w` is the coefficient
    vector a of the primal point.

    With K = F F' and z = F' a the problem is L2-regularized in the rows of
    F, so the cutting-plane LP applies.  For rank above 3 it starts from
    tangent cuts around the optimal direction that SLSQP finds.  The lower
    bound is certified against K itself.
    """
    K = np.asarray(K, dtype=float)
    K = (K + K.T) / 2.0
    y = np.asarray(y, dtype=float)
    lam, V = np.linalg.eigh(K)
    keep = lam > 1e-13 * max(1.0, lam.max())
    F = V[:, keep] * np.sqrt(lam[keep])

    def dual_norm_of(v):
        return math.sqrt(max(float(v @ K @ v), 0.0))

    def objective(z, b):
        a = V[:, keep] @ (z / np.sqrt(lam[keep]))
        return float(c * dual_norm_of(a) + np.maximum(1.0 - y * (K @ a + b), 0.0).sum()), a

    r = F.shape[1]
    cuts = _sphere_points(r) if r <= 3 else _cuts_near_dual_direction(F, K, y, c)
    return _cutting_planes(F, y, c, cuts, objective, dual_norm_of, Reg("l2").cut, exact=False)


def _cuts_near_dual_direction(F, K, y, c: float) -> np.ndarray:
    """Unit vectors around the optimal direction of z, which SLSQP on the
    dual (maximize sum(alpha) subject to 0 <= alpha <= 1, sum alpha_i y_i = 0
    and (alpha y)' K (alpha y) <= c^2) finds to a few digits."""
    m, r = F.shape
    res = minimize(
        lambda a: -a.sum(),
        np.full(m, 0.5),
        jac=lambda a: -np.ones(m),
        method="SLSQP",
        bounds=[(0.0, 1.0)] * m,
        constraints=[
            {"type": "eq", "fun": lambda a: a @ y, "jac": lambda a: y},
            {"type": "ineq", "fun": lambda a: c * c - (a * y) @ K @ (a * y),
             "jac": lambda a: -2.0 * y * (K @ (a * y))},
        ],
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    cuts = [np.eye(r), -np.eye(r)]
    u = F.T @ (res.x * y)
    if np.any(u):
        u = u / math.hypot(*u)
        for eps in (1e-2, 1e-4):
            cloud = np.vstack([u + eps * np.eye(r), u - eps * np.eye(r), u])
            cuts.append(cloud / np.linalg.norm(cloud, axis=1, keepdims=True))
    return np.vstack(cuts)


def separable(X, y) -> bool:
    """LP feasibility of y_i (<w, x_i> + b) >= 1 for every i."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    A = -(y[:, None] * np.column_stack([X, np.ones(len(y))]))
    res = linprog(np.zeros(X.shape[1] + 1), A_ub=A, b_ub=-np.ones(len(y)),
                  bounds=[(None, None)] * (X.shape[1] + 1), method="highs")
    if res.status not in (0, 2):
        raise RuntimeError(f"separability LP failed: {res.message}")
    return res.status == 0


def pairing_edges(train_X, train_y, test_X, test_y, c: float):
    """Same-label (train, test) index pairs at euclidean distance <= c,
    from a k-d tree over the test points."""
    tree = cKDTree(test_X)
    edges = []
    for i, near in enumerate(tree.query_ball_point(train_X, r=c)):
        edges.extend((i, j) for j in near if test_y[j] == train_y[i])
    return edges


def max_matching(n_left: int, n_right: int, edges) -> int:
    """Maximum bipartite matching size from networkx's Hopcroft-Karp; left
    vertex i is node i and right vertex j is node n_left + j."""
    g = nx.Graph()
    g.add_nodes_from(range(n_left + n_right))
    g.add_edges_from((i, n_left + j) for i, j in edges)
    matching = nx.bipartite.hopcroft_karp_matching(g, top_nodes=range(n_left))
    return len(matching) // 2
