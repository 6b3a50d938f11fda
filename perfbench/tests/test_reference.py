"""The reference computations on instances whose answer is known."""
import math

import numpy as np
import pytest

import reference as ref
import workloads

REGS = [ref.Reg("l1"), ref.Reg("l2"), ref.Reg("linf"),
        ref.Reg("ellipsoidal", [[2.0, 0.6], [0.6, 1.0]])]


@pytest.mark.parametrize("reg", REGS, ids=lambda r: r.kind)
@pytest.mark.parametrize("c", [0.0, 0.5, 5.0])
def test_two_point_degenerate_optimum_is_two(reg, c):
    # One point carrying both labels: the two hinges sum to at least 2.
    X = np.array([[0.3, -1.2], [0.3, -1.2]])
    y = np.array([1.0, -1.0])
    br = ref.linear_bracket(X, y, reg, c)
    assert br.lower <= 2.0 + 1e-9 and br.upper >= 2.0 - 1e-9
    assert br.upper - br.lower <= 1e-8
    assert ref.hinge_objective(X, y, reg, c, br.w, br.b) == pytest.approx(br.upper, abs=1e-12)


@pytest.mark.parametrize("reg", REGS, ids=lambda r: r.kind)
@pytest.mark.parametrize("c", [0.5, 1.5, 3.0])
def test_two_separable_points(reg, c):
    # x = +-e1 with labels +-1: the margin needs w1 >= 1, so the optimum is
    # min(2, c * min{N(w) : w1 = 1}); that minimum is 1 for L1, L2 and Linf
    # and 1 / sqrt((S^-1)_11) for sqrt(w' S w).
    X = np.array([[1.0, 0.0], [-1.0, 0.0]])
    y = np.array([1.0, -1.0])
    unit = 1.0
    if reg.kind == "ellipsoidal":
        S = reg.chol @ reg.chol.T
        unit = 1.0 / math.sqrt(np.linalg.inv(S)[0, 0])
    br = ref.linear_bracket(X, y, reg, c)
    assert br.lower == pytest.approx(min(2.0, c * unit), abs=1e-8)
    assert br.upper == pytest.approx(min(2.0, c * unit), abs=1e-8)


def test_dual_norms_pair_with_their_norms():
    rng = np.random.default_rng(0)
    for reg in REGS:
        for _ in range(20):
            w, v = rng.standard_normal(2), rng.standard_normal(2)
            assert w @ v <= reg.value(w) * reg.dual_value(v) + 1e-12
            if reg.kind in ("l2", "ellipsoidal"):
                d = reg.cut(w)
                assert reg.dual_value(d) == pytest.approx(1.0)
                assert d @ w == pytest.approx(reg.value(w))


def test_linear_kernel_bracket_matches_linear_bracket():
    X, y = workloads.blobs(np.random.default_rng(3), 60, 2, 1.0)
    y = y.astype(float)
    lin = ref.linear_bracket(X, y, ref.Reg("l2"), 0.7)
    ker = ref.kernel_bracket(X @ X.T, y, 0.7)
    assert ker.lower <= lin.upper + 1e-8 and lin.lower <= ker.upper + 1e-8
    assert ker.upper == pytest.approx(lin.upper, rel=1e-8)


def test_kernel_bracket_two_point_degenerate():
    X = np.array([[0.5, 0.5], [0.5, 0.5]])
    br = ref.kernel_bracket(ref.rbf_gram(X, X, 1.0), np.array([1.0, -1.0]), 0.4)
    assert br.lower <= 2.0 + 1e-9 and br.upper >= 2.0 - 1e-9
    assert br.upper - br.lower <= 1e-8


def test_bracket_lower_bound_is_dual_feasible_on_random_data():
    # Weak duality: no primal point may go below the certified lower bound.
    rng = np.random.default_rng(1)
    X, y = workloads.blobs(rng, 200, 3, 1.0)
    y = y.astype(float)
    for reg in (ref.Reg("l1"), ref.Reg("linf"), ref.Reg("l2")):
        br = ref.linear_bracket(X, y, reg, 0.8)
        for _ in range(200):
            w, b = br.w + 0.3 * rng.standard_normal(3), br.b + 0.3 * rng.standard_normal()
            assert ref.hinge_objective(X, y, reg, 0.8, w, b) >= br.lower - 1e-9


def test_separable():
    rng = np.random.default_rng(2)
    X, y = workloads.slab(rng, 300, 3, 0.2)
    assert ref.separable(X, y)
    assert not ref.separable(np.array([[0.0, 1.0], [0.0, 1.0]]), np.array([1, -1]))
    xor = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
    assert not ref.separable(xor, np.array([1, 1, -1, -1]))


def test_pairing_edges_and_matching():
    train = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
    test = np.array([[0.0, 0.5], [0.2, 0.0], [5.0, 5.0]])
    ty = np.array([1, 1, -1])
    edges = ref.pairing_edges(train, np.array([1, 1, 1]), test, ty, 0.9)
    assert sorted(edges) == [(0, 0), (0, 1), (1, 1)]
    assert ref.max_matching(3, 3, edges) == 2
    # A star: every left vertex sees only right vertex 0.
    assert ref.max_matching(4, 4, [(i, 0) for i in range(4)]) == 1
    assert ref.max_matching(2, 2, []) == 0
