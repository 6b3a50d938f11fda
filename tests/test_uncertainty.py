import numpy as np
import pytest

from robustsvm import (
    SINGLE_SHIFT,
    SQRT_BUDGET,
    SUM_BUDGET,
    AtomicSet,
    BoxSet,
    Dataset,
    LinearClassifier,
    NormSpec,
    SublinearSet,
    brute_force_worst_case,
    empirical_hinge,
    has_negative_margin,
    signed_margins,
    support_function,
    validate_atomic,
    worst_case_loss_lower,
    worst_case_loss_upper,
)
from robustsvm.uncertainty import _best_direction_gain

PAIR_1D = Dataset.from_arrays([[1.0], [1.0]], [1, -1])
CLF_1D = LinearClassifier([1.0], 0.0)
L2_HALF = AtomicSet(NormSpec.l2(), 0.5)


def grid_worst_single_sample(clf, ds, radius, points=20001):
    """Independent oracle for the one-perturbed-sample worst case: a plain
    1-d grid over each sample's disturbance interval."""
    base = np.maximum(1.0 - signed_margins(clf, ds), 0.0)
    best = base.sum()
    deltas = np.linspace(-radius, radius, points)
    for t in range(len(ds)):
        arg = 1.0 - ds.y[t] * (clf.w[0] * (ds.X[t, 0] - deltas) + clf.b)
        vals = base.sum() - base[t] + np.maximum(arg, 0.0)
        best = max(best, vals.max())
    return best


def test_support_function_examples():
    assert support_function(AtomicSet(NormSpec.l2(), 0.1), [3.0, 4.0]) == pytest.approx(0.5)
    assert support_function(AtomicSet(NormSpec.linf(), 2.0), [1.0, -1.0, 1.0]) == pytest.approx(6.0)
    ell = AtomicSet.ellipsoid(np.diag([4.0, 1.0]))
    assert support_function(ell, [1.0, 1.0]) == pytest.approx(np.sqrt(5.0))


def test_support_positive_homogeneity():
    rng = np.random.default_rng(4)
    atomics = [
        AtomicSet(NormSpec.l1(), 0.7),
        AtomicSet(NormSpec.l2(), 1.3),
        AtomicSet(NormSpec.linf(), 0.4),
        AtomicSet.ellipsoid([[2.0, 0.4], [0.4, 1.0]]),
    ]
    for a in atomics:
        for _ in range(40):
            w = rng.standard_normal(2)
            lam = float(rng.uniform(0, 5))
            assert support_function(a, lam * w) == pytest.approx(
                lam * support_function(a, w), rel=1e-12, abs=1e-12
            )


def test_worst_case_lower_examples():
    s0 = SublinearSet(AtomicSet(NormSpec.l2(), 0.0))
    assert worst_case_loss_lower(CLF_1D, PAIR_1D, s0) == empirical_hinge(CLF_1D, PAIR_1D)
    s = SublinearSet(L2_HALF)
    assert worst_case_loss_lower(CLF_1D, PAIR_1D, s) == pytest.approx(2.5)
    # cross-check against the independent single-sample grid oracle
    assert grid_worst_single_sample(CLF_1D, PAIR_1D, 0.5) == pytest.approx(2.5, abs=1e-4)
    zero = LinearClassifier([0.0], 0.0)
    assert worst_case_loss_lower(zero, PAIR_1D, s) == pytest.approx(2.0)


def test_worst_case_upper_examples():
    s0 = SublinearSet(AtomicSet(NormSpec.l2(), 0.0))
    assert worst_case_loss_upper(CLF_1D, PAIR_1D, s0) == empirical_hinge(CLF_1D, PAIR_1D)
    s = SublinearSet(L2_HALF)
    assert worst_case_loss_upper(CLF_1D, PAIR_1D, s) == pytest.approx(2.5)
    zero = LinearClassifier([0.0], 0.0)
    assert worst_case_loss_upper(zero, PAIR_1D, s) == pytest.approx(2.0)


def test_upper_matches_budget_split_grid_oracle():
    # Exhaustive mesh over (alpha_1, delta_hat_1, delta_hat_2) for the
    # 1-d pair instance; alpha_2 = 1 - alpha_1.
    alphas = np.linspace(0.0, 1.0, 201)
    deltas = np.linspace(-0.5, 0.5, 201)
    best = -np.inf
    for a1 in alphas:
        d1 = a1 * deltas  # sample 1 perturbation candidates
        d2 = (1 - a1) * deltas
        v1 = np.maximum(1.0 - 1.0 * (PAIR_1D.X[0, 0] - d1), 0.0).max()
        v2 = np.maximum(1.0 + 1.0 * (PAIR_1D.X[1, 0] - d2), 0.0).max()
        best = max(best, v1 + v2)
    assert best == pytest.approx(2.5, abs=1e-8)
    assert worst_case_loss_upper(CLF_1D, PAIR_1D, SublinearSet(L2_HALF)) == pytest.approx(best)


def test_brute_force_examples():
    s0 = SublinearSet(AtomicSet(NormSpec.l2(), 0.0))
    assert brute_force_worst_case(CLF_1D, PAIR_1D, s0, 50) == empirical_hinge(CLF_1D, PAIR_1D)
    s = SublinearSet(L2_HALF)
    assert brute_force_worst_case(CLF_1D, PAIR_1D, s, 200) == pytest.approx(2.5, abs=0.01)
    # m = 1 collapse: all aggregations and the box agree
    single = Dataset.from_arrays([[0.4]], [1])
    clf = LinearClassifier([2.0], -0.3)
    vals = [
        brute_force_worst_case(clf, single, SublinearSet(L2_HALF, agg), 100)
        for agg in (SUM_BUDGET, SINGLE_SHIFT, SQRT_BUDGET)
    ]
    vals.append(brute_force_worst_case(clf, single, BoxSet.replicate(L2_HALF, 1), 100))
    assert max(vals) - min(vals) < 1e-12


def _random_instances(n_instances=30, seed=123):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n_instances:
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 6))
        ds = Dataset.from_arrays(rng.normal(scale=1.5, size=(m, n)), rng.choice([-1, 1], m))
        clf = LinearClassifier(rng.standard_normal(n), float(rng.normal(scale=0.5)))
        kind = rng.choice(["l1", "l2", "linf", "ellipsoid"])
        radius = float(rng.uniform(0.05, 1.2))
        if kind == "ellipsoid":
            if n > 2:
                kind = "l2"
            else:
                out.append((ds, clf, AtomicSet.ellipsoid(np.diag(rng.uniform(0.3, 2.0, n)))))
                continue
        out.append((ds, clf, AtomicSet(NormSpec(kind), radius)))
    return out


def test_sandwich_property():
    for ds, clf, atomic in _random_instances():
        for agg in (SUM_BUDGET, SINGLE_SHIFT, SQRT_BUDGET):
            s = SublinearSet(atomic, agg)
            lower = worst_case_loss_lower(clf, ds, s)
            upper = worst_case_loss_upper(clf, ds, s)
            brute = brute_force_worst_case(clf, ds, s, 200)
            assert lower <= upper + 1e-9
            assert brute <= upper + 1e-9
            assert brute >= lower - 0.05  # discretization slack
            if agg == SINGLE_SHIFT:
                assert brute <= lower + 1e-9


def test_equality_when_negative_margin():
    hits = 0
    for ds, clf, atomic in _random_instances(seed=7):
        if not has_negative_margin(clf, ds):
            continue
        hits += 1
        s = SublinearSet(atomic)
        lower = worst_case_loss_lower(clf, ds, s)
        upper = worst_case_loss_upper(clf, ds, s)
        expected = empirical_hinge(clf, ds) + support_function(atomic, clf.w)
        assert lower == pytest.approx(upper, abs=1e-9)
        assert lower == pytest.approx(expected, abs=1e-9)
    assert hits >= 10


def test_box_dominates_sum_budget():
    for ds, clf, atomic in _random_instances(seed=77, n_instances=20):
        s = SublinearSet(atomic)
        box = BoxSet.replicate(atomic, len(ds))
        assert (
            brute_force_worst_case(clf, ds, box, 100)
            >= brute_force_worst_case(clf, ds, s, 100) - 1e-12
        )


def test_brute_force_monotone_in_resolution():
    for ds, clf, atomic in _random_instances(seed=5, n_instances=10):
        s = SublinearSet(atomic)
        vals = [brute_force_worst_case(clf, ds, s, res) for res in (25, 50, 100, 200)]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-12


def test_brute_force_sum_budget_on_a_large_set():
    # The allocation grid was built by recursion to depth m, which overflowed
    # the interpreter's stack at m of about 1000.
    rng = np.random.default_rng(11)
    m = 1200
    ds = Dataset.from_arrays(rng.standard_normal((m, 2)), rng.choice([-1, 1], m))
    clf = LinearClassifier([0.8, -0.5], 0.1)
    s = SublinearSet(L2_HALF)
    brute = brute_force_worst_case(clf, ds, s, 50)
    assert worst_case_loss_lower(clf, ds, s) - 1e-9 <= brute <= worst_case_loss_upper(clf, ds, s) + 1e-9


def test_direction_grid_keeps_tiny_w_exact():
    # +-w/|w| must survive for tiny w, where the plain sum of squares underflows.
    atomic = AtomicSet(NormSpec.l2(), 1.0)
    for w in ([1.0, 3.0, 2.0], [1e-200, 3e-200, 2e-200]):
        w = np.array(w)
        ratio = _best_direction_gain(atomic, w, 4) / support_function(atomic, w)
        assert ratio == pytest.approx(1.0, abs=1e-12)


def test_brute_force_cap():
    ds = Dataset.from_arrays(np.random.default_rng(0).standard_normal((200, 2)), [1, -1] * 100)
    clf = LinearClassifier([1.0, 0.0], 0.0)
    with pytest.raises(ValueError):
        brute_force_worst_case(clf, ds, SublinearSet(L2_HALF), 10_000_000)


def test_membership_sandwich():
    rng = np.random.default_rng(10)
    atomic = AtomicSet(NormSpec.l2(), 0.8)
    m, n = 4, 2
    for agg in (SUM_BUDGET, SINGLE_SHIFT, SQRT_BUDGET):
        s = SublinearSet(atomic, agg)
        for _ in range(50):
            # members of N-: one sample perturbed inside the atomic set
            deltas = np.zeros((m, n))
            t = int(rng.integers(m))
            d = rng.standard_normal(n)
            deltas[t] = 0.8 * rng.random() * d / np.linalg.norm(d)
            assert s.contains_minus(deltas)
            assert s.contains(deltas)
            assert s.contains_plus(deltas)
        for _ in range(50):
            # members of the set itself must belong to N+
            if agg == SUM_BUDGET:
                g = rng.dirichlet(np.ones(m)) * rng.random()
            elif agg == SQRT_BUDGET:
                g = (rng.dirichlet(np.ones(m)) * rng.random()) ** 2
            else:
                g = np.zeros(m)
                g[int(rng.integers(m))] = rng.random()
            dirs = rng.standard_normal((m, n))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            deltas = dirs * (0.8 * g)[:, None]
            assert s.contains(deltas)
            assert s.contains_plus(deltas)


def test_zero_radius_degrades_to_empirical_hinge():
    atomic = AtomicSet(NormSpec.l2(), 0.0)
    s = SublinearSet(atomic)
    assert atomic.contains(np.zeros(1))
    assert not atomic.contains(np.array([1e-6]))
    assert worst_case_loss_lower(CLF_1D, PAIR_1D, s) == 2.0
    assert worst_case_loss_upper(CLF_1D, PAIR_1D, s) == 2.0
    assert brute_force_worst_case(CLF_1D, PAIR_1D, s, 64) == 2.0


def test_validate_atomic_passes():
    report = validate_atomic(AtomicSet(NormSpec.l2(), 1.0), dim=3)
    assert report.passed
    degenerate = validate_atomic(AtomicSet(NormSpec.l1(), 0.0), dim=2)
    assert degenerate.passed  # singleton {0}: 0 in set, sup == 0


class _ShiftedBall:
    """Test-only geometry violating the origin condition."""

    def __init__(self, center, radius):
        self.center = np.asarray(center, dtype=float)
        self.radius = radius

    def contains(self, delta, tol=1e-9):
        return float(np.linalg.norm(np.asarray(delta) - self.center)) <= self.radius + tol

    def support(self, w):
        w = np.asarray(w, dtype=float)
        return float(w @ self.center) + self.radius * float(np.linalg.norm(w))


def test_validate_atomic_rejects_shifted_ball():
    report = validate_atomic(_ShiftedBall([1.0, 0.0], 0.1), dim=2)
    assert not report.passed
    assert any("zero" in msg or "asymmetric" in msg for msg in report.failures)
