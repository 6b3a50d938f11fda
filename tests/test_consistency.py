import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustsvm import (
    Dataset,
    KernelSpec,
    LinearClassifier,
    NormSpec,
    PairingResult,
    SolverConfig,
    brick_pairing_lower_bound,
    gaussian_blobs,
    generalization_bound,
    kernel_generalization_bound,
    max_pairings_exact,
    rbf_feature_radius,
    run_consistency_experiment,
    train_kernel_regularized,
    train_regularized,
)
from robustsvm.matching import hopcroft_karp


def brute_max_matching(n_left, n_right, adjacency):
    """Exponential-time matching oracle for tiny graphs."""
    edges = [(u, v) for u in range(n_left) for v in adjacency[u]]
    best = 0
    for k in range(min(n_left, n_right), 0, -1):
        for combo in itertools.combinations(edges, k):
            us = {u for u, _ in combo}
            vs = {v for _, v in combo}
            if len(us) == k and len(vs) == k:
                return k
    return best


def test_matching_against_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n_left = int(rng.integers(1, 7))
        n_right = int(rng.integers(1, 7))
        adjacency = [
            sorted(int(v) for v in np.nonzero(rng.random(n_right) < 0.4)[0])
            for _ in range(n_left)
        ]
        size, pairs = hopcroft_karp(n_left, n_right, adjacency)
        assert size == brute_max_matching(n_left, n_right, adjacency)
        # the returned matching is a valid disjoint edge set
        matched = [(u, v) for u, v in enumerate(pairs) if v != -1]
        assert len(matched) == size
        assert len({v for _, v in matched}) == size
        assert all(v in adjacency[u] for u, v in matched)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30))
def test_matching_order_invariance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    adjacency = [sorted(int(v) for v in np.nonzero(rng.random(n) < 0.35)[0]) for _ in range(n)]
    size, _ = hopcroft_karp(n, n, adjacency)
    perm = rng.permutation(n)
    permuted = [adjacency[int(p)] for p in perm]
    size_perm, _ = hopcroft_karp(n, n, permuted)
    assert size == size_perm


def test_max_pairings_examples():
    train = gaussian_blobs(10, 3)
    identical = max_pairings_exact(train, train, c=1e-9)
    assert identical.matched == 10 and identical.gamma == 0.0

    t1 = Dataset.from_arrays([[0.0], [5.0]], [1, 1])
    t2 = Dataset.from_arrays([[0.5], [9.0]], [1, 1])
    res = max_pairings_exact(t1, t2, c=1.0)
    assert res.matched == 1 and res.gamma == 0.5

    pos = Dataset.from_arrays([[0.0], [0.1]], [1, 1])
    neg = Dataset.from_arrays([[0.0], [0.1]], [-1, -1])
    disjoint = max_pairings_exact(pos, neg, c=10.0)
    assert disjoint.matched == 0 and disjoint.gamma == 1.0


def test_max_pairings_2x2_exhaustive():
    # the only edge in the bipartite graph is (0, 0): |0 - 0.5| <= 1
    t1 = Dataset.from_arrays([[0.0], [5.0]], [1, 1])
    t2 = Dataset.from_arrays([[0.5], [9.0]], [1, 1])
    dists = np.abs(t1.X - t2.X.T)
    edges = [(i, j) for i in range(2) for j in range(2) if dists[i, j] <= 1.0]
    assert edges == [(0, 0)]


def test_max_pairings_order_invariant():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((12, 2))
    y = rng.choice([-1, 1], 12)
    train = Dataset.from_arrays(X, y)
    test = Dataset.from_arrays(rng.standard_normal((12, 2)), rng.choice([-1, 1], 12))
    base = max_pairings_exact(train, test, c=0.8)
    perm = rng.permutation(12)
    shuffled = Dataset.from_arrays(X[perm], y[perm])
    assert max_pairings_exact(shuffled, test, c=0.8).matched == base.matched


def test_max_pairings_monotone_in_radius():
    rng = np.random.default_rng(2)
    train = Dataset.from_arrays(rng.standard_normal((15, 2)), rng.choice([-1, 1], 15))
    test = Dataset.from_arrays(rng.standard_normal((15, 2)), rng.choice([-1, 1], 15))
    counts = [max_pairings_exact(train, test, c).matched for c in (0.1, 0.3, 0.8, 2.0, 5.0)]
    for lo, hi in zip(counts, counts[1:]):
        assert hi >= lo


def test_brick_examples():
    train = gaussian_blobs(8, 5)
    box = (np.full(2, -10.0), np.full(2, 10.0))
    identical = brick_pairing_lower_bound(train, train, c=0.5, domain_box=box)
    assert identical.matched == 8

    t1 = Dataset.from_arrays([[0.0], [5.0]], [1, 1])
    t2 = Dataset.from_arrays([[0.5], [9.0]], [1, 1])
    res = brick_pairing_lower_bound(t1, t2, c=1.0, domain_box=(np.zeros(1), np.full(1, 10.0)))
    assert res.matched == 1

    tr = Dataset.from_arrays([[0.1], [0.2], [0.3], [5.0], [6.0]], [1, 1, 1, 1, 1])
    te = Dataset.from_arrays([[0.15], [0.25], [0.35], [0.05], [0.45]], [1, 1, 1, 1, 1])
    res = brick_pairing_lower_bound(tr, te, c=1.0, domain_box=(np.zeros(1), np.full(1, 10.0)))
    assert res.matched == 3  # min(3 train, 5 test) in the first cell


def test_brick_below_exact():
    rng = np.random.default_rng(3)
    box = (np.full(2, -6.0), np.full(2, 6.0))
    for _ in range(25):
        train = Dataset.from_arrays(rng.normal(size=(20, 2)), rng.choice([-1, 1], 20))
        test = Dataset.from_arrays(rng.normal(size=(20, 2)), rng.choice([-1, 1], 20))
        c = float(rng.uniform(0.2, 2.0))
        brick = brick_pairing_lower_bound(train, test, c, box)
        exact = max_pairings_exact(train, test, c)
        assert brick.matched <= exact.matched


def test_brick_rejects_out_of_box():
    ds = Dataset.from_arrays([[5.0]], [1])
    with pytest.raises(ValueError):
        brick_pairing_lower_bound(ds, ds, 1.0, (np.zeros(1), np.ones(1)))


def test_generalization_bound_examples():
    train = gaussian_blobs(10, 4)
    clf = LinearClassifier([0.7, -0.3], 0.1)
    K = float(np.linalg.norm(train.X, axis=1).max())
    pairing = max_pairings_exact(train, train, c=1e-9)
    report = generalization_bound(clf, train, train, 1e-9, pairing, K)
    assert report.error_bound == pytest.approx(report.components[1] + report.components[2])
    assert report.test_error <= report.error_bound + 1e-12

    zero = LinearClassifier([0.0, 0.0], 0.0)
    report0 = generalization_bound(zero, train, train, 0.5, pairing, K)
    assert report0.error_bound == pytest.approx(pairing.gamma + 1.0)
    assert report0.hinge_bound == pytest.approx(pairing.gamma + 1.0)


def test_generalization_bound_validates_K():
    train = gaussian_blobs(6, 4)
    pairing = max_pairings_exact(train, train, c=1.0)
    with pytest.raises(ValueError):
        generalization_bound(LinearClassifier([1.0, 0.0], 0.0), train, train, 1.0, pairing, 1e-6)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_generalization_bound_with_huge_and_tiny_norms():
    # Squaring entries above about 1e154 overflowed the sample norms to inf,
    # and squaring a tiny w underflowed its norm to 0.
    train = Dataset.from_arrays([[1e160, 0.0], [-1e160, 0.0]], [1, -1])
    pairing = PairingResult(m=2, matched=2, gamma=0.0, method=PairingResult.EXACT)
    report = generalization_bound(LinearClassifier([1e-200, 0.0], 0.0), train, train,
                                  1.0, pairing, 2e160)
    assert report.components[1] == pytest.approx(1e-200)


def test_pairing_distances_do_not_cancel_at_large_coordinates():
    # |x|^2 + |x'|^2 - 2 x.x' lost every digit of a 0.99 gap near 1e8 and
    # overflowed to inf - inf = nan above about 1e154.
    rng = np.random.default_rng(20)
    for _ in range(50):
        x = 1e8 * (1.0 + rng.uniform(-1.0, 1.0, 2))
        d = rng.standard_normal(2)
        near = Dataset.from_arrays([x + 0.99 * d / np.linalg.norm(d)], [1])
        assert max_pairings_exact(Dataset.from_arrays([x], [1]), near, 1.0).matched == 1
    far = Dataset.from_arrays([[1e160, 0.0], [-1e160, 0.0]], [1, 1])
    assert max_pairings_exact(far, far, 1.0).matched == 2


def test_bound_holds_on_seeded_draws():
    cfg = SolverConfig()
    for seed in range(25):
        rng = np.random.default_rng(seed)
        train = gaussian_blobs(30, rng, dim=2, separation=1.5)
        test = gaussian_blobs(30, rng, dim=2, separation=1.5)
        c = 0.3
        result = train_regularized(train, NormSpec.l2(), c, cfg)
        pairing = max_pairings_exact(train, test, c)
        K = max(
            float(np.linalg.norm(train.X, axis=1).max()),
            float(np.linalg.norm(test.X, axis=1).max()),
        )
        report = generalization_bound(result.classifier, train, test, c, pairing, K)
        assert report.test_error <= report.error_bound + 1e-12
        assert report.test_avg_hinge <= report.hinge_bound + 1e-12


def test_kernel_bound_reduction_and_rbf_radius_translation():
    gamma = 0.8
    spec = KernelSpec.rbf(gamma)
    profile = lambda t: np.exp(-gamma * t * t)
    train = gaussian_blobs(20, 7, dim=2, separation=1.5)
    test = gaussian_blobs(20, 8, dim=2, separation=1.5)
    kc = train_kernel_regularized(train, spec, 0.3, SolverConfig())

    c_sample = 0.5
    c_feature = rbf_feature_radius(profile, c_sample)
    # sample-space pairing at c_sample implies feature-space pairing at c_feature
    sample_pairs = max_pairings_exact(train, test, c_sample)
    feature_pairs = max_pairings_exact(train, test, c_feature, metric=spec)
    assert feature_pairs.matched >= sample_pairs.matched

    report = kernel_generalization_bound(kc, train, test, c_feature, feature_pairs, 1.0)
    assert report.test_error <= report.error_bound + 1e-12
    assert report.test_avg_hinge <= report.hinge_bound + 1e-12

    identical = max_pairings_exact(train, train, 1e-12, metric=spec)
    rep2 = kernel_generalization_bound(kc, train, train, 0.2, identical, 1.0)
    assert rep2.error_bound == pytest.approx(0.2 * kc.norm() + rep2.components[2])


def test_kernel_bound_holds_on_seeded_draws():
    gamma = 1.0
    spec = KernelSpec.rbf(gamma)
    profile = lambda t: np.exp(-gamma * t * t)
    cfg = SolverConfig()
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        train = gaussian_blobs(24, rng, dim=2, separation=1.2)
        test = gaussian_blobs(24, rng, dim=2, separation=1.2)
        kc = train_kernel_regularized(train, spec, 0.2, cfg)
        c_feature = rbf_feature_radius(profile, 0.4)
        pairing = max_pairings_exact(train, test, c_feature, metric=spec)
        report = kernel_generalization_bound(kc, train, test, c_feature, pairing, 1.0)
        assert report.test_error <= report.error_bound + 1e-12
        assert report.test_avg_hinge <= report.hinge_bound + 1e-12


def test_consistency_experiment_degenerate_generator():
    def gen(rng, m):
        X = np.tile(np.array([[0.0, 0.0], [5.0, 5.0]]), (m // 2, 1))
        y = np.tile([1, -1], m // 2)
        return Dataset.from_arrays(X, y)

    cfg = SolverConfig()
    report = run_consistency_experiment(gen, [4, 8], lambda m: 0.5, 3, cfg, seed=0)
    assert all(r.gamma == 0.0 for r in report.records)
    assert all(r.test_error == 0.0 for r in report.records)
    assert report.bound_violations == 0


def test_consistency_experiment_trend_small():
    def gen(rng, m):
        return gaussian_blobs(m, rng, dim=2, separation=2.0, scale=1.0)

    cfg = SolverConfig()
    report = run_consistency_experiment(
        gen, [30, 120], lambda m: max(m ** -0.125, 0.05), 8, cfg, seed=0
    )
    assert report.gamma_medians_nonincreasing
    assert report.median_gamma[120] < report.median_gamma[30]
    assert report.bound_violations == 0


def test_consistency_sizes_must_increase():
    with pytest.raises(ValueError):
        run_consistency_experiment(
            lambda rng, m: gaussian_blobs(m, rng), [100, 50], lambda m: 0.1, 1,
            SolverConfig(), seed=0
        )


def test_pathological_kernel_small():
    rng = np.random.default_rng(40)
    train = gaussian_blobs(60, rng, dim=2, separation=2.0)
    test = gaussian_blobs(60, rng, dim=2, separation=2.0)
    kc = train_kernel_regularized(train, KernelSpec.indicator(), 0.01,
                                  SolverConfig())
    assert kc.total_hinge(train) < 0.1
    # off-sample decisions collapse to sgn(offset): near-coin-flip error
    assert 0.4 <= kc.error(test) <= 0.6
