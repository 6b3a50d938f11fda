import math

import numpy as np
import pytest

from robustsvm import (
    Dataset,
    KernelClassifier,
    KernelSpec,
    NormSpec,
    SolverConfig,
    feature_distance,
    gaussian_blobs,
    gram,
    kernel_eval,
    rbf_feature_radius,
    rkhs_norm,
    sample_space_sup,
    train_kernel_regularized,
    train_regularized,
    verify_smoothness_condition,
)
from robustsvm.kernel import kernel_matrix


def test_kernel_eval_examples():
    x = np.array([0.3, -0.7])
    assert kernel_eval(KernelSpec.rbf(1.0), x, x) == 1.0
    assert kernel_eval(KernelSpec.linear(), [1.0, 2.0], [3.0, 4.0]) == 11.0
    assert kernel_eval(KernelSpec.indicator(), [1.0, 2.0], [1.0, 2.0000001]) == 0.0
    assert kernel_eval(KernelSpec.indicator(), [1.0, 2.0], [1.0, 2.0]) == 1.0
    assert kernel_eval(KernelSpec.poly(3), [1.0, 1.0], [2.0, 0.0]) == 8.0


def test_gram_examples():
    lin = gram(KernelSpec.linear(), Dataset.from_arrays([[1.0], [2.0]], [1, -1]))
    assert np.allclose(lin, [[1.0, 2.0], [2.0, 4.0]])
    ind = gram(KernelSpec.indicator(), Dataset.from_arrays([[1.0], [2.0], [3.0]], [1, -1, 1]))
    assert np.array_equal(ind, np.eye(3))
    rbf = gram(KernelSpec.rbf(0.5), gaussian_blobs(6, 0))
    assert np.allclose(np.diag(rbf), 1.0)


def test_gram_psd_across_kernels():
    rng = np.random.default_rng(11)
    specs = [KernelSpec.linear(), KernelSpec.poly(2), KernelSpec.poly(3), KernelSpec.rbf(0.8),
             KernelSpec.indicator()]
    for _ in range(10):
        m, n = int(rng.integers(2, 12)), int(rng.integers(1, 4))
        ds = Dataset.from_arrays(rng.normal(scale=1.5, size=(m, n)), rng.choice([-1, 1], m))
        for spec in specs:
            K = gram(spec, ds)
            assert np.allclose(K, K.T)
            assert float(np.linalg.eigvalsh(K).min()) >= -1e-8


def test_linear_kernel_rkhs_norm_identity():
    rng = np.random.default_rng(12)
    for _ in range(30):
        m, n = int(rng.integers(2, 10)), int(rng.integers(1, 4))
        ds = Dataset.from_arrays(rng.standard_normal((m, n)), rng.choice([-1, 1], m))
        alphas = rng.standard_normal(m)
        K = gram(KernelSpec.linear(), ds)
        assert rkhs_norm(alphas, K) == pytest.approx(
            np.linalg.norm(ds.X.T @ alphas), abs=1e-10
        )


def test_rkhs_norm_clip_and_error():
    assert rkhs_norm([1.0], np.array([[-5e-9]])) == 0.0
    with pytest.raises(ValueError):
        rkhs_norm([1.0], np.array([[-1.0]]))


def test_feature_distance_examples():
    x = np.array([0.4, 0.1])
    assert feature_distance(KernelSpec.rbf(2.0), x, x) == 0.0
    d = 1.3
    got = feature_distance(KernelSpec.rbf(1.0), [0.0], [d])
    assert got == pytest.approx(math.sqrt(2.0 - 2.0 * math.exp(-d * d)), abs=1e-12)
    assert feature_distance(KernelSpec.indicator(), [0.0], [1.0]) == pytest.approx(math.sqrt(2.0))


def test_rbf_feature_distance_identity_bulk():
    rng = np.random.default_rng(13)
    gamma = 0.9
    spec = KernelSpec.rbf(gamma)
    for _ in range(200):
        x, xp = rng.standard_normal(3), rng.standard_normal(3)
        expected = math.sqrt(2.0 - 2.0 * math.exp(-gamma * float(np.sum((x - xp) ** 2))))
        assert feature_distance(spec, x, xp) == pytest.approx(expected, abs=1e-12)


def test_verify_smoothness_condition():
    rng = np.random.default_rng(14)
    pairs = [(rng.standard_normal(2), rng.standard_normal(2)) for _ in range(100)]
    gamma = 1.3
    exact = verify_smoothness_condition(
        KernelSpec.rbf(gamma), pairs, lambda t: 2.0 - 2.0 * math.exp(-gamma * t), rho=10.0
    )
    assert exact.passed and exact.checked == 100
    linearized = verify_smoothness_condition(
        KernelSpec.rbf(gamma), pairs, lambda t: 2.0 * gamma * t, rho=10.0
    )
    assert linearized.passed
    close_pair = [(np.array([0.0, 0.0]), np.array([1e-4, 0.0]))]
    broken = verify_smoothness_condition(
        KernelSpec.indicator(), close_pair, lambda t: 2.0 * t, rho=1.0
    )
    assert not broken.passed
    with pytest.raises(ValueError):
        verify_smoothness_condition(KernelSpec.rbf(1.0), [], lambda t: t + 1.0, rho=1.0)


def test_feature_bound_from_smoothness_certificate():
    gamma = 0.7
    spec = KernelSpec.rbf(gamma)
    f = lambda t: 2.0 - 2.0 * math.exp(-gamma * t)
    rng = np.random.default_rng(15)
    for _ in range(100):
        x = rng.standard_normal(2)
        delta = rng.standard_normal(2)
        delta *= rng.uniform(0, 1.0) / np.linalg.norm(delta)
        assert feature_distance(spec, x, x + delta) <= math.sqrt(
            f(float(delta @ delta))
        ) + 1e-12


def test_rbf_feature_radius_examples():
    f = lambda t: math.exp(-t * t)
    assert rbf_feature_radius(f, 0.0) == 0.0
    assert rbf_feature_radius(f, 1.0) == pytest.approx(math.sqrt(2.0 - 2.0 * math.exp(-1.0)))
    assert rbf_feature_radius(f, 1.0) == pytest.approx(1.1244, abs=5e-5)
    assert rbf_feature_radius(f, 50.0) == pytest.approx(math.sqrt(2.0), abs=1e-9)
    with pytest.raises(ValueError):
        rbf_feature_radius(lambda t: t, 1.0)  # increasing profile rejected


def test_train_kernel_linear_matches_l2():
    for dim in (2, 3):
        ds = gaussian_blobs(12, 5, dim=dim, separation=1.0, scale=1.0)
        c = 0.5
        cfg = SolverConfig()
        lin = train_regularized(ds, NormSpec.l2(), c, cfg)
        kc = train_kernel_regularized(ds, KernelSpec.linear(), c, cfg)
        dv_lin = ds.X @ lin.classifier.w + lin.classifier.b
        assert np.abs(dv_lin - kc.decision_values(ds.X)).max() <= 1e-3
        obj_k = c * kc.norm() + kc.total_hinge(ds)
        assert obj_k == pytest.approx(lin.objective, abs=1e-6)


def test_train_kernel_poly3_matches_l2_on_explicit_features():
    # Polish stopped 1e-4 above this optimum (feature rank 4).
    ds = gaussian_blobs(40, 0, dim=2, separation=1.0)
    c = 0.5
    x1, x2 = ds.X[:, 0], ds.X[:, 1]
    r3 = math.sqrt(3.0)
    phi = np.column_stack([x1 ** 3, r3 * x1 * x1 * x2, r3 * x1 * x2 * x2, x2 ** 3])
    lin = train_regularized(Dataset.from_arrays(phi, ds.y), NormSpec.l2(), c, SolverConfig())
    kc = train_kernel_regularized(ds, KernelSpec.poly(3), c, SolverConfig())
    obj_k = c * kc.norm() + kc.total_hinge(ds)
    assert obj_k == pytest.approx(lin.objective, rel=1e-8)
    assert obj_k >= lin.lower_bound


def test_train_kernel_without_features_returns_the_best_offset():
    # A zero Gram matrix keeps no eigen-feature: a = 0, and the offset alone
    # minimizes the total hinge, 2 * min(#positive, #negative) = 6.
    ds = Dataset.from_arrays(np.zeros((7, 2)), [1, 1, 1, 1, -1, -1, -1])
    kc = train_kernel_regularized(ds, KernelSpec.linear(), 0.5, SolverConfig())
    assert np.all(kc.alphas == 0.0)
    assert kc.total_hinge(ds) == pytest.approx(6.0, abs=1e-6)


def test_train_kernel_separable_hinge_to_zero():
    ds = gaussian_blobs(10, 1, dim=2, separation=6.0, scale=0.4)
    kc = train_kernel_regularized(ds, KernelSpec.rbf(0.5), 0.0, SolverConfig())
    assert kc.total_hinge(ds) < 1e-4


def test_train_kernel_indicator_interpolates():
    ds = gaussian_blobs(20, 9, dim=2, separation=1.0)
    kc = train_kernel_regularized(ds, KernelSpec.indicator(), 0.05,
                                  SolverConfig())
    assert kc.total_hinge(ds) < 0.1
    # the explicit representer alphas = y * (1 + eps) achieve margin > 1
    explicit = KernelClassifier(alphas=1.1 * ds.y.astype(float), offset=0.0, anchors=ds,
                                spec=KernelSpec.indicator())
    assert explicit.total_hinge(ds) == 0.0


def test_sample_space_sup_examples():
    spec = KernelSpec.rbf(1.0)
    anchors = Dataset.from_arrays([[0.0]], [1])
    kc = KernelClassifier(alphas=[1.0], offset=0.7, anchors=anchors, spec=spec)
    # c = 0: the decision value at x minus the offset
    x = np.array([0.5])
    assert sample_space_sup(kc, x, 0.0, 100) == pytest.approx(
        float(kc.decision_values(x[None, :])[0]) - 0.7
    )
    # w = Phi(z), |x - z| = 2, c = 1: the supremum is f(1) = e^{-1}
    assert sample_space_sup(kc, np.array([2.0]), 1.0, 4001) == pytest.approx(
        math.exp(-1.0), abs=1e-7
    )


def test_sample_space_sup_strictly_below_feature_ball_bound():
    # The probe w = Phi(x): the sample-space supremum is f(0) = 1 while the
    # feature-ball value is 1 + sqrt(2 - 2 e^{-1}); the claimed equality
    # direction fails here, so only the <= direction is ever asserted.
    spec = KernelSpec.rbf(1.0)
    f = lambda t: math.exp(-t * t)
    anchors = Dataset.from_arrays([[0.0]], [1])
    kc = KernelClassifier(alphas=[1.0], offset=0.0, anchors=anchors, spec=spec)
    x = np.array([0.0])
    sup = sample_space_sup(kc, x, 1.0, 2001)
    ball = 1.0 + 1.0 * rbf_feature_radius(f, 1.0)
    assert sup == pytest.approx(1.0)
    assert sup < ball - 1.0  # strictly below, by a wide margin


def test_sample_space_sup_step1_inequality_random_probes():
    rng = np.random.default_rng(16)
    gamma = 0.7
    spec = KernelSpec.rbf(gamma)
    f = lambda t: math.exp(-gamma * t * t)
    for n in (1, 2):
        for _ in range(10):
            m = int(rng.integers(1, 5))
            anchors = Dataset.from_arrays(rng.standard_normal((m, n)), rng.choice([-1, 1], m))
            kc = KernelClassifier(alphas=rng.standard_normal(m), offset=0.0, anchors=anchors,
                                  spec=spec)
            x = rng.standard_normal(n)
            c = float(rng.uniform(0.1, 1.5))
            sup = sample_space_sup(kc, x, c, 201)
            dv = float(kc.decision_values(x[None, :])[0])
            assert sup <= dv + kc.norm() * rbf_feature_radius(f, c) + 1e-9


def test_feature_ball_objective_identity():
    # c|w|_H + hinge equals the penalized objective whose penalty is the
    # supremum of <w, delta> over the RKHS ball, computed independently in
    # the Gram eigenbasis.
    rng = np.random.default_rng(17)
    ds = gaussian_blobs(8, 18, dim=2, separation=1.0)
    spec = KernelSpec.rbf(1.1)
    K = gram(spec, ds)
    vals, vecs = np.linalg.eigh(K)
    vals = np.maximum(vals, 0.0)
    for _ in range(20):
        alphas = rng.standard_normal(8)
        b = float(rng.standard_normal())
        c = float(rng.uniform(0, 2))
        margins = ds.y * (K @ alphas + b)
        hinge = float(np.maximum(1.0 - margins, 0.0).sum())
        direct = c * rkhs_norm(alphas, K) + hinge
        sup_eigen = c * float(np.linalg.norm(np.sqrt(vals) * (vecs.T @ alphas)))
        assert direct == pytest.approx(sup_eigen + hinge, abs=1e-9)


def test_kernel_input_validation():
    with pytest.raises(ValueError):
        KernelSpec.rbf(0.0)
    with pytest.raises(ValueError):
        KernelSpec.poly(0)
    with pytest.raises(ValueError):
        kernel_eval(KernelSpec.linear(), [1.0], [1.0, 2.0])
    kc = KernelClassifier(alphas=[1.0], offset=0.0,
                          anchors=Dataset.from_arrays([[0.0, 0.0, 0.0]], [1]),
                          spec=KernelSpec.rbf(1.0))
    with pytest.raises(ValueError):
        sample_space_sup(kc, np.zeros(3), 1.0, 10)  # n > 2 unsupported


def test_kernel_matrix_cross_shapes():
    A = np.zeros((3, 2))
    B = np.ones((5, 2))
    assert kernel_matrix(KernelSpec.rbf(1.0), A, B).shape == (3, 5)
