import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import zoom_grid_min

from robustsvm import (
    AtomicSet,
    Dataset,
    NormSpec,
    SolverConfig,
    SublinearSet,
    brute_force_worst_case,
    check_separability,
    dual_norm,
    gaussian_blobs,
    grid_oracle,
    has_negative_margin,
    norm_value,
    objective_subgradient,
    objective_value,
    train_regularized,
    train_robust,
)
from robustsvm.solver import _norm_subgradient

L2 = NormSpec.l2()
DEGENERATE = Dataset.from_arrays([[0.0], [0.0]], [1, -1])


def test_check_separability_examples():
    assert check_separability(Dataset.from_arrays([[-1.0], [1.0]], [-1, 1]))
    assert not check_separability(DEGENERATE)
    xor = Dataset.from_arrays([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]], [1, 1, -1, -1])
    assert not check_separability(xor)


def test_xor_nonseparable_by_direct_sweep():
    # Independent evidence for the XOR case: no direction/offset on a fine
    # polar sweep separates the four points.
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([1, 1, -1, -1])
    thetas = np.linspace(0, 2 * np.pi, 720, endpoint=False)
    offsets = np.linspace(-3, 3, 301)
    found = False
    for t in thetas:
        w = np.array([np.cos(t), np.sin(t)])
        margins = y[None, :] * (X @ w + offsets[:, None])
        if np.any(margins.min(axis=1) > 0):
            found = True
    assert not found


def test_check_separability_larger_instances():
    # the interior-point check at c = 0 on 60 samples
    wide = gaussian_blobs(60, 3, dim=2, separation=8.0, scale=0.5)
    assert check_separability(wide)
    overlapping = gaussian_blobs(60, 3, dim=2, separation=0.0, scale=1.0)
    assert not check_separability(overlapping)


def test_train_degenerate_pair():
    for norm in (NormSpec.l1(), L2, NormSpec.linf()):
        for c in (0.0, 0.5, 2.0):
            result = train_regularized(DEGENERATE, norm, c, SolverConfig())
            assert result.objective == pytest.approx(2.0, abs=1e-9)
    assert not train_regularized(DEGENERATE, L2, 0.5, SolverConfig()).separable


def test_train_separable_unregularized_drives_hinge_to_zero():
    ds = Dataset.from_arrays([[-1.0], [1.0]], [-1, 1])
    result = train_regularized(ds, L2, 0.0, SolverConfig())
    assert result.objective < 1e-6
    assert result.separable


def test_train_matches_grid_oracle_on_blobs():
    ds = gaussian_blobs(12, 42, dim=2, separation=2.0, scale=1.0)
    result = train_regularized(ds, L2, 0.5, SolverConfig())
    _, oracle = zoom_grid_min(ds, L2, 0.5)
    assert abs(result.objective - oracle) <= 1e-3
    assert result.objective <= len(ds)


def test_train_result_objective_is_recomputable():
    ds = gaussian_blobs(10, 8, dim=2, separation=1.0)
    result = train_regularized(ds, L2, 0.4, SolverConfig())
    clf = result.classifier
    assert result.objective == pytest.approx(
        objective_value(ds, L2, 0.4, clf.w, clf.b), abs=1e-10
    )


def test_train_robust_wiring():
    ds = gaussian_blobs(10, 2, dim=2, separation=1.0)
    cfg = SolverConfig()
    direct = train_regularized(ds, L2, 0.0, cfg)
    robust0 = train_robust(ds, SublinearSet(AtomicSet(L2, 0.0)), cfg)
    assert robust0.objective == direct.objective
    assert np.array_equal(robust0.classifier.w, direct.classifier.w)

    c = 0.6
    robust = train_robust(ds, SublinearSet(AtomicSet(L2, c)), cfg)
    same = train_regularized(ds, L2, c, cfg)
    assert abs(robust.objective - same.objective) <= 1e-9


def test_train_robust_objective_matches_brute_force():
    ds = gaussian_blobs(8, 17, dim=2, separation=0.3, scale=1.0)  # overlapping
    s = SublinearSet(AtomicSet(L2, 0.4))
    result = train_robust(ds, s, SolverConfig())
    assert not result.separable
    assert has_negative_margin(result.classifier, ds)
    brute = brute_force_worst_case(result.classifier, ds, s, 200)
    assert result.objective == pytest.approx(brute, abs=0.01)


def test_train_robust_dual_norm_pairing():
    # Linf-ball disturbances induce an L1 penalty on w.
    ds = gaussian_blobs(10, 4, dim=2, separation=1.0)
    cfg = SolverConfig()
    robust = train_robust(ds, SublinearSet(AtomicSet(NormSpec.linf(), 0.5)), cfg)
    same = train_regularized(ds, NormSpec.l1(), 0.5, cfg)
    assert abs(robust.objective - same.objective) <= 1e-9


def test_train_reaches_the_certified_optimum_in_eight_dimensions():
    # Polish stopped at 126.872981 here; the LP optimum is 126.861881.
    ds = gaussian_blobs(200, 3, dim=8, separation=1.0)
    result = train_regularized(ds, NormSpec.linf(), 0.5, SolverConfig())
    assert result.objective <= 126.8618815
    assert result.objective - result.lower_bound <= 1e-8 * result.objective
    assert result.converged


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 40),
    n=st.integers(1, 16),
    duplicates=st.booleans(),
    single_class=st.booleans(),
    kind=st.sampled_from(["l1", "l2", "linf", "ellipsoidal"]),
    exponent=st.integers(-150, 150),
    log_c=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_certified_gap_on_degenerate_inputs(m, n, duplicates, single_class, kind, exponent,
                                            log_c, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, n))
    y = rng.choice([-1, 1], size=m)
    if duplicates and m >= 2:  # points repeated with the opposite label
        k = m // 2
        X[k:2 * k] = X[:k]
        y[k:2 * k] = -y[:k]
    if single_class:
        y[:] = y[0]
    s = 10.0 ** exponent
    ds = Dataset.from_arrays(X * s, y)
    if kind == "ellipsoidal":
        B = rng.standard_normal((n, n))
        norm = NormSpec.ellipsoidal(B @ B.T / n + 0.25 * np.eye(n))
    else:
        norm = NormSpec(kind)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # norm_value documents this warning for entries above about 1e154.
        warnings.filterwarnings("ignore", "overflow encountered", RuntimeWarning)
        result = train_regularized(ds, norm, 10.0 ** log_c * s, SolverConfig())
        assert np.isfinite(result.objective) and np.isfinite(result.lower_bound)
        assert np.all(np.isfinite(result.classifier.w)) and np.isfinite(result.classifier.b)
        assert result.lower_bound <= result.objective
        assert result.objective <= result.lower_bound + 1e-8 * max(1.0, result.objective)
        if result.separable:
            assert train_regularized(ds, norm, 0.0, SolverConfig()).objective < 1.0


def test_grid_oracle_examples():
    point, value = grid_oracle(DEGENERATE, L2, 1.0, (-2.0, 2.0), 101)
    assert value == pytest.approx(2.0)
    # the optimum is the segment {w = 0, |b| <= 1}; (0, 0) attains it
    assert point[0] == pytest.approx(0.0)
    assert abs(point[1]) <= 1.0
    assert objective_value(DEGENERATE, L2, 1.0, np.zeros(1), 0.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        grid_oracle(DEGENERATE, L2, 1.0, (0.5, 2.0), 11)  # origin excluded
    with pytest.raises(ValueError):
        grid_oracle(DEGENERATE, L2, 1.0, (-2.0, 2.0), 100_000)  # cap


def test_grid_oracle_convexity_sanity():
    ds = gaussian_blobs(6, 12, dim=1, separation=1.0)
    rng = np.random.default_rng(2)
    for _ in range(40):
        p1 = np.append(rng.standard_normal(1), rng.standard_normal())
        p2 = np.append(rng.standard_normal(1), rng.standard_normal())
        mid = (p1 + p2) / 2.0
        f = lambda p: objective_value(ds, L2, 0.5, p[:-1], p[-1])
        assert f(mid) <= (f(p1) + f(p2)) / 2.0 + 1e-9


def test_objective_monotone_in_c():
    ds = gaussian_blobs(10, 21, dim=2, separation=1.0)
    cfg = SolverConfig()
    objs = [train_regularized(ds, L2, c, cfg).objective for c in (0.0, 0.2, 0.5, 1.0, 2.0)]
    for lo, hi in zip(objs, objs[1:]):
        assert hi >= lo - 1e-9


def test_returned_objective_bounds():
    ds = gaussian_blobs(9, 33, dim=2, separation=1.2)
    result = train_regularized(ds, L2, 0.3, SolverConfig())
    _, oracle = zoom_grid_min(ds, L2, 0.3)
    assert result.objective >= oracle - 1e-6
    assert result.objective <= len(ds)


def test_determinism():
    ds = gaussian_blobs(10, 5, dim=2, separation=1.0)
    cfg = SolverConfig()
    a = train_regularized(ds, L2, 0.4, cfg)
    b = train_regularized(ds, L2, 0.4, cfg)
    assert a.objective == b.objective
    assert a.classifier.b == b.classifier.b
    assert a.classifier.w.tobytes() == b.classifier.w.tobytes()
    assert a.iterations_used == b.iterations_used


def test_subgradient_inequality():
    rng = np.random.default_rng(6)
    ds = gaussian_blobs(8, 9, dim=2, separation=1.0)
    for norm in (NormSpec.l1(), L2, NormSpec.linf(), NormSpec.ellipsoidal([[2.0, 0.2], [0.2, 1.0]])):
        for _ in range(100):
            w = rng.standard_normal(2)
            b = float(rng.standard_normal())
            gw, gb = objective_subgradient(ds, norm, 0.7, w, b)
            f0 = objective_value(ds, norm, 0.7, w, b)
            for _ in range(4):
                wp = rng.standard_normal(2)
                bp = float(rng.standard_normal())
                fp = objective_value(ds, norm, 0.7, wp, bp)
                assert fp >= f0 + gw @ (wp - w) + gb * (bp - b) - 1e-9


def test_norm_subgradient_of_a_tiny_vector():
    w = np.array([0.0, 0.0, 1e-200])
    ell = NormSpec.ellipsoidal(np.diag([4.0, 1.0, 2.0]))
    for norm in (L2, ell):
        g = _norm_subgradient(norm, w)
        assert np.all(np.isfinite(g))
        assert dual_norm(norm, g) == pytest.approx(1.0, rel=1e-12)
        assert g @ w == pytest.approx(norm_value(norm, w), rel=1e-12)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tolerance=-1.0)
    with pytest.raises(ValueError):
        train_regularized(DEGENERATE, L2, -0.1, SolverConfig())
