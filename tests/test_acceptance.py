"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -v -s`).  Tolerances are
pinned here and nowhere else."""
import contextlib
import math
import time

import numpy as np
import pytest

from helpers import zoom_grid_min

from robustsvm import (
    AtomicSet,
    BoxSet,
    BudgetPrior,
    Dataset,
    KernelClassifier,
    KernelSpec,
    LinearClassifier,
    NormSpec,
    SolverConfig,
    SublinearSet,
    bayes_regularizer,
    brute_force_worst_case,
    calibrate_chance,
    chance_bound_check,
    conservatism_gap,
    empirical_hinge,
    feature_distance,
    gaussian_blobs,
    generalization_bound,
    has_negative_margin,
    max_pairings_exact,
    objective_subgradient,
    objective_value,
    rbf_feature_radius,
    run_consistency_experiment,
    sample_space_sup,
    support_function,
    train_kernel_regularized,
    train_regularized,
    train_robust,
    uniform_budget_model,
    verify_smoothness_condition,
    worst_case_loss_lower,
    worst_case_loss_upper,
)
from robustsvm.data import derived_rng


@contextlib.contextmanager
def criterion(num, name):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} ({name}): FAIL [{time.time() - start:.1f}s]", flush=True)
        raise
    print(f"ACCEPTANCE {num:2d} ({name}): PASS [{time.time() - start:.1f}s]", flush=True)


def probe_instances(count=100, seed=2024):
    """Seeded random instances (n <= 3, m <= 6) with a strictly negative
    margin at the probed classifier, over all atomic geometries."""
    out = []
    i = 0
    while len(out) < count:
        rng = derived_rng(seed, i)
        i += 1
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 7))
        X = rng.normal(scale=1.5, size=(m, n))
        y = rng.choice([-1, 1], size=m)
        w = rng.normal(size=n)
        b = float(rng.normal(scale=0.5))
        ds = Dataset.from_arrays(X, y)
        clf = LinearClassifier(w, b)
        if not has_negative_margin(clf, ds):
            continue
        kind = rng.choice(["l1", "l2", "linf", "ellipsoid"])
        radius = float(rng.uniform(0.1, 1.2))
        if kind == "ellipsoid" and n <= 2:
            atomic = AtomicSet.ellipsoid(np.diag(rng.uniform(0.3, 2.0, size=n)))
        elif kind == "l1":
            atomic = AtomicSet(NormSpec.l1(), radius)
        elif kind == "linf":
            atomic = AtomicSet(NormSpec.linf(), radius)
        else:
            atomic = AtomicSet(NormSpec.l2(), radius)
        out.append((ds, clf, atomic))
    return out


INSTANCES = probe_instances()


def test_01_worst_case_pointwise_equivalence():
    with criterion(1, "worst case equals hinge + support penalty"):
        start = time.time()
        for ds, clf, atomic in INSTANCES:
            s = SublinearSet(atomic)
            closed = empirical_hinge(clf, ds) + support_function(atomic, clf.w)
            brute = brute_force_worst_case(clf, ds, s, resolution=200)
            assert abs(brute - closed) <= 1e-2
            lower = worst_case_loss_lower(clf, ds, s)
            upper = worst_case_loss_upper(clf, ds, s)
            assert abs(lower - upper) <= 1e-9
        assert time.time() - start < 120.0


def test_02_robust_training_equals_regularized():
    with criterion(2, "robust training equals regularized training"):
        start = time.time()
        norm = NormSpec.l2()
        cases = [(42, 2.0, 0.5, 12), (7, 1.0, 0.5, 12), (3, 0.8, 1.0, 10), (19, 1.5, 0.7, 8)]
        for seed, sep, c, m in cases:
            ds = gaussian_blobs(m, seed, dim=2, separation=sep, scale=1.0)
            cfg = SolverConfig()
            robust = train_robust(ds, SublinearSet(AtomicSet(norm, c)), cfg)
            direct = train_regularized(ds, norm, c, cfg)
            assert abs(robust.objective - direct.objective) <= 1e-9
            _, oracle = zoom_grid_min(ds, norm, c)
            assert abs(robust.objective - oracle) <= 1e-3
            assert abs(direct.objective - oracle) <= 1e-3
        assert time.time() - start < 120.0


def test_03_box_conservatism():
    with criterion(3, "box conservatism"):
        for ds, clf, atomic in INSTANCES:
            gap = conservatism_gap(
                clf, ds, SublinearSet(atomic), BoxSet.replicate(atomic, len(ds))
            )
            assert gap >= -1e-12
        # replicated-sample family: the gap grows strictly with m when the
        # classifier has active hinges everywhere (the m*c scaling effect)
        base_X = np.array([[0.5], [0.3]])
        base_y = np.array([1, -1])
        clf = LinearClassifier([1.0], 0.0)
        atomic = AtomicSet(NormSpec.l2(), 0.25)
        gaps = []
        for k in (1, 2, 4, 8, 16):
            ds = Dataset.from_arrays(np.tile(base_X, (k, 1)), np.tile(base_y, k))
            gaps.append(
                conservatism_gap(clf, ds, SublinearSet(atomic), BoxSet.replicate(atomic, 2 * k))
            )
        assert all(hi > lo + 1e-12 for lo, hi in zip(gaps, gaps[1:]))


def test_04_chance_calibration():
    with criterion(4, "chance calibration"):
        start = time.time()
        eta, n_draws = 0.1, 100_000
        dm = uniform_budget_model(m=1, dim=2, high=1.0)
        c_star = calibrate_chance(dm, eta, n_draws, seed=11)
        assert abs(c_star - 0.9) <= 0.02
        # coverage check on an independent seed, with worst-case-aligned
        # disturbances so the bound is nearly tight
        ds = Dataset.from_arrays([[0.3, 0.1]], [1])
        clf = LinearClassifier([1.0, -0.5], 0.2)
        aligned = uniform_budget_model(m=1, dim=2, high=1.0, direction=clf.w)
        c_star_aligned = calibrate_chance(aligned, eta, n_draws, seed=11)
        coverage = chance_bound_check(clf, ds, aligned, c_star_aligned, n_draws, seed=500)
        sigma_mc = math.sqrt(eta * (1 - eta) / n_draws)
        assert 1 - eta - 3 * sigma_mc <= coverage <= 1.0
        assert time.time() - start < 60.0


def test_05_bayesian_tuning():
    with criterion(5, "bayesian tuning"):
        assert abs(bayes_regularizer(BudgetPrior.point_mass(0.7)) - 0.7) <= 1e-12
        assert abs(bayes_regularizer(BudgetPrior.uniform(0.2, 1.2)) - 0.7) <= 1e-12
        assert (
            abs(bayes_regularizer(BudgetPrior.discrete([(1.0, 0.25), (3.0, 0.75)])) - 2.5)
            <= 1e-12
        )
        ds = gaussian_blobs(12, 5, dim=2, separation=1.0)
        cfg = SolverConfig()
        c_bar = bayes_regularizer(BudgetPrior.point_mass(0.7))
        at_cbar = train_regularized(ds, NormSpec.l2(), c_bar, cfg)
        at_fixed = train_regularized(ds, NormSpec.l2(), 0.7, cfg)
        assert at_cbar.classifier.w.tobytes() == at_fixed.classifier.w.tobytes()
        assert at_cbar.classifier.b == at_fixed.classifier.b
        assert at_cbar.objective == at_fixed.objective


def test_06_kernel_smoothness_certificates():
    with criterion(6, "kernel smoothness certificates"):
        gamma = 1.3
        spec = KernelSpec.rbf(gamma)
        rng = derived_rng(606)
        pairs = [(rng.standard_normal(3), rng.standard_normal(3)) for _ in range(1000)]
        for x, xp in pairs:
            sq = float(np.sum((x - xp) ** 2))
            expected_sq = 2.0 - 2.0 * math.exp(-gamma * sq)
            assert abs(feature_distance(spec, x, xp) ** 2 - expected_sq) <= 1e-12
        cert = verify_smoothness_condition(
            spec, pairs, lambda t: 2.0 - 2.0 * math.exp(-gamma * t), rho=100.0
        )
        assert cert.passed and cert.checked == 1000
        near_pairs = [(np.zeros(3), np.full(3, 1e-5))]
        broken = verify_smoothness_condition(
            KernelSpec.indicator(), near_pairs, lambda t: 2.0 - 2.0 * math.exp(-t), rho=1.0
        )
        assert not broken.passed


def test_07_radial_kernel_feature_ball_bound():
    with criterion(7, "radial kernel feature-ball bound"):
        gamma = 1.0
        spec = KernelSpec.rbf(gamma)
        profile = lambda t: math.exp(-gamma * t * t)
        rng = derived_rng(707)
        slack = 1e-9
        for n in (1, 2):
            for _ in range(15):
                m = int(rng.integers(1, 5))
                anchors = Dataset.from_arrays(
                    rng.standard_normal((m, n)), rng.choice([-1, 1], m)
                )
                kc = KernelClassifier(
                    alphas=rng.standard_normal(m), offset=0.0, anchors=anchors, spec=spec
                )
                x = rng.standard_normal(n)
                c = float(rng.uniform(0.1, 1.5))
                sup = sample_space_sup(kc, x, c, resolution=301)
                dv = float(kc.decision_values(x[None, :])[0])
                ball = dv + kc.norm() * rbf_feature_radius(profile, c)
                assert sup <= ball + slack
        # the probe w = Phi(x): the sample-space supremum is f(0) = 1,
        # strictly below the feature-ball value (documented discrepancy
        # with the claimed equality; only <= is asserted anywhere)
        anchors = Dataset.from_arrays([[0.0]], [1])
        kc = KernelClassifier(alphas=[1.0], offset=0.0, anchors=anchors, spec=spec)
        sup = sample_space_sup(kc, np.array([0.0]), 1.0, resolution=2001)
        ball = 1.0 + rbf_feature_radius(profile, 1.0)
        assert sup == pytest.approx(1.0, abs=1e-12)
        assert sup < ball - 1.0


def test_08_generalization_bound():
    with criterion(8, "pairing generalization bound"):
        start = time.time()
        cfg = SolverConfig()
        c = 0.3
        for draw in range(100):
            rng = derived_rng(808, draw)
            train = gaussian_blobs(50, rng, dim=2, separation=1.5, scale=1.0)
            test = gaussian_blobs(50, rng, dim=2, separation=1.5, scale=1.0)
            result = train_regularized(train, NormSpec.l2(), c, cfg)
            pairing = max_pairings_exact(train, test, c)
            K = max(
                float(np.linalg.norm(train.X, axis=1).max()),
                float(np.linalg.norm(test.X, axis=1).max()),
            )
            report = generalization_bound(result.classifier, train, test, c, pairing, K)
            assert report.test_error <= report.error_bound + 1e-12
            assert report.test_avg_hinge <= report.hinge_bound + 1e-12
        assert time.time() - start < 120.0


def test_09_consistency_trend():
    with criterion(9, "consistency trend"):
        start = time.time()

        def gen(rng, m):
            return gaussian_blobs(m, rng, dim=2, separation=2.0, scale=1.0)

        report = run_consistency_experiment(
            gen,
            sizes=[50, 200, 800],
            c_schedule=lambda m: max(m ** (-1.0 / 8.0), 0.05),
            trials=20,
            cfg=SolverConfig(),
            seed=0,
        )
        gammas = [report.median_gamma[m] for m in (50, 200, 800)]
        assert gammas[0] > gammas[1] > gammas[2]
        errors = [report.median_test_error[m] for m in (50, 200, 800)]
        assert all(hi <= lo + 1e-12 for lo, hi in zip(errors, errors[1:]))
        assert report.bound_violations == 0
        assert time.time() - start < 300.0


def test_10_pathological_kernel():
    with criterion(10, "pathological kernel"):
        cfg = SolverConfig()
        for trial in range(10):
            rng = derived_rng(1010, trial)
            train = gaussian_blobs(200, rng, dim=2, separation=2.0, scale=1.0)
            test = gaussian_blobs(200, rng, dim=2, separation=2.0, scale=1.0)
            kc = train_kernel_regularized(train, KernelSpec.indicator(), 0.01, cfg)
            assert kc.total_hinge(train) < 0.1
            assert 0.45 <= kc.error(test) <= 0.55


def test_11_solver_numerics():
    with criterion(11, "solver numerics"):
        ds = gaussian_blobs(10, 11, dim=2, separation=1.0)
        rng = derived_rng(1111)
        norms = [
            NormSpec.l1(),
            NormSpec.l2(),
            NormSpec.linf(),
            NormSpec.ellipsoidal([[2.0, 0.2], [0.2, 1.0]]),
        ]
        checked = 0
        while checked < 1000:
            norm = norms[checked % len(norms)]
            c = float(rng.uniform(0, 2))
            w = rng.standard_normal(2)
            b = float(rng.standard_normal())
            gw, gb = objective_subgradient(ds, norm, c, w, b)
            f0 = objective_value(ds, norm, c, w, b)
            wp = rng.standard_normal(2)
            bp = float(rng.standard_normal())
            fp = objective_value(ds, norm, c, wp, bp)
            assert fp >= f0 + gw @ (wp - w) + gb * (bp - b) - 1e-9
            checked += 1
        cfg = SolverConfig()
        a = train_regularized(ds, NormSpec.l2(), 0.5, cfg)
        b_run = train_regularized(ds, NormSpec.l2(), 0.5, cfg)
        assert a.classifier.w.tobytes() == b_run.classifier.w.tobytes()
        assert a.classifier.b == b_run.classifier.b
        assert a.objective == b_run.objective
        assert a.iterations_used == b_run.iterations_used
