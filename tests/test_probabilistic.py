import numpy as np
import pytest

from robustsvm import (
    BudgetPrior,
    Dataset,
    LinearClassifier,
    NormSpec,
    SolverConfig,
    ball_model,
    bayes_regularizer,
    calibrate_chance,
    chance_bound_check,
    gaussian_blobs,
    gaussian_model,
    point_mass_model,
    signed_margins,
    train_regularized,
    uniform_budget_model,
)


def test_calibrate_degenerate_model_is_zero():
    dm = point_mass_model(np.zeros((3, 2)))
    for eta in (0.01, 0.1, 0.5, 0.9):
        assert calibrate_chance(dm, eta, 1000, seed=0) == 0.0


def test_calibrate_point_mass_budget():
    deltas = np.array([[3.0, 0.0]])  # single sample, dual L2 norm 3
    dm = point_mass_model(deltas)
    for eta in (0.01, 0.3, 0.9):
        assert calibrate_chance(dm, eta, 500, seed=1) == pytest.approx(3.0)


def test_calibrate_uniform_budget_quantile():
    dm = uniform_budget_model(m=1, dim=3, high=1.0)
    c_star = calibrate_chance(dm, eta=0.1, n_draws=100_000, seed=11)
    assert abs(c_star - 0.9) <= 0.02
    # Monte-Carlo oracle with an independent seed agrees
    check = uniform_budget_model(m=1, dim=3, high=1.0)
    budgets = check.budgets(check.draw(100_000, seed=987))
    assert abs(np.quantile(budgets, 0.9) - c_star) <= 0.02


def test_calibrate_validation():
    dm = uniform_budget_model(m=1, dim=1)
    with pytest.raises(ValueError):
        calibrate_chance(dm, eta=0.0, n_draws=1000, seed=0)
    with pytest.raises(ValueError):
        calibrate_chance(dm, eta=1.0, n_draws=1000, seed=0)
    with pytest.raises(ValueError):
        calibrate_chance(dm, eta=0.1, n_draws=99, seed=0)


def test_quantile_monotone_in_eta():
    dm = gaussian_model(m=3, dim=2, scale=0.5)
    etas = (0.02, 0.1, 0.3, 0.6)
    values = [calibrate_chance(dm, eta, 20_000, seed=5) for eta in etas]
    for hi, lo in zip(values, values[1:]):
        assert hi >= lo


def test_budget_split_sums_to_total():
    dm = uniform_budget_model(m=4, dim=2, high=2.0)
    draws = dm.draw(200, seed=3)
    budgets = dm.budgets(draws)
    assert np.all(budgets <= 2.0 + 1e-12)
    assert np.all(budgets >= 0.0)


def test_draws_deterministic_given_seed():
    dm = gaussian_model(m=2, dim=2, scale=1.0)
    a = dm.draw(100, seed=42)
    b = dm.draw(100, seed=42)
    assert a.tobytes() == b.tobytes()
    assert not np.array_equal(a, dm.draw(100, seed=43))


def test_bayes_regularizer_examples():
    assert bayes_regularizer(BudgetPrior.point_mass(0.7)) == 0.7
    assert bayes_regularizer(BudgetPrior.uniform(0.0, 1.0)) == 0.5
    assert bayes_regularizer(BudgetPrior.discrete([(1.0, 0.25), (3.0, 0.75)])) == 2.5


def test_bayes_regularizer_mixture_linearity():
    d1 = BudgetPrior.discrete([(0.5, 0.5), (1.5, 0.5)])
    d2 = BudgetPrior.uniform(0.0, 2.0)
    mix = BudgetPrior.mixture([(d1, 0.3), (d2, 0.7)])
    expected = 0.3 * bayes_regularizer(d1) + 0.7 * bayes_regularizer(d2)
    assert bayes_regularizer(mix) == pytest.approx(expected, abs=1e-12)
    # merging two discrete priors into one gives the same mean
    merged = BudgetPrior.discrete([(0.5, 0.15), (1.5, 0.15), (1.0, 0.7)])
    mix2 = BudgetPrior.mixture([(d1, 0.3), (BudgetPrior.point_mass(1.0), 0.7)])
    assert bayes_regularizer(mix2) == pytest.approx(bayes_regularizer(merged), abs=1e-12)


def test_prior_validation():
    with pytest.raises(ValueError):
        BudgetPrior.point_mass(-1.0)
    with pytest.raises(ValueError):
        BudgetPrior.discrete([(1.0, 0.6), (2.0, 0.6)])
    with pytest.raises(ValueError):
        BudgetPrior.discrete([(1.0, -0.5), (2.0, 1.5)])
    with pytest.raises(ValueError):
        BudgetPrior.uniform(2.0, 1.0)
    with pytest.raises(ValueError):
        BudgetPrior.mixture([(BudgetPrior.point_mass(1.0), 0.5)])


def test_chance_bound_check_zero_noise_full_coverage():
    ds = gaussian_blobs(6, 2)
    clf = LinearClassifier([0.8, -0.2], 0.1)
    dm = point_mass_model(np.zeros((6, 2)))
    assert chance_bound_check(clf, ds, dm, 0.5, 500, seed=0) == 1.0


def test_chance_bound_check_matches_direct_simulation():
    ds = Dataset.from_arrays([[0.3, 0.1], [-0.4, 0.6]], [1, -1])
    clf = LinearClassifier([1.0, -0.5], 0.2)
    dm = gaussian_model(m=2, dim=2, scale=0.7)
    c_star = 0.4
    n = 2000
    got = chance_bound_check(clf, ds, dm, c_star, n, seed=9)
    # independent per-draw recomputation
    draws = dm.draw(n, seed=9)
    args = 1.0 - signed_margins(clf, ds)
    bound = c_star * np.linalg.norm(clf.w) + np.maximum(args, 0.0).sum()
    hits = 0
    for k in range(n):
        perturbed = ds.X - draws[k]
        margins = ds.y * (perturbed @ clf.w + clf.b)
        realized = np.maximum(1.0 - margins, 0.0).sum()
        hits += realized <= bound + 1e-12
    assert got == pytest.approx(hits / n, abs=1e-12)


def test_chance_bound_check_zero_budget_undercovers():
    # aligned noise with a hinge-active sample: c* = 0 covers only draws
    # with zero effective budget
    ds = Dataset.from_arrays([[0.3, 0.1]], [1])
    clf = LinearClassifier([1.0, -0.5], 0.2)
    dm = uniform_budget_model(m=1, dim=2, high=1.0, direction=clf.w)
    cov = chance_bound_check(clf, ds, dm, 0.0, 20_000, seed=3)
    assert cov < 0.01


def test_coverage_soundness_adversarial():
    ds = Dataset.from_arrays([[0.3, 0.1]], [1])
    clf = LinearClassifier([1.0, -0.5], 0.2)
    eta, n = 0.1, 100_000
    dm = uniform_budget_model(m=1, dim=2, high=1.0, direction=clf.w)
    c_star = calibrate_chance(dm, eta, n, seed=11)
    cov = chance_bound_check(clf, ds, dm, c_star, n, seed=500)
    sigma = np.sqrt(eta * (1 - eta) / n)
    assert 1 - eta - 3 * sigma <= cov <= 1.0
    # adversarial alignment makes the bound nearly tight
    assert cov <= 1 - eta + 0.02


def test_training_at_bayes_budget_is_bit_identical():
    ds = gaussian_blobs(10, 6, dim=2, separation=1.0)
    cfg = SolverConfig()
    c_bar = bayes_regularizer(BudgetPrior.point_mass(0.7))
    a = train_regularized(ds, NormSpec.l2(), c_bar, cfg)
    b = train_regularized(ds, NormSpec.l2(), 0.7, cfg)
    assert a.classifier.w.tobytes() == b.classifier.w.tobytes()
    assert a.classifier.b == b.classifier.b
    assert a.objective == b.objective


def test_sampler_shape_validation():
    bad = gaussian_model(m=2, dim=2, scale=1.0)
    object.__setattr__(bad, "m", 3)
    with pytest.raises(ValueError):
        bad.draw(10, seed=0)


def test_ball_model_respects_radius():
    dm = ball_model(m=3, dim=2, radius=0.4)
    draws = dm.draw(500, seed=8)
    norms = np.linalg.norm(draws, axis=-1)
    assert norms.max() <= 0.4 + 1e-12
