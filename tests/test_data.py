import numpy as np
import pytest

from robustsvm import gaussian_blobs, load_dataset, replicated_with_noise, save_dataset
from robustsvm.data import DatasetFormatError, derived_rng, generate_synthetic, load_model, save_model
from robustsvm import Dataset, KernelSpec, LinearClassifier, SolverConfig, train_kernel_regularized


def test_parse_basic_line(tmp_path):
    p = tmp_path / "d.libsvm"
    p.write_text("+1 1:0.5 3:-2\n-1 2:1.25\n")
    result = load_dataset(p)
    assert not result.zero_one_labels
    ds = result.dataset
    assert ds.dim == 3
    assert np.array_equal(ds.X, [[0.5, 0.0, -2.0], [0.0, 1.25, 0.0]])
    assert np.array_equal(ds.y, [1, -1])


def test_parse_zero_one_labels_flagged(tmp_path):
    p = tmp_path / "d.libsvm"
    p.write_text("0 1:1\n1 1:2\n")
    result = load_dataset(p)
    assert result.zero_one_labels
    assert np.array_equal(result.dataset.y, [-1, 1])


def test_parse_invalid_label(tmp_path):
    p = tmp_path / "d.libsvm"
    p.write_text("+1 1:1\n2 1:1\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_dataset(p)


def test_parse_malformed_feature(tmp_path):
    p = tmp_path / "d.libsvm"
    p.write_text("+1 1:0.5\n-1 3:\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_dataset(p)
    p.write_text("+1 0:0.5\n")
    with pytest.raises(DatasetFormatError, match="1-based"):
        load_dataset(p)
    p.write_text("+1 1:0.5 1:0.7\n")
    with pytest.raises(DatasetFormatError, match="duplicate"):
        load_dataset(p)


def test_parse_non_finite_value(tmp_path):
    p = tmp_path / "d.libsvm"
    p.write_text("+1 1:nan\n")
    with pytest.raises(DatasetFormatError, match="non-finite"):
        load_dataset(p)
    p.write_text("+1 1:inf\n")
    with pytest.raises(DatasetFormatError, match="non-finite"):
        load_dataset(p)


def test_parse_mixed_label_schemes_rejected(tmp_path):
    p = tmp_path / "d.libsvm"
    p.write_text("0 1:1\n-1 1:2\n")
    with pytest.raises(DatasetFormatError, match="mix"):
        load_dataset(p)


def test_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((17, 4))
    X[rng.random((17, 4)) < 0.3] = 0.0  # sparsity
    X[0, 3] = 0.125  # pin the last dimension
    y = rng.choice([-1, 1], 17)
    ds = Dataset.from_arrays(X, y)
    p = tmp_path / "round.libsvm"
    save_dataset(ds, p)
    loaded = load_dataset(p).dataset
    assert loaded.dim == 4
    assert np.array_equal(loaded.X, ds.X)
    assert np.array_equal(loaded.y, ds.y)


def test_round_trip_with_explicit_dim(tmp_path):
    ds = Dataset.from_arrays([[1.0, 0.0]], [1])  # trailing zero column
    p = tmp_path / "d.libsvm"
    save_dataset(ds, p)
    assert load_dataset(p).dataset.dim == 1
    assert load_dataset(p, dim=2).dataset.dim == 2
    with pytest.raises(DatasetFormatError):
        load_dataset(p, dim=0)


def test_blobs_deterministic_and_balanced():
    a = gaussian_blobs(11, 123, dim=3, separation=1.5, scale=0.7)
    b = gaussian_blobs(11, 123, dim=3, separation=1.5, scale=0.7)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.y, b.y)
    assert int((a.y == 1).sum()) == 5


def test_replicated_with_noise_zero_scale():
    base = gaussian_blobs(8, 4)
    b2, copy = replicated_with_noise(base, 0.0, 1)
    assert b2 is base
    assert np.array_equal(copy.X, base.X)
    assert np.array_equal(copy.y, base.y)


def test_generate_synthetic_dispatch():
    ds = generate_synthetic("gaussian-blobs", {"m": 10, "dim": 2}, seed=5)
    assert len(ds) == 10
    base, copy = generate_synthetic("replicated-with-noise", {"m": 6, "noise_scale": 0.2}, seed=5)
    assert len(base) == len(copy) == 6
    assert not np.array_equal(base.X, copy.X)
    with pytest.raises(ValueError):
        generate_synthetic("mystery", {}, seed=0)


def test_equal_means_coin_flip():
    # blobs with equal means: expected error of any classifier is about 1/2
    rng = np.random.default_rng(2)
    clf = LinearClassifier([1.0, -0.4], 0.1)
    errors = []
    for _ in range(200):
        ds = gaussian_blobs(40, rng, dim=2, separation=0.0)
        scores = ds.X @ clf.w + clf.b
        errors.append(np.mean(np.where(scores >= 0, 1, -1) != ds.y))
    assert abs(np.mean(errors) - 0.5) < 0.03


def test_derived_rng_streams_are_stable_and_distinct():
    a = derived_rng(7, 1, 2).standard_normal(4)
    b = derived_rng(7, 1, 2).standard_normal(4)
    c = derived_rng(7, 1, 3).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_model_dump_round_trip(tmp_path):
    clf = LinearClassifier([0.25, -1.5], 0.75)
    p = tmp_path / "model.json"
    save_model(p, clf)
    loaded = load_model(p)
    assert isinstance(loaded, LinearClassifier)
    assert np.array_equal(loaded.w, clf.w)
    assert loaded.b == clf.b

    ds = gaussian_blobs(6, 3)
    kc = train_kernel_regularized(ds, KernelSpec.rbf(0.5), 0.1,
                                  SolverConfig())
    kp = tmp_path / "kernel.json"
    save_model(kp, kc)
    loaded_k = load_model(kp)
    assert np.array_equal(loaded_k.alphas, kc.alphas)
    assert loaded_k.offset == kc.offset
    x = np.array([[0.3, -0.2]])
    assert loaded_k.decision_values(x) == pytest.approx(kc.decision_values(x))
