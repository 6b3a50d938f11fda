"""Robustness-implies-generalization laboratory: train/test sample
pairing (exact maximum matching and the brick-partition lower bound),
finite-sample bound reports, trend experiments over growing sample
sizes, and the pathological-kernel demonstration hooks.

The bound inequalities checked here are deterministic consequences of
the pairing argument: given an exact maximum matching at radius c, the
average test error is bounded by gamma + c||w|| + average training
hinge, and the average test hinge by the same expression with gamma
inflated by (1 + K||w|| + |b|).  Any violation beyond float roundoff is
a defect, not bad luck.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Union

import numpy as np

from .core import (
    Dataset,
    LinearClassifier,
    NormSpec,
    classification_error,
    norm_value,
    signed_margins,
)
from .kernel import KernelClassifier, KernelSpec, kernel_diag, kernel_matrix
from .matching import hopcroft_karp
from .solver import SolverConfig, train_regularized

__all__ = [
    "PairingResult",
    "BoundReport",
    "max_pairings_exact",
    "brick_pairing_lower_bound",
    "generalization_bound",
    "kernel_generalization_bound",
    "TrialRecord",
    "TrendReport",
    "run_consistency_experiment",
]

_EDGE_TOL = 1e-12
_PAIR_BLOCK = 256  # train rows whose distances to the test set are held at once


@dataclass(frozen=True)
class PairingResult:
    """Disjoint same-label train/test pairs within distance c."""

    m: int
    matched: int
    gamma: float
    method: str

    EXACT = "exact"
    BRICK = "brick"

    def __post_init__(self):
        if not 0 <= self.matched <= self.m:
            raise ValueError("matched count must lie in [0, m]")


def _pair_counts(m: int, matched: int, method: str) -> PairingResult:
    return PairingResult(m=m, matched=matched, gamma=1.0 - matched / m, method=method)


def _feature_sq_distances(spec: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    cross = kernel_matrix(spec, A, B)
    return np.maximum(
        kernel_diag(spec, A)[:, None] + kernel_diag(spec, B)[None, :] - 2.0 * cross, 0.0
    )


def max_pairings_exact(train: Dataset, test: Dataset, c: float,
                       metric: Union[str, KernelSpec] = "sample") -> PairingResult:
    """Maximum number of disjoint train/test pairs with equal labels and
    distance at most c, via augmenting-path maximum matching.  `metric` is
    "sample" for euclidean distance or a KernelSpec for the feature-space
    distance.  The count is independent of sample order."""
    if len(train) != len(test):
        raise ValueError("train and test must have the same size")
    if train.dim != test.dim:
        raise ValueError("train and test must share dimension")
    if not isinstance(metric, KernelSpec) and metric != "sample":
        raise ValueError(f"unknown metric {metric!r}")
    adj = []
    for start in range(0, len(train), _PAIR_BLOCK):
        rows = train.X[start:start + _PAIR_BLOCK]
        if isinstance(metric, KernelSpec):
            sq = _feature_sq_distances(metric, rows, test.X)
        else:  # from coordinate differences, which do not cancel at large coordinates
            with np.errstate(over="ignore"):  # a gap too large to square is no edge
                sq = sum((rows[:, k, None] - test.X[None, :, k]) ** 2 for k in range(train.dim))
        same_label = train.y[start:start + _PAIR_BLOCK, None] == test.y[None, :]
        adj.extend(np.nonzero(row)[0].tolist() for row in (sq <= c * c + _EDGE_TOL) & same_label)
    matched, _ = hopcroft_karp(len(train), len(test), adj)
    return _pair_counts(len(train), matched, PairingResult.EXACT)


def brick_pairing_lower_bound(train: Dataset, test: Dataset, c: float,
                              domain_box) -> PairingResult:
    """Lower-bound the pairing count by partitioning the domain box into
    half-open cells of side c/sqrt(n) (anchored at the box's lower corner)
    and summing min(#train, #test) per (cell, label).  Any same-cell pair
    is within the cell diagonal, which is exactly c."""
    if len(train) != len(test):
        raise ValueError("train and test must have the same size")
    if c <= 0:
        raise ValueError("pairing radius must be positive")
    lo, hi = (np.asarray(b, dtype=float) for b in domain_box)
    n = train.dim
    if lo.shape != (n,) or hi.shape != (n,):
        raise ValueError("domain box bounds must match the data dimension")
    for ds_part, name in ((train, "train"), (test, "test")):
        if np.any(ds_part.X < lo - 1e-12) or np.any(ds_part.X > hi + 1e-12):
            raise ValueError(f"{name} samples fall outside the domain box")
    side = c / math.sqrt(n)

    def cell_counts(ds_part):
        cells = np.floor((ds_part.X - lo) / side).astype(int)
        counts: Dict[tuple, int] = {}
        for row, label in zip(cells, ds_part.y):
            key = (*row.tolist(), int(label))
            counts[key] = counts.get(key, 0) + 1
        return counts

    train_counts = cell_counts(train)
    test_counts = cell_counts(test)
    matched = sum(min(k, test_counts.get(cell, 0)) for cell, k in train_counts.items())
    return _pair_counts(len(train), matched, PairingResult.BRICK)


@dataclass(frozen=True)
class BoundReport:
    """Both finite-sample bounds and the quantities entering them."""

    test_error: float
    error_bound: float
    test_avg_hinge: float
    hinge_bound: float
    K: float
    components: tuple  # (gamma, c * ||w||, train average hinge, |b|)

    @property
    def error_bound_holds(self) -> bool:
        return self.test_error <= self.error_bound + 1e-12

    @property
    def hinge_bound_holds(self) -> bool:
        return self.test_avg_hinge <= self.hinge_bound + 1e-12


def _bound_report(gamma: float, c_norm_w: float, train_avg_hinge: float, abs_b: float,
                  K: float, w_norm: float, test_error: float, test_avg_hinge: float) -> BoundReport:
    error_bound = gamma + c_norm_w + train_avg_hinge
    hinge_bound = gamma * (1.0 + K * w_norm + abs_b) + c_norm_w + train_avg_hinge
    return BoundReport(
        test_error=test_error,
        error_bound=error_bound,
        test_avg_hinge=test_avg_hinge,
        hinge_bound=hinge_bound,
        K=K,
        components=(gamma, c_norm_w, train_avg_hinge, abs_b),
    )


def _max_sample_norm(*sets: Dataset) -> float:
    """Largest Euclidean norm of a sample in any of the sets."""
    return max(float(norm_value(NormSpec.l2(), ds.X).max()) for ds in sets)


def generalization_bound(clf: LinearClassifier, train: Dataset, test: Dataset, c: float,
                         pairing: PairingResult, K: float) -> BoundReport:
    """Evaluate the pairing-based error and hinge bounds for a linear
    classifier; `pairing` must have been computed at the same radius c and
    K must dominate ||x||_2 over both sample sets."""
    if pairing.m != len(train) or len(train) != len(test):
        raise ValueError("pairing size must match both datasets")
    max_norm = _max_sample_norm(train, test)
    if K < max_norm - 1e-12:
        raise ValueError(f"K={K} is below the realized max sample norm {max_norm}")
    w_norm = norm_value(NormSpec.l2(), clf.w)
    train_hinges = np.maximum(1.0 - signed_margins(clf, train), 0.0)
    test_margins = signed_margins(clf, test)
    test_error = classification_error(clf, test)
    test_avg_hinge = float(np.maximum(1.0 - test_margins, 0.0).mean())
    return _bound_report(
        gamma=pairing.gamma,
        c_norm_w=c * w_norm,
        train_avg_hinge=float(train_hinges.mean()),
        abs_b=abs(clf.b),
        K=K,
        w_norm=w_norm,
        test_error=test_error,
        test_avg_hinge=test_avg_hinge,
    )


def kernel_generalization_bound(kc: KernelClassifier, train: Dataset, test: Dataset,
                                c_feature: float, pairing: PairingResult,
                                K_kernel: float) -> BoundReport:
    """Feature-space version: same formulas with the RKHS norm of w and
    K = max k(x, x); `pairing` must use the feature-space metric at radius
    c_feature."""
    if pairing.m != len(train) or len(train) != len(test):
        raise ValueError("pairing size must match both datasets")
    diag_max = max(
        float(kernel_diag(kc.spec, train.X).max()),
        float(kernel_diag(kc.spec, test.X).max()),
    )
    if K_kernel < diag_max - 1e-12:
        raise ValueError(f"K_kernel={K_kernel} is below the realized max k(x,x) {diag_max}")
    w_norm = kc.norm()
    train_margins = train.y * kc.decision_values(train.X)
    test_scores = kc.decision_values(test.X)
    test_margins = test.y * test_scores
    test_error = float(np.mean(np.where(test_scores >= 0.0, 1, -1) != test.y))
    return _bound_report(
        gamma=pairing.gamma,
        c_norm_w=c_feature * w_norm,
        train_avg_hinge=float(np.maximum(1.0 - train_margins, 0.0).mean()),
        abs_b=abs(kc.offset),
        K=K_kernel,
        w_norm=w_norm,
        test_error=test_error,
        test_avg_hinge=float(np.maximum(1.0 - test_margins, 0.0).mean()),
    )


@dataclass(frozen=True)
class TrialRecord:
    m: int
    trial: int
    c: float
    gamma: float
    test_error: float
    error_bound: float
    test_avg_hinge: float
    hinge_bound: float
    train_objective: float


@dataclass(frozen=True)
class TrendReport:
    records: tuple
    median_gamma: dict
    median_test_error: dict
    median_error_bound: dict
    gamma_medians_nonincreasing: bool
    test_error_medians_nonincreasing: bool
    bound_violations: int


def run_consistency_experiment(generator: Callable[[np.random.Generator, int], Dataset],
                               sizes: Sequence[int],
                               c_schedule: Callable[[int], float],
                               trials: int,
                               cfg: SolverConfig,
                               seed: int = 0) -> TrendReport:
    """For each size m and trial: draw a train and a test set of size m,
    fit the L2-regularized classifier at c(m), compute the exact pairing
    and the bound report, and aggregate per-m medians.

    `generator(rng, m)` must return a Dataset of size m; each (size,
    trial) cell uses its own generator stream derived from the master
    seed, so trials are order-independent and reproducible.
    """
    sizes = list(sizes)
    if sizes != sorted(sizes):
        raise ValueError("sizes must be increasing")
    records: List[TrialRecord] = []
    violations = 0
    norm = NormSpec.l2()
    for mi, m in enumerate(sizes):
        c = float(c_schedule(m))
        for trial in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(mi, trial)))
            train = generator(rng, m)
            test = generator(rng, m)
            result = train_regularized(train, norm, c, cfg)
            pairing = max_pairings_exact(train, test, c)
            K = _max_sample_norm(train, test)
            report = generalization_bound(result.classifier, train, test, c, pairing, K)
            if not (report.error_bound_holds and report.hinge_bound_holds):
                violations += 1
            records.append(
                TrialRecord(
                    m=m,
                    trial=trial,
                    c=c,
                    gamma=pairing.gamma,
                    test_error=report.test_error,
                    error_bound=report.error_bound,
                    test_avg_hinge=report.test_avg_hinge,
                    hinge_bound=report.hinge_bound,
                    train_objective=result.objective,
                )
            )
    med_gamma = {m: float(np.median([r.gamma for r in records if r.m == m])) for m in sizes}
    med_err = {m: float(np.median([r.test_error for r in records if r.m == m])) for m in sizes}
    med_bound = {m: float(np.median([r.error_bound for r in records if r.m == m])) for m in sizes}
    gam_vals = [med_gamma[m] for m in sizes]
    err_vals = [med_err[m] for m in sizes]
    return TrendReport(
        records=tuple(records),
        median_gamma=med_gamma,
        median_test_error=med_err,
        median_error_bound=med_bound,
        gamma_medians_nonincreasing=all(b <= a + 1e-12 for a, b in zip(gam_vals, gam_vals[1:])),
        test_error_medians_nonincreasing=all(b <= a + 1e-12 for a, b in zip(err_vals, err_vals[1:])),
        bound_violations=violations,
    )
