"""Kernels, Gram matrices, and RKHS-norm-regularized training.

Feature-space quantities are computed through kernel evaluations and Gram
algebra, so infinite dimensional feature spaces (Gaussian RBF) cost
nothing extra.  Training is the one place that builds feature vectors: it
runs the linear solver on the empirical feature map of the training set,
whose dimension is the rank of the Gram matrix (at most m).  The
indicator kernel (k = 1 iff the inputs are bitwise equal) is included as
the classic non-smooth counterexample: it interpolates any training set
yet predicts sgn(b) off-sample.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import Dataset, NormSpec
from .solver import SolverConfig, _solve

__all__ = [
    "KernelSpec",
    "KernelClassifier",
    "kernel_eval",
    "kernel_matrix",
    "gram",
    "rkhs_norm",
    "train_kernel_regularized",
    "feature_distance",
    "verify_smoothness_condition",
    "SmoothnessReport",
    "rbf_feature_radius",
    "sample_space_sup",
]

_GRAM_EIG_TOL = 1e-8
_NORM_SQ_CLIP = 1e-8


class KernelSpec:
    """Kernel kinds: linear, homogeneous polynomial, Gaussian RBF, and the
    exact-equality indicator kernel."""

    LINEAR = "linear"
    POLY = "poly"
    RBF = "rbf"
    INDICATOR = "indicator"

    def __init__(self, kind: str, degree: int = 1, gamma: float = 1.0):
        if kind not in (self.LINEAR, self.POLY, self.RBF, self.INDICATOR):
            raise ValueError(f"unknown kernel kind {kind!r}")
        if kind == self.POLY and (int(degree) != degree or degree < 1):
            raise ValueError("polynomial degree must be an integer >= 1")
        if kind == self.RBF and not gamma > 0:
            raise ValueError("rbf gamma must be positive")
        self.kind = kind
        self.degree = int(degree)
        self.gamma = float(gamma)

    @classmethod
    def linear(cls) -> "KernelSpec":
        return cls(cls.LINEAR)

    @classmethod
    def poly(cls, degree: int) -> "KernelSpec":
        return cls(cls.POLY, degree=degree)

    @classmethod
    def rbf(cls, gamma: float) -> "KernelSpec":
        return cls(cls.RBF, gamma=gamma)

    @classmethod
    def indicator(cls) -> "KernelSpec":
        return cls(cls.INDICATOR)

    def __repr__(self):
        if self.kind == self.POLY:
            return f"KernelSpec.poly({self.degree})"
        if self.kind == self.RBF:
            return f"KernelSpec.rbf({self.gamma})"
        return f"KernelSpec.{self.kind}()"


def kernel_matrix(spec: KernelSpec, A, B) -> np.ndarray:
    """Cross-kernel matrix k(a_i, b_j) for rows of A and B."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise ValueError("kernel inputs must share dimension")
    if spec.kind == KernelSpec.LINEAR:
        return A @ B.T
    if spec.kind == KernelSpec.POLY:
        return (A @ B.T) ** spec.degree
    if spec.kind == KernelSpec.RBF:
        sq = (
            (A * A).sum(axis=1)[:, None]
            + (B * B).sum(axis=1)[None, :]
            - 2.0 * (A @ B.T)
        )
        return np.exp(-spec.gamma * np.maximum(sq, 0.0))
    # Indicator: exact bitwise equality of coordinates, no tolerance.
    return (A[:, None, :] == B[None, :, :]).all(axis=2).astype(float)


def kernel_eval(spec: KernelSpec, x, xp) -> float:
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    if x.shape != xp.shape:
        raise ValueError("kernel inputs must share dimension")
    return float(kernel_matrix(spec, x[None, :], xp[None, :])[0, 0])


def kernel_diag(spec: KernelSpec, X) -> np.ndarray:
    """k(x, x) for every row of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if spec.kind == KernelSpec.LINEAR:
        return (X * X).sum(axis=1)
    if spec.kind == KernelSpec.POLY:
        return (X * X).sum(axis=1) ** spec.degree
    return np.ones(X.shape[0])


def gram(spec: KernelSpec, ds: Dataset) -> np.ndarray:
    """Symmetric PSD (within tolerance) Gram matrix of the dataset."""
    K = kernel_matrix(spec, ds.X, ds.X)
    return (K + K.T) / 2.0


def rkhs_norm(alphas, K) -> float:
    """RKHS norm sqrt(a' K a) of the representer vector sum_i a_i Phi(x_i).

    Values of a'Ka in [-1e-8, 0] are clipped to 0; anything more negative
    signals a broken Gram matrix and raises.
    """
    alphas = np.asarray(alphas, dtype=float)
    q = float(alphas @ (K @ alphas))
    if q < -_NORM_SQ_CLIP:
        raise ValueError(f"Gram quadratic form is negative beyond tolerance: {q}")
    return math.sqrt(max(q, 0.0))


@dataclass(frozen=True, eq=False)
class KernelClassifier:
    """Representer-form classifier sgn(sum_i a_i k(x, x_i) + b)."""

    alphas: np.ndarray
    offset: float
    anchors: Dataset
    spec: KernelSpec

    def __post_init__(self):
        a = np.array(self.alphas, dtype=float)
        if a.shape != (len(self.anchors),):
            raise ValueError("alphas length must match the anchor set")
        if not np.all(np.isfinite(a)):
            raise ValueError("alphas must be finite")
        a.flags.writeable = False
        object.__setattr__(self, "alphas", a)
        object.__setattr__(self, "offset", float(self.offset))

    def decision_values(self, X) -> np.ndarray:
        K = kernel_matrix(self.spec, np.atleast_2d(np.asarray(X, dtype=float)), self.anchors.X)
        return K @ self.alphas + self.offset

    def predict(self, X) -> np.ndarray:
        return np.where(self.decision_values(X) >= 0.0, 1, -1)

    def norm(self) -> float:
        return rkhs_norm(self.alphas, gram(self.spec, self.anchors))

    def error(self, ds: Dataset) -> float:
        return float(np.mean(self.predict(ds.X) != ds.y))

    def total_hinge(self, ds: Dataset) -> float:
        margins = ds.y * self.decision_values(ds.X)
        return float(np.maximum(1.0 - margins, 0.0).sum())


def train_kernel_regularized(ds: Dataset, spec: KernelSpec, c: float,
                             cfg: SolverConfig) -> KernelClassifier:
    """Minimize c*sqrt(a'Ka) + total hinge over (a, b) as L2-regularized
    linear training on the empirical feature map of rank r.

    With K = V Lambda V' and the r eigenvalues above the cutoff kept, the
    feature rows F = V Lambda^(1/2) give K = F F', and z = Lambda^(1/2) V' a
    turns a'Ka into |z|^2 and Ka into F z.  The linear solver's certified
    interior-point method runs on F until its gap is within
    `cfg.tolerance`; a = V (z / Lambda^(1/2)) maps the result back.  Raises
    ValueError if K is not PSD within tolerance.  Deterministic."""
    if c < 0:
        raise ValueError("c must be nonnegative")
    K = gram(spec, ds)
    eigvals, eigvecs = np.linalg.eigh(K)
    scale = max(1.0, float(np.abs(K).max()))
    if eigvals[0] < -_GRAM_EIG_TOL * scale:
        raise ValueError(f"Gram matrix is not PSD within tolerance (min eig {eigvals[0]})")
    keep = eigvals > max(1e-12, 1e-12 * float(eigvals[-1]))  # none for K = 0: a = 0
    root = np.sqrt(eigvals[keep])
    V = eigvecs[:, keep]
    z, b = _solve(V * root[None, :], ds.y, NormSpec.L2, c, cfg.tolerance)[:2]
    return KernelClassifier(alphas=V @ (z / root), offset=b, anchors=ds, spec=spec)


def feature_distance(spec: KernelSpec, x, xp) -> float:
    """Distance between feature images:
    sqrt(max(0, k(x,x) + k(x',x') - 2 k(x,x')))."""
    return math.sqrt(
        max(
            0.0,
            kernel_eval(spec, x, x)
            + kernel_eval(spec, xp, xp)
            - 2.0 * kernel_eval(spec, x, xp),
        )
    )


@dataclass(frozen=True)
class SmoothnessReport:
    passed: bool
    checked: int
    violations: tuple


def verify_smoothness_condition(spec: KernelSpec, probe_pairs: Sequence, f: Callable,
                                rho: float) -> SmoothnessReport:
    """Check k(x,x) + k(x',x') - 2k(x,x') <= f(||x - x'||^2) on every probe
    pair with ||x - x'|| <= rho; f must be a nonnegative nondecreasing
    modulus with f(0) = 0."""
    f0 = float(f(0.0))
    if abs(f0) > 1e-12:
        raise ValueError(f"modulus must satisfy f(0) = 0, got {f0}")
    violations = []
    checked = 0
    for x, xp in probe_pairs:
        x = np.asarray(x, dtype=float)
        xp = np.asarray(xp, dtype=float)
        gap = float(np.linalg.norm(x - xp))
        if gap > rho:
            continue
        checked += 1
        lhs = (
            kernel_eval(spec, x, x)
            + kernel_eval(spec, xp, xp)
            - 2.0 * kernel_eval(spec, x, xp)
        )
        rhs = float(f(gap * gap))
        if lhs > rhs + 1e-12:
            violations.append((x, xp, lhs, rhs))
    return SmoothnessReport(passed=not violations, checked=checked, violations=tuple(violations))


def rbf_feature_radius(f: Callable, c: float) -> float:
    """Feature-space radius sqrt(2 f(0) - 2 f(c)) induced by a sample-space
    radius c for a radial kernel k(x, x') = f(||x - x'||) with f decreasing."""
    if c < 0:
        raise ValueError("c must be nonnegative")
    f0, fc = float(f(0.0)), float(f(c))
    if fc > f0 + 1e-15:
        raise ValueError("radial profile must be decreasing (f(c) <= f(0))")
    return math.sqrt(max(0.0, 2.0 * f0 - 2.0 * fc))


def sample_space_sup(kc: KernelClassifier, x, c: float, resolution: int) -> float:
    """Grid maximum of <w, Phi(x - delta)> = sum_i a_i k(x_i, x - delta)
    over the sample-space ball ||delta||_2 <= c (1-d and 2-d inputs only).

    The offset b is excluded; at c = 0 this is the decision value minus b.
    The result is always bounded above by the feature-space-ball value
    <w, Phi(x)> + ||w|| * sqrt(2 f(0) - 2 f(c)); the reverse direction is
    not asserted anywhere because it can be strict (probe w = Phi(x)).
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n > 2:
        raise ValueError("sample-space grid search supports n <= 2 only")
    if c < 0:
        raise ValueError("c must be nonnegative")
    if resolution < 2 or resolution ** n > 10_000_000:
        raise ValueError("resolution out of range")
    if c == 0.0:
        pts = x[None, :]
    elif n == 1:
        pts = x[None, :] + np.linspace(-c, c, resolution)[:, None]
    else:
        radii = np.linspace(0.0, c, resolution)
        angles = 2.0 * np.pi * np.arange(resolution) / resolution
        rr, aa = np.meshgrid(radii, angles, indexing="ij")
        deltas = np.column_stack(
            [(rr * np.cos(aa)).ravel(), (rr * np.sin(aa)).ravel()]
        )
        pts = x[None, :] + deltas
    vals = kernel_matrix(kc.spec, pts, kc.anchors.X) @ kc.alphas
    return float(vals.max())
