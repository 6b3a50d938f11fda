"""Disturbance geometries and their worst-case hinge-loss oracles.

An atomic set is a bounded symmetric set containing the origin that
perturbs a single sample; here every atomic set is a norm ball (an
ellipsoid is the unit ball of the ellipsoidal norm).  Joint disturbances
over m samples are modeled either by a sublinear aggregated set, which
shares one total budget across samples, or by a box set, which gives
every sample its own full-budget atomic set.

The closed-form worst-case values are checked elsewhere against
`brute_force_worst_case`, a deliberately dumb grid maximizer over a
deterministic discretization of the feasible disturbance set.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .core import (
    Dataset,
    LinearClassifier,
    NormSpec,
    dual_norm,
    empirical_hinge,
    norm_value,
    signed_margins,
)

__all__ = [
    "AtomicSet",
    "SublinearSet",
    "BoxSet",
    "SUM_BUDGET",
    "SINGLE_SHIFT",
    "SQRT_BUDGET",
    "support_function",
    "worst_case_loss_lower",
    "worst_case_loss_upper",
    "has_negative_margin",
    "brute_force_worst_case",
    "validate_atomic",
    "AtomicValidationReport",
]

SUM_BUDGET = "sum-budget"
SINGLE_SHIFT = "single-shift"
SQRT_BUDGET = "sqrt-budget"
_AGGREGATIONS = (SUM_BUDGET, SINGLE_SHIFT, SQRT_BUDGET)

# Evaluated grid points allowed in one brute-force call.
_SEARCH_CAP = 10_000_000
# Simplex allocation grids are capped at this many points; every grid
# contains the simplex vertices, which carry the maximum (the inner
# objective is convex in the allocation), so the cap costs no accuracy.
_ALLOC_CAP = 100_000


class AtomicSet:
    """Norm ball {delta : ||delta|| <= radius} used as a per-sample
    disturbance set.  Contains 0, is symmetric, and has the finite
    support function radius * dual_norm(norm, w)."""

    def __init__(self, norm: NormSpec, radius: float):
        radius = float(radius)
        if not (np.isfinite(radius) and radius >= 0.0):
            raise ValueError(f"radius must be a finite nonnegative real, got {radius}")
        self.norm = norm
        self.radius = radius

    @classmethod
    def norm_ball(cls, norm: NormSpec, radius: float) -> "AtomicSet":
        return cls(norm, radius)

    @classmethod
    def ellipsoid(cls, sigma) -> "AtomicSet":
        """Unit ellipsoid {delta : delta' inv(Sigma) delta <= 1}."""
        return cls(NormSpec.ellipsoidal(sigma), 1.0)

    def support(self, w) -> float:
        return self.radius * dual_norm(self.norm, w)

    def gauge(self, delta) -> float:
        """Minkowski functional: ||delta|| / radius (inf for radius 0)."""
        val = norm_value(self.norm, delta)
        if self.radius == 0.0:
            return 0.0 if val == 0.0 else math.inf
        return val / self.radius

    def contains(self, delta, tol: float = 1e-9) -> bool:
        return self.gauge(delta) <= 1.0 + tol

    def same_geometry(self, other: "AtomicSet", tol: float = 1e-12) -> bool:
        if abs(self.radius - other.radius) > tol:
            return False
        if self.norm.kind != other.norm.kind:
            return False
        if self.norm.kind == NormSpec.ELLIPSOIDAL:
            return np.allclose(self.norm.sigma, other.norm.sigma, atol=tol)
        return True

    def __repr__(self):
        return f"AtomicSet({self.norm!r}, radius={self.radius})"


def support_function(a: AtomicSet, w) -> float:
    """sup over the atomic set of <w, delta>; nonnegative by symmetry."""
    return a.support(w)


class SublinearSet:
    """Joint disturbance set over m samples sandwiched between N- (one
    sample perturbed at full budget) and N+ (a convex split of the budget
    across samples), all built from one atomic set."""

    def __init__(self, atomic: AtomicSet, aggregation: str = SUM_BUDGET):
        if aggregation not in _AGGREGATIONS:
            raise ValueError(f"unknown aggregation {aggregation!r}")
        self.atomic = atomic
        self.aggregation = aggregation

    def _gauges(self, deltas) -> np.ndarray:
        deltas = np.asarray(deltas, dtype=float)
        if deltas.ndim != 2:
            raise ValueError("joint disturbance must have shape (m, n)")
        vals = norm_value(self.atomic.norm, deltas)
        if self.atomic.radius == 0.0:
            return np.where(vals == 0.0, 0.0, np.inf)
        return vals / self.atomic.radius

    def contains(self, deltas, tol: float = 1e-9) -> bool:
        g = self._gauges(deltas)
        if self.aggregation == SUM_BUDGET:
            return bool(g.sum() <= 1.0 + tol)
        if self.aggregation == SQRT_BUDGET:
            return bool(np.sqrt(g).sum() <= 1.0 + tol)
        return self.contains_minus(deltas, tol)

    def contains_minus(self, deltas, tol: float = 1e-9) -> bool:
        """Membership in N-: at most one nonzero row, inside the atomic set."""
        g = self._gauges(deltas)
        nonzero = g > tol
        return bool(nonzero.sum() <= 1 and np.all(g <= 1.0 + tol))

    def contains_plus(self, deltas, tol: float = 1e-9) -> bool:
        """Membership in N+: total gauge across samples at most 1."""
        return bool(self._gauges(deltas).sum() <= 1.0 + tol)

    def __repr__(self):
        return f"SublinearSet({self.atomic!r}, {self.aggregation!r})"


class BoxSet:
    """Cartesian product of per-sample atomic sets; membership decomposes
    sample by sample."""

    def __init__(self, per_sample: Sequence[AtomicSet]):
        per_sample = tuple(per_sample)
        if not per_sample:
            raise ValueError("box set needs at least one atomic set")
        self.per_sample = per_sample

    @classmethod
    def replicate(cls, atomic: AtomicSet, m: int) -> "BoxSet":
        return cls((atomic,) * m)

    def __len__(self):
        return len(self.per_sample)

    def contains(self, deltas, tol: float = 1e-9) -> bool:
        deltas = np.asarray(deltas, dtype=float)
        if deltas.shape[0] != len(self.per_sample):
            raise ValueError("joint disturbance rows must match box size")
        return all(a.contains(d, tol) for a, d in zip(self.per_sample, deltas))


def has_negative_margin(clf: LinearClassifier, ds: Dataset) -> bool:
    """True iff some training sample is strictly misclassified at (w, b),
    i.e. exists t with y_t(<w, x_t> + b) < 0.  This is the pointwise
    hypothesis under which the worst-case upper bound is exact."""
    return bool(np.any(signed_margins(clf, ds) < 0.0))


def worst_case_loss_lower(clf: LinearClassifier, ds: Dataset, s: SublinearSet) -> float:
    """Exact supremum of the total hinge loss over N-.

    Perturbing only sample t changes its hinge argument by at most the
    atomic support in direction w (symmetry absorbs the label sign), so
    each t gives a closed-form value; the result is the max over t.
    """
    margins = signed_margins(clf, ds)
    hinges = np.maximum(1.0 - margins, 0.0)
    total = hinges.sum()
    sup = s.atomic.support(clf.w)
    per_t = total - hinges + np.maximum((1.0 - margins) + sup, 0.0)
    return float(per_t.max())


def worst_case_loss_upper(clf: LinearClassifier, ds: Dataset, s: SublinearSet) -> float:
    """Supremum of the total hinge loss over N+, in closed form:
    empirical hinge + atomic support in direction w.

    This equals the exact worst case whenever some margin is strictly
    negative (see `has_negative_margin`); otherwise it is an upper bound.
    """
    return empirical_hinge(clf, ds) + s.atomic.support(clf.w)


@dataclass(frozen=True)
class AtomicValidationReport:
    passed: bool
    trials: int
    failures: tuple
    counterexample: Union[np.ndarray, None] = None


def validate_atomic(a, dim: int, trials: int = 128, seed: int = 0) -> AtomicValidationReport:
    """Check the atomic-set axioms on `a`: 0 is a member, and for random
    directions the support function is finite and symmetric.  Works on any
    object exposing contains(delta) and support(w)."""
    failures = []
    counterexample = None
    if not a.contains(np.zeros(dim)):
        failures.append("zero vector not contained")
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        w = rng.standard_normal(dim)
        sp = a.support(w)
        sm = a.support(-w)
        if not (np.isfinite(sp) and np.isfinite(sm)):
            failures.append("support function not finite")
            counterexample = w
            break
        scale = max(1.0, abs(sp), abs(sm))
        if abs(sp - sm) > 1e-9 * scale:
            failures.append(f"support asymmetric: {sp} vs {sm} at direction {w}")
            counterexample = w
            break
        if sp < -1e-12:
            failures.append("support negative (set cannot contain 0)")
            counterexample = w
            break
    return AtomicValidationReport(
        passed=not failures,
        trials=trials,
        failures=tuple(failures),
        counterexample=counterexample,
    )


def _next_pow2(k: int) -> int:
    return 1 << max(0, (k - 1)).bit_length()


@lru_cache(maxsize=32)
def _sphere_covering(n: int, resolution: int) -> np.ndarray:
    """Deterministic covering of the unit sphere, nested across growing
    resolutions (angle grids refine dyadically), so brute-force values are
    monotone in the resolution."""
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        r = _next_pow2(max(8, resolution))
        theta = 2.0 * np.pi * np.arange(r) / r
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if n == 3:
        r = _next_pow2(max(4, math.isqrt(max(1, resolution))))
        theta = np.pi * np.arange(r + 1) / r
        phi = 2.0 * np.pi * np.arange(2 * r) / (2 * r)
        t, p = np.meshgrid(theta, phi, indexing="ij")
        pts = np.column_stack(
            [
                (np.sin(t) * np.cos(p)).ravel(),
                (np.sin(t) * np.sin(p)).ravel(),
                np.cos(t).ravel(),
            ]
        )
        return pts
    # Higher dimensions fall back to the base directions added below.
    return np.zeros((0, n))


def _unit_directions(n: int, resolution: int, w=None) -> np.ndarray:
    """Sphere covering plus the +-axis directions, the +-corners, and
    +-w/|w|; the extra directions make the grid exact for L1/L2/Linf
    atomic balls."""
    parts = [np.eye(n), -np.eye(n), _sphere_covering(n, resolution)]
    if n <= 8:
        corners = np.array(np.meshgrid(*([[-1.0, 1.0]] * n), indexing="ij"))
        corners = corners.reshape(n, -1).T / math.sqrt(n)
        parts.append(corners)
    if w is not None:
        w = np.asarray(w, dtype=float)
        nw = norm_value(NormSpec.l2(), w)
        if nw > 0:
            parts.append(np.vstack([w / nw, -w / nw]))
    return np.vstack(parts)


def _alloc_denominator(m: int, resolution: int, cap: int = _ALLOC_CAP) -> int:
    q = 1
    for cand in range(1, resolution + 1):
        if math.comb(cand + m - 1, m - 1) > cap:
            break
        q = cand
    return q


@lru_cache(maxsize=32)
def _simplex_grid(m: int, q: int) -> np.ndarray:
    """All points of the uniform simplex grid {k/q : k integer >= 0, sum k = q},
    in lexicographic order of k.

    Stars and bars: each choice of m - 1 bar positions among q + m - 1 slots
    gives the counts k as the gaps between consecutive bars."""
    bars = np.array(list(itertools.combinations(range(q + m - 1), m - 1)), dtype=np.int64)
    bars = bars.reshape(math.comb(q + m - 1, m - 1), m - 1)
    out = np.diff(np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, q + m - 1)), axis=1) - 1.0
    out /= q
    out.flags.writeable = False
    return out


def _best_direction_gain(atomic: AtomicSet, w: np.ndarray, resolution: int) -> float:
    """max over the direction grid of <w, delta> with delta on the atomic
    boundary (gauge exactly 1).  Returns 0 for a zero-radius set."""
    if atomic.radius == 0.0 or not np.any(w):
        return 0.0
    dirs = _unit_directions(w.shape[0], resolution, w)
    norms = norm_value(atomic.norm, dirs)
    keep = norms > 0
    scaled = dirs[keep] * (atomic.radius / norms[keep])[:, None]
    return float((scaled @ w).max())


def brute_force_worst_case(
    clf: LinearClassifier,
    ds: Dataset,
    uset: Union[SublinearSet, BoxSet],
    resolution: int,
) -> float:
    """Maximize the total hinge loss over a deterministic discretization of
    the feasible disturbance set.

    Sum-budget and sqrt-budget sets are discretized as budget allocations on
    a uniform simplex grid times per-sample boundary directions; single-shift
    uses the simplex vertices; a box set uses independent per-sample grids.
    The value is monotone nondecreasing in `resolution` (nested direction
    grids) and never exceeds the closed-form worst case by more than the
    discretization slack.
    """
    if resolution < 1:
        raise ValueError("resolution must be a positive integer")
    margins = signed_margins(clf, ds)
    args = 1.0 - margins  # hinge arguments
    m = len(ds)

    if isinstance(uset, BoxSet):
        if len(uset) != m:
            raise ValueError(f"box set has {len(uset)} atomic sets for {m} samples")
        levels = np.linspace(0.25, 1.0, 4)
        n_dirs = _unit_directions(ds.dim, resolution, clf.w).shape[0]
        if m * n_dirs * levels.size > _SEARCH_CAP:
            raise ValueError("brute-force search space exceeds the 1e7-point cap")
        total = 0.0
        for i, atomic in enumerate(uset.per_sample):
            gain = _best_direction_gain(atomic, clf.w, resolution)
            # y_i w.delta ranges over symmetric values, so the label drops out.
            best = np.maximum(args[i] + levels * gain, 0.0).max()
            total += max(best, max(args[i], 0.0))
        return float(total)

    if not isinstance(uset, SublinearSet):
        raise TypeError(f"unsupported uncertainty set {type(uset).__name__}")

    atomic = uset.atomic
    gain = _best_direction_gain(atomic, clf.w, resolution)
    if uset.aggregation == SINGLE_SHIFT:
        alloc = np.eye(m)
    else:
        q = _alloc_denominator(m, resolution)
        alloc = _simplex_grid(m, q)
    n_dirs = _unit_directions(ds.dim, resolution, clf.w).shape[0]
    if alloc.shape[0] * m + n_dirs * m > _SEARCH_CAP:
        raise ValueError("brute-force search space exceeds the 1e7-point cap")
    if uset.aggregation == SQRT_BUDGET:
        # gauges t_i = beta_i^2 satisfy sum sqrt(t_i) = 1.
        alloc = alloc * alloc
    vals = np.maximum(args[None, :] + alloc * gain, 0.0).sum(axis=1)
    return float(vals.max())
