"""The three workloads: their inputs, the program calls each job makes, and
the checks of each job's output against `reference`.

Every workload is a sequence of rounds.  A round is a fixed list of job
kinds; the seed only draws each job's data and parameters, so every run
attempts the same mix of operations, and the share of known failures is
the same in every run.  Inputs reach the program as arrays through
`Dataset.from_arrays`, inside the timed job.
"""
from __future__ import annotations

import math

import numpy as np

import reference as ref

TOL = 1e-6  # allowed excess of the program's objective over the optimum, relative to max(1, opt)
ROUNDOFF = 1e-10  # relative slack for sums that the program and the checks order differently


def _rng(*key):
    return np.random.default_rng([int(k) for k in key])


def blobs(rng, m: int, n: int, separation: float):
    """Two balanced unit-variance gaussian classes, means +-separation/2 on axis 0."""
    y = np.where(np.arange(m) < m // 2, 1, -1)
    X = rng.standard_normal((m, n))
    X[:, 0] += y * separation / 2.0
    return X, y


def slab(rng, m: int, n: int, gap: float):
    """Gaussian points pushed out of the slab |x_0| < gap/2 onto their
    label's side, so the classes are separable with margin gap/2."""
    y = np.where(np.arange(m) < m // 2, 1, -1)
    X = rng.standard_normal((m, n))
    X[:, 0] = y * (gap / 2.0 + np.abs(X[:, 0]))
    return X, y


def _spd(rng, n: int):
    A = rng.standard_normal((n, n))
    S = A @ A.T / n + 0.25 * np.eye(n)
    return (S + S.T) / 2.0


class Workload:
    """A workload without set-up; subclasses give `round`, `run` and `check`."""

    reps_setup = 1  # how often set-up is repeated to take its median

    def setup_inputs(self, seed):
        return None

    def setup(self, rs, inputs):
        return None


def _objective_ok(obj: float, bracket) -> bool:
    scale = max(1.0, abs(bracket.lower))
    return bracket.lower - ROUNDOFF * scale <= obj <= bracket.upper + TOL * max(1.0, bracket.upper)


# ---------------------------------------------------------------- train-linear

# (dimension, atomic ball, separable, samples, radius range).  Six jobs on
# 500 overlapping samples in n = 2 form the middle cost band, three on 200
# lie below it and four larger or harder ones above, so the median job falls
# inside the band.  On separable sets the descent runs all 20000 iterations
# for radius up to about 1 and stalls after 500 from about 2 on; the round
# holds one separable job on each side of that switch.
LINEAR_ROUND = (
    (2, "l2", False, 200, (0.2, 2.0)),
    (2, "l1", False, 500, (0.2, 2.0)),
    (2, "linf", False, 500, (0.2, 2.0)),
    (2, "ellipsoidal", False, 200, (0.2, 2.0)),
    (2, "l2", False, 500, (0.2, 2.0)),
    (2, "ellipsoidal", False, 500, (0.2, 2.0)),
    (2, "linf", False, 1000, (0.2, 2.0)),
    (2, "l1", False, 200, (0.2, 2.0)),
    (2, "l2", False, 500, (0.2, 2.0)),
    (3, "ellipsoidal", False, 300, (0.2, 2.0)),
    (2, "linf", False, 500, (0.2, 2.0)),
    (2, "l2", True, 300, (0.2, 1.0)),
    (3, "linf", True, 200, (2.5, 4.0)),
)
_AGGREGATIONS = ("sum-budget", "sqrt-budget", "single-shift")
# The regularizer that training against each atomic ball reduces to.
_PREDUAL = {"l1": "linf", "linf": "l1", "l2": "l2", "ellipsoidal": "ellipsoidal"}


class TrainLinear(Workload):
    name = "train-linear"

    def round(self, seed, r):
        jobs = []
        for k, (n, ball, sep, m, radii) in enumerate(LINEAR_ROUND):
            g = _rng(seed, r, k)
            X, y = slab(g, m, n, g.uniform(1.0, 2.0)) if sep else blobs(g, m, n, g.uniform(0.5, 2.0))
            jobs.append({
                "kind": f"n{n}-{ball}-{'separable' if sep else 'overlap'}",
                "X": X, "y": y, "ball": ball, "radius": float(g.uniform(*radii)),
                "shape": _spd(g, n) if ball == "ellipsoidal" else None,
                "aggregation": _AGGREGATIONS[k % 3],
            })
        return jobs

    def run(self, rs, state, job):
        core, unc = rs.core, rs.uncertainty
        ds = core.Dataset.from_arrays(job["X"], job["y"])
        norm = core.NormSpec(job["ball"], job["shape"])
        uset = unc.SublinearSet(unc.AtomicSet(norm, job["radius"]), job["aggregation"])
        res = rs.solver.train_robust(ds, uset, rs.solver.SolverConfig())
        return res.objective, np.array(res.classifier.w), res.classifier.b, res.separable

    def check(self, state, job, out):
        obj, w, b, separable = out
        X, y = job["X"], job["y"].astype(float)
        reg = ref.Reg(_PREDUAL[job["ball"]], job["shape"])
        own = ref.hinge_objective(X, y, reg, job["radius"], w, b)
        bracket = ref.linear_bracket(X, y, reg, job["radius"])
        failed = []
        if not _objective_ok(obj, bracket):
            failed.append("optimum")
        if abs(obj - own) > ROUNDOFF * max(1.0, abs(own)):
            failed.append("objective-evaluation")
        if separable != ref.separable(X, y):
            failed.append("separable-flag")
        return failed


# ---------------------------------------------------------------- train-kernel

# (samples, class separation range) of the linear-kernel jobs, in two
# dimensions; data and c come from the seed.  Six of ten jobs are large
# overlapping sets, whose descent stalls after about the same number of
# iterations, so the median job falls in their narrow cost band; the two
# small well-separated sets vary more.  Polynomial kernels and
# three-dimensional inputs are left out: training stops above the optimum
# on some seeds only, so those jobs cannot be counted exactly (see
# README.md).
KERNEL_ROUND = (
    (100, (0.25, 0.75)),
    (110, (0.25, 0.75)),
    (120, (0.25, 0.75)),
    (40, (1.5, 2.5)),
    (100, (0.25, 0.75)),
    (110, (0.25, 0.75)),
    (120, (0.25, 0.75)),
    (60, (1.5, 2.5)),
)
# RBF training stops above the optimum on every input tried, so these jobs
# are counted as failed.  Their inputs do not depend on the seed, which keeps
# the failed share exact; README.md gives the range they come from.
RBF_JOBS = (
    # (data key, samples, gamma, c)
    (0, 24, 0.5, 0.3),
    (1, 24, 1.0, 0.3),
)


class TrainKernel(Workload):
    name = "train-kernel"

    def round(self, seed, r):
        jobs = []
        for k, (m, separations) in enumerate(KERNEL_ROUND):
            g = _rng(seed, r, k)
            X, y = blobs(g, m, 2, g.uniform(*separations))
            jobs.append({"kind": "linear", "X": X, "y": y, "gamma": None,
                         "c": float(g.uniform(0.1, 1.0))})
        for key, m, gamma, c in RBF_JOBS:
            X, y = blobs(_rng(7919, key), m, 2, 2.0)
            jobs.append({"kind": "rbf", "X": X, "y": y, "gamma": gamma, "c": c,
                         "known_fault": True})
        return jobs

    def run(self, rs, state, job):
        ds = rs.core.Dataset.from_arrays(job["X"], job["y"])
        K = rs.kernel.KernelSpec
        spec = K.linear() if job["gamma"] is None else K.rbf(job["gamma"])
        kc = rs.kernel.train_kernel_regularized(ds, spec, job["c"], rs.solver.SolverConfig())
        return np.array(kc.alphas), kc.offset

    def check(self, state, job, out):
        a, b = out
        X, y = job["X"], job["y"].astype(float)
        K = X @ X.T if job["gamma"] is None else ref.rbf_gram(X, X, job["gamma"])
        obj = float(job["c"] * math.sqrt(max(a @ K @ a, 0.0))
                    + np.maximum(1.0 - y * (K @ a + b), 0.0).sum())
        bracket = ref.kernel_bracket(K, y, job["c"])
        return [] if _objective_ok(obj, bracket) else ["optimum"]


# -------------------------------------------------------------------- certify

CERT_TRAIN = 2000  # training-set size, and the size of each job's fresh test set
CERT_SEPARATION = 1.5
CERT_AUDIT = 24  # samples whose worst-case losses a job evaluates
CERT_DRAWS = 100_000
CERT_RESOLUTION = 64
CERT_BALLS = ("l1", "l2", "linf")
CERT_ETAS = (0.05, 0.1, 0.2)


def _dual_of_ball(ball: str, w) -> float:
    """Support of the unit `ball` in direction w (the dual norm of w)."""
    if ball == "l1":
        return float(np.abs(w).max())
    if ball == "linf":
        return float(np.abs(w).sum())
    return math.hypot(*w)


class Certify(Workload):
    name = "certify"
    reps_setup = 3

    def setup_inputs(self, seed):
        self.train_arrays = blobs(_rng(seed, 1000), CERT_TRAIN, 2, CERT_SEPARATION)
        return self.train_arrays

    def setup(self, rs, inputs):
        """Train the classifier the jobs certify, robustly against an L2
        ball of radius 0.5."""
        ds = rs.core.Dataset.from_arrays(*inputs)
        uset = rs.uncertainty.SublinearSet(rs.uncertainty.AtomicSet(rs.core.NormSpec.l2(), 0.5))
        return ds, rs.solver.train_robust(ds, uset, rs.solver.SolverConfig()).classifier

    def round(self, seed, r):
        Xtr = self.train_arrays[0]
        jobs = []
        for k in range(len(CERT_BALLS) * len(CERT_ETAS)):
            g = _rng(seed, r, k)
            Xa, ya = blobs(g, CERT_AUDIT, 2, CERT_SEPARATION)
            Xt, yt = blobs(g, CERT_TRAIN, 2, CERT_SEPARATION)
            K = max(np.linalg.norm(Xtr, axis=1).max(), np.linalg.norm(Xt, axis=1).max())
            jobs.append({
                "kind": f"{CERT_BALLS[k % 3]}-eta{CERT_ETAS[k // 3]}",
                "Xa": Xa, "ya": ya, "Xt": Xt, "yt": yt,
                "ball": CERT_BALLS[k % 3], "radius": float(g.uniform(0.1, 1.0)),
                "eta": CERT_ETAS[k // 3], "high": float(g.uniform(0.5, 2.0)),
                "draw_seeds": (int(g.integers(2**31)), int(g.integers(2**31))),
                "pair_c": float(g.uniform(0.15, 0.3)),
                "box": (np.minimum(Xtr.min(axis=0), Xt.min(axis=0)),
                        np.maximum(Xtr.max(axis=0), Xt.max(axis=0))),
                "K": K * (1.0 + 1e-9),
            })
        return jobs

    def run(self, rs, state, job):
        core, unc, red, prob, cons = rs.core, rs.uncertainty, rs.reduction, rs.probabilistic, rs.consistency
        train, clf = state
        audit = core.Dataset.from_arrays(job["Xa"], job["ya"])
        test = core.Dataset.from_arrays(job["Xt"], job["yt"])
        atomic = unc.AtomicSet(core.NormSpec(job["ball"]), job["radius"])
        out = {"upper": {}, "lower": {}, "brute": {}}
        for agg in _AGGREGATIONS:
            uset = unc.SublinearSet(atomic, agg)
            out["upper"][agg] = unc.worst_case_loss_upper(clf, audit, uset)
            out["lower"][agg] = unc.worst_case_loss_lower(clf, audit, uset)
            out["brute"][agg] = unc.brute_force_worst_case(clf, audit, uset, CERT_RESOLUTION)
        box = unc.BoxSet.replicate(atomic, len(audit))
        out["box"] = red.box_robust_objective(clf, audit, box)
        out["box_brute"] = unc.brute_force_worst_case(clf, audit, box, CERT_RESOLUTION)
        dm = prob.uniform_budget_model(len(audit), audit.dim, job["high"])
        s1, s2 = job["draw_seeds"]
        out["c_star"] = prob.calibrate_chance(dm, job["eta"], CERT_DRAWS, s1)
        out["coverage"] = prob.chance_bound_check(clf, audit, dm, out["c_star"], CERT_DRAWS, s2)
        c = job["pair_c"]
        exact = cons.max_pairings_exact(train, test, c)
        brick = cons.brick_pairing_lower_bound(train, test, c, job["box"])
        report = cons.generalization_bound(clf, train, test, c, exact, job["K"])
        out.update(exact=exact.matched, brick=brick.matched, report=report,
                   w=np.array(clf.w), b=clf.b)
        return out

    def check(self, state, job, out):
        w, b = out["w"], out["b"]
        failed = []

        def close(a, b_, tol=ROUNDOFF):
            return abs(a - b_) <= tol * max(1.0, abs(b_))

        # Worst-case losses on the audit batch.
        Xa, ya = job["Xa"], job["ya"].astype(float)
        args = 1.0 - ya * (Xa @ w + b)
        support = job["radius"] * _dual_of_ball(job["ball"], w)
        closed = np.maximum(args, 0.0).sum() + support
        negative = bool(np.any(args > 1.0))
        for agg in _AGGREGATIONS:
            up, lo, bf = out["upper"][agg], out["lower"][agg], out["brute"][agg]
            if not close(up, closed):
                failed.append(f"closed-form-{agg}")
            if not (lo <= bf + ROUNDOFF * max(1.0, bf) and bf <= up + 1e-9):
                failed.append(f"sandwich-{agg}")
            if negative and abs(bf - up) > 1e-2:
                failed.append(f"brute-force-{agg}")
        own_box = float(np.maximum(args + support, 0.0).sum())
        if not close(out["box"], own_box):
            failed.append("box-closed-form")
        if not (out["box_brute"] <= own_box + 1e-9):
            failed.append("box-brute-force")

        # Chance calibration: the budget is uniform on [0, high].
        eta, high = job["eta"], job["high"]
        if abs(out["c_star"] - (1.0 - eta) * high) > 0.02:
            failed.append("c-star")
        if out["coverage"] < 1.0 - eta - 3.0 * math.sqrt(eta * (1.0 - eta) / CERT_DRAWS):
            failed.append("coverage")

        # Pairing and the generalization bounds.
        Xtr, ytr = self.train_arrays
        Xt, yt = job["Xt"], job["yt"]
        m = len(ytr)
        edges = ref.pairing_edges(Xtr, ytr, Xt, yt, job["pair_c"])
        matched = ref.max_matching(m, len(yt), edges)
        if out["exact"] != matched:
            failed.append("matching")
        if not out["brick"] <= out["exact"] <= m:
            failed.append("brick-order")
        gamma = 1.0 - matched / m
        w_norm = math.hypot(*w)
        train_hinge = float(np.maximum(1.0 - ytr * (Xtr @ w + b), 0.0).mean())
        scores = Xt @ w + b
        test_error = float(np.mean(np.where(scores >= 0.0, 1, -1) != yt))
        test_hinge = float(np.maximum(1.0 - yt * scores, 0.0).mean())
        error_bound = gamma + job["pair_c"] * w_norm + train_hinge
        hinge_bound = gamma * (1.0 + job["K"] * w_norm + abs(b)) + job["pair_c"] * w_norm + train_hinge
        rep = out["report"]
        if not (close(rep.test_error, test_error) and close(rep.error_bound, error_bound)
                and close(rep.test_avg_hinge, test_hinge) and close(rep.hinge_bound, hinge_bound)):
            failed.append("bound-values")
        if not (test_error <= error_bound + 1e-12 and test_hinge <= hinge_bound + 1e-12):
            failed.append("bound-violated")
        return failed


WORKLOADS = {w.name: w for w in (TrainLinear(), TrainKernel(), Certify())}
