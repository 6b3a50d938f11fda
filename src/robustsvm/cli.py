"""Command-line toolkit: data ingestion, synthetic generators, and
subcommands orchestrating training, robust evaluation, equivalence
checks, probabilistic calibration, and the consistency experiments.

Reports are JSON lines: one header record (config echo, versions, seed,
timestamp), result records in canonical order, and a footer that flags
incomplete runs.  Result records are byte-identical across runs of the
same config and seed; the timestamp lives only in the header.
"""
from __future__ import annotations

import argparse
import datetime
import json
import sys

import numpy as np

from . import __version__
from .core import (
    Dataset,
    LinearClassifier,
    NormSpec,
    classification_error,
    empirical_hinge,
)
from .uncertainty import (
    SUM_BUDGET,
    AtomicSet,
    BoxSet,
    SublinearSet,
    brute_force_worst_case,
    has_negative_margin,
    support_function,
    worst_case_loss_lower,
    worst_case_loss_upper,
)
from .reduction import box_robust_objective, conservatism_gap, robust_objective, robustify
from .solver import SolverConfig, train_regularized
from .kernel import KernelSpec, train_kernel_regularized
from .probabilistic import BudgetPrior, bayes_regularizer, calibrate_chance, uniform_budget_model
from .consistency import run_consistency_experiment
from .data import (
    derived_rng,
    gaussian_blobs,
    generate_synthetic,
    load_dataset,
    load_model,
    save_model,
)

__all__ = ["main", "build_parser"]

_NORMS = {"l1": NormSpec.l1, "l2": NormSpec.l2, "linf": NormSpec.linf}
_AGGREGATIONS = {"sum": "sum-budget", "single": "single-shift", "sqrt": "sqrt-budget"}


class CliError(Exception):
    pass


def _bool_flag(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {value!r}")


def _add_solver_args(sp):
    sp.add_argument("--tolerance", type=float, default=SolverConfig.tolerance)


def _add_data_args(sp):
    sp.add_argument("--data", help="libsvm-format dataset path")
    sp.add_argument("--synthetic", choices=["gaussian-blobs", "replicated-with-noise"])
    sp.add_argument("--m", type=int, default=40)
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--separation", type=float, default=2.0)
    sp.add_argument("--scale", type=float, default=1.0)
    sp.add_argument("--noise-scale", type=float, default=0.1)


def _add_common(sp):
    sp.add_argument("--config", help="flat key=value config file; flags override")
    sp.add_argument("--out", default="-", help="report path, '-' for stdout")
    sp.add_argument("--seed", type=int, default=0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="robustsvm",
        description="Robust-optimization SVM toolkit: training, equivalence checks, "
        "calibration, and consistency experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    sp = sub.add_parser("train", help="minimize c*||w|| + total hinge")
    _add_common(sp)
    _add_data_args(sp)
    _add_solver_args(sp)
    sp.add_argument("--norm", choices=sorted(_NORMS), default="l2")
    sp.add_argument("--c", type=float, default=0.5)
    sp.add_argument("--model-out", help="write the (w, b) dump here")
    subparsers["train"] = sp

    sp = sub.add_parser("robust-eval", help="worst-case hinge losses of a stored model")
    _add_common(sp)
    _add_data_args(sp)
    sp.add_argument("--model")
    sp.add_argument("--atomic-norm", choices=sorted(_NORMS), default="l2")
    sp.add_argument("--radius", type=float, default=0.5)
    sp.add_argument("--aggregation", choices=sorted(_AGGREGATIONS), default="sum")
    sp.add_argument("--resolution", type=int, default=200)
    subparsers["robust-eval"] = sp

    sp = sub.add_parser("equivalence-check", help="sandwich + brute-force comparison")
    _add_common(sp)
    sp.add_argument("--instances", type=int, default=25)
    sp.add_argument("--resolution", type=int, default=200)
    sp.add_argument("--max-n", type=int, default=3)
    sp.add_argument("--max-m", type=int, default=6)
    subparsers["equivalence-check"] = sp

    sp = sub.add_parser("calibrate", help="chance-constrained or Bayesian budget")
    _add_common(sp)
    _add_data_args(sp)
    _add_solver_args(sp)
    sp.add_argument("--mode", choices=["chance", "bayes"])
    sp.add_argument("--eta", type=float, default=0.1)
    sp.add_argument("--n-draws", type=int, default=100000)
    sp.add_argument("--budget-high", type=float, default=1.0)
    sp.add_argument("--prior", help="point:C | uniform:LO,HI | discrete:C@P,C@P,...")
    sp.add_argument("--train", type=_bool_flag, default=False)
    sp.add_argument("--norm", choices=sorted(_NORMS), default="l2")
    sp.add_argument("--model-out")
    subparsers["calibrate"] = sp

    sp = sub.add_parser("kernel-train", help="RKHS-norm-regularized training")
    _add_common(sp)
    _add_data_args(sp)
    _add_solver_args(sp)
    sp.add_argument("--kernel", choices=["linear", "poly", "rbf", "indicator"], default="rbf")
    sp.add_argument("--degree", type=int, default=2)
    sp.add_argument("--gamma", type=float, default=1.0)
    sp.add_argument("--c", type=float, default=0.5)
    sp.add_argument("--model-out")
    subparsers["kernel-train"] = sp

    sp = sub.add_parser("consistency-exp", help="pairing/bound trend over growing m")
    _add_common(sp)
    _add_solver_args(sp)
    sp.add_argument("--sizes", default="50,200,800")
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--c-floor", type=float, default=0.05)
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--separation", type=float, default=2.0)
    sp.add_argument("--scale", type=float, default=1.0)
    subparsers["consistency-exp"] = sp

    sp = sub.add_parser("pathological-demo", help="indicator-kernel failure demo")
    _add_common(sp)
    _add_solver_args(sp)
    sp.add_argument("--m", type=int, default=200)
    sp.add_argument("--trials", type=int, default=10)
    sp.add_argument("--c", type=float, default=0.01)
    sp.add_argument("--separation", type=float, default=2.0)
    subparsers["pathological-demo"] = sp

    return parser, subparsers


def _load_config_file(path) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
            values[key.strip()] = value.strip()
    return values


def _apply_config(subparser, config_path):
    """Install config values as subparser defaults so explicit flags win
    on the re-parse; unknown keys are errors."""
    config = _load_config_file(config_path)
    actions = {a.dest: a for a in subparser._actions if a.dest != "help"}
    converted = {}
    for key, raw in config.items():
        dest = key.replace("-", "_")
        if dest not in actions:
            raise CliError(f"unknown config key {key!r}")
        action = actions[dest]
        if action.type is not None:
            try:
                converted[dest] = action.type(raw)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise CliError(f"config key {key!r}: {exc}") from None
        else:
            converted[dest] = raw
    subparser.set_defaults(**converted)


def _resolve_dataset(args):
    if args.data:
        result = load_dataset(args.data)
        return result.dataset, {"source": args.data, "zero_one_labels_mapped": result.zero_one_labels}
    kind = args.synthetic or "gaussian-blobs"
    params = {"m": args.m, "dim": args.dim, "separation": args.separation, "scale": args.scale}
    if kind == "replicated-with-noise":
        params["noise_scale"] = args.noise_scale
        base, disturbed = generate_synthetic(kind, params, args.seed)
        merged = Dataset.from_arrays(
            np.vstack([base.X, disturbed.X]), np.concatenate([base.y, disturbed.y])
        )
        return merged, {"source": f"synthetic:{kind}", "zero_one_labels_mapped": False}
    ds = generate_synthetic(kind, params, args.seed)
    return ds, {"source": f"synthetic:{kind}", "zero_one_labels_mapped": False}


def _solver_config(args) -> SolverConfig:
    return SolverConfig(tolerance=args.tolerance)


def _train_record(ds, norm, c, cfg, label="train_result"):
    result = train_regularized(ds, norm, c, cfg)
    clf = result.classifier
    return result, {
        "record": label,
        "c": c,
        "w": clf.w.tolist(),
        "b": clf.b,
        "objective": result.objective,
        "lower_bound": result.lower_bound,
        "iterations_used": result.iterations_used,
        "converged": result.converged,
        "separable": result.separable,
        "train_error": classification_error(clf, ds),
        "train_hinge": empirical_hinge(clf, ds),
    }


def _cmd_train(args):
    ds, source = _resolve_dataset(args)
    result, record = _train_record(ds, _NORMS[args.norm](), args.c, _solver_config(args))
    if args.model_out:
        save_model(args.model_out, result.classifier)
    return [record], source


def _cmd_robust_eval(args):
    if not args.model:
        raise CliError("robust-eval requires --model (flag or config)")
    ds, source = _resolve_dataset(args)
    model = load_model(args.model)
    if not isinstance(model, LinearClassifier):
        raise CliError("robust-eval expects a linear model dump")
    atomic = AtomicSet(_NORMS[args.atomic_norm](), args.radius)
    sset = SublinearSet(atomic, _AGGREGATIONS[args.aggregation])
    box = BoxSet.replicate(atomic, len(ds))
    problem = robustify(ds, sset)
    record = {
        "record": "robust_eval",
        "empirical_hinge": empirical_hinge(model, ds),
        "support": support_function(atomic, model.w),
        "worst_case_lower": worst_case_loss_lower(model, ds, sset),
        "worst_case_upper": worst_case_loss_upper(model, ds, sset),
        "is_exact": has_negative_margin(model, ds),
        "robust_objective": robust_objective(model, problem),
        "brute_force": brute_force_worst_case(model, ds, sset, args.resolution),
        "box_objective": box_robust_objective(model, ds, box),
        "conservatism_gap": conservatism_gap(model, ds, sset, box),
    }
    return [record], source


def _random_probe(rng, max_n, max_m):
    """Random instance that is non-separable at the probed (w, b)."""
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(2, max_m + 1))
    for _ in range(200):
        X = rng.normal(scale=1.5, size=(m, n))
        y = rng.choice([-1, 1], size=m)
        if len(set(y.tolist())) < 2:
            continue
        w = rng.normal(size=n)
        b = float(rng.normal(scale=0.5))
        ds = Dataset.from_arrays(X, y)
        clf = LinearClassifier(w, b)
        if has_negative_margin(clf, ds):
            return ds, clf
    raise CliError("failed to build a non-separable probe instance")


def _probe_atomic(rng, n):
    kind = rng.choice(["l1", "l2", "linf", "ellipsoid"])
    radius = float(rng.uniform(0.1, 1.2))
    if kind == "ellipsoid" and n <= 2:
        diag = rng.uniform(0.3, 2.0, size=n)
        return AtomicSet.ellipsoid(np.diag(diag)), "ellipsoid"
    if kind == "ellipsoid":
        kind = "l2"
    return AtomicSet(_NORMS[kind](), radius), kind


def _cmd_equivalence_check(args):
    records = []
    max_gap = 0.0
    max_bound_gap = 0.0
    for i in range(args.instances):
        rng = derived_rng(args.seed, 0, i)
        ds, clf = _random_probe(rng, args.max_n, args.max_m)
        atomic, kind = _probe_atomic(rng, ds.dim)
        sset = SublinearSet(atomic, SUM_BUDGET)
        closed = empirical_hinge(clf, ds) + support_function(atomic, clf.w)
        brute = brute_force_worst_case(clf, ds, sset, args.resolution)
        lower = worst_case_loss_lower(clf, ds, sset)
        upper = worst_case_loss_upper(clf, ds, sset)
        gap = abs(brute - closed)
        bound_gap = abs(lower - upper)
        max_gap = max(max_gap, gap)
        max_bound_gap = max(max_bound_gap, bound_gap)
        records.append(
            {
                "record": "equivalence_instance",
                "instance": i,
                "n": ds.dim,
                "m": len(ds),
                "atomic_kind": kind,
                "closed_form": closed,
                "brute_force": brute,
                "abs_gap": gap,
                "lower": lower,
                "upper": upper,
            }
        )
    records.append(
        {
            "record": "equivalence_summary",
            "instances": args.instances,
            "max_abs_gap": max_gap,
            "max_lower_upper_gap": max_bound_gap,
        }
    )
    return records, {"source": "synthetic:probes"}


def _parse_prior(text: str) -> BudgetPrior:
    kind, _, rest = text.partition(":")
    try:
        if kind == "point":
            return BudgetPrior.point_mass(float(rest))
        if kind == "uniform":
            lo, hi = (float(v) for v in rest.split(","))
            return BudgetPrior.uniform(lo, hi)
        if kind == "discrete":
            atoms = []
            for chunk in rest.split(","):
                c_str, _, p_str = chunk.partition("@")
                atoms.append((float(c_str), float(p_str)))
            return BudgetPrior.discrete(atoms)
    except (ValueError, TypeError) as exc:
        raise CliError(f"bad prior spec {text!r}: {exc}") from None
    raise CliError(f"unknown prior kind {kind!r}")


def _cmd_calibrate(args):
    records = []
    source = {"source": "calibration"}
    if args.mode not in ("chance", "bayes"):
        raise CliError("calibrate requires --mode chance or --mode bayes")
    if args.mode == "chance":
        dm = uniform_budget_model(m=args.m, dim=args.dim, high=args.budget_high)
        c_value = calibrate_chance(dm, args.eta, args.n_draws, seed=args.seed)
        records.append(
            {
                "record": "calibration",
                "mode": "chance",
                "eta": args.eta,
                "n_draws": args.n_draws,
                "c_star": c_value,
            }
        )
    else:
        if not args.prior:
            raise CliError("--prior is required in bayes mode")
        prior = _parse_prior(args.prior)
        c_value = bayes_regularizer(prior)
        records.append({"record": "calibration", "mode": "bayes", "prior": args.prior, "c_bar": c_value})
    if args.train:
        ds, source = _resolve_dataset(args)
        result, record = _train_record(ds, _NORMS[args.norm](), c_value, _solver_config(args))
        records.append(record)
        if args.model_out:
            save_model(args.model_out, result.classifier)
    return records, source


def _cmd_kernel_train(args):
    ds, source = _resolve_dataset(args)
    spec = KernelSpec(args.kernel, degree=args.degree, gamma=args.gamma)
    kc = train_kernel_regularized(ds, spec, args.c, _solver_config(args))
    objective = args.c * kc.norm() + kc.total_hinge(ds)
    record = {
        "record": "kernel_train_result",
        "kernel": args.kernel,
        "c": args.c,
        "alphas": kc.alphas.tolist(),
        "b": kc.offset,
        "objective": objective,
        "rkhs_norm": kc.norm(),
        "train_error": kc.error(ds),
        "train_hinge": kc.total_hinge(ds),
    }
    if args.model_out:
        save_model(args.model_out, kc)
    return [record], source


def _cmd_consistency_exp(args):
    try:
        sizes = [int(v) for v in args.sizes.split(",")]
    except ValueError:
        raise CliError(f"bad sizes list {args.sizes!r}") from None

    def generator(rng, m):
        return gaussian_blobs(m, rng, dim=args.dim, separation=args.separation, scale=args.scale)

    def schedule(m):
        return max(m ** (-1.0 / 8.0), args.c_floor)

    report = run_consistency_experiment(
        generator, sizes, schedule, args.trials, _solver_config(args), seed=args.seed
    )
    records = [
        {
            "record": "consistency_trial",
            "m": r.m,
            "trial": r.trial,
            "c": r.c,
            "gamma": r.gamma,
            "test_error": r.test_error,
            "error_bound": r.error_bound,
            "test_avg_hinge": r.test_avg_hinge,
            "hinge_bound": r.hinge_bound,
        }
        for r in report.records
    ]
    records.append(
        {
            "record": "consistency_summary",
            "median_gamma": {str(k): v for k, v in report.median_gamma.items()},
            "median_test_error": {str(k): v for k, v in report.median_test_error.items()},
            "gamma_medians_nonincreasing": report.gamma_medians_nonincreasing,
            "test_error_medians_nonincreasing": report.test_error_medians_nonincreasing,
            "bound_violations": report.bound_violations,
        }
    )
    return records, {"source": "synthetic:gaussian-blobs"}


def _cmd_pathological_demo(args):
    records = []
    errors = []
    hinges = []
    for trial in range(args.trials):
        rng = derived_rng(args.seed, 7, trial)
        train = gaussian_blobs(args.m, rng, dim=2, separation=args.separation)
        test = gaussian_blobs(args.m, rng, dim=2, separation=args.separation)
        kc = train_kernel_regularized(train, KernelSpec.indicator(), args.c, _solver_config(args))
        err = kc.error(test)
        hinge = kc.total_hinge(train)
        errors.append(err)
        hinges.append(hinge)
        records.append(
            {
                "record": "pathological_trial",
                "trial": trial,
                "train_hinge": hinge,
                "test_error": err,
                "offset": kc.offset,
            }
        )
    records.append(
        {
            "record": "pathological_summary",
            "median_train_hinge": float(np.median(hinges)),
            "median_test_error": float(np.median(errors)),
        }
    )
    return records, {"source": "synthetic:gaussian-blobs"}


_COMMANDS = {
    "train": _cmd_train,
    "robust-eval": _cmd_robust_eval,
    "equivalence-check": _cmd_equivalence_check,
    "calibrate": _cmd_calibrate,
    "kernel-train": _cmd_kernel_train,
    "consistency-exp": _cmd_consistency_exp,
    "pathological-demo": _cmd_pathological_demo,
}


def _write_report(out, lines):
    text = "\n".join(lines) + "\n"
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def main(argv=None) -> int:
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    subparser = subparsers[args.command]
    try:
        if args.config:
            _apply_config(subparser, args.config)
            args = parser.parse_args(argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    config_echo = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("command", "config", "out")
    }
    header = {
        "record": "header",
        "command": args.command,
        "config": config_echo,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    lines = [json.dumps(header, sort_keys=True)]
    try:
        records, source = _COMMANDS[args.command](args)
    except Exception as exc:  # every failure still gets its error record and footer
        lines.append(json.dumps({"record": "error", "message": str(exc)}, sort_keys=True))
        lines.append(json.dumps({"record": "footer", "complete": False}, sort_keys=True))
        _write_report(args.out, lines)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    header["data"] = source  # echoed in header for provenance
    lines[0] = json.dumps(header, sort_keys=True)
    lines.extend(json.dumps(r, sort_keys=True) for r in records)
    lines.append(json.dumps({"record": "footer", "complete": True, "n_results": len(records)}, sort_keys=True))
    _write_report(args.out, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
