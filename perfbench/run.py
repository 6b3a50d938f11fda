"""Benchmark of the robustsvm library: one closed-loop client, no think time.

    python3 perfbench/run.py --workload train-linear --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the library from its
`src/` directory.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  The traced run also
writes its spans to perfbench/results/.  See perfbench/README.md.
"""
from __future__ import annotations

import os

# Fixed before numpy loads: one BLAS thread, so a job's time does not depend
# on how busy the other core is.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
IMPORT_SAMPLES = 5

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import robustsvm; "
    "print(time.perf_counter() - t); print(robustsvm.__file__)"
)


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_seconds() -> float:
    """Median wall time of `import robustsvm` in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2 or not Path(lines[1]).resolve().is_relative_to(SRC):
            fail(f"cannot import robustsvm from {SRC}: {proc.stderr.strip()[-500:]}")
        samples.append(float(lines[0]))
    return statistics.median(samples)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "robustsvm" / "__init__.py").is_file():
        fail(f"no robustsvm sources under {SRC}")
    sys.path.insert(0, str(HERE))
    import workloads
    from spans import Tracer

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    import_s = import_seconds()
    sys.path.insert(0, str(SRC))
    import robustsvm as rs
    if not Path(rs.__file__).resolve().is_relative_to(SRC):
        fail(f"imported robustsvm from {rs.__file__}, not from {SRC}")
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(rs)

    inputs = wl.setup_inputs(args.seed)
    setup_calls = []
    for rep in range(wl.reps_setup):
        if tracer:
            tracer.job = "setup" if rep == 0 else f"setup-{rep}"
        t0 = time.perf_counter()
        state = wl.setup(rs, inputs)
        setup_calls.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_calls)

    latencies, failed, unexpected = [], 0, []
    busy = 0.0
    r = 0
    while busy < args.seconds:
        for job in wl.round(args.seed, r):
            if tracer:
                tracer.job = len(latencies)
            t0 = time.perf_counter()
            try:
                out, raised = wl.run(rs, state, job), None
            except Exception:
                out, raised = None, traceback.format_exc()
            dt = time.perf_counter() - t0
            busy += dt
            latencies.append(dt)
            if raised:
                problems = ["raised"]
                print(f"perfbench: {job['kind']} raised:\n{raised}", file=sys.stderr)
            else:
                problems = wl.check(state, job, out)
            if problems:
                failed += 1
                if not (job.get("known_fault") and problems == ["optimum"]):
                    unexpected.append(f"round {r} {job['kind']}: {', '.join(problems)}")
        r += 1

    for line in unexpected:
        print(f"perfbench: failed {line}", file=sys.stderr)
    p50_ms = 1000.0 * statistics.median(latencies)
    if tracer:
        metrics = tracer.metrics(len(latencies), p50_ms)
        out_dir = HERE / "results"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = {
            "jobs_per_s": {"value": len(latencies) / busy, "unit": "1/s"},
            "job_p50_ms": {"value": p50_ms, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": not unexpected, "attempted": len(latencies),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
