"""freesum benchmark: time to verdict per CLI command, checked outputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload convolution --seed 1 --seconds 12 --trace 0

One process runs one workload as a closed loop: whole rounds of the
workload's seed-generated configs go through ``freesum.cli.run`` one after
another until ``--seconds`` would be exceeded (at least one round).  BLAS is
pinned to one thread before numpy loads.  Every output is checked by
``checks.py``, which does not import freesum.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` the entry points of each freesum module are wrapped
(``tracing.py``) and the line holds the per-layer metrics instead.  The line
before it records the environment and the per-operation times.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import copy  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60
TRACE_DIR = ROOT / ".perfbench-trace"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def import_freesum() -> dict:
    """Import freesum from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import freesum
    from freesum import cli, cumulants, freeconv, freeentropy, geometry, measure
    from freesum import microstates, transform

    if not Path(freesum.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"freesum imported from {freesum.__file__}, not from {src}")
    return {
        "cli": cli,
        "cumulants": cumulants,
        "freeconv": freeconv,
        "freeentropy": freeentropy,
        "geometry": geometry,
        "measure": measure,
        "microstates": microstates,
        "transform": transform,
    }


def environment() -> dict:
    import mpmath
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def measure_setup(configs: list) -> float:
    """Median wall time of a fresh interpreter importing and validating."""
    payload = json.dumps(configs)
    probe = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py")]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(probe, input=payload, text=True, capture_output=True,
                              cwd=ROOT, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return statistics.median(times)


def run_round(ops, cli, clear_flag_cache):
    """One pass over the operations; returns per-op (seconds, failures, l1)."""
    results = []
    for op in ops:
        config = copy.deepcopy(op.config)
        if op.command == "microstates-volume":
            clear_flag_cache()  # as in a fresh CLI process
        start = time.perf_counter()
        try:
            text, _code, _ = cli.run(config)
        except Exception:  # an operation that raises is a failed operation
            results.append((time.perf_counter() - start, [traceback.format_exc()], None))
            continue
        elapsed = time.perf_counter() - start
        try:
            failures, l1 = checks.check(op.config, json.loads(text))
        except Exception:
            failures, l1 = [f"check raised:\n{traceback.format_exc()}"], None
        results.append((elapsed, failures, l1))
    return results


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        mods = import_freesum()
    except ImportError as err:
        print(f"error: cannot import freesum from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    cli = mods["cli"]
    clear_flag_cache = mods["microstates"].log_flag_constant.cache_clear
    ops = workloads.build(args.workload, args.seed)

    setup_s = None
    tracer = None
    if args.trace:
        tracer = tracing.install(mods)
    else:
        setup_s = measure_setup([op.config for op in ops])

    rounds, layer_rounds, round_seconds = [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        mark = tracer.mark() if tracer else 0
        rounds.append(run_round(ops, cli, clear_flag_cache))
        now = time.perf_counter()
        round_seconds.append(now - round_start)
        if tracer:
            layer_rounds.append(tracing.layer_metrics(tracer, mark, tracer.mark()))
        # whole rounds only, and none that would end past --seconds
        if now - start + round_seconds[-1] > args.seconds:
            break

    attempted = failed = 0
    correct = True
    reported = set()
    for results in rounds:
        for op, (_, failures, _) in zip(ops, results):
            attempted += 1
            if not failures:
                continue
            failed += 1
            if op.known_fault is None:
                correct = False
            if op.label not in reported:
                reported.add(op.label)
                reason = f" (known fault: {op.known_fault})" if op.known_fault else ""
                print(f"FAILED {op.label}{reason}: " + "; ".join(failures), file=sys.stderr)

    samples = {}
    for results in rounds:
        for op, (seconds, _, _) in zip(ops, results):
            samples.setdefault(op.label, []).append(seconds)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "round_seconds": round_seconds,
        "environment": environment(),
        "median_seconds_per_operation": {k: statistics.median(v) for k, v in samples.items()},
    }))

    if tracer:
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.dump(TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl.gz")
        metrics = tracing.median_metrics(layer_rounds)
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        for command, name in workloads.COMMAND_METRICS.items():
            per_round = [sum(t for op, (t, _, _) in zip(ops, r) if op.command == command)
                         for r in rounds]
            metrics[name] = {"value": statistics.median(per_round), "unit": "s"}
        l1 = [d for r in rounds for (_, _, d) in r if d is not None]
        # every workload convolves at least one pair with a closed form; if all
        # of them raised, correct is already false
        metrics["freeconv_l1"] = {"value": max(l1, default=0.0), "unit": "1"}
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB"}

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
