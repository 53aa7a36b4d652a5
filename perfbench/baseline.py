"""Regenerate the baseline table of ROADMAP.md: wall time of library calls.

Run from the repository root: ``python3 perfbench/baseline.py``.  Each row
is the median of three calls in this process with BLAS pinned to one thread,
printed as a Markdown table.  These are the library operations the ROADMAP
quotes, not CLI commands; ``run.py`` measures those.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from freesum.freeconv import free_convolve  # noqa: E402
from freesum.freeentropy import epi_deficit  # noqa: E402
from freesum.geometry import MonteCarloConfig, SetSpec, ThetaSpec, check_theorem12  # noqa: E402
from freesum.measure import standard_family  # noqa: E402
from freesum.microstates import (  # noqa: E402
    StepFunctionSpec,
    estimate_log_volume_omega,
    log_flag_constant,
    theta_fraction,
)

REPEATS = 3


def _rows():
    sc1 = standard_family("semicircle", [1.0])
    arcsine = standard_family("arcsine", [1.0])
    uniform = standard_family("uniform", [-1.0, 1.0])
    h_sc = StepFunctionSpec.from_quantiles(sc1)

    def volume_cold():
        log_flag_constant.cache_clear()
        return estimate_log_volume_omega(StepFunctionSpec.identity(), 32, 100_000, 1)

    return [
        ("`free_convolve` semicircle+semicircle, 2048 cells",
         lambda: free_convolve(sc1, sc1)),
        ("`free_convolve` arcsine+uniform", lambda: free_convolve(arcsine, uniform)),
        ("`epi_deficit` semicircle+uniform", lambda: epi_deficit(sc1, uniform)),
        ("`check_theorem12` balls, n=3, 2M pairs, <x,y> <= 0",
         lambda: check_theorem12(SetSpec.ball(1.0, 3), SetSpec.ball(0.7, 3),
                                 ThetaSpec.inner_product_leq(0.0),
                                 MonteCarloConfig(pair_samples=2_000_000, seed=7))),
        ("`check_theorem12` balls, n=6, 1M pairs, full Theta",
         lambda: check_theorem12(SetSpec.ball(1.0, 6), SetSpec.ball(0.8, 6), ThetaSpec.full(),
                                 MonteCarloConfig(pair_samples=1_000_000, seed=7))),
        ("`theta_fraction` k=128, 100 trials",
         lambda: theta_fraction(h_sc, h_sc, 128, 3, 0.1, 100, 29)),
        ("`estimate_log_volume_omega` k=32, 1e5 samples, cold flag constant", volume_cold),
    ]


def main() -> int:
    print("| operation | median wall time (s) | runs |")
    print("| --- | --- | --- |")
    for label, call in _rows():
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        print(f"| {label} | {statistics.median(times):.2f} | "
              + ", ".join(f"{t:.2f}" for t in times) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
