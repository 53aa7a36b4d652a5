"""Test entry point: BLAS threads pinned to one unless the caller sets them.

pytest loads this file before any test module, so the variables are in
place when numpy is first imported and its BLAS reads them.  Runtime
ceilings in the acceptance battery then do not depend on BLAS threads
oversubscribing the cores.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")


def pytest_report_header(config):
    threads = " ".join(f"{var}={os.environ[var]}" for var in THREAD_VARS)
    return f"BLAS threads: {threads}; os.cpu_count()={os.cpu_count()}"
