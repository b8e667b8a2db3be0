"""Benchmark command: ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``.

BLAS is pinned to one thread before numpy is imported, on every commit alike:
on two vCPUs the default threading was measured slower than one thread, and
extra BLAS threads compete with the interpreter for the same cores. The
package is imported from ``src`` next to this directory, so the benchmark
runs from a plain source checkout with nothing installed.
"""

import os
import sys

BLAS_THREADS = "1"

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [here, os.path.join(os.path.dirname(here), "src")]
    try:
        import bench
    except ImportError as exc:
        print(f"perfbench: cannot import the program from src/: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(bench.main())
