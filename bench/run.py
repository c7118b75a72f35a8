"""Benchmark entry point.

    python3 bench/run.py --workload {cli-io,lattice,moyal,dynamics} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: torusq is imported from ./src.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the full report goes to
.bench_out/result-<workload>-seed<N>-trace<T>.json, and a traced run also
writes its spans to .bench_out/spans-<workload>-seed<N>.json.
"""
import os
import sys

# One client, no extra threads: BLAS must be pinned before numpy loads.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if __name__ == "__main__":
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = "1"
    from harness import main

    sys.exit(main())
