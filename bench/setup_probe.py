"""Set-up cost of kmaxent: import the package in a fresh process and make one
warm-up fit per method on a series from the benchmark ARMA.

    python3 bench/setup_probe.py SRC_DIR N n

prints the elapsed seconds (import plus warm-up fits) as its last line.
``bench/run.py`` runs it in fresh processes for ``setup_s`` and calls
:func:`warm_up` in its own process before measuring.
"""

import sys
import time


def warm_up(N: int, n: int) -> None:
    """One fit per method, so lazy set-up is done before anything is timed."""
    from kmaxent import harness, simulate

    cfg = harness.ExperimentConfig(N=N, n=n)
    y = simulate.generate(simulate.benchmark_arma(), N, 0)
    for method in cfg.methods:
        harness.fit_method(method, y, cfg)


if __name__ == "__main__":
    src, N, n = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    sys.path.insert(0, src)
    start = time.perf_counter()
    import kmaxent  # noqa: F401  (the import is part of what is timed)

    warm_up(N, n)
    print(repr(time.perf_counter() - start))
