"""Head-to-head benchmark of the weighted-selection paths.

Times, on identical inputs:

* ``stable``: the reference formula, a stable argsort plus a cumsum scan;
* ``numpy``: the library's numpy path (default argsort with tie runs put
  back in index order, then the same scan);
* ``cython``: the compiled median-of-medians kernel, when it is built.

Every path must return the reference's value bit for bit.  Usage:

    python3 benchmarks/kernel_bench.py --sizes 1e4,1e5,1e6 --repeats 5
"""

import argparse
import time

import numpy as np

from onecenter.selection import _select_sorted

try:
    from onecenter._kernels import weighted_select as kernel_select
except ImportError:
    kernel_select = None


def stable_select(values, weights, target):
    """Reference: stable argsort, cumsum, first index reaching the target."""
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    idx = min(int(np.searchsorted(cum, target, side="left")), len(cum) - 1)
    return float(values[order[idx]])


def time_one(fn, values, weights, target, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(values, weights, target)
        best = min(best, time.perf_counter() - t0)
    return result, best


def checked(name, got, ref, n):
    if float(got).hex() != ref.hex():
        raise SystemExit(f"{name} mismatch at n={n}: {got!r} vs stable {ref!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="1e4,1e5,1e6,4e6")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    sizes = [int(float(t)) for t in args.sizes.split(",")]
    rng = np.random.default_rng(args.seed)

    if kernel_select is None:
        print("compiled kernel not available; cython column left empty")

    print(f"{'n':>10}  {'stable (ms)':>12}  {'numpy (ms)':>12}  {'cython (ms)':>12}")
    for n in sizes:
        values = rng.standard_normal(n)
        weights = rng.integers(1, 1024, size=n).astype(np.float64) / 1024.0
        target = 0.5 * float(np.sum(weights))
        ref, t_stable = time_one(stable_select, values, weights, target, args.repeats)
        got, t_numpy = time_one(_select_sorted, values, weights, target, args.repeats)
        checked("numpy", got, ref, n)
        kernel = "-"
        if kernel_select is not None:
            got, t_kernel = time_one(kernel_select, values, weights, target, args.repeats)
            checked("kernel", got, ref, n)
            kernel = f"{t_kernel * 1e3:.3f}"
        print(f"{n:>10}  {t_stable * 1e3:>12.3f}  {t_numpy * 1e3:>12.3f}  {kernel:>12}")


if __name__ == "__main__":
    main()
