"""Per-function throughput microbenchmark.

Measures the wall time of applying each basis function to every element of
one large input array (grid kinds produce their full basis vector per
element). One untimed warm-up pass precedes the timed repeats, a float64
checksum of the outputs defeats dead-code elimination, and everything runs
on one thread. Absolute times are machine-specific; the stable, asserted
fact is the ordering between the B-spline expansion and the cheap
elementwise functions.
"""

import csv
import ctypes
import os
import platform
import time
from dataclasses import dataclass

import numpy as np

from . import kernels
from .basis import BENCH_KINDS, KINDS

CSV_FIELDS = ("function", "mean_us", "std_us", "repeats", "n", "checksum")


@dataclass
class BenchResult:
    function: str
    mean_us: float  # per full n-element pass
    std_us: float
    repeats: int
    n: int
    checksum: float


def _make_pass(name: str, grid, n: int):
    # uniform float64 inputs over the kind's bench range
    x = np.random.default_rng(0).uniform(*KINDS[name].bench, size=n)
    if grid is None:
        x32 = x.astype(np.float32)
        return lambda: kernels.unary_values(name, x32)
    return lambda: grid.values(x)


def bench_function(kind, n: int = 1_000_000, repeats: int = 10) -> BenchResult:
    """Time one function over n elements, repeats times plus a warm-up.

    ``kind`` is a kind name, whose grid kinds time their family's default
    grid, or a BSplineGrid or RBFGrid.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if repeats < 3:
        raise ValueError(f"repeats must be >= 3, got {repeats}")
    name = kind if isinstance(kind, str) else kind.name
    if name not in BENCH_KINDS:
        raise ValueError(f"benchmark covers {BENCH_KINDS}, got {name!r}")
    grid = kind
    if isinstance(kind, str):
        family = KINDS[name].grid
        grid = family() if family else None
    one_pass = _make_pass(name, grid, n)
    out = one_pass()  # warm-up, untimed
    times = np.empty(repeats, dtype=np.float64)
    for r in range(repeats):
        t0 = time.perf_counter()
        out = one_pass()
        times[r] = (time.perf_counter() - t0) * 1e6
    return BenchResult(
        function=name,
        mean_us=float(times.mean()),
        std_us=float(times.std(ddof=1)),
        repeats=repeats,
        n=n,
        checksum=float(np.asarray(out, dtype=np.float64).sum()),
    )


def bench_suite(n: int = 1_000_000, repeats: int = 10):
    """All eight functions under identical conditions, slowest first."""
    results = [bench_function(k, n=n, repeats=repeats) for k in BENCH_KINDS]
    results.sort(key=lambda r: r.mean_us, reverse=True)
    return results


def blas_threads() -> int:
    """Thread count of the OpenBLAS that NumPy loaded; 0 if unknown."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
        for path in libs:
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_get_num_threads64_",
                         "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    return int(fn())
    except OSError:  # no /proc (not Linux) or an unloadable library
        pass
    return 0


def machine_meta() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "kernel_backend": kernels.backend(),
        "threads": blas_threads(),
    }


def write_csv(results, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CSV_FIELDS)
        for r in results:
            w.writerow(
                [r.function, f"{r.mean_us:.3f}", f"{r.std_us:.3f}", r.repeats, r.n,
                 repr(r.checksum)]
            )


def format_table(results) -> str:
    lines = [f"{'function':<10} {'mean_us':>14} {'std_us':>12} {'checksum':>22}"]
    for r in results:
        lines.append(
            f"{r.function:<10} {r.mean_us:>14.3f} {r.std_us:>12.3f} {r.checksum:>22.6f}"
        )
    return "\n".join(lines)

