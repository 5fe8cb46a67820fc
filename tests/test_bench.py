import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import fckan
from fckan import kernels
from fckan.basis import KINDS, ConfigError
from fckan.bench import (
    CSV_FIELDS,
    bench_function,
    bench_suite,
    blas_threads,
    format_table,
    machine_meta,
    write_csv,
)


def test_result_structure():
    r = bench_function("relu", n=10_000, repeats=5)
    assert r.function == "relu"
    assert r.repeats == 5 and r.n == 10_000
    assert r.mean_us > 0 and r.std_us >= 0


def test_checksum_deterministic_across_invocations():
    a = bench_function("sin", n=5_000, repeats=3)
    b = bench_function("sin", n=5_000, repeats=3)
    assert a.checksum == b.checksum


def test_grid_kinds_checksum_covers_full_basis_vector():
    r = bench_function("bspline", n=2_000, repeats=3)
    # partition of unity: summing all G+k values per input gives ~n
    assert r.checksum == pytest.approx(2_000, rel=1e-3)


@pytest.mark.parametrize("name", ["bspline", "rbf"])
def test_grid_kinds_checksum_sums_the_values_in_row_order(name):
    # whatever the layout a kernel returns, the checksum keeps the bits of a
    # row-major [n, nb] sum
    x = np.random.default_rng(0).uniform(*KINDS[name].bench, size=2_000)
    values = np.array(KINDS[name].grid().values(x), order="C")
    assert bench_function(name, n=2_000, repeats=3).checksum == float(values.sum())


def test_input_contracts():
    with pytest.raises(ValueError):
        bench_function("relu", n=0, repeats=3)
    with pytest.raises(ValueError):
        bench_function("relu", n=100, repeats=2)
    with pytest.raises(ValueError):
        bench_function("sigmoid", n=100, repeats=3)
    with pytest.raises(ConfigError, match="n must"):
        bench_function("relu", n=2.5, repeats=3)
    with pytest.raises(ConfigError, match="repeats"):
        bench_function("relu", n=10, repeats=3.0)


def test_suite_has_all_eight_sorted(tmp_path):
    results = bench_suite(n=2_000, repeats=3)
    assert len(results) == 8
    assert {r.function for r in results} == set(KINDS)
    means = [r.mean_us for r in results]
    assert means == sorted(means, reverse=True)

    path = tmp_path / "bench.csv"
    write_csv(results, path)
    with open(path) as f:
        rows = list(csv.reader(f))
    assert tuple(rows[0]) == CSV_FIELDS
    assert len(rows) == 9

    table = format_table(results)
    assert "bspline" in table and "relu" in table


def test_bspline_slower_than_relu_at_moderate_n():
    # the asserted ordering fact, at a size small enough for unit tests
    slow = bench_function("bspline", n=20_000, repeats=3)
    fast = bench_function("relu", n=20_000, repeats=3)
    assert slow.mean_us > fast.mean_us


def test_repeat_invocations_stay_within_sanity_bound():
    a = bench_function("bspline", n=20_000, repeats=5)
    b = bench_function("bspline", n=20_000, repeats=5)
    ratio = max(a.mean_us, b.mean_us) / min(a.mean_us, b.mean_us)
    assert ratio < 3.0


def test_machine_meta_fields():
    meta = machine_meta()
    assert meta["threads"] == blas_threads() >= 0
    assert meta["kernel_backend"] == kernels.backend()


def test_machine_meta_reports_the_blas_pool_size():
    if blas_threads() == 0:
        pytest.skip("NumPy's BLAS is not OpenBLAS")
    src = os.path.dirname(os.path.dirname(fckan.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "from fckan.bench import machine_meta; print(machine_meta()['threads'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "1"
