import dataclasses
import math

import numpy as np
import pytest

from fckan import kernels
from fckan.basis import (
    BENCH_KINDS,
    FCKAN_FUNCTIONS,
    KINDS,
    UNARY_OP_KINDS,
    BasisConfigError,
    BSplineGrid,
    RBFGrid,
    grid_from_record,
    grid_record,
)


def _value(name, x):
    return float(kernels.unary_values(name, np.asarray([x], dtype=np.float32))[0])


def _row(grid, x):
    """The grid's basis values at the scalar x."""
    return grid.values(np.asarray([x], dtype=np.float64))[0]


def _deriv_row(grid, x):
    return grid.derivs(np.asarray([x], dtype=np.float64))[0]


class TestRegistry:
    def test_views(self):
        assert set(BENCH_KINDS) == {"bspline", "rbf", "dog", "relu", "sin", "cos", "tan",
                                    "arctan"}
        assert set(UNARY_OP_KINDS) == {"relu", "sin", "cos", "arctan", "tanh"}
        assert set(FCKAN_FUNCTIONS) == {"sin", "cos", "arctan", "relu"}
        assert len(BENCH_KINDS) == 8 and len(UNARY_OP_KINDS) == 5 and len(FCKAN_FUNCTIONS) == 4

    def test_grid_kinds(self):
        assert {n for n, use in KINDS.items() if use.grid} == {"bspline", "rbf"}

    @pytest.mark.parametrize("name", [n for n, use in KINDS.items() if use.grid is None])
    def test_elementwise_kinds_have_kernel_values(self, name):
        x = np.linspace(-1.0, 1.0, 9, dtype=np.float32)
        assert np.isfinite(kernels.unary_values(name, x)).all()

    @pytest.mark.parametrize("name", UNARY_OP_KINDS)
    def test_trainable_kinds_have_kernel_derivatives(self, name):
        x = np.linspace(-1.0, 1.0, 9, dtype=np.float32)
        assert np.isfinite(kernels.unary_derivs(name, x)).all()


class TestConfig:
    def test_bspline_basis_count_is_g_plus_k(self):
        assert BSplineGrid(3, 3).num_basis == 6
        assert BSplineGrid(5, 3).num_basis == 8

    def test_knot_vector_shape(self):
        knots = BSplineGrid(5, 3, -1.0, 1.0).knots
        assert len(knots) == 5 + 2 * 3 + 1
        assert np.all(np.diff(knots) > 0)

    def test_rbf_centers_span_the_range(self):
        grid = RBFGrid(5, -1.0, 1.0)
        assert grid.num_basis == 5
        assert grid.centers.tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]
        assert grid.bandwidth == 0.5

    def test_invalid_configs(self):
        with pytest.raises(BasisConfigError):
            BSplineGrid(0, 3)
        with pytest.raises(BasisConfigError):
            BSplineGrid(4, -1)
        with pytest.raises(BasisConfigError):
            RBFGrid(1)
        with pytest.raises(BasisConfigError):
            BSplineGrid(3, 2, lo=1.0, hi=-1.0)
        with pytest.raises(BasisConfigError):
            RBFGrid(4, lo=1.0, hi=1.0)
        with pytest.raises(BasisConfigError):
            BSplineGrid(lo=-math.inf)
        with pytest.raises(BasisConfigError):
            RBFGrid(hi=math.nan)

    def test_frozen_and_rbf_has_no_order(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            BSplineGrid().grid_size = 3
        with pytest.raises(ValueError, match="read-only"):
            BSplineGrid().knots[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            RBFGrid().centers[0] = 0.0
        assert "spline_order" not in {f.name for f in dataclasses.fields(RBFGrid)}
        with pytest.raises(TypeError):
            dataclasses.replace(RBFGrid(), spline_order=3)

    def test_record_layout(self):
        assert grid_record(BSplineGrid(5, 3, -1.5, 1.5)) == {
            "name": "bspline", "grid_size": 5, "spline_order": 3, "lo": -1.5, "hi": 1.5}
        rbf = grid_record(RBFGrid())
        assert rbf == {"name": "rbf", "grid_size": 8, "spline_order": 0, "lo": -2.0, "hi": 2.0}
        assert list(rbf) == ["name", "grid_size", "spline_order", "lo", "hi"]

    @pytest.mark.parametrize("grid", [BSplineGrid(), BSplineGrid(3, 0, 0.0, 2.0),
                                      RBFGrid(), RBFGrid(5, -1.0, 3.0)])
    def test_record_round_trip(self, grid):
        assert grid_from_record(grid_record(grid)) == grid

    @pytest.mark.parametrize("record", [
        {"name": "sigmoid", "grid_size": 5, "spline_order": 3, "lo": -1.0, "hi": 1.0},
        {"name": "sin", "grid_size": 5, "spline_order": 3, "lo": -1.0, "hi": 1.0},
        {"name": "rbf", "grid_size": 5, "spline_order": 3, "lo": -1.0, "hi": 1.0},
        {"name": "bspline", "grid_size": 5, "order": 3, "lo": -1.0, "hi": 1.0},
        {"name": "bspline", "grid_size": 0, "spline_order": 3, "lo": -1.0, "hi": 1.0},
    ])
    def test_bad_records_rejected(self, record):
        with pytest.raises(BasisConfigError):
            grid_from_record(record)


class TestElementwise:
    def test_known_values(self):
        assert _value("arctan", 1.0) == pytest.approx(math.pi / 4, rel=1e-6)
        assert _value("dog", 0.0) == 0.0
        assert _value("dog", 1.0) == pytest.approx(-math.exp(-0.5), rel=1e-6)
        assert _value("relu", -3.0) == 0.0
        assert _value("tan", 0.5) == pytest.approx(math.tan(0.5), rel=1e-6)

    def test_pure_and_deterministic(self):
        xs = np.random.default_rng(0).uniform(-3, 3, 50).astype(np.float32)
        first = kernels.unary_values("sin", xs)
        second = kernels.unary_values("sin", xs)
        assert np.array_equal(first, second)


class TestBspline:
    def test_order0_is_interval_indicator(self):
        assert _row(BSplineGrid(4, 0, 0.0, 1.0), 0.3).tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_linear_hats_hand_values(self):
        assert _row(BSplineGrid(2, 1, 0.0, 1.0), 0.25).tolist() == pytest.approx(
            [0.5, 0.5, 0.0])

    def test_partition_of_unity_dense_sweep(self):
        xs = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, 1000)
        sums = BSplineGrid(5, 3, -1.0, 1.0).values(xs).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-6

    def test_local_support(self):
        grid = BSplineGrid(5, 3, -1.0, 1.0)
        nonzero = np.count_nonzero(grid.values(np.linspace(-0.999, 0.999, 200)), axis=1)
        assert np.all(nonzero <= grid.spline_order + 1)

    def test_out_of_range_decays_to_zero(self):
        grid = BSplineGrid(5, 3, -1.0, 1.0)
        assert np.all(_row(grid, 5.0) == 0.0)
        assert np.all(_row(grid, -5.0) == 0.0)


class TestRbf:
    def test_value_one_at_center(self):
        grid = RBFGrid(5, -1.0, 1.0)
        assert _row(grid, grid.centers[2])[2] == pytest.approx(1.0)

    def test_midpoint_between_centers(self):
        grid = RBFGrid(5, -1.0, 1.0)
        vals = _row(grid, 0.5 * (grid.centers[1] + grid.centers[2]))
        assert vals[1] == pytest.approx(math.exp(-0.25), rel=1e-9)
        assert vals[2] == pytest.approx(math.exp(-0.25), rel=1e-9)

    def test_values_in_unit_interval(self):
        grid = RBFGrid(8, -2.0, 2.0)
        for x in (-10.0, -0.3, 0.0, 1.7, 10.0):
            vals = _row(grid, x)
            assert np.all(vals > 0.0) and np.all(vals <= 1.0)
        # far enough out the exponential underflows to exactly zero
        assert np.all(_row(grid, 1e6) >= 0.0)


class TestDerivatives:
    def test_sin_derivative_at_zero(self):
        assert kernels.unary_derivs("sin", np.zeros(1, dtype=np.float32))[0] == 1.0

    def test_tan_has_no_derivative(self):
        with pytest.raises(ValueError, match="tan"):
            kernels.unary_derivs("tan", np.full(1, 0.3, dtype=np.float32))

    def test_rbf_derivative_zero_at_center(self):
        grid = RBFGrid(5, -1.0, 1.0)
        assert _deriv_row(grid, float(grid.centers[3]))[3] == 0.0

    def test_bspline_derivatives_sum_to_zero_inside(self):
        sums = BSplineGrid(5, 3, -1.0, 1.0).derivs(np.linspace(-0.99, 0.99, 50)).sum(axis=1)
        assert np.all(np.abs(sums) <= 1e-5)

    @pytest.mark.parametrize("kind", [BSplineGrid(5, 3, -1.0, 1.0), RBFGrid(8, -2.0, 2.0)])
    def test_grid_derivatives_match_fd_sweep(self, kind):
        # float64 interior sweep: 100 random points in (lo, hi)
        rng = np.random.default_rng(5)
        xs = rng.uniform(kind.lo + 1e-3, kind.hi - 1e-3, 100)
        h = 1e-6
        for x in xs:
            fd = (_row(kind, x + h) - _row(kind, x - h)) / (2 * h)
            d = _deriv_row(kind, x)
            assert np.max(np.abs(d - fd) / (np.abs(fd) + 1e-3)) < 1e-3

    @pytest.mark.parametrize("name", ["relu", "sin", "cos", "arctan", "tanh", "dog"])
    def test_elementwise_derivatives_match_fd_sweep(self, name):
        rng = np.random.default_rng(6)
        xs = rng.uniform(-2, 2, 100)
        xs[np.abs(xs) < 0.05] += 0.1  # keep clear of relu's kink
        for x in xs:
            fd = (_value(name, x + 1e-3) - _value(name, x - 1e-3)) / 2e-3
            d = kernels.unary_derivs(name, np.asarray([x], dtype=np.float32))[0]
            assert d == pytest.approx(fd, rel=1e-3, abs=2e-4)
