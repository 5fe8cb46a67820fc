import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fckan import kernels
from fckan.basis import (
    FCKAN_FUNCTIONS,
    KINDS,
    BSplineGrid,
    ConfigError,
    RBFGrid,
    grid_from_record,
    grid_record,
)
from fckan.tensor import Tensor, apply_unary


# 0 and signed reals of magnitude 1e-323 to 1.8e308, spread in log scale and
# weighted towards both ends of that range, where BSplineGrid's rules bind
EXPONENTS = st.one_of(st.floats(-323.0, 308.25), st.floats(-323.0, -300.0), st.floats(300.0, 308.25))
REALS = st.one_of(st.just(0.0), st.builds(lambda sign, e: sign * 10.0**e,
                                          st.sampled_from([-1.0, 1.0]), EXPONENTS))


@st.composite
def bspline_ranges(draw):
    """(lo, hi): two reals in order, or a real and a real width above it."""
    a, b = draw(REALS), draw(REALS)
    return draw(st.sampled_from([tuple(sorted((a, b))), (a, a + abs(b))]))


def _value(name, x):
    return float(kernels.unary_values(name, np.asarray([x], dtype=np.float32))[0])


def _row(grid, x):
    """The grid's basis values at the scalar x."""
    return grid.values(np.asarray([x], dtype=np.float64))[0]


def _deriv_row(grid, x):
    return grid.values_and_derivs(np.asarray([x], dtype=np.float64))[1][0]


ELEMENTWISE = [n for n, use in KINDS.items() if use.grid is None]


class TestRegistry:
    def test_views(self):
        assert list(KINDS) == ["bspline", "rbf", "dog", "relu", "sin", "cos", "tan", "arctan"]
        assert FCKAN_FUNCTIONS == ("relu", "sin", "cos", "arctan")
        assert [f.name for f in dataclasses.fields(KINDS["sin"])] == ["bench", "fckan", "grid"]
        assert all(lo < hi for lo, hi in (use.bench for use in KINDS.values()))

    def test_grid_kinds(self):
        assert {n for n, use in KINDS.items() if use.grid} == {"bspline", "rbf"}

    @pytest.mark.parametrize("name", ELEMENTWISE)
    def test_elementwise_kinds_have_kernel_values(self, name):
        x = np.linspace(-1.0, 1.0, 9, dtype=np.float32)
        assert np.isfinite(kernels.unary_values(name, x)).all()

    @pytest.mark.parametrize("name", FCKAN_FUNCTIONS)
    def test_trainable_kinds_have_kernel_derivatives(self, name):
        x = np.linspace(-1.0, 1.0, 9, dtype=np.float32)
        assert np.isfinite(kernels.unary_derivs(name, x)).all()

    def test_tables_agree(self):
        # kernels.unary_derivs and apply_unary follow KINDS: the kinds that are
        # only benchmarked have no derivative, and apply_unary takes exactly
        # the fc-kan functions, not silu, which the spline models call by name
        x = np.linspace(-1.0, 1.0, 9, dtype=np.float32)
        bench_only = [n for n in ELEMENTWISE if n not in FCKAN_FUNCTIONS]
        assert bench_only == ["dog", "tan"]
        for name in bench_only:
            with pytest.raises(ValueError, match=name):
                kernels.unary_derivs(name, x)
        assert kernels.unary_derivs("silu", x).shape == x.shape
        for name in FCKAN_FUNCTIONS:
            assert apply_unary(None, name, Tensor(x[None])).shape == (1, 9)
        for name in [*bench_only, "silu", "bspline", "rbf"]:
            with pytest.raises(ConfigError, match=name):
                apply_unary(None, name, Tensor(x[None]))


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

    @pytest.mark.parametrize("family,args,field", [
        (BSplineGrid, (0, 3), "grid_size"), (BSplineGrid, (4, -1), "spline_order"),
        (RBFGrid, (1,), "grid_size"), (BSplineGrid, (3, 2, 1.0, -1.0), "range"),
        (RBFGrid, (4, 1.0, 1.0), "range"), (BSplineGrid, (5, 3, -math.inf), "lo"),
        (RBFGrid, (8, -2.0, math.nan), "hi"),
        (BSplineGrid, (5.0, 3), "grid_size"), (BSplineGrid, (5, True), "spline_order"),
        (BSplineGrid, (5, 3, "a", 1), "lo"), (BSplineGrid, (5, 3, False, True), "lo"),
        (RBFGrid, (8.0,), "grid_size"), (RBFGrid, (np.int64(8),), "grid_size"),
        # too narrow for distinct knots: the rounded step is 0
        (BSplineGrid, (5, 3, 1.0, float(np.nextafter(1.0, 2.0))), "range"),
        # outer knots 1.1e308 and 1.3e308, past a quarter of the largest float64
        (BSplineGrid, (5, 3, -5e307, 5e307), "knots"), (BSplineGrid, (5, 4, -5e307, 5e307), "knots"),
        # a step of 2e-310, whose derivatives (up to 1 / step) would overflow
        (BSplineGrid, (5, 3, 0.0, 1e-309), "range"),
    ])
    def test_invalid_configs(self, family, args, field):
        with pytest.raises(ConfigError, match=field):
            family(*args)

    def test_rbf_bandwidth_whose_square_underflows_rejected(self):
        with pytest.raises(ConfigError, match="bandwidth"):
            RBFGrid(8, 0.0, 1e-300)
        with pytest.raises(ConfigError, match="bandwidth"):
            grid_from_record({"name": "rbf", "grid_size": 8, "spline_order": 0,
                              "lo": 0.0, "hi": 1e-300})
        with pytest.raises(ConfigError, match="bandwidth"):
            RBFGrid(8, 0.0, 7 * 1.49e-154)  # h^2 just below the smallest normal float64

    def test_rbf_bandwidth_just_above_the_limit_evaluates(self):
        # h^2 just above the smallest normal float64: values and derivatives
        # come without a NumPy warning, which pytest turns into an error
        tiny = np.finfo(np.float64).tiny
        grid = RBFGrid(8, 0.0, 7 * 1.5e-154)
        assert tiny <= grid.bandwidth**2 < 1.02 * tiny
        x = np.array([-np.inf, 0.0, 0.5 * grid.hi, grid.hi, 1.0, np.inf])
        values, derivs = grid.values_and_derivs(x)
        assert np.isfinite(values).all() and np.isfinite(derivs).all()
        assert values[1, 0] == 1.0 and derivs[1, 0] == 0.0

    @pytest.mark.parametrize("family,fields", [
        (BSplineGrid, {"grid_size": 5, "spline_order": 3, "lo": -1e308, "hi": 1e308}),
        (RBFGrid, {"grid_size": 8, "lo": -1e308, "hi": 1e308}),
        (BSplineGrid, {"grid_size": 5, "spline_order": 3, "lo": -1e308, "hi": 7e307}),
        (RBFGrid, {"grid_size": 8, "lo": 0.0, "hi": 1.7e308}),
    ], ids=["bspline-width", "rbf-width", "bspline-outer-knots", "rbf-bandwidth-squared"])
    def test_range_without_finite_width_knots_or_bandwidth_rejected(self, family, fields):
        # a NumPy overflow warning would be an error here, not a ConfigError
        with pytest.raises(ConfigError):
            family(**fields)
        with pytest.raises(ConfigError):
            family(**{**fields, "lo": np.float64(fields["lo"]), "hi": np.float64(fields["hi"])})
        with pytest.raises(ConfigError):
            grid_from_record({"name": family.name, **fields})

    def test_widest_accepted_rbf_range_evaluates(self):
        # accepted though wide: a bandwidth squared of 1.3e308; the widest and
        # narrowest B-spline grids are in test_kernels
        x = np.array([0.0, 3.4e38, -3.4e38, np.inf, -np.inf, np.nan])
        values, derivs = RBFGrid(8, -4e154, 4e154).values_and_derivs(x)
        assert np.isfinite(values[:3]).all() and np.isfinite(derivs[:3]).all()

    @settings(max_examples=300, deadline=None)
    @given(g=st.integers(1, 8), k=st.integers(0, 4), data=st.data())
    def test_random_bspline_ranges_are_rejected_or_evaluate_cleanly(self, g, k, data):
        # ranges of any magnitude from 1e-323 to 1.8e308: BSplineGrid raises
        # ConfigError, or its grid evaluates with no NumPy warning, finite
        # values and derivatives at every finite x, and the cell of every x in
        # the knot span is the one a search of the knots finds
        lo, hi = data.draw(bspline_ranges())
        try:
            grid = BSplineGrid(g, k, lo, hi)
        except ConfigError:
            return
        t = grid.knots
        x = np.concatenate([
            t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf), t[:-1] / 2 + t[1:] / 2,
            data.draw(st.lists(st.floats(t[0], t[-1]), max_size=20)),
            [-sys.float_info.max, sys.float_info.max, np.inf, -np.inf, np.nan]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, derivs = grid.values_and_derivs(x)
            cells = kernels._local_bases(x, t, k)[0]
        finite = np.isfinite(x)
        assert np.isfinite(values[finite]).all() and np.isfinite(derivs[finite]).all()
        inside = (t[0] <= x) & (x < t[-1])
        assert (cells[inside] == np.searchsorted(t, x[inside], side="right") - 1).all()

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
        {"name": ["x"]},  # unhashable
        ["name"],  # not a mapping
    ])
    def test_bad_records_rejected(self, record):
        with pytest.raises(ConfigError):
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

    def test_rbf_derivative_at_non_finite_inputs(self):
        # the limit at +-inf is 0 (the formula alone gives inf * 0); NaN
        # stays NaN, and the finite rows keep their bits
        grid = RBFGrid()
        finite = np.array([-3.0, 0.3, 1e6])
        got = grid.values_and_derivs(np.array([np.inf, -3.0, -np.inf, 0.3, np.nan, 1e6]))[1]
        assert not got[[0, 2]].any()
        assert np.isnan(got[4]).all()
        assert got[[1, 3, 5]].tobytes() == grid.values_and_derivs(finite)[1].tobytes()

    def test_bspline_derivatives_sum_to_zero_inside(self):
        derivs = BSplineGrid(5, 3, -1.0, 1.0).values_and_derivs(np.linspace(-0.99, 0.99, 50))[1]
        sums = derivs.sum(axis=1)
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

    @pytest.mark.parametrize("name", FCKAN_FUNCTIONS)
    def test_elementwise_derivatives_match_fd_sweep(self, name):
        rng = np.random.default_rng(6)
        xs = rng.uniform(-2, 2, 100)
        xs[np.abs(xs) < 0.05] += 0.1  # keep clear of relu's kink
        for x in xs:
            fd = (_value(name, x + 1e-3) - _value(name, x - 1e-3)) / 2e-3
            d = kernels.unary_derivs(name, np.asarray([x], dtype=np.float32))[0]
            assert d == pytest.approx(fd, rel=1e-3, abs=2e-4)
