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
    BasisKind,
    basis_derivative,
    bspline_basis,
    eval_elementwise,
    grid_spec,
    rbf_basis,
)


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
        assert BasisKind(name).is_elementwise
        assert np.isfinite(kernels.unary_values(name, x)).all()

    @pytest.mark.parametrize("name", UNARY_OP_KINDS)
    def test_trainable_kinds_have_kernel_derivatives(self, name):
        x = np.linspace(-1.0, 1.0, 9, dtype=np.float32)
        assert np.isfinite(kernels.unary_derivs(name, x)).all()


class TestConfig:
    def test_bspline_basis_count_is_g_plus_k(self):
        assert BasisKind.bspline(3, 3).num_basis == 6
        assert BasisKind.bspline(5, 3).num_basis == 8

    def test_knot_vector_shape(self):
        k = BasisKind.bspline(5, 3, -1.0, 1.0)
        knots = grid_spec(k).centers
        assert len(knots) == 5 + 2 * 3 + 1
        assert np.all(np.diff(knots) > 0)

    def test_invalid_configs(self):
        with pytest.raises(BasisConfigError):
            BasisKind.bspline(0, 3)
        with pytest.raises(BasisConfigError):
            BasisKind.bspline(4, -1)
        with pytest.raises(BasisConfigError):
            BasisKind.rbf(1)
        with pytest.raises(BasisConfigError):
            BasisKind("bspline", grid_size=3, spline_order=2, lo=1.0, hi=-1.0)
        with pytest.raises(BasisConfigError):
            BasisKind("sigmoid")


class TestElementwise:
    def test_known_values(self):
        assert eval_elementwise(BasisKind.elementwise("arctan"), 1.0) == pytest.approx(
            math.pi / 4, rel=1e-6
        )
        assert eval_elementwise(BasisKind.elementwise("dog"), 0.0) == 0.0
        assert eval_elementwise(BasisKind.elementwise("dog"), 1.0) == pytest.approx(
            -math.exp(-0.5), rel=1e-6
        )
        assert eval_elementwise(BasisKind.elementwise("relu"), -3.0) == 0.0
        assert eval_elementwise(BasisKind.elementwise("tan"), 0.5) == pytest.approx(
            math.tan(0.5), rel=1e-6
        )

    def test_grid_kind_rejected(self):
        with pytest.raises(BasisConfigError):
            eval_elementwise(BasisKind.bspline(), 0.0)

    def test_pure_and_deterministic(self):
        kind = BasisKind.elementwise("sin")
        xs = np.random.default_rng(0).uniform(-3, 3, 50)
        first = [eval_elementwise(kind, x) for x in xs]
        second = [eval_elementwise(kind, x) for x in xs]
        assert first == second


class TestBspline:
    def test_order0_is_interval_indicator(self):
        kind = BasisKind.bspline(4, 0, 0.0, 1.0)
        assert bspline_basis(0.3, kind).tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_linear_hats_hand_values(self):
        kind = BasisKind.bspline(2, 1, 0.0, 1.0)
        assert bspline_basis(0.25, kind).tolist() == pytest.approx([0.5, 0.5, 0.0])

    def test_partition_of_unity_dense_sweep(self):
        kind = BasisKind.bspline(5, 3, -1.0, 1.0)
        xs = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, 1000)
        sums = np.array([bspline_basis(x, kind).sum() for x in xs])
        assert np.max(np.abs(sums - 1.0)) <= 1e-6

    def test_local_support(self):
        kind = BasisKind.bspline(5, 3, -1.0, 1.0)
        for x in np.linspace(-0.999, 0.999, 200):
            assert np.count_nonzero(bspline_basis(x, kind)) <= kind.spline_order + 1

    def test_out_of_range_decays_to_zero(self):
        kind = BasisKind.bspline(5, 3, -1.0, 1.0)
        assert np.all(bspline_basis(5.0, kind) == 0.0)
        assert np.all(bspline_basis(-5.0, kind) == 0.0)


class TestRbf:
    def test_value_one_at_center(self):
        kind = BasisKind.rbf(5, -1.0, 1.0)
        centers = grid_spec(kind).centers
        vals = rbf_basis(centers[2], kind)
        assert vals[2] == pytest.approx(1.0)

    def test_midpoint_between_centers(self):
        kind = BasisKind.rbf(5, -1.0, 1.0)
        spec = grid_spec(kind)
        mid = 0.5 * (spec.centers[1] + spec.centers[2])
        vals = rbf_basis(mid, kind)
        assert vals[1] == pytest.approx(math.exp(-0.25), rel=1e-9)
        assert vals[2] == pytest.approx(math.exp(-0.25), rel=1e-9)

    def test_values_in_unit_interval(self):
        kind = BasisKind.rbf(8, -2.0, 2.0)
        for x in (-10.0, -0.3, 0.0, 1.7, 10.0):
            vals = rbf_basis(x, kind)
            assert np.all(vals > 0.0) and np.all(vals <= 1.0)
        # far enough out the exponential underflows to exactly zero
        assert np.all(rbf_basis(1e6, kind) >= 0.0)


class TestDerivatives:
    def test_sin_derivative_at_zero(self):
        assert basis_derivative(BasisKind.elementwise("sin"), 0.0) == 1.0

    def test_tan_has_no_derivative(self):
        with pytest.raises(BasisConfigError):
            basis_derivative(BasisKind.elementwise("tan"), 0.3)

    def test_rbf_derivative_zero_at_center(self):
        kind = BasisKind.rbf(5, -1.0, 1.0)
        centers = grid_spec(kind).centers
        assert basis_derivative(kind, float(centers[3]))[3] == 0.0

    def test_bspline_derivatives_sum_to_zero_inside(self):
        kind = BasisKind.bspline(5, 3, -1.0, 1.0)
        for x in np.linspace(-0.99, 0.99, 50):
            assert abs(basis_derivative(kind, x).sum()) <= 1e-5

    @pytest.mark.parametrize(
        "kind",
        [
            BasisKind.bspline(5, 3, -1.0, 1.0),
            BasisKind.rbf(8, -2.0, 2.0),
        ],
    )
    def test_grid_derivatives_match_fd_sweep(self, kind):
        # float64 interior sweep: 100 random points in (lo, hi)
        rng = np.random.default_rng(5)
        xs = rng.uniform(kind.lo + 1e-3, kind.hi - 1e-3, 100)
        h = 1e-6
        for x in xs:
            fd = (
                np.asarray(_values(kind, x + h)) - np.asarray(_values(kind, x - h))
            ) / (2 * h)
            d = basis_derivative(kind, x)
            assert np.max(np.abs(d - fd) / (np.abs(fd) + 1e-3)) < 1e-3

    @pytest.mark.parametrize("name", ["relu", "sin", "cos", "arctan", "tanh", "dog"])
    def test_elementwise_derivatives_match_fd_sweep(self, name):
        kind = BasisKind.elementwise(name)
        rng = np.random.default_rng(6)
        xs = rng.uniform(-2, 2, 100)
        xs[np.abs(xs) < 0.05] += 0.1  # keep clear of relu's kink
        for x in xs:
            fd = (eval_elementwise(kind, x + 1e-3) - eval_elementwise(kind, x - 1e-3)) / 2e-3
            assert basis_derivative(kind, x) == pytest.approx(fd, rel=1e-3, abs=2e-4)


def _values(kind, x):
    return bspline_basis(x, kind) if kind.name == "bspline" else rbf_basis(x, kind)
