"""The NumPy kernels: local-support B-splines against the dense oracle, and
the derivatives that the grids take from their values pass."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_bspline
from fckan import kernels
from fckan.basis import BSplineGrid, RBFGrid

NON_FINITE = [np.nan, np.inf, -np.inf]


def bspline_derivs(x, knots, order):
    """The derivatives from the values pass, as BSplineGrid.values_and_derivs
    takes them."""
    lower = []
    kernels.bspline_values(x, knots, order, lower)
    return kernels.bspline_derivs(x, knots, order, lower)


@st.composite
def grid_and_inputs(draw, order):
    g = draw(st.integers(1, 8))
    lo = draw(st.floats(-100.0, 100.0))
    hi = lo + draw(st.floats(1e-3, 100.0))
    knots = BSplineGrid(g, order, lo, hi).knots
    span = knots[-1] - knots[0]

    def floats(a, b):
        return st.lists(st.floats(a, b), min_size=1, max_size=20)

    # every draw holds the knots themselves, the midpoint of every knot cell,
    # points beyond both ends of the knot span, points inside it, and the
    # non-finite values
    return knots, np.concatenate([
        knots,
        (knots[:-1] + knots[1:]) / 2,
        draw(floats(knots[0] - 10 * span, knots[0])),
        draw(floats(knots[-1], knots[-1] + 10 * span)),
        draw(floats(knots[0], knots[-1])),
        NON_FINITE,
    ])


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bspline_matches_dense_oracle(order, data):
    knots, x = data.draw(grid_and_inputs(order))
    for ours, oracle in ((kernels.bspline_values, dense_bspline.bspline_values),
                         (bspline_derivs, dense_bspline.bspline_derivs)):
        got, want = ours(x, knots, order), oracle(x, knots, order)
        assert got.dtype == np.float64
        assert got.shape == (x.shape[0], knots.shape[0] - order - 1)
        # equal_nan also requires NaN in exactly the same places
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12, equal_nan=True)
        # assert_allclose cannot tell -0.0 from +0.0: every zero is +0.0, also
        # in the rows of the first and last order knot cells, whose local
        # bases fall off either end
        assert not np.signbit(got[got == 0.0]).any()


def test_rows_outside_span_are_zero_and_non_finite_rows_follow_recursion():
    knots = BSplineGrid(5, 3).knots
    x = np.array([knots[0] - 1.0, knots[-1], knots[-1] + 1.0, np.nan, np.inf, -np.inf])
    values = kernels.bspline_values(x, knots, 3)
    assert not values[:3].any()
    assert np.isnan(values[3:]).all()
    assert np.isnan(bspline_derivs(x, knots, 3)[3:]).all()
    assert not bspline_derivs(x, knots, 1)[3:].any()


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_negative_zero_on_a_knot_evaluates_as_zero(order):
    # a knot at 0: the oracle test draws -0.0 only now and then
    grid = BSplineGrid(4, order, -2.0, 2.0)
    assert 0.0 in grid.knots
    for got, want in zip(grid.values_and_derivs(np.array([-0.0])),
                         grid.values_and_derivs(np.array([0.0]))):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bspline_derivs_are_the_bits_of_a_second_pass_at_order_k_minus_1(order, data):
    # the derivatives taken from the order k - 1 bases of the values pass
    # equal, bit for bit, the formula on a separate order k - 1 values pass
    knots, x = data.draw(grid_and_inputs(order))
    q = kernels.bspline_values(x, knots, order - 1) / (knots[order:] - knots[:-order])
    want = order * (q[:, :-1] - q[:, 1:])
    assert bspline_derivs(x, knots, order).tobytes() == want.tobytes()


def test_bspline_derivs_do_not_call_the_public_values_kernel(monkeypatch):
    # a tracer that wraps both public kernels must not count the values inside
    # the derivatives a second time; like perfbench's tracer, rebind every
    # name in the module that is the public values kernel
    knots = BSplineGrid(5, 3).knots
    x = np.linspace(-1.0, 1.0, 7)
    lower = []
    kernels.bspline_values(x, knots, 3, lower)
    want = bspline_derivs(x, knots, 3)

    def forbidden(*args):
        raise AssertionError("bspline_derivs called bspline_values")

    public = kernels.bspline_values
    for name, value in list(vars(kernels).items()):
        if value is public:
            monkeypatch.setattr(kernels, name, forbidden)
    assert kernels.bspline_derivs(x, knots, 3, lower).tobytes() == want.tobytes()


def test_rbf_derivs_from_values_keep_the_bits_of_the_formula():
    grid = RBFGrid()
    c, h = grid.centers, grid.bandwidth
    x = np.random.default_rng(4).uniform(-30.0, 30.0, 2000)
    x[:5] = [np.nan, np.inf, -np.inf, 1e300, -1e300]
    # the formula at x clipped to 64 bandwidths beyond the outer centers, as
    # the kernels document, one row per input
    d = np.clip(x, c[0] - 64 * h, c[-1] + 64 * h)[:, None] - c[None, :]
    z = d / h
    want_values = np.exp(-z * z)
    want = -2.0 * d / (h * h) * want_values
    values = kernels.rbf_values(x, c, h)
    got = kernels.rbf_derivs(x, c, h, values)
    assert values.shape == got.shape == (2000, c.shape[0])
    assert values.dtype == got.dtype == np.float64
    assert values.tobytes() == want_values.tobytes() and got.tobytes() == want.tobytes()
    assert np.isnan(values[0]).all() and not values[1:5].any() and not got[1:5].any()
    one = kernels.rbf_values(x[5:6], c, h)
    assert one.shape == kernels.rbf_derivs(x[5:6], c, h, one).shape == (1, c.shape[0])


@pytest.mark.parametrize("grid", [RBFGrid(), RBFGrid(5, 10.0, 10.5)], ids=["default", "narrow"])
def test_rbf_far_outside_the_centers_is_exactly_zero(grid):
    # finite inputs whose square or -2 d / h^2 would overflow, and +-inf; the
    # suite turns any NumPy warning into an error
    x = np.array([1e200, -1e200, 1.7e308, -1.7e308, np.finfo(np.float64).max, np.inf, -np.inf])
    values, derivs = grid.values_and_derivs(x)
    assert (values == 0.0).all() and (derivs == 0.0).all()
    assert np.isnan(grid.values_and_derivs(np.array([np.nan]))[1]).all()


def test_unknown_unary_kind_raises():
    x = np.zeros(3, dtype=np.float32)
    with pytest.raises(ValueError, match="sigmoid"):
        kernels.unary_values("sigmoid", x)
    with pytest.raises(ValueError, match="sigmoid"):
        kernels.unary_derivs("sigmoid", x)


def test_active_backend_is_exposed():
    assert kernels.backend() == "python"
