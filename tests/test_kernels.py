"""The NumPy kernels: local-support B-splines against the dense oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_bspline
from fckan import kernels
from fckan.basis import BSplineGrid

NON_FINITE = [np.nan, np.inf, -np.inf]


@st.composite
def grid_and_inputs(draw, order):
    g = draw(st.integers(1, 8))
    lo = draw(st.floats(-100.0, 100.0))
    hi = lo + draw(st.floats(1e-3, 100.0))
    knots = BSplineGrid(g, order, lo, hi).knots
    span = knots[-1] - knots[0]

    def floats(a, b):
        return st.lists(st.floats(a, b), min_size=1, max_size=20)

    # every draw holds the knots themselves, points beyond both ends of the
    # knot span, points inside it, and the non-finite values
    return knots, np.concatenate([
        knots,
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
                         (kernels.bspline_derivs, dense_bspline.bspline_derivs)):
        got, want = ours(x, knots, order), oracle(x, knots, order)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.shape == (x.shape[0], knots.shape[0] - order - 1)
        # equal_nan also requires NaN in exactly the same places
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12, equal_nan=True)


def test_rows_outside_span_are_zero_and_non_finite_rows_follow_recursion():
    knots = BSplineGrid(5, 3).knots
    x = np.array([knots[0] - 1.0, knots[-1], knots[-1] + 1.0, np.nan, np.inf, -np.inf])
    values = kernels.bspline_values(x, knots, 3)
    assert not values[:3].any()
    assert np.isnan(values[3:]).all()
    assert np.isnan(kernels.bspline_derivs(x, knots, 3)[3:]).all()
    assert not kernels.bspline_derivs(x, knots, 1)[3:].any()


def test_unknown_unary_kind_raises():
    x = np.zeros(3, dtype=np.float32)
    with pytest.raises(ValueError, match="sigmoid"):
        kernels.unary_values("sigmoid", x)
    with pytest.raises(ValueError, match="sigmoid"):
        kernels.unary_derivs("sigmoid", x)


def test_active_backend_is_exposed():
    assert kernels.backend() == "python"
