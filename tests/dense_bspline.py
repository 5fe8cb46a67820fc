"""Dense Cox-de Boor B-splines: the reference for fckan.kernels.

Evaluates every basis function at every input, order by order, with no
knot-interval lookup, so it shares no code path with the local-support
kernels it checks. Non-finite inputs come out as the recursion leaves them:
0 * inf makes NaN rows of values from order 1 on and of derivatives from
order 2 on.
"""

import numpy as np


def _order0(x, knots):
    # indicator of the half-open knot interval containing x
    return ((x[:, None] >= knots[None, :-1]) & (x[:, None] < knots[None, 1:])).astype(
        np.float64
    )


def _raise(x, knots, bases, k):
    # one Cox-de Boor order-raising step; knots are strictly increasing
    left = (x[:, None] - knots[None, : -k - 1]) / (knots[k:-1] - knots[: -k - 1])
    right = (knots[k + 1 :] - x[:, None]) / (knots[k + 1 :] - knots[1:-k])
    return left * bases[:, :-1] + right * bases[:, 1:]


def bspline_values(x, knots, order):
    """float64 [n, len(knots) - order - 1] basis values at each x."""
    with np.errstate(invalid="ignore"):
        bases = _order0(x, knots)
        for k in range(1, order + 1):
            bases = _raise(x, knots, bases, k)
    return bases


def bspline_derivs(x, knots, order):
    """First derivatives of the order-``order`` basis functions at each x."""
    nbasis = knots.shape[0] - order - 1
    if order == 0:
        return np.zeros((x.shape[0], nbasis), dtype=np.float64)
    with np.errstate(invalid="ignore"):
        lower = _order0(x, knots)
        for k in range(1, order):
            lower = _raise(x, knots, lower, k)
    dl = knots[order:-1] - knots[: -order - 1]
    dr = knots[order + 1 :] - knots[1:-order]
    return order * (lower[:, :-1] / dl - lower[:, 1:] / dr)
