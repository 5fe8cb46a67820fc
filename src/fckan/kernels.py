"""NumPy kernels for the basis functions.

Elementwise basis functions and their derivatives work on float32 arrays;
the grid-expanding bases (B-spline, Gaussian RBF) work on float64 arrays and
return one row of basis values per input. Every kernel is a vectorized NumPy
expression; the B-spline runs Cox-de Boor on the k + 1 basis functions that
are nonzero at each input rather than on the whole basis, in the cell
coordinates of its exactly uniform knots, whose span must be finite. A grid's
derivatives come from its values pass at the same inputs rather than from a
second one: rbf_derivs takes the RBF values, and bspline_derivs the order
k - 1 bases that bspline_values passed through.
"""

import numpy as np

_ZERO = np.float32(0.0)
_ONE = np.float32(1.0)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _silu_deriv(x):
    s = _sigmoid(x)
    return s * (1.0 + x * (1.0 - s))


# name -> (value, derivative): the basis kinds of fckan.basis.KINDS that are
# elementwise, plus silu. Each value function takes an optional out= array.
# relu'(0) = 0 by convention; tan and dog are only benchmarked and have no
# derivative.
_UNARY = {
    "relu": (lambda x, out=None: np.maximum(x, _ZERO, out=out),
             lambda x: (x > 0).astype(x.dtype)),
    "sin": (np.sin, np.cos),
    "cos": (np.cos, lambda x: -np.sin(x)),
    "arctan": (np.arctan, lambda x: _ONE / (_ONE + x * x)),
    "tan": (np.tan, None),
    "dog": (lambda x, out=None: np.multiply(-x, np.exp(-0.5 * x * x), out=out), None),
    "silu": (lambda x, out=None: np.multiply(x, _sigmoid(x), out=out), _silu_deriv),
}


def backend() -> str:
    """Name of the kernel implementation; NumPy is the only one."""
    return "python"


def _unary(name, which):
    fn = _UNARY.get(name, (None, None))[which]
    if fn is None:
        what = "derivative" if which else "function"
        raise ValueError(f"no elementwise {what} named {name!r}")
    return fn


def unary_values(name, x, out=None):
    """Apply the named elementwise function to a float32 array, into ``out``
    if given."""
    return _unary(name, 0)(x, out=out)


def unary_derivs(name, x):
    """d/dx of the named elementwise function, evaluated at x."""
    return _unary(name, 1)(x)


def _local_bases(x, knots, order, lower=None):
    """Knot cell of each x and the order-``order`` B-splines nonzero on it.

    Precondition: the knots are exactly uniform, as BSplineGrid places them:
    every t_i is t_0 + i * (t_1 - t_0) in float64, with no rounding, and the
    knot span t_last - t_0 is finite. Cell j is the half-open interval
    t_j <= x < t_{j+1}. Returns j and the list b with b[c] = N_{j-order+c}(x)
    for c = 0..order. An x in no cell (outside the knot span, NaN, +-inf) is
    given cell 0 and all-zero values. Given a list ``lower`` and order >= 1,
    the pass also puts in it j and the order - 1 bases, taken on the way to
    order ``order``.
    """
    step = knots[1] - knots[0]
    inside = (x >= knots[0]) & (x < knots[-1])
    # + 0.0 turns an x of -0.0 into +0.0: on a knot at 0, x - t_j would be -0.0,
    # and the recursion would carry that sign into bases and derivatives of 0
    x = np.where(inside, x, knots[0]) + 0.0
    # the cell (x - t_0) / step is off by at most one, which one exact
    # comparison each way with t_j = t_0 + j * step puts right
    j = np.minimum(np.floor((x - knots[0]) / step), knots.shape[0] - 2)
    t = knots[0] + j * step
    shift = (x >= t + step).view(np.int8) - (x < t).view(np.int8)
    t += shift * step
    j = (j + shift).astype(np.intp)
    # x in cell coordinates: u from t_j and v = 1 - u from t_{j+1}, each from
    # its own difference, which is exact near its end of the cell; 1 - u
    # would lose the digits of a v near 0
    u = (x - t) / step
    v = (t + step - x) / step
    b = [inside.astype(np.float64)]
    for r in range(1, order + 1):
        if r == order and lower is not None:
            lower.extend((j, b))  # b[c] = N_{j-order+1+c}^{order-1}
        # N_i^r = ((u + j - i) N_i^{r-1} + (v + i + r - j) N_{i+1}^{r-1}) / r,
        # where b[c] = N_i^{r-1} for i = j - r + 1 + c feeds N_{i-1}^r and N_i^r
        raised, carry = [], 0.0
        for c in range(r):
            raised.append(carry + (v + c) / r * b[c])
            carry = (u + (r - 1 - c)) / r * b[c]
        b = raised + [carry]
    return j, b


def _scatter(cols, j, nbasis, order):
    """Dense float64 [n, nbasis] rows holding cols[c] at column j - order + c.

    The rows are a view of a zeroed [n, nbasis + 2 order] buffer in which
    cols[c] is written at column j + c, so entries whose column falls off
    either end land in the padding.
    """
    n = j.shape[0]
    out = np.zeros((n, nbasis + 2 * order))
    at = np.arange(n) * out.shape[1] + j
    flat = out.reshape(-1)
    for c, col in enumerate(cols):
        flat[at + c] = col
    return out[:, order:order + nbasis]


def bspline_values(x, knots, order, lower=None):
    """All order-``order`` B-spline basis values at each x.

    x: float64 [n]; knots: exactly uniform float64 [nbasis + order + 1] (see _local_bases).
    Returns float64 [n, nbasis] with nbasis = len(knots) - order - 1. Rows of
    x outside the knot span are zero; rows of NaN or +-inf x are NaN from
    order 1 on, as the full Cox-de Boor recursion gives them.

    Given an empty list ``lower``, the pass also puts in it the knot cells and
    the order-(k-1) local bases it went through on its way to order k: what
    bspline_derivs takes to give the derivatives at the same x.
    """
    nbasis = knots.shape[0] - order - 1
    j, b = _local_bases(x, knots, order, lower)
    out = _scatter(b, j, nbasis, order)
    if order >= 1:
        out[~np.isfinite(x)] = np.nan
    return out


def bspline_derivs(x, knots, order, lower):
    """First derivatives of the order-``order`` basis functions at each x,

        d/dx N_i^k = k * (N_i^{k-1} / (t_{i+k} - t_i) - N_{i+1}^{k-1} / (t_{i+k+1} - t_{i+1})),

    from the order-(k-1) local bases that bspline_values(x, knots, order,
    lower) left in ``lower``. Rows of NaN or +-inf x are NaN from order 2 on,
    zero below.
    """
    nbasis = knots.shape[0] - order - 1
    if order == 0:
        return np.zeros((x.shape[0], nbasis), dtype=np.float64)
    j, bases = lower
    # q = N_i^{k-1} / (t_{i+k} - t_i) for i = j - k + 1 + c, where every
    # t_{i+k} - t_i is t_k - t_0 on uniform knots, so column c of the local
    # derivatives, N_{j-k+c}^k', is k * (q[c - 1] - q[c]) with q[-1] = q[k] = 0
    q = [b / (knots[order] - knots[0]) for b in bases]
    cols = [order * (prev - cur) for prev, cur in zip([0.0] + q, q + [0.0])]
    out = _scatter(cols, j, nbasis, order)
    if order >= 2:
        out[~np.isfinite(x)] = np.nan
    return out


def _rbf_offsets(x, centers, h):
    # x - c as one row per center, [nb, n], with x clipped to 64 bandwidths
    # beyond the outer centers: every value there is exactly 0 already
    # (exp(-64^2) underflows), and neither z * z nor -2 d / h^2 can overflow,
    # even at +-inf; NaN stays NaN
    x = np.clip(x, centers[0] - 64 * h, centers[-1] + 64 * h)
    return x[None, :] - centers[:, None]


def rbf_values(x, centers, h):
    """Gaussian RBF values exp(-((x - c) / h)^2) for every center, [n, nb].
    Rows of x far outside the centers, +-inf included, are 0; rows of NaN x
    are NaN. The result is the transposed view of a basis-major array that
    the steps run over in place."""
    z = _rbf_offsets(x, centers, h)
    z /= h
    z *= z
    np.negative(z, out=z)
    return np.exp(z, out=z).T


def rbf_derivs(x, centers, h, values):
    """d/dx of each Gaussian RBF component at x, -2 (x - c) / h^2 times its
    ``values`` from rbf_values(x, centers, h), [n, nb] as the values are.
    Rows of x far outside the centers, +-inf included, are 0; rows of NaN x
    are NaN."""
    d = _rbf_offsets(x, centers, h)
    d *= -2.0
    d /= h * h
    d *= values.T
    return d.T
