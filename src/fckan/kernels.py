"""NumPy kernels for the basis functions.

Elementwise basis functions and their derivatives work on float32 arrays;
the grid-expanding bases (B-spline, Gaussian RBF) work on float64 arrays and
return one row of basis values per input. Every kernel is a vectorized NumPy
expression; the B-spline runs Cox-de Boor on the k + 1 basis functions that
are nonzero at each input rather than on the whole basis. A grid's
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
# elementwise, plus silu. relu'(0) = 0 by convention; tan and dog are only
# benchmarked and have no derivative.
_UNARY = {
    "relu": (lambda x: np.maximum(x, _ZERO), lambda x: (x > 0).astype(x.dtype)),
    "sin": (np.sin, np.cos),
    "cos": (np.cos, lambda x: -np.sin(x)),
    "arctan": (np.arctan, lambda x: _ONE / (_ONE + x * x)),
    "tan": (np.tan, None),
    "dog": (lambda x: -x * np.exp(-0.5 * x * x), None),
    "silu": (lambda x: x * _sigmoid(x), _silu_deriv),
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


def unary_values(name, x):
    """Apply the named elementwise function to a float32 array."""
    return _unary(name, 0)(x)


def unary_derivs(name, x):
    """d/dx of the named elementwise function, evaluated at x."""
    return _unary(name, 1)(x)


def _local_bases(x, knots, order, lower=None):
    """Knot cell of each x and the order-``order`` B-splines nonzero on it.

    Cell j is the half-open interval t_j <= x < t_{j+1}. Returns j and the
    list b with b[c] = N_{j-order+c}(x) for c = 0..order. An x in no cell
    (outside the knot span, NaN, +-inf) is given cell 0 and all-zero values.
    Given a list ``lower`` and order >= 1, the pass also puts in it j, the
    knots t around each cell and the order - 1 bases, taken on the way to
    order ``order``.
    """
    last = knots.shape[0] - 2
    j = np.searchsorted(knots, x, side="right") - 1
    inside = (j >= 0) & (j <= last)
    j[~inside] = 0
    # + 0.0 turns an x of -0.0 into +0.0: on a knot at 0, x - t_j would be -0.0,
    # and the recursion would carry that sign into bases and derivatives of 0
    x = np.where(inside, x, knots[0]) + 0.0
    # the knots extended by ``order`` steps past each end, so that every knot
    # the recursion reads exists; the extension only reaches basis indices
    # outside [0, nbasis)
    ext = np.concatenate([
        knots[0] - (knots[1] - knots[0]) * np.arange(order, 0, -1),
        knots,
        knots[-1] + (knots[-1] - knots[-2]) * np.arange(1, order + 1),
    ])
    # row i of t is t_{j+i+1-order}, for the knots t_{j+1-order}..t_{j+order}
    t = ext[np.arange(1, 2 * order + 1)[:, None] + j]
    below = x - t[:order]  # row i: x - t_{j+i+1-order}
    above = t[order:] - x  # row i: t_{j+i+1} - x
    b = [inside.astype(np.float64)]
    for r in range(1, order + 1):
        if r == order and lower is not None:
            lower.extend((j, t, b))  # b[c] = N_{j-order+1+c}^{order-1}
        # N_i^r = (x - t_i) / (t_{i+r} - t_i) N_i^{r-1}
        #       + (t_{i+r+1} - x) / (t_{i+r+1} - t_{i+1}) N_{i+1}^{r-1},
        # where b[c] = N_i^{r-1} for i = j - r + 1 + c feeds N_{i-1}^r and N_i^r
        raised, carry = [], 0.0
        for c in range(r):
            d = t[c + order] - t[c + order - r]
            raised.append(carry + above[c] / d * b[c])
            carry = below[c + order - r] / d * b[c]
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

    x: float64 [n]; knots: strictly increasing float64 [nbasis + order + 1].
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
    j, t, bases = lower
    # q = N_i^{k-1} / (t_{i+k} - t_i) for i = j - k + 1 + c, so column c of
    # the local derivatives, N_{j-k+c}^k', is k * (q[c - 1] - q[c]) with
    # q[-1] = q[k] = 0
    cols, prev = [], 0.0
    for c, b in enumerate(bases):
        q = b / (t[c + order] - t[c])
        cols.append(order * (prev - q))
        prev = q
    cols.append(order * (prev - 0.0))
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
