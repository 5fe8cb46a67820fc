"""NumPy kernels for the basis functions.

Elementwise basis functions and their derivatives work on float32 arrays;
the grid-expanding bases (B-spline, Gaussian RBF) work on float64 arrays and
return one row of basis values per input. Every kernel is a vectorized NumPy
expression; the B-spline runs Cox-de Boor on the k + 1 basis functions that
are nonzero at each input rather than on the whole basis.
"""

import numpy as np

_ZERO = np.float32(0.0)
_ONE = np.float32(1.0)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _tanh_deriv(x):
    t = np.tanh(x)
    return _ONE - t * t


def _silu_deriv(x):
    s = _sigmoid(x)
    return s * (1.0 + x * (1.0 - s))


# name -> (value, derivative): the basis kinds of fckan.basis.KINDS that are
# elementwise, plus silu. relu'(0) = 0 by convention; tan is only benchmarked
# and has no derivative.
_UNARY = {
    "relu": (lambda x: np.maximum(x, _ZERO), lambda x: (x > 0).astype(x.dtype)),
    "sin": (np.sin, np.cos),
    "cos": (np.cos, lambda x: -np.sin(x)),
    "arctan": (np.arctan, lambda x: _ONE / (_ONE + x * x)),
    "tan": (np.tan, None),
    "tanh": (np.tanh, _tanh_deriv),
    "dog": (lambda x: -x * np.exp(-0.5 * x * x),
            lambda x: (x * x - 1.0) * np.exp(-0.5 * x * x)),
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


def _local_bases(x, knots, order, degree):
    """Knot cell of each x and the degree-``degree`` B-splines nonzero on it.

    Cell j is the half-open interval t_j <= x < t_{j+1}. Returns j, the knots
    t[m] = t_{j+m} for -order < m <= order, and the list b with b[c] =
    N_{j-degree+c}(x) for c = 0..degree. An x in no cell (outside the knot
    span, NaN, +-inf) is given cell 0 and all-zero values. The knot vector is
    extended by ``order`` steps past each end so that every t_{j+m} exists;
    the extension only reaches basis indices outside [0, nbasis).
    """
    last = knots.shape[0] - 2
    j = np.searchsorted(knots, x, side="right") - 1
    inside = (j >= 0) & (j <= last)
    j[~inside] = 0
    x = np.where(inside, x, knots[0])
    ext = np.concatenate([
        knots[0] - (knots[1] - knots[0]) * np.arange(order, 0, -1),
        knots,
        knots[-1] + (knots[-1] - knots[-2]) * np.arange(1, order + 1),
    ])
    t = {m: ext[j + order + m] for m in range(1 - order, order + 1)}
    below = {m: x - t[m] for m in range(1 - degree, 1)}
    above = {m: t[m] - x for m in range(1, degree + 1)}
    b = [inside.astype(np.float64)]
    for r in range(1, degree + 1):
        # N_i^r = (x - t_i) / (t_{i+r} - t_i) N_i^{r-1}
        #       + (t_{i+r+1} - x) / (t_{i+r+1} - t_{i+1}) N_{i+1}^{r-1},
        # where b[c] = N_i^{r-1} for i = j - r + 1 + c feeds N_{i-1}^r and N_i^r
        raised, carry = [], 0.0
        for c in range(r):
            d = t[c + 1] - t[c + 1 - r]
            raised.append(carry + above[c + 1] / d * b[c])
            carry = below[c + 1 - r] / d * b[c]
        b = raised + [carry]
    return j, t, b


def _scatter(cols, j, nbasis, order):
    """Dense float64 [n, nbasis] rows holding cols[c] at column j - order + c.

    Entries whose column falls off either end are written to column 0 as
    zeros. Off the left end that write comes before the row's own column-0
    entry, which has a larger c; a row that runs off the right end has no
    column-0 entry, because nbasis > order.
    """
    n = j.shape[0]
    out = np.zeros((n, nbasis))
    flat = out.reshape(-1)
    rows = np.arange(n) * nbasis
    cells = np.arange(nbasis + order)
    for c, col in enumerate(cols):
        target = cells - order + c
        keep = (target >= 0) & (target < nbasis)
        flat[rows + np.where(keep, target, 0)[j]] = col * keep[j]
    return out


def bspline_values(x, knots, order):
    """All order-``order`` B-spline basis values at each x.

    x: float64 [n]; knots: strictly increasing float64 [nbasis + order + 1].
    Returns float64 [n, nbasis] with nbasis = len(knots) - order - 1. Rows of
    x outside the knot span are zero; rows of NaN or +-inf x are NaN from
    order 1 on, as the full Cox-de Boor recursion gives them.
    """
    nbasis = knots.shape[0] - order - 1
    j, _, b = _local_bases(x, knots, order, order)
    out = _scatter(b, j, nbasis, order)
    if order >= 1:
        out[~np.isfinite(x)] = np.nan
    return out


def bspline_derivs(x, knots, order):
    """First derivatives of the order-``order`` basis functions at each x.

    Rows of NaN or +-inf x are NaN from order 2 on, zero below.
    """
    nbasis = knots.shape[0] - order - 1
    if order == 0:
        return np.zeros((x.shape[0], nbasis), dtype=np.float64)
    j, t, b = _local_bases(x, knots, order, order - 1)
    # d/dx N_i^k = k * (N_i^{k-1} / (t_{i+k} - t_i) - N_{i+1}^{k-1} / (t_{i+k+1} - t_{i+1}))
    q = [b[c] / (t[c + 1] - t[c + 1 - order]) for c in range(order)]
    cols = [order * (lo - hi) for lo, hi in zip([0.0] + q, q + [0.0])]
    out = _scatter(cols, j, nbasis, order)
    if order >= 2:
        out[~np.isfinite(x)] = np.nan
    return out


def rbf_values(x, centers, h):
    """Gaussian RBF values exp(-((x - c) / h)^2) for every center."""
    z = (x[:, None] - centers[None, :]) / h
    return np.exp(-z * z)


def rbf_derivs(x, centers, h):
    """d/dx of each Gaussian RBF component at x."""
    d = x[:, None] - centers[None, :]
    z = d / h
    return -2.0 * d / (h * h) * np.exp(-z * z)
