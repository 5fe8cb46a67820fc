"""NumPy kernels for the basis functions.

Elementwise basis functions and their derivatives work on float32 arrays;
the grid-expanding bases (B-spline, Gaussian RBF) work on float64 arrays and
return one row of basis values per input. Every kernel is a vectorized NumPy
expression; the B-spline runs Cox-de Boor on the k + 1 basis functions that
are nonzero at each input rather than on the whole basis.
"""

import functools

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


@functools.lru_cache(maxsize=64)
def _knot_tables(knot_bytes, order):
    """The constants of the B-spline kernel for one float64 knot vector and
    order, built once: the knot vector extended by ``order`` steps past each
    end, so that every knot the recursion reads exists (the extension only
    reaches basis indices outside [0, nbasis)), and, for c = 0..order, the
    output column that the c-th local basis of each knot cell lands in with
    a mask that is False where that column falls off either end."""
    knots = np.frombuffer(knot_bytes)
    ext = np.concatenate([
        knots[0] - (knots[1] - knots[0]) * np.arange(order, 0, -1),
        knots,
        knots[-1] + (knots[-1] - knots[-2]) * np.arange(1, order + 1),
    ])
    nbasis = knots.shape[0] - order - 1
    cells = np.arange(nbasis + order)
    targets, keeps = [], []
    for c in range(order + 1):
        target = cells - order + c
        keep = (target >= 0) & (target < nbasis)
        targets.append(np.where(keep, target, 0))
        keeps.append(keep)
    return ext, targets, keeps


def _local_bases(x, knots, order, ext):
    """Knot cell of each x and the order-``order`` B-splines nonzero on it.

    Cell j is the half-open interval t_j <= x < t_{j+1}. Returns j and the
    list b with b[c] = N_{j-order+c}(x) for c = 0..order. An x in no cell
    (outside the knot span, NaN, +-inf) is given cell 0 and all-zero values.
    ``ext`` is the extended knot vector of _knot_tables.
    """
    last = knots.shape[0] - 2
    j = np.searchsorted(knots, x, side="right") - 1
    inside = (j >= 0) & (j <= last)
    j[~inside] = 0
    x = np.where(inside, x, knots[0])
    # row i of t is t_{j+i+1-order}, for the knots t_{j+1-order}..t_{j+order}
    t = ext[np.arange(1, 2 * order + 1)[:, None] + j]
    below = x - t[:order]  # row i: x - t_{j+i+1-order}
    above = t[order:] - x  # row i: t_{j+i+1} - x
    b = [inside.astype(np.float64)]
    for r in range(1, order + 1):
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


def _scatter(cols, j, nbasis, targets, keeps):
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
    for col, target, keep in zip(cols, targets, keeps):
        flat[rows + target[j]] = col * keep[j]
    return out


def _bspline(x, knots, order):
    # the body of bspline_values, which bspline_derivs calls too: a tracer
    # that replaces the public kernels then never times one inside the other
    nbasis = knots.shape[0] - order - 1
    ext, targets, keeps = _knot_tables(knots.tobytes(), order)
    j, b = _local_bases(x, knots, order, ext)
    out = _scatter(b, j, nbasis, targets, keeps)
    if order >= 1:
        out[~np.isfinite(x)] = np.nan
    return out


def bspline_values(x, knots, order):
    """All order-``order`` B-spline basis values at each x.

    x: float64 [n]; knots: strictly increasing float64 [nbasis + order + 1].
    Returns float64 [n, nbasis] with nbasis = len(knots) - order - 1. Rows of
    x outside the knot span are zero; rows of NaN or +-inf x are NaN from
    order 1 on, as the full Cox-de Boor recursion gives them.
    """
    return _bspline(x, knots, order)


def bspline_derivs(x, knots, order):
    """First derivatives of the order-``order`` basis functions at each x,

        d/dx N_i^k = k * (N_i^{k-1} / (t_{i+k} - t_i) - N_{i+1}^{k-1} / (t_{i+k+1} - t_{i+1})),

    from the order-(k-1) values on the same knots. Rows of NaN or +-inf x
    are NaN from order 2 on, zero below.
    """
    if order == 0:
        return np.zeros((x.shape[0], knots.shape[0] - 1), dtype=np.float64)
    q = _bspline(x, knots, order - 1) / (knots[order:] - knots[:-order])
    return order * (q[:, :-1] - q[:, 1:])


def rbf_values(x, centers, h):
    """Gaussian RBF values exp(-((x - c) / h)^2) for every center."""
    z = (x[:, None] - centers[None, :]) / h
    return np.exp(-z * z)


def rbf_derivs(x, centers, h):
    """d/dx of each Gaussian RBF component at x."""
    d = x[:, None] - centers[None, :]
    z = d / h
    return -2.0 * d / (h * h) * np.exp(-z * z)
