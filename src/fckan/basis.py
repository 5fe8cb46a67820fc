"""Univariate basis functions and the registry of basis kinds.

Two families: elementwise transcendentals (relu, sin, cos, arctan, tan,
DoG), named by plain strings, and grid-expanding bases that map one input to
a vector of values: ``BSplineGrid`` (Cox-de Boor over a uniform extended knot
vector) and ``RBFGrid`` (Gaussian RBFs on uniformly spaced centers). A grid
object is both the configuration a model holds, checks and saves and the
evaluator its layers call. ``KINDS`` is the one table of basis kinds: every
kind has a ``fckan bench`` row, and the paper's four fc-kan functions are the
only ones trainable through ``tensor.apply_unary``. ``FCKAN_FUNCTIONS`` is
the one view of it. The math lives in fckan.kernels.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels


class BasisConfigError(ValueError):
    """Invalid basis configuration, or a basis kind used where it is unsupported."""


def _check_range(grid) -> float:
    """The width hi - lo of the grid's range, which must be finite and positive."""
    if not (math.isfinite(grid.lo) and math.isfinite(grid.hi) and grid.lo < grid.hi):
        raise BasisConfigError(f"grid range [{grid.lo}, {grid.hi}] is empty or not finite")
    width = float(grid.hi) - float(grid.lo)  # a Python float overflows to inf without a warning
    if not math.isfinite(width):
        raise BasisConfigError(f"grid range [{grid.lo}, {grid.hi}] is wider than a float64")
    return width


@dataclass(frozen=True)
class BSplineGrid:
    """Order-k B-splines on a uniform knot vector (``knots``) that extends k
    steps beyond each end of [lo, hi]: G + 2k + 1 knots, G + k functions."""

    grid_size: int = 5
    spline_order: int = 3
    lo: float = -1.0
    hi: float = 1.0
    name = "bspline"  # its kind in KINDS and in saved records

    def __post_init__(self):
        g, k = self.grid_size, self.spline_order
        if g < 1 or k < 0:
            raise BasisConfigError(
                f"bspline needs grid_size >= 1 and spline_order >= 0, got G={g}, k={k}"
            )
        step = _check_range(self) / g
        with np.errstate(over="ignore"):  # an infinite knot is rejected next
            knots = self.lo + step * np.arange(-k, g + k + 1, dtype=np.float64)
        if not np.isfinite(knots).all():
            raise BasisConfigError(f"bspline knots k={k} steps beyond [{self.lo}, {self.hi}] "
                                   "are not finite")
        knots.setflags(write=False)  # shared by every model built from this grid
        object.__setattr__(self, "knots", knots)

    @property
    def num_basis(self) -> int:
        return self.grid_size + self.spline_order

    def values(self, x):
        return kernels.bspline_values(x, self.knots, self.spline_order)

    def values_and_derivs(self, x):
        """(values, derivs) at x from one Cox-de Boor pass."""
        lower = []
        values = kernels.bspline_values(x, self.knots, self.spline_order, lower)
        return values, kernels.bspline_derivs(x, self.knots, self.spline_order, lower)


@dataclass(frozen=True)
class RBFGrid:
    """Gaussian RBFs on G uniformly spaced ``centers``, bandwidth (hi - lo) / (G - 1)."""

    grid_size: int = 8
    lo: float = -2.0
    hi: float = 2.0
    name = "rbf"  # its kind in KINDS and in saved records

    def __post_init__(self):
        g = self.grid_size
        if g < 2:
            raise BasisConfigError(f"rbf needs grid_size >= 2 (bandwidth undefined), got G={g}")
        bandwidth = _check_range(self) / (g - 1)
        # the derivatives divide by the square, a normal float64 with no overflow
        if not np.finfo(np.float64).tiny <= bandwidth * bandwidth < math.inf:
            raise BasisConfigError(f"rbf bandwidth {bandwidth} is too small or too large to square")
        centers = np.linspace(self.lo, self.hi, g, dtype=np.float64)
        centers.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "bandwidth", bandwidth)

    @property
    def num_basis(self) -> int:
        return self.grid_size

    def values(self, x):
        return kernels.rbf_values(x, self.centers, self.bandwidth)

    def values_and_derivs(self, x):
        """(values, derivs) at x, the derivatives from the values."""
        values = self.values(x)
        return values, kernels.rbf_derivs(x, self.centers, self.bandwidth, values)


@dataclass(frozen=True)
class KindUse:
    """Where one basis kind may be used."""

    bench: tuple  # input range of its `fckan bench` row
    fckan: bool = False  # an fc-kan function (the paper's four), trainable by apply_unary
    grid: type | None = None  # its grid family; None for an elementwise kind


_UNIT = (-1.0, 1.0)

KINDS = {
    "bspline": KindUse(_UNIT, grid=BSplineGrid),
    "rbf": KindUse(_UNIT, grid=RBFGrid),
    "dog": KindUse(_UNIT),
    "relu": KindUse(_UNIT, fckan=True),
    "sin": KindUse(_UNIT, fckan=True),
    "cos": KindUse(_UNIT, fckan=True),
    "tan": KindUse((-1.5, 1.5)),  # clear of the poles at +-pi/2
    "arctan": KindUse(_UNIT, fckan=True),
}

FCKAN_FUNCTIONS = tuple(n for n, u in KINDS.items() if u.fckan)


def grid_record(grid) -> dict:
    """The saved form of a grid: name, grid_size, spline_order (0 for an RBF), lo, hi."""
    return {"name": grid.name, "grid_size": grid.grid_size,
            "spline_order": getattr(grid, "spline_order", 0), "lo": grid.lo, "hi": grid.hi}


def grid_from_record(record: dict):
    """The grid a record written by grid_record describes."""
    fields = dict(record)
    family = getattr(KINDS.get(fields.pop("name", None)), "grid", None)
    if family is None:
        raise BasisConfigError(f"not a grid record: {record!r}")
    if family is RBFGrid and fields.pop("spline_order", 0) != 0:
        raise BasisConfigError(f"an rbf grid has no spline order: {record!r}")
    try:
        return family(**fields)
    except TypeError:
        raise BasisConfigError(f"bad grid record: {record!r}") from None
