"""Univariate basis functions and the registry of basis kinds.

Two families: elementwise transcendentals (relu, sin, cos, arctan, tan, tanh,
DoG), named by plain strings, and grid-expanding bases that map one input to
a vector of values: ``BSplineGrid`` (Cox-de Boor over a uniform extended knot
vector) and ``RBFGrid`` (Gaussian RBFs on uniformly spaced centers). A grid
object is both the configuration a model holds, checks and saves and the
evaluator its layers call. ``KINDS`` is the one table of basis kinds and says
where each may be used; the kind lists of the rest of the package are views
of it. The math lives in fckan.kernels.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels


class BasisConfigError(ValueError):
    """Invalid basis-function configuration."""


def _check_range(grid):
    if not (math.isfinite(grid.lo) and math.isfinite(grid.hi) and grid.lo < grid.hi):
        raise BasisConfigError(f"grid range [{grid.lo}, {grid.hi}] is empty or not finite")


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
        _check_range(self)
        step = (self.hi - self.lo) / g
        knots = self.lo + step * np.arange(-k, g + k + 1, dtype=np.float64)
        knots.setflags(write=False)  # shared by every model built from this grid
        object.__setattr__(self, "knots", knots)

    @property
    def num_basis(self) -> int:
        return self.grid_size + self.spline_order

    def values(self, x):
        return kernels.bspline_values(x, self.knots, self.spline_order)

    def derivs(self, x):
        return kernels.bspline_derivs(x, self.knots, self.spline_order)


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
        _check_range(self)
        centers = np.linspace(self.lo, self.hi, g, dtype=np.float64)
        centers.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "bandwidth", (self.hi - self.lo) / (g - 1))

    @property
    def num_basis(self) -> int:
        return self.grid_size

    def values(self, x):
        return kernels.rbf_values(x, self.centers, self.bandwidth)

    def derivs(self, x):
        return kernels.rbf_derivs(x, self.centers, self.bandwidth)


@dataclass(frozen=True)
class KindUse:
    """Where one basis kind may be used."""

    fckan: bool = False  # a function of the fc-kan model (the paper's four)
    unary_op: bool = False  # trainable through tensor.apply_unary
    bench: tuple | None = None  # input range of its `fckan bench` row
    grid: type | None = None  # its grid family; None for an elementwise kind


_UNIT = (-1.0, 1.0)

KINDS = {
    "bspline": KindUse(bench=_UNIT, grid=BSplineGrid),
    "rbf": KindUse(bench=_UNIT, grid=RBFGrid),
    "dog": KindUse(bench=_UNIT),
    "relu": KindUse(fckan=True, unary_op=True, bench=_UNIT),
    "sin": KindUse(fckan=True, unary_op=True, bench=_UNIT),
    "cos": KindUse(fckan=True, unary_op=True, bench=_UNIT),
    "tan": KindUse(bench=(-1.5, 1.5)),  # clear of the poles at +-pi/2
    "arctan": KindUse(fckan=True, unary_op=True, bench=_UNIT),
    "tanh": KindUse(unary_op=True),
}

FCKAN_FUNCTIONS = tuple(n for n, u in KINDS.items() if u.fckan)
UNARY_OP_KINDS = tuple(n for n, u in KINDS.items() if u.unary_op)
BENCH_KINDS = tuple(n for n, u in KINDS.items() if u.bench)


def grid_record(grid) -> dict:
    """The saved form of a grid: name, grid_size, spline_order (0 for an RBF), lo, hi."""
    return {"name": grid.name, "grid_size": grid.grid_size,
            "spline_order": getattr(grid, "spline_order", 0), "lo": grid.lo, "hi": grid.hi}


def grid_from_record(record: dict):
    """The grid a record written by grid_record describes."""
    fields = dict(record)
    family = KINDS.get(fields.pop("name", None), KindUse()).grid
    if family is None:
        raise BasisConfigError(f"not a grid record: {record!r}")
    if family is RBFGrid and fields.pop("spline_order", 0) != 0:
        raise BasisConfigError(f"an rbf grid has no spline order: {record!r}")
    try:
        return family(**fields)
    except TypeError:
        raise BasisConfigError(f"bad grid record: {record!r}") from None
