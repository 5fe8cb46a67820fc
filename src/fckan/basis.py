"""Univariate basis functions and the registry of basis kinds.

Two families: elementwise transcendentals (relu, sin, cos, arctan, tan,
DoG), named by plain strings, and grid-expanding bases that map one input to
a vector of values: ``BSplineGrid`` (Cox-de Boor over a uniform extended knot
vector) and ``RBFGrid`` (Gaussian RBFs on uniformly spaced centers). A grid
object is both the configuration a model holds, checks and saves and the
evaluator its layers call. ``KINDS`` is the one table of basis kinds: every
kind has a ``fckan bench`` row, and the paper's four fc-kan functions are the
only ones trainable through ``tensor.apply_unary`` and ``tensor.unary_matmul``.
``FCKAN_FUNCTIONS`` is the one view of it. The math lives in fckan.kernels.
"""

import math
import sys
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from . import kernels


class ConfigError(ValueError):
    """An invalid configuration, or a basis kind used where it is unsupported."""


def is_count(value, least: int) -> bool:
    """A count is an int, not a bool or a NumPy integer, of at least least."""
    return type(value) is int and value >= least


def count(name: str, value, least: int) -> int:
    """value if it is a count of at least least, else a ConfigError naming name."""
    if not is_count(value, least):
        raise ConfigError(f"{name} must be >= {least}, an int, got {value!r}")
    return value


def real(name: str, value, least: float = -math.inf, strict: bool = False):
    """value if it is a real (a finite int or float, not a bool) >= least, or > if strict."""
    # abs(value) <= the largest float64 is False for nan, inf and an int too big for a float
    if not (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max
            and (value > least or value == least and not strict)):
        bound = f" and {'>' if strict else '>='} {least:g}" if least > -math.inf else ""
        raise ConfigError(f"{name} must be finite{bound}, a real number, got {value!r}")
    return value


def sequence(name: str, value) -> tuple:
    """value as a tuple, or a ConfigError naming name if it is not a sequence."""
    if not isinstance(value, Sequence):
        raise ConfigError(f"{name} must be a sequence, got {value!r}")
    return tuple(value)


def _check_range(grid) -> float:
    """The width hi - lo of the grid's non-empty range, inf if it overflows."""
    lo, hi = real("lo", grid.lo), real("hi", grid.hi)
    if not lo < hi:
        raise ConfigError(f"grid range [{lo}, {hi}] is empty")
    # a Python float overflows to inf without a warning; each family's own
    # rule rejects an infinite width
    return float(hi) - float(lo)


@dataclass(frozen=True)
class BSplineGrid:
    """Order-k B-splines on an exactly uniform knot vector (``knots``) that
    extends k steps beyond each end of [lo, hi]: G + 2k + 1 knots, G + k functions."""

    grid_size: int = 5
    spline_order: int = 3
    lo: float = -1.0
    hi: float = 1.0
    name = "bspline"  # its kind in KINDS and in saved records

    def __post_init__(self):
        g = count("grid_size", self.grid_size, 1)
        k = count("spline_order", self.spline_order, 0)
        step = _check_range(self) / g
        # in Python floats: the outermost knot within a quarter of the largest
        # float64, so that rounding (at most G + k + 1 last places) leaves every
        # knot and the span t_last - t_0 finite; an infinite step, or the NaN
        # of 0 * inf at k = 0, fails the test too
        outer = max(abs(float(self.lo) - k * step), abs(float(self.hi) + k * step))
        if not outer <= sys.float_info.max / 4:
            raise ConfigError(f"bspline knots k={k} steps beyond [{self.lo}, {self.hi}] "
                              "reach past a quarter of the largest float64")
        # lo and step rounded to multiples of one unit, twice the last place of
        # the outermost knot: every knot lo + i * step is then exact, and so is
        # every t_{i+m} - t_i = m * step, the uniform knots the kernels take
        unit = 2 * math.ulp(outer)
        lo, step = (round(v / unit) * unit for v in (float(self.lo), step))
        # every derivative, at most 1 / step, is then finite, and the knots distinct
        if not step > 1 / sys.float_info.max:
            raise ConfigError(f"bspline range [{self.lo}, {self.hi}] is too narrow: its "
                              f"step {step} must exceed 1 / the largest float64")
        knots = lo + step * np.arange(-k, g + k + 1, dtype=np.float64)
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
        g = count("grid_size", self.grid_size, 2)  # a bandwidth needs two centers
        bandwidth = _check_range(self) / (g - 1)
        # the derivatives divide by the square, a normal float64 with no overflow
        if not np.finfo(np.float64).tiny <= bandwidth * bandwidth < math.inf:
            raise ConfigError(f"rbf bandwidth {bandwidth} is too small or too large to square")
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
    fckan: bool = False  # an fc-kan function (the paper's four), trainable by unary_matmul
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
    fields = dict(record) if isinstance(record, Mapping) else {}
    name = fields.pop("name", None)
    # a str first, so that an unhashable name fails here and not in the lookup
    family = getattr(KINDS.get(name) if isinstance(name, str) else None, "grid", None)
    if family is None:
        raise ConfigError(f"not a grid record: {record!r}")
    if family is RBFGrid and fields.pop("spline_order", 0) != 0:
        raise ConfigError(f"an rbf grid has no spline order: {record!r}")
    try:
        return family(**fields)
    except TypeError:
        raise ConfigError(f"bad grid record: {record!r}") from None
