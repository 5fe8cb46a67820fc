"""Univariate basis functions.

Two families: elementwise transcendentals (relu, sin, cos, arctan, tan, tanh,
DoG) and grid-expanding bases that map one input to a vector of values
(B-splines via Cox-de Boor over a uniform extended knot vector, Gaussian
RBFs on uniformly spaced centers). Scalar entry points here route through
fckan.kernels; the array paths used by models and the benchmark call it
directly.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels

ELEMENTWISE_KINDS = ("relu", "sin", "cos", "arctan", "tan", "tanh", "dog")
GRID_KINDS = ("bspline", "rbf")


class BasisConfigError(ValueError):
    """Invalid basis-function configuration."""


@dataclass(frozen=True)
class BasisKind:
    """A basis family plus its hyperparameters.

    grid_size, spline_order and [lo, hi] only apply to the grid-expanding
    kinds; a B-spline of order k over grid size G has G + k basis functions.
    """

    name: str
    grid_size: int = 0
    spline_order: int = 0
    lo: float = -1.0
    hi: float = 1.0

    def __post_init__(self):
        if self.name not in ELEMENTWISE_KINDS + GRID_KINDS:
            raise BasisConfigError(f"unknown basis kind: {self.name!r}")
        if self.name == "bspline":
            if self.grid_size < 1 or self.spline_order < 0:
                raise BasisConfigError(
                    f"bspline needs grid_size >= 1 and spline_order >= 0, "
                    f"got G={self.grid_size}, k={self.spline_order}"
                )
        if self.name == "rbf" and self.grid_size < 2:
            raise BasisConfigError(
                f"rbf needs grid_size >= 2 (bandwidth undefined), got G={self.grid_size}"
            )
        if self.name in GRID_KINDS and not self.lo < self.hi:
            raise BasisConfigError(f"empty grid range [{self.lo}, {self.hi}]")

    @property
    def is_elementwise(self) -> bool:
        return self.name in ELEMENTWISE_KINDS

    @property
    def num_basis(self) -> int:
        """Output vector length of one evaluation."""
        if self.name == "bspline":
            return self.grid_size + self.spline_order
        if self.name == "rbf":
            return self.grid_size
        return 1

    @classmethod
    def elementwise(cls, name: str) -> "BasisKind":
        return cls(name=name)

    @classmethod
    def bspline(cls, grid_size: int = 5, spline_order: int = 3,
                lo: float = -1.0, hi: float = 1.0) -> "BasisKind":
        return cls("bspline", grid_size=grid_size, spline_order=spline_order, lo=lo, hi=hi)

    @classmethod
    def rbf(cls, grid_size: int = 8, lo: float = -2.0, hi: float = 2.0) -> "BasisKind":
        return cls("rbf", grid_size=grid_size, lo=lo, hi=hi)


@dataclass(frozen=True)
class GridSpec:
    """Concrete grid for one grid-expanding kind.

    For B-splines, ``centers`` is the knot vector: non-decreasing with
    G + 2k + 1 entries, extending k uniform steps beyond each end of
    [lo, hi]. For RBFs, it is the G uniformly spaced centers and
    ``bandwidth`` = (hi - lo) / (G - 1).
    """

    centers: np.ndarray
    bandwidth: float = 0.0


def grid_spec(kind: BasisKind) -> GridSpec:
    """Build the knot vector or center grid for a grid-expanding kind."""
    if kind.name == "bspline":
        g, k = kind.grid_size, kind.spline_order
        step = (kind.hi - kind.lo) / g
        knots = kind.lo + step * np.arange(-k, g + k + 1, dtype=np.float64)
        return GridSpec(centers=knots)
    if kind.name == "rbf":
        centers = np.linspace(kind.lo, kind.hi, kind.grid_size, dtype=np.float64)
        h = (kind.hi - kind.lo) / (kind.grid_size - 1)
        return GridSpec(centers=centers, bandwidth=h)
    raise BasisConfigError(f"{kind.name!r} has no grid")


def eval_elementwise(kind: BasisKind, x: float) -> float:
    """Value of an elementwise kind at the scalar x."""
    if not kind.is_elementwise:
        raise BasisConfigError(f"{kind.name!r} is not elementwise")
    arr = np.asarray([x], dtype=np.float32)
    return float(kernels.unary_values(kind.name, arr)[0])


def bspline_basis(x: float, kind: BasisKind) -> np.ndarray:
    """All G + k basis values at x. Outside [lo, hi] values decay to 0."""
    if kind.name != "bspline":
        raise BasisConfigError(f"expected bspline, got {kind.name!r}")
    spec = grid_spec(kind)
    return kernels.bspline_values(
        np.asarray([x], dtype=np.float64), spec.centers, kind.spline_order
    )[0]


def rbf_basis(x: float, kind: BasisKind) -> np.ndarray:
    """Gaussian RBF values at x for the G grid centers."""
    if kind.name != "rbf":
        raise BasisConfigError(f"expected rbf, got {kind.name!r}")
    spec = grid_spec(kind)
    return kernels.rbf_values(
        np.asarray([x], dtype=np.float64), spec.centers, spec.bandwidth
    )[0]


def basis_derivative(kind: BasisKind, x: float):
    """Analytic d/dx: a float for elementwise kinds, a vector for grid kinds.

    tan is benchmark-only and never trained, so it has no derivative here.
    """
    if kind.name == "tan":
        raise BasisConfigError("tan is benchmark-only and has no training derivative")
    if kind.is_elementwise:
        arr = np.asarray([x], dtype=np.float32)
        return float(kernels.unary_derivs(kind.name, arr)[0])
    spec = grid_spec(kind)
    xs = np.asarray([x], dtype=np.float64)
    if kind.name == "bspline":
        return kernels.bspline_derivs(xs, spec.centers, kind.spline_order)[0]
    return kernels.rbf_derivs(xs, spec.centers, spec.bandwidth)[0]
