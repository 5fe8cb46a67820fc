"""Univariate basis functions and the registry of basis kinds.

Two families: elementwise transcendentals (relu, sin, cos, arctan, tan, tanh,
DoG) and grid-expanding bases that map one input to a vector of values
(B-splines via Cox-de Boor over a uniform extended knot vector, Gaussian
RBFs on uniformly spaced centers). ``KINDS`` is the one table of basis kinds
and says where each may be used; the kind lists of the rest of the package
are views of it. The math lives in fckan.kernels.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels


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
        if self.name not in KINDS:
            raise BasisConfigError(f"unknown basis kind: {self.name!r}")
        if not self.is_elementwise:
            grid_spec(self)  # raises on a grid the family cannot build
            if not self.lo < self.hi:
                raise BasisConfigError(f"empty grid range [{self.lo}, {self.hi}]")

    @property
    def is_elementwise(self) -> bool:
        return KINDS[self.name].grid is None

    @property
    def num_basis(self) -> int:
        """Output vector length of one evaluation."""
        return 1 if self.is_elementwise else grid_spec(self).num_basis

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
class BSplineGrid:
    """Order-k B-splines on a uniform knot vector (``centers``) that extends k
    steps beyond each end of [lo, hi]: G + 2k + 1 knots, G + k functions."""

    centers: np.ndarray
    order: int
    num_basis: int
    default = BasisKind.bspline  # the grid `fckan bench` times

    @classmethod
    def of(cls, kind: BasisKind) -> "BSplineGrid":
        g, k = kind.grid_size, kind.spline_order
        if g < 1 or k < 0:
            raise BasisConfigError(
                f"bspline needs grid_size >= 1 and spline_order >= 0, got G={g}, k={k}"
            )
        step = (kind.hi - kind.lo) / g
        return cls(kind.lo + step * np.arange(-k, g + k + 1, dtype=np.float64), k, g + k)

    def values(self, x):
        return kernels.bspline_values(x, self.centers, self.order)

    def derivs(self, x):
        return kernels.bspline_derivs(x, self.centers, self.order)


@dataclass(frozen=True)
class RBFGrid:
    """Gaussian RBFs on G uniformly spaced centers, bandwidth (hi - lo) / (G - 1)."""

    centers: np.ndarray
    bandwidth: float
    num_basis: int
    default = BasisKind.rbf  # the grid `fckan bench` times

    @classmethod
    def of(cls, kind: BasisKind) -> "RBFGrid":
        g = kind.grid_size
        if g < 2:
            raise BasisConfigError(f"rbf needs grid_size >= 2 (bandwidth undefined), got G={g}")
        centers = np.linspace(kind.lo, kind.hi, g, dtype=np.float64)
        return cls(centers, (kind.hi - kind.lo) / (g - 1), g)

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


def grid_spec(kind: BasisKind):
    """The knot vector or center grid of a grid-expanding kind."""
    if kind.is_elementwise:
        raise BasisConfigError(f"{kind.name!r} has no grid")
    return KINDS[kind.name].grid.of(kind)


def eval_elementwise(kind: BasisKind, x: float) -> float:
    """Value of an elementwise kind at the scalar x."""
    if not kind.is_elementwise:
        raise BasisConfigError(f"{kind.name!r} is not elementwise")
    arr = np.asarray([x], dtype=np.float32)
    return float(kernels.unary_values(kind.name, arr)[0])


def _grid_row(x: float, kind: BasisKind, family) -> np.ndarray:
    spec = grid_spec(kind)
    if not isinstance(spec, family):
        raise BasisConfigError(f"expected a {family.__name__} kind, got {kind.name!r}")
    return spec.values(np.asarray([x], dtype=np.float64))[0]


def bspline_basis(x: float, kind: BasisKind) -> np.ndarray:
    """All G + k basis values at x. Outside [lo, hi] values decay to 0."""
    return _grid_row(x, kind, BSplineGrid)


def rbf_basis(x: float, kind: BasisKind) -> np.ndarray:
    """Gaussian RBF values at x for the G grid centers."""
    return _grid_row(x, kind, RBFGrid)


def basis_derivative(kind: BasisKind, x: float):
    """Analytic d/dx: a float for elementwise kinds, a vector for grid kinds.

    Kinds with no derivative in fckan.kernels (tan, which is only
    benchmarked) raise BasisConfigError.
    """
    if kind.is_elementwise:
        try:
            d = kernels.unary_derivs(kind.name, np.asarray([x], dtype=np.float32))
        except ValueError as e:
            raise BasisConfigError(str(e)) from None
        return float(d[0])
    return grid_spec(kind).derivs(np.asarray([x], dtype=np.float64))[0]
