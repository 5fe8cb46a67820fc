"""Model zoo: MLP, function-combining KAN, and spline/RBF KAN baselines.

Every model is a stack of width-to-width layers over the shared autograd
ops, and every model kind is one entry of ``MODELS``: the parameters of each
layer in the order they are initialized, its forward function and, for the
spline kinds, the default grid and whether a Gaussian RBF expansion over the
same range is added to the grid's own.

The function-combining KAN (kind "fc-kan") runs the input through one
shared-weight pass per elementwise function in its set and merges the
per-function outputs elementwise (sum or product); because the linear
weights are shared across passes, its parameter count equals the MLP's.
The passes are stacked by rows and each layer is one layer norm and one
``unary_matmul``: layer 0 normalises the input once and every function reads
it; from layer 1 on, row block f holds function f's pass, and the row-wise
layer norm normalises all the blocks in one call. ``fold_rows`` merges the
blocks in function order.

Spline models expand inputs against a grid basis per layer:

  efficient-kan  silu(x) @ W_base + B(x) @ (W_spline * scaler per feature)
  fast-kan       h = LN(x); silu(h) @ W_base + R(h) @ W_spline
  bsrbf-kan      h = LN(x); silu(h) @ W_base + (B(h) + R(h)) @ W_spline

where B is the B-spline expansion and R the Gaussian RBF expansion.
"""

import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .basis import (FCKAN_FUNCTIONS, BSplineGrid, ConfigError, RBFGrid, count,
                    grid_from_record, grid_record, sequence)
from .tensor import (
    ShapeError,
    Tensor,
    apply_unary,
    basis_expand,
    elementwise,
    fold_rows,
    layer_norm,
    matmul,
    repeat_rows,
    silu,
    unary_matmul,
)

CHECKPOINT_MAGIC = b"FCKN"
CHECKPOINT_VERSION = 1


# fc-kan combine method -> the ufunc fold_rows merges the passes' outputs by
COMBINE_OPS = {"sum": np.add, "product": np.multiply}


@dataclass(frozen=True)
class ModelConfig:
    kind: str
    widths: tuple = (784, 64, 10)
    functions: tuple = ()  # fc-kan only, drawn from FCKAN_FUNCTIONS
    combine: str = "sum"  # fc-kan only, ignored when one function
    spline: BSplineGrid | RBFGrid | None = None  # spline kinds only, of their default's type
    seed: int = 0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind: {self.kind!r}")
        widths = tuple(count("widths", w, 1) for w in sequence("widths", self.widths))
        object.__setattr__(self, "widths", widths)
        if len(self.widths) < 2:
            raise ConfigError(f"widths need >= 2 entries: {self.widths}")
        count("seed", self.seed, 0)
        object.__setattr__(self, "functions", sequence("functions", self.functions))
        if self.kind == "fc-kan":
            if not 1 <= len(self.functions) <= 4:
                raise ConfigError("fc-kan needs between 1 and 4 functions")
            for f in self.functions:
                if f not in FCKAN_FUNCTIONS:
                    raise ConfigError(
                        f"fc-kan functions come from {FCKAN_FUNCTIONS}, got {f!r}"
                    )
            # a str first: an unhashable method would make the lookup a TypeError
            if not isinstance(self.combine, str) or self.combine not in COMBINE_OPS:
                raise ConfigError(f"combine must be one of {tuple(COMBINE_OPS)}: "
                                  f"{self.combine!r}")
        elif self.functions or self.combine != "sum":
            raise ConfigError(f"{self.kind} takes no function set and no combine method")
        default = MODELS[self.kind].spline
        if self.spline is None:
            object.__setattr__(self, "spline", default)
        elif default is None:
            raise ConfigError(f"{self.kind} takes no grid")
        elif type(self.spline) is not type(default):
            raise ConfigError(f"{self.kind} needs a {type(default).__name__}, "
                              f"got {type(self.spline).__name__}")
        grids = () if self.spline is None else (self.spline,)
        if MODELS[self.kind].plus_rbf:
            grids += (RBFGrid(self.spline.num_basis, self.spline.lo, self.spline.hi),)
        # derived, not a field (neither compared nor saved): what basis_expand sums per layer
        object.__setattr__(self, "grids", grids)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "widths": list(self.widths),
            "functions": list(self.functions),
            "combine": self.combine,
            "seed": self.seed,
            "spline": None if self.spline is None else grid_record(self.spline),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """The config a dict written by to_dict describes."""
        try:  # a non-mapping fails at **d, before the spline is read
            return cls(**{**d, "spline": grid_from_record(d["spline"])
                          if d.get("spline") else None})
        except TypeError as e:  # not a mapping, or a missing, unknown or mistyped field
            raise ConfigError(f"bad model config: {e}") from None


@dataclass
class Param:
    """A trainable tensor; ``decay`` marks it for decoupled weight decay."""

    name: str
    tensor: Tensor
    decay: bool = True


@dataclass
class Model:
    config: ModelConfig
    layers: list = field(default_factory=list)  # per-layer dict of Tensors
    params: list = field(default_factory=list)  # flat, stable order

    def forward(self, X: Tensor, tape=None) -> Tensor:
        return MODELS[self.config.kind].forward(self, X, tape)


# layer parameter -> (shape from (d_in, d_out, basis functions per input),
# initial value: np.ones, np.zeros, or the scale of a Kaiming-uniform draw
# with fan-in = rows, weight decay)
LAYER_PARAMS = {
    "ln_gamma": (lambda i, o, nb: (1, i), np.ones, False),
    "ln_beta": (lambda i, o, nb: (1, i), np.zeros, False),
    "weight": (lambda i, o, nb: (i, o), 1.0, True),
    "base_weight": (lambda i, o, nb: (i, o), 1.0, True),
    "spline_weight": (lambda i, o, nb: (i * nb, o), 0.1, True),
    "spline_scaler": (lambda i, o, nb: (i, o), 1.0, True),
}


def param_shapes(config: ModelConfig) -> list:
    """(layer, name, shape, decay) of every parameter, in initialization order:
    the layout that building, loading and counting share."""
    nb = config.spline.num_basis if config.spline is not None else 0
    return [(i, name, LAYER_PARAMS[name][0](d_in, d_out, nb), LAYER_PARAMS[name][2])
            for i, (d_in, d_out) in enumerate(zip(config.widths[:-1], config.widths[1:]))
            for name in MODELS[config.kind].params]


def _assemble(config: ModelConfig, arrays) -> Model:
    """The model whose parameters, in param_shapes order, hold arrays."""
    model = Model(config=config, layers=[{} for _ in config.widths[1:]])
    for (i, name, _, decay), data in zip(param_shapes(config), arrays):
        t = model.layers[i][name] = Tensor(data, requires_grad=True)
        model.params.append(Param(f"layer{i}.{name}", t, decay))
    return model


def build_model(config: ModelConfig) -> Model:
    """Deterministically initialize a model from its config and seed."""
    rng = np.random.default_rng(config.seed)

    def init(name, shape):
        value = LAYER_PARAMS[name][1]
        if callable(value):
            return value(shape, dtype=np.float32)
        bound = value / math.sqrt(shape[0])
        return rng.uniform(-bound, bound, size=shape).astype(np.float32)

    return _assemble(config, (init(name, shape) for _, name, shape, _ in param_shapes(config)))


def count_params(model: Model) -> int:
    """Exact count of trainable scalars."""
    return sum(p.tensor.data.size for p in model.params)


def _check_input(model: Model, X: Tensor):
    d0 = model.config.widths[0]
    if X.shape[1] != d0:
        raise ShapeError(f"model expects {d0} input features, got {X.shape[1]}")


def forward_mlp(model: Model, X: Tensor, tape=None) -> Tensor:
    _check_input(model, X)
    h = X
    last = len(model.layers) - 1
    for i, layer in enumerate(model.layers):
        h = layer_norm(tape, h, layer["ln_gamma"], layer["ln_beta"])
        h = matmul(tape, h, layer["weight"])
        if i < last:
            h = apply_unary(tape, "relu", h)
    return h


def forward_fckan(model: Model, X: Tensor, tape=None) -> Tensor:
    _check_input(model, X)
    fns = model.config.functions
    h = X
    for i, layer in enumerate(model.layers):
        h = layer_norm(tape, h, layer["ln_gamma"], layer["ln_beta"])
        h = unary_matmul(tape, fns, h, layer["weight"], shared=i == 0)
    return combine_outputs(tape, h, len(fns), model.config.combine)


def combine_outputs(tape, stacked: Tensor, n: int, method: str) -> Tensor:
    """Merge the n per-function row blocks of stacked elementwise, in order;
    one block is stacked itself."""
    if not isinstance(method, str) or method not in COMBINE_OPS:
        raise ConfigError(f"combine must be one of {tuple(COMBINE_OPS)}: {method!r}")
    return fold_rows(tape, COMBINE_OPS[method], stacked, n)


def forward_spline_kan(model: Model, X: Tensor, tape=None) -> Tensor:
    """silu(h) @ W_base + (sum of the grid expansions of h) @ W_spline per
    layer, where h is layer-normed if the layer has ``ln_gamma`` and W_spline
    is scaled per input feature if it has ``spline_scaler``."""
    _check_input(model, X)
    nb = model.config.spline.num_basis
    h = X
    for layer in model.layers:
        if "ln_gamma" in layer:
            h = layer_norm(tape, h, layer["ln_gamma"], layer["ln_beta"])
        base = matmul(tape, silu(tape, h), layer["base_weight"])
        w = layer["spline_weight"]
        if "spline_scaler" in layer:
            w = elementwise(tape, "mul", w, repeat_rows(tape, layer["spline_scaler"], nb))
        h = elementwise(tape, "add", base, basis_expand(tape, h, w, *model.config.grids))
    return h


@dataclass(frozen=True)
class ModelKind:
    params: tuple  # names from LAYER_PARAMS, in initialization order
    forward: object  # (model, X, tape) -> logits
    spline: BSplineGrid | RBFGrid | None = None  # default grid of a spline kind
    plus_rbf: bool = False  # also expand one Gaussian RBF per basis function of the grid


_LN = ("ln_gamma", "ln_beta")
_SPLINE = ("base_weight", "spline_weight")

MODELS = {
    "mlp": ModelKind(_LN + ("weight",), forward_mlp),
    "fc-kan": ModelKind(_LN + ("weight",), forward_fckan),
    "efficient-kan": ModelKind(_SPLINE + ("spline_scaler",), forward_spline_kan,
                               BSplineGrid(5, 3, -1.0, 1.0)),
    "fast-kan": ModelKind(_LN + _SPLINE, forward_spline_kan,
                          RBFGrid(8, -2.0, 2.0)),
    "bsrbf-kan": ModelKind(_LN + _SPLINE, forward_spline_kan,
                           BSplineGrid(5, 3, -1.5, 1.5), plus_rbf=True),
}
MODEL_KINDS = tuple(MODELS)


class CheckpointError(ValueError):
    """Malformed checkpoint file."""


def save_model(model: Model, path):
    """Little-endian binary: magic, version, config JSON, then each tensor."""
    blob = json.dumps(model.config.to_dict()).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for p in model.params:
            rows, cols = p.tensor.shape
            f.write(struct.pack("<II", rows, cols))
            f.write(p.tensor.data.astype("<f4", copy=False).tobytes())


def _left(f) -> int:
    """Bytes from f's position to the end of its file."""
    return os.fstat(f.fileno()).st_size - f.tell()


def _read_exact(f, size: int, what: str) -> bytes:
    # checked against the file's length first, so that a size a file claims
    # allocates nothing
    if _left(f) < size:
        raise CheckpointError(f"truncated checkpoint: {what} needs {size} bytes, "
                              f"got {_left(f)}")
    return f.read(size)


def load_model(path) -> Model:
    """Read back a model that save_model wrote: every length is checked against
    the file before anything is allocated, and no model is built."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad checkpoint magic: {magic!r}")
        (version,) = struct.unpack("<I", _read_exact(f, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version: {version}")
        (n,) = struct.unpack("<I", _read_exact(f, 4, "config length"))
        blob = _read_exact(f, n, "config JSON")
        try:
            config = ModelConfig.from_dict(json.loads(blob.decode("utf-8")))
        except ValueError as e:  # undecodable JSON or an invalid config
            raise CheckpointError(f"bad config in checkpoint: {e}") from None
        shapes = param_shapes(config)
        left, need = _left(f), sum(8 + 4 * rows * cols for _, _, (rows, cols), _ in shapes)
        if left != need:
            raise CheckpointError(f"{'truncated' if left < need else 'trailing bytes in'} "
                                  f"checkpoint: its config's tensors need {need} bytes, "
                                  f"the file holds {left}")
        arrays = []
        for i, name, shape, _ in shapes:
            what = f"layer{i}.{name}"
            stored = struct.unpack("<II", _read_exact(f, 8, f"{what} shape"))
            if stored != shape:
                raise CheckpointError(f"{what}: stored shape {stored} != expected {shape}")
            data = np.empty(shape, dtype="<f4")
            if f.readinto(data) != data.nbytes:  # the file shrank since its length was read
                raise CheckpointError(f"truncated checkpoint: {what} data")
            if not np.isfinite(data).all():
                raise CheckpointError(f"{what}: stored values are not all finite")
            arrays.append(data)
    return _assemble(config, arrays)
