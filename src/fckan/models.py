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
Layer 0's layer norm sees the same input in every pass, so it is computed
once and its output is shared by all of them; from layer 1 on, each pass
normalises its own input.

Spline models expand inputs against a grid basis per layer:

  efficient-kan  silu(x) @ W_base + B(x) @ (W_spline * scaler per feature)
  fast-kan       h = LN(x); silu(h) @ W_base + R(h) @ W_spline
  bsrbf-kan      h = LN(x); silu(h) @ W_base + (B(h) + R(h)) @ W_spline

where B is the B-spline expansion and R the Gaussian RBF expansion.
"""

import json
import math
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
    layer_norm,
    matmul,
    repeat_rows,
    silu,
)

CHECKPOINT_MAGIC = b"FCKN"
CHECKPOINT_VERSION = 1


# fc-kan combine method -> the elementwise op that merges two outputs
COMBINE_OPS = {"sum": "add", "product": "mul"}


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
            if self.combine not in COMBINE_OPS:
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


def _uniform_weight(rng, fan_in: int, fan_out: int, scale: float = 1.0) -> np.ndarray:
    # Kaiming-uniform, fan-in mode; spline weights pass scale=0.1
    bound = scale / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(np.float32)


# layer parameter -> (initial value from (rng, d_in, d_out, basis functions
# per input), weight decay)
LAYER_PARAMS = {
    "ln_gamma": (lambda rng, i, o, nb: np.ones((1, i), dtype=np.float32), False),
    "ln_beta": (lambda rng, i, o, nb: np.zeros((1, i), dtype=np.float32), False),
    "weight": (lambda rng, i, o, nb: _uniform_weight(rng, i, o), True),
    "base_weight": (lambda rng, i, o, nb: _uniform_weight(rng, i, o), True),
    "spline_weight": (lambda rng, i, o, nb: _uniform_weight(rng, i * nb, o, 0.1), True),
    "spline_scaler": (lambda rng, i, o, nb: _uniform_weight(rng, i, o), True),
}


def build_model(config: ModelConfig) -> Model:
    """Deterministically initialize a model from its config and seed."""
    rng = np.random.default_rng(config.seed)
    model = Model(config=config)
    nb = config.spline.num_basis if config.spline is not None else 0
    for d_in, d_out in zip(config.widths[:-1], config.widths[1:]):
        layer = {}
        for name in MODELS[config.kind].params:
            init, decay = LAYER_PARAMS[name]
            layer[name] = Tensor(init(rng, d_in, d_out, nb), requires_grad=True)
            model.params.append(Param(f"layer{len(model.layers)}.{name}", layer[name], decay))
        model.layers.append(layer)
    return model


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


def _fckan_pass(model: Model, h: Tensor, fn: str, tape) -> Tensor:
    """One function's pass over the layer-normed input h of layer 0."""
    for i, layer in enumerate(model.layers):
        if i:  # from layer 1 on, each function's pass has its own input
            h = layer_norm(tape, h, layer["ln_gamma"], layer["ln_beta"])
        h = apply_unary(tape, fn, h)
        h = matmul(tape, h, layer["weight"])
    return h


def forward_fckan(model: Model, X: Tensor, tape=None) -> Tensor:
    _check_input(model, X)
    first = model.layers[0]
    h = layer_norm(tape, X, first["ln_gamma"], first["ln_beta"])  # shared by every pass
    outputs = [_fckan_pass(model, h, fn, tape) for fn in model.config.functions]
    return combine_outputs(tape, outputs, model.config.combine)


def combine_outputs(tape, outputs, method: str) -> Tensor:
    """Merge per-function outputs elementwise; identity for a single output."""
    if not outputs:
        raise ConfigError("combine_outputs needs at least one tensor")
    if method not in COMBINE_OPS:
        raise ConfigError(f"combine must be one of {tuple(COMBINE_OPS)}: {method!r}")
    merged = outputs[0]
    for o in outputs[1:]:
        merged = elementwise(tape, COMBINE_OPS[method], merged, o)
    return merged


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
        expanded = basis_expand(tape, h, *model.config.grids)
        h = elementwise(tape, "add", base, matmul(tape, expanded, w))
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


def _read_exact(f, size: int, what: str) -> bytes:
    raw = f.read(size)
    if len(raw) != size:
        raise CheckpointError(f"truncated checkpoint: {what} needs {size} bytes, got {len(raw)}")
    return raw


def load_model(path) -> Model:
    """Rebuild a model from a checkpoint written by save_model."""
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
        model = build_model(config)
        for p in model.params:
            rows, cols = struct.unpack("<II", _read_exact(f, 8, f"{p.name} shape"))
            if (rows, cols) != p.tensor.shape:
                raise CheckpointError(
                    f"{p.name}: stored shape {(rows, cols)} != expected {p.tensor.shape}"
                )
            raw = _read_exact(f, rows * cols * 4, f"{p.name} data")
            p.tensor.data = np.frombuffer(raw, dtype="<f4").reshape(rows, cols).copy()
        if f.read(1):
            raise CheckpointError("trailing bytes after final tensor")
    return model
