"""Model zoo: MLP, function-combining KAN, and spline/RBF KAN baselines.

Every model is a stack of width-to-width layers over the shared autograd
ops. The function-combining KAN (kind "fc-kan") runs the input through one
shared-weight pass per elementwise function in its set and merges the
per-function outputs elementwise (sum or product); because the linear
weights are shared across passes, its parameter count equals the MLP's.

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

from .basis import BasisKind
from .tensor import (
    Tensor,
    apply_unary,
    basis_expand,
    elementwise,
    layer_norm,
    matmul,
    repeat_rows,
    silu,
)

MODEL_KINDS = ("mlp", "fc-kan", "efficient-kan", "fast-kan", "bsrbf-kan")
FCKAN_FUNCTIONS = ("sin", "cos", "arctan", "relu")

CHECKPOINT_MAGIC = b"FCKN"
CHECKPOINT_VERSION = 1


class ConfigError(ValueError):
    """Invalid model configuration."""


def default_spline(kind: str):
    """Grid config used when a spline model does not specify one."""
    if kind == "efficient-kan":
        return BasisKind.bspline(5, 3, -1.0, 1.0)
    if kind == "fast-kan":
        return BasisKind.rbf(8, -2.0, 2.0)
    if kind == "bsrbf-kan":
        return BasisKind.bspline(5, 3, -1.5, 1.5)
    return None


@dataclass(frozen=True)
class ModelConfig:
    kind: str
    widths: tuple = (784, 64, 10)
    functions: tuple = ()  # fc-kan only, drawn from FCKAN_FUNCTIONS
    combine: str = "sum"  # fc-kan only, ignored when one function
    spline: BasisKind | None = None  # grid config for the spline kinds
    seed: int = 0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind: {self.kind!r}")
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if len(self.widths) < 2 or any(w < 1 for w in self.widths):
            raise ConfigError(f"widths need >= 2 entries, all >= 1: {self.widths}")
        object.__setattr__(self, "functions", tuple(self.functions))
        if self.kind == "fc-kan":
            if not 1 <= len(self.functions) <= 4:
                raise ConfigError("fc-kan needs between 1 and 4 functions")
            for f in self.functions:
                if f not in FCKAN_FUNCTIONS:
                    raise ConfigError(
                        f"fc-kan functions come from {FCKAN_FUNCTIONS}, got {f!r}"
                    )
            if self.combine not in ("sum", "product"):
                raise ConfigError(f"combine must be 'sum' or 'product': {self.combine!r}")
        elif self.functions:
            raise ConfigError(f"{self.kind} takes no function set")
        if self.spline is None:
            object.__setattr__(self, "spline", default_spline(self.kind))

    def to_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "widths": list(self.widths),
            "functions": list(self.functions),
            "combine": self.combine,
            "seed": self.seed,
            "spline": None,
        }
        if self.spline is not None:
            d["spline"] = {
                "name": self.spline.name,
                "grid_size": self.spline.grid_size,
                "spline_order": self.spline.spline_order,
                "lo": self.spline.lo,
                "hi": self.spline.hi,
            }
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        spline = BasisKind(**d["spline"]) if d.get("spline") else None
        return cls(
            kind=d["kind"],
            widths=tuple(d["widths"]),
            functions=tuple(d.get("functions", ())),
            combine=d.get("combine", "sum"),
            spline=spline,
            seed=d.get("seed", 0),
        )


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

    @property
    def param_count(self) -> int:
        return count_params(self)

    def forward(self, X: Tensor, tape=None) -> Tensor:
        kind = self.config.kind
        if kind == "mlp":
            return forward_mlp(self, X, tape)
        if kind == "fc-kan":
            return forward_fckan(self, X, tape)
        return forward_spline_kan(self, X, tape)

    def rbf_kind(self) -> BasisKind:
        """RBF grid used by fast-kan and bsrbf-kan layers."""
        sp = self.config.spline
        if sp.name == "rbf":
            return sp
        # bsrbf: one RBF per spline basis function over the same range
        return BasisKind.rbf(grid_size=sp.num_basis, lo=sp.lo, hi=sp.hi)


def _uniform_weight(rng, fan_in: int, fan_out: int, scale: float = 1.0) -> np.ndarray:
    # Kaiming-uniform, fan-in mode; spline weights pass scale=0.1
    bound = scale / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(np.float32)


def build_model(config: ModelConfig) -> Model:
    """Deterministically initialize a model from its config and seed."""
    rng = np.random.default_rng(config.seed)
    model = Model(config=config)
    kind = config.kind
    nb = config.spline.num_basis if config.spline is not None else 0

    def add(layer, name, array, decay):
        t = Tensor(array, requires_grad=True)
        layer[name] = t
        model.params.append(Param(f"layer{len(model.layers)}.{name}", t, decay))

    for d_in, d_out in zip(config.widths[:-1], config.widths[1:]):
        layer = {}
        if kind in ("mlp", "fc-kan"):
            add(layer, "ln_gamma", np.ones((1, d_in), dtype=np.float32), False)
            add(layer, "ln_beta", np.zeros((1, d_in), dtype=np.float32), False)
            add(layer, "weight", _uniform_weight(rng, d_in, d_out), True)
        elif kind == "efficient-kan":
            add(layer, "base_weight", _uniform_weight(rng, d_in, d_out), True)
            add(layer, "spline_weight", _uniform_weight(rng, d_in * nb, d_out, 0.1), True)
            add(layer, "spline_scaler", _uniform_weight(rng, d_in, d_out), True)
        else:  # fast-kan, bsrbf-kan
            add(layer, "ln_gamma", np.ones((1, d_in), dtype=np.float32), False)
            add(layer, "ln_beta", np.zeros((1, d_in), dtype=np.float32), False)
            add(layer, "base_weight", _uniform_weight(rng, d_in, d_out), True)
            add(layer, "spline_weight", _uniform_weight(rng, d_in * nb, d_out, 0.1), True)
        model.layers.append(layer)
    return model


def count_params(model: Model) -> int:
    """Exact count of trainable scalars."""
    return sum(p.tensor.data.size for p in model.params)


def layer_param_counts(model: Model) -> list:
    """Per-layer (name, count) pairs for the parameter report."""
    out = []
    for i, layer in enumerate(model.layers):
        total = sum(t.data.size for t in layer.values())
        out.append((f"layer {i}", total))
    return out


def _check_input(model: Model, X: Tensor):
    d0 = model.config.widths[0]
    if X.shape[1] != d0:
        raise ShapeMismatch(f"model expects {d0} input features, got {X.shape[1]}")


class ShapeMismatch(ValueError):
    """Input width does not match the model's first layer."""


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


def _fckan_pass(model: Model, X: Tensor, fn: str, tape) -> Tensor:
    h = X
    for layer in model.layers:
        h = layer_norm(tape, h, layer["ln_gamma"], layer["ln_beta"])
        h = apply_unary(tape, fn, h)
        h = matmul(tape, h, layer["weight"])
    return h


def forward_fckan(model: Model, X: Tensor, tape=None) -> Tensor:
    _check_input(model, X)
    fns = model.config.functions
    if not fns:
        raise ConfigError("fc-kan has an empty function set")
    outputs = [_fckan_pass(model, X, fn, tape) for fn in fns]
    return combine_outputs(tape, outputs, model.config.combine)


def combine_outputs(tape, outputs, method: str) -> Tensor:
    """Merge per-function outputs elementwise; identity for a single output."""
    if not outputs:
        raise ConfigError("combine_outputs needs at least one tensor")
    if method not in ("sum", "product"):
        raise ConfigError(f"combine must be 'sum' or 'product': {method!r}")
    op = "add" if method == "sum" else "mul"
    merged = outputs[0]
    for o in outputs[1:]:
        merged = elementwise(tape, op, merged, o)
    return merged


def forward_spline_kan(model: Model, X: Tensor, tape=None) -> Tensor:
    _check_input(model, X)
    kind = model.config.kind
    sp = model.config.spline
    h = X
    for layer in model.layers:
        if kind == "efficient-kan":
            base = matmul(tape, silu(tape, h), layer["base_weight"])
            scale = repeat_rows(tape, layer["spline_scaler"], sp.num_basis)
            w_eff = elementwise(tape, "mul", layer["spline_weight"], scale)
            spline = matmul(tape, basis_expand(tape, h, sp), w_eff)
            h = elementwise(tape, "add", base, spline)
        else:
            hn = layer_norm(tape, h, layer["ln_gamma"], layer["ln_beta"])
            base = matmul(tape, silu(tape, hn), layer["base_weight"])
            if kind == "fast-kan":
                expanded = basis_expand(tape, hn, model.rbf_kind())
            else:  # bsrbf-kan
                expanded = elementwise(
                    tape,
                    "add",
                    basis_expand(tape, hn, sp),
                    basis_expand(tape, hn, model.rbf_kind()),
                )
            spline = matmul(tape, expanded, layer["spline_weight"])
            h = elementwise(tape, "add", base, spline)
    return h


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
        config = ModelConfig.from_dict(json.loads(blob.decode("utf-8")))
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
