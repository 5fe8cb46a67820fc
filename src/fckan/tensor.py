"""Dense 2-D float32 tensors with reverse-mode differentiation.

A Tensor wraps a contiguous row-major float32 matrix plus an optional
gradient buffer. Operations record onto an explicit Tape; calling
``Tape.backward`` on a scalar loss sweeps the tape in reverse topological
order and accumulates gradients additively into every reachable tensor that
requires them. Passing ``tape=None`` to any op runs it in inference mode
(no recording, no gradients).

A tape is single-use: a second backward on it raises, and each training step
records onto a new one. Each tape is single-threaded; independent tapes may
run on separate threads.
"""

import numpy as np

from . import kernels
from .basis import FCKAN_FUNCTIONS, ConfigError

# Inputs per grid call in basis_expand: the paper's batch-64 layer 0 (50,176
# inputs) is one block, and a batch of 1000 keeps its float64 temporaries to
# a few MiB each instead of some 50 MiB.
BLOCK = 1 << 16

# layer_norm's variance guard, in the float32 its rows are normalised in
LN_EPS = np.float32(1e-5)

_ZERO = np.float32(0.0)


class ShapeError(ValueError):
    """Operand shapes do not satisfy the operation's contract."""


class TapeError(RuntimeError):
    """Backward called on an exhausted tape or on a non-tape tensor."""


class LabelError(ValueError):
    """Class label outside [0, C)."""


class Tensor:
    """2-D float32 matrix with an optional grad buffer of the same shape."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float32)
        if arr.ndim != 2:
            raise ShapeError(f"tensors are 2-D, got shape {arr.shape}")
        self.data = np.ascontiguousarray(arr)
        self.grad = None
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data[0, 0])

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if self.grad is None:
            # the bits of zeros + g in one pass, into a new array: g may be
            # another tensor's gradient (an elementwise add hands its output
            # gradient to both inputs)
            self.grad = np.add(g, _ZERO, out=np.empty_like(self.data))
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Operations as (output, inputs, backward_fn) records, each after its inputs."""

    def __init__(self):
        self._nodes = []
        self._spent = False

    def __len__(self):
        return len(self._nodes)

    def record(self, output: Tensor, inputs, backward_fn) -> Tensor:
        output.requires_grad = any(t.requires_grad for t in inputs)
        self._nodes.append((output, tuple(inputs), backward_fn))
        return output

    def backward(self, loss: Tensor):
        """Reverse sweep from a scalar loss; grads accumulate additively."""
        if self._spent:
            raise TapeError("tape already swept; record onto a new tape")
        if loss.data.shape != (1, 1):
            raise TapeError(f"loss must be a scalar, got shape {loss.shape}")
        # newest first: a training step's loss is the last record
        if not any(output is loss for output, _, _ in reversed(self._nodes)):
            raise TapeError("loss was not produced on this tape")
        self._spent = True
        loss.grad = np.ones((1, 1), dtype=np.float32)
        for output, inputs, backward_fn in reversed(self._nodes):
            if output.grad is None:
                continue
            for t, g in zip(inputs, backward_fn(output.grad)):
                if g is not None and t.requires_grad:
                    t._accumulate(g)


def _emit(tape, out, inputs, backward_fn):
    if tape is not None:
        tape.record(out, inputs, backward_fn)
    return out


def matmul(tape, a: Tensor, b: Tensor) -> Tensor:
    """Matrix product [m x k] @ [k x n] -> [m x n]."""
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)

    def bwd(dout):
        da = dout @ b.data.T if a.requires_grad else None
        db = a.data.T @ dout if b.requires_grad else None
        return da, db

    return _emit(tape, out, (a, b), bwd)


def apply_unary(tape, name: str, x: Tensor) -> Tensor:
    """One of the fc-kan functions, elementwise; backward uses the analytic
    derivative."""
    if name not in FCKAN_FUNCTIONS:
        raise ConfigError(f"apply_unary supports {FCKAN_FUNCTIONS}, got {name!r}")
    return _unary(tape, name, x)


def silu(tape, x: Tensor) -> Tensor:
    """x * sigmoid(x), the base-branch activation of the spline models."""
    return _unary(tape, "silu", x)


def _unary(tape, name, x):
    out = Tensor(kernels.unary_values(name, x.data))

    def bwd(dout):
        return (dout * kernels.unary_derivs(name, x.data),)

    return _emit(tape, out, (x,), bwd)


def elementwise(tape, op: str, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum or Hadamard product of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"elementwise {op} needs equal shapes: {a.shape} vs {b.shape}")
    if op == "add":
        out = Tensor(a.data + b.data)

        def bwd(dout):
            return dout, dout

    elif op == "mul":
        out = Tensor(a.data * b.data)

        def bwd(dout):
            return dout * b.data, dout * a.data

    else:
        raise ValueError(f"elementwise op must be 'add' or 'mul', got {op!r}")
    return _emit(tape, out, (a, b), bwd)


def layer_norm(tape, x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-row normalization to zero mean / unit variance (LN_EPS added to
    the variance), then affine."""
    d = x.shape[1]
    if d == 0:
        raise ShapeError("layer_norm on empty rows")
    if gamma.shape != (1, d) or beta.shape != (1, d):
        raise ShapeError(
            f"affine params must be [1 x {d}], got {gamma.shape} and {beta.shape}"
        )
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    sq = xc * xc
    var = sq.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    # xc and sq are this call's own: normalise in place, then write the affine
    # output over the squared deviations, which only the variance needed
    y = np.multiply(xc, inv, out=xc)
    out = Tensor(np.add(np.multiply(y, gamma.data, out=sq), beta.data, out=sq))

    def bwd(dout):
        dgamma = (dout * y).sum(axis=0, keepdims=True) if gamma.requires_grad else None
        dbeta = dout.sum(axis=0, keepdims=True) if beta.requires_grad else None
        dx = None
        if x.requires_grad:
            dy = dout * gamma.data
            dx = inv * (
                dy
                - dy.mean(axis=1, keepdims=True)
                - y * (dy * y).mean(axis=1, keepdims=True)
            )
        return dx, dgamma, dbeta

    return _emit(tape, out, (x, gamma, beta), bwd)


def softmax_cross_entropy(tape, logits: Tensor, labels) -> Tensor:
    """Mean over rows of -log softmax(logits)[label]; returns a 1x1 tensor."""
    labels = np.asarray(labels, dtype=np.int64).ravel()
    m, c = logits.shape
    if labels.shape[0] != m:
        raise ShapeError(f"{m} rows of logits but {labels.shape[0]} labels")
    bad = np.nonzero((labels < 0) | (labels >= c))[0]
    if bad.size:
        i = int(bad[0])
        raise LabelError(f"label {int(labels[i])} at index {i} outside [0, {c})")
    # softmax in float64 so near-zero losses keep their value
    z = logits.data.astype(np.float64)
    z -= z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    sums = ez.sum(axis=1, keepdims=True)
    probs = ez / sums
    # the label column of the log-softmax z - log(sums), row by row
    loss = -(z[np.arange(m), labels] - np.log(sums[:, 0])).mean()
    out = Tensor(np.asarray([[loss]]))

    def bwd(dout):
        if not logits.requires_grad:
            return (None,)
        g = probs.astype(np.float32)
        g[np.arange(m), labels] -= 1.0
        return (g * (dout[0, 0] / np.float32(m)),)

    return _emit(tape, out, (logits,), bwd)


def _sum_into(out, arrays):
    """out = the first array, then out += each later one cast to float32."""
    for i, a in enumerate(arrays):
        out[...] = out + a.astype(np.float32) if i else a


def basis_expand(tape, x: Tensor, *grids) -> Tensor:
    """Expand each entry of [m x d] to the sum of its basis vectors on one or
    more grids of one size nb (BSplineGrid, RBFGrid), giving [m x d*nb].

    Column block i*nb..(i+1)*nb-1 holds the nb basis values of input
    feature i, matching the row layout of the spline weight matrices. Grids
    are evaluated in float64 over blocks of at most BLOCK inputs and summed
    into the float32 output with the bits of elementwise adds of one call per
    grid. With a tape and an x that requires grad, the forward pass also keeps
    each block's float64 derivatives, from its values pass, for the backward.
    """
    if not grids or any(g.num_basis != grids[0].num_basis for g in grids):
        raise ShapeError("basis_expand sums one or more grids of one size, got sizes "
                         f"{[g.num_basis for g in grids]}")
    m, d = x.shape
    nb = grids[0].num_basis
    flat = x.data.reshape(-1)
    values = np.empty((m * d, nb), dtype=np.float32)
    derivs = [] if tape is not None and x.requires_grad else None
    for s in range(0, m * d, BLOCK):
        block = flat[s:s + BLOCK].astype(np.float64)
        if derivs is None:
            _sum_into(values[s:s + BLOCK], (g.values(block) for g in grids))
        else:
            block_values, block_derivs = zip(*(g.values_and_derivs(block) for g in grids))
            _sum_into(values[s:s + BLOCK], block_values)
            derivs.append(block_derivs)
    out = Tensor(values.reshape(m, d * nb))

    def bwd(dout):
        if derivs is None:
            return (None,)
        dvalues = dout.reshape(m * d, nb)
        dx = np.empty(m * d, dtype=np.float32)
        for s, block_derivs in zip(range(0, m * d, BLOCK), derivs):
            rows = dvalues[s:s + BLOCK]
            _sum_into(dx[s:s + BLOCK], (np.einsum("ij,ij->i", rows, g) for g in block_derivs))
        return (dx.reshape(m, d),)

    return _emit(tape, out, (x,), bwd)


def repeat_rows(tape, s: Tensor, k: int) -> Tensor:
    """Repeat each row k times: [r x c] -> [r*k x c].

    Lets a per-feature scaler multiply a spline weight matrix whose rows
    come in blocks of k basis functions per feature.
    """
    out = Tensor(np.repeat(s.data, k, axis=0))
    r, c = s.shape

    def bwd(dout):
        return (dout.reshape(r, k, c).sum(axis=1),)

    return _emit(tape, out, (s,), bwd)
