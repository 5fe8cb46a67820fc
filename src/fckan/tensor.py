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

import functools
import itertools

import numpy as np

from . import kernels
from .basis import FCKAN_FUNCTIONS, ConfigError

# Most float32 values that one block of rows holds: of basis_expand's
# expansion (d * nb a row) or of unary_matmul's untaped function values (d a
# row). At the paper's nb = 8 a spline kind's layer 0 takes at most 83 rows a
# block, so the paper's batch of 64 is one block and a batch of 1000 thirteen;
# a batch-1000 layer 0 of fc-kan runs through one 1.5 MiB scratch in two
# blocks of 500 rows, and that forward's peak stays under layer norm's own.
# Three blocks of 334 rows made that forward 2-4% slower, and 83-row blocks
# 14% (2 CPUs, OpenBLAS at 2 threads).
BLOCK = 1 << 19

# layer_norm's variance guard, in the float32 its rows are normalised in
LN_EPS = np.float32(1e-5)

_ZERO = np.float32(0.0)


def _row_blocks(m: int, per_row: int) -> list:
    """(start, stop) of the fewest blocks of at most BLOCK // per_row rows (at
    least one) over m rows, split evenly: a short block makes a slower product."""
    k = -(-m // max(1, BLOCK // max(per_row, 1)))
    return [(m * i // k, m * (i + 1) // k) for i in range(k)]


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


def unary_matmul(tape, names, x: Tensor, w: Tensor, shared: bool = False) -> Tensor:
    """n = len(names) fc-kan functions, each followed by one weight: row block
    f of the [n*m x o] result is names[f](x_f) @ w.

    x_f is x itself, [m x d], read by every function, if ``shared``; else x
    is [n*m x d] and x_f its row block f. Without a tape, or when w needs no
    gradient, the values go through one reused scratch of at most BLOCK
    values, a block of rows at a time. Otherwise all n*m rows of values are
    kept, and dw is one product of them with dout. dx is the rows of dout @ w.T times
    each function's analytic derivative; a shared x sums them, the last
    function's first.
    """
    if not names or any(f not in FCKAN_FUNCTIONS for f in names):
        raise ConfigError(f"unary_matmul takes one or more of {FCKAN_FUNCTIONS}, "
                          f"got {names!r}")
    n = len(names)
    rows, d = x.shape
    if w.shape[0] != d:
        raise ShapeError(f"unary_matmul of {d} features needs {d} rows of w, got {w.shape}")
    if not shared and rows % n:
        raise ShapeError(f"{rows} rows of x do not stack {n} functions' inputs")
    m = rows if shared else rows // n
    xs = [x.data] * n if shared else x.data.reshape(n, m, d)
    out = np.empty((n * m, w.shape[1]), dtype=np.float32)
    values = (np.empty((n * m, d), dtype=np.float32)
              if tape is not None and w.requires_grad else None)
    if values is not None:
        for name, xf, vf in zip(names, xs, values.reshape(n, m, d)):
            kernels.unary_values(name, xf, out=vf)
        np.matmul(values, w.data, out=out)
    else:
        blocks = _row_blocks(m, d)
        scratch = np.empty(max((b - a for a, b in blocks), default=0) * d, dtype=np.float32)
        for name, xf, of in zip(names, xs, out.reshape(n, m, w.shape[1])):
            for a, b in blocks:
                vb = scratch[:(b - a) * d].reshape(b - a, d)
                kernels.unary_values(name, xf[a:b], out=vb)
                np.matmul(vb, w.data, out=of[a:b])
    out = Tensor(out)

    def bwd(dout):
        dx = None
        if x.requires_grad:
            dx = dout @ w.data.T
            grads = dx.reshape(n, m, d)
            for name, xf, g in zip(names, xs, grads):
                np.multiply(g, kernels.unary_derivs(name, xf), out=g)
            if shared:  # in the order one op per function would add them on a tape
                dx = grads[-1]
                for g in grads[-2::-1]:
                    dx += g
        return dx, None if values is None else values.T @ dout

    return _emit(tape, out, (x, w), bwd)


def fold_rows(tape, op, x: Tensor, n: int) -> Tensor:
    """The left fold ((x_0 op x_1) op x_2) ... of the n row blocks x_f of
    [n*m x c] x, giving [m x c]; op is np.add or np.multiply.

    One block is x itself, with nothing recorded. A product's backward gives
    block f the suffix product of dout and the blocks after f times the
    prefix product of the blocks before f, each built in fold order.
    """
    if op is not np.add and op is not np.multiply:
        raise ConfigError(f"fold_rows op must be np.add or np.multiply, got {op!r}")
    if n < 1:
        raise ConfigError(f"fold_rows needs one or more row blocks, got {n}")
    if x.shape[0] % n:
        raise ShapeError(f"{x.shape[0]} rows do not split into {n} blocks")
    if n == 1:
        return x
    shape = (n, x.shape[0] // n, x.shape[1])
    blocks = x.data.reshape(shape)
    prefix = list(itertools.accumulate(blocks, op))
    out = Tensor(prefix[-1])

    def bwd(dout):
        if op is np.add:
            return (np.tile(dout, (n, 1)),)
        dx = np.empty_like(x.data)
        grads = dx.reshape(shape)
        for f in range(n - 1, 0, -1):
            np.multiply(dout, prefix[f - 1], out=grads[f])
            dout = dout * blocks[f]
        grads[0] = dout
        return (dx,)

    return _emit(tape, out, (x,), bwd)


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
        raise ConfigError(f"elementwise op must be 'add' or 'mul', got {op!r}")
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


def _summed(arrays):
    """Grid calls' float64 arrays added in order, each sum over the later one."""
    return functools.reduce(lambda total, a: np.add(total, a, out=a), arrays)


def basis_expand(tape, x: Tensor, w: Tensor, *grids, scaler=None) -> Tensor:
    """(The summed grid expansion of [m x d]) @ w, giving [m x o].

    Each input expands to the sum of its basis vectors on one or more grids
    of one size nb (BSplineGrid, RBFGrid), and a row to its d inputs' in turn:
    [1 x d*nb], matching the row layout of the spline weight matrices, so w
    is [d*nb x o]. A [d x o] ``scaler`` multiplies row i*nb + j of w by its
    row i once per call: the bits of w times ``repeat_rows(scaler, nb)``
    elementwise, and of its grads. Rows are expanded in the fewest blocks of
    at most BLOCK // (d*nb) of them (at least one), split evenly: the grids'
    float64 values are added in grid order and cast to float32 once, and the
    block times the weights fills the block's output rows.
    Without a tape only one block's expansion exists at a time. With one, if
    w or the scaler requires grad, the blocks fill one [m x d*nb] expansion,
    whose transpose times dout is the weights' gradient; if x requires grad,
    each block keeps its grids' float64 derivatives, from its values pass
    and summed the same way, for dx.
    """
    if not grids or any(g.num_basis != grids[0].num_basis for g in grids):
        raise ShapeError("basis_expand sums one or more grids of one size, got sizes "
                         f"{[g.num_basis for g in grids]}")
    m, d = x.shape
    nb, o = grids[0].num_basis, w.shape[1]
    if w.shape[0] != d * nb:
        raise ShapeError(f"basis_expand of {d} features with {nb} basis functions each "
                         f"needs {d * nb} rows of w, got {w.shape}")
    if scaler is not None and scaler.shape != (d, o):
        raise ShapeError(f"basis_expand's scaler needs one row per feature, {(d, o)}, "
                         f"got {scaler.shape}")
    inputs = (x, w) if scaler is None else (x, w, scaler)
    weights = (w.data if scaler is None
               else (w.data.reshape(d, nb, o) * scaler.data[:, None, :]).reshape(d * nb, o))
    blocks = _row_blocks(m, d * nb)
    grad_x = tape is not None and x.requires_grad
    expansion = (np.empty((m, d * nb), dtype=np.float32)
                 if tape is not None and any(t.requires_grad for t in inputs[1:]) else None)
    derivs = []  # per block, if x requires grad: its summed derivatives
    out = np.empty((m, o), dtype=np.float32)
    for a, b in blocks:
        xb = x.data[a:b]
        flat = xb.reshape(-1).astype(np.float64)
        if grad_x:
            values, dvalues = map(_summed, zip(*(g.values_and_derivs(flat) for g in grids)))
            derivs.append(dvalues)
        else:
            values = _summed(g.values(flat) for g in grids)
        # allocated after the grid calls, so that it is not live during them
        block = (np.empty((len(xb), d * nb), dtype=np.float32) if expansion is None
                 else expansion[a:b])
        block.reshape(-1, nb)[...] = values
        np.matmul(block, weights, out=out[a:b])
        del values, block  # not held through the next block's grid calls
    out = Tensor(out)

    def bwd(dout):
        dx = np.empty((m, d), dtype=np.float32) if grad_x else None
        for (a, b), dvalues in zip(blocks, derivs):
            dexp = (dout[a:b] @ weights.T).reshape(-1, nb)
            dx[a:b].reshape(-1)[...] = np.einsum("ij,ij->i", dexp, dvalues)
        if expansion is None:
            return (dx,) + (None,) * (len(inputs) - 1)
        dweights = expansion.T @ dout
        if scaler is None:
            return dx, dweights
        dw = dweights.reshape(d, nb, o) * scaler.data[:, None, :]
        return dx, dw.reshape(d * nb, o), (dweights * w.data).reshape(d, nb, o).sum(axis=1)

    return _emit(tape, out, inputs, bwd)


def repeat_rows(tape, s: Tensor, k: int) -> Tensor:
    """Repeat each row k times: [r x c] -> [r*k x c].

    No model calls it: it is the tests' reference for basis_expand's
    ``scaler``, and perfbench's tracer wraps it by name.
    """
    out = Tensor(np.repeat(s.data, k, axis=0))
    r, c = s.shape

    def bwd(dout):
        return (dout.reshape(r, k, c).sum(axis=1),)

    return _emit(tape, out, (s,), bwd)
