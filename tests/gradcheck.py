"""Finite-difference oracles shared by the op, model and acceptance tests.

Three comparison styles:

* per-element: max_i |g_i - fd_i| / (|fd_i| + 1e-6); used for ops whose test
  losses are built to keep every gradient component O(0.1) or larger, since
  float32 forward noise puts a floor of roughly 1e-4 under each fd entry.
* vector: max_i |g_i - fd_i| / (max_i |fd_i| + 1e-6); used for whole-model
  checks where some components are legitimately tiny.
* scaled: |g_i - fd_i| <= rtol |fd_i| + gtol max|g| with the max over the
  whole model; used for random models, where a whole parameter tensor can
  hold only roundoff-sized gradients.
"""

import numpy as np

from fckan.tensor import Tape, Tensor, elementwise, softmax_cross_entropy, sum_all


def fd_grad(loss_fn, tensor, eps=1e-3):
    """Central differences of a scalar-returning loss_fn w.r.t. tensor.data."""
    return fd_at(loss_fn, tensor, range(tensor.data.size), eps).reshape(tensor.data.shape)


def fd_at(loss_fn, tensor, flat_indices, eps=1e-3):
    """Central differences w.r.t. the elements of tensor.data at flat_indices."""
    flat = tensor.data.ravel()
    fd = np.zeros(len(flat_indices), dtype=np.float64)
    for n, i in enumerate(flat_indices):
        orig = flat[i]
        flat[i] = orig + eps
        lp = loss_fn()
        flat[i] = orig - eps
        lm = loss_fn()
        flat[i] = orig
        fd[n] = (lp - lm) / (2.0 * eps)
    return fd


def analytic_grads(loss_builder, tensors):
    """Backward once through loss_builder(tape); returns grads per tensor."""
    for t in tensors:
        t.zero_grad()
    tape = Tape()
    loss = loss_builder(tape)
    tape.backward(loss)
    return [t.grad.copy() for t in tensors]


def rel_elementwise(g, fd):
    return float(np.max(np.abs(g - fd) / (np.abs(fd) + 1e-6)))


def rel_vector(g, fd):
    return float(np.max(np.abs(g - fd)) / (np.max(np.abs(fd)) + 1e-6))


def check_grads(loss_builder, tensors, eps=1e-3, tol=1e-2, metric="element"):
    """Assert analytic grads of loss_builder match finite differences.

    loss_builder(tape) must rebuild the forward pass from scratch on every
    call; with tape=None it runs in inference mode for the FD probes.
    """
    grads = analytic_grads(loss_builder, tensors)
    rel = rel_elementwise if metric == "element" else rel_vector
    worst = 0.0
    for t, g in zip(tensors, grads):
        fd = fd_grad(lambda: loss_builder(None).item(), t, eps=eps)
        worst = max(worst, rel(g.astype(np.float64), fd))
    assert worst < tol, f"gradient mismatch: {worst:.5f} >= {tol}"
    return worst


def weighted_sum(tape, out, weights):
    """sum(out * R) for a fixed random R; keeps fd components well away
    from zero so the per-element metric is meaningful under float32."""
    return sum_all(tape, elementwise(tape, "mul", out, Tensor(weights)))


def _model_loss(model, X, y):
    """loss_builder(tape) of the model's mean cross-entropy on (X, y)."""

    def loss_builder(tape):
        return softmax_cross_entropy(tape, model.forward(Tensor(X), tape=tape), y)

    return loss_builder


def check_model_grads(model, X, y, eps_ladder=(1e-3, 3e-3, 1e-2, 3e-2), tol=1e-2):
    """Vector-metric FD check of d(loss)/d(param) for every parameter.

    Small steps drown tiny gradients in float32 roundoff while large steps
    add truncation error at relu kinks, so each parameter may match at a
    different step size; it must match at one of them.
    """
    loss_builder = _model_loss(model, X, y)
    grads = analytic_grads(loss_builder, [p.tensor for p in model.params])
    worst = 0.0
    for p, g in zip(model.params, grads):
        best = np.inf
        for eps in eps_ladder:
            fd = fd_grad(lambda: loss_builder(None).item(), p.tensor, eps=eps)
            best = min(best, rel_vector(g.astype(np.float64), fd))
            if best < tol:
                break
        assert best < tol, f"{p.name}: gradient mismatch {best:.5f} >= {tol}"
        worst = max(worst, best)
    return worst


def check_model_grads_scaled(model, X, y, rng, sample=16,
                             eps_ladder=(1e-3, 3e-3, 1e-2, 3e-2), rtol=1e-2, gtol=3e-3):
    """Per-element FD check of every parameter against a model-wide scale.

    Up to ``sample`` elements of each parameter, drawn with rng, must satisfy
    |g - fd| <= rtol * |fd| + gtol * G, where G is the largest analytic
    gradient element of the whole model, at one step of the ladder per
    parameter. The G term forgives gradients too small for float32
    differences to resolve, such as those upstream of a narrow layer norm,
    whose output barely depends on its input. Sampling keeps a random model
    to a few hundred forward passes instead of several thousand.
    """
    loss_builder = _model_loss(model, X, y)
    grads = analytic_grads(loss_builder, [p.tensor for p in model.params])
    scale = max(float(np.abs(g).max()) for g in grads)
    for p, g in zip(model.params, grads):
        idx = rng.choice(g.size, size=min(g.size, sample), replace=False)
        g = g.ravel()[idx].astype(np.float64)
        worst = np.inf
        for eps in eps_ladder:
            fd = fd_at(lambda: loss_builder(None).item(), p.tensor, idx, eps)
            worst = min(worst, float(np.max(np.abs(g - fd) - rtol * np.abs(fd))))
            if worst <= gtol * scale:
                break
        assert worst <= gtol * scale, (
            f"{p.name}: |g - fd| exceeds {rtol} |fd| by {worst:.3g} > {gtol} * {scale:.3g}"
        )
