"""Independent float64 reference for the benchmarked models, and the checks.

Nothing here calls into ``fckan``: the forward pass, loss, B-spline and RBF
bases and classification metrics are written out again from their
definitions, in float64, so that the program's float32 outputs can be
checked against them. B-spline basis functions come from
``scipy.interpolate.BSpline``; RBFs use the Gaussian formula
exp(-((x - c) / h)^2). A model is read only through its config and the
arrays of its parameters.

Every check raises ``CheckFailed`` with a message when the program's answer
is wrong, and returns nothing otherwise.
"""

import numpy as np
from scipy.interpolate import BSpline

LN_EPS = 1e-5
# float32 logits against the float64 reference, per row:
# max|a - b| <= LOGIT_TOL * max|b|. The float32 error measures at most about
# 1.1e-6 of max|b| for all three model kinds, trained or not.
LOGIT_TOL = 2e-5
# rows whose top two reference logits are closer than this (same scale) may
# be predicted either way by a float32 forward
TIE_TOL = 1e-5
CHUNK = 250  # rows per reference forward pass, bounds float64 temporaries
IDX_ROWS = 250  # rows per loaded-image comparison, about 1.6 MB of float64
# tape gradient against central differences: per parameter tensor,
# |g - fd| <= GRAD_RTOL * |fd| + GRAD_ATOL * max|g|
GRAD_RTOL = 1e-2
GRAD_ATOL = 1e-3
FD_EPS = 1e-5


class CheckFailed(AssertionError):
    """The program's output disagrees with the independent computation."""


FUNCTIONS = {
    "relu": lambda x: np.maximum(x, 0.0),
    "sin": np.sin,
    "cos": np.cos,
    "arctan": np.arctan,
}


def silu(x):
    return x / (1.0 + np.exp(-x))


def layer_norm(x, gamma, beta):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * gamma + beta


def bspline_basis(x, grid_size, order, lo, hi):
    """[x.shape + (G + k,)] values of the uniform-grid B-spline basis.

    The knot vector extends ``order`` uniform steps beyond [lo, hi]; each
    basis function is evaluated on its whole support and is 0 outside it.
    """
    step = (hi - lo) / grid_size
    knots = lo + step * np.arange(-order, grid_size + order + 1, dtype=np.float64)
    flat = x.ravel()
    out = np.empty((flat.size, grid_size + order))
    for j in range(grid_size + order):
        b = BSpline.basis_element(knots[j : j + order + 2], extrapolate=False)
        out[:, j] = np.nan_to_num(b(flat), nan=0.0)
    return out.reshape(x.shape + (grid_size + order,))


def rbf_basis(x, grid_size, lo, hi):
    centers = np.linspace(lo, hi, grid_size)
    h = (hi - lo) / (grid_size - 1)
    return np.exp(-(((x[..., None] - centers) / h) ** 2))


def params64(model):
    """Per-layer {name: float64 array} copies of a model's parameters."""
    return [{k: t.data.astype(np.float64) for k, t in layer.items()} for layer in model.layers]


def forward(config, layers, X):
    """Float64 logits of an fc-kan, efficient-kan or fast-kan model."""
    return np.concatenate([_forward(config, layers, X[i : i + CHUNK]) for i in range(0, len(X), CHUNK)])


def _forward(config, layers, X):
    h = np.asarray(X, dtype=np.float64)
    kind = config.kind
    if kind == "fc-kan":
        outs = []
        for fn in config.functions:
            z = h
            for p in layers:
                z = FUNCTIONS[fn](layer_norm(z, p["ln_gamma"], p["ln_beta"])) @ p["weight"]
            outs.append(z)
        merged = outs[0]
        for z in outs[1:]:
            merged = merged + z if config.combine == "sum" else merged * z
        return merged
    sp = config.spline
    for p in layers:
        m, d = h.shape
        if kind == "efficient-kan":
            basis = bspline_basis(h, sp.grid_size, sp.spline_order, sp.lo, sp.hi)
            w = p["spline_weight"].reshape(d, basis.shape[-1], -1) * p["spline_scaler"][:, None, :]
            h = silu(h) @ p["base_weight"] + np.einsum("mdj,djo->mo", basis, w)
        elif kind == "fast-kan":
            hn = layer_norm(h, p["ln_gamma"], p["ln_beta"])
            basis = rbf_basis(hn, sp.grid_size, sp.lo, sp.hi)
            h = silu(hn) @ p["base_weight"] + basis.reshape(m, -1) @ p["spline_weight"]
        else:
            raise ValueError(f"no reference forward for {kind!r}")
    return h


def cross_entropy(logits, labels):
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(labels)), labels].mean())


def accuracy_macro_f1(preds, labels, classes=10):
    """(accuracy %, macro F1 %) from a confusion matrix."""
    cm = np.bincount(labels * classes + preds, minlength=classes * classes).reshape(classes, classes)
    tp = np.diag(cm).astype(np.float64)
    denom = cm.sum(axis=0) + cm.sum(axis=1)  # 2TP + FP + FN
    f1 = np.divide(2 * tp, denom, out=np.zeros(classes), where=denom > 0)
    return 100.0 * tp.sum() / len(labels), 100.0 * f1.mean()


# --- checks -----------------------------------------------------------------


def check_idx(loaded, labels_u8, image_chunks):
    """Loaded images equal the generated bytes / 255, labels equal exactly.

    ``image_chunks`` yields (start row, uint8 images) as synth.generate_split
    makes them; they are compared IDX_ROWS rows at a time, so the check holds
    only a few MB beyond the loaded split.
    """
    n = labels_u8.shape[0]
    if loaded.images.shape != (n, 784) or loaded.labels.shape != (n,):
        raise CheckFailed(f"{loaded.name}: shapes {loaded.images.shape}, {loaded.labels.shape}")
    if not np.array_equal(loaded.labels, labels_u8.astype(np.int64)):
        raise CheckFailed(f"{loaded.name}: labels differ from the generated bytes")
    seen = 0
    for start, images_u8 in image_chunks:
        flat = images_u8.reshape(len(images_u8), 784)
        for i in range(0, len(flat), IDX_ROWS):
            want = flat[i : i + IDX_ROWS] / 255.0
            got = loaded.images[start + i : start + i + len(want)]
            err = np.abs(got - want).max()
            if not err <= 2.0**-24:
                raise CheckFailed(f"{loaded.name}: pixels differ from bytes/255 by {err:.3g}")
        seen += len(flat)
    if seen != n:
        raise CheckFailed(f"{loaded.name}: {seen} generated rows checked, {n} loaded")


def check_logits(got, want, what):
    """Program logits match the reference within float32 accuracy."""
    scale = np.abs(want).max(axis=1)
    err = np.abs(np.asarray(got, dtype=np.float64) - want).max(axis=1)
    worst = int(np.argmax(err / scale))
    if not err[worst] <= LOGIT_TOL * scale[worst]:
        raise CheckFailed(
            f"{what}: logits of row {worst} differ from the float64 reference by "
            f"{err[worst]:.3g}, {err[worst] / scale[worst]:.3g} of the row's largest"
        )


def check_finite(model, what):
    for layer in model.layers:
        for name, t in layer.items():
            if not np.isfinite(t.data).all():
                raise CheckFailed(f"{what}: parameter {name} is not finite")


def check_loss_falls(before, after, what):
    if not after < before:
        raise CheckFailed(f"{what}: loss did not fall over the epoch ({before:.4f} -> {after:.4f})")


def tied_rows(ref_logits):
    """Rows whose top reference logits lie within TIE_TOL of the row's scale."""
    tol = TIE_TOL * np.abs(ref_logits).max(axis=1, keepdims=True)
    near = ref_logits >= ref_logits.max(axis=1, keepdims=True) - tol
    return np.nonzero(near.sum(axis=1) > 1)[0], near


def check_metrics(acc, f1, ref_logits, labels, what, program_logits=None):
    """(acc, f1) equal those of a confusion matrix over the reference predictions.

    A row whose top reference logits are near-tied may be predicted as any
    of them; there the program's own choice, from ``program_logits``
    computed in the same batches, is taken once it is shown to be one of them.
    """
    preds = ref_logits.argmax(axis=1)
    tied, near = tied_rows(ref_logits)
    if tied.size:
        if program_logits is None:
            raise CheckFailed(f"{what}: {tied.size} near-tied rows and no program logits")
        chosen = np.asarray(program_logits)[tied].argmax(axis=1)
        if not near[tied, chosen].all():
            raise CheckFailed(f"{what}: a near-tied row was predicted outside its tie")
        preds[tied] = chosen
    want_acc, want_f1 = accuracy_macro_f1(preds, labels)
    if not (abs(acc - want_acc) <= 1e-9 and abs(f1 - want_f1) <= 1e-9):
        raise CheckFailed(
            f"{what}: accuracy/macro-F1 {acc:.4f}/{f1:.4f} != reference "
            f"{want_acc:.4f}/{want_f1:.4f} ({tied.size} near-tied rows)"
        )


def sample_coords(grad, rng, n_random=2, n_top=1):
    """Flat indices: a few at random plus the largest-gradient ones."""
    flat = np.abs(grad).ravel()
    top = np.argsort(flat)[-n_top:]
    return np.unique(np.concatenate([rng.choice(flat.size, size=n_random), top]))


def check_gradients(config, layers, grads, X, labels, rng, what):
    """Tape gradients match central differences of the reference loss.

    ``grads`` maps (layer index, name) to the program's gradient array.
    """
    for (li, name), g in grads.items():
        p = layers[li][name]
        scale = np.abs(g).max()
        for idx in sample_coords(g, rng):
            pos = np.unravel_index(idx, p.shape)
            old = p[pos]
            p[pos] = old + FD_EPS
            up = cross_entropy(forward(config, layers, X), labels)
            p[pos] = old - FD_EPS
            down = cross_entropy(forward(config, layers, X), labels)
            p[pos] = old
            fd = (up - down) / (2 * FD_EPS)
            if not abs(g[pos] - fd) <= GRAD_RTOL * abs(fd) + GRAD_ATOL * scale:
                raise CheckFailed(
                    f"{what}: d loss / d layer{li}.{name}{list(pos)} is {g[pos]:.6g} "
                    f"on the tape, {fd:.6g} by central differences"
                )


def check_checkpoint(saved, loaded, what):
    """A model read back from its checkpoint is bit-identical to the original."""
    if loaded.config.to_dict() != saved.config.to_dict():
        raise CheckFailed(f"{what}: config changed in the checkpoint round trip")
    if len(saved.layers) != len(loaded.layers):
        raise CheckFailed(f"{what}: layer count changed in the round trip")
    for a, b in zip(saved.layers, loaded.layers):
        if a.keys() != b.keys():
            raise CheckFailed(f"{what}: parameter names changed")
        for name in a:
            x, y = a[name].data, b[name].data
            if x.shape != y.shape or x.dtype != y.dtype or x.tobytes() != y.tobytes():
                raise CheckFailed(f"{what}: parameter {name} changed in the round trip")
