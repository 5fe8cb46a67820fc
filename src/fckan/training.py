"""Experiment engine: AdamW, exponential LR decay, training loop, metrics.

One run is fully determined by (model seed, data seed): initialization,
shuffling and every update are seeded, so identical configs reproduce
bit-identical losses. The wall time recorded for a run covers the whole
loop including the per-epoch validation passes.
"""

import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .basis import ConfigError, count, is_count, real, sequence
from .data import DATASET_NAMES, DataError, DatasetSplit, batch_iter
from .models import Model, ModelConfig, build_model
from .tensor import Tape, Tensor, softmax_cross_entropy


class TrainingDiverged(RuntimeError):
    """Non-finite loss or gradient encountered."""


# AdamW's moment decay rates and denominator guard: one protocol for every model
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# Elements per AdamW update chunk: its two scratch buffers of float32 take
# 512 KiB, inside the L2 cache, where whole-array temporaries do not fit
CHUNK = 1 << 16


@dataclass(frozen=True)
class TrainConfig:
    dataset: str = "mnist"
    epochs: int | None = None  # None resolves to 25 (mnist) / 35 (fashion-mnist)
    batch_size: int = 64
    lr0: float = 1e-3
    gamma: float = 0.8
    weight_decay: float = 1e-4
    runs: int | None = None  # None resolves to len(seeds): one run per seed
    seeds: tuple = (0, 1, 2)

    def __post_init__(self):
        if self.dataset not in DATASET_NAMES:
            raise ConfigError(f"dataset must be one of {DATASET_NAMES}, got {self.dataset!r}")
        object.__setattr__(self, "seeds", sequence("seeds", self.seeds))
        if not (self.seeds and all(is_count(seed, 0) for seed in self.seeds)
                and len(set(self.seeds)) == len(self.seeds)):
            raise ConfigError("seeds must be non-negative ints, at least one, all distinct, "
                              f"got {self.seeds!r}")
        if self.epochs is None:
            object.__setattr__(self, "epochs", 35 if self.dataset == "fashion-mnist" else 25)
        object.__setattr__(self, "runs", len(self.seeds) if self.runs is None else self.runs)
        count("epochs", self.epochs, 0)
        count("batch_size", self.batch_size, 1)
        count("runs", self.runs, 1)
        real("lr0", self.lr0, 0, strict=True)
        real("gamma", self.gamma, 0, strict=True)
        real("weight_decay", self.weight_decay, 0)
        if len(self.seeds) < self.runs:
            raise ConfigError(f"{self.runs} runs need {self.runs} seeds, got {self.seeds}")

    def to_dict(self) -> dict:
        return {**asdict(self), "seeds": list(self.seeds)}


@dataclass
class RunMetrics:
    """Per-epoch trace plus final metrics of one training run."""

    seed: int
    train_loss: list = field(default_factory=list)
    train_acc: list = field(default_factory=list)  # percent
    val_acc: list = field(default_factory=list)  # percent
    final_val_acc: float = 0.0
    final_f1: float = 0.0
    wall_seconds: float = 0.0

    @property
    def final_train_acc(self) -> float:
        return self.train_acc[-1] if self.train_acc else 0.0

    def to_dict(self) -> dict:
        return {**asdict(self), "final_train_acc": self.final_train_acc}


def lr_schedule(epoch: int, lr0: float, gamma: float) -> float:
    """Exponential decay applied at epoch boundaries: lr0 * gamma^epoch."""
    return lr0 * gamma**epoch


def adamw_step(theta, grad, m, v, t, lr, weight_decay=0.0):
    """One AdamW update in place at BETA1, BETA2 and ADAM_EPS; t is the
    1-based step count.

    Weight decay is decoupled: theta shrinks by lr * wd * theta before the
    bias-corrected Adam step. Arithmetic follows the array dtype. The four
    arrays must be C-contiguous and share one shape and dtype; they are
    updated in chunks of CHUNK elements, through two scratch buffers that
    stay in cache, with the bits of one whole-array pass per expression.
    """
    arrays = (theta, grad, m, v)
    if not all(a.flags.c_contiguous and a.shape == theta.shape and a.dtype == theta.dtype
               for a in arrays):
        raise ValueError("adamw_step needs C-contiguous arrays of one shape and dtype, got "
                         f"{[(a.shape, str(a.dtype), a.flags.c_contiguous) for a in arrays]}")
    theta, grad, m, v = (a.reshape(-1) for a in arrays)  # views, as each is C-contiguous
    scratch = np.empty((2, min(theta.size, CHUNK)), dtype=theta.dtype)
    for s in range(0, theta.size, CHUNK):
        th, g, mc, vc = (a[s:s + CHUNK] for a in (theta, grad, m, v))
        step, denom = scratch[:, :th.size]
        if weight_decay:
            th *= 1.0 - lr * weight_decay
        mc *= BETA1
        mc += np.multiply(1.0 - BETA1, g, out=step)
        vc *= BETA2
        np.multiply(1.0 - BETA2, g, out=step)
        vc += np.multiply(step, g, out=step)
        np.divide(mc, 1.0 - BETA1**t, out=step)  # m_hat
        np.divide(vc, 1.0 - BETA2**t, out=denom)  # v_hat
        np.add(np.sqrt(denom, out=denom), ADAM_EPS, out=denom)
        np.multiply(lr, step, out=step)
        th -= np.divide(step, denom, out=step)


class AdamW:
    """Decoupled-weight-decay Adam over a model's parameter list.

    Decay only touches parameters flagged for it (linear and spline weights,
    not layer-norm affines). Gradients accumulate additively across backward
    sweeps; the caller zeroes them between steps.
    """

    def __init__(self, params, weight_decay=0.0):
        self.params = list(params)
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros_like(p.tensor.data) for p in self.params]
        self._v = [np.zeros_like(p.tensor.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.tensor.zero_grad()

    def step(self, lr: float):
        # every gradient is checked before the step count or any parameter changes
        grads = [p.tensor.grad for p in self.params]
        for p, g in zip(self.params, grads):
            if g is not None and not np.isfinite(g).all():
                raise TrainingDiverged(f"non-finite gradient in parameter {p.name}")
        self.t += 1
        for p, g, m, v in zip(self.params, grads, self._m, self._v):
            if g is not None:
                adamw_step(p.tensor.data, g, m, v, self.t, lr,
                           weight_decay=self.weight_decay if p.decay else 0.0)


def classification_metrics(preds, labels, num_classes: int):
    """(accuracy %, macro F1 %) from predicted and true labels.

    Per-class F1 = 2TP / (2TP + FP + FN), taken as 0 when the denominator
    vanishes; the macro average is unweighted over all classes.
    """
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    acc = float((preds == labels).mean() * 100.0)
    f1s = np.zeros(num_classes)
    for c in range(num_classes):
        tp = int(np.sum((preds == c) & (labels == c)))
        fp = int(np.sum((preds == c) & (labels != c)))
        fn = int(np.sum((preds != c) & (labels == c)))
        denom = 2 * tp + fp + fn
        f1s[c] = 2.0 * tp / denom if denom else 0.0
    return acc, float(f1s.mean() * 100.0)


EVAL_BATCH = 1000  # rows per forward pass in evaluate


def evaluate(model: Model, split: DatasetSplit, batch_size: int = EVAL_BATCH):
    """(accuracy %, macro F1 %) of the model on a split, without recording."""
    if not split.n:
        raise DataError(f"cannot evaluate on an empty split: {split.name} has 0 rows")
    preds = np.empty(split.n, dtype=np.int64)
    for start in range(0, split.n, batch_size):
        stop = min(start + batch_size, split.n)
        logits = model.forward(Tensor(split.images[start:stop]), tape=None)
        preds[start:stop] = logits.data.argmax(axis=1)
    return classification_metrics(preds, split.labels, model.config.widths[-1])


def train_step(model: Model, opt: AdamW, xb, yb, lr: float):
    """One AdamW step on the batch (xb, yb): (loss, logits) of the forward pass.

    A non-finite loss raises TrainingDiverged before the backward pass, and a
    non-finite gradient before any update: parameters, AdamW's moments and
    its step count stay as they were (after a non-finite loss, the gradients
    too).
    """
    tape = Tape()
    logits = model.forward(Tensor(xb), tape=tape)
    loss = softmax_cross_entropy(tape, logits, yb)
    lv = loss.item()
    if not math.isfinite(lv):
        raise TrainingDiverged("non-finite loss")
    opt.zero_grad()
    tape.backward(loss)
    opt.step(lr)
    return lv, logits


def train_model(model_cfg: ModelConfig, train_cfg: TrainConfig, splits,
                log=None) -> RunMetrics:
    """Train one run on ``splits`` = (train, val) and return its metrics."""
    train, val = splits
    if not (train.n and val.n):
        raise DataError(f"cannot train with an empty split: train has {train.n} rows, val {val.n}")
    seed = model_cfg.seed
    model = build_model(model_cfg)
    opt = AdamW(model.params, weight_decay=train_cfg.weight_decay)
    metrics = RunMetrics(seed=seed)
    t0 = time.perf_counter()
    for epoch in range(train_cfg.epochs):
        lr = lr_schedule(epoch, train_cfg.lr0, train_cfg.gamma)
        loss_sum = 0.0
        correct = 0
        for b, (xb, yb) in enumerate(batch_iter(train, train_cfg.batch_size, seed=(seed, epoch))):
            try:
                lv, logits = train_step(model, opt, xb, yb, lr)
            except TrainingDiverged as e:
                raise TrainingDiverged(f"{e} at epoch {epoch}, batch {b}") from e
            loss_sum += lv * len(yb)
            correct += int((logits.data.argmax(axis=1) == yb).sum())
        metrics.train_loss.append(loss_sum / train.n)
        metrics.train_acc.append(100.0 * correct / train.n)
        val_acc, val_f1 = evaluate(model, val)
        metrics.val_acc.append(val_acc)
        if log:
            log(
                f"epoch {epoch:3d}  lr {lr:.2e}  loss {metrics.train_loss[-1]:.4f}  "
                f"train {metrics.train_acc[-1]:.2f}%  val {val_acc:.2f}%"
            )
    if train_cfg.epochs == 0:  # evaluate the untrained model once
        val_acc, val_f1 = evaluate(model, val)
    metrics.final_val_acc, metrics.final_f1 = val_acc, val_f1
    metrics.wall_seconds = time.perf_counter() - t0
    return metrics


def run_experiment(model_cfg: ModelConfig, train_cfg: TrainConfig, splits,
                   log=None) -> list:
    """Train the first train_cfg.runs seeds (by default all of them)
    sequentially on ``splits``; returns their RunMetrics in seed order."""
    runs = []
    for seed in train_cfg.seeds[: train_cfg.runs]:
        cfg = replace(model_cfg, seed=seed)
        if log:
            log(f"--- run with seed {seed}")
        runs.append(train_model(cfg, train_cfg, splits=splits, log=log))
    return runs


def aggregate_runs(runs) -> dict:
    """A record's aggregate block: the run count, the mean and sample std
    (n-1 denominator) of the final train accuracy, val accuracy and F1, and
    the mean wall time."""
    if not runs:
        raise ValueError("aggregate_runs needs at least one run")
    aggregate = {"runs": len(runs)}
    for key in ("train_acc", "val_acc", "f1"):
        values = np.array([getattr(r, "final_" + key) for r in runs], dtype=np.float64)
        aggregate[key] = {"mean": float(values.mean()),
                          "std": float(values.std(ddof=1)) if values.size > 1 else 0.0}
    aggregate["wall_seconds_mean"] = float(np.mean([r.wall_seconds for r in runs]))
    return aggregate
