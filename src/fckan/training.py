"""Experiment engine: AdamW, exponential LR decay, training loop, metrics.

One run is fully determined by (model seed, data seed): initialization,
shuffling and every update are seeded, so identical configs reproduce
bit-identical losses. The wall time recorded for a run covers the whole
loop including the per-epoch validation passes.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .data import DatasetSplit, batch_iter, load_dataset
from .models import Model, ModelConfig, build_model
from .tensor import Tape, Tensor, softmax_cross_entropy


class TrainingDiverged(RuntimeError):
    """Non-finite loss or gradient encountered."""


def default_epochs(dataset: str) -> int:
    return 35 if dataset == "fashion-mnist" else 25


@dataclass(frozen=True)
class TrainConfig:
    dataset: str = "mnist"
    epochs: int | None = None  # None resolves to 25 (mnist) / 35 (fashion-mnist)
    batch_size: int = 64
    lr0: float = 1e-3
    gamma: float = 0.8
    weight_decay: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    runs: int = 3
    seeds: tuple = (0, 1, 2)

    def __post_init__(self):
        if self.epochs is None:
            object.__setattr__(self, "epochs", default_epochs(self.dataset))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if len(self.seeds) < self.runs:
            raise ValueError(f"{self.runs} runs need {self.runs} seeds, got {self.seeds}")

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "lr0": self.lr0,
            "gamma": self.gamma,
            "weight_decay": self.weight_decay,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "adam_eps": self.adam_eps,
            "runs": self.runs,
            "seeds": list(self.seeds),
        }


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
        return {
            "seed": self.seed,
            "train_loss": self.train_loss,
            "train_acc": self.train_acc,
            "val_acc": self.val_acc,
            "final_val_acc": self.final_val_acc,
            "final_f1": self.final_f1,
            "final_train_acc": self.final_train_acc,
            "wall_seconds": self.wall_seconds,
        }


@dataclass
class AggregateMetrics:
    """Mean and sample standard deviation over a set of runs."""

    runs: int
    train_acc_mean: float
    train_acc_std: float
    val_acc_mean: float
    val_acc_std: float
    f1_mean: float
    f1_std: float
    wall_seconds_mean: float

    def to_dict(self) -> dict:
        return {
            "runs": self.runs,
            "train_acc": {"mean": self.train_acc_mean, "std": self.train_acc_std},
            "val_acc": {"mean": self.val_acc_mean, "std": self.val_acc_std},
            "f1": {"mean": self.f1_mean, "std": self.f1_std},
            "wall_seconds_mean": self.wall_seconds_mean,
        }


def lr_schedule(epoch: int, lr0: float, gamma: float) -> float:
    """Exponential decay applied at epoch boundaries: lr0 * gamma^epoch."""
    return lr0 * gamma**epoch


def adamw_step(theta, grad, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8,
               weight_decay=0.0):
    """One AdamW update in place; t is the 1-based step count.

    Weight decay is decoupled: theta shrinks by lr * wd * theta before the
    bias-corrected Adam step. Arithmetic follows the array dtype.
    """
    if weight_decay:
        theta *= 1.0 - lr * weight_decay
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    theta -= lr * m_hat / (np.sqrt(v_hat) + eps)


class AdamW:
    """Decoupled-weight-decay Adam over a model's parameter list.

    Decay only touches parameters flagged for it (linear and spline weights,
    not layer-norm affines). Gradients accumulate additively across backward
    sweeps; the caller zeroes them between steps.
    """

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0):
        self.params = list(params)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros_like(p.tensor.data) for p in self.params]
        self._v = [np.zeros_like(p.tensor.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.tensor.zero_grad()

    def step(self, lr: float):
        self.t += 1
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.tensor.grad
            if g is None:
                continue
            if not np.isfinite(g).all():
                raise TrainingDiverged(f"non-finite gradient in parameter {p.name}")
            adamw_step(
                p.tensor.data, g, m, v, self.t, lr,
                beta1=self.beta1, beta2=self.beta2, eps=self.eps,
                weight_decay=self.weight_decay if p.decay else 0.0,
            )


def classification_metrics(preds, labels, num_classes=None):
    """(accuracy %, macro F1 %) from predicted and true labels.

    Per-class F1 = 2TP / (2TP + FP + FN), taken as 0 when the denominator
    vanishes; the macro average is unweighted over all classes.
    """
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if num_classes is None:
        num_classes = int(max(preds.max(), labels.max())) + 1
    acc = float((preds == labels).mean() * 100.0)
    f1s = np.zeros(num_classes)
    for c in range(num_classes):
        tp = int(np.sum((preds == c) & (labels == c)))
        fp = int(np.sum((preds == c) & (labels != c)))
        fn = int(np.sum((preds != c) & (labels == c)))
        denom = 2 * tp + fp + fn
        f1s[c] = 2.0 * tp / denom if denom else 0.0
    return acc, float(f1s.mean() * 100.0)


def evaluate(model: Model, split: DatasetSplit, batch_size: int = 1000):
    """(accuracy %, macro F1 %) of the model on a split, without recording."""
    preds = np.empty(split.n, dtype=np.int64)
    for start in range(0, split.n, batch_size):
        stop = min(start + batch_size, split.n)
        logits = model.forward(Tensor(split.images[start:stop]), tape=None)
        preds[start:stop] = logits.data.argmax(axis=1)
    return classification_metrics(preds, split.labels, model.config.widths[-1])


def train_model(model_cfg: ModelConfig, train_cfg: TrainConfig,
                splits=None, data_dir=None, log=None) -> RunMetrics:
    """Train one run and return its metrics.

    ``splits`` short-circuits dataset loading (pass (train, val)); otherwise
    the dataset named in train_cfg is loaded from data_dir.
    """
    if splits is None:
        splits = load_dataset(train_cfg.dataset, data_dir)
    train, val = splits
    seed = model_cfg.seed
    model = build_model(model_cfg)
    opt = AdamW(
        model.params,
        beta1=train_cfg.beta1,
        beta2=train_cfg.beta2,
        eps=train_cfg.adam_eps,
        weight_decay=train_cfg.weight_decay,
    )
    metrics = RunMetrics(seed=seed)
    t0 = time.perf_counter()
    val_f1 = None
    for epoch in range(train_cfg.epochs):
        lr = lr_schedule(epoch, train_cfg.lr0, train_cfg.gamma)
        loss_sum = 0.0
        correct = 0
        for b, (xb, yb) in enumerate(
            batch_iter(train, train_cfg.batch_size, seed=(seed, epoch), shuffle=True)
        ):
            tape = Tape()
            logits = model.forward(Tensor(xb), tape=tape)
            loss = softmax_cross_entropy(tape, logits, yb)
            lv = loss.item()
            if not np.isfinite(lv):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}, batch {b}")
            opt.zero_grad()
            tape.backward(loss)
            opt.step(lr)
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
    if val_f1 is None:  # zero-epoch run: evaluate the untrained model once
        metrics.final_val_acc, metrics.final_f1 = evaluate(model, val)
    else:
        metrics.final_val_acc, metrics.final_f1 = metrics.val_acc[-1], val_f1
    metrics.wall_seconds = time.perf_counter() - t0
    return metrics


def run_experiment(model_cfg: ModelConfig, train_cfg: TrainConfig,
                   splits=None, data_dir=None, log=None):
    """Train train_cfg.runs seeds sequentially; returns (runs, aggregate)."""
    if splits is None:
        splits = load_dataset(train_cfg.dataset, data_dir)
    runs = []
    for seed in train_cfg.seeds[: train_cfg.runs]:
        cfg = replace(model_cfg, seed=seed)
        if log:
            log(f"--- run with seed {seed}")
        runs.append(train_model(cfg, train_cfg, splits=splits, log=log))
    return runs, aggregate_runs(runs)


def _mean_std(values):
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, std


def aggregate_runs(runs) -> AggregateMetrics:
    """Mean and sample std (n-1 denominator) across runs."""
    if not runs:
        raise ValueError("aggregate_runs needs at least one run")
    ta = _mean_std([r.final_train_acc for r in runs])
    va = _mean_std([r.final_val_acc for r in runs])
    f1 = _mean_std([r.final_f1 for r in runs])
    wall = float(np.mean([r.wall_seconds for r in runs]))
    return AggregateMetrics(
        runs=len(runs),
        train_acc_mean=ta[0], train_acc_std=ta[1],
        val_acc_mean=va[0], val_acc_std=va[1],
        f1_mean=f1[0], f1_std=f1[1],
        wall_seconds_mean=wall,
    )
