"""End-to-end training and inference benchmark for fckan.

    python3 perfbench/run.py --workload train-fckan --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory, never from an installed copy. Each run
generates synthetic MNIST-shaped IDX files from ``--seed`` (see synth.py),
then times set-up (import, ``load_dataset``, ``build_model`` or
``load_model``) several times, then runs whole rounds of the workload's
operations until ``--seconds`` of timed work have passed, checking every
round's outputs against the float64 reference in reference.py. Checks run
outside the timed intervals.

Workloads (operations are training steps or inference batches):

  train-fckan   train_model on fc-kan, sin/cos/arctan/relu by product
  train-spline  train_model on efficient-kan, then on fast-kan
  infer         load_model checkpoints, forward-only evaluate of fc-kan and
                efficient-kan at the program's batch size of 1000

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the program's public functions
are wrapped (tracing.py) and the metrics are per-layer, also written with
run metadata to ``perfbench/out/trace-<workload>-<seed>.json``.
"""

import argparse
import ctypes
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import synth  # noqa: E402
from tracing import COUNT_SPAN, Tracer  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"
OUT = HERE / "out"

WORKLOADS = ("train-fckan", "train-spline", "infer")
BATCH = 64  # the paper's training batch size
EVAL_BATCH = 1000  # evaluate's default batch size
CHECK_N = 64  # rows on which losses (and untrained logits) are checked
MMAP_THRESHOLD = 16 << 20


@dataclass(frozen=True)
class Sizes:
    """How much work one round and one set-up do."""

    setup_reps: int = 3
    fckan_steps: int = 100  # training steps per round, fc-kan
    ekan_steps: int = 32  # efficient-kan: ~2x fast-kan's step time
    fastkan_steps: int = 64
    val_n: int = 128  # validation split handed to train_model
    grad_n: int = 32  # rows of the gradient check batch
    # fc-kan samples evaluated per round, against one efficient-kan batch of
    # EVAL_BATCH: an fc-kan batch of 1000 takes about 1/35 of an efficient-kan
    # one, so 30 batches give the two models similar shares of the time
    infer_fckan_n: int = 30000
    pretrain_steps: int = 32  # training of the checkpoints infer loads


class Program:
    """The fckan modules, imported from the checkout's ``src``."""

    def __init__(self):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        t0 = time.perf_counter()
        import fckan.data
        import fckan.kernels
        import fckan.models
        import fckan.tensor
        import fckan.training

        self.import_s = time.perf_counter() - t0
        if not Path(fckan.__file__).resolve().is_relative_to(SRC.resolve()):
            raise FileNotFoundError(f"fckan was imported from {fckan.__file__}, not {SRC}")
        self.data, self.models, self.training = fckan.data, fckan.models, fckan.training
        self.tensor, self.kernels = fckan.tensor, fckan.kernels


class Capture:
    """Keeps the model that ``train_model`` builds, so its outputs can be
    checked, and counts the training rows its batches hand out."""

    def __init__(self, training):
        self.training, self.model, self.rows = training, None, 0
        self.build, self.batch_iter = training.build_model, training.batch_iter
        training.build_model, training.batch_iter = self._build, self._batch_iter

    def _build(self, config):
        self.model = self.build(config)
        return self.model

    def _batch_iter(self, *args, **kwargs):
        for xb, yb in self.batch_iter(*args, **kwargs):
            self.rows += len(yb)
            yield xb, yb

    def close(self):
        self.training.build_model, self.training.batch_iter = self.build, self.batch_iter


def blas_threads():
    """OpenBLAS's thread count, read from the loaded library; 0 if unknown."""
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return 0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pin_mmap_threshold():
    """Pin glibc's mmap threshold at 16 MiB and its trim threshold at 32 MiB.

    By default glibc raises the mmap threshold whenever it frees a mapped
    block, so whether a block of a few MB is mapped or carved from the heap,
    and with it the peak RSS, depends on allocation history: 652-704 MB
    across seeds on infer. At 32 MiB the 31 MB validation images could still
    land on the heap and stay there, now and then adding 32 MB to the peak.
    At 16 MiB the peak repeats to within 1%. The trim threshold stays at
    twice the mmap threshold, as in glibc's dynamic rule; left at its
    128 KiB default, the heap is returned and faulted back in on every step.
    Returns the threshold set, 0 where the C library has no mallopt.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return 0
    M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
    ok = libc.mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD) == 1
    ok &= libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
    return MMAP_THRESHOLD if ok else 0


def model_plan(workload, seed, sizes, ModelConfig):
    """[(config, steps or samples per round)] for the workload's models."""
    fckan = ModelConfig("fc-kan", functions=("sin", "cos", "arctan", "relu"),
                        combine="product", seed=seed)
    if workload == "train-fckan":
        return [(fckan, sizes.fckan_steps)]
    if workload == "train-spline":
        return [(ModelConfig("efficient-kan", seed=seed), sizes.ekan_steps),
                (ModelConfig("fast-kan", seed=seed), sizes.fastkan_steps)]
    return [(fckan, sizes.infer_fckan_n), (ModelConfig("efficient-kan", seed=seed), EVAL_BATCH)]


def tape_grads(t, model, X, y):
    """{(layer index, name): float64 gradient} of the mean cross-entropy, from the tape."""
    tape = t.Tape()
    loss = t.softmax_cross_entropy(tape, model.forward(t.Tensor(X), tape=tape), y)
    tape.backward(loss)
    grads = {}
    for li, layer in enumerate(model.layers):
        for name, tensor in layer.items():
            if tensor.grad is None:
                raise ref.CheckFailed(f"layer{li}.{name} got no gradient")
            grads[(li, name)] = tensor.grad.astype(np.float64)
            tensor.zero_grad()
    return grads


class Run:
    """One benchmark run: set-up, timed rounds, checks, metrics."""

    def __init__(self, workload, seed, seconds, trace, sizes=Sizes()):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload, self.seed, self.seconds, self.sizes = workload, seed, seconds, sizes
        self.tracer = Tracer() if trace else None
        self.attempted = self.failed = self.samples = 0
        self.timed = 0.0
        self.timed_by_kind = {}  # model kind -> timed seconds
        self.rss_mb = {}  # ru_maxrss at points of set-up
        self.problems = []  # failed checks that no operation accounts for
        self.round_problems = []

    # -- phases -------------------------------------------------------------

    def execute(self):
        CACHE.mkdir(exist_ok=True)
        data_dir = synth.write_dataset(self.seed, str(CACHE / "idx"))
        p = self.p = Program()
        if self.tracer:
            self.tracer.install()
        self.capture = Capture(p.training)
        try:
            self.plan = model_plan(self.workload, self.seed, self.sizes, p.models.ModelConfig)
            self.set_up(data_dir)
            self.check_models_before()
            if self.workload == "infer":
                self.run_infer()
            else:
                self.run_training()
                self.check_checkpoints_after()
            self.peak_rss_mb = peak_rss_mb()
        finally:
            self.capture.close()
            if self.tracer:
                self.tracer.uninstall()

    def set_up(self, data_dir):
        p, paths = self.p, []
        if self.workload == "infer":
            saved = self.pretrain(data_dir)
            for i, model in enumerate(saved):
                paths.append(CACHE / f"{self.workload}-{i}.fckn")
                p.models.save_model(model, paths[-1])
        times = []
        for rep in range(self.sizes.setup_reps):
            # drop the last set-up's data before loading again
            train = val = models = self.train = self.val = self.models = None
            self._phase("setup")
            t0 = time.perf_counter()
            train, val = p.data.load_dataset("mnist", data_dir)
            if self.workload == "infer":
                models = [p.models.load_model(path) for path in paths]
            else:
                models = [p.models.build_model(cfg) for cfg, _ in self.plan]
            times.append(time.perf_counter() - t0)
            self._phase(None)
            self.train, self.val, self.models = train, val, models
            if rep == 0:
                self.rss_mb["after_load"] = peak_rss_mb()
                # regenerated chunk by chunk, so the check holds no copy of a split
                self._check(ref.check_idx, train, *synth.generate_split(self.seed, "train"))
                self._check(ref.check_idx, val, *synth.generate_split(self.seed, "val"))
                self.rss_mb["after_idx_check"] = peak_rss_mb()
            if self.workload == "infer":
                for i, (a, b) in enumerate(zip(saved, models)):
                    self._check(ref.check_checkpoint, a, b, f"checkpoint {i}")
        self.setup_s = p.import_s + statistics.median(times)

    def pretrain(self, data_dir):
        """Briefly trained models of the plan, for infer to load from checkpoints."""
        p, n = self.p, self.sizes.pretrain_steps * BATCH
        train, val = p.data.load_dataset("mnist", data_dir)
        tcfg = p.training.TrainConfig(dataset="mnist", epochs=1, runs=1, seeds=(self.seed,))
        splits = (p.data.DatasetSplit(train.images[:n], train.labels[:n], "pretrain"),
                  p.data.DatasetSplit(val.images[:BATCH], val.labels[:BATCH], "preval"))
        models = []
        for cfg, _ in self.plan:
            p.training.train_model(cfg, tcfg, splits=splits)
            models.append(self.capture.model)
        return models

    def check_models_before(self):
        """Logits and tape gradients of the untrained (or loaded) models."""
        rng = np.random.default_rng([self.seed, 3])
        X = self.val.images[:CHECK_N]
        Xg = self.train.images[: self.sizes.grad_n]
        yg = self.train.labels[: self.sizes.grad_n]
        for model in self.models:
            what = f"{model.config.kind} before timing"
            layers = ref.params64(model)
            self._check(ref.check_logits, self.logits(model, X), ref.forward(model.config, layers, X), what)
            self._check(ref.check_gradients, model.config, layers, tape_grads(self.p.tensor, model, Xg, yg),
                        Xg, yg, rng, what)

    def run_training(self):
        p, s = self.p, self.sizes
        tcfg = p.training.TrainConfig(dataset="mnist", epochs=1, runs=1, seeds=(self.seed,))
        val = p.data.DatasetSplit(self.val.images[: s.val_n], self.val.labels[: s.val_n], "val")
        init_loss = {}
        self.trained = [None] * len(self.plan)
        r = 0
        while self.timed < self.seconds:
            for i, (cfg, steps) in enumerate(self.plan):
                n = steps * BATCH
                k = r % (self.train.n // n)
                rows = slice(k * n, (k + 1) * n)
                sub = p.data.DatasetSplit(self.train.images[rows], self.train.labels[rows], f"train[{k}]")
                self.capture.model, self.capture.rows = None, 0
                metrics, error = self._timed(cfg.kind, p.training.train_model, cfg, tcfg,
                                             splits=(sub, val))
                rows = self.capture.rows
                self.attempted += steps
                self.samples += rows
                if (i, k) not in init_loss:
                    init_loss[(i, k)] = self.ref_loss(self.models[i], sub)
                model = self.capture.model
                self.trained[i] = model
                self._round_check(steps, self.check_trained, error, metrics, model, cfg, val, sub,
                                  rows, init_loss[(i, k)])
            r += 1

    def check_trained(self, error, metrics, model, cfg, val, sub, rows, loss_before):
        what = f"{cfg.kind} round"
        if error is not None:
            raise ref.CheckFailed(f"{what}: train_model raised {error!r}")
        if rows != sub.n:
            raise ref.CheckFailed(f"{what}: train_model drew {rows} training rows, not {sub.n}")
        if model is None or model.config != cfg:
            raise ref.CheckFailed(f"{what}: train_model did not build the configured model")
        ref.check_finite(model, what)
        if not (len(metrics.train_loss) == 1 and math.isfinite(metrics.train_loss[0])):
            raise ref.CheckFailed(f"{what}: train loss {metrics.train_loss}")
        want = ref.forward(cfg, ref.params64(model), val.images)
        got = self.logits(model, val.images)  # one batch, as in train_model's evaluate
        ref.check_logits(got, want, what)
        ref.check_metrics(metrics.final_val_acc, metrics.final_f1, want, val.labels, what, got)
        ref.check_loss_falls(loss_before, self.ref_loss(model, sub), what)

    def run_infer(self):
        """Each round evaluates every model on its n samples, in slices of the
        validation split of min(n, split size), cycling through the slices:
        fc-kan takes the whole split three times, efficient-kan the next
        1,000 samples."""
        p, val = self.p, self.val
        expected = {}
        r = 0
        while self.timed < self.seconds:
            for i, (model, (cfg, n)) in enumerate(zip(self.models, self.plan)):
                size = min(n, val.n)
                calls = n // size
                for j in range(calls):
                    k = (r * calls + j) % (val.n // size)
                    rows = slice(k * size, (k + 1) * size)
                    split = p.data.DatasetSplit(val.images[rows], val.labels[rows], f"val[{k}]")
                    result, error = self._timed(cfg.kind, p.training.evaluate, model, split)
                    batches = math.ceil(size / EVAL_BATCH)
                    self.attempted += batches
                    self.samples += size
                    if (i, k) not in expected:
                        expected[(i, k)] = self.expected_logits(model, split)
                    self._round_check(batches, self.check_evaluated, error, result, *expected[(i, k)],
                                      split, cfg)
            r += 1

    def expected_logits(self, model, split):
        """Reference logits, plus the program's where near-ties need them."""
        want = ref.forward(model.config, ref.params64(model), split.images)
        got = None
        if ref.tied_rows(want)[0].size:  # same batches as evaluate
            got = np.concatenate([self.logits(model, split.images[i : i + EVAL_BATCH])
                                  for i in range(0, split.n, EVAL_BATCH)])
        return want, got

    def check_evaluated(self, error, result, want, got, split, cfg):
        what = f"{cfg.kind} evaluate on {split.name}"
        if error is not None:
            raise ref.CheckFailed(f"{what}: evaluate raised {error!r}")
        ref.check_metrics(result[0], result[1], want, split.labels, what, got)

    def check_checkpoints_after(self):
        for i, model in enumerate(self.trained):
            path = CACHE / f"{self.workload}-{i}.fckn"
            self.p.models.save_model(model, path)
            self._check(ref.check_checkpoint, model, self.p.models.load_model(path),
                        f"trained {model.config.kind} checkpoint")

    # -- helpers ------------------------------------------------------------

    def _phase(self, phase):
        if self.tracer:
            self.tracer.phase = phase

    def _timed(self, kind, fn, *args, **kwargs):
        """Call fn in the timed phase for a model of ``kind``; returns (result,
        exception or None)."""
        self._phase("timed")
        t0 = time.perf_counter()
        try:
            out, error = fn(*args, **kwargs), None
        except Exception as e:  # a failed operation is counted, not fatal
            out, error = None, e
        dt = time.perf_counter() - t0
        self._phase(None)
        self.timed += dt
        self.timed_by_kind[kind] = self.timed_by_kind.get(kind, 0.0) + dt
        return out, error

    def _check(self, check, *args):
        try:
            check(*args)
        except ref.CheckFailed as e:
            self.problems.append(str(e))

    def _round_check(self, ops, check, *args):
        try:
            check(*args)
        except ref.CheckFailed as e:
            self.failed += ops
            self.round_problems.append(str(e))

    def logits(self, model, X):
        return model.forward(self.p.tensor.Tensor(X), tape=None).data

    def ref_loss(self, model, split):
        X, y = split.images[:CHECK_N], split.labels[:CHECK_N]
        return ref.cross_entropy(ref.forward(model.config, ref.params64(model), X), y)

    # -- results ------------------------------------------------------------

    def meta(self):
        return {
            "workload": self.workload,
            "seed": self.seed,
            "kernel_backend": self.p.kernels.backend(),
            "blas_threads": blas_threads(),
            "nproc": os.cpu_count(),
            "numpy": np.__version__,
            "timed_s": round(self.timed, 3),
            "time_share": {k: round(v / self.timed, 3) for k, v in self.timed_by_kind.items()},
            "samples": self.samples,
            "peak_rss_mb_after": {k: round(v, 1) for k, v in self.rss_mb.items()},
        }

    def end_to_end(self):
        return {
            "samples_per_s": {"value": self.samples / self.timed, "unit": "1/s"},
            "setup_s": {"value": self.setup_s, "unit": "s"},
            "peak_rss_mb": {"value": self.peak_rss_mb, "unit": "MB"},
        }

    def result(self):
        if self.tracer:
            metrics = self.tracer.metrics(self.attempted, self.sizes.setup_reps)
        else:
            metrics = self.end_to_end()
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    def trace_report(self, metrics):
        """Trace file contents: metrics plus what the README quotes."""
        totals = self.tracer.totals()
        train_s = totals[("timed", "training.train_model")][1]
        val_s = totals[("timed", "training.evaluate")][1]  # all inside train_model on train-*
        return {
            "meta": self.meta(),
            "traced_samples_per_s": self.samples / self.timed,
            "validation_share_of_train_model": val_s / train_s if train_s else 0.0,
            "spans": len(self.tracer.spans),
            "count_s_per_op": totals[("timed", COUNT_SPAN)][1] / self.attempted,
            "metrics": metrics,
        }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "fckan" / "__init__.py").is_file():
        print(f"perfbench: no fckan sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    mmap_threshold = pin_mmap_threshold()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.execute()
    out = run.result()
    meta = run.meta() | {"mmap_threshold": mmap_threshold}
    print("  ".join(f"{k} {v}" for k, v in meta.items()))
    for name, m in out["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted {out['attempted']} operations, failed {out['failed']}")
    for problem in run.problems + run.round_problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if run.tracer:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-{args.seed}.json"
        report = run.trace_report(out["metrics"])
        report["meta"] = meta
        path.write_text(json.dumps(report, indent=1))
        print(f"trace written to {path.relative_to(ROOT)}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
