"""Hermetic self-test of the benchmark.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Runs every workload at toy size, traced and untraced, and checks the shape
of its result; then shows that each correctness check passes on the
program's answer and fails when handed a wrong one (perturbed logits, a
swapped label, a perturbed gradient, a flipped checkpoint bit, ...).
Finally it runs the benchmark in a directory without the program and
expects a non-zero exit and no result. Needs nothing outside the repository.
"""

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

TOY = run.Sizes(setup_reps=1, fckan_steps=8, ekan_steps=4, fastkan_steps=4, val_n=64,
                grad_n=8, infer_fckan_n=1000, pretrain_steps=8)
SEED = 7
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def rejects(check, *args):
    try:
        check(*args)
    except ref.CheckFailed:
        return True
    return False


def toy_run(workload, trace):
    r = run.Run(workload, SEED, 0.01, trace, sizes=TOY)
    r.execute()
    return r, r.result()


def test_workloads_at_toy_size():
    for workload in run.WORKLOADS:
        assert workload in [w["name"] for w in SPEC["workloads"]]
        for trace in (False, True):
            r, out = toy_run(workload, trace)
            assert out["correct"], r.problems
            assert out["failed"] == 0, r.round_problems
            assert out["attempted"] >= 1
            want = SPEC["per_layer" if trace else "end_to_end"]
            assert {k: v["unit"] for k, v in out["metrics"].items()} == {
                m["name"]: m["unit"] for m in want
            }
            assert all(np.isfinite(v["value"]) for v in out["metrics"].values())
            if not trace:
                assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_layers_do_work():
    _, out = toy_run("train-spline", True)
    m = {k: v["value"] for k, v in out["metrics"].items()}
    for name in ("tensor.basis_expand.fwd_ms", "tensor.basis_expand.bwd_ms", "kernels.bspline_values_ms",
                 "kernels.rbf_derivs_ms", "training.AdamW.step_ms", "tensor.Tape.backward_ms"):
        assert m[name] > 0, name
    assert 0 < m["kernels.bspline_nonzero_frac"] < 1
    assert m["tensor.apply_unary.fwd_ms"] == 0  # no elementwise basis in the spline models


def test_wrong_evaluate_fails_operations():
    from fckan import training

    def off_by_one_sample(model, split, batch_size=1000):
        acc, f1 = original(model, split, batch_size)
        return acc + 100.0 / split.n, f1

    original = training.evaluate
    training.evaluate = off_by_one_sample
    try:
        _, out = toy_run("infer", False)
    finally:
        training.evaluate = original
    assert out["failed"] == out["attempted"] > 0


def test_truncated_training_fails_operations():
    from fckan import training

    def one_batch_short(*args, **kwargs):
        batches = list(original(*args, **kwargs))
        yield from batches[:-1]

    original = training.batch_iter
    training.batch_iter = one_batch_short
    try:
        r, out = toy_run("train-fckan", False)
    finally:
        training.batch_iter = original
    assert out["failed"] == out["attempted"] > 0
    assert r.samples * TOY.fckan_steps == out["attempted"] * (TOY.fckan_steps - 1) * run.BATCH


def test_counting_is_not_charged_to_spans():
    from tracing import COUNT_SPAN, METRICS, Tracer

    tracer = Tracer()
    slow_count = lambda tracer, args, out: time.sleep(0.05)  # noqa: E731
    inner = tracer.wrap("inner", lambda: time.sleep(0.01), slow_count)
    outer = tracer.wrap("outer", inner)
    tracer.phase = "timed"
    outer()
    totals = tracer.totals()
    assert totals[("timed", COUNT_SPAN)][1] >= 0.05
    for name in ("outer", "inner"):
        self_s, incl_s, _ = totals[("timed", name)]
        assert self_s < 0.03 and incl_s < 0.03, (name, self_s, incl_s)
    assert COUNT_SPAN not in {m[3] for m in METRICS}


def _toy_model(kind, seed=0):
    from fckan.models import ModelConfig, build_model

    fns = {"functions": ("sin", "cos", "arctan", "relu"), "combine": "product"} if kind == "fc-kan" else {}
    return build_model(ModelConfig(kind, widths=(784, 6, 10), seed=seed, **fns))


def _toy_data(n=40, seed=0):
    rng = np.random.default_rng(seed)
    X = (rng.random((n, 784)) * (rng.random((n, 784)) < 0.2)).astype(np.float32)
    return X, rng.integers(0, 10, size=n)


def test_check_logits():
    from fckan.tensor import Tensor

    X, _ = _toy_data()
    for kind in ("fc-kan", "efficient-kan", "fast-kan"):
        model = _toy_model(kind)
        got = model.forward(Tensor(X)).data
        want = ref.forward(model.config, ref.params64(model), X)
        ref.check_logits(got, want, kind)
        bad = got.copy()
        bad[3, 2] += 1e-3 * np.abs(want[3]).max()
        assert rejects(ref.check_logits, bad, want, kind)


def test_check_gradients():
    from fckan import tensor

    X, y = _toy_data(8)
    for kind in ("fc-kan", "efficient-kan", "fast-kan"):
        model = _toy_model(kind)
        grads = run.tape_grads(tensor, model, X, y)
        layers = ref.params64(model)
        rng = np.random.default_rng(0)
        ref.check_gradients(model.config, layers, grads, X, y, rng, kind)
        key = max(grads, key=lambda k: np.abs(grads[k]).max())
        g = grads[key]
        g.flat[np.argmax(np.abs(g))] *= 1.1  # the largest entry is always sampled
        assert rejects(ref.check_gradients, model.config, layers, grads, X, y, rng, kind)


def test_check_metrics():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(200, 10))
    labels = rng.integers(0, 10, size=200)
    preds = logits.argmax(axis=1)
    acc = 100.0 * (preds == labels).mean()
    f1s = []
    for c in range(10):  # per-class F1 written out by hand
        tp = np.sum((preds == c) & (labels == c))
        denom = 2 * tp + np.sum((preds == c) & (labels != c)) + np.sum((preds != c) & (labels == c))
        f1s.append(2 * tp / denom if denom else 0.0)
    f1 = 100.0 * np.mean(f1s)
    ref.check_metrics(acc, f1, logits, labels, "metrics")
    swapped = labels.copy()
    i = int(np.nonzero(preds == labels)[0][0])
    swapped[i] = (swapped[i] + 1) % 10
    assert rejects(ref.check_metrics, acc, f1, logits, swapped, "swapped label")
    assert rejects(ref.check_metrics, acc, f1 + 0.01, logits, labels, "f1")
    # a near-tie: either choice is right, a third class is not
    tied = logits.copy()
    a, b = np.argsort(tied[0])[-2:]
    tied[0, a] = tied[0, b]
    program = tied.copy()
    program[0, a] += 1e-9
    preds2 = tied.argmax(axis=1)
    preds2[0] = a
    acc2, f12 = ref.accuracy_macro_f1(preds2, labels)
    ref.check_metrics(acc2, f12, tied, labels, "tie", program)
    outside = tied.copy()
    outside[0, np.argsort(tied[0])[0]] = tied[0, b] + 1.0
    assert rejects(ref.check_metrics, acc2, f12, tied, labels, "tie", outside)
    assert rejects(ref.check_metrics, acc2, f12, tied, labels, "tie")


def test_check_idx():
    from fckan.data import DatasetSplit

    rng = np.random.default_rng(2)
    n = 2 * ref.IDX_ROWS + 30
    images = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=n).astype(np.uint8)
    split = DatasetSplit(images.reshape(n, 784).astype(np.float32) / np.float32(255),
                         labels.astype(np.int64), "toy")

    def chunks(stop=n, size=700):
        return ((i, images[i : min(i + size, stop)]) for i in range(0, stop, size))

    ref.check_idx(split, labels, chunks())
    for row in (4, n - 1):  # first and last comparison block
        split.images[row, 100] += 1.0 / 255
        assert rejects(ref.check_idx, split, labels, chunks())
        split.images[row, 100] -= 1.0 / 255
    ref.check_idx(split, labels, chunks())
    assert rejects(ref.check_idx, split, labels, chunks(stop=n - 1))
    i, j = 0, int(np.nonzero(labels != labels[0])[0][0])
    split.labels[[i, j]] = split.labels[[j, i]]
    assert rejects(ref.check_idx, split, labels, chunks())


def test_check_model_properties():
    from fckan.models import load_model, save_model

    model = _toy_model("efficient-kan")
    path = run.CACHE / "selftest.fckn"
    run.CACHE.mkdir(exist_ok=True)
    save_model(model, path)
    loaded = load_model(path)
    ref.check_checkpoint(model, loaded, "checkpoint")
    raw = loaded.layers[1]["spline_weight"].data.view(np.uint32)
    raw[0, 0] ^= 1  # one bit of one float
    assert rejects(ref.check_checkpoint, model, loaded, "checkpoint")
    other = load_model(path)
    other.config = replace(other.config, seed=1)
    assert rejects(ref.check_checkpoint, model, other, "checkpoint")
    path.unlink()
    ref.check_finite(model, "finite")
    model.layers[0]["base_weight"].data[0, 0] = np.nan
    assert rejects(ref.check_finite, model, "finite")
    ref.check_loss_falls(2.3, 1.0, "loss")
    assert rejects(ref.check_loss_falls, 1.0, 1.0, "loss")


def test_bare_directory_exits_nonzero():
    bare = run.CACHE / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(".cache", "out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "infer", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def main():
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    for name, fn in tests:
        t0 = time.perf_counter()
        fn()
        print(f"PASS {name} ({time.perf_counter() - t0:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
