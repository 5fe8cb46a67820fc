"""Acceptance gate: one test per criterion, each printing a PASS line.

Criteria 1, 5, 6 and 8 run anywhere; 2, 3, 4 and 7 train on the real datasets
and skip (with a reason) when the IDX files are absent. Criterion 7 also runs
on seeded synthetic MNIST-shaped samples, so it is checked anywhere. The
training reproductions take minutes per run on a desktop CPU.

Run `pytest tests/test_acceptance.py -v -s` to watch the checks stream by.
"""

import time

import numpy as np
import pytest

from conftest import block_digits, require_dataset, synthetic_split, take_subset
from fckan.bench import bench_suite
from fckan.cli import main
from fckan.data import batch_iter, load_dataset
from fckan.models import MODELS, ModelConfig, build_model
from fckan.tensor import Tensor
from fckan.training import (
    AdamW,
    TrainConfig,
    adamw_step,
    aggregate_runs,
    classification_metrics,
    lr_schedule,
    run_experiment,
    train_model,
    train_step,
)
from golden_trajectory import BATCH, LR, default_model
from gradcheck import check_model_grads

REFERENCE = TrainConfig()  # batch 64, lr 1e-3, gamma 0.8, wd 1e-4, 3 seeds

# wall times observed by earlier criteria, for the informational timing note
_wall = {}


def _ok(name, detail):
    print(f"ACCEPT {name}: PASS ({detail})")


# -- criterion 1: parameter counts ------------------------------------------

class TestC1ParameterCounts:
    def test_mlp_exact(self):
        assert main(["params", "--model", "mlp", "--expect", "52512",
                     "--tolerance", "0"]) == 0
        _ok("1a", "mlp (784,64,10) = 52512 exactly")

    def test_efficient_kan_exact(self):
        assert main(["params", "--model", "efficient-kan", "--expect", "508160",
                     "--tolerance", "0"]) == 0
        _ok("1b", "efficient-kan G=5 k=3 = 508160 exactly")

    @pytest.mark.parametrize(
        "model,extra,expect",
        [
            ("fc-kan", ["--functions", "sin,cos"], 52496),
            ("fast-kan", [], 459098),
            ("bsrbf-kan", [], 459024),
        ],
    )
    def test_within_half_permille(self, model, extra, expect):
        rc = main(["params", "--model", model, *extra,
                   "--expect", str(expect), "--tolerance", "0.05%"])
        assert rc == 0
        _ok("1c", f"{model} within 0.05% of {expect}")


# -- criteria 2-4: training reproductions ------------------------------------

@pytest.fixture(scope="module")
def mnist_splits():
    return load_dataset("mnist", require_dataset("mnist"))


@pytest.fixture(scope="module")
def fashion_splits():
    return load_dataset("fashion-mnist", require_dataset("fashion-mnist"))


def _experiment(model_cfg, train_cfg, splits):
    """The aggregate block of train_cfg.runs seeds of model_cfg on splits."""
    return aggregate_runs(run_experiment(model_cfg, train_cfg, splits=splits))


class TestC2MnistReproduction:
    def test_fckan_sin_cos_sum(self, mnist_splits):
        cfg = ModelConfig(kind="fc-kan", functions=("sin", "cos"), combine="sum")
        agg = _experiment(cfg, REFERENCE, mnist_splits)
        va, f1 = agg["val_acc"], agg["f1"]
        _wall["sin+cos"] = agg["wall_seconds_mean"]
        assert va["mean"] == pytest.approx(97.64, abs=0.4)
        assert f1["mean"] == pytest.approx(97.62, abs=0.4)
        _ok("2a", f"fc-kan sin+cos (sum) mnist val {va['mean']:.2f} ± "
                  f"{va['std']:.2f}, F1 {f1['mean']:.2f} (target 97.64/97.62 ± 0.4)")

    def test_mlp(self, mnist_splits):
        va = _experiment(ModelConfig(kind="mlp"), REFERENCE, mnist_splits)["val_acc"]
        assert va["mean"] == pytest.approx(97.69, abs=0.4)
        _ok("2b", f"mlp mnist val {va['mean']:.2f} ± {va['std']:.2f} "
                  f"(target 97.69 ± 0.4)")


class TestC3FashionReproduction:
    def test_fckan_sin_arctan_product_beats_mlp(self, fashion_splits):
        fashion_cfg = TrainConfig(dataset="fashion-mnist")
        cfg = ModelConfig(kind="fc-kan", functions=("sin", "arctan"), combine="product")
        va = _experiment(cfg, fashion_cfg, fashion_splits)["val_acc"]
        assert va["mean"] == pytest.approx(89.38, abs=0.6)
        _ok("3a", f"fc-kan sin+arctan (product) fashion val {va['mean']:.2f} ± "
                  f"{va['std']:.2f} (target 89.38 ± 0.6)")

        mlp_va = _experiment(ModelConfig(kind="mlp"), fashion_cfg, fashion_splits)["val_acc"]
        assert va["mean"] > mlp_va["mean"]
        _ok("3b", f"ordering holds: sin+arctan {va['mean']:.2f} > "
                  f"mlp {mlp_va['mean']:.2f}")


class TestC4SingleFunctionSanity:
    def test_fckan_cos(self, mnist_splits):
        cfg = ModelConfig(kind="fc-kan", functions=("cos",))
        agg = _experiment(cfg, REFERENCE, mnist_splits)
        va, wall = agg["val_acc"], agg["wall_seconds_mean"]
        assert va["mean"] >= 97.0
        _ok("4", f"fc-kan cos mnist val {va['mean']:.2f} ± "
                 f"{va['std']:.2f} (floor 97.0)")
        # informational only, never asserted: single-function variants tend
        # to train faster than two-function ones on the same machine
        note = f"cos mean wall {wall:.1f}s/run"
        if "sin+cos" in _wall:
            note += (f" vs sin+cos {_wall['sin+cos']:.1f}s/run -> single-function "
                     f"{'faster' if wall < _wall['sin+cos'] else 'NOT faster'}")
        print(f"INFO: {note}")


# -- criterion 5: benchmark ordering -----------------------------------------

class TestC5BenchmarkOrdering:
    def test_bspline_slowest_relu_fast(self):
        results = bench_suite(n=1_000_000, repeats=10)
        by_name = {r.function: r for r in results}
        assert by_name["bspline"].mean_us > by_name["relu"].mean_us
        ratio = by_name["bspline"].mean_us / by_name["relu"].mean_us
        order = " > ".join(r.function for r in results)
        _ok("5", f"bspline/relu ratio {ratio:.1f}x (reported, not asserted); "
                 f"order: {order}")


# -- criterion 6: property suite, no dataset required -------------------------

class TestC6PropertySuite:
    def test_gradients_for_every_op_and_model_kind(self):
        X = np.random.default_rng(0).uniform(-1, 1, (4, 16)).astype(np.float32)
        y = np.array([0, 1, 3, 2])
        kinds = [
            ("mlp", {}),
            ("fc-kan", {"functions": ("sin", "cos")}),
            ("fc-kan", {"functions": ("relu", "arctan"), "combine": "product"}),
            ("efficient-kan", {}),
            ("fast-kan", {}),
            ("bsrbf-kan", {}),
        ]
        for kind, kw in kinds:
            model = build_model(ModelConfig(kind=kind, widths=(16, 8, 4), **kw))
            check_model_grads(model, X, y, tol=1e-2)
        _ok("6a", f"finite-difference gradients for {len(kinds)} model kinds, "
                  f"rel err < 1e-2 (op-level checks live in the unit suite)")

    def test_bspline_partition_and_support(self):
        from fckan.basis import BSplineGrid

        grid = BSplineGrid(5, 3, -1.0, 1.0)
        xs = np.linspace(-1 + 1e-9, 1 - 1e-9, 1000)
        worst = 0.0
        for vals in grid.values(xs):
            worst = max(worst, abs(vals.sum() - 1.0))
            assert np.count_nonzero(vals) <= grid.spline_order + 1
        assert worst <= 1e-6
        _ok("6b", f"partition of unity within {worst:.2e} over 1000 points, "
                  f"support <= k+1")

    def test_combination_identities(self):
        from fckan.models import COMBINE_OPS, forward_fckan
        from fckan.tensor import fold_rows

        X = Tensor(np.random.default_rng(1).uniform(-1, 1, (3, 16)).astype(np.float32))
        single = build_model(ModelConfig(kind="fc-kan", widths=(16, 8, 4),
                                         functions=("sin",)))
        assert fold_rows(None, COMBINE_OPS["sum"], X, 1) is X
        ones = np.ones((3, 16), dtype=np.float32)
        assert np.array_equal(
            fold_rows(None, COMBINE_OPS["product"], Tensor(np.concatenate([X.data, ones])),
                      2).data, X.data
        )
        dup = build_model(ModelConfig(kind="fc-kan", widths=(16, 8, 4),
                                      functions=("sin", "sin")))
        np.testing.assert_allclose(
            forward_fckan(dup, X).data, 2.0 * forward_fckan(single, X).data,
            rtol=1e-6,
        )
        _ok("6c", "singleton sum, product-with-ones, duplicate-sum identities")

    def test_adamw_first_step_closed_form(self):
        theta = np.zeros(1, dtype=np.float32)
        adamw_step(theta, np.ones(1, np.float32), np.zeros(1, np.float32),
                   np.zeros(1, np.float32), t=1, lr=1e-3)
        assert theta[0] == pytest.approx(-1e-3, rel=1e-6)
        _ok("6d", "adamw first step = -lr exactly")

    def test_lr_schedule_epoch_24(self):
        assert lr_schedule(24, 1e-3, 0.8) == pytest.approx(1e-3 * 0.8**24)
        _ok("6e", f"lr(24) = {lr_schedule(24, 1e-3, 0.8):.3e}")

    def test_macro_f1_hand_case(self):
        _, f1 = classification_metrics([0, 0], [0, 1], 2)
        assert f1 == pytest.approx(100.0 / 3.0)
        _ok("6f", "macro F1 hand-confusion case = 1/3")

    def test_idx_fixture_round_trip(self):
        import struct

        from fckan.data import parse_idx

        buf = struct.pack(">II", 0x00000801, 3) + bytes([7, 2, 1])
        dims, payload = parse_idx(buf)
        assert dims == [3] and payload.tolist() == [7, 2, 1]
        _ok("6g", "IDX fixture round-trips")

    def test_seed_determinism(self):
        split = synthetic_split(n=96, d=16, classes=4, seed=3)
        cfg = ModelConfig(kind="fc-kan", widths=(16, 8, 4), functions=("sin", "cos"))
        tc = TrainConfig(epochs=1, batch_size=16, runs=1, seeds=(0,))
        a = train_model(cfg, tc, splits=(split, split))
        b = train_model(cfg, tc, splits=(split, split))
        assert a.train_loss[0] == b.train_loss[0]
        _ok("6h", f"epoch-0 loss bit-identical across reruns ({a.train_loss[0]!r})")


# -- criterion 7: overfit oracle ----------------------------------------------

def _epochs_to_memorize(kind, kw, subset):
    """The epoch at which a default model of kind reaches 100% train accuracy
    on subset, trained in batches of 16; None if it does not within 200."""
    model = build_model(ModelConfig(kind=kind, **kw))
    # weight decay off and constant lr (the reference decay would freeze
    # updates long before epoch 200); stop once the subset is memorized
    opt = AdamW(model.params, weight_decay=0.0)
    for epoch in range(200):
        for xb, yb in batch_iter(subset, 16, seed=(0, epoch)):
            train_step(model, opt, xb, yb, 1e-3)
        logits = model.forward(Tensor(subset.images))
        if int((logits.data.argmax(axis=1) == subset.labels).sum()) == subset.n:
            return epoch
    return None


C7_MODELS = [
    ("mlp", {}),
    ("fc-kan", {"functions": ("sin", "cos")}),
    ("efficient-kan", {}),
    ("fast-kan", {}),
    ("bsrbf-kan", {}),
]


class TestC7OverfitOracle:
    @pytest.mark.parametrize("kind,kw", C7_MODELS)
    def test_memorizes_64_samples(self, kind, kw, mnist_splits):
        reached = _epochs_to_memorize(kind, kw, take_subset(mnist_splits[0], 64, seed=0))
        assert reached is not None, f"{kind} failed to memorize in 200 epochs"
        _ok("7", f"{kind} hit 100% train accuracy at epoch {reached}")

    @pytest.mark.parametrize("kind,kw", C7_MODELS)
    def test_memorizes_64_synthetic_samples(self, kind, kw):
        reached = _epochs_to_memorize(kind, kw, block_digits(64, seed=0))
        assert reached is not None, f"{kind} failed to memorize in 200 epochs"
        _ok("7s", f"{kind} hit 100% train accuracy at epoch {reached} on synthetic digits")


# -- criterion 8: training-time ordering, no dataset required -----------------

class TestC8TrainingTime:
    REPEATS, STEPS = 7, 3

    def test_fckan_step_under_half_of_every_spline_kind(self):
        # the abstract's "potential improvements in training time" over
        # B-spline and RBF KANs, per model: the paper's fc-kan (sin, cos,
        # arctan, relu by product) against each spline kind, all in this
        # process, the kinds taken in turn within every repeat so that host
        # noise falls on all of them; the ratio measured about 0.2-0.3
        kinds = ["fc-kan"] + [k for k, m in MODELS.items() if m.spline is not None]
        models = {k: default_model(k) for k in kinds}
        rng = np.random.default_rng(8)
        xb, yb = rng.random((BATCH, 784), dtype=np.float32), rng.integers(0, 10, BATCH)
        times = {k: [] for k in kinds}
        for repeat in range(self.REPEATS + 1):  # the first round warms up
            for kind in kinds:
                model, opt = models[kind]
                t0 = time.perf_counter()
                for _ in range(self.STEPS):
                    train_step(model, opt, xb, yb, LR)
                if repeat:
                    times[kind].append((time.perf_counter() - t0) / self.STEPS)
        median = {k: float(np.median(t)) for k, t in times.items()}
        ratios = {k: median["fc-kan"] / median[k] for k in kinds[1:]}
        assert all(r < 0.5 for r in ratios.values()), (median, ratios)
        _ok("8", ", ".join(f"fc-kan/{k} step {r:.2f}" for k, r in ratios.items())
            + f" (fc-kan {median['fc-kan'] * 1e3:.1f} ms)")
