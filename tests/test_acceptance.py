"""Acceptance gate: one test per criterion, each printing a PASS line.

Criteria 1, 5 and 6 run anywhere; 2, 3, 4 and 7 train on the real datasets
and skip (with a reason) when the IDX files are absent. The training
reproductions take minutes per run on a desktop CPU.

Run `pytest tests/test_acceptance.py -v -s` to watch the checks stream by.
"""

import numpy as np
import pytest

from conftest import require_dataset, synthetic_split
from fckan.bench import bench_suite
from fckan.cli import main
from fckan.data import load_dataset, take_subset
from fckan.models import ModelConfig, build_model
from fckan.tensor import Tape, Tensor, softmax_cross_entropy
from fckan.training import (
    TrainConfig,
    adamw_step,
    classification_metrics,
    lr_schedule,
    run_experiment,
    train_model,
)
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


class TestC2MnistReproduction:
    def test_fckan_sin_cos_sum(self, mnist_splits):
        cfg = ModelConfig(kind="fc-kan", functions=("sin", "cos"), combine="sum")
        _, agg = run_experiment(cfg, REFERENCE, splits=mnist_splits)
        _wall["sin+cos"] = agg.wall_seconds_mean
        assert agg.val_acc_mean == pytest.approx(97.64, abs=0.4)
        assert agg.f1_mean == pytest.approx(97.62, abs=0.4)
        _ok("2a", f"fc-kan sin+cos (sum) mnist val {agg.val_acc_mean:.2f} ± "
                  f"{agg.val_acc_std:.2f}, F1 {agg.f1_mean:.2f} (target 97.64/97.62 ± 0.4)")

    def test_mlp(self, mnist_splits):
        _, agg = run_experiment(ModelConfig(kind="mlp"), REFERENCE, splits=mnist_splits)
        assert agg.val_acc_mean == pytest.approx(97.69, abs=0.4)
        _ok("2b", f"mlp mnist val {agg.val_acc_mean:.2f} ± {agg.val_acc_std:.2f} "
                  f"(target 97.69 ± 0.4)")


class TestC3FashionReproduction:
    def test_fckan_sin_arctan_product_beats_mlp(self, fashion_splits):
        fashion_cfg = TrainConfig(dataset="fashion-mnist")
        cfg = ModelConfig(kind="fc-kan", functions=("sin", "arctan"), combine="product")
        _, agg = run_experiment(cfg, fashion_cfg, splits=fashion_splits)
        assert agg.val_acc_mean == pytest.approx(89.38, abs=0.6)
        _ok("3a", f"fc-kan sin+arctan (product) fashion val {agg.val_acc_mean:.2f} ± "
                  f"{agg.val_acc_std:.2f} (target 89.38 ± 0.6)")

        _, mlp_agg = run_experiment(ModelConfig(kind="mlp"), fashion_cfg,
                                    splits=fashion_splits)
        assert agg.val_acc_mean > mlp_agg.val_acc_mean
        _ok("3b", f"ordering holds: sin+arctan {agg.val_acc_mean:.2f} > "
                  f"mlp {mlp_agg.val_acc_mean:.2f}")


class TestC4SingleFunctionSanity:
    def test_fckan_cos(self, mnist_splits):
        cfg = ModelConfig(kind="fc-kan", functions=("cos",))
        runs, agg = run_experiment(cfg, REFERENCE, splits=mnist_splits)
        assert agg.val_acc_mean >= 97.0
        _ok("4", f"fc-kan cos mnist val {agg.val_acc_mean:.2f} ± "
                 f"{agg.val_acc_std:.2f} (floor 97.0)")
        # informational only, never asserted: single-function variants tend
        # to train faster than two-function ones on the same machine
        note = f"cos mean wall {agg.wall_seconds_mean:.1f}s/run"
        if "sin+cos" in _wall:
            note += (f" vs sin+cos {_wall['sin+cos']:.1f}s/run -> single-function "
                     f"{'faster' if agg.wall_seconds_mean < _wall['sin+cos'] else 'NOT faster'}")
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
        from fckan.models import combine_outputs, forward_fckan

        X = Tensor(np.random.default_rng(1).uniform(-1, 1, (3, 16)).astype(np.float32))
        single = build_model(ModelConfig(kind="fc-kan", widths=(16, 8, 4),
                                         functions=("sin",)))
        assert combine_outputs(None, [X], "sum") is X
        ones = Tensor(np.ones((3, 16), dtype=np.float32))
        assert np.array_equal(
            combine_outputs(None, [X, ones], "product").data, X.data
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

class TestC7OverfitOracle:
    @pytest.mark.parametrize(
        "kind,kw",
        [
            ("mlp", {}),
            ("fc-kan", {"functions": ("sin", "cos")}),
            ("efficient-kan", {}),
            ("fast-kan", {}),
            ("bsrbf-kan", {}),
        ],
    )
    def test_memorizes_64_samples(self, kind, kw, mnist_splits):
        from fckan.data import batch_iter
        from fckan.training import AdamW

        subset = take_subset(mnist_splits[0], 64, seed=0)
        model = build_model(ModelConfig(kind=kind, **kw))
        # weight decay off and constant lr (the reference decay would freeze
        # updates long before epoch 200); stop once the subset is memorized
        opt = AdamW(model.params, weight_decay=0.0)
        reached = None
        for epoch in range(200):
            for xb, yb in batch_iter(subset, 16, seed=(0, epoch)):
                tape = Tape()
                loss = softmax_cross_entropy(
                    tape, model.forward(Tensor(xb), tape=tape), yb
                )
                opt.zero_grad()
                tape.backward(loss)
                opt.step(1e-3)
            logits = model.forward(Tensor(subset.images))
            if int((logits.data.argmax(axis=1) == subset.labels).sum()) == subset.n:
                reached = epoch
                break
        assert reached is not None, f"{kind} failed to memorize in 200 epochs"
        _ok("7", f"{kind} hit 100% train accuracy at epoch {reached}")
