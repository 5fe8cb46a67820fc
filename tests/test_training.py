import dataclasses
import math

import numpy as np
import pytest

from conftest import synthetic_split
from fckan.basis import ConfigError
from fckan.data import DataError, batch_iter
from fckan.models import ModelConfig, build_model
from fckan.training import (
    ADAM_EPS,
    BETA1,
    BETA2,
    CHUNK,
    AdamW,
    TrainConfig,
    TrainingDiverged,
    adamw_step,
    aggregate_runs,
    classification_metrics,
    evaluate,
    lr_schedule,
    run_experiment,
    train_model,
    train_step,
)


class TestAdamW:
    def test_first_step_closed_form(self):
        # g = 1, theta = 0: m_hat = v_hat = 1, so the step is exactly lr
        theta = np.zeros(1, dtype=np.float32)
        g = np.ones(1, dtype=np.float32)
        m = np.zeros(1, dtype=np.float32)
        v = np.zeros(1, dtype=np.float32)
        adamw_step(theta, g, m, v, t=1, lr=1e-3, weight_decay=0.0)
        assert theta[0] == pytest.approx(-1e-3, rel=1e-6)

    def test_zero_grad_pure_decay(self):
        theta = np.full(3, 2.0, dtype=np.float32)
        zeros = np.zeros(3, dtype=np.float32)
        adamw_step(theta, zeros, zeros.copy(), zeros.copy(), t=1, lr=0.1,
                   weight_decay=0.5)
        assert np.allclose(theta, 2.0 * (1 - 0.1 * 0.5), rtol=1e-6)

    def test_steps_are_reproducible(self):
        def run():
            theta = np.linspace(-1, 1, 5).astype(np.float32)
            m = np.zeros_like(theta)
            v = np.zeros_like(theta)
            for t in (1, 2):
                adamw_step(theta, 0.3 * theta + 0.1, m, v, t, 1e-2, weight_decay=1e-4)
            return theta

        assert np.array_equal(run(), run())

    def test_matches_plain_adam_when_decay_zero(self):
        # toy quadratic: f(x) = 0.5 * x^2, gradient x; the oracle is a
        # separately written textbook Adam at the usual 0.9, 0.999, 1e-8
        beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, 0.05

        x_adam = 1.5
        m = v = 0.0
        trace = []
        for t in range(1, 11):
            g = x_adam
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            step_size = lr / (1 - beta1**t)
            x_adam -= step_size * m / (np.sqrt(v / (1 - beta2**t)) + eps)
            trace.append(x_adam)

        theta = np.asarray([1.5], dtype=np.float64)
        ms = np.zeros(1, dtype=np.float64)
        vs = np.zeros(1, dtype=np.float64)
        for t in range(1, 11):
            adamw_step(theta, theta.copy(), ms, vs, t, lr, weight_decay=0.0)
            assert theta[0] == pytest.approx(trace[t - 1], abs=1e-7)

    @staticmethod
    def whole_array_step(theta, grad, m, v, t, lr, weight_decay=0.0):
        """The oracle: one AdamW update as whole-array expressions."""
        if weight_decay:
            theta *= 1.0 - lr * weight_decay
        m *= BETA1
        m += (1.0 - BETA1) * grad
        v *= BETA2
        v += (1.0 - BETA2) * grad * grad
        m_hat = m / (1.0 - BETA1**t)
        v_hat = v / (1.0 - BETA2**t)
        theta -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1,), (CHUNK - 1,), (CHUNK,), (CHUNK + 1,),
                                       (3 * CHUNK + 5,), (64, CHUNK // 64 + 3)], ids=str)
    def test_chunked_steps_keep_the_bits_of_whole_array_steps(self, shape, dtype, weight_decay):
        rng = np.random.default_rng(sum(shape))
        theta = rng.standard_normal(shape).astype(dtype)
        # (theta, m, v) updated by adamw_step and by the oracle
        ours, oracle = ([theta.copy(), np.zeros_like(theta), np.zeros_like(theta)]
                        for _ in range(2))
        for t in range(1, 6):
            # gradients over many magnitudes, and some exact zeros
            grad = (rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 3, shape)).astype(dtype)
            grad[rng.random(shape) < 0.05] = 0.0
            adamw_step(ours[0], grad, ours[1], ours[2], t, 1e-3, weight_decay)
            self.whole_array_step(oracle[0], grad, oracle[1], oracle[2], t, 1e-3, weight_decay)
            for got, want in zip(ours, oracle):
                assert got.dtype == dtype and got.tobytes() == want.tobytes()
        assert not np.array_equal(ours[0], theta)

    @pytest.mark.parametrize("bad", ["strided", "fortran", "dtype", "shape"])
    def test_arrays_it_cannot_update_in_place_bit_for_bit_raise(self, bad):
        theta, grad, m, v = (np.ones((4, 6), dtype=np.float32) for _ in range(4))
        before = theta.copy()
        if bad == "strided":
            theta = np.ones((4, 12), dtype=np.float32)[:, ::2]
            before = theta.copy()
        elif bad == "fortran":
            m = np.asfortranarray(m)
        elif bad == "dtype":
            grad = grad.astype(np.float64)
        else:
            v = v.reshape(6, 4)
        with pytest.raises(ValueError, match="C-contiguous arrays of one shape and dtype"):
            adamw_step(theta, grad, m, v, t=1, lr=1e-3)
        assert np.array_equal(theta, before)

    def test_non_finite_gradient_names_parameter(self):
        # the NaN sits in the last parameter, so every other one would be
        # updated before it if the check ran parameter by parameter
        model = build_model(ModelConfig(kind="mlp", widths=(4, 3, 2)))
        opt = AdamW(model.params, weight_decay=0.1)
        rng = np.random.default_rng(0)
        for p in model.params:
            p.tensor.grad = rng.standard_normal(p.tensor.data.shape).astype(np.float32)
        opt.step(1e-3)  # nonzero moments, t = 1
        model.params[-1].tensor.grad[0, 0] = np.nan
        before = [a.copy() for a in (*(p.tensor.data for p in model.params), *opt._m, *opt._v)]
        with pytest.raises(TrainingDiverged, match=model.params[-1].name):
            opt.step(1e-3)
        after = (*(p.tensor.data for p in model.params), *opt._m, *opt._v)
        assert opt.t == 1
        assert all(a.tobytes() == b.tobytes() for a, b in zip(after, before))

    def test_decay_skips_layer_norm_affines(self):
        model = build_model(ModelConfig(kind="mlp", widths=(4, 3, 2)))
        opt = AdamW(model.params, weight_decay=0.5)
        gamma = model.layers[0]["ln_gamma"]
        before = gamma.data.copy()
        for p in model.params:
            p.tensor.grad = np.zeros_like(p.tensor.data)
        opt.step(0.1)
        assert np.array_equal(gamma.data, before)


class TestLrSchedule:
    def test_initial_rate(self):
        assert lr_schedule(0, 1e-3, 0.8) == 1e-3

    def test_one_decay(self):
        assert lr_schedule(1, 1e-3, 0.8) == pytest.approx(8e-4)

    def test_epoch_24(self):
        assert lr_schedule(24, 1e-3, 0.8) == pytest.approx(4.722366482869645e-06)


class TestMetrics:
    def test_perfect_predictions(self):
        acc, f1 = classification_metrics([0, 1, 2], [0, 1, 2], 3)
        assert acc == 100.0 and f1 == 100.0

    def test_hand_confusion_case(self):
        # class 0: TP=1 FP=1 FN=0 -> F1 2/3; class 1: F1 0; macro 1/3
        acc, f1 = classification_metrics([0, 0], [0, 1], 2)
        assert acc == 50.0
        assert f1 == pytest.approx(100.0 / 3.0)

    def test_single_class_predictor_on_balanced_data(self):
        labels = np.repeat(np.arange(10), 5)
        preds = np.zeros_like(labels)
        acc, f1 = classification_metrics(preds, labels, 10)
        assert acc == pytest.approx(10.0)
        assert 0.0 <= f1 <= 100.0

    def test_bounds(self):
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 10, 500)
        labels = rng.integers(0, 10, 500)
        acc, f1 = classification_metrics(preds, labels, 10)
        assert 0.0 <= acc <= 100.0 and 0.0 <= f1 <= 100.0

    def test_evaluate_runs_on_split(self):
        split = synthetic_split(n=64, d=16, classes=4)
        model = build_model(ModelConfig(kind="mlp", widths=(16, 8, 4)))
        acc, f1 = evaluate(model, split)
        assert 0.0 <= acc <= 100.0 and 0.0 <= f1 <= 100.0

    def test_evaluate_on_an_empty_split_names_it(self):
        split = synthetic_split(n=0, d=16, classes=4, name="mnist/val")
        model = build_model(ModelConfig(kind="mlp", widths=(16, 8, 4)))
        with pytest.raises(DataError, match="empty split: mnist/val has 0 rows"):
            evaluate(model, split)


class TestAggregate:
    def test_hand_arithmetic(self):
        runs = [_run(seed=i, val=v) for i, v in enumerate([97.0, 97.5, 98.0])]
        agg = aggregate_runs(runs)
        assert agg["val_acc"]["mean"] == pytest.approx(97.5)
        assert agg["val_acc"]["std"] == pytest.approx(0.5)

    def test_single_run_std_zero(self):
        agg = aggregate_runs([_run(seed=0, val=96.0)])
        assert agg["val_acc"] == {"mean": 96.0, "std": 0.0}

    def test_permutation_invariant(self):
        runs = [_run(seed=i, val=v) for i, v in enumerate([97.0, 97.5, 98.0])]
        assert aggregate_runs(runs)["val_acc"] == aggregate_runs(runs[::-1])["val_acc"]

    def test_record_layout(self):
        agg = aggregate_runs([_run(seed=0, val=96.0), _run(seed=1, val=98.0)])
        assert list(agg) == ["runs", "train_acc", "val_acc", "f1", "wall_seconds_mean"]
        assert agg["runs"] == 2 and agg["wall_seconds_mean"] == 10.0
        assert agg["train_acc"] == {"mean": 90.0, "std": 0.0}
        assert list(agg["f1"]) == ["mean", "std"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_runs([])


class TestTrainConfig:
    def test_epoch_defaults_per_dataset(self):
        assert TrainConfig(dataset="mnist").epochs == 25
        assert TrainConfig(dataset="fashion-mnist").epochs == 35

    def test_runs_default_to_the_seed_count(self):
        assert TrainConfig().runs == 3
        assert TrainConfig(seeds=(7,)).runs == 1
        assert TrainConfig(seeds=(4, 5)).to_dict()["runs"] == 2

    def test_an_explicit_run_count_still_constructs(self):
        # the call perfbench makes
        cfg = TrainConfig(dataset="mnist", epochs=1, runs=1, seeds=(31,))
        assert (cfg.runs, cfg.seeds) == (1, (31,))

    def test_no_seeds_is_an_error_naming_seeds(self):
        with pytest.raises(ValueError, match="seeds must be") as e:
            TrainConfig(seeds=())
        assert "runs" not in str(e.value)

    def test_needs_enough_seeds(self):
        with pytest.raises(ValueError):
            TrainConfig(runs=4, seeds=(0, 1, 2))

    @pytest.mark.parametrize("seeds", [(0, -1), (0, True), (0, 1.0), (0, "1"), (0, 1, -2),
                                       (0, 0), (0, 1, 0)])
    def test_rejects_a_seed_model_config_rejects(self, seeds):
        # every seed is checked, also one past the runs that would train
        with pytest.raises(ValueError, match="seeds"):
            TrainConfig(runs=2, seeds=seeds)

    @pytest.mark.parametrize("field,value", [
        ("batch_size", 0), ("runs", 0), ("epochs", -1),
        ("epochs", 1.5), ("batch_size", 2.5), ("batch_size", True), ("runs", 1.5),
        ("epochs", np.int64(3)), ("batch_size", 64.0),
        ("lr0", 0.0), ("lr0", -1e-3), ("lr0", math.nan), ("lr0", math.inf),
        ("gamma", 0.0), ("gamma", -1.0), ("gamma", math.nan),
        ("weight_decay", -5.0), ("weight_decay", math.inf),
        ("lr0", True), ("lr0", "x"), ("gamma", None), ("weight_decay", False),
        ("dataset", "cifar"), ("seeds", 5),
    ])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})

    def test_smallest_valid_values(self):
        cfg = TrainConfig(batch_size=1, runs=1, epochs=0)
        assert (cfg.batch_size, cfg.runs, cfg.epochs) == (1, 1, 0)

    def test_edges_of_the_optimiser_ranges_are_valid(self):
        TrainConfig(lr0=1e-30, gamma=1e-30, weight_decay=0.0)

    def test_fields_are_what_a_caller_sets(self):
        # AdamW's betas and eps are constants of fckan.training, not fields
        assert [f.name for f in dataclasses.fields(TrainConfig)] == [
            "dataset", "epochs", "batch_size", "lr0", "gamma", "weight_decay", "runs", "seeds"]
        with pytest.raises(TypeError):
            TrainConfig(beta1=0.9)

    def test_record_keys_are_the_fields(self):
        d = TrainConfig(seeds=(4, 5, 6)).to_dict()
        assert list(d) == [f.name for f in dataclasses.fields(TrainConfig)]
        assert d["seeds"] == [4, 5, 6] and d["epochs"] == 25

    def test_run_record_is_the_fields_plus_final_train_acc(self):
        d = _run(3, 97.0).to_dict()
        assert d == {"seed": 3, "train_loss": [1.0], "train_acc": [90.0],
                     "val_acc": [97.0], "final_val_acc": 97.0, "final_f1": 96.95,
                     "wall_seconds": 10.0, "final_train_acc": 90.0}


class TestTrainModel:
    def test_seed_determinism_bit_identical_epoch0_loss(self):
        split = synthetic_split(n=96, d=16, classes=4, seed=3)
        cfg = ModelConfig(kind="mlp", widths=(16, 8, 4), seed=0)
        tc = TrainConfig(epochs=1, batch_size=16, runs=1, seeds=(0,))
        a = train_model(cfg, tc, splits=(split, split))
        b = train_model(cfg, tc, splits=(split, split))
        assert a.train_loss[0] == b.train_loss[0]
        assert a.val_acc == b.val_acc

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
    def test_loss_decreases_and_weights_stay_finite(self, kind, kw):
        split = synthetic_split(n=128, d=16, classes=4, seed=1)
        cfg = ModelConfig(kind=kind, widths=(16, 8, 4), seed=0, **kw)
        tc = TrainConfig(epochs=5, batch_size=32, runs=1, seeds=(0,))
        rm = train_model(cfg, tc, splits=(split, split))
        assert rm.train_loss[-1] < rm.train_loss[0]
        assert len(rm.train_loss) == tc.epochs

        # weights finite after init and after every optimizer step
        model = build_model(cfg)
        opt = AdamW(model.params, weight_decay=tc.weight_decay)
        assert all(np.isfinite(p.tensor.data).all() for p in model.params)
        for xb, yb in batch_iter(split, 32, seed=9):
            train_step(model, opt, xb, yb, 1e-3)
            assert all(np.isfinite(p.tensor.data).all() for p in model.params)

    def test_overfits_small_synthetic_set(self):
        split = synthetic_split(n=32, d=16, classes=4, seed=2)
        cfg = ModelConfig(kind="mlp", widths=(16, 16, 4), seed=0)
        # constant lr: the default decay would freeze learning long before
        # the accuracy saturates
        tc = TrainConfig(epochs=60, batch_size=8, weight_decay=0.0, gamma=1.0,
                         runs=1, seeds=(0,))
        rm = train_model(cfg, tc, splits=(split, split))
        assert max(rm.train_acc) == 100.0

    def test_divergence_reports_epoch_and_batch(self):
        split = synthetic_split(n=64, d=16, classes=4)
        cfg = ModelConfig(kind="mlp", widths=(16, 8, 4), seed=0)
        tc = TrainConfig(epochs=2, batch_size=16, lr0=1e20, runs=1, seeds=(0,))
        # blows up either at the loss or in a gradient, whichever the sweep
        # hits first; both name the step
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged, match=r"epoch \d+, batch \d+"):
                train_model(cfg, tc, splits=(split, split))

    def test_non_finite_gradient_names_epoch_and_batch(self, monkeypatch):
        split = synthetic_split(n=64, d=16, classes=4)  # 4 batches of 16 per epoch
        cfg = ModelConfig(kind="mlp", widths=(16, 8, 4), seed=0)
        tc = TrainConfig(epochs=2, batch_size=16, runs=1, seeds=(0,))
        step, calls = AdamW.step, []

        def poison_sixth(opt, lr):  # the loss stays finite; epoch 1, batch 1
            calls.append(lr)
            if len(calls) == 6:
                opt.params[0].tensor.grad[...] = np.nan
            step(opt, lr)

        monkeypatch.setattr(AdamW, "step", poison_sixth)
        with pytest.raises(TrainingDiverged,
                           match=r"non-finite gradient in parameter .+ at epoch 1, batch 1$"):
            train_model(cfg, tc, splits=(split, split))

    def test_non_finite_loss_changes_nothing(self):
        split = synthetic_split(n=32, d=16, classes=4)
        model = build_model(ModelConfig(kind="mlp", widths=(16, 8, 4), seed=0))
        opt = AdamW(model.params, weight_decay=1e-4)
        train_step(model, opt, split.images, split.labels, 1e-3)
        before = [(p.tensor.data.copy(), p.tensor.grad.copy()) for p in model.params]
        xb = split.images.copy()
        xb[3, 5] = np.nan
        with pytest.raises(TrainingDiverged, match="non-finite loss"):
            train_step(model, opt, xb, split.labels, 1e-3)
        assert opt.t == 1
        for p, (data, grad) in zip(model.params, before):
            assert np.array_equal(p.tensor.data, data)
            assert np.array_equal(p.tensor.grad, grad)

    def test_train_step_is_train_models_step(self):
        # one epoch of one full batch: train_model's loss is train_step's
        split = synthetic_split(n=32, d=16, classes=4)
        cfg = ModelConfig(kind="mlp", widths=(16, 8, 4), seed=0)
        tc = TrainConfig(epochs=1, batch_size=32, runs=1, seeds=(0,))
        rm = train_model(cfg, tc, splits=(split, split))
        model = build_model(cfg)
        opt = AdamW(model.params, weight_decay=tc.weight_decay)
        xb, yb = next(batch_iter(split, 32, seed=(0, 0)))
        loss, logits = train_step(model, opt, xb, yb, tc.lr0)
        assert rm.train_loss == [loss]
        assert rm.train_acc == [100.0 * (logits.data.argmax(axis=1) == yb).mean()]

    @pytest.mark.parametrize("empty", ["train", "val"])
    def test_empty_split_is_a_data_error(self, empty):
        split = synthetic_split(n=32, d=16, classes=4)
        splits = {"train": split, "val": split}
        splits[empty] = synthetic_split(n=0, d=16, classes=4, name="nothing")
        cfg = ModelConfig(kind="mlp", widths=(16, 8, 4))
        tc = TrainConfig(epochs=1, batch_size=16, runs=1, seeds=(0,))
        with pytest.raises(DataError, match="empty split"):
            train_model(cfg, tc, splits=(splits["train"], splits["val"]))

    def test_run_experiment_aggregates_seeds(self):
        split = synthetic_split(n=64, d=16, classes=4)
        cfg = ModelConfig(kind="mlp", widths=(16, 8, 4))
        tc = TrainConfig(epochs=1, batch_size=16, runs=2, seeds=(0, 1))
        runs = run_experiment(cfg, tc, splits=(split, split))
        assert [r.seed for r in runs] == [0, 1]
        agg = aggregate_runs(runs)
        assert agg["runs"] == 2
        assert agg["val_acc"]["std"] >= 0.0


def _run(seed, val):
    from fckan.training import RunMetrics

    return RunMetrics(
        seed=seed,
        train_loss=[1.0],
        train_acc=[90.0],
        val_acc=[val],
        final_val_acc=val,
        final_f1=val - 0.05,
        wall_seconds=10.0,
    )
