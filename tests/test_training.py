import numpy as np
import pytest

from conftest import synthetic_split
from fckan.data import DataError
from fckan.models import ModelConfig, build_model
from fckan.training import (
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
        # separately written textbook Adam
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
            adamw_step(theta, theta.copy(), ms, vs, t, lr, beta1=beta1,
                       beta2=beta2, eps=eps, weight_decay=0.0)
            assert theta[0] == pytest.approx(trace[t - 1], abs=1e-7)

    def test_non_finite_gradient_names_parameter(self):
        model = build_model(ModelConfig(kind="mlp", widths=(4, 3, 2)))
        opt = AdamW(model.params)
        for p in model.params:
            p.tensor.grad = np.zeros_like(p.tensor.data)
        model.params[2].tensor.grad[0, 0] = np.nan
        with pytest.raises(TrainingDiverged, match=model.params[2].name):
            opt.step(1e-3)

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


class TestAggregate:
    def test_hand_arithmetic(self):
        runs = [_run(seed=i, val=v) for i, v in enumerate([97.0, 97.5, 98.0])]
        agg = aggregate_runs(runs)
        assert agg.val_acc_mean == pytest.approx(97.5)
        assert agg.val_acc_std == pytest.approx(0.5)

    def test_single_run_std_zero(self):
        agg = aggregate_runs([_run(seed=0, val=96.0)])
        assert agg.val_acc_mean == 96.0 and agg.val_acc_std == 0.0

    def test_permutation_invariant(self):
        runs = [_run(seed=i, val=v) for i, v in enumerate([97.0, 97.5, 98.0])]
        a = aggregate_runs(runs)
        b = aggregate_runs(runs[::-1])
        assert a.val_acc_mean == b.val_acc_mean and a.val_acc_std == b.val_acc_std

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_runs([])


class TestTrainConfig:
    def test_epoch_defaults_per_dataset(self):
        assert TrainConfig(dataset="mnist").epochs == 25
        assert TrainConfig(dataset="fashion-mnist").epochs == 35

    def test_needs_enough_seeds(self):
        with pytest.raises(ValueError):
            TrainConfig(runs=4, seeds=(0, 1, 2))

    @pytest.mark.parametrize("field,value", [("batch_size", 0), ("runs", 0),
                                             ("epochs", -1)])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_smallest_valid_values(self):
        cfg = TrainConfig(batch_size=1, runs=1, epochs=0)
        assert (cfg.batch_size, cfg.runs, cfg.epochs) == (1, 1, 0)


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
        from fckan.data import batch_iter
        from fckan.tensor import Tape, Tensor, softmax_cross_entropy

        model = build_model(cfg)
        opt = AdamW(model.params, weight_decay=tc.weight_decay)
        assert all(np.isfinite(p.tensor.data).all() for p in model.params)
        for xb, yb in batch_iter(split, 32, seed=9):
            tape = Tape()
            loss = softmax_cross_entropy(tape, model.forward(Tensor(xb), tape=tape), yb)
            opt.zero_grad()
            tape.backward(loss)
            opt.step(1e-3)
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
        # blows up either at the loss (named epoch/batch) or in a gradient
        # (named parameter), whichever the sweep hits first
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged, match="epoch|parameter"):
                train_model(cfg, tc, splits=(split, split))

    def test_no_splits_and_no_data_dir_is_a_data_error(self):
        cfg = ModelConfig(kind="mlp", widths=(784, 8, 10))
        tc = TrainConfig(epochs=1, runs=1, seeds=(0,))
        with pytest.raises(DataError, match="no data directory"):
            train_model(cfg, tc)
        with pytest.raises(DataError, match="no data directory"):
            run_experiment(cfg, tc, splits=None, data_dir=None)

    def test_run_experiment_aggregates_seeds(self):
        split = synthetic_split(n=64, d=16, classes=4)
        cfg = ModelConfig(kind="mlp", widths=(16, 8, 4))
        tc = TrainConfig(epochs=1, batch_size=16, runs=2, seeds=(0, 1))
        runs, agg = run_experiment(cfg, tc, splits=(split, split))
        assert [r.seed for r in runs] == [0, 1]
        assert agg.runs == 2
        assert agg.val_acc_std >= 0.0


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
