import functools
import json
import os
import struct
import tempfile
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bench_train_step import Kind
from fckan import models, tensor
from fckan.basis import BSplineGrid, RBFGrid, grid_record
from fckan.models import (
    MODEL_KINDS,
    CheckpointError,
    ConfigError,
    Model,
    ModelConfig,
    build_model,
    combine_outputs,
    count_params,
    forward_fckan,
    forward_mlp,
    forward_spline_kan,
    load_model,
    param_shapes,
    save_model,
)
from fckan.tensor import ShapeError, Tape, Tensor, basis_expand, softmax_cross_entropy
from gradcheck import check_grads, check_model_grads, check_model_grads_scaled

RNG = np.random.default_rng(0)
X16 = RNG.uniform(-1, 1, (4, 16)).astype(np.float32)
Y16 = np.array([0, 1, 3, 2])
FOUR_FNS = ("sin", "cos", "arctan", "relu")


def toy_config(kind, **kw):
    return ModelConfig(kind=kind, widths=(16, 8, 4), seed=0, **kw)


class TestConfig:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            ModelConfig(kind="cnn")

    @pytest.mark.parametrize("widths", [(784,), (784, 0, 10), 5, (4.5, 3), ("4", 3),
                                        (True, 3)])
    def test_bad_widths(self, widths):
        with pytest.raises(ConfigError, match="widths"):
            ModelConfig(kind="mlp", widths=widths)

    def test_fckan_function_validation(self):
        with pytest.raises(ConfigError):
            ModelConfig(kind="fc-kan", functions=())
        with pytest.raises(ConfigError):
            ModelConfig(kind="fc-kan", functions=("sin", "tan"))
        with pytest.raises(ConfigError):
            ModelConfig(kind="fc-kan", functions=("sin",), combine="mean")
        with pytest.raises(ConfigError):
            ModelConfig(kind="mlp", functions=("sin",))
        # an unhashable combine method is a ConfigError, not a TypeError
        with pytest.raises(ConfigError, match="combine"):
            ModelConfig(kind="fc-kan", functions=("sin", "cos"), combine=["sum"])
        with pytest.raises(ConfigError, match="combine"):
            combine_outputs(None, Tensor(np.ones((2, 2))), 2, ["sum"])

    def test_round_trips_through_dict(self):
        cfg = ModelConfig(
            kind="fc-kan", functions=("sin", "cos"), combine="product", seed=7
        )
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg
        cfg2 = toy_config("efficient-kan")
        assert ModelConfig.from_dict(cfg2.to_dict()) == cfg2
        cfg3 = toy_config("fast-kan", spline=RBFGrid(5, -1.0, 3.0))
        assert cfg3.to_dict()["spline"]["spline_order"] == 0
        assert ModelConfig.from_dict(cfg3.to_dict()) == cfg3

    def test_from_dict_rejects_an_unknown_or_missing_key(self):
        d = toy_config("mlp").to_dict()
        with pytest.raises(ConfigError, match="width"):
            ModelConfig.from_dict({**d, "width": 8})
        del d["kind"]
        with pytest.raises(ConfigError, match="kind"):
            ModelConfig.from_dict(d)

    def test_grid_must_be_of_the_kinds_family(self):
        with pytest.raises(ConfigError, match="needs a BSplineGrid"):
            ModelConfig(kind="efficient-kan", spline=RBFGrid())
        with pytest.raises(ConfigError, match="needs a BSplineGrid"):
            ModelConfig(kind="bsrbf-kan", spline=RBFGrid())
        with pytest.raises(ConfigError, match="needs a RBFGrid"):
            ModelConfig(kind="fast-kan", spline=BSplineGrid())
        saved = dict(toy_config("efficient-kan").to_dict(), spline=grid_record(RBFGrid()))
        with pytest.raises(ConfigError, match="needs a BSplineGrid"):
            ModelConfig.from_dict(saved)

    def test_no_grid_on_elementwise_kinds(self):
        with pytest.raises(ConfigError, match="takes no grid"):
            ModelConfig(kind="mlp", spline=BSplineGrid())
        with pytest.raises(ConfigError, match="takes no grid"):
            ModelConfig(kind="fc-kan", functions=("sin",), spline=RBFGrid())

    def test_grids_are_derived_not_fields(self):
        assert toy_config("mlp").grids == ()
        assert toy_config("fast-kan").grids == (RBFGrid(),)
        narrow = BSplineGrid(3, 2, -0.5, 0.5)
        cfg = toy_config("bsrbf-kan", spline=narrow)
        assert cfg.grids == (narrow, RBFGrid(5, -0.5, 0.5))
        assert "grids" not in {f.name for f in fields(ModelConfig)}
        assert "grids" not in cfg.to_dict()
        assert ModelConfig.from_dict(cfg.to_dict()).grids == cfg.grids

    def test_bsrbf_kan_companion_rbf_grid_checked_with_the_config(self, tmp_path):
        # a valid B-spline grid whose companion RBF bandwidth squared underflows
        narrow = BSplineGrid(5, 3, 0.0, 1e-300)
        with pytest.raises(ConfigError, match="rbf bandwidth"):
            ModelConfig(kind="bsrbf-kan", spline=narrow)
        blob = json.dumps({**toy_config("bsrbf-kan").to_dict(),
                           "spline": grid_record(narrow)}).encode()
        path = tmp_path / "model.fckn"
        path.write_bytes(b"FCKN" + struct.pack("<II", 1, len(blob)) + blob)
        with pytest.raises(CheckpointError, match="rbf bandwidth"):
            load_model(path)

    @pytest.mark.parametrize("seed", ["x", 1.5, -1, True, None])
    def test_seed_must_be_a_non_negative_int(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            ModelConfig(kind="mlp", seed=seed)

    @pytest.mark.parametrize("kind", ["mlp", "efficient-kan", "fast-kan", "bsrbf-kan"])
    def test_combine_only_on_fckan(self, kind):
        with pytest.raises(ConfigError, match="combine"):
            ModelConfig(kind=kind, combine="product")


class TestParamCounts:
    def test_mlp_reference_architecture(self):
        model = build_model(ModelConfig(kind="mlp", widths=(784, 64, 10)))
        assert count_params(model) == 52512
        assert count_params(model) == 784 * 64 + 64 * 10 + 2 * 784 + 2 * 64

    def test_efficient_kan_reference_architecture(self):
        model = build_model(ModelConfig(kind="efficient-kan", widths=(784, 64, 10)))
        # per layer: base in*out + spline in*(G+k)*out + scaler in*out
        assert count_params(model) == 508160

    def test_fckan_shares_mlp_count(self):
        for fns in [("sin",), ("cos",), ("sin", "cos"), ("arctan", "relu"),
                    ("sin", "cos", "arctan", "relu")]:
            model = build_model(
                ModelConfig(kind="fc-kan", widths=(784, 64, 10), functions=fns)
            )
            assert count_params(model) == 52512

    def test_fckan_within_published_tolerance(self):
        model = build_model(
            ModelConfig(kind="fc-kan", widths=(784, 64, 10), functions=("sin", "cos"))
        )
        assert abs(count_params(model) - 52496) / 52496 < 0.0005

    def test_fast_kan_within_published_tolerance(self):
        model = build_model(ModelConfig(kind="fast-kan", widths=(784, 64, 10)))
        assert abs(count_params(model) - 459098) / 459098 < 0.0005

    def test_bsrbf_kan_within_published_tolerance(self):
        model = build_model(ModelConfig(kind="bsrbf-kan", widths=(784, 64, 10)))
        assert abs(count_params(model) - 459024) / 459024 < 0.0005

    def test_spline_weight_expansion_factor(self):
        model = build_model(toy_config("efficient-kan"))
        # G=5, k=3 expands every input feature to 8 basis values
        assert model.layers[0]["spline_weight"].shape == (16 * 8, 8)
        assert model.layers[1]["spline_weight"].shape == (8 * 8, 4)


def _layout(d_in, d_out, names):
    shapes = {
        "ln_gamma": ((1, d_in), False),
        "ln_beta": ((1, d_in), False),
        "weight": ((d_in, d_out), True),
        "base_weight": ((d_in, d_out), True),
        "spline_weight": ((d_in * 8, d_out), True),
        "spline_scaler": ((d_in, d_out), True),
    }
    return [(n,) + shapes[n] for n in names]


class TestParamLayout:
    """The Param order, names, shapes and decay flags are the checkpoint layout."""

    LN = ("ln_gamma", "ln_beta")
    EXPECTED = {
        "mlp": LN + ("weight",),
        "fc-kan": LN + ("weight",),
        "efficient-kan": ("base_weight", "spline_weight", "spline_scaler"),
        "fast-kan": LN + ("base_weight", "spline_weight"),
        "bsrbf-kan": LN + ("base_weight", "spline_weight"),
    }

    @pytest.mark.parametrize("kind", sorted(EXPECTED))
    def test_reference_architecture_layout(self, kind):
        kw = {"functions": ("sin",)} if kind == "fc-kan" else {}
        model = build_model(ModelConfig(kind=kind, widths=(784, 64, 10), **kw))
        got = [(p.name, p.tensor.shape, p.decay) for p in model.params]
        want = [
            (f"layer{i}.{name}", shape, decay)
            for i, (d_in, d_out) in enumerate([(784, 64), (64, 10)])
            for name, shape, decay in _layout(d_in, d_out, self.EXPECTED[kind])
        ]
        assert got == want
        assert [list(layer) for layer in model.layers] == [list(self.EXPECTED[kind])] * 2

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_param_shapes_is_the_built_layout(self, kind):
        kw = {"functions": ("sin", "cos")} if kind == "fc-kan" else {}
        config = ModelConfig(kind=kind, widths=(5, 4, 3, 2), **kw)
        model = build_model(config)
        assert [(f"layer{i}.{name}", shape, decay)
                for i, name, shape, decay in param_shapes(config)] == [
            (p.name, p.tensor.shape, p.decay) for p in model.params]
        assert [model.layers[i][name] for i, name, _, _ in param_shapes(config)] == [
            p.tensor for p in model.params]


class TestForward:
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
    def test_shapes_and_finiteness(self, kind, kw):
        model = build_model(toy_config(kind, **kw))
        logits = model.forward(Tensor(X16))
        assert logits.shape == (4, 4)
        assert np.all(np.isfinite(logits.data))

    def test_width_mismatch(self):
        model = build_model(toy_config("mlp"))
        with pytest.raises(ShapeError, match="model expects 16 input features, got 8"):
            forward_mlp(model, Tensor(np.zeros((2, 8))))

    def test_zero_final_weights_give_zero_logits(self):
        model = build_model(toy_config("mlp"))
        model.layers[-1]["weight"].data[:] = 0.0
        logits = forward_mlp(model, Tensor(np.zeros((3, 16))))
        assert np.all(logits.data == 0.0)

    def test_build_and_forward_deterministic(self):
        a = build_model(toy_config("fc-kan", functions=("sin", "cos")))
        b = build_model(toy_config("fc-kan", functions=("sin", "cos")))
        for pa, pb in zip(a.params, b.params):
            assert np.array_equal(pa.tensor.data, pb.tensor.data)
        la = forward_fckan(a, Tensor(X16))
        lb = forward_fckan(b, Tensor(X16))
        assert np.array_equal(la.data, lb.data)

    def test_doubling_final_weight_doubles_logits(self):
        model = build_model(toy_config("fc-kan", functions=("relu",)))
        base = forward_fckan(model, Tensor(X16)).data.copy()
        model.layers[-1]["weight"].data *= 2.0
        assert np.allclose(forward_fckan(model, Tensor(X16)).data, 2.0 * base, rtol=1e-6)


class TestFckanCombination:
    def test_singleton_is_identity(self):
        model = build_model(toy_config("fc-kan", functions=("sin",)))
        single = _single_pass_logits(model, "sin")
        assert np.array_equal(forward_fckan(model, Tensor(X16)).data, single)

    def test_sum_is_elementwise_sum_of_passes(self):
        model = build_model(
            toy_config("fc-kan", functions=("sin", "cos"), combine="sum")
        )
        o = _single_pass_logits(model, "sin") + _single_pass_logits(model, "cos")
        assert np.allclose(forward_fckan(model, Tensor(X16)).data, o, atol=1e-6)

    def test_product_is_hadamard_of_passes(self):
        model = build_model(
            toy_config("fc-kan", functions=("sin", "arctan"), combine="product")
        )
        o = _single_pass_logits(model, "sin") * _single_pass_logits(model, "arctan")
        assert np.allclose(forward_fckan(model, Tensor(X16)).data, o, atol=1e-6)

    def test_duplicate_function_sum_doubles_single(self):
        single = build_model(toy_config("fc-kan", functions=("cos",)))
        double = build_model(
            toy_config("fc-kan", functions=("cos", "cos"), combine="sum")
        )
        s = forward_fckan(single, Tensor(X16)).data
        d = forward_fckan(double, Tensor(X16)).data
        assert np.allclose(d, 2.0 * s, rtol=1e-6)

    @pytest.mark.parametrize("fns", [FOUR_FNS[:n] for n in range(1, 5)])
    def test_one_layer0_norm_feeds_every_pass(self, fns, monkeypatch):
        made = []

        def recorded(tape, names, x, w, shared=False):
            out = tensor.unary_matmul(tape, names, x, w, shared)
            made.append((out, names, x, shared))
            return out

        monkeypatch.setattr(models, "unary_matmul", recorded)
        model = build_model(toy_config("fc-kan", functions=fns, combine="product"))
        tape = Tape()
        forward_fckan(model, Tensor(X16), tape)
        gamma = model.layers[0]["ln_gamma"]
        norms = [out for out, inputs, _ in tape._nodes if any(t is gamma for t in inputs)]
        assert len(norms) == 1
        h = norms[0]
        readers = [out for out, inputs, _ in tape._nodes if any(t is h for t in inputs)]
        assert len(readers) == 1
        # the one reader is the layer-0 op, running every function of the config on h
        assert [(out, names, x, shared) for out, names, x, shared in made if x is h] == [
            (readers[0], model.config.functions, h, True)]

    def test_layer0_norm_gradients_match_fd(self):
        model = build_model(toy_config("fc-kan", functions=FOUR_FNS, combine="product"))
        first = model.layers[0]

        def loss_builder(tape):
            return softmax_cross_entropy(tape, forward_fckan(model, Tensor(X16), tape), Y16)

        check_grads(loss_builder, [first["ln_gamma"], first["ln_beta"]], metric="vector")


def _stacked(*tensors):
    return Tensor(np.concatenate([t.data for t in tensors]))


class TestCombineOutputs:
    def test_product(self):
        stacked = _stacked(Tensor([[2.0, 3.0]]), Tensor([[4.0, 5.0]]))
        out = combine_outputs(None, stacked, 2, "product")
        assert out.data.tolist() == [[8.0, 15.0]]

    def test_singleton_sum_is_identity(self):
        x = Tensor([[1.5, -2.0]])
        assert combine_outputs(None, x, 1, "sum") is x

    def test_product_with_ones_unchanged(self):
        x = Tensor(RNG.uniform(-1, 1, (2, 3)))
        out = combine_outputs(None, _stacked(x, Tensor(np.ones((2, 3)))), 2, "product")
        assert np.array_equal(out.data, x.data)

    def test_permutation_invariance(self):
        tensors = [Tensor(RNG.uniform(0.5, 1.5, (2, 3))) for _ in range(3)]
        for method in ("sum", "product"):
            a = combine_outputs(None, _stacked(*tensors), 3, method).data
            b = combine_outputs(None, _stacked(*tensors[::-1]), 3, method).data
            assert np.allclose(a, b, rtol=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            combine_outputs(None, Tensor(np.zeros((0, 3))), 0, "sum")


class TestSplineForward:
    def test_zero_spline_weights_reduce_to_base_branch(self):
        model = build_model(toy_config("efficient-kan"))
        full = forward_spline_kan(model, Tensor(X16)).data.copy()
        for layer in model.layers:
            layer["spline_weight"].data[:] = 0.0
        base_only = forward_spline_kan(model, Tensor(X16)).data
        assert not np.allclose(full, base_only)  # spline branch was live
        # recompute the base branch by hand
        from fckan.tensor import matmul, silu

        h = Tensor(X16)
        for layer in model.layers:
            h = matmul(None, silu(None, h), layer["base_weight"])
        assert np.allclose(base_only, h.data, atol=1e-6)

    def test_one_basis_expand_per_layer(self, monkeypatch):
        made = []

        def recorded(tape, x, w, *grids):
            out = basis_expand(tape, x, w, *grids)
            made.append((out, w, grids))
            return out

        monkeypatch.setattr(models, "basis_expand", recorded)
        model = build_model(toy_config("bsrbf-kan"))
        tape = Tape()
        model.forward(Tensor(X16), tape)
        assert [grids for _, _, grids in made] == [model.config.grids] * len(model.layers)
        assert all(w is layer["spline_weight"] for (_, w, _), layer in zip(made, model.layers))
        assert all(any(output is out for output, _, _ in tape._nodes) for out, _, _ in made)

    # nodes one forward records: fc-kan is the paper's, four functions by product
    TAPE_NODES = {"mlp": 5, "fc-kan": 5, "efficient-kan": 12, "fast-kan": 10, "bsrbf-kan": 10}

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_tape_nodes_per_forward(self, kind):
        kw = {"functions": FOUR_FNS, "combine": "product"} if kind == "fc-kan" else {}
        tape = Tape()
        build_model(toy_config(kind, **kw)).forward(Tensor(X16), tape)
        assert len(tape) == self.TAPE_NODES[kind]

    # traced peak MiB of a batch-1000 forward and of a warm batch-64
    # train_step on bench_train_step.py's inputs, each about 3% above its
    # value. A change that lowers a peak lowers its ceiling; one that must
    # raise a ceiling says why, with the bytes.
    PEAK_CEILINGS_MIB = {
        "mlp": (6.21, 1.32),
        "fc-kan": (6.21, 3.00),
        "efficient-kan": (13.33, 13.66),
        "fast-kan": (10.24, 9.69),
        "bsrbf-kan": (15.86, 20.34),
    }

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_traced_peaks_stay_under_their_ceilings(self, kind):
        # tracemalloc sees NumPy's buffers. One float64 grid call over all
        # 784,000 layer-0 inputs of efficient-kan would peak near 146 MiB,
        # and its whole float32 expansion alone takes 24 MiB
        k = Kind(kind, 1)
        k.step_ms()  # AdamW allocates its moments on the first step
        forward, step = self.PEAK_CEILINGS_MIB[kind]
        assert k.forward_peak_mib() <= forward
        assert k.step_peak_mib() <= step


class TestEndToEndGradients:
    @pytest.mark.parametrize(
        "kind,kw",
        [
            ("mlp", {}),
            ("fc-kan", {"functions": ("sin", "cos"), "combine": "sum"}),
            ("fc-kan", {"functions": ("sin", "arctan"), "combine": "product"}),
            ("efficient-kan", {}),
            ("fast-kan", {}),
            ("bsrbf-kan", {}),
        ],
    )
    def test_every_parameter_matches_fd(self, kind, kw):
        model = build_model(toy_config(kind, **kw))
        check_model_grads(model, X16, Y16, tol=1e-2)

    @pytest.mark.parametrize("kind", ["efficient-kan", "bsrbf-kan"])
    def test_a_step_over_several_blocks_matches_one_block(self, kind, monkeypatch):
        # a batch of 200 at the paper's widths is three layer-0 blocks of at
        # most BLOCK // (784 * 8) rows; a BLOCK of 200 * 784 * 8 values makes it one
        m, d, nb = 200, 784, 8
        assert -(-m // (tensor.BLOCK // (d * nb))) == 3
        rng = np.random.default_rng(7)
        xb, yb = rng.random((m, d), dtype=np.float32), rng.integers(0, 10, m)

        def grads():
            model = build_model(ModelConfig(kind=kind, seed=0))
            tape = Tape()
            tape.backward(softmax_cross_entropy(tape, model.forward(Tensor(xb), tape), yb))
            return {p.name: p.tensor.grad for p in model.params}

        blocked = grads()
        monkeypatch.setattr(tensor, "BLOCK", m * d * nb)
        for name, want in grads().items():
            # float32 GEMM rounding: a dot product of layer 0's d * nb terms
            bound = d * nb * 2.0**-23 * np.abs(want).max()
            assert np.abs(blocked[name] - want).max() <= bound, name


@st.composite
def small_models(draw):
    """A random smooth model: 2-4 layers 3-6 wide, with a random grid or
    function set, plus 3 input rows, their labels and a seeded generator.

    relu and B-splines of order 0-1 are left out, since central differences
    across their kinks disagree with any derivative; widths start at 3, since
    a layer norm over 1 or 2 features has a constant output.
    """
    widths = tuple(draw(st.lists(st.integers(3, 6), min_size=3, max_size=5)))
    kind = draw(st.sampled_from(["fc-kan", "efficient-kan", "fast-kan", "bsrbf-kan"]))
    lo, hi = draw(st.floats(-3.0, -1.0)), draw(st.floats(1.0, 3.0))
    if kind == "fc-kan":
        fns = draw(st.lists(st.sampled_from(["sin", "cos", "arctan"]), min_size=1, max_size=4))
        kw = {"functions": fns, "combine": draw(st.sampled_from(["sum", "product"]))}
    elif kind == "fast-kan":
        kw = {"spline": RBFGrid(draw(st.integers(2, 8)), lo, hi)}
    else:
        kw = {"spline": BSplineGrid(draw(st.integers(1, 6)), draw(st.integers(2, 4)), lo, hi)}
    config = ModelConfig(kind, widths=widths, seed=draw(st.integers(0, 2**16)), **kw)
    return model_case(config, draw(st.integers(0, 2**16)))


def model_case(config, seed):
    """config with 3 input rows, their labels and the generator, seeded with
    seed, that drew them."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (3, config.widths[0])).astype(np.float32)
    return config, X, rng.integers(0, config.widths[-1], 3), rng


class TestGradientProperty:
    @settings(max_examples=40, deadline=None)
    @given(small_models())
    # strongly curved losses, on which float32 central differences at one
    # step once missed by more than the tolerance
    @example(model_case(ModelConfig("bsrbf-kan", widths=(5, 5, 3, 3), seed=1,
                                    spline=BSplineGrid(1, 2, -2.0, 1.0)), 2))
    @example(model_case(ModelConfig("fc-kan", widths=(3, 3, 3), functions=("sin", "sin"),
                                    combine="product", seed=11), 2))
    # a loss that curves on a scale below 1e-3: only the ladder's 1e-4 step
    # resolves layer0.base_weight
    @example(model_case(ModelConfig("fast-kan", widths=(6, 3, 6, 3, 3), seed=8704,
                                    spline=RBFGrid(6, -1.1875, 2.0)), 679))
    # a case whose B-spline derivatives the check resolves on every seed: a
    # wrong bspline_derivs fails here, where random draws miss it on some seeds
    @example(model_case(ModelConfig("efficient-kan", widths=(3, 3, 3), seed=0,
                                    spline=BSplineGrid(4, 3, -1.0, 1.0)), 0))
    def test_random_models_match_fd(self, case):
        config, X, y, rng = case
        check_model_grads_scaled(build_model(config), X, y, rng)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = build_model(toy_config("fc-kan", functions=("sin", "cos")))
        path = tmp_path / "model.fckn"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == model.config
        for pa, pb in zip(model.params, loaded.params):
            assert pa.name == pb.name
            assert np.array_equal(pa.tensor.data, pb.tensor.data)
        a = model.forward(Tensor(X16)).data
        b = loaded.forward(Tensor(X16)).data
        assert np.array_equal(a, b)

    def test_header_layout(self, tmp_path):
        model = build_model(toy_config("mlp"))
        path = tmp_path / "model.fckn"
        save_model(model, path)
        raw = path.read_bytes()
        assert raw[:4] == b"FCKN"
        assert int.from_bytes(raw[4:8], "little") == 1

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.fckn"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(CheckpointError, match="magic"):
            load_model(path)

    def test_truncation_rejected(self, tmp_path):
        model = build_model(toy_config("mlp"))
        path = tmp_path / "model.fckn"
        save_model(model, path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(CheckpointError):
            load_model(path)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_load_and_save_is_byte_identical(self, tmp_path, kind):
        kw = {"functions": ("sin", "cos"), "combine": "product"} if kind == "fc-kan" else {}
        path, again = tmp_path / "model.fckn", tmp_path / "again.fckn"
        save_model(build_model(toy_config(kind, **kw)), path)
        save_model(load_model(path), again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("blob", [
        b"{ not json",
        b"\xff\xfe",
        b"[1, 2]",
        b'{"widths": [16, 8, 4]}',
        b'{"kind": "mlp", "widths": "ab"}',
        b'{"kind": "mlp", "widths": null}',
        b'{"kind": "efficient-kan", "spline": [1]}',
        b'{"kind": "mlp", "seed": "x"}',
        b'{"kind": "mlp", "seed": 1.5}',
        b'{"kind": "mlp", "seed": -1}',
        b'{"kind": "mlp", "widths": [4.0, 3]}',
        b'{"kind": "efficient-kan", "spline": {"name": "bspline", "grid_size": 5.0, '
        b'"spline_order": 3, "lo": -1.0, "hi": 1.0}}',
    ], ids=["json", "utf8", "list", "no-kind", "str-widths", "null-widths", "list-spline",
            "str-seed", "float-seed", "negative-seed", "float-widths", "float-grid-size"])
    def test_bad_config_blob_rejected(self, tmp_path, blob):
        path = tmp_path / "model.fckn"
        path.write_bytes(b"FCKN" + struct.pack("<II", 1, len(blob)) + blob)
        with pytest.raises(CheckpointError, match="bad config"):
            load_model(path)

    def test_a_wide_config_is_rejected_before_anything_is_allocated(self, tmp_path):
        # its config claims 60 MiB of weights that the file does not hold
        path = tmp_path / "model.fckn"
        blob = json.dumps(ModelConfig(kind="mlp", widths=(784, 20000)).to_dict()).encode()
        path.write_bytes(b"FCKN" + struct.pack("<II", 1, len(blob)) + blob)
        assert path.stat().st_size == 113
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="truncated"):
                load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_loading_draws_no_random_numbers(self, tmp_path, monkeypatch):
        path = tmp_path / "model.fckn"
        save_model(build_model(toy_config("efficient-kan")), path)

        def no_rng(*args):
            raise AssertionError("load_model drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        monkeypatch.setattr(models, "build_model", no_rng)
        load_model(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_are_rejected_by_name(self, tmp_path, value):
        model = build_model(toy_config("fast-kan"))
        model.layers[1]["spline_weight"].data[3, 2] = value
        path = tmp_path / "model.fckn"
        save_model(model, path)
        with pytest.raises(CheckpointError, match=r"layer1\.spline_weight: .*not all finite"):
            load_model(path)

    def test_a_config_length_past_the_end_allocates_nothing(self, tmp_path):
        path = tmp_path / "model.fckn"
        path.write_bytes(b"FCKN" + struct.pack("<II", 1, 0xFFFFFFF0) + b"{}")
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="config JSON needs 4294967280 bytes"):
                load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_a_stored_shape_other_than_the_configs_is_rejected_by_name(self, tmp_path):
        path = tmp_path / "model.fckn"
        save_model(build_model(toy_config("mlp")), path)
        raw = bytearray(path.read_bytes())
        first = 12 + struct.unpack("<I", raw[8:12])[0]  # layer0.ln_gamma's [1 x 16]
        raw[first:first + 8] = struct.pack("<II", 16, 1)  # the same length, transposed
        path.write_bytes(raw)
        with pytest.raises(CheckpointError,
                           match=r"layer0\.ln_gamma: stored shape \(16, 1\) != expected \(1, 16\)"):
            load_model(path)

    def test_extra_bytes_after_the_tensors_are_rejected(self, tmp_path):
        path = tmp_path / "model.fckn"
        save_model(build_model(toy_config("mlp")), path)
        path.write_bytes(path.read_bytes() + bytes(4))
        with pytest.raises(CheckpointError, match="trailing bytes"):
            load_model(path)

    def test_every_truncation_offset_rejected(self, tmp_path):
        model = build_model(ModelConfig(kind="mlp", widths=(4, 3, 2), seed=0))
        path = tmp_path / "model.fckn"
        save_model(model, path)
        raw = path.read_bytes()
        cut = tmp_path / "cut.fckn"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(CheckpointError):
                load_model(cut)


@functools.cache
def _checkpoint_bytes(kind: str) -> bytes:
    """A small checkpoint of the kind, as save_model writes it."""
    kw = {"functions": ("sin", "cos"), "combine": "product"} if kind == "fc-kan" else {}
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "model.fckn")
        save_model(build_model(ModelConfig(kind=kind, widths=(4, 3, 2), **kw)), path)
        with open(path, "rb") as f:
            return f.read()


@st.composite
def mutated_checkpoints(draw):
    """A small checkpoint with bytes overwritten, cut off or appended."""
    raw = bytearray(_checkpoint_bytes(draw(st.sampled_from(MODEL_KINDS))))
    for _ in range(draw(st.integers(0, 4))):
        raw[draw(st.integers(0, len(raw) - 1))] = draw(st.integers(0, 255))
    cut = draw(st.integers(0, len(raw)))
    tail = draw(st.binary(max_size=8))
    return bytes(raw[:cut] + tail) if draw(st.booleans()) else bytes(raw)


class TestCheckpointProperty:
    # one file per example, rewritten in the test's own directory
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutated_checkpoints())
    def test_mutated_bytes_load_or_raise_checkpoint_error(self, tmp_path, raw):
        path = tmp_path / "model.fckn"
        path.write_bytes(raw)
        try:
            model = load_model(path)
        except CheckpointError:
            return
        assert all(np.isfinite(p.tensor.data).all() for p in model.params)


def _single_pass_logits(model: Model, fn: str) -> np.ndarray:
    """Logits of the same parameters with the function set reduced to fn."""
    single = replace(model, config=replace(model.config, functions=(fn,)))
    return forward_fckan(single, Tensor(X16)).data
