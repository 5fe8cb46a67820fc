import functools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fckan import kernels, tensor
from fckan.basis import BSplineGrid, ConfigError, RBFGrid
from fckan.tensor import (
    LabelError,
    ShapeError,
    Tape,
    TapeError,
    Tensor,
    apply_unary,
    basis_expand,
    elementwise,
    fold_rows,
    layer_norm,
    matmul,
    repeat_rows,
    silu,
    softmax_cross_entropy,
    unary_matmul,
)
from gradcheck import check_grads, sum_all, weighted_sum


def test_tensor_is_2d_float32():
    t = Tensor([[1, 2, 3]])
    assert t.shape == (1, 3)
    assert t.data.dtype == np.float32
    for data in (1.0, [1, 2, 3], np.zeros(0), np.zeros((2, 2, 2))):
        with pytest.raises(ShapeError, match=r"tensors are 2-D, got shape \("):
            Tensor(data)


class TestMatmul:
    def test_identity(self):
        x = Tensor([[3, 4], [5, 6]])
        out = matmul(None, Tensor(np.eye(2)), x)
        assert np.array_equal(out.data, x.data)

    def test_hand_product(self):
        out = matmul(None, Tensor([[1, 2]]), Tensor([[3], [4]]))
        assert out.data.tolist() == [[11.0]]

    def test_shape_error_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(None, Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_grad_of_plain_sum_matches_fd(self):
        # d sum(A @ B) / dA = row sums of B, all >= 1 with B in [0.5, 1.5]
        rng = np.random.default_rng(3)
        a = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(0.5, 1.5, (4, 2)))
        check_grads(
            lambda t: sum_all(t, matmul(t, a, b)), [a], eps=1e-3, tol=1e-3
        )

    def test_grads_of_both_operands(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-2, 2, (4, 2)), requires_grad=True)
        r = rng.uniform(0.5, 1.5, (3, 2)).astype(np.float32)
        check_grads(lambda t: weighted_sum(t, matmul(t, a, b), r), [a, b])


class TestApplyUnary:
    def test_relu_definition(self):
        out = apply_unary(None, "relu", Tensor([[-1.0, 0.0, 2.5]]))
        assert out.data.tolist() == [[0.0, 0.0, 2.5]]

    def test_known_values(self):
        assert apply_unary(None, "sin", Tensor([[0.0]])).item() == 0.0
        assert apply_unary(None, "cos", Tensor([[0.0]])).item() == 1.0

    def test_rejects_non_elementwise(self):
        with pytest.raises(ConfigError):
            apply_unary(None, "bspline", Tensor([[0.0]]))
        with pytest.raises(ConfigError):
            apply_unary(None, "dog", Tensor([[0.0]]))

    def test_arctan_grad_at_one(self):
        x = Tensor([[1.0]], requires_grad=True)
        tape = Tape()
        loss = sum_all(tape, apply_unary(tape, "arctan", x))
        tape.backward(loss)
        assert x.grad[0, 0] == pytest.approx(0.5, abs=1e-7)
        # and against the finite-difference oracle
        check_grads(
            lambda t: sum_all(t, apply_unary(t, "arctan", x)), [x], tol=1e-4
        )

    def test_relu_grad_zero_at_zero(self):
        x = Tensor([[0.0]], requires_grad=True)
        tape = Tape()
        tape.backward(sum_all(tape, apply_unary(tape, "relu", x)))
        assert x.grad[0, 0] == 0.0

    @pytest.mark.parametrize("kind", ["relu", "sin", "cos", "arctan"])
    def test_grad_matches_fd(self, kind):
        rng = np.random.default_rng(11)
        # keep points away from relu's kink so central differences are valid
        vals = rng.uniform(-2, 2, (2, 6))
        vals[np.abs(vals) < 0.05] += 0.1
        x = Tensor(vals, requires_grad=True)
        r = rng.uniform(0.5, 1.5, (2, 6)).astype(np.float32)
        check_grads(lambda t: weighted_sum(t, apply_unary(t, kind, x), r), [x])


class TestElementwise:
    def test_add_mul(self):
        a, b = Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]])
        assert elementwise(None, "add", a, b).data.tolist() == [[4.0, 6.0]]
        assert elementwise(None, "mul", a, b).data.tolist() == [[3.0, 8.0]]

    def test_mul_by_ones_is_identity(self):
        x = Tensor(np.random.default_rng(0).uniform(-2, 2, (3, 5)))
        out = elementwise(None, "mul", x, Tensor(np.ones((3, 5))))
        assert np.array_equal(out.data, x.data)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            elementwise(None, "add", Tensor([[1.0]]), Tensor([[1.0, 2.0]]))

    def test_unknown_op_is_a_config_error(self):
        with pytest.raises(ConfigError, match="'sub'"):
            elementwise(None, "sub", Tensor([[1.0]]), Tensor([[2.0]]))

    def test_mul_backward_routes_other_operand(self):
        a = Tensor([[2.0, 3.0]], requires_grad=True)
        b = Tensor([[5.0, 7.0]], requires_grad=True)
        tape = Tape()
        tape.backward(sum_all(tape, elementwise(tape, "mul", a, b)))
        assert a.grad.tolist() == [[5.0, 7.0]]
        assert b.grad.tolist() == [[2.0, 3.0]]

    def test_grads_match_fd(self):
        rng = np.random.default_rng(12)
        a = Tensor(rng.uniform(0.5, 2, (2, 4)), requires_grad=True)
        b = Tensor(rng.uniform(0.5, 2, (2, 4)), requires_grad=True)
        r = rng.uniform(0.5, 1.5, (2, 4)).astype(np.float32)
        check_grads(
            lambda t: weighted_sum(t, elementwise(t, "mul", a, b), r), [a, b]
        )


class TestLayerNorm:
    def test_constant_row_collapses_to_beta(self):
        out = layer_norm(
            None, Tensor([[5.0, 5.0, 5.0]]), Tensor(np.ones((1, 3))), Tensor(np.zeros((1, 3)))
        )
        assert out.data.tolist() == [[0.0, 0.0, 0.0]]

    def test_two_point_row_exact(self):
        # deviations [-1, 1] with variance 1, so the output is exactly
        # [-1, 1] / sqrt(1 + LN_EPS) rounded to float32
        out = layer_norm(
            None, Tensor([[1.0, 3.0]]), Tensor(np.ones((1, 2))), Tensor(np.zeros((1, 2)))
        )
        want = np.float32(np.array([[-1.0, 1.0]]) / np.sqrt(1 + 1e-5))
        assert out.data.tobytes() == want.tobytes()

    def test_empty_rows_rejected(self):
        with pytest.raises(ShapeError):
            layer_norm(
                None, Tensor(np.zeros((2, 0))), Tensor(np.zeros((1, 0))),
                Tensor(np.zeros((1, 0))),
            )

    def test_grads_match_fd(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.uniform(-2, 2, (4, 8)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, (1, 8)), requires_grad=True)
        beta = Tensor(rng.uniform(-0.5, 0.5, (1, 8)), requires_grad=True)
        r = rng.uniform(0.5, 1.5, (4, 8)).astype(np.float32)

        def build(t):
            return weighted_sum(t, layer_norm(t, x, gamma, beta), r)

        check_grads(build, [gamma, beta], eps=1e-3, tol=1e-3, metric="vector")
        check_grads(build, [x], eps=1e-3, tol=1e-3, metric="vector")
        check_grads(build, [x, gamma, beta])  # per-element at the 1e-2 gate


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss = softmax_cross_entropy(None, Tensor(np.zeros((4, 10))), np.zeros(4, int))
        assert loss.item() == pytest.approx(np.log(10.0), rel=1e-6)

    def test_confident_correct_is_near_zero(self):
        loss = softmax_cross_entropy(None, Tensor([[10.0, -10.0]]), [0])
        assert loss.item() == pytest.approx(2.0612537e-9, rel=1e-3)

    def test_label_out_of_range(self):
        with pytest.raises(LabelError, match="label 3 at index 1"):
            softmax_cross_entropy(None, Tensor(np.zeros((2, 3))), [0, 3])

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(31)
        logits = Tensor(rng.uniform(-1, 1, (3, 5)), requires_grad=True)
        y = np.array([0, 2, 4])
        check_grads(
            lambda t: softmax_cross_entropy(t, logits, y),
            [logits],
            eps=1e-3,
            tol=1e-3,
            metric="vector",
        )

    def test_backward_is_softmax_minus_onehot(self):
        logits = Tensor([[0.0, 0.0]], requires_grad=True)
        tape = Tape()
        tape.backward(softmax_cross_entropy(tape, logits, [1]))
        assert logits.grad[0].tolist() == pytest.approx([0.5, -0.5], abs=1e-7)


class TestSilu:
    def test_values(self):
        assert silu(None, Tensor([[0.0]])).item() == 0.0
        assert silu(None, Tensor([[10.0]])).item() == pytest.approx(10.0, rel=1e-4)

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.uniform(-2, 2, (2, 5)), requires_grad=True)
        r = rng.uniform(0.5, 1.5, (2, 5)).astype(np.float32)
        check_grads(lambda t: weighted_sum(t, silu(t, x), r), [x])


def _grids(entry):
    """The grids of a TestBasisExpand.GRIDS entry: one grid or a tuple of them."""
    return entry if isinstance(entry, tuple) else (entry,)


def _grids_id(entry):
    return "+".join(g.name for g in _grids(entry))


class TestBasisExpand:
    """basis_expand(tape, x, w, *grids) expands x in the fewest blocks of at
    most BLOCK // (d*nb) rows (at least one), split evenly, and multiplies
    each block by w into its output rows. It
    must give the bits of that product written out block by block: one call
    per grid over the block's inputs, their float64 values added in grid
    order and cast to float32 once, times w. With a tape, dw is one product:
    the whole expansion's transpose times dout. With a tape and an input that
    requires grad it takes each block's derivatives in the forward pass, from
    that block's values pass, and sums them as it sums the values; otherwise
    it takes none."""

    B = 56  # float32 values of a block's expansion
    O = 3  # columns of the random w
    # [m x d] shapes of 0 rows, one block, and several blocks of at most
    # B // (d*nb) rows: at nb = 8, 7 of one input, 2 of three, 1 of four or
    # eleven; at nb = 4, 14, 4, 3 and 1
    SHAPES = [(0, 3), (1, 1), (2, 3), (7, 1), (9, 1), (5, 3), (3, 4), (2, 11)]
    # single grids, then the pair a bsrbf-kan layer sums
    GRIDS = [BSplineGrid(), BSplineGrid(3, 1, -0.5, 2.0), RBFGrid(),
             (BSplineGrid(5, 3, -1.5, 1.5), RBFGrid(8, -1.5, 1.5))]

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(tensor, "BLOCK", self.B)

    @pytest.fixture
    def calls(self, monkeypatch):
        """Calls of each grid kernel, counted under its name in fckan.kernels."""
        counts = {}
        for name in ("bspline_values", "bspline_derivs", "rbf_values", "rbf_derivs"):
            def counted(*args, _name=name, _kernel=getattr(kernels, name)):
                counts[_name] = counts.get(_name, 0) + 1
                return _kernel(*args)
            monkeypatch.setattr(kernels, name, counted)
        return counts

    @staticmethod
    def inputs(shape, grid):
        # NaN, +-inf, the grid's ends and points outside the knot span, then
        # random points in and around it, in a random order
        m, d = shape
        rng = np.random.default_rng(m * 100 + d)
        span = grid.hi - grid.lo
        special = [np.nan, np.inf, -np.inf, grid.lo, grid.hi,
                   grid.lo - 2 * span, grid.hi + 2 * span]
        pool = np.concatenate([special, rng.uniform(grid.lo - span, grid.hi + span, m * d)])
        return rng.permutation(pool[:m * d]).astype(np.float32).reshape(m, d)

    def weights(self, shape, grids, requires_grad=True):
        d, nb = shape[1], grids[0].num_basis
        w = np.random.default_rng(5).uniform(-1, 1, (d * nb, self.O))
        return Tensor(w, requires_grad=requires_grad)

    @staticmethod
    def summed(arrays):
        """The first float64 array plus each later one, in grid order."""
        total = arrays[0]
        for a in arrays[1:]:
            total = total + a
        return total

    def blocks(self, x, grids):
        """(rows, float64 inputs, float32 [rows x d*nb] expansion) per block of x."""
        m, d = x.shape
        out = []
        for a, b in self.bounds(m, d, grids[0].num_basis):
            flat = x.data[a:b].ravel().astype(np.float64)
            e = self.summed([g.values(flat) for g in grids]).astype(np.float32)
            out.append((slice(a, b), flat, e.reshape(b - a, -1)))
        return out

    def bounds(self, m, d, nb):
        """(start, stop) of the fewest blocks of at most B // (d*nb) rows (at
        least one) over m rows, split evenly."""
        k = -(-m // max(1, self.B // (d * nb)))
        return [(m * i // k, m * (i + 1) // k) for i in range(k)]

    def product(self, x, w, grids):
        """The per-block expansion of x times w."""
        want = np.zeros((x.shape[0], w.shape[1]), dtype=np.float32)
        for rows, _, e in self.blocks(x, grids):
            want[rows] = e @ w.data
        return want

    @pytest.mark.parametrize("grid", GRIDS, ids=_grids_id)
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_product_and_grads_equal_the_blockwise_product_bit_for_bit(self, grid, shape):
        grids = _grids(grid)
        m, d = shape
        nb = grids[0].num_basis
        x = Tensor(self.inputs(shape, grids[0]), requires_grad=True)
        w = self.weights(shape, grids)
        tape = Tape()
        out = basis_expand(tape, x, w, *grids)
        want = self.product(x, w, grids)
        assert out.shape == (m, self.O) and out.data.tobytes() == want.tobytes()

        r = np.random.default_rng(3).uniform(0.5, 1.5, (m, self.O)).astype(np.float32)
        tape.backward(weighted_sum(tape, out, r))
        # as Tensor._accumulate adds them to zeros: the blocks' dx, and dw of
        # the blocks' expansions put together
        want_dx = np.zeros((m, d), dtype=np.float32)
        expansion = np.empty((m, d * nb), dtype=np.float32)
        other = np.zeros((m, d), dtype=np.float32)
        for rows, flat, e in self.blocks(x, grids):
            dvalues = (r[rows] @ w.data.T).reshape(-1, nb)
            derivs = self.summed([g.values_and_derivs(flat)[1] for g in grids])
            dx = np.einsum("ij,ij->i", dvalues, derivs).astype(np.float32)
            want_dx[rows] += dx.reshape(-1, d)
            # the same float64 products summed in another order
            other[rows] = (dvalues * derivs).sum(axis=1).astype(np.float32).reshape(-1, d)
            expansion[rows] = e
        want_dw = np.zeros_like(w.data)
        want_dw += expansion.T @ r
        assert x.grad.tobytes() == want_dx.tobytes()
        assert w.grad.tobytes() == want_dw.tobytes()
        # differ by float64 rounding only, which is below a float32 step
        np.testing.assert_allclose(x.grad, other, rtol=2.0**-23, atol=0, equal_nan=True)

    @pytest.mark.parametrize("grid", GRIDS, ids=_grids_id)
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_values_and_dx_equal_one_call_bit_for_bit(self, grid, shape):
        # with w the identity, the product is the expansion: one call per
        # grid over all of x, on every row free of NaN (NaN * 0 fills a row)
        grids = _grids(grid)
        m, d = shape
        nb = grids[0].num_basis
        x = Tensor(self.inputs(shape, grids[0]), requires_grad=True)
        eye = Tensor(np.eye(d * nb))
        flat = x.data.ravel().astype(np.float64)
        tape = Tape()
        out = basis_expand(tape, x, eye, *grids)
        want = self.summed([g.values(flat) for g in grids]).astype(np.float32).reshape(m, d * nb)
        clean = ~np.isnan(want).any(axis=1)
        assert out.shape == (m, d * nb) and (m == 0 or not clean.all())  # each row set holds a NaN
        assert out.data[clean].tobytes() == want[clean].tobytes()
        assert np.isnan(out.data[~clean]).all()

        r = np.random.default_rng(3).uniform(0.5, 1.5, (m, d * nb)).astype(np.float32)
        tape.backward(weighted_sum(tape, out, r))
        derivs = self.summed([g.values_and_derivs(flat)[1] for g in grids])
        dx = np.einsum("ij,ij->i", r.reshape(m * d, nb), derivs).astype(np.float32)
        want_grad = np.zeros((m, d), dtype=np.float32)
        want_grad += dx.reshape(m, d)  # as Tensor._accumulate adds it
        assert x.grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("grid", GRIDS, ids=_grids_id)
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_derivatives_once_per_block_in_the_forward_pass(self, grid, shape, calls):
        grids = _grids(grid)
        m, d = shape
        blocks = len(self.bounds(m, d, grids[0].num_basis))
        x = Tensor(self.inputs(shape, grids[0]), requires_grad=True)
        w = self.weights(shape, grids)
        tape = Tape()
        out = basis_expand(tape, x, w, *grids)
        assert calls == ({f"{g.name}_{part}": blocks for g in grids
                          for part in ("values", "derivs")} if blocks else {})
        before = dict(calls)
        tape.backward(sum_all(tape, out))
        assert calls == before
        assert x.grad.shape == (m, d) and w.grad.shape == w.shape

    @pytest.mark.parametrize("grid", GRIDS, ids=_grids_id)
    @pytest.mark.parametrize("taped,x_grad,w_grad", [(False, True, True), (True, False, True),
                                                     (True, False, False)],
                             ids=["no-tape", "no-x-grad", "no-grad"])
    def test_no_derivatives_without_a_tape_or_a_grad(self, grid, taped, x_grad, w_grad, calls):
        grids = _grids(grid)
        shape = (5, 3)  # blocks of 1, 2 and 2 rows at nb = 8, of 2 and 3 at nb = 4
        x = Tensor(self.inputs(shape, grids[0]), requires_grad=x_grad)
        w = self.weights(shape, grids, w_grad)
        out = basis_expand(Tape() if taped else None, x, w, *grids)
        blocks = len(self.bounds(5, 3, grids[0].num_basis))
        assert blocks == (3 if grids[0].num_basis == 8 else 2)
        assert calls == {f"{g.name}_values": blocks for g in grids}
        assert out.data.tobytes() == self.product(x, w, grids).tobytes()

    @pytest.mark.parametrize("grid", GRIDS, ids=_grids_id)
    @pytest.mark.parametrize("x_grad", [False, True], ids=["x", "x-grad"])
    @pytest.mark.parametrize("w_grad", [False, True], ids=["w", "w-grad"])
    def test_grads_only_for_operands_that_require_them(self, grid, x_grad, w_grad):
        grids = _grids(grid)
        shape = (5, 3)
        x = Tensor(self.inputs(shape, grids[0]), requires_grad=x_grad)
        w = self.weights(shape, grids, w_grad)
        tape = Tape()
        out = basis_expand(tape, x, w, *grids)
        output, inputs, backward_fn = tape._nodes[-1]
        assert output is out and inputs[0] is x and inputs[1] is w
        dx, dw = backward_fn(np.ones_like(out.data))
        assert (dx is None) != x_grad and (dw is None) != w_grad
        assert dx is None or dx.shape == x.shape
        assert dw is None or dw.shape == w.shape

    def test_no_grid_is_a_shape_error(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        with pytest.raises(ShapeError, match="one or more grids"):
            basis_expand(Tape(), x, Tensor(np.zeros((0, 4))))

    def test_grids_of_different_sizes_are_a_shape_error(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        with pytest.raises(ShapeError, match=r"of one size, got sizes \[8, 7\]"):
            basis_expand(Tape(), x, Tensor(np.zeros((24, 4))), BSplineGrid(5, 3), RBFGrid(7))

    @pytest.mark.parametrize("rows", [0, 23, 25, 3])
    def test_w_of_the_wrong_row_count_is_a_shape_error(self, rows):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        with pytest.raises(ShapeError, match=rf"needs 24 rows of w, got \({rows}, 4\)"):
            basis_expand(Tape(), x, Tensor(np.zeros((rows, 4))), BSplineGrid(5, 3))

    @pytest.mark.parametrize("shape", [(3, 3), (4, 4), (24, 4), (1, 4), (3, 1)])
    def test_a_scaler_other_than_one_row_per_feature_is_a_shape_error(self, shape):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        message = re.escape(f"one row per feature, (3, 4), got {shape}")
        with pytest.raises(ShapeError, match=message):
            basis_expand(Tape(), x, Tensor(np.zeros((24, 4))), BSplineGrid(5, 3),
                         scaler=Tensor(np.zeros(shape)))


def _within(got, want, bound):
    """got is want up to bound elementwise, NaN where want is NaN."""
    assert got.shape == want.shape
    assert (np.isnan(got) & np.isnan(want) | (np.abs(got - want) <= bound)).all()


@settings(max_examples=80, deadline=None)
@given(m=st.integers(0, 9), d=st.integers(1, 6), o=st.integers(1, 4),
       grid=st.sampled_from(TestBasisExpand.GRIDS), block=st.integers(1, 160),
       taped=st.booleans(), identity=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_basis_expand_blocks_match_one_block(m, d, o, grid, block, taped, identity, seed):
    """Any BLOCK gives the one-block product and dx within float32 GEMM
    rounding and dw bit for bit; where w is the identity, the product and dx
    bit for bit too."""
    grids = _grids(grid)
    nb = grids[0].num_basis
    lo, hi = grids[0].lo, grids[0].hi
    rng = np.random.default_rng(seed)
    x = rng.uniform(2 * lo - hi, 2 * hi - lo, (m, d))
    special = rng.random((m, d)) < 0.1
    x[special] = rng.choice([np.nan, np.inf, -np.inf, lo, hi], special.sum())
    w = np.eye(d * nb) if identity else rng.uniform(-1, 1, (d * nb, o))
    dout = rng.uniform(-1, 1, (m, w.shape[1])).astype(np.float32)

    def run(values):
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        tape = Tape() if taped else None
        with mock.patch.object(tensor, "BLOCK", values):
            out = basis_expand(tape, xt, wt, *grids)
        dx, dw = tape._nodes[-1][2](dout) if taped else (None, None)
        return out.data, dx, dw, wt.data

    out, dx, dw, w32 = run(block)
    one_out, one_dx, one_dw, _ = run(tensor.BLOCK)  # m * d * nb <= 432: one block
    flat = x.astype(np.float32).ravel().astype(np.float64)
    values, derivs = zip(*(g.values_and_derivs(flat) for g in grids))
    e = np.abs(sum(values)).reshape(m, d * nb)
    u = 2.0**-23  # two float32 results, each within k/2 steps of the exact sum of k terms
    if identity:
        clean = ~np.isnan(one_out).any(axis=1)
        assert out[clean].tobytes() == one_out[clean].tobytes()
        assert np.isnan(out[~clean]).all()
    else:
        _within(out, one_out, d * nb * u * (e @ np.abs(w32)))
    if not taped:
        return
    if identity:
        assert dx.tobytes() == one_dx.tobytes()
    else:
        dvalues = (o * u * (np.abs(dout) @ np.abs(w32).T)).reshape(m * d, nb)
        casts = u * np.abs(one_dx).ravel()  # each result's one cast to float32
        _within(dx, one_dx, (sum((dvalues * np.abs(g)).sum(axis=1) for g in derivs)
                             + casts).reshape(m, d))
    # the same expansion, whatever the blocks, times dout in one product
    assert dw.tobytes() == one_dw.tobytes()


@settings(max_examples=80, deadline=None)
@given(nb=st.integers(1, 8), order=st.integers(0, 3), rbf=st.booleans(), d=st.integers(1, 4),
       o=st.integers(1, 3), blocks=st.integers(1, 3), per=st.integers(1, 3),
       frozen=st.tuples(st.booleans(), st.booleans(), st.booleans()), taped=st.booleans(),
       data=st.data())
def test_a_scaler_is_the_bits_of_a_repeat_rows_product(nb, order, rbf, d, o, blocks, per,
                                                         frozen, taped, data):
    """basis_expand(..., scaler=s) gives the output, dx, dw and ds of
    basis_expand of w times repeat_rows(s, nb) elementwise, bit for bit, over
    1-3 row blocks, with x, w or s each frozen or not."""
    k = min(order, nb - 1)
    grids = (BSplineGrid(nb - k, k, -1.5, 1.5),) + ((RBFGrid(nb, -1.5, 1.5),) if rbf and nb > 1
                                                    else ())
    m = data.draw(st.integers((blocks - 1) * per + 1, blocks * per), label="m")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x = rng.uniform(-2.5, 2.5, (m, d))
    x[rng.random((m, d)) < 0.1] = 1.5  # the grids' end
    w, s = rng.uniform(-1, 1, (d * nb, o)), rng.uniform(-2, 2, (d, o))
    dout = rng.uniform(0.5, 1.5, (m, o)).astype(np.float32)

    def run(scaled):
        xt, wt, scaler = (Tensor(a, requires_grad=not f) for a, f in zip((x, w, s), frozen))
        tape = Tape() if taped else None
        with mock.patch.object(tensor, "BLOCK", per * d * nb):
            assert len(tensor._row_blocks(m, d * nb)) == blocks
            if scaled:
                out = basis_expand(tape, xt, wt, *grids, scaler=scaler)
            else:
                scaled_w = elementwise(tape, "mul", wt, repeat_rows(tape, scaler, nb))
                out = basis_expand(tape, xt, scaled_w, *grids)
        if taped:
            tape.backward(weighted_sum(tape, out, dout))
        return [out.data] + [t.grad for t in (xt, wt, scaler)]

    for got, want in zip(run(True), run(False)):
        assert (got is None and want is None) or got.tobytes() == want.tobytes()


FCKAN_FNS = ("sin", "cos", "arctan", "relu")


def _per_function(names, x, w, shared, dout):
    """apply_unary then matmul per function, on one tape whose loss gives each
    output its rows of dout: the stacked outputs, dx and dw."""
    n = len(names)
    m = x.shape[0] if shared else x.shape[0] // n
    tape = Tape()
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    xs = [xt] * n if shared else [Tensor(x[f * m:(f + 1) * m], requires_grad=True)
                                  for f in range(n)]
    outs = [matmul(tape, apply_unary(tape, name, xf), wt) for name, xf in zip(names, xs)]
    losses = [weighted_sum(tape, o, dout[f * m:(f + 1) * m]) for f, o in enumerate(outs)]
    tape.backward(functools.reduce(lambda a, b: elementwise(tape, "add", a, b), losses))
    dx = xt.grad if shared else np.concatenate([xf.grad for xf in xs])
    return np.concatenate([o.data for o in outs]), dx, wt.grad


@settings(max_examples=80, deadline=None)
@given(names=st.lists(st.sampled_from(FCKAN_FNS), min_size=1, max_size=4),
       m=st.integers(0, 9), d=st.integers(1, 6), o=st.integers(1, 4),
       shared=st.booleans(), block=st.integers(1, 30), identity=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
# an untaped batch of 9 rows in five scratch blocks of 1 or 2 rows
@example(names=list(FCKAN_FNS), m=9, d=3, o=2, shared=True, block=7, identity=False, seed=0)
@example(names=list(FCKAN_FNS), m=9, d=3, o=3, shared=False, block=7, identity=True, seed=1)
def test_unary_matmul_matches_one_op_per_function(names, m, d, o, shared, block, identity,
                                                  seed):
    """Untaped in scratch blocks of any BLOCK, and taped, the outputs are
    the per-function ops', and so are dx and dw, within float32 GEMM rounding;
    where w is the identity, the outputs and dx bit for bit."""
    n = len(names)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-4, 4, (m if shared else n * m, d)).astype(np.float32)
    w = np.eye(d, dtype=np.float32) if identity else rng.uniform(-1, 1, (d, o)).astype(np.float32)
    dout = rng.uniform(-1, 1, (n * m, w.shape[1])).astype(np.float32)
    ref_out, ref_dx, ref_dw = _per_function(names, x, w, shared, dout)

    with mock.patch.object(tensor, "BLOCK", block):
        untaped = unary_matmul(None, names, Tensor(x), Tensor(w, requires_grad=True), shared)
    tape = Tape()
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    out = unary_matmul(tape, names, xt, wt, shared)
    tape.backward(weighted_sum(tape, out, dout))
    assert untaped.shape == out.shape == ref_out.shape

    xs = [x] * n if shared else np.split(x, n)
    values = np.concatenate([kernels.unary_values(f, xf) for f, xf in zip(names, xs)])
    derivs = [np.abs(kernels.unary_derivs(f, xf)) for f, xf in zip(names, xs)]
    u = 2.0**-23  # two float32 results, each within k/2 steps of the exact sum of k terms
    if identity:
        assert untaped.data.tobytes() == out.data.tobytes() == ref_out.tobytes()
        assert xt.grad.tobytes() == ref_dx.tobytes()
    else:
        bound = d * u * (np.abs(values) @ np.abs(w))
        _within(untaped.data, ref_out, bound)
        _within(out.data, ref_out, bound)
        # each function's rows of dout @ w.T, times its derivative, summed over
        # the functions if x is shared
        terms = [(np.abs(g) @ np.abs(w).T) * df for g, df in zip(np.split(dout, n), derivs)]
        scale = sum(terms) if shared else np.concatenate(terms)
        _within(xt.grad, ref_dx, (o + n + 1) * u * scale)
    _within(wt.grad, ref_dw, n * m * u * (np.abs(values).T @ np.abs(dout)))


class TestUnaryMatmul:
    def test_a_name_outside_the_fckan_functions_is_a_config_error(self):
        x, w = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 1)))
        for names in (("sin", "tan"), ("silu",), ()):
            with pytest.raises(ConfigError, match="unary_matmul takes"):
                unary_matmul(None, names, x, w)

    @pytest.mark.parametrize("shared", [True, False])
    def test_w_of_the_wrong_row_count_is_a_shape_error(self, shared):
        with pytest.raises(ShapeError, match=r"3 features needs 3 rows of w, got \(4, 1\)"):
            unary_matmul(None, ("sin", "cos"), Tensor(np.zeros((2, 3))),
                         Tensor(np.zeros((4, 1))), shared)

    def test_stacked_rows_must_split_into_one_block_per_function(self):
        with pytest.raises(ShapeError, match="3 rows of x"):
            unary_matmul(None, ("sin", "cos"), Tensor(np.zeros((3, 2))), Tensor(np.zeros((2, 1))))

    def test_untaped_values_go_through_one_scratch_block_at_a_time(self, monkeypatch):
        # a BLOCK of 7 values over 3 inputs a row: blocks of at most 2 rows,
        # the fewest of them, 3 per function, with 5 rows split evenly
        monkeypatch.setattr(tensor, "BLOCK", 7)
        seen, values = [], kernels.unary_values

        def recorded(name, x, out=None):
            seen.append((name, x.shape, out.__array_interface__["data"][0]))
            return values(name, x, out=out)

        monkeypatch.setattr(kernels, "unary_values", recorded)
        unary_matmul(None, ("sin", "relu"), Tensor(np.ones((5, 3))), Tensor(np.ones((3, 2))),
                     shared=True)
        assert [(name, shape) for name, shape, _ in seen] == [
            (f, s) for f in ("sin", "relu") for s in ((1, 3), (2, 3), (2, 3))]
        assert len({at for _, _, at in seen}) == 1


class TestFoldRows:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("op,name", [(np.add, "add"), (np.multiply, "mul")])
    def test_forward_and_grads_are_the_bits_of_a_chain_of_elementwise_ops(self, n, op, name):
        rng = np.random.default_rng(n)
        blocks = [rng.uniform(-2, 2, (3, 4)).astype(np.float32) for _ in range(n)]
        r = rng.uniform(-1, 1, (3, 4)).astype(np.float32)
        parts = [Tensor(b, requires_grad=True) for b in blocks]
        chain_tape = Tape()
        chain = functools.reduce(lambda a, b: elementwise(chain_tape, name, a, b), parts)
        chain_tape.backward(weighted_sum(chain_tape, chain, r))
        x = Tensor(np.concatenate(blocks), requires_grad=True)
        tape = Tape()
        out = fold_rows(tape, op, x, n)
        tape.backward(weighted_sum(tape, out, r))
        assert out.data.tobytes() == chain.data.tobytes()
        assert x.grad.tobytes() == np.concatenate([p.grad for p in parts]).tobytes()

    @pytest.mark.parametrize("op", [np.add, np.multiply], ids=["add", "multiply"])
    def test_one_block_is_x_itself_and_records_nothing(self, op):
        x, tape = Tensor(np.ones((2, 3)), requires_grad=True), Tape()
        assert fold_rows(tape, op, x, 1) is x
        assert len(tape) == 0

    def test_product_by_hand(self):
        out = fold_rows(None, np.multiply, Tensor([[2.0, 3.0], [4.0, 5.0]]), 2)
        assert out.data.tolist() == [[8.0, 15.0]]

    def test_product_with_ones_unchanged(self):
        x = np.random.default_rng(0).uniform(-1, 1, (2, 3)).astype(np.float32)
        out = fold_rows(None, np.multiply, Tensor(np.concatenate([x, np.ones((2, 3))])), 2)
        assert out.data.tobytes() == x.tobytes()

    @pytest.mark.parametrize("op", [np.add, np.multiply], ids=["add", "multiply"])
    def test_block_order_changes_only_rounding(self, op):
        blocks = np.random.default_rng(1).uniform(0.5, 1.5, (3, 2, 3)).astype(np.float32)
        a = fold_rows(None, op, Tensor(blocks.reshape(6, 3)), 3).data
        b = fold_rows(None, op, Tensor(blocks[::-1].reshape(6, 3)), 3).data
        np.testing.assert_allclose(a, b, rtol=1e-6)

    def test_bad_op_or_block_count(self):
        x = Tensor(np.ones((4, 3)))
        with pytest.raises(ConfigError, match="np.add or np.multiply"):
            fold_rows(None, np.subtract, x, 2)
        for rows in (x, Tensor(np.zeros((0, 3)))):
            with pytest.raises(ConfigError, match="one or more row blocks"):
                fold_rows(None, np.add, rows, 0)
        with pytest.raises(ShapeError, match="4 rows do not split into 3 blocks"):
            fold_rows(None, np.add, x, 3)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor([[1.0, 2.0, 3.0]], requires_grad=True)
        tape = Tape()
        tape.backward(sum_all(tape, x))
        assert x.grad.tolist() == [[1.0, 1.0, 1.0]]

    def test_quadratic(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        tape = Tape()
        tape.backward(sum_all(tape, elementwise(tape, "mul", x, x)))
        assert x.grad.tolist() == [[2.0, 4.0]]

    def test_fanout_accumulates(self):
        x = Tensor([[1.0, 1.0, 1.0]], requires_grad=True)
        tape = Tape()
        loss = elementwise(tape, "add", sum_all(tape, x), sum_all(tape, x))
        tape.backward(loss)
        assert x.grad.tolist() == [[2.0, 2.0, 2.0]]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_first_gradient_keeps_the_bits_of_zeros_plus_g(self, dtype):
        # -0.0 becomes +0.0, as 0 + -0.0 does; a float64 g rounds to float32
        # after the add, so a negative below float32's range is -0.0
        g = np.array([[-0.0, 1.0 / 3.0, -1e-50, np.nan, -np.inf, 1e-30]], dtype=dtype)
        want = np.zeros(g.shape, dtype=np.float32)
        want += g
        x = Tensor(np.ones(g.shape))
        x._accumulate(g)
        assert x.grad.dtype == np.float32 and x.grad.flags.c_contiguous
        assert x.grad.tobytes() == want.tobytes()
        assert not np.signbit(x.grad[0, 0])
        assert np.signbit(x.grad[0, 2]) == (dtype is np.float64)

    def test_first_gradient_is_a_new_array(self):
        # an elementwise add hands its output gradient to both inputs; the
        # first input's gradient must not be that array, or the second
        # accumulation would add into the output's gradient too
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        b = Tensor([[3.0, 4.0]], requires_grad=True)
        tape = Tape()
        y = elementwise(tape, "add", a, b)
        tape.backward(sum_all(tape, elementwise(tape, "add", y, a)))
        assert a.grad is not y.grad and b.grad is not y.grad
        assert a.grad.tolist() == [[2.0, 2.0]] and b.grad.tolist() == [[1.0, 1.0]]
        assert y.grad.tolist() == [[1.0, 1.0]]

    def test_loss_followed_by_more_records_sweeps_the_same(self):
        def sweep(more):
            x = Tensor([[0.5, -1.0, 2.0]], requires_grad=True)
            w = Tensor([[1.0, -2.0], [0.25, 3.0], [-0.5, 1.5]], requires_grad=True)
            tape = Tape()
            loss = softmax_cross_entropy(tape, matmul(tape, apply_unary(tape, "sin", x), w), [1])
            if more:  # records after the loss: one reads the loss, one the leaves
                elementwise(tape, "mul", loss, loss)
                matmul(tape, x, w)
            tape.backward(loss)
            return len(tape), x.grad, w.grad

        n_last, gx_last, gw_last = sweep(more=False)
        n, gx, gw = sweep(more=True)
        assert (n_last, n) == (3, 5)  # len(tape) counts every record after the sweep
        assert np.any(gx != 0) and np.any(gw != 0)
        assert gx.tobytes() == gx_last.tobytes() and gw.tobytes() == gw_last.tobytes()

    def test_non_scalar_loss_rejected(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        tape = Tape()
        y = elementwise(tape, "add", x, x)
        with pytest.raises(TapeError, match="scalar"):
            tape.backward(y)

    def test_loss_not_on_tape_rejected(self):
        tape = Tape()
        sum_all(tape, Tensor([[1.0]], requires_grad=True))
        with pytest.raises(TapeError):
            tape.backward(Tensor([[1.0]]))

    def test_loss_from_a_longer_tape_rejected(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        long_tape, short_tape = Tape(), Tape()
        loss = sum_all(long_tape, elementwise(long_tape, "add", x, x))
        sum_all(short_tape, x)
        with pytest.raises(TapeError, match="not produced on this tape"):
            short_tape.backward(loss)

    def test_double_backward_rejected(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        tape = Tape()
        loss = sum_all(tape, x)
        tape.backward(loss)
        with pytest.raises(TapeError, match="already swept"):
            tape.backward(loss)
        assert x.grad.tolist() == [[1.0, 1.0]]  # the rejected sweep added nothing

    def test_replay_is_deterministic(self):
        def run():
            rng = np.random.default_rng(7)
            x = Tensor(rng.uniform(-1, 1, (4, 6)), requires_grad=True)
            w = Tensor(rng.uniform(-1, 1, (6, 3)), requires_grad=True)
            tape = Tape()
            loss = softmax_cross_entropy(
                tape, matmul(tape, apply_unary(tape, "arctan", x), w), [0, 1, 2, 0]
            )
            tape.backward(loss)
            return loss.item(), x.grad.copy(), w.grad.copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert l1 == l2
        assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)
