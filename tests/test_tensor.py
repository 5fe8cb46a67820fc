import numpy as np
import pytest

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
    layer_norm,
    matmul,
    silu,
    softmax_cross_entropy,
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
    """basis_expand evaluates its grids over blocks of at most BLOCK inputs and
    must give the bits of one call per grid over all of them, joined by
    elementwise adds. With a tape and an input that requires grad it takes
    each block's derivatives in the forward pass, from that block's values
    pass; otherwise it takes none."""

    B = 7
    # [m x d] shapes of m*d = 0, 1, B - 1, B, B + 1 and 3B + 2 inputs
    SHAPES = [(0, 3), (1, 1), (2, 3), (7, 1), (2, 4), (2, 11)]
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

    @staticmethod
    def summed(arrays):
        """The first float32 array plus each later one, as elementwise adds sum them."""
        total = arrays[0]
        for a in arrays[1:]:
            total = total + a
        return total

    @pytest.mark.parametrize("grid", GRIDS, ids=_grids_id)
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_values_and_dx_equal_one_call_bit_for_bit(self, grid, shape):
        grids = _grids(grid)
        m, d = shape
        nb = grids[0].num_basis
        x = Tensor(self.inputs(shape, grids[0]), requires_grad=True)
        flat = x.data.ravel().astype(np.float64)
        tape = Tape()
        out = basis_expand(tape, x, *grids)
        want = self.summed([g.values(flat).astype(np.float32) for g in grids])
        assert out.shape == (m, d * nb) and out.data.tobytes() == want.tobytes()

        r = np.random.default_rng(3).uniform(0.5, 1.5, (m, d * nb)).astype(np.float32)
        tape.backward(weighted_sum(tape, out, r))
        derivs = [g.values_and_derivs(flat)[1] for g in grids]
        dx = [np.einsum("ij,ij->i", r.reshape(m * d, nb), dv).astype(np.float32) for dv in derivs]
        want_grad = np.zeros((m, d), dtype=np.float32)
        want_grad += self.summed(dx).reshape(m, d)  # as Tensor._accumulate adds it
        assert x.grad.tobytes() == want_grad.tobytes()
        # the same float64 products summed in another order differ by float64
        # rounding only, which is below a float32 step
        other = self.summed([(r.reshape(m * d, nb) * dv).sum(axis=1).astype(np.float32)
                             for dv in derivs])
        np.testing.assert_allclose(x.grad.ravel(), other, rtol=2.0**-23, atol=0, equal_nan=True)

        # the path of one single-grid call per grid joined by elementwise adds
        # on one tape gives the same bits, forward and backward
        x_old = Tensor(x.data, requires_grad=True)
        old_tape = Tape()
        old = basis_expand(old_tape, x_old, grids[0])
        for g in grids[1:]:
            old = elementwise(old_tape, "add", old, basis_expand(old_tape, x_old, g))
        old_tape.backward(weighted_sum(old_tape, old, r))
        assert out.data.tobytes() == old.data.tobytes()
        assert x.grad.tobytes() == x_old.grad.tobytes()

    @pytest.mark.parametrize("grid", GRIDS, ids=_grids_id)
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_derivatives_once_per_block_in_the_forward_pass(self, grid, shape, calls):
        grids = _grids(grid)
        m, d = shape
        blocks = -(-m * d // self.B)
        x = Tensor(self.inputs(shape, grids[0]), requires_grad=True)
        tape = Tape()
        out = basis_expand(tape, x, *grids)
        assert calls == ({f"{g.name}_{part}": blocks for g in grids
                          for part in ("values", "derivs")} if blocks else {})
        before = dict(calls)
        tape.backward(sum_all(tape, out))
        assert calls == before
        assert x.grad.shape == (m, d)

    @pytest.mark.parametrize("grid", GRIDS, ids=_grids_id)
    @pytest.mark.parametrize("grad", [False, True], ids=["no-grad", "grad"])
    def test_no_derivatives_without_a_tape_or_a_grad(self, grid, grad, calls):
        grids = _grids(grid)
        x = Tensor(self.inputs((2, 11), grids[0]), requires_grad=grad)
        tape = None if grad else Tape()
        out = basis_expand(tape, x, *grids)
        assert calls == {f"{g.name}_values": 4 for g in grids}
        flat = x.data.ravel().astype(np.float64)
        want = self.summed([g.values(flat).astype(np.float32) for g in grids])
        assert out.data.tobytes() == want.reshape(out.shape).tobytes()

    @pytest.mark.parametrize("grid", GRIDS, ids=_grids_id)
    def test_no_dx_for_an_input_without_grad(self, grid):
        grids = _grids(grid)
        tape = Tape()
        out = basis_expand(tape, Tensor(self.inputs((2, 11), grids[0])), *grids)
        output, _, backward_fn = tape._nodes[-1]
        assert output is out and backward_fn(np.ones_like(out.data)) == (None,)

    def test_no_grid_is_a_shape_error(self):
        with pytest.raises(ShapeError, match="one or more grids"):
            basis_expand(Tape(), Tensor(np.zeros((2, 3)), requires_grad=True))

    def test_grids_of_different_sizes_are_a_shape_error(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        with pytest.raises(ShapeError, match=r"of one size, got sizes \[8, 7\]"):
            basis_expand(Tape(), x, BSplineGrid(5, 3), RBFGrid(7))


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
