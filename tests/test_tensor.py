import numpy as np
import pytest

from fckan import tensor
from fckan.basis import BSplineGrid, RBFGrid
from fckan.tensor import (
    LabelError,
    ShapeError,
    Tape,
    TapeError,
    Tensor,
    UnsupportedKindError,
    apply_unary,
    basis_expand,
    elementwise,
    layer_norm,
    matmul,
    silu,
    softmax_cross_entropy,
    sum_all,
)
from gradcheck import check_grads, weighted_sum


def test_tensor_is_2d_float32():
    t = Tensor([1, 2, 3])
    assert t.shape == (1, 3)
    assert t.data.dtype == np.float32
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 2, 2)))


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
        out = apply_unary(None, "relu", Tensor([-1.0, 0.0, 2.5]))
        assert out.data.tolist() == [[0.0, 0.0, 2.5]]

    def test_known_values(self):
        assert apply_unary(None, "sin", Tensor([0.0])).item() == 0.0
        assert apply_unary(None, "cos", Tensor([0.0])).item() == 1.0

    def test_rejects_non_elementwise(self):
        with pytest.raises(UnsupportedKindError):
            apply_unary(None, "bspline", Tensor([0.0]))
        with pytest.raises(UnsupportedKindError):
            apply_unary(None, "dog", Tensor([0.0]))

    def test_arctan_grad_at_one(self):
        x = Tensor([1.0], requires_grad=True)
        tape = Tape()
        loss = sum_all(tape, apply_unary(tape, "arctan", x))
        tape.backward(loss)
        assert x.grad[0, 0] == pytest.approx(0.5, abs=1e-7)
        # and against the finite-difference oracle
        check_grads(
            lambda t: sum_all(t, apply_unary(t, "arctan", x)), [x], tol=1e-4
        )

    def test_relu_grad_zero_at_zero(self):
        x = Tensor([0.0], requires_grad=True)
        tape = Tape()
        tape.backward(sum_all(tape, apply_unary(tape, "relu", x)))
        assert x.grad[0, 0] == 0.0

    @pytest.mark.parametrize("kind", ["relu", "sin", "cos", "arctan", "tanh"])
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
        a, b = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
        assert elementwise(None, "add", a, b).data.tolist() == [[4.0, 6.0]]
        assert elementwise(None, "mul", a, b).data.tolist() == [[3.0, 8.0]]

    def test_mul_by_ones_is_identity(self):
        x = Tensor(np.random.default_rng(0).uniform(-2, 2, (3, 5)))
        out = elementwise(None, "mul", x, Tensor(np.ones((3, 5))))
        assert np.array_equal(out.data, x.data)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            elementwise(None, "add", Tensor([1.0]), Tensor([1.0, 2.0]))

    def test_mul_backward_routes_other_operand(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([5.0, 7.0], requires_grad=True)
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
            None, Tensor([5.0, 5.0, 5.0]), Tensor(np.ones((1, 3))), Tensor(np.zeros((1, 3)))
        )
        assert out.data.tolist() == [[0.0, 0.0, 0.0]]

    def test_two_point_row_exact(self):
        out = layer_norm(
            None, Tensor([1.0, 3.0]), Tensor(np.ones((1, 2))), Tensor(np.zeros((1, 2))),
            eps=0.0,
        )
        assert out.data.tolist() == [[-1.0, 1.0]]

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
        assert silu(None, Tensor([0.0])).item() == 0.0
        assert silu(None, Tensor([10.0])).item() == pytest.approx(10.0, rel=1e-4)

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.uniform(-2, 2, (2, 5)), requires_grad=True)
        r = rng.uniform(0.5, 1.5, (2, 5)).astype(np.float32)
        check_grads(lambda t: weighted_sum(t, silu(t, x), r), [x])


class TestBasisExpand:
    """basis_expand evaluates its grid over blocks of at most BLOCK inputs and
    must give the bits of one grid call over all of them."""

    B = 7
    # [m x d] shapes of m*d = 0, 1, B - 1, B, B + 1 and 3B + 2 inputs
    SHAPES = [(0, 3), (1, 1), (2, 3), (7, 1), (2, 4), (2, 11)]
    GRIDS = [BSplineGrid(), BSplineGrid(3, 1, -0.5, 2.0), RBFGrid()]

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(tensor, "BLOCK", self.B)

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

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: g.name)
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    # rbf_derivs at +-inf is inf * 0
    @pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")
    def test_values_and_dx_equal_one_call_bit_for_bit(self, grid, shape):
        m, d = shape
        nb = grid.num_basis
        x = Tensor(self.inputs(shape, grid), requires_grad=True)
        flat = x.data.ravel().astype(np.float64)
        tape = Tape()
        out = basis_expand(tape, x, grid)
        want = grid.values(flat).astype(np.float32).reshape(m, d * nb)
        assert out.shape == want.shape and out.data.tobytes() == want.tobytes()

        r = np.random.default_rng(3).uniform(0.5, 1.5, (m, d * nb)).astype(np.float32)
        tape.backward(weighted_sum(tape, out, r))
        dx = (r.reshape(m * d, nb) * grid.derivs(flat)).sum(axis=1)
        want_grad = np.zeros((m, d), dtype=np.float32)
        want_grad += dx.astype(np.float32).reshape(m, d)  # as Tensor._accumulate adds it
        assert x.grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: g.name)
    def test_no_dx_for_an_input_without_grad(self, grid):
        tape = Tape()
        out = basis_expand(tape, Tensor(self.inputs((2, 11), grid)), grid)
        assert tape._nodes[out.node_id].backward_fn(np.ones_like(out.data)) == (None,)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        tape = Tape()
        tape.backward(sum_all(tape, x))
        assert x.grad.tolist() == [[1.0, 1.0, 1.0]]

    def test_quadratic(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        tape = Tape()
        tape.backward(sum_all(tape, elementwise(tape, "mul", x, x)))
        assert x.grad.tolist() == [[2.0, 4.0]]

    def test_fanout_accumulates(self):
        x = Tensor([1.0, 1.0, 1.0], requires_grad=True)
        tape = Tape()
        loss = elementwise(tape, "add", sum_all(tape, x), sum_all(tape, x))
        tape.backward(loss)
        assert x.grad.tolist() == [[2.0, 2.0, 2.0]]

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        tape = Tape()
        y = elementwise(tape, "add", x, x)
        with pytest.raises(TapeError, match="scalar"):
            tape.backward(y)

    def test_loss_not_on_tape_rejected(self):
        tape = Tape()
        sum_all(tape, Tensor([1.0], requires_grad=True))
        with pytest.raises(TapeError):
            tape.backward(Tensor([[1.0]]))

    def test_loss_from_a_longer_tape_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        long_tape, short_tape = Tape(), Tape()
        loss = sum_all(long_tape, elementwise(long_tape, "add", x, x))
        sum_all(short_tape, x)
        with pytest.raises(TapeError, match="not produced on this tape"):
            short_tape.backward(loss)

    def test_double_backward_rejected_then_reset_allows_reuse(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        tape = Tape()
        loss = sum_all(tape, x)
        tape.backward(loss)
        with pytest.raises(TapeError, match="reset"):
            tape.backward(loss)
        tape.reset()
        assert len(tape) == 0
        loss2 = sum_all(tape, x)
        tape.backward(loss2)  # grads keep accumulating additively
        assert x.grad.tolist() == [[2.0, 2.0]]

    def test_replay_is_deterministic(self):
        def run():
            rng = np.random.default_rng(7)
            x = Tensor(rng.uniform(-1, 1, (4, 6)), requires_grad=True)
            w = Tensor(rng.uniform(-1, 1, (6, 3)), requires_grad=True)
            tape = Tape()
            loss = softmax_cross_entropy(
                tape, matmul(tape, apply_unary(tape, "tanh", x), w), [0, 1, 2, 0]
            )
            tape.backward(loss)
            return loss.item(), x.grad.copy(), w.grad.copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert l1 == l2
        assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)
