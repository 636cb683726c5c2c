import functools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imufill import tensor as tt
from imufill.tensor import Tensor


def randt(rng, *shape, scale=1.0):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True, dtype=np.float64)


def test_matmul_identity():
    rng = np.random.default_rng(0)
    b = rng.standard_normal((2, 5))
    out = tt.matmul(Tensor(np.eye(2)), Tensor(b))
    np.testing.assert_array_equal(out.data, b)


def test_matmul_hand_arithmetic():
    out = tt.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_shape_mismatch_reports_both_shapes():
    with pytest.raises(tt.ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
        tt.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


def test_matmul_gradient_vs_finite_differences():
    rng = np.random.default_rng(1)
    a = randt(rng, 5, 7)
    b = randt(rng, 7, 3)
    report = tt.gradcheck(lambda: tt.tsum(tt.matmul(a, b)), {"a": a, "b": b})
    assert report.max_rel_err < 1e-6, report


def test_linear_batched_by_2d_gradient():
    # (..., m, k) @ (k, n) + b runs as one flattened GEMM forward and backward
    rng = np.random.default_rng(13)
    a = randt(rng, 2, 3, 4, 5)
    w = randt(rng, 5, 3)
    b = randt(rng, 3)
    np.testing.assert_allclose(tt.linear(a, w, b).data, a.data @ w.data + b.data, rtol=1e-12)
    leaves = {"a": a, "w": w, "b": b}
    report = tt.gradcheck(lambda: tt.tsum(tt.mul(tt.linear(a, w, b), tt.linear(a, w, b))), leaves)
    assert report.max_rel_err < 1e-6, report


def test_linear_noncontiguous_batched_by_2d_gradient():
    rng = np.random.default_rng(14)
    a = randt(rng, 3, 5, 4)
    w = randt(rng, 5, 2)
    b = randt(rng, 2)
    at = tt.transpose(a, (0, 2, 1))  # (3, 4, 5), not contiguous
    assert not at.data.flags.c_contiguous
    np.testing.assert_allclose(tt.linear(at, w, b).data, at.data @ w.data + b.data, rtol=1e-12)
    # a quadratic loss, whose central differences are exact: gelu's third
    # derivative alone puts a 6e-6 truncation error on one small gradient here
    report = tt.gradcheck(lambda: tt.tsum(tt.mul(tt.linear(at, w, b), tt.linear(at, w, b))),
                          {"a": a, "w": w, "b": b})
    assert report.max_rel_err < 1e-6, report


def test_linear_shape_mismatch_reports_both_shapes():
    with pytest.raises(tt.ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
        tt.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))
    with pytest.raises(tt.ShapeError, match=r"2-d weight"):
        tt.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3, 2))), Tensor(np.zeros(2)))


def test_matmul_batched_by_batched_gradient():
    rng = np.random.default_rng(15)
    a = randt(rng, 2, 3, 4)
    b = randt(rng, 2, 4, 5)
    report = tt.gradcheck(lambda: tt.tsum(tt.gelu(tt.mul(tt.matmul(a, b), 0.3))), {"a": a, "b": b})
    assert report.max_rel_err < 1e-6, report


def test_take_basic_index_gradient():
    rng = np.random.default_rng(16)
    x = randt(rng, 4, 5, 3)
    w = Tensor(rng.standard_normal((4, 5, 3)))

    def loss():
        parts = [x[1:3], x[2], x[..., 1], x[:, None, ::2, 0], x[-1, 1:, :]]
        return functools.reduce(tt.add, (tt.tsum(tt.mul(p, p)) for p in parts), tt.tsum(tt.mul(x, w)))

    report = tt.gradcheck(loss, {"x": x})
    assert report.max_rel_err < 1e-6, report


def test_take_slices_and_direct_use_gradient():
    # basic slices of one tensor add into one accumulator; the direct use
    # arrives as a dense gradient among them
    rng = np.random.default_rng(20)
    x = randt(rng, 4, 5)
    w = Tensor(rng.standard_normal((4, 5)))

    def loss():
        return functools.reduce(tt.add, (
            tt.tsum(tt.mul(x[1:3], x[1:3])), tt.tsum(tt.mul(x, w)), tt.tsum(tt.gelu(x[:, 2])),
            tt.tsum(x[..., ::2])))

    report = tt.gradcheck(loss, {"x": x})
    assert report.max_rel_err < 1e-6, report


def test_take_refuses_an_index_that_is_not_basic():
    x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True, dtype=np.float64)
    for idx in ([0, 0, 2], (np.array([0, 2]), slice(1, None)), np.array([True, False, True])):
        with pytest.raises(tt.ContractError, match="basic indices"):
            x[idx]


@pytest.mark.parametrize("slice_first", [True, False])
def test_slice_gradient_never_writes_an_array_add_shares(slice_first):
    # add hands the same array to both parents; x also takes slice
    # gradients, which must not be added into that shared array
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True, dtype=np.float64)
    y = Tensor(np.ones((2, 3)), requires_grad=True, dtype=np.float64)
    k = Tensor(np.full((2, 3), 3.0))
    shared = tt.tsum(tt.mul(tt.add(x, y), k))
    sliced = tt.add(tt.tsum(x[0]), tt.tsum(x[:, 1:]))
    loss = tt.add(sliced, shared) if slice_first else tt.add(shared, sliced)
    g = tt.grads_by_name(loss, {"x": x, "y": y})
    np.testing.assert_array_equal(g["y"], np.full((2, 3), 3.0))
    np.testing.assert_array_equal(g["x"], [[4.0, 5.0, 5.0], [3.0, 4.0, 4.0]])


# each tracked op over a float32 and a float64 operand: which operand has
# the other dtype, and the constant that makes a tracked node all the same
_TWO_DTYPE_OPS = {
    "add": lambda leaf, a, b: tt.add(leaf(a, 2, 3, 4), leaf(b, 4)),
    "sub": lambda leaf, a, b: tt.sub(leaf(a, 2, 3, 4), leaf(b, 4)),
    "mul": lambda leaf, a, b: tt.mul(leaf(a, 2, 3, 4), leaf(b, 4)),
    "div": lambda leaf, a, b: tt.div(leaf(a, 2, 3, 4), leaf(b, 4)),
    "mul_constant": lambda leaf, a, b: tt.mul(leaf(a, 2, 3, 4), Tensor(np.ones(4, dtype=b))),
    "matmul": lambda leaf, a, b: tt.matmul(leaf(a, 2, 3, 4), leaf(b, 4, 5)),
    "linear_weight": lambda leaf, a, b: tt.linear(leaf(a, 2, 3, 4), leaf(b, 4, 5), leaf(a, 5)),
    "linear_bias": lambda leaf, a, b: tt.linear(leaf(a, 2, 3, 4), leaf(a, 4, 5), leaf(b, 5)),
    "add_layernorm_residual": lambda leaf, a, b: tt.add_layernorm(leaf(a, 2, 3, 4), leaf(b, 2, 3, 4),
                                                                  leaf(a, 4), leaf(a, 4)),
    "add_layernorm_gain": lambda leaf, a, b: tt.add_layernorm(leaf(a, 2, 3, 4), leaf(a, 2, 3, 4),
                                                              leaf(b, 4), leaf(a, 4)),
    "add_layernorm_shift": lambda leaf, a, b: tt.add_layernorm(leaf(a, 2, 3, 4), leaf(a, 2, 3, 4),
                                                               leaf(a, 4), leaf(b, 4)),
    "concat": lambda leaf, a, b: tt.concat([leaf(a, 2, 3, 4), leaf(b, 2, 3, 4)], axis=1),
}


@pytest.mark.parametrize("dtypes", [(np.float32, np.float64), (np.float64, np.float32)])
@pytest.mark.parametrize("op", sorted(_TWO_DTYPE_OPS))
def test_a_tracked_node_over_two_dtypes_raises(op, dtypes):
    rng = np.random.default_rng(24)

    def leaf(dtype, *shape):
        return Tensor((1.5 + rng.random(shape)).astype(dtype), requires_grad=True)

    with pytest.raises(tt.ContractError, match="one dtype; this op combines float32 and float64"):
        _TWO_DTYPE_OPS[op](leaf, *dtypes)


def test_an_untracked_node_over_two_dtypes_promotes():
    # no parameter upstream, so no tape: FastDenoiser folds its
    # cross-attention this way, in float64 over float32 weights
    out = tt.matmul(Tensor(np.ones((2, 3), dtype=np.float32)), Tensor(np.ones((3, 2))))
    assert out.dtype == np.float64 and out._vjp is None


def _layernorm_nodes(x, g, b, eps=1e-5):
    """layernorm as the composition of nine ops, each mean being a sum
    times 1/n."""
    inv_n = 1.0 / x.shape[-1]
    mu = tt.mul(tt.tsum(x, axis=-1, keepdims=True), inv_n)
    xc = tt.sub(x, mu)
    var = tt.mul(tt.tsum(tt.mul(xc, xc), axis=-1, keepdims=True), inv_n)
    return tt.add(tt.mul(tt.div(xc, tt.tsqrt(tt.add(var, eps))), g), b)


def test_add_layernorm_gradient_vs_finite_differences():
    rng = np.random.default_rng(21)
    x = randt(rng, 3, 4, 6)
    r = randt(rng, 3, 4, 6)
    g = randt(rng, 6)
    b = randt(rng, 6)
    w = Tensor(rng.standard_normal((3, 4, 6)))
    report = tt.gradcheck(lambda: tt.tsum(tt.mul(tt.gelu(tt.add_layernorm(x, r, g, b)), w)),
                          {"x": x, "r": r, "g": g, "b": b})
    assert report.max_rel_err < 1e-6, report


def test_add_layernorm_matches_ten_node_composition():
    rng = np.random.default_rng(22)
    x = randt(rng, 2, 5, 8, scale=3.0)
    r = randt(rng, 2, 5, 8)
    g = randt(rng, 8)
    b = randt(rng, 8)
    w = Tensor(rng.standard_normal((2, 5, 8)))
    params = {"x": x, "r": r, "g": g, "b": b}
    one = tt.add_layernorm(x, r, g, b)
    ten = _layernorm_nodes(tt.add(x, r), g, b)
    np.testing.assert_allclose(one.data, ten.data, rtol=0, atol=1e-12)
    g_one = tt.grads_by_name(tt.tsum(tt.mul(one, w)), params)
    g_ten = tt.grads_by_name(tt.tsum(tt.mul(ten, w)), params)
    for name in params:
        np.testing.assert_allclose(g_one[name], g_ten[name], rtol=0, atol=1e-12)


def _strided(rng, dtype):
    """A (7, 5, 64) view that no reshape can flatten: every other row of
    the middle axis and every other element of the last."""
    return rng.standard_normal((7, 10, 128)).astype(dtype)[:, ::2, ::2]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 64), (63, 64), (16, 63, 512), (2, 3, 4, 63), (61, 2), "strided"])
def test_row_reduce_matches_float64_sum_and_mean(shape, dtype):
    rng = np.random.default_rng(7)
    x = _strided(rng, dtype) if shape == "strided" else (10.0 * rng.standard_normal(shape)).astype(dtype)
    assert (shape == "strided") != x.flags.c_contiguous
    x64 = x.astype(np.float64)
    n = x.shape[-1]
    want_sum = x64.sum(axis=-1, keepdims=True)
    # the rounding of n terms, each of magnitude up to |x|
    tol = 4 * n * np.finfo(dtype).eps * np.abs(x64).max()
    before = x.copy()
    for mean, want, atol in ((False, want_sum, tol), (True, want_sum / n, tol / n)):
        got = tt._row_reduce(x, mean)
        assert got.dtype == dtype and got.shape == x.shape[:-1] + (1,)
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)
    np.testing.assert_array_equal(x, before)


def test_elementwise_trivial():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((3, 4)))
    np.testing.assert_array_equal(tt.add(x, 0.0).data, x.data)
    np.testing.assert_allclose(tt.tsqrt(Tensor(4.0)).data, 2.0)


def test_division_by_zero_flags_nonfinite():
    with pytest.warns(RuntimeWarning):
        out = tt.div(Tensor([1.0]), Tensor([0.0]))
    assert np.isinf(out.data).all()


def test_softmax_composite_gradient():
    # composite: logits -> softmax -> a score against fixed labels
    rng = np.random.default_rng(3)
    logits = randt(rng, 6, 10)
    labels = rng.integers(0, 10, size=6)
    onehot = np.zeros((6, 10))
    onehot[np.arange(6), labels] = 1.0

    def loss():
        p = tt.softmax(logits)
        return tt.mul(tt.tsum(tt.mul(Tensor(onehot), tt.tsqrt(p))), -1.0)

    report = tt.gradcheck(loss, {"logits": logits})
    assert report.max_rel_err < 1e-5, report


def test_broadcast_gradients():
    rng = np.random.default_rng(4)
    a = randt(rng, 4, 1, 5)
    b = randt(rng, 3, 1)
    report = tt.gradcheck(lambda: tt.tsum(tt.add(tt.mul(a, b), tt.gelu(b))), {"a": a, "b": b})
    assert report.max_rel_err < 1e-6, report


def test_gelu_tanh_relu_sqrt_gradients():
    rng = np.random.default_rng(5)
    x = randt(rng, 3, 7)
    y = randt(rng, 3, 7)

    def loss():
        h = tt.add(tt.gelu(x), tt.gelu(y))
        return tt.tsum(tt.tsqrt(tt.add(tt.mul(h, h), 1.0)))

    report = tt.gradcheck(loss, {"x": x, "y": y})
    assert report.max_rel_err < 1e-5, report


def test_gelu_vjp_bit_identical_to_closed_form():
    rng = np.random.default_rng(19)
    for dtype in (np.float32, np.float64):
        x = (rng.standard_normal((8, 33)) * 3).astype(dtype)
        x.flat[:4] = (0.0, -0.0, 40.0, -40.0)
        g = rng.standard_normal(x.shape).astype(dtype)
        c = math.sqrt(2.0 / math.pi)  # a Python float, as in the op
        t = np.tanh(c * (x + 0.044715 * x * x * x))
        dinner = c * (1.0 + 3 * 0.044715 * x * x)
        ref = g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner)
        node = tt.gelu(Tensor(x, requires_grad=True))
        (got,) = node._vjp(g)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        out = 0.5 * x * (1.0 + t)
        assert node.data.dtype == out.dtype and node.data.tobytes() == out.tobytes()


def test_cumsum_take_concat_gradients():
    rng = np.random.default_rng(6)
    x = randt(rng, 5, 4)
    y = randt(rng, 2, 4)

    def loss():
        c = tt.cumsum(x, axis=0)
        j = tt.concat([c[1:3], y], axis=0)
        return tt.tsum(tt.mul(j, j))

    report = tt.gradcheck(loss, {"x": x, "y": y})
    assert report.max_rel_err < 1e-6, report


def test_attention_single_key_returns_value():
    rng = np.random.default_rng(7)
    q = Tensor(rng.standard_normal((5, 8)))
    k = Tensor(rng.standard_normal((1, 8)))
    v = Tensor(rng.standard_normal((1, 8)))
    out = tt.softmax_attention(q, k, v)
    np.testing.assert_allclose(out.data, np.broadcast_to(v.data, (5, 8)), rtol=1e-12)


def test_attention_uniform_scores_average_values():
    rng = np.random.default_rng(8)
    q = Tensor(np.zeros((3, 4)))
    k = Tensor(np.zeros((6, 4)))
    v = Tensor(rng.standard_normal((6, 4)))
    out = tt.softmax_attention(q, k, v)
    np.testing.assert_allclose(out.data, np.broadcast_to(v.data.mean(0), (3, 4)), atol=1e-12)


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(9)
    q = Tensor(rng.standard_normal((4, 8)))
    k = Tensor(rng.standard_normal((4, 8)))
    w = tt.softmax(tt.mul(tt.matmul(q, tt.transpose(k, (1, 0))), 1 / np.sqrt(8)))
    np.testing.assert_allclose(w.data.sum(-1), np.ones(4), atol=1e-12)


def test_attention_zero_head_dim_rejected():
    z = Tensor(np.zeros((2, 0)))
    with pytest.raises(tt.ShapeError):
        tt.softmax_attention(z, z, z)


def test_backward_sum_gives_ones():
    w = Tensor(np.zeros((3, 2, 4)), requires_grad=True, dtype=np.float64)
    g = tt.grads_by_name(tt.tsum(w), {"w": w})
    np.testing.assert_array_equal(g["w"], np.ones_like(w.data))


def test_backward_half_square_gives_identity():
    rng = np.random.default_rng(10)
    w = randt(rng, 4, 4)
    g = tt.grads_by_name(tt.mul(tt.tsum(tt.mul(w, w)), 0.5), {"w": w})
    np.testing.assert_allclose(g["w"], w.data, rtol=1e-12)


def test_backward_rejects_nonscalar():
    w = Tensor(np.zeros((3,)), requires_grad=True)
    with pytest.raises(tt.ContractError):
        tt.backward(tt.add(w, 1.0), [w])


def test_backward_frees_each_activation_after_its_consumers():
    rng = np.random.default_rng(21)
    x = Tensor(rng.standard_normal((4, 8)))  # an input, not a parameter
    w, b = randt(rng, 8, 16), randt(rng, 16)
    lin = tt.linear(x, w, b)
    h = tt.gelu(lin)
    loss = tt.tsum(tt.mul(h, h))
    held = [weakref.ref(lin.data), weakref.ref(h.data)]
    del lin, h
    assert all(ref() is not None for ref in held)
    g = tt.grads_by_name(loss, {"w": w, "b": b})
    assert all(ref() is None for ref in held)
    assert loss._parents == () and set(g) == {"w", "b"}
    assert w.requires_grad and w._vjp is None  # parameters are not graph nodes
    with pytest.raises(tt.ContractError):
        tt.grads_by_name(loss, {"w": w, "b": b})


def test_vjps_skip_operands_without_parameters():
    rng = np.random.default_rng(22)
    x, c = Tensor(rng.standard_normal((2, 3, 4))), Tensor(rng.standard_normal(4))
    w, b = randt(rng, 4, 4), randt(rng, 4)
    y = tt.linear(x, w, b)
    g = np.ones(y.shape)
    assert y._vjp(g)[0] is None and all(a is not None for a in y._vjp(g)[1:])
    for op in (tt.add, tt.sub, tt.mul):
        assert op(y, c)._vjp(g)[1] is None and op(c, y)._vjp(g)[0] is None
    m = tt.matmul(y, Tensor(rng.standard_normal((4, 2))))
    assert m._vjp(np.ones(m.shape))[1] is None
    assert all(a is not None for a in tt.add(y, y)._vjp(g))


def test_backward_rejects_a_tensor_that_is_not_a_parameter():
    rng = np.random.default_rng(23)
    p, w = randt(rng, 3), Tensor(rng.standard_normal(3))
    with pytest.raises(tt.ContractError):
        tt.grads_by_name(tt.tsum(tt.mul(p, w)), {"p": p, "w": w})
    with pytest.raises(tt.ContractError):
        tt.grads_by_name(tt.tsum(tt.mul(p, p)), {"p": p, "pp": tt.mul(p, p)})


def test_backward_unreachable_param_gets_zeros():
    a = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
    b = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
    g = tt.grads_by_name(tt.tsum(a), {"a": a, "b": b})
    np.testing.assert_array_equal(g["b"], np.zeros(3))


def test_backward_shared_subexpression_accumulates():
    x = Tensor(np.array([2.0]), requires_grad=True, dtype=np.float64)
    y = tt.add(x, x)  # dy/dx = 2
    g = tt.grads_by_name(tt.tsum(tt.mul(y, y)), {"x": x})  # d/dx (2x)^2 = 8x
    np.testing.assert_allclose(g["x"], 8.0 * x.data)


def test_ops_do_not_mutate_inputs():
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((3, 3)))
    before = x.data.copy()
    tt.gelu(x)
    tt.softmax(x)
    tt.matmul(x, x)
    tt.cumsum(x, 0)
    tt.add(x, x)
    np.testing.assert_array_equal(x.data, before)

    # linear (its bias added in place) and take, forward and backward
    a = Tensor(rng.standard_normal((2, 3, 3)), requires_grad=True)
    w = Tensor(x.data, requires_grad=True)
    a_before = a.data.copy()
    bias = rng.standard_normal(3)
    c = Tensor(bias, requires_grad=True)
    for inp in (a, a[:, 1:]):
        lin = tt.linear(inp, w, c)
        loss = tt.add(tt.tsum(tt.mul(lin, lin)), tt.tsum(a[:, 1:]))
        tt.grads_by_name(loss, {"a": a, "w": w, "c": c})
    np.testing.assert_array_equal(a.data, a_before)
    np.testing.assert_array_equal(w.data, before)
    np.testing.assert_array_equal(c.data, bias)

    # add_layernorm, forward and backward
    r = Tensor(rng.standard_normal((2, 3, 3)), requires_grad=True)
    g = Tensor(rng.standard_normal(3), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    kept = (r.data.copy(), g.data.copy(), b.data.copy())
    leaves = {"a": a, "r": r, "g": g, "b": b}
    tt.grads_by_name(tt.tsum(tt.mul(tt.add_layernorm(a, r, g, b), a)), leaves)
    np.testing.assert_array_equal(a.data, a_before)
    for t, copy in zip((r, g, b), kept):
        np.testing.assert_array_equal(t.data, copy)


def test_adam_updates_parameters_and_moments_in_place():
    rng = np.random.default_rng(17)
    params = {"w": Tensor(rng.standard_normal((4, 3)).astype(np.float32), requires_grad=True),
              "s": Tensor(np.float32(0.5), requires_grad=True)}
    grads = {"w": rng.standard_normal((4, 3)).astype(np.float32), "s": np.array(0.25, np.float32)}
    grad_bytes = {k: g.tobytes() for k, g in grads.items()}
    tensors = dict(params)
    arrays = {k: p.data for k, p in params.items()}
    out, state = tt.adam_step(params, grads, None, lr=0.01)
    assert out is params and state.step == 1
    m, v = dict(state.m), dict(state.v)
    before = {k: a.copy() for k, a in arrays.items()}
    out, new_state = tt.adam_step(params, grads, state, lr=0.01)
    assert out is params and new_state is state and state.step == 2
    for k in params:
        assert params[k] is tensors[k] and params[k].data is arrays[k]
        assert state.m[k] is m[k] and state.v[k] is v[k]
        assert grads[k].tobytes() == grad_bytes[k]
        assert not np.array_equal(arrays[k], before[k])  # stepped, the 0-d one too
    assert params["s"].data.shape == ()


def test_adam_refuses_a_transposed_parameter():
    p = {"w": Tensor(np.ones((3, 4), dtype=np.float32).T, requires_grad=True)}
    with pytest.raises(tt.ContractError, match="C-contiguous"):
        tt.adam_step(p, {"w": np.ones((4, 3), dtype=np.float32)}, None)


def test_adam_refuses_a_read_only_parameter():
    arr = np.ones(4, dtype=np.float32)
    arr.flags.writeable = False
    with pytest.raises(tt.ContractError, match="writable"):
        tt.adam_step({"w": Tensor(arr, requires_grad=True)}, {"w": np.ones(4, dtype=np.float32)}, None)


def test_adam_refused_call_changes_nothing():
    rng = np.random.default_rng(19)
    params = {k: Tensor(rng.standard_normal(5).astype(np.float32), requires_grad=True) for k in "abc"}
    grads = {k: rng.standard_normal(5).astype(np.float32) for k in "abc"}
    _, state = tt.adam_step(params, grads, None, lr=0.01)
    kept = {k: (p.data.copy(), state.m[k].copy(), state.v[k].copy()) for k, p in params.items()}
    grads["c"] = grads["c"].astype(np.float64)  # the last parameter's gradient is bad
    with pytest.raises(tt.ContractError, match="dtype"):
        tt.adam_step(params, grads, state, lr=0.01)
    assert state.step == 1
    for k, (p, m, v) in kept.items():
        assert params[k].data.tobytes() == p.tobytes()
        assert state.m[k].tobytes() == m.tobytes() and state.v[k].tobytes() == v.tobytes()


def test_adam_allocates_only_its_scratch_after_the_first_step():
    rng = np.random.default_rng(20)
    n = 3 * tt._BLOCK + 5
    params = {"w": Tensor(rng.standard_normal(n).astype(np.float32), requires_grad=True)}
    grads = {"w": rng.standard_normal(n).astype(np.float32)}
    _, state = tt.adam_step(params, grads, None, lr=0.01)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tt.adam_step(params, grads, state, lr=0.01)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # two float32 block-sized scratch arrays, well under the parameter's bytes
    assert peak <= 2 * tt._BLOCK * 4 + 16 * 1024, peak


def test_adam_bit_identical_to_closed_form():
    rng = np.random.default_rng(18)
    shape = (16, 16)
    lr, (b1, b2), eps = 3e-3, (0.9, 0.999), 1e-8
    # parameters near 0, so the update's last bits show in the result
    p = (rng.standard_normal(shape) * 1e-4).astype(np.float32)
    params, state = {"w": Tensor(p.copy(), requires_grad=True)}, None
    m = v = 0.0
    for t in range(1, 6):
        g = (rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3, shape)).astype(np.float32)
        g.flat[:2] = (0.0, -0.0)
        params, state = tt.adam_step(params, {"w": g}, state, lr=lr, betas=(b1, b2), eps=eps)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * (g * g)
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        p = p - lr * mhat / (np.sqrt(vhat) + eps)
        assert params["w"].data.dtype == np.float32
        assert params["w"].data.tobytes() == p.tobytes()
        assert state.m["w"].tobytes() == m.tobytes() and state.v["w"].tobytes() == v.tobytes()


def test_adam_zero_gradient_fresh_state_keeps_params():
    p = {"w": Tensor(np.ones(4), requires_grad=True)}
    g = {"w": np.zeros(4)}
    before = p["w"].data.copy()
    newp, state = tt.adam_step(p, g, None, lr=0.1)
    np.testing.assert_array_equal(newp["w"].data, before)
    assert state.step == 1


def test_adam_moments_decay_under_zero_gradient():
    p = {"w": Tensor(np.ones(1), requires_grad=True)}
    p, state = tt.adam_step(p, {"w": np.ones(1)}, None, lr=0.01)
    m1 = state.m["w"].copy()
    p, state = tt.adam_step(p, {"w": np.zeros(1)}, state, lr=0.01)
    assert abs(state.m["w"][0]) == pytest.approx(0.9 * abs(m1[0]))


def test_adam_constant_gradient_step_magnitude_approaches_lr():
    # closed form: with g constant, mhat->g, vhat->g^2, step -> lr*sign(g)
    p = {"w": Tensor(np.array([0.0]), requires_grad=True, dtype=np.float64)}
    g = {"w": np.array([3.0])}
    state = None
    prev = p["w"].data.copy()
    for _ in range(400):
        p, state = tt.adam_step(p, g, state, lr=0.05)
    step = abs(p["w"].data - prev)[-1] / 400
    # late steps individually approach lr
    before = p["w"].data.copy()
    p, state = tt.adam_step(p, g, state, lr=0.05)
    assert abs(abs(p["w"].data[0] - before[0]) - 0.05) < 1e-6
    assert step < 0.05 + 1e-9


def test_adam_refuses_a_gradient_of_another_dtype():
    p = {"w": Tensor(np.ones(4), requires_grad=True)}
    with pytest.raises(tt.ContractError, match="dtype"):
        tt.adam_step(p, {"w": np.ones(4, dtype=np.float32)}, None)


def test_adam_bit_identical_repeat():
    rng = np.random.default_rng(12)
    g = {"w": rng.standard_normal(8).astype(np.float32)}

    def run():
        p = {"w": Tensor(np.ones(8, dtype=np.float32), requires_grad=True)}
        s = None
        for _ in range(10):
            p, s = tt.adam_step(p, g, s, lr=0.01)
        return p["w"].data

    np.testing.assert_array_equal(run(), run())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_property_random_composite_gradcheck(seed):
    rng = np.random.default_rng(seed)
    a = randt(rng, 3, 4, scale=0.7)
    b = randt(rng, 4, 2, scale=0.7)
    g = randt(rng, 4, scale=0.7)
    c = randt(rng, 4, scale=0.7)
    r = randt(rng, 3, 4, scale=0.7)

    def loss():
        h = tt.gelu(tt.matmul(a, b))
        p = tt.softmax(h)
        return tt.add(tt.add(tt.tsum(tt.mul(p, p)), tt.tsum(tt.gelu(tt.mul(a, 0.1)))),
                      tt.tsum(tt.gelu(tt.add_layernorm(a, r, g, c))))

    report = tt.gradcheck(loss, {"a": a, "b": b, "g": g, "c": c, "r": r})
    assert report.max_rel_err < 1e-4, report


def test_fixed_seed_bit_identical_results():
    def run():
        rng = np.random.default_rng(1234)
        a = Tensor(rng.standard_normal((6, 6)))
        return tt.softmax(tt.matmul(a, a)).data

    np.testing.assert_array_equal(run(), run())
