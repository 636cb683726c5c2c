"""Dense tensors with reverse-mode automatic differentiation.

Just enough machinery to train the transformer denoiser, and no more.
The op set is what `diffusion` builds its graph from: broadcast `add`,
`sub`, `mul`, `div`, `tsqrt` and `gelu`; the residual layernorm
`add_layernorm`; `linear` (a batched operand times a 2-D weight plus a
bias) and (batched) `matmul`; `softmax` and `softmax_attention`; `tsum`
and `cumsum`; `reshape`, `transpose`, `take` and `concat`. Ops
are called as functions: `Tensor` defines no arithmetic operators, and
its one piece of syntax is indexing, `x[idx]` for `take(x, idx)`. Then
`backward`, Adam and a finite-difference gradient checker. Arrays are
numpy; the graph is a thin closure-based tape.

Conventions:
  * float64 for oracle/gradient-check work, float32 for training and
    inference (see DEFAULT_DTYPE).
  * a tracked graph has one dtype: `Tensor._make` raises ContractError
    when a node that records a vjp combines parents of two dtypes, so no
    op promotes. Untracked nodes (no parameter upstream) are exempt:
    `FastDenoiser` folds its cross-attention in float64 that way.
  * broadcasting is numpy's trailing-dimension rule; anything else needs
    an explicit reshape.
  * ops never mutate their inputs; `backward` returns a gradient map
    instead of scribbling on tensors. `adam_step`, which is no op,
    updates the parameters' arrays in place.
  * `backward` consumes the tape. It pops the nodes off the topological
    order, and once a node's vjp has run the node drops its vjp and its
    parents, so each saved activation is freed as soon as the gradients
    of all its consumers exist. A second backward through a consumed
    graph raises ContractError.
  * a node keeps only what its vjp reads. A linear layer is one `linear`
    node, not a product node and a bias-add node, so the tape holds no
    bias-free product; a residual layernorm is one `add_layernorm` node,
    so it holds no residual sum; `gelu` keeps only its input, and its
    vjp recomputes the tanh (Chen et al., arXiv 1604.06174).
  * `linear`, `add`, `sub`, `mul` and `matmul` compute no gradient for
    an operand that is neither a parameter nor computed from one (the
    noised window, the attention scale, the position table, the loss
    targets, the FK operator): their vjp hands `backward` None for it.
  * the elementwise chains of `gelu` and `adam_step` run over blocks of
    about _BLOCK elements of the flattened arrays, written into
    preallocated outputs, so their intermediates stay in cache instead
    of streaming full-size temporaries. Each element sees the same
    operations in the same order as the full-array expression, so every
    result is bit-identical to it. `adam_step` writes the new parameter,
    m and v over the old ones, so its transient memory is a pair of
    block-sized scratch arrays; after the first step it allocates
    nothing else.
  * `linear`'s batched operand times a 2-D weight, (..., m, k) @ (k, n),
    runs forward and backward as one 2-D GEMM over the flattened batch,
    so the weight gradient is a single (k, n) product, never a per-batch
    stack summed afterwards. `matmul` is for products of two batched
    operands (attention, the cross-attention fold, the loss's FK operator).
  * `add_layernorm` is one node whose vjp is the closed form (Ba et al.,
    arXiv 1607.06450), not the composition of a sum, means, square roots
    and divisions it replaces.
  * `take` accepts basic indices only (slices, integers, Ellipsis,
    None; ContractError on any other), which never select an element
    twice. It hands `backward` its slice gradient alone, which `backward`
    adds into the sliced tensor's one gradient accumulator, so no
    operand-sized zero buffer is built per slice. `backward` adds in
    place only into accumulators it allocated itself: a vjp may hand one
    array to two parents (`add` and `add_layernorm` do) or return views
    (`concat`, `reshape`), and those are never written.
  * the GELU chain `_gelu_block`, the last-axis softmax `_softmax_rows`
    and the layernorm normalization `_normalize` are defined once, here;
    the inference forward `diffusion.FastDenoiser` calls them too. Every
    row sum and mean of the softmax, the layernorm and their vjps is the
    row kernel `_row_reduce`: one BLAS product of the rows with a cached
    constant column, where numpy's last-axis reduction works row by row.
    The softmax skips its max shift when every score lies strictly
    inside +-_EXP_SAFE, which one min and one max over the array decide.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32
LAYERNORM_EPS = 1e-5

_GELU_C = math.sqrt(2.0 / math.pi)
# elements per block of an elementwise chain: the few block-sized arrays
# of one block (128 KiB each in float32) stay in a 2 MiB L2
_BLOCK = 1 << 15
# scores strictly inside +-_EXP_SAFE need no max shift before exp: e^64
# times a row of up to 2^31 terms stays below the float32 maximum, and
# e^-64 stays above its smallest normal
_EXP_SAFE = 64.0


class ShapeError(ValueError):
    """Raised when operand shapes cannot be combined."""


class ContractError(RuntimeError):
    """Raised when an operation's precondition is violated."""


class Tensor:
    """An immutable-by-convention array node in the autodiff graph
    (`adam_step` alone writes into a parameter's array).

    Leaves carry `requires_grad`; interior nodes carry a vjp closure and
    references to their parents. Only the single training thread may
    construct/consume a graph, but finished tensors are safe to share.
    """

    __slots__ = ("data", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind != "f":
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable | None = None

    # -- metadata -----------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, grad={self.requires_grad})"

    # -- graph plumbing ------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: tuple["Tensor", ...], vjp) -> "Tensor":
        track = any(_tracked(p) for p in parents)
        if track and any(p.dtype != parents[0].dtype for p in parents):
            raise ContractError("a tracked graph has one dtype; this op combines "
                                + " and ".join(sorted({p.dtype.name for p in parents})))
        out = Tensor.__new__(Tensor)
        out.data = data
        out.requires_grad = False
        out._parents = parents if track else ()
        out._vjp = vjp if track else None
        return out

    # -- indexing --------------------------------------------------------
    def __getitem__(self, idx):
        return take(self, idx)


def _tracked(t: Tensor) -> bool:
    """True for a parameter or a tensor computed from one: only those
    have a gradient that anything reads."""
    return t.requires_grad or t._vjp is not None


def _as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of trailing-dim broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _blocks(size: int) -> tuple[int, list[slice]]:
    """The elements per block, at most _BLOCK and at least one, and the
    blocks' slices over a flattened array of `size` elements."""
    step = max(1, min(size, _BLOCK))
    return step, [slice(i, i + step) for i in range(0, size, step)]


# -- elementwise arithmetic ----------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b, a.dtype)
    out = a.data + b.data
    need_a, need_b = _tracked(a), _tracked(b)

    def vjp(g):
        return (_unbroadcast(g, a.shape) if need_a else None,
                _unbroadcast(g, b.shape) if need_b else None)

    return Tensor._make(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b, a.dtype)
    out = a.data - b.data
    need_a, need_b = _tracked(a), _tracked(b)

    def vjp(g):
        return (_unbroadcast(g, a.shape) if need_a else None,
                _unbroadcast(-g, b.shape) if need_b else None)

    return Tensor._make(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b, a.dtype)
    out = a.data * b.data
    need_a, need_b = _tracked(a), _tracked(b)

    def vjp(g):
        return (_unbroadcast(g * b.data, a.shape) if need_a else None,
                _unbroadcast(g * a.data, b.shape) if need_b else None)

    return Tensor._make(out, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b, a.dtype)
    with np.errstate(divide="warn", invalid="warn"):
        out = a.data / b.data

    def vjp(g):
        ga = g / b.data
        gb = -g * a.data / (b.data * b.data)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return Tensor._make(out, (a, b), vjp)


def tsqrt(a) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(invalid="warn"):
        out = np.sqrt(a.data)

    def vjp(g):
        return (g * 0.5 / out,)

    return Tensor._make(out, (a,), vjp)


def _gelu_tanh(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """tanh(_GELU_C * (x + 0.044715 * x * x * x)), its argument built in
    place in `out`."""
    t = np.multiply(0.044715, x, out=out)
    t *= x
    t *= x
    t += x
    t *= _GELU_C
    return np.tanh(t, out=t)


def _gelu_block(x: np.ndarray, out: np.ndarray, t: np.ndarray) -> None:
    """0.5 * x * (1 + tanh(...)) into `out` (may be `x`), `t` as scratch."""
    t = _gelu_tanh(x, t)
    t += 1.0
    np.multiply(0.5, x, out=out)
    out *= t


def _gelu_grad_block(x: np.ndarray, g: np.ndarray, out: np.ndarray,
                     t: np.ndarray, half: np.ndarray, d: np.ndarray) -> None:
    """g * (0.5 * (1 + t) + 0.5 * x * (1 - t * t) * dinner) with
    dinner = _GELU_C * (1 + 3 * 0.044715 * x * x), term by term in that
    order, into `out` with three scratch arrays."""
    t = _gelu_tanh(x, t)
    half = np.add(1.0, t, out=half)
    half *= 0.5
    sech2 = np.multiply(t, t, out=t)
    np.subtract(1.0, sech2, out=sech2)
    d = np.multiply(0.5, x, out=d)
    d *= sech2
    dinner = np.multiply(3 * 0.044715, x, out=sech2)  # sech2 is spent
    dinner *= x
    dinner += 1.0
    dinner *= _GELU_C
    d *= dinner
    np.add(half, d, out=d)
    np.multiply(g, d, out=out)


def gelu(a) -> Tensor:
    """tanh-approximated GELU; smooth everywhere so FD checks behave.

    The node keeps only its input: the vjp recomputes the tanh. Forward
    and vjp run block by block over the flattened arrays, into
    preallocated outputs and scratch.
    """
    a = _as_tensor(a)
    x = a.data
    step, blocks = _blocks(x.size)
    out = np.empty(x.shape, x.dtype)
    xf, of, t = x.reshape(-1), out.reshape(-1), np.empty(step, x.dtype)
    for s in blocks:
        xb = xf[s]
        _gelu_block(xb, of[s], t[:len(xb)])

    def vjp(g):
        res = np.empty(x.shape, x.dtype)
        xf, gf, rf = x.reshape(-1), g.reshape(-1), res.reshape(-1)
        t, half, d = (np.empty(step, x.dtype) for _ in range(3))
        for s in blocks:
            xb = xf[s]
            n = len(xb)
            _gelu_grad_block(xb, gf[s], rf[s], t[:n], half[:n], d[:n])
        return (res,)

    return Tensor._make(out, (a,), vjp)


@functools.lru_cache(maxsize=64)
def _row_column(n: int, dtype: np.dtype, mean: bool) -> np.ndarray:
    """An (n, 1) column of ones, or of 1/n with `mean`, read-only:
    `_row_reduce`'s constant operand, built once per length and dtype.
    Building it per call would add about 1 us, two thirds of the product
    itself at (63, 64)."""
    col = np.full((n, 1), 1.0 / n if mean else 1.0, dtype)
    col.flags.writeable = False
    return col


def _row_reduce(x: np.ndarray, mean: bool) -> np.ndarray:
    """The sum (or, with `mean`, the mean) of `x` over its last axis, the
    axis kept, as one BLAS product of the rows with `_row_column`.
    numpy's last-axis `add.reduce` works row by row and costs about twice
    as much at the model's shapes."""
    return x @ _row_column(x.shape[-1], x.dtype, mean)


def _softmax_rows(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of `x` (at least 2-D) into `out`, which
    may be `x`, each row's sum from `_row_reduce`. When every score lies
    strictly inside +-_EXP_SAFE, exp cannot overflow or underflow and the
    max shift is skipped: one min and one max over the array decide it.
    Other inputs, NaN and inf among them, are shifted by each row's
    maximum, reduced from a contiguous transposed copy, which is faster
    and exact (a maximum does not round). At (4, 63, 63) in float32 the
    skip saves about half the kernel and the fallback's two extra passes
    cost about a tenth, so the check pays while a fifth of the calls
    skip."""
    if x.size and -_EXP_SAFE < np.minimum.reduce(x, None) and np.maximum.reduce(x, None) < _EXP_SAFE:
        np.exp(x, out=out)
    else:
        row_max = np.maximum.reduce(np.ascontiguousarray(np.swapaxes(x, -1, -2)), -2)
        np.subtract(x, row_max[..., None], out=out)
        np.exp(out, out=out)
    out /= _row_reduce(out, False)
    return out


def _normalize(y: np.ndarray) -> np.ndarray:
    """y = (y - mean) / sqrt(var + LAYERNORM_EPS) over the last axis, in
    place, both means from `_row_reduce`; returns the divisor, axis kept."""
    y -= _row_reduce(y, True)
    var = _row_reduce(y * y, True)
    var += LAYERNORM_EPS
    std = np.sqrt(var, out=var)
    y /= std
    return std


def add_layernorm(x, r, g, b) -> Tensor:
    """(s - mean) / sqrt(var + eps) * g + b over the last axis of the
    residual sum s = x + r, as one node, with eps = LAYERNORM_EPS; s is
    normalized in its own array and not kept.

    With xhat the normalized sum and dy = grad * g, the vjp is the closed
    form ds = (dy - mean(dy) - xhat * mean(dy * xhat)) / sqrt(var + eps),
    handed to both x and r, dg = sum(grad * xhat) and db = sum(grad) over
    the leading axes.
    """
    x, r = _as_tensor(x), _as_tensor(r, x.dtype)
    g, b = _as_tensor(g, x.dtype), _as_tensor(b, x.dtype)
    xhat = x.data + r.data
    std = _normalize(xhat)
    out = xhat * g.data
    out += b.data

    def vjp(grad):
        dy = grad * g.data
        dot = _row_reduce(dy * xhat, True)
        dx = dy - _row_reduce(dy, True)
        dx -= np.multiply(xhat, dot, out=dy)
        dx /= std
        return (_unbroadcast(dx, x.shape), _unbroadcast(dx, r.shape),
                _unbroadcast(grad * xhat, g.shape), _unbroadcast(grad, b.shape))

    return Tensor._make(out, (x, r, g, b), vjp)


# -- linear algebra --------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b, a.dtype)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    out = a.data @ b.data
    need_a, need_b = _tracked(a), _tracked(b)

    def vjp(g):
        return (_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape) if need_a else None,
                _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape) if need_b else None)

    return Tensor._make(out, (a, b), vjp)


def linear(x, w, b) -> Tensor:
    """x @ w + b for a batched x (..., m, k), a 2-D weight w (k, n) and a
    bias b that broadcasts to the product's shape, as one node.

    The product is one GEMM over the flattened batch, and the bias is
    added in place into its fresh array. The weight gradient is a single
    (k, n) product, never a per-batch stack summed afterwards.
    """
    x, w, b = _as_tensor(x), _as_tensor(w, x.dtype), _as_tensor(b, x.dtype)
    if x.ndim < 2 or w.ndim != 2:
        raise ShapeError(f"linear needs a >=2-d input and a 2-d weight, got {x.shape} @ {w.shape}")
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear inner dimensions disagree: {x.shape} @ {w.shape}")
    rows = math.prod(x.shape[:-1])
    x2 = x.data.reshape(rows, x.shape[-1])
    out = (x2 @ w.data).reshape(x.shape[:-1] + w.shape[1:])
    out += b.data
    need_x, need_w, need_b = _tracked(x), _tracked(w), _tracked(b)

    def vjp(g):
        g2 = g.reshape(rows, w.shape[1])
        return ((g2 @ w.data.T).reshape(x.shape) if need_x else None,
                x2.T @ g2 if need_w else None,
                _unbroadcast(g, b.shape) if need_b else None)

    return Tensor._make(out, (x, w, b), vjp)


def softmax(a) -> Tensor:
    """Softmax over the last axis of an operand of at least two axes."""
    a = _as_tensor(a)
    out = _softmax_rows(a.data, np.empty_like(a.data))

    def vjp(g):
        dot = _row_reduce(g * out, False)
        return (out * (g - dot),)

    return Tensor._make(out, (a,), vjp)


def softmax_attention(q, k, v) -> Tensor:
    """softmax(q kT / sqrt(d)) v with rows of weights summing to 1.

    q: (..., Tq, d), k: (..., Tk, d), v: (..., Tk, dv).
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    d = q.shape[-1]
    if d == 0:
        raise ShapeError("attention head dimension is zero")
    if k.shape[-1] != d:
        raise ShapeError(f"q/k head dims disagree: {q.shape} vs {k.shape}")
    if v.shape[-2] != k.shape[-2]:
        raise ShapeError(f"k/v lengths disagree: {k.shape} vs {v.shape}")
    axes = list(range(k.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    scores = mul(matmul(q, transpose(k, tuple(axes))), 1.0 / math.sqrt(d))
    return matmul(softmax(scores), v)


# -- reductions and shape surgery -----------------------------------------


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = _as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        g = np.asarray(g)
        if axis is None:
            g = g.reshape((1,) * a.data.ndim)
        elif not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return Tensor._make(np.asarray(out), (a,), vjp)


def cumsum(a, axis: int) -> Tensor:
    a = _as_tensor(a)
    out = np.cumsum(a.data, axis=axis)

    def vjp(g):
        return (np.flip(np.cumsum(np.flip(g, axis=axis), axis=axis), axis=axis),)

    return Tensor._make(out, (a,), vjp)


def reshape(a, *shape) -> Tensor:
    a = _as_tensor(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    out = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(a.shape),)

    return Tensor._make(out, (a,), vjp)


def transpose(a, axes=None) -> Tensor:
    a = _as_tensor(a)
    out = np.transpose(a.data, axes)
    inv = None if axes is None else tuple(np.argsort(axes))

    def vjp(g):
        return (np.transpose(g, inv),)

    return Tensor._make(out, (a,), vjp)


def _is_basic_index(idx) -> bool:
    """True for numpy basic indexing (slices, ints, Ellipsis, None), which
    never selects an element twice."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(p is None or p is Ellipsis or isinstance(p, slice)
               or (isinstance(p, (int, np.integer)) and not isinstance(p, bool)) for p in parts)


class _SliceGrad(NamedTuple):
    """The gradient of a basic-index `take`: `g` belongs at `idx` of its
    operand and the rest is zero. `backward` adds it into the operand's
    accumulator instead of building the zero-padded array."""

    idx: object
    g: np.ndarray


def take(a, idx) -> Tensor:
    """Basic indexing; any other index raises ContractError."""
    if not _is_basic_index(idx):
        raise ContractError("take accepts basic indices only: slices, integers, Ellipsis and None")
    a = _as_tensor(a)
    out = a.data[idx]

    def vjp(g):
        return (_SliceGrad(idx, g),)

    return Tensor._make(out, (a,), vjp)


def concat(parts: Sequence, axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor._make(out, tuple(parts), vjp)


# -- backward pass ----------------------------------------------------------


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _released(g):
    raise ContractError("backward already ran through this graph and released it")


def backward(loss: Tensor, params: Iterable[Tensor]) -> dict[int, np.ndarray]:
    """Reverse-mode sweep from a scalar loss; it consumes the graph.

    Returns a map id(p) -> gradient for each of `params`, which must be
    leaves with requires_grad; one the loss does not reach gets explicit
    zeros. Visits each graph node exactly
    once, popping it off the topological order; once its vjp has run the
    node drops the vjp and its parents, so what they held is freed as the
    sweep goes. A second backward through the graph raises ContractError.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    params = list(params)
    if not all(p.requires_grad and p._vjp is None for p in params):
        raise ContractError("backward computes gradients only for parameters: leaves with requires_grad")
    wanted = {id(p) for p in params}
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    owned: set[int] = set()  # ids of nodes whose accumulator this sweep allocated
    order = _toposort(loss)
    while order:
        node = order.pop()
        g = grads.pop(id(node), None)
        owned.discard(id(node))
        vjp, parents = node._vjp, node._parents
        if vjp is None:
            if g is not None and id(node) in wanted:
                grads[id(node)] = g  # keep the parameters' gradients
            continue
        node._vjp, node._parents = _released, ()
        if g is not None:
            for p, pg in zip(parents, vjp(g)):
                if pg is not None:
                    _accumulate(grads, owned, p, pg)
    return {id(p): grads[id(p)] if id(p) in grads else np.zeros_like(p.data) for p in params}


def _accumulate(grads: dict[int, np.ndarray], owned: set[int], p: Tensor, pg) -> None:
    """Add one parent gradient into p's accumulator, with the bits of the
    dense sum `acc + pg` (a slice gradient counts as zero-padded to p)."""
    key = id(p)
    acc = grads.get(key)
    if isinstance(pg, _SliceGrad):
        if acc is None:
            acc = grads[key] = np.zeros_like(p.data)
            owned.add(key)
        elif key not in owned:
            acc = grads[key] = acc.copy(order="K")
            owned.add(key)
        acc[pg.idx] += pg.g
        return
    if acc is None:
        grads[key] = pg  # may be shared with another parent or a view: never written
    elif key in owned and acc.shape == pg.shape:
        acc += pg
    else:
        grads[key] = acc + pg
        owned.add(key)


def grads_by_name(loss: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    gmap = backward(loss, params.values())
    return {k: gmap[id(p)] for k, p in params.items()}


# -- Adam ---------------------------------------------------------------


@dataclass
class AdamState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState | None,
    lr: float = 1e-4,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
) -> tuple[dict[str, Tensor], AdamState]:
    """One bias-corrected Adam update (Kingma & Ba, arXiv 1412.6980), in
    place and deterministic.

    Each gradient has its parameter's shape and dtype, and each
    parameter array is C-contiguous and writable. Every parameter is
    checked before anything is written, so a refused call leaves the
    parameters and the state as they were. Runs block by block over each
    flattened parameter, with two block-sized scratch arrays, and writes
    the new parameter, m and v over the old ones; zero m and v are
    allocated only for a parameter the state has not seen. The gradients
    are only read. Returns `params` itself and the updated state, a new
    `AdamState` when `state` is None.
    """
    if state is None:
        state = AdamState()
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"adam: grad shape {g.shape} != param shape {p.shape} for {name}")
        if g.dtype != p.dtype:
            raise ContractError(f"adam: grad dtype {g.dtype} != param dtype {p.dtype} for {name}")
        # reshape(-1) of any other array is a copy, and the update would be lost
        if not (p.data.flags.c_contiguous and p.data.flags.writeable):
            raise ContractError(f"adam: param {name} is not a C-contiguous, writable array")
    b1, b2 = betas
    t = state.step + 1
    c1, c2 = 1 - b1**t, 1 - b2**t
    for name, p in params.items():
        if name not in state.m:
            state.m[name], state.v[name] = np.zeros(p.shape, p.dtype), np.zeros(p.shape, p.dtype)
        gf, pf, mf, vf = (a.reshape(-1) for a in (grads[name], p.data, state.m[name], state.v[name]))
        block, blocks = _blocks(gf.size)
        spare_a, spare_b = np.empty(block, p.dtype), np.empty(block, p.dtype)
        for s in blocks:
            gb, m, v = gf[s], mf[s], vf[s]
            a, b = spare_a[:len(gb)], spare_b[:len(gb)]
            # m = b1 * m + (1 - b1) * g and so on, each operation as the
            # closed form evaluates it, the new m and v straight into the
            # state (`m += y` adds in the closed form's order)
            np.multiply(b1, m, out=m)
            m += np.multiply(1 - b1, gb, out=a)
            gv = np.multiply(gb, gb, out=b)
            gv = np.multiply(1 - b2, gv, out=gv)
            np.multiply(b2, v, out=v)
            v += gv
            mhat = np.divide(m, c1, out=a)
            vhat = np.divide(v, c2, out=b)
            denom = np.add(np.sqrt(vhat, out=vhat), eps, out=vhat)
            step = np.multiply(lr, mhat, out=mhat)
            step = np.divide(step, denom, out=step)  # lr * mhat / (sqrt(vhat) + eps)
            np.subtract(pf[s], step, out=pf[s])
    state.step = t
    return params, state


# -- finite differences -------------------------------------------------


@dataclass
class GradCheckReport:
    max_rel_err: float
    max_abs_err: float
    worst_param: str
    per_param: dict[str, float]

    def ok(self, rtol: float) -> bool:
        return self.max_rel_err < rtol


def gradcheck(
    build_loss: Callable[[], Tensor],
    params: dict[str, Tensor],
    h: float = 1e-5,
    subset: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare autodiff gradients of build_loss() against central FD.

    The relative error denominator is floored at 1e-6x the largest
    gradient magnitude so that structurally tiny gradients are judged on
    absolute agreement instead of FD noise.
    """
    for p in params.values():
        if p.dtype != np.float64:
            raise ContractError("gradcheck requires float64 parameters")
    ad = grads_by_name(build_loss(), params)
    gmax = max((float(np.abs(g).max()) for g in ad.values() if g.size), default=1.0)
    floor = max(gmax, 1.0) * 1e-6
    per: dict[str, float] = {}
    max_rel = 0.0
    max_abs = 0.0
    worst = ""
    for name, p in params.items():
        x = p.data
        if subset is not None and x.size > subset:
            assert rng is not None
            picks = rng.choice(x.size, size=subset, replace=False)
        else:
            picks = np.arange(x.size)
        flat = x.reshape(-1)
        ad_flat = ad[name].reshape(-1)
        rel_here = 0.0
        for i in picks:
            orig = flat[i]
            flat[i] = orig + h
            fp = build_loss().item()
            flat[i] = orig - h
            fm = build_loss().item()
            flat[i] = orig
            fd = (fp - fm) / (2.0 * h)
            a = ad_flat[i]
            abs_err = abs(a - fd)
            rel = abs_err / max(abs(a), abs(fd), floor)
            rel_here = max(rel_here, rel)
            max_abs = max(max_abs, abs_err)
            if rel > max_rel:
                max_rel = rel
                worst = name
        per[name] = rel_here
    return GradCheckReport(max_rel_err=max_rel, max_abs_err=max_abs, worst_param=worst, per_param=per)
