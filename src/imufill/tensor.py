"""Dense tensors with reverse-mode automatic differentiation.

Just enough machinery for a small transformer denoiser: broadcast
elementwise arithmetic, (batched) matmul, softmax/attention, reductions,
cumulative sums, shape surgery, Adam, and a finite-difference gradient
checker. Arrays are numpy; the graph is a thin closure-based tape.

Conventions:
  * float64 for oracle/gradient-check work, float32 for training and
    inference (see DEFAULT_DTYPE).
  * broadcasting is numpy's trailing-dimension rule; anything else needs
    an explicit reshape.
  * ops never mutate their inputs; `backward` returns a gradient map
    instead of scribbling on tensors.
  * a batched operand times a 2-D weight, (..., m, k) @ (k, n), runs
    forward and backward as one 2-D GEMM over the flattened batch, so
    the weight gradient is a single (k, n) product, never a per-batch
    stack summed afterwards.
  * `layernorm` is one node whose vjp is the closed form (Ba et al.,
    arXiv 1607.06450), not the composition of means, square roots and
    divisions it replaces.
  * a basic-index `take` hands `backward` its slice gradient alone;
    `backward` adds it into the one gradient accumulator of the sliced
    tensor, cast first to that tensor's dtype as the zero-padded buffer
    did, so no operand-sized zero buffer is built per slice. Fancy
    indices, which may repeat, still scatter with `np.add.at` into a
    buffer of their own. `backward` adds in place only into accumulators
    it allocated itself and only when the dtypes agree: a vjp may hand
    one array to two parents (`add` does) or return views (`concat`,
    `reshape`), and those are never written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32

_GELU_C = math.sqrt(2.0 / math.pi)


class ShapeError(ValueError):
    """Raised when operand shapes cannot be combined."""


class ContractError(RuntimeError):
    """Raised when an operation's precondition is violated."""


class Tensor:
    """An immutable-by-convention array node in the autodiff graph.

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
        out = Tensor.__new__(Tensor)
        out.data = data
        track = any(p.requires_grad or p._vjp is not None for p in parents)
        out.requires_grad = False
        out._parents = parents if track else ()
        out._vjp = vjp if track else None
        return out

    # -- operators -------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_as_tensor(other, self.dtype), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return power(self, p)

    def __getitem__(self, idx):
        return take(self, idx)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def transpose(self, *axes):
        return transpose(self, axes if axes else None)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


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


def _into(ufunc, x, y, spare: np.ndarray) -> np.ndarray:
    """ufunc(x, y) as numpy evaluates the expression, written into `spare`
    (a temporary the caller owns) when it has the result's dtype."""
    return ufunc(x, y, out=spare if spare.dtype == np.result_type(x, y) else None)


# -- elementwise arithmetic ----------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b, a.dtype)
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return Tensor._make(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b, a.dtype)
    out = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return Tensor._make(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b, a.dtype)
    out = a.data * b.data

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

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


def neg(a) -> Tensor:
    a = _as_tensor(a)

    def vjp(g):
        return (-g,)

    return Tensor._make(-a.data, (a,), vjp)


def power(a, p: float) -> Tensor:
    a = _as_tensor(a)
    p = float(p)
    out = a.data**p

    def vjp(g):
        return (g * p * a.data ** (p - 1.0),)

    return Tensor._make(out, (a,), vjp)


def texp(a) -> Tensor:
    a = _as_tensor(a)
    out = np.exp(a.data)

    def vjp(g):
        return (g * out,)

    return Tensor._make(out, (a,), vjp)


def tlog(a) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(divide="warn", invalid="warn"):
        out = np.log(a.data)

    def vjp(g):
        return (g / a.data,)

    return Tensor._make(out, (a,), vjp)


def tsqrt(a) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(invalid="warn"):
        out = np.sqrt(a.data)

    def vjp(g):
        return (g * 0.5 / out,)

    return Tensor._make(out, (a,), vjp)


def ttanh(a) -> Tensor:
    a = _as_tensor(a)
    out = np.tanh(a.data)

    def vjp(g):
        return (g * (1.0 - out * out),)

    return Tensor._make(out, (a,), vjp)


def gelu(a) -> Tensor:
    """tanh-approximated GELU; smooth everywhere so FD checks behave."""
    a = _as_tensor(a)
    x = a.data
    inner = _GELU_C * (x + 0.044715 * x * x * x)
    t = np.tanh(inner)
    out = 0.5 * x * (1.0 + t)

    def vjp(g):
        # g * (0.5 * (1 + t) + 0.5 * x * (1 - t * t) * dinner) with
        # dinner = _GELU_C * (1 + 3 * 0.044715 * x * x), term by term in
        # that order, in three arrays instead of one per operation.
        dinner = 3 * 0.044715 * x
        dinner *= x
        dinner += 1.0
        dinner *= _GELU_C
        sech2 = t * t
        np.subtract(1.0, sech2, out=sech2)
        d = 0.5 * x
        d *= sech2
        d *= dinner
        half = np.add(1.0, t, out=sech2)  # sech2 is spent; reuse it
        half *= 0.5
        np.add(half, d, out=d)
        return (_into(np.multiply, g, d, d),)

    return Tensor._make(out, (a,), vjp)


def layernorm(x, g, b, eps: float = 1e-5) -> Tensor:
    """(x - mean) / sqrt(var + eps) * g + b over the last axis, as one node.

    With xhat the normalized input and dy = grad * g, the vjp is the
    closed form dx = (dy - mean(dy) - xhat * mean(dy * xhat)) / sqrt(var
    + eps), dg = sum(grad * xhat) and db = sum(grad) over the leading axes.
    """
    x, g, b = _as_tensor(x), _as_tensor(g, x.dtype), _as_tensor(b, x.dtype)
    xc = x.data - x.data.mean(axis=-1, keepdims=True)
    std = np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    xhat = np.divide(xc, std, out=xc)
    prod = xhat * g.data
    out = _into(np.add, prod, b.data, prod)

    def vjp(grad):
        dy = grad * g.data
        dot = (dy * xhat).mean(axis=-1, keepdims=True)
        dx = dy - dy.mean(axis=-1, keepdims=True)
        dx = _into(np.subtract, dx, _into(np.multiply, xhat, dot, dy), dx)
        dx = _into(np.divide, dx, std, dx)
        return dx, _unbroadcast(grad * xhat, g.shape), _unbroadcast(grad, b.shape)

    return Tensor._make(out, (x, g, b), vjp)


# -- linear algebra --------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b, a.dtype)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    if a.ndim > 2 and b.ndim == 2:
        # (..., m, k) @ (k, n): one GEMM over the flattened batch, and a
        # (k, n) weight gradient without a per-batch stack to sum.
        rows = math.prod(a.shape[:-1])
        a2 = a.data.reshape(rows, a.shape[-1])
        out = (a2 @ b.data).reshape(a.shape[:-1] + b.shape[1:])

        def vjp(g):
            g2 = g.reshape(rows, b.shape[1])
            return (g2 @ b.data.T).reshape(a.shape), a2.T @ g2

        return Tensor._make(out, (a, b), vjp)

    out = a.data @ b.data

    def vjp(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return Tensor._make(out, (a, b), vjp)


def softmax(a, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
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
    scores = mul(matmul(q, transpose_last(k)), 1.0 / math.sqrt(d))
    return matmul(softmax(scores, axis=-1), v)


def transpose_last(a) -> Tensor:
    a = _as_tensor(a)
    axes = list(range(a.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return transpose(a, tuple(axes))


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


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size if axis is None else a.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


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
    """Basic slicing/indexing with gradient scatter-add."""
    a = _as_tensor(a)
    out = a.data[idx]

    if _is_basic_index(idx):
        def vjp(g):
            return (_SliceGrad(idx, g),)
    else:
        def vjp(g):
            buf = np.zeros_like(a.data)
            np.add.at(buf, idx, g)  # fancy indices may repeat: accumulate
            return (buf,)

    return Tensor._make(out, (a,), vjp)


def concat(parts: Sequence, axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor._make(out, tuple(parts), vjp)


def stack(parts: Sequence, axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    expanded = [reshape(p, p.shape[:axis] + (1,) + p.shape[axis:]) for p in parts]
    return concat(expanded, axis=axis)


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


def backward(loss: Tensor, params: Iterable[Tensor] | None = None) -> dict[int, np.ndarray]:
    """Reverse-mode sweep from a scalar loss.

    Returns a map id(tensor) -> gradient for every leaf with
    requires_grad; parameters listed in `params` but unreachable from the
    loss get explicit zeros. Visits each graph node exactly once.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    owned: set[int] = set()  # ids of nodes whose accumulator this sweep allocated
    for node in reversed(_toposort(loss)):
        g = grads.pop(id(node), None)
        owned.discard(id(node))
        if g is None or node._vjp is None:
            if g is not None and (node.requires_grad or node._vjp is None):
                grads[id(node)] = g  # keep leaf grads
            continue
        parent_grads = node._vjp(g)
        for p, pg in zip(node._parents, parent_grads):
            if pg is not None:
                _accumulate(grads, owned, p, pg)
    out: dict[int, np.ndarray] = {}
    if params is not None:
        for p in params:
            out[id(p)] = grads.get(id(p), np.zeros_like(p.data))
    else:
        out = grads
    return out


def _accumulate(grads: dict[int, np.ndarray], owned: set[int], p: Tensor, pg) -> None:
    """Add one parent gradient into p's accumulator, with the bits of the
    dense sum `acc + pg` (a slice gradient counts as zero-padded to p)."""
    key = id(p)
    acc = grads.get(key)
    if isinstance(pg, _SliceGrad):
        g = pg.g.astype(p.dtype, copy=False)
        if acc is None:
            acc = grads[key] = np.zeros_like(p.data)
            owned.add(key)
        elif key not in owned or acc.dtype != np.result_type(acc, g):
            acc = grads[key] = acc.astype(np.result_type(acc, g))
            owned.add(key)
        acc[pg.idx] += g
        return
    if acc is None:
        grads[key] = pg  # may be shared with another parent or a view: never written
    elif key in owned and acc.shape == pg.shape and acc.dtype == np.result_type(acc, pg):
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
    """One bias-corrected Adam update; purely functional, deterministic."""
    if state is None:
        state = AdamState()
    b1, b2 = betas
    t = state.step + 1
    new_params: dict[str, Tensor] = {}
    new_m: dict[str, np.ndarray] = {}
    new_v: dict[str, np.ndarray] = {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"adam: grad shape {g.shape} != param shape {p.shape} for {name}")
        # m = b1 * m_prev + (1 - b1) * g and so on, each operation as the
        # closed form evaluates it, but written into arrays this call
        # allocated, never into the inputs.
        gm = (1 - b1) * g
        m = _into(np.add, b1 * state.m.get(name, 0.0), gm, gm)
        gv = g * g
        gv = _into(np.multiply, 1 - b2, gv, gv)
        v = _into(np.add, b2 * state.v.get(name, 0.0), gv, gv)
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        denom = _into(np.add, np.sqrt(vhat, out=vhat), eps, vhat)
        step = _into(np.multiply, lr, mhat, mhat)
        step = _into(np.divide, step, denom, step)  # lr * mhat / (sqrt(vhat) + eps)
        stepped = _into(np.subtract, p.data, step, step)
        q = Tensor(stepped.astype(p.dtype, copy=False), requires_grad=True)
        new_params[name] = q
        new_m[name] = np.asarray(m, dtype=p.dtype)
        new_v[name] = np.asarray(v, dtype=p.dtype)
    return new_params, AdamState(step=t, m=new_m, v=new_v)


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
