"""Bit-identity oracles for the inference hot path and the shared model code.

`FastDenoiser.predict`, its helpers and `inference.inpaint_denoise` are
written for speed (in-place residual adds, reused noise buffers). The
frozen copies below are plain expressions of their arithmetic: row sums
and means as one product of the rows with a constant column, a softmax
that skips its max shift when every score lies inside +-64, and the
two-token cross-attention as a tanh gate. Every output must equal
theirs bit for bit, not merely within a tolerance. The plain expressions
that arithmetic replaced (numpy's reductions, a max-shifted softmax
everywhere, each head's softmax over its pair of scores) stay as
tolerance oracles with stated bounds, and so does the losses' forward
kinematics built one segment at a time, against their one product with
the tree's position operator scaled per window. Bit identity holds for
code that now has one definition where it had two: `FastDenoiser`'s
conditioning, built from the graph's token and fold functions, against
the numpy copy it replaced; and the body model's one synthesis pass per
motion and forward kinematics, one product of the globals with the
position operator, against the two passes and a frozen copy of that
product, and `global_to_local`'s one product over all segments against
the per-segment loop it replaced. The forward kinematics walked one
segment at a time that the product replaced stays as a tolerance oracle:
orientations and contact labels bit for bit, positions within 1e-14 and
accelerations within 1e-11 of the larger of 1 and their largest size.
The training graph's one-node `linear` and `add_layernorm` are checked,
op by op and through a whole training step, against frozen copies of
the two-node compositions they replaced, and
the tape they leave must be smaller by what those compositions kept and
no vjp read.
The inpainting loop is pinned to a plain expression of its arithmetic in
the denoiser's input space: the window projected once, Box-Muller noise
drawn as a (61, k) block and mapped by the model's `in_factor`, and the
generated row projected again. The window-space renoise and the
ziggurat draws it replaced give another sample, so they are no tolerance
oracle; the float64 full-window reference whose noise is n Qᵀ and the
sampler's distribution tests in `test_inference.py` take that role.
The block-by-block `gelu` and `adam_step` are checked byte for byte
against frozen copies of the full-array expressions they replaced; the
tape must no longer hold GELU's tanh, and `backward` must release it as
it runs.
"""

import functools
import math
import weakref
from typing import Callable, NamedTuple

import numpy as np
import pytest

from imufill import datagen as dg
from imufill import diffusion as df
from imufill import features as ft
from imufill import inference as inf
from imufill import kinematics as kin
from imufill import tensor as tt
from imufill.tensor import Tensor

from conftest import random_rotations, ref_forward_kinematics, toy_tree


# -- frozen reference: the plain expressions --------------------------------


def _row_sum(x):
    """The sum over the last axis, axis kept: the rows times a column of ones."""
    return x @ np.ones((x.shape[-1], 1), x.dtype)


def _row_mean(x):
    """The mean over the last axis, axis kept: the rows times a column of 1/n."""
    return x @ np.full((x.shape[-1], 1), 1.0 / x.shape[-1], x.dtype)


def _unshifted_softmax(s):
    np.exp(s, out=s)
    s /= _row_sum(s)
    return s


def _shifted_softmax(s):
    s -= s.max(-1, keepdims=True)
    return _unshifted_softmax(s)


def _plain_softmax(s):
    inside = np.all((-64.0 < s) & (s < 64.0))
    return _unshifted_softmax(s) if inside else _shifted_softmax(s)


def _plain_layernorm(x, g, b, eps=1e-5):
    x -= _row_mean(x)
    var = _row_mean(x * x)
    var += eps
    x /= np.sqrt(var, out=var)
    x *= g
    x += b
    return x


def _plain_gate(x, lw, gate):
    """The cross-attention as `FastDenoiser` runs it: the tanh gate's
    output and the bias that joins the residual sum."""
    A, c, V, bias = gate
    return np.tanh(x @ A + c) @ V, bias


# the plain expressions the arithmetic above replaced: tolerance oracles


def _ref_softmax(s):
    s -= s.max(-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(-1, keepdims=True)
    return s


def _ref_layernorm(x, g, b, eps=1e-5):
    x -= x.mean(-1, keepdims=True)
    var = (x * x).mean(-1, keepdims=True)
    var += eps
    x /= np.sqrt(var, out=var)
    x *= g
    x += b
    return x


def _ref_pair_softmax(x, lw, fold):
    """The cross-attention as a softmax over each head's pair of scores."""
    ws, bs, vo = fold
    n, nh = len(x), len(bs) // 2
    return _ref_softmax((x @ ws + bs).reshape(n, nh, 2)).reshape(n, 2 * nh) @ vo, lw["cross.bo"]


class _Arithmetic(NamedTuple):
    softmax: Callable
    layernorm: Callable
    cross: Callable  # (x, layer weights, that layer's conditioning) -> (output, bias)
    conditioning: Callable  # (model, t, h) -> (step token, height token, per-layer conditioning)


def _rounded_folds(model, t, h):
    step_tok, height_tok, folds = _ref_conditioning(model, t, h)
    return step_tok, height_tok, [tuple(a.astype(model.dtype) for a in fold) for fold in folds]


PLAIN = _Arithmetic(_plain_softmax, _plain_layernorm, _plain_gate, df.FastDenoiser._conditioning)
REPLACED = _Arithmetic(_ref_softmax, _ref_layernorm, _ref_pair_softmax, _rounded_folds)


def _ref_block(model, x, q, kv, lw, cond, arith):
    cfg = model.cfg
    n, d, nh, hd = len(x), cfg.width, cfg.nhead, cfg.head_dim
    q = q.reshape(n, nh, hd).transpose(1, 0, 2)
    k = kv[:, :d].reshape(-1, nh, hd).transpose(1, 2, 0)
    v = kv[:, d:].reshape(-1, nh, hd).transpose(1, 0, 2)
    attn = (arith.softmax((q @ k) * (1.0 / math.sqrt(hd))) @ v).transpose(1, 0, 2).reshape(n, d)
    x = arith.layernorm(x + attn @ lw["attn.wo"] + lw["attn.bo"], lw["ln1.g"], lw["ln1.b"])
    cross, bias = arith.cross(x, lw, cond)
    x = arith.layernorm(x + cross + bias, lw["ln2.g"], lw["ln2.b"])
    ffn = _ref_gelu(x @ lw["ff.w1"] + lw["ff.b1"])[0] @ lw["ff.w2"]
    return arith.layernorm(x + ffn + lw["ff.b2"], lw["ln3.g"], lw["ln3.b"])


def _ref_predict(model, z, t, h, rows=None, arith=PLAIN):
    return _ref_predict_projected(model, np.asarray(z, dtype=model.dtype) @ model.w["in_proj.w"], t, h,
                                  rows, arith)


def _ref_predict_projected(model, zw, t, h, rows=None, arith=PLAIN):
    w = model.w
    d = model.cfg.width
    step_tok, height_tok, conds = arith.conditioning(model, t, h)
    frames = zw + w["in_proj.b"] + model.pos
    x = np.concatenate([step_tok, height_tok, frames])
    *body, last = model._layers
    for lw, cond in zip(body, conds):
        qkv = x @ lw["attn.wqkv"] + lw["attn.bqkv"]
        x = _ref_block(model, x, qkv[:, :d], qkv[:, d:], lw, cond, arith)
    wqkv, bqkv = last["attn.wqkv"], last["attn.bqkv"]
    kv = x @ wqkv[:, d:] + bqkv[d:]
    x = x[model._tokens if rows is None else model._tokens[rows]]
    x = _ref_block(model, x, x @ wqkv[:, :d] + bqkv[:d], kv, last, conds[-1], arith)
    return x @ w["out_proj.w"] + w["out_proj.b"]


def _ref_inpaint(model, schedule, x_input, mask, h, spread, rng):
    """The loop in the denoiser's input space: the window projected once by
    W = `in_proj.w`, noise n (61, k) mapped by the model's factor R, and
    each generated row projected again after its edit."""
    keep = mask > 0.5
    rows = np.flatnonzero(~keep.all(axis=1))
    dtype = model.dtype
    W, R = model.w["in_proj.w"], model.in_factor
    xin = x_input.astype(dtype)
    x = xin.copy()
    xw = x @ W

    def noised(aw, t):
        ab = schedule.alpha_bar[t]
        if ab == 1.0:  # no noise, so no draw
            return aw
        # Box-Muller on one (61, k) block of uniforms: radii from the first
        # half, angles from the second
        u = rng.random(len(aw) * len(R), dtype=dtype)
        n = u.size // 2
        r = np.sqrt(-2 * np.log(1 - u[:n]))
        angle = 2 * np.pi * u[n:]
        z = np.concatenate([r * np.cos(angle), r * np.sin(angle)]).reshape(len(aw), len(R))
        return np.sqrt(1.0 - ab, dtype=dtype) * (z @ R) + np.sqrt(ab, dtype=dtype) * aw

    def edit(zw, t):
        x[rows] = np.where(keep[rows], xin[rows], _ref_predict_projected(model, zw, t, h, rows=rows))
        for r in rows:
            xw[r] = x[r] @ W

    for t in spread.steps:
        edit(noised(xw, t), t)
    result = x_input.copy()
    np.copyto(result, x, where=~keep)
    return result


# -- predict ------------------------------------------------------------------


# the stated numerical effect of the row kernel, the softmax guard and the
# tanh gate on a prediction, relative to the larger of 1 and its largest
# magnitude (measured: 5.4e-7 and 1.0e-15)
PREDICT_TOL = {np.float32: 5e-6, np.float64: 1e-13}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layers,width,ff", [(2, 64, 128), (3, 96, 160)])
def test_predict_matches_frozen_reference_bit_for_bit(layers, width, ff, dtype):
    cfg = df.DenoiserConfig(layers=layers, width=width, ff=ff)
    model = df.FastDenoiser(cfg, df.init_denoiser(cfg, seed=layers), dtype=dtype)
    rng = np.random.default_rng(width)
    z = (3.0 * rng.standard_normal((61, 190))).astype(dtype)
    for t, h in [(0, 1.55), (417, 1.8), (1000, 2.05)]:
        for rows in (None, np.array([60]), np.array([0, 30, 60]), np.arange(61)):
            got = model.predict(z, t, h, rows=rows)
            want = _ref_predict(model, z, t, h, rows=rows)
            assert got.dtype == want.dtype and np.array_equal(got, want), (t, h, rows)
            replaced = _ref_predict(model, z, t, h, rows=rows, arith=REPLACED)
            assert _close_to(PREDICT_TOL[dtype])(got, replaced), (t, h, rows)


# -- helpers ------------------------------------------------------------------


def _score_arrays(shape, dtype, seed):
    """Random scores up to +-1e4, plus tied rows and constant rows."""
    rng = np.random.default_rng(seed)
    s = (rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-3, 5, shape[:-1] + (1,))).astype(dtype)
    flat = s.reshape(-1, shape[-1])
    flat[::7] = flat[::7, :1]                        # constant rows
    flat[1::5, -1] = flat[1::5].max(-1)              # ties at the maximum
    flat[2::9] = np.round(flat[2::9])                # many ties
    return s


def _inside_exp_safe(shape, dtype, seed):
    """Scores of `_score_arrays` scaled into +-63, ties kept."""
    s = _score_arrays(shape, dtype, seed)
    return (s * (63.0 / np.abs(s).max())).astype(dtype)


# a few units in the last place of 1, the largest softmax weight
# (measured: 1.2e-7 and 4.4e-16)
SOFTMAX_TOL = {np.float32: 1e-6, np.float64: 2e-15}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(4, 63, 63), (4, 1, 63), (8, 3, 63), (2, 5, 7)])
def test_softmax_matches_plain_reductions(shape, dtype):
    # the shared kernel in place, as FastDenoiser calls it, and into a
    # fresh array, as the graph's softmax does, on scores beyond +-64
    # (the max-shifted branch) and on the same scores scaled inside it
    for s in (_score_arrays(shape, dtype, seed=sum(shape)), _inside_exp_safe(shape, dtype, seed=sum(shape))):
        want = _plain_softmax(s.copy())
        inplace = s.copy()
        assert np.array_equal(tt._softmax_rows(inplace, inplace), want)
        assert _same(tt.softmax(Tensor(s)).data, want)
        np.testing.assert_allclose(want, _ref_softmax(s.copy()), rtol=0, atol=SOFTMAX_TOL[dtype])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", ["inside", "beyond", "nan", "-inf"])
def test_guarded_softmax_takes_each_branch(dtype, case):
    s = _inside_exp_safe((4, 63, 63), dtype, seed=9)
    s[0, 0, 0], s[1, 2, 3] = 63.9, -63.9
    if case == "beyond":
        s[3, 5] = np.linspace(-1e4, 1e4, 63)  # one row far beyond +-64, the others small
    elif case == "nan":
        s[2, 7, 11] = np.nan
    elif case == "-inf":
        s[2, 7, :5] = -np.inf  # masked scores: the row maximum stays finite
    got = tt._softmax_rows(s, np.empty_like(s))
    shifted = _shifted_softmax(s.copy())  # the max shift as before, then the row kernel's sum
    if case == "inside":
        # no shift: the bits differ from the shifted branch's, and the
        # values stay within a few units in the last place of the
        # max-shifted softmax with numpy's sums
        assert _bytes_same(got, _unshifted_softmax(s.copy())) and not _bytes_same(got, shifted)
        np.testing.assert_allclose(got, _ref_softmax(s.copy()), rtol=0, atol=SOFTMAX_TOL[dtype])
    else:
        assert _bytes_same(got, shifted)
    if case == "beyond":
        assert got[3, 5, -1] == 1.0 and np.isfinite(got).all()
    elif case == "nan":  # the NaN spreads over its own row only
        assert np.isnan(got[2, 7]).all() and np.isnan(got).any(-1).sum() == 1
    elif case == "-inf":
        assert (got[2, 7, :5] == 0).all() and np.isfinite(got).all()


# relative to the larger of 1 and the largest output, which reaches about 10
# (measured: 1.0e-7 and 8.9e-15)
LAYERNORM_TOL = {np.float32: 1e-6, np.float64: 4e-14}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(63, 64), (1, 64), (61, 96), (5, 512)])
def test_add_layernorm_matches_plain_sum_and_mean(shape, dtype):
    y = _score_arrays(shape, dtype, seed=shape[-1])
    rng = np.random.default_rng(shape[0])
    x = (100.0 * rng.standard_normal(shape)).astype(dtype)
    x[::3] = -y[::3]                                 # rows whose residual sum cancels
    bias, g, b = rng.standard_normal((3, shape[-1])).astype(dtype)
    got = df._add_layernorm_inplace(y.copy(), x, bias, g, b)
    assert np.array_equal(got, _plain_layernorm(x + y + bias, g, b))
    assert _close_to(LAYERNORM_TOL[dtype])(got, _ref_layernorm(x + y + bias, g, b))


# -- inpainting ---------------------------------------------------------------


def test_inpaint_matches_frozen_reference_bit_for_bit():
    schedule = df.build_cosine_schedule(1000)
    spread = inf.StepSpread.like_10d(5)
    for width in (32, 256):  # k = d, and k = 190 < d
        cfg = df.DenoiserConfig(layers=2, width=width, ff=64)
        model = df.FastDenoiser(cfg, df.init_denoiser(cfg, seed=5))
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((61, 190))
            observed = rng.random(190) >= rng.random()
            mask = np.ones_like(x)  # every history row known, as in a session
            mask[-1] = observed
            got_rng, want_rng = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)
            got = inf.inpaint_denoise(model, schedule, x, observed, 1.7, spread, got_rng)
            want = _ref_inpaint(model, schedule, x, mask, 1.7, spread, want_rng)
            assert np.array_equal(got, want[-1]), (width, seed)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


# -- conditioning -------------------------------------------------------------


def _ref_conditioning(model, t, h):
    """The numpy copy of the token MLPs and the cross-attention fold that
    `FastDenoiser._conditioning` used before it called the graph's; the
    folds (ws, bs, vo) stay in float64."""
    w = model.w
    cfg = model.cfg
    d, nh, hd = cfg.width, cfg.nhead, cfg.head_dim
    step_in = df.sinusoidal_embedding(np.array([t], dtype=np.float64), d).astype(model.dtype)
    step_tok = _ref_gelu(step_in @ w["step_mlp.w1"] + w["step_mlp.b1"])[0] @ w["step_mlp.w2"] + w["step_mlp.b2"]
    h_in = np.array([[h]], dtype=model.dtype)
    height_tok = _ref_gelu(h_in @ w["height_mlp.w1"] + w["height_mlp.b1"])[0] @ w["height_mlp.w2"] + w["height_mlp.b2"]
    mem = np.concatenate([step_tok, height_tok], axis=0)
    scale = 1.0 / math.sqrt(hd)
    folds = []
    for lw in model._layers:
        ckv = (mem @ lw["cross.wkv"] + lw["cross.bkv"]).astype(np.float64)
        ck = ckv[:, :d].reshape(2, nh, hd).transpose(1, 2, 0)
        cv = ckv[:, d:].reshape(2, nh, hd).transpose(1, 0, 2)
        ws = scale * (lw["cross.wq"].reshape(d, nh, hd).transpose(1, 0, 2) @ ck)
        bs = scale * (lw["cross.bq"].reshape(nh, 1, hd) @ ck)
        vo = cv @ lw["cross.wo"].reshape(nh, hd, d)
        folds.append((ws.transpose(1, 0, 2).reshape(d, 2 * nh), bs.reshape(2 * nh), vo.reshape(2 * nh, d)))
    return step_tok, height_tok, folds


def _ref_gates(model, t, h):
    """The tanh gate of each layer from the frozen fold: per head, the
    step token's score column, score bias and value row minus the height
    token's, halved, and half the sum of every value row plus the output
    bias, formed in float64 and rounded once."""
    step_tok, height_tok, folds = _ref_conditioning(model, t, h)
    gates = []
    for lw, (ws, bs, vo) in zip(model._layers, folds):
        step, height = np.arange(0, len(bs), 2), np.arange(1, len(bs), 2)
        gate = (0.5 * (ws[:, step] - ws[:, height]), 0.5 * (bs[step] - bs[height]),
                0.5 * (vo[step] - vo[height]), 0.5 * vo.sum(axis=0) + lw["cross.bo"])
        gates.append(tuple(a.astype(model.dtype) for a in gate))
    return step_tok, height_tok, gates


def _with_biases(params, seed):
    """params with every bias and layernorm shift drawn nonzero."""
    rng = np.random.default_rng(seed)
    return {k: Tensor((0.3 * rng.standard_normal(v.shape)).astype(v.dtype))
            if k.rsplit(".", 1)[-1].startswith("b") else v for k, v in params.items()}


def _same(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)


def _close_to(tol):
    """A comparison like `_same` that allows `tol` times the larger of 1
    and the reference's largest magnitude."""
    def close(got, want):
        scale = max(1.0, float(np.abs(want).max(initial=0.0)))
        return (got.dtype == want.dtype and got.shape == want.shape
                and float(np.abs(got - want).max(initial=0.0)) <= tol * scale)
    return close


@pytest.mark.parametrize("nhead", [1, 2, 4])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layers,width,ff", [(2, 64, 128), (3, 96, 160)])
def test_conditioning_matches_frozen_numpy_copy_bit_for_bit(layers, width, ff, dtype, nhead):
    cfg = df.DenoiserConfig(layers=layers, width=width, ff=ff, nhead=nhead)
    params = _with_biases(df.init_denoiser(cfg, seed=layers, dtype=dtype), seed=width + nhead)
    model = df.FastDenoiser(cfg, params, dtype=dtype)
    for t, h in [(0, 1.75), (500, 1.62), (1000, 1.9)]:
        step_tok, height_tok, gates = model._conditioning(t, h)
        want_step, want_height, want_gates = _ref_gates(model, t, h)
        assert _same(step_tok, want_step) and _same(height_tok, want_height), (t, h)
        assert len(gates) == len(want_gates) == layers
        for gate, want in zip(gates, want_gates):
            assert len(gate) == 4 and all(_same(a, b) for a, b in zip(gate, want)), (t, h)
            assert all(a.flags.c_contiguous for a in gate)


# -- losses -------------------------------------------------------------------


def _ref_fk_context(tree, heights):
    s = (np.atleast_1d(heights) / tree.reference_height)[:, None, None]
    return tree.parents, tree.offsets[None] * s, tree.contact_segments, tree.contact_offsets[None] * s


def _ref_fk_positions(G, ctx, dtype):
    parents, offsets, _, _ = ctx
    B, N = G.shape[0], G.shape[1]
    pos = [Tensor(np.zeros((B, N, 3), dtype=dtype))]
    for i in range(1, len(parents)):
        par = int(parents[i])
        off = Tensor(offsets[:, i].reshape(B, 1, 3, 1).astype(dtype))
        pos.append(tt.add(pos[par], tt.reshape(tt.matmul(G[:, :, par], off), (B, N, 3))))
    return pos, tt.concat([tt.reshape(p, (B, N, 1, 3)) for p in pos], axis=2)


def _ref_contact_xz(G, pos, ctx, dtype):
    _, _, segments, offsets = ctx
    B, N = G.shape[0], G.shape[1]
    pts = []
    for c, seg in enumerate(segments):
        off = Tensor(offsets[:, c].reshape(B, 1, 3, 1).astype(dtype))
        p = tt.add(pos[int(seg)], tt.reshape(tt.matmul(G[:, :, int(seg)], off), (B, N, 3)))
        pts.append(tt.reshape(tt.concat([p[..., 0:1], p[..., 2:3]], axis=-1), (B, N, 1, 2)))
    return tt.concat(pts, axis=2)


def _ref_rotations(cols):
    """(B, N, S, 3, 3) rotation matrices from their columns (B, N, S, 9)."""
    return tt.transpose(tt.reshape(cols, cols.shape[:-1] + (3, 3)), (0, 1, 2, 4, 3))


def _ref_diffusion_losses(pred, target, ctx):
    """`diffusion_losses` as it was with a per-batch FK context, built
    one segment and one contact point at a time."""
    dtype = pred.dtype
    B, N = pred.shape[0], pred.shape[1]
    tgt = Tensor(np.asarray(target, dtype=dtype))
    simple = df._sumsq(tt.sub(pred, tgt))
    r_pred = pred[:, :, ft.R_OFF:ft.R_OFF + ft.R_LEN]
    r_tgt = tgt[:, :, ft.R_OFF:ft.R_OFF + ft.R_LEN]
    vel = df._sumsq(tt.sub(tt.sub(r_pred[:, 1:], r_pred[:, :-1]), tt.sub(r_tgt[:, 1:], r_tgt[:, :-1])))
    g_pred, g_tgt = (_ref_rotations(df._graph_decode6d(tt.reshape(r, (B, N, ft.N_SEGMENTS, 6))))
                     for r in (r_pred, r_tgt))
    pos_pred_list, pos_pred = _ref_fk_positions(g_pred, ctx, dtype)
    _, pos_tgt = _ref_fk_positions(g_tgt, ctx, dtype)
    fk = df._sumsq(tt.sub(pos_pred, pos_tgt))
    dp_pred = pred[:, :, ft.DP_OFF:ft.DP_OFF + 2]
    dp_tgt = tgt[:, :, ft.DP_OFF:ft.DP_OFF + 2]
    drift = df._sumsq(tt.sub(tt.cumsum(dp_pred, axis=1), tt.cumsum(dp_tgt, axis=1)))
    ftxz = _ref_contact_xz(g_pred, pos_pred_list, ctx, dtype)
    disp = tt.add(tt.sub(ftxz[:, 1:], ftxz[:, :-1]), tt.reshape(dp_pred[:, 1:], (B, N - 1, 1, 2)))
    b_pred = pred[:, :, ft.B_OFF:ft.B_OFF + ft.B_LEN]
    slide = df._sumsq(tt.mul(tt.reshape(b_pred[:, :-1], (B, N - 1, ft.B_LEN, 1)), disp))
    terms = {"simple": simple, "vel": vel, "fk": fk, "drift": drift, "slide": slide}
    parts = {name: tt.mul(term, 1.0 / B) for name, term in terms.items()}
    total = functools.reduce(tt.add, parts.values())
    return total, {**{name: float(part.data) for name, part in parts.items()}, "total": float(total.data)}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_losses_of_mixed_heights_match_per_batch_fk_context(tree, dtype):
    # one product with the position operator sums in another order than
    # the per-segment walk: each term within tol of max(1, its size), and
    # each gradient within tol of max(1, its largest magnitude)
    tol = {np.float32: 1e-6, np.float64: 1e-14}[dtype]
    feats = dg.make_trial(dg.generate_motion("gait", seed=4, duration_s=8.0, speed=1.3), tree).features(tree)
    x = np.stack([feats[s:s + 61] for s in (0, 17, 40, 90)])
    heights = np.array([1.55, 1.75, 1.93, 1.62])
    cfg = df.DenoiserConfig(layers=1, width=16, ff=32)
    params = _with_biases(df.init_denoiser(cfg, seed=3, dtype=dtype), seed=5)
    params = {k: Tensor(v.data, requires_grad=True) for k, v in params.items()}
    ts = np.array([10, 300, 600, 990])
    z = df.noise_window(x, ts, df.build_cosine_schedule(), np.random.default_rng(6))

    total, bd = df.diffusion_losses(df.denoiser_forward(cfg, params, z, ts, heights), x, tree, heights)
    ref_total, ref_bd = _ref_diffusion_losses(df.denoiser_forward(cfg, params, z, ts, heights), x,
                                              _ref_fk_context(tree, heights))
    got_bd = bd.as_dict()
    assert got_bd.keys() == ref_bd.keys()
    for name, want in ref_bd.items():
        assert abs(got_bd[name] - want) <= tol * max(1.0, abs(want)), (name, got_bd[name], want)
    got, want = tt.grads_by_name(total, params), tt.grads_by_name(ref_total, params)
    close = _close_to(tol)
    for name in params:
        assert close(got[name], want[name]), name


# -- body model ---------------------------------------------------------------


def _ref_position_operator(tree):
    """`kinematics.position_operator` as it was built, column by column."""
    bases = np.concatenate([tree.parents, tree.contact_segments, tree.site_segments])
    offsets = np.concatenate([tree.offsets, tree.contact_offsets, tree.site_offsets])
    op = np.zeros((tree.n_segments, 3, len(bases)))
    for j in range(1, len(bases)):
        op[:, :, j] = op[:, :, bases[j]]
        op[bases[j], :, j] = offsets[j]
    return op.reshape(3 * tree.n_segments, len(bases))


def _ref_operator_forward_kinematics(tree, rotations, root_position):
    """Forward kinematics as one product: the own orientation loop, then
    every pose's rows G'[r, 3k + c] = G_k[r, c] times the operator."""
    G = ref_forward_kinematics(tree, rotations, np.zeros(3)).globals_
    S, C = tree.n_segments, len(tree.contact_segments)
    rows = np.swapaxes(G, -3, -2).reshape(-1, 3 * S)
    P = np.swapaxes((rows @ kin.position_operator(tree)).reshape(G.shape[:-3] + (3, -1)), -1, -2)
    P = P + np.asarray(root_position, dtype=np.float64)[..., None, :]
    return kin.FKResult(globals_=G, joints=P[..., :S, :], sites=P[..., S + C:, :], contacts=P[..., S:S + C, :])


def _ref_synthesize_imu(motion, tree, noise_std, fk_of):
    """(site orientations, accelerations, contact labels) by the two
    passes that one synthesis pass replaced, with forward kinematics fk_of."""
    scaled = tree.scaled(motion.height)
    fk = fk_of(scaled, motion.rotations, motion.root_positions)
    acc = dg.second_central_difference(fk.sites, dg.RAW_RATE_HZ)
    acc = dg.moving_average(acc)
    if noise_std > 0:
        rng = np.random.default_rng([dg._stable_seed(motion.trial_id), 303])
        acc = acc + rng.normal(0.0, noise_std, size=acc.shape)
    idx = np.arange(0, motion.n_frames, dg.DECIMATION)
    orient = fk.globals_[idx][:, tree.site_segments]
    fk = fk_of(scaled, motion.rotations, motion.root_positions)
    speeds = np.linalg.norm(dg.central_velocity(fk.contacts, dg.RAW_RATE_HZ), axis=-1)
    return orient, acc[idx], dg.labels_from_speeds(speeds)[:: dg.DECIMATION]


@pytest.mark.parametrize("noise_std", [0.0, 0.3])
@pytest.mark.parametrize("kind", dg.MOTION_KINDS)
def test_one_synthesis_pass_matches_frozen_two_passes(tree, kind, noise_std):
    # bit for bit against the two passes through the operator product;
    # against the per-segment walk, orientations and labels bit for bit
    # and accelerations within 1e-11 of the larger of 1 and the largest
    m = dg.generate_motion(kind, seed=5, duration_s=4.0, height=1.68, trial_id=f"{kind}-5")
    got = dg.synthesize_imu(m, tree, noise_std=noise_std)
    want = _ref_synthesize_imu(m, tree, noise_std, _ref_operator_forward_kinematics)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert got[2].dtype == want[2].dtype == np.uint8
    walked = _ref_synthesize_imu(m, tree, noise_std, ref_forward_kinematics)
    assert np.array_equal(got[0], walked[0]) and np.array_equal(got[2], walked[2])
    assert np.abs(got[1] - walked[1]).max() <= 1e-11 * max(1.0, np.abs(walked[1]).max())


@pytest.mark.parametrize("toy, batch", [(False, ()), (False, (1801,)), (True, (61,))])
def test_forward_kinematics_matches_frozen_own_orientation_loop(tree, toy, batch):
    # bit for bit against the own orientation loop and one product with
    # the operator, whose rows build equals the column build it replaced;
    # the per-segment walk holds the orientations bit for bit and the
    # positions within 1e-14 of the larger of 1 and the largest |p|
    body = toy_tree() if toy else tree.scaled(1.83)
    assert np.array_equal(kin.position_operator(body), _ref_position_operator(body))
    rng = np.random.default_rng(len(batch) + toy)
    rot = random_rotations(rng, *batch, body.n_segments)
    root = rng.standard_normal(batch + (3,))
    got = kin.forward_kinematics(body, rot, root)
    want = _ref_operator_forward_kinematics(body, rot, root)
    for name in ("globals_", "joints", "sites", "contacts"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    walked = ref_forward_kinematics(body, rot, root)
    assert np.array_equal(got.globals_, walked.globals_)
    for name in ("joints", "sites", "contacts"):
        g, w = getattr(got, name), getattr(walked, name)
        assert np.abs(g - w).max() <= 1e-14 * max(1.0, np.abs(w).max()), name


def _ref_decode_rot6d(r6):
    """`decode_rot6d` as numpy's norm, cross and stack wrote it."""
    r6 = np.asarray(r6, dtype=np.float64)
    a1, a2 = r6[..., :3], r6[..., 3:]
    b1 = a1 / np.maximum(np.linalg.norm(a1, axis=-1, keepdims=True), 1e-8)
    u2 = a2 - (b1 * a2).sum(axis=-1, keepdims=True) * b1
    b2 = u2 / np.maximum(np.linalg.norm(u2, axis=-1, keepdims=True), 1e-8)
    return np.stack([b1, b2, np.cross(b1, b2)], axis=-1)


@pytest.mark.parametrize("shape,dtype", [((24, 6), np.float32), ((500, 24, 6), np.float64), ((6,), np.float64)])
def test_decode_rot6d_matches_frozen_norm_cross_stack_bit_for_bit(shape, dtype):
    rng = np.random.default_rng(len(shape))
    r6 = (3.0 * rng.standard_normal(shape)).astype(dtype)
    flat = r6.reshape(-1, 6)
    flat[:3] = 0.0  # both columns at the norm floor
    flat[3:6, 3:] = 2.5 * flat[3:6, :3]  # parallel columns
    flat[6:9, :3] *= 1e-9  # a first column below the floor
    got = kin.decode_rot6d(r6)
    want = _ref_decode_rot6d(r6)
    assert got.shape == shape[:-1] + (3, 3) and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    got = kin.decode_rot6d(r6[..., ::-1])  # a strided input, last axis reversed
    assert got.tobytes() == _ref_decode_rot6d(r6[..., ::-1]).tobytes()


def _ref_global_to_local(tree, globals_):
    L = np.empty_like(globals_)
    L[..., 0, :, :] = globals_[..., 0, :, :]
    for i in range(1, tree.n_segments):
        p = tree.parents[i]
        L[..., i, :, :] = np.swapaxes(globals_[..., p, :, :], -1, -2) @ globals_[..., i, :, :]
    return L


@pytest.mark.parametrize("toy, batch", [(False, ()), (False, (61,)), (False, (5, 7)), (True, (61,))])
def test_global_to_local_matches_frozen_per_segment_loop(tree, toy, batch):
    body = toy_tree() if toy else tree
    rng = np.random.default_rng(len(batch) + 10 * toy)
    G = kin.decode_rot6d(rng.standard_normal(batch + (body.n_segments, 6)))
    assert np.array_equal(kin.global_to_local(body, G), _ref_global_to_local(body, G))


# -- training graph -------------------------------------------------------------


def _ref_matmul(a, b):
    """`tensor.matmul`'s (..., m, k) @ (k, n) branch, as it was."""
    rows = math.prod(a.shape[:-1])
    a2 = a.data.reshape(rows, a.shape[-1])
    out = (a2 @ b.data).reshape(a.shape[:-1] + b.shape[1:])

    def vjp(g):
        g2 = g.reshape(rows, b.shape[1])
        return (g2 @ b.data.T).reshape(a.shape), a2.T @ g2

    return Tensor._make(out, (a, b), vjp)


def _numpy_mean(x):
    return x.mean(axis=-1, keepdims=True)


def _ref_layernorm_node(x, g, b, mean):
    """`tensor.layernorm`, the one-input node, as it was, with its
    last-axis means from `mean`: `_numpy_mean` as it was, `_row_mean`
    for the row kernel."""
    xc = x.data - mean(x.data)
    std = np.sqrt(mean(xc * xc) + tt.LAYERNORM_EPS)
    xhat = np.divide(xc, std, out=xc)
    prod = xhat * g.data
    out = np.add(prod, b.data, out=prod)

    def vjp(grad):
        dy = grad * g.data
        dot = mean(dy * xhat)
        dx = dy - mean(dy)
        dx = np.subtract(dx, np.multiply(xhat, dot, out=dy), out=dx)
        dx = np.divide(dx, std, out=dx)
        return dx, tt._unbroadcast(grad * xhat, g.shape), tt._unbroadcast(grad, b.shape)

    return Tensor._make(out, (x, g, b), vjp)


def _ref_linear(x, w, b, kept):
    """A linear layer as two nodes; `kept` collects the bias-free product."""
    kept.append(_ref_matmul(x, w))
    return tt.add(kept[-1], b)


def _ref_add_layernorm(x, r, g, b, kept, mean):
    """A residual layernorm as two nodes; `kept` collects the residual sum."""
    kept.append(tt.add(x, r))
    return _ref_layernorm_node(kept[-1], g, b, mean)


def _ref_denoiser_forward(cfg, params, z, t, h, kept, mean=_row_mean):
    """`denoiser_forward`, with `_condition_tokens` and `_cross_attention`
    inlined, over the two-node compositions, the layernorms' means from
    `mean`."""
    P = params
    dtype = P["in_proj.w"].dtype
    z = Tensor(np.asarray(z, dtype=dtype))
    d, nhead = cfg.width, cfg.nhead
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    h = np.atleast_1d(np.asarray(h, dtype=np.float64))
    B = len(t)
    step_in = Tensor(df.sinusoidal_embedding(t, d).reshape(B, 1, d).astype(dtype))
    step_tok = _ref_linear(tt.gelu(_ref_linear(step_in, P["step_mlp.w1"], P["step_mlp.b1"], kept)),
                           P["step_mlp.w2"], P["step_mlp.b2"], kept)
    h_in = Tensor(h.reshape(B, 1, 1).astype(dtype))
    height_tok = _ref_linear(tt.gelu(_ref_linear(h_in, P["height_mlp.w1"], P["height_mlp.b1"], kept)),
                             P["height_mlp.w2"], P["height_mlp.b2"], kept)

    pos = Tensor(df.sinusoidal_embedding(np.arange(ft.WINDOW_LEN), d)[None].astype(dtype))
    frames = tt.add(_ref_linear(z, P["in_proj.w"], P["in_proj.b"], kept), pos)
    tokens = tt.concat([step_tok, height_tok, frames], axis=1)
    memory = tt.concat([step_tok, height_tok], axis=1)

    x = tokens
    for i in range(cfg.layers):
        p = f"layers.{i}."
        qkv = _ref_linear(x, P[p + "attn.wqkv"], P[p + "attn.bqkv"], kept)
        q = df._split_heads(qkv[:, :, :d], nhead)
        k = df._split_heads(qkv[:, :, d:2 * d], nhead)
        v = df._split_heads(qkv[:, :, 2 * d:], nhead)
        attn = df._merge_heads(tt.softmax_attention(q, k, v))
        x = _ref_add_layernorm(x, _ref_linear(attn, P[p + "attn.wo"], P[p + "attn.bo"], kept),
                               P[p + "ln1.g"], P[p + "ln1.b"], kept, mean)
        T = x.shape[1]
        ckv = _ref_linear(memory, P[p + "cross.wkv"], P[p + "cross.bkv"], kept)
        ws, bs, vo = df._cross_fold(ckv, P, p, nhead)
        weights = tt.softmax(tt.reshape(tt.add(tt.matmul(x, ws), bs), (B, T, nhead, 2)))
        cross = tt.add(tt.matmul(tt.reshape(weights, (B, T, 2 * nhead)), vo), P[p + "cross.bo"])
        x = _ref_add_layernorm(x, cross, P[p + "ln2.g"], P[p + "ln2.b"], kept, mean)
        ffn = _ref_linear(tt.gelu(_ref_linear(x, P[p + "ff.w1"], P[p + "ff.b1"], kept)),
                          P[p + "ff.w2"], P[p + "ff.b2"], kept)
        x = _ref_add_layernorm(x, ffn, P[p + "ln3.g"], P[p + "ln3.b"], kept, mean)

    return _ref_linear(x[:, 2:, :], P["out_proj.w"], P["out_proj.b"], kept)


def _operand(rng, shape, dtype, sliced):
    """A trainable operand of `shape`, or a `[:, 2:]` slice of a larger one,
    as `out_proj` reads the frame tokens."""
    full = (shape[0], shape[1] + 2 * sliced) + shape[2:]
    leaf = Tensor((2.0 * rng.standard_normal(full)).astype(dtype), requires_grad=True)
    return leaf[:, 2:] if sliced else leaf


@pytest.mark.parametrize("sliced", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(4, 61, 24), (2, 3, 5, 7)])
def test_linear_matches_frozen_matmul_and_add_bit_for_bit(shape, dtype, sliced):
    rng = np.random.default_rng(sum(shape) + sliced)
    x = _operand(rng, shape, dtype, sliced)
    assert x.data.flags.c_contiguous != sliced
    w = Tensor(rng.standard_normal((shape[-1], 9)).astype(dtype), requires_grad=True)
    b = Tensor(rng.standard_normal(9).astype(dtype), requires_grad=True)
    got, want = tt.linear(x, w, b), tt.add(_ref_matmul(x, w), b)
    assert _same(got.data, want.data)
    g = rng.standard_normal(got.shape).astype(got.dtype)
    g_prod, gb = want._vjp(g)
    gx, gw = want._parents[0]._vjp(g_prod)
    grads = got._vjp(g)
    assert len(grads) == 3 and all(_same(a, e) for a, e in zip(grads, (gx, gw, gb)))


@pytest.mark.parametrize("sliced", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(4, 61, 64), (2, 1, 96)])
def test_add_layernorm_matches_frozen_add_and_layernorm_bit_for_bit(shape, dtype, sliced):
    rng = np.random.default_rng(shape[-1] + sliced)
    x = _operand(rng, shape, dtype, sliced)
    r = Tensor((50.0 * rng.standard_normal(shape)).astype(dtype), requires_grad=True)
    r.data[0, ::3] = -x.data[0, ::3]  # rows whose residual sum cancels
    g = Tensor(rng.standard_normal(shape[-1]).astype(dtype), requires_grad=True)
    b = Tensor(rng.standard_normal(shape[-1]).astype(dtype), requires_grad=True)
    got = tt.add_layernorm(x, r, g, b)
    grad = rng.standard_normal(got.shape).astype(got.dtype)
    grads = got._vjp(grad)
    assert len(grads) == 4
    for mean, same in ((_row_mean, _same), (_numpy_mean, _close_to(LAYERNORM_TOL[dtype]))):
        want = _ref_layernorm_node(tt.add(x, r), g, b, mean)
        assert same(got.data, want.data)
        d_sum, dg, db = want._vjp(grad)
        dx, dr = want._parents[0]._vjp(d_sum)
        assert all(same(a, e) for a, e in zip(grads, (dx, dr, dg, db)))


def _trainable(params):
    return {k: Tensor(v.data, requires_grad=True) for k, v in params.items()}


@pytest.fixture(scope="module")
def batch4(tree):
    feats = dg.make_trial(dg.generate_motion("gait", seed=4, duration_s=8.0, speed=1.3), tree).features(tree)
    return np.stack([feats[s:s + 61] for s in (0, 17, 40, 90)]), np.array([1.55, 1.75, 1.93, 1.62])


# the losses and gradients of a training step whose layernorms take
# numpy's means, relative to the larger of 1 and each one's largest
# magnitude (measured: 3.2e-7 and 6.6e-16)
TRAINING_TOL = {np.float32: 4e-6, np.float64: 1e-14}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layers,width,ff", [(2, 64, 128), (3, 32, 48)])
def test_training_step_matches_frozen_composed_forward_bit_for_bit(tree, batch4, monkeypatch,
                                                                   layers, width, ff, dtype):
    # three layers give the cross-attention memory three consumers, so a
    # change in the order their gradients are summed would show
    cfg = df.DenoiserConfig(layers=layers, width=width, ff=ff)
    params = _trainable(_with_biases(df.init_denoiser(cfg, seed=layers, dtype=dtype), seed=width))
    windows, heights = batch4
    ts = np.array([3, 250, 600, 1000])
    schedule = df.build_cosine_schedule()
    got_bd, got = df.training_step(cfg, params, schedule, windows, heights, ts,
                                   np.random.default_rng(9), tree)
    for mean, same in ((_row_mean, _same), (_numpy_mean, _close_to(TRAINING_TOL[dtype]))):
        monkeypatch.setattr(df, "denoiser_forward", functools.partial(_ref_denoiser_forward, kept=[], mean=mean))
        want_bd, want = df.training_step(cfg, params, schedule, windows, heights, ts,
                                         np.random.default_rng(9), tree)
        if mean is _row_mean:
            assert got_bd.as_dict() == want_bd.as_dict()
        else:
            np.testing.assert_allclose(list(got_bd.as_dict().values()), list(want_bd.as_dict().values()),
                                       rtol=TRAINING_TOL[dtype])
        assert set(got) == set(want) == set(params)
        for name in params:
            assert same(got[name], want[name]), (name, mean)


def _tape_bytes(root):
    """Bytes of the distinct arrays reachable from `root`: every node's
    data and every array its vjp closure holds, each buffer counted once."""
    buffers = {}

    def add(a):
        while isinstance(a.base, np.ndarray):
            a = a.base
        buffers[id(a)] = a.nbytes

    for node in tt._toposort(root):
        add(node.data)
        for cell in (node._vjp.__closure__ or ()) if node._vjp else ():
            held = cell.cell_contents
            held = held.data if isinstance(held, Tensor) else held
            if isinstance(held, np.ndarray):
                add(held)
    return sum(buffers.values())


def test_tape_holds_no_bias_free_product_or_residual_sum(tree, batch4):
    cfg = df.DenoiserConfig(layers=2, width=64, ff=128)
    params = _trainable(df.init_denoiser(cfg, seed=2))
    windows, heights = batch4
    ts = np.array([3, 250, 600, 1000])
    z = df.noise_window(windows, ts, df.build_cosine_schedule(), np.random.default_rng(6))
    total, _ = df.diffusion_losses(df.denoiser_forward(cfg, params, z, ts, heights), windows, tree, heights)
    kept = []
    ref_total, _ = df.diffusion_losses(_ref_denoiser_forward(cfg, params, z, ts, heights, kept),
                                       windows, tree, heights)
    unread = sum(t.data.nbytes for t in kept)
    # the products of six linear layers outside the blocks and five in each,
    # and three residual sums in each block
    assert len(kept) == 6 + 8 * cfg.layers
    new, old = _tape_bytes(total), _tape_bytes(ref_total)
    assert new <= old - unread, (new, old, unread)


# -- blocked elementwise chains -------------------------------------------------


def _ref_gelu(x):
    """`tensor.gelu`'s forward as one full-array expression, with its tanh."""
    t = 0.044715 * x
    t *= x
    t *= x
    t += x
    t *= math.sqrt(2.0 / math.pi)
    np.tanh(t, out=t)
    out = 0.5 * x
    out *= 1.0 + t
    return out, t


def _ref_gelu_grad(x, t, g):
    """`tensor.gelu`'s vjp as one full-array expression over the kept tanh."""
    dinner = 3 * 0.044715 * x
    dinner *= x
    dinner += 1.0
    dinner *= math.sqrt(2.0 / math.pi)
    sech2 = t * t
    np.subtract(1.0, sech2, out=sech2)
    d = 0.5 * x
    d *= sech2
    d *= dinner
    half = np.add(1.0, t, out=sech2)
    half *= 0.5
    np.add(half, d, out=d)
    return np.multiply(g, d, out=d)


def _ref_adam(p, m_prev, v_prev, g, t, lr, b1, b2, eps):
    """One `tensor.adam_step` update of one parameter as full-array
    expressions; m_prev and v_prev are 0.0 in a fresh state."""
    gm = (1 - b1) * g
    m = np.add(b1 * m_prev, gm, out=gm)
    gv = g * g
    gv = np.multiply(1 - b2, gv, out=gv)
    v = np.add(b2 * v_prev, gv, out=gv)
    mhat = m / (1 - b1**t)
    vhat = v / (1 - b2**t)
    denom = np.add(np.sqrt(vhat, out=vhat), eps, out=vhat)
    step = np.multiply(lr, mhat, out=mhat)
    step = np.divide(step, denom, out=step)
    stepped = np.subtract(p, step, out=step)
    return stepped, m, v


def _wide(rng, shape, dtype, spread=6):
    """Values over many decades, with signed zeros, so that a changed
    operation order or dtype shows in the last bits."""
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-spread, spread // 2 + 1, shape)
    a = np.asarray(a, dtype=dtype)
    a.reshape(-1)[:2] = (0.0, -0.0)[:a.size]
    return a


_B = tt._BLOCK
# sizes not a multiple of the block, one row wider than a block, zero rows,
# 1-d and 0-d operands
_FLAT_SHAPES = [(3 * _B + 5,), (2, _B + 3), (4, 61, 512), (_B,), (0, 64), (7,), ()]


def _bytes_same(got, want):
    """Equal dtype, shape and bytes: unlike `np.array_equal`, this tells
    -0.0 from +0.0."""
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _one_d(a):
    """`a` as a 1-element array if it is 0-d: the full-array expressions
    above write into their temporaries, which a numpy scalar cannot take."""
    return a.reshape(1) if a.ndim == 0 else a


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", _FLAT_SHAPES)
def test_blocked_gelu_matches_full_array_expression(shape, dtype):
    rng = np.random.default_rng(len(shape) + sum(shape))
    x = _wide(rng, shape, dtype, spread=2)
    if x.size > 3:
        x.reshape(-1)[2:4] = (40.0, -40.0)
    g = _wide(rng, shape, dtype)
    node = tt.gelu(Tensor(x, requires_grad=True))
    want, t = _ref_gelu(_one_d(x))
    assert _bytes_same(node.data, want.reshape(shape))
    (got,) = node._vjp(g)
    assert _bytes_same(got, _ref_gelu_grad(_one_d(x), t, _one_d(g)).reshape(shape))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", _FLAT_SHAPES)
def test_whole_array_gelu_matches_the_blocked_graph_gelu(shape, dtype):
    # FastDenoiser runs the shared kernel once over the whole array, in
    # place; the graph's gelu runs it block by block into a fresh array
    rng = np.random.default_rng(len(shape) + sum(shape) + 1)
    x = _wide(rng, shape, dtype, spread=2)
    whole = x.copy()
    tt._gelu_block(whole, whole, np.empty_like(whole))
    assert _bytes_same(whole, tt.gelu(Tensor(x)).data)


def test_blocked_gelu_reads_a_strided_input_and_gradient():
    rng = np.random.default_rng(3)
    x = _wide(rng, (_B + 7, 3), np.float32, spread=2).T
    g = _wide(rng, (_B + 7, 3), np.float32).T
    assert not x.flags.c_contiguous and not g.flags.c_contiguous
    node = tt.gelu(Tensor(x, requires_grad=True))
    want, t = _ref_gelu(x)
    assert _bytes_same(node.data, want)
    assert _bytes_same(node._vjp(g)[0], _ref_gelu_grad(x, t, g))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blocked_adam_matches_full_array_expressions(dtype):
    rng = np.random.default_rng(41)
    lr, (b1, b2), eps = 3e-3, (0.9, 0.999), 1e-8
    shapes = {"long": (3 * _B + 5,), "wide": (2, _B + 3), "mat": (61, 512), "none": (0, 8),
              "vec": (7,), "scalar": ()}
    params = {k: Tensor((1e-4 * rng.standard_normal(s)).astype(dtype), requires_grad=True)
              for k, s in shapes.items()}
    # adam_step writes into the parameters' arrays: the reference starts from copies
    want = {k: (_one_d(p.data.copy()), 0.0, 0.0) for k, p in params.items()}
    state = None
    for t in range(1, 4):
        # step 1 is a fresh state, and every step has +0.0 and -0.0 gradients
        grads = {k: _wide(rng, s, dtype) for k, s in shapes.items()}
        params, state = tt.adam_step(params, grads, state, lr=lr, betas=(b1, b2), eps=eps)
        want = {k: _ref_adam(*want[k], _one_d(grads[k]), t, lr, b1, b2, eps) for k in shapes}
        for k, s in shapes.items():
            p_want, m_want, v_want = (a.reshape(s) for a in want[k])
            assert _bytes_same(params[k].data, p_want), (t, k)
            assert _bytes_same(state.m[k], m_want) and _bytes_same(state.v[k], v_want), (t, k)


# -- the released tape ------------------------------------------------------------


def _ref_gelu_node(a, kept):
    """`tensor.gelu` as a node that keeps its tanh for the vjp, as it did;
    `kept` collects the tanh arrays."""
    x = a.data
    out, t = _ref_gelu(x)
    kept.append(t)

    def vjp(g):
        return (_ref_gelu_grad(x, t, g),)

    return Tensor._make(out, (a,), vjp)


def _toy_losses(tree, batch4, params, cfg):
    windows, heights = batch4
    ts = np.array([3, 250, 600, 1000])
    z = df.noise_window(windows, ts, df.build_cosine_schedule(), np.random.default_rng(6))
    pred = df.denoiser_forward(cfg, params, z, ts, heights)
    return pred, df.diffusion_losses(pred, windows, tree, heights)[0]


def test_tape_holds_no_gelu_tanh(tree, batch4, monkeypatch):
    cfg = df.DenoiserConfig(layers=2, width=64, ff=128)
    params = _trainable(df.init_denoiser(cfg, seed=2))
    _, total = _toy_losses(tree, batch4, params, cfg)
    kept = []
    monkeypatch.setattr(tt, "gelu", functools.partial(_ref_gelu_node, kept=kept))
    _, ref_total = _toy_losses(tree, batch4, params, cfg)
    # the step and height MLPs and one FFN per layer
    assert len(kept) == 2 + cfg.layers
    tanh_bytes = sum(t.nbytes for t in kept)
    new, old = _tape_bytes(total), _tape_bytes(ref_total)
    assert new <= old - tanh_bytes, (new, old, tanh_bytes)


def test_backward_releases_the_tape(tree, batch4):
    cfg = df.DenoiserConfig(layers=2, width=64, ff=128)
    params = _trainable(df.init_denoiser(cfg, seed=2))
    pred, total = _toy_losses(tree, batch4, params, cfg)
    held = weakref.ref(pred.data)
    del pred
    assert held() is not None  # the losses' nodes hold the prediction
    grads = tt.grads_by_name(total, params)
    assert held() is None and total._parents == ()
    assert set(grads) == set(params)
    # a second sweep finds the graph consumed instead of returning zeros
    with pytest.raises(tt.ContractError):
        tt.grads_by_name(total, params)
