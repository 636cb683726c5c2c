"""Bit-identity oracles for the inference hot path.

`FastDenoiser.predict`, its helpers and `inference.inpaint_denoise` are
written for speed (in-place residual adds, reductions without numpy's
Python wrappers, reused noise buffers). The frozen copies below are the
plain expressions they replaced; every output must equal theirs bit for
bit, not merely within a tolerance.
"""

import math

import numpy as np
import pytest

from imufill import diffusion as df
from imufill import inference as inf


# -- frozen reference: the plain expressions --------------------------------


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


def _ref_block(model, x, q, kv, lw, fold):
    cfg = model.cfg
    n, d, nh, hd = len(x), cfg.width, cfg.nhead, cfg.head_dim
    q = q.reshape(n, nh, hd).transpose(1, 0, 2)
    k = kv[:, :d].reshape(-1, nh, hd).transpose(1, 2, 0)
    v = kv[:, d:].reshape(-1, nh, hd).transpose(1, 0, 2)
    attn = (_ref_softmax((q @ k) * (1.0 / math.sqrt(hd))) @ v).transpose(1, 0, 2).reshape(n, d)
    x = _ref_layernorm(x + attn @ lw["attn.wo"] + lw["attn.bo"], lw["ln1.g"], lw["ln1.b"])
    ws, bs, vo = fold
    cross = _ref_softmax((x @ ws + bs).reshape(n, nh, 2)).reshape(n, 2 * nh)
    x = _ref_layernorm(x + cross @ vo + lw["cross.bo"], lw["ln2.g"], lw["ln2.b"])
    ffn = df._gelu_inplace(x @ lw["ff.w1"] + lw["ff.b1"]) @ lw["ff.w2"]
    return _ref_layernorm(x + ffn + lw["ff.b2"], lw["ln3.g"], lw["ln3.b"])


def _ref_predict(model, z, t, h, rows=None):
    w = model.w
    d = model.cfg.width
    step_tok, height_tok, folds = model._conditioning(t, h)
    frames = np.asarray(z, dtype=model.dtype) @ w["in_proj.w"] + w["in_proj.b"] + model.pos
    x = np.concatenate([step_tok, height_tok, frames])
    *body, last = model._layers
    for lw, fold in zip(body, folds):
        qkv = x @ lw["attn.wqkv"] + lw["attn.bqkv"]
        x = _ref_block(model, x, qkv[:, :d], qkv[:, d:], lw, fold)
    wqkv, bqkv = last["attn.wqkv"], last["attn.bqkv"]
    kv = x @ wqkv[:, d:] + bqkv[d:]
    x = x[model._tokens if rows is None else model._tokens[rows]]
    x = _ref_block(model, x, x @ wqkv[:, :d] + bqkv[:d], kv, last, folds[-1])
    return x @ w["out_proj.w"] + w["out_proj.b"]


def _ref_inpaint(model, schedule, x_input, mask, h, spread, rng, variant):
    keep = mask > 0.5
    rows = np.flatnonzero(~keep.all(axis=1))
    dtype = model.dtype
    xin = x_input.astype(dtype)
    x = xin.copy()

    def noised(a, t):
        ab = schedule.alpha_bar[t]
        z = rng.standard_normal(a.shape, dtype=dtype)
        z *= np.sqrt(1.0 - ab, dtype=dtype)
        z += np.sqrt(ab, dtype=dtype) * a
        return z

    def edit(z, t):
        x[rows] = np.where(keep[rows], xin[rows], _ref_predict(model, z, t, h, rows=rows))

    if variant == "renoise":
        for t in spread.steps:
            edit(noised(x, t), t)
    else:
        z = noised(x, spread.steps[0])
        for t, t_next in zip(spread.steps, spread.steps[1:] + (None,)):
            edit(z, t)
            if t_next is None:
                break
            ab, ab_next = schedule.alpha_bar[t], schedule.alpha_bar[t_next]
            eps_hat = (z - np.sqrt(ab, dtype=dtype) * x) / np.sqrt(1.0 - ab, dtype=dtype)
            z = np.sqrt(ab_next, dtype=dtype) * x + np.sqrt(1.0 - ab_next, dtype=dtype) * eps_hat
    result = x_input.copy()
    np.copyto(result, x, where=~keep)
    return result


# -- predict ------------------------------------------------------------------


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(4, 63, 63), (4, 1, 63), (8, 3, 63), (2, 5, 7)])
def test_softmax_matches_plain_reductions(shape, dtype):
    s = _score_arrays(shape, dtype, seed=sum(shape))
    got = df._softmax_inplace(s.copy())
    assert np.array_equal(got, _ref_softmax(s.copy()))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(63, 4, 2), (1, 4, 2), (61, 1, 2)])
def test_pair_softmax_matches_plain_reductions(shape, dtype):
    s = _score_arrays(shape, dtype, seed=sum(shape))
    got = df._pair_softmax_inplace(s.copy())
    assert np.array_equal(got, _ref_softmax(s.copy()))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(63, 64), (1, 64), (61, 96), (5, 512)])
def test_add_layernorm_matches_plain_sum_and_mean(shape, dtype):
    y = _score_arrays(shape, dtype, seed=shape[-1])
    rng = np.random.default_rng(shape[0])
    x = (100.0 * rng.standard_normal(shape)).astype(dtype)
    x[::3] = -y[::3]                                 # rows whose residual sum cancels
    bias, g, b = rng.standard_normal((3, shape[-1])).astype(dtype)
    got = df._add_layernorm_inplace(y.copy(), x, bias, g, b)
    assert np.array_equal(got, _ref_layernorm(x + y + bias, g, b))


# -- inpainting ---------------------------------------------------------------


@pytest.mark.parametrize("variant", ["renoise", "ddim"])
def test_inpaint_matches_frozen_reference_bit_for_bit(variant):
    cfg = df.DenoiserConfig(layers=2, width=32, ff=64)
    model = df.FastDenoiser(cfg, df.init_denoiser(cfg, seed=5))
    schedule = df.build_cosine_schedule(1000)
    spread = inf.StepSpread.like_10d(5)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((61, 190))
        mask = np.ones_like(x)
        rows = rng.choice(61, size=int(rng.integers(1, 8)), replace=False)
        mask[rows] = rng.random((len(rows), 190)) >= rng.random()
        got_rng, want_rng = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)
        got = inf.inpaint_denoise(model, schedule, x, mask, 1.7, spread, got_rng, variant)
        want = _ref_inpaint(model, schedule, x, mask, 1.7, spread, want_rng, variant)
        assert np.array_equal(got, want), seed
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
