"""Diffusion model: cosine schedule, transformer denoiser, losses, training.

The denoiser is a post-norm transformer decoder over 63 tokens: a
denoising-step token and a subject-height token concatenated ahead of
the 61 projected feature frames. Both conditioning tokens also serve as
the cross-attention memory, and fixed sinusoidal position encodings are
added to the frame tokens. The network predicts the clean window
directly from a noised one.

Two forward implementations share the same parameters: a graph-building
one (training, gradient checks, and the reference the other is checked
against) and FastDenoiser, the float32 inference path, which also runs
its last layer only on the requested frame `rows`. The conditioning has
one definition, used by both: `_condition_tokens` maps (t, h) to the
step and height tokens, and `_cross_fold` folds a layer's two-token
cross-attention into three small arrays, so its d-by-d query and output
projections never run over the tokens. The graph calls them for every
batch and takes a softmax over each head's pair of scores. FastDenoiser
calls them on its weights once per (t, h) and turns the fold into a tanh
gate, since a softmax over two scores is a sigmoid of their difference;
it caches the result. Besides its weights FastDenoiser keeps only that
cache and `in_factor`, a square root of its input projection's Gram
matrix for noise drawn in the projected space, so one instance can be
shared. The per-token block's structure is
written twice, as graph ops and as in-place numpy, and its softmax,
layernorm and GELU arithmetic once, in `tensor`'s kernels; their
agreement is covered by tests.

The training loss is the unweighted sum of five terms: squared feature
error, orientation velocity matching, root-relative forward-kinematics
position error, cumulative root-displacement (drift) error, and a foot
contact/sliding consistency term gated by the predicted contact
probabilities. The positions are one product of the global orientations
with the joint and contact columns of `kinematics.position_operator`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import datagen as dg
from . import features as ft
from . import tensor as tt
from .container import CheckedReader
from .kinematics import KinematicTree, skeleton_hash
from .tensor import Tensor

CHECKPOINT_MAGIC = b"IMFC"
CHECKPOINT_VERSION = 1
DEFAULT_T = 1000
MAX_T = 100 * DEFAULT_T  # beyond this a schedule length is a corrupt field, not a choice
COSINE_S = 0.008
SCHEDULE_KIND = "cosine"  # the one schedule; checkpoints record its name
LOG_EVERY = 50  # training steps between log records


class ScheduleError(ValueError):
    pass


class TrainingDiverged(RuntimeError):
    pass


class CheckpointError(RuntimeError):
    pass


# -- noise schedule -----------------------------------------------------------


@dataclass(frozen=True)
class DiffusionSchedule:
    T: int
    alpha_bar: np.ndarray  # (T+1,), alpha_bar[0] == 1, monotone decreasing

    def __post_init__(self):
        ab = self.alpha_bar
        if len(ab) != self.T + 1:
            raise ScheduleError("alpha_bar length must be T+1")
        if ab[0] < 0.999:
            raise ScheduleError(f"alpha_bar[0] = {ab[0]:.6f} < 0.999")
        if ab[-1] > 1e-3:
            raise ScheduleError(f"alpha_bar[T] = {ab[-1]:.2e} > 1e-3")
        if not (np.diff(ab) < 0).all():
            raise ScheduleError("alpha_bar must be strictly decreasing")


def build_cosine_schedule(T: int = DEFAULT_T) -> DiffusionSchedule:
    """alpha_bar_t = cos^2(((t/T + s)/(1 + s)) * pi/2), normalized to 1 at t=0."""
    if not 2 <= T <= MAX_T:
        raise ScheduleError(f"T must be in [2, {MAX_T}], got {T}")
    t = np.arange(T + 1, dtype=np.float64)
    f = np.cos(((t / T + COSINE_S) / (1 + COSINE_S)) * (np.pi / 2)) ** 2
    return DiffusionSchedule(T=T, alpha_bar=f / f[0])


def noise_window(x: np.ndarray, t: int | np.ndarray, schedule: DiffusionSchedule,
                 rng: np.random.Generator) -> np.ndarray:
    """Forward noising q(z_t | x) = N(sqrt(ab_t) x, (1 - ab_t) I).

    t may be a scalar or a per-sample vector matching x's leading axis.
    """
    ab = schedule.alpha_bar[np.asarray(t)]
    if np.ndim(ab) > 0:
        ab = ab.reshape((-1,) + (1,) * (x.ndim - 1))
    eps = rng.standard_normal(x.shape)
    return np.sqrt(ab) * x + np.sqrt(1.0 - ab) * eps


# -- denoiser ---------------------------------------------------------


@dataclass(frozen=True)
class DenoiserConfig:
    layers: int = 8
    width: int = 512
    ff: int = 2048
    nhead: int = 4

    def __post_init__(self):
        if min(self.layers, self.width, self.ff, self.nhead) < 1:
            raise ValueError(f"model sizes must be positive, got {self}")
        if self.width % self.nhead != 0:
            raise ValueError(f"width {self.width} not divisible by nhead {self.nhead}")

    @property
    def head_dim(self) -> int:
        return self.width // self.nhead

    @staticmethod
    def parse(text: str) -> "DenoiserConfig":
        """'L/d/f' e.g. '8/512/2048'."""
        L, d, f = (int(x) for x in text.split("/"))
        return DenoiserConfig(layers=L, width=d, ff=f)

    def label(self) -> str:
        return f"{self.layers}/{self.width}/{self.ff}"


def sinusoidal_embedding(positions: np.ndarray, dim: int) -> np.ndarray:
    """(n,) positions -> (n, dim) standard transformer sin/cos features."""
    positions = np.atleast_1d(np.asarray(positions, dtype=np.float64))
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / max(half - 1, 1))
    ang = positions[:, None] * freqs[None, :]
    emb = np.zeros((len(positions), dim))
    emb[:, 0::2] = np.sin(ang[:, : (dim + 1) // 2])
    emb[:, 1::2] = np.cos(ang[:, : dim // 2])
    return emb


def _param_shapes(cfg: DenoiserConfig) -> dict[str, tuple[int, ...]]:
    d, f = cfg.width, cfg.ff
    shapes: dict[str, tuple[int, ...]] = {
        "in_proj.w": (ft.FRAME_DIM, d), "in_proj.b": (d,),
        "step_mlp.w1": (d, d), "step_mlp.b1": (d,),
        "step_mlp.w2": (d, d), "step_mlp.b2": (d,),
        "height_mlp.w1": (1, d), "height_mlp.b1": (d,),
        "height_mlp.w2": (d, d), "height_mlp.b2": (d,),
        "out_proj.w": (d, ft.FRAME_DIM), "out_proj.b": (ft.FRAME_DIM,),
    }
    for i in range(cfg.layers):
        p = f"layers.{i}."
        shapes.update({
            p + "attn.wqkv": (d, 3 * d), p + "attn.bqkv": (3 * d,),
            p + "attn.wo": (d, d), p + "attn.bo": (d,),
            p + "cross.wq": (d, d), p + "cross.bq": (d,),
            p + "cross.wkv": (d, 2 * d), p + "cross.bkv": (2 * d,),
            p + "cross.wo": (d, d), p + "cross.bo": (d,),
            p + "ln1.g": (d,), p + "ln1.b": (d,),
            p + "ln2.g": (d,), p + "ln2.b": (d,),
            p + "ln3.g": (d,), p + "ln3.b": (d,),
            p + "ff.w1": (d, f), p + "ff.b1": (f,),
            p + "ff.w2": (f, d), p + "ff.b2": (d,),
        })
    return shapes


def param_count(cfg: DenoiserConfig) -> int:
    return sum(int(np.prod(s)) for s in _param_shapes(cfg).values())


def init_denoiser(cfg: DenoiserConfig, seed: int = 0, dtype=np.float32) -> dict[str, Tensor]:
    """Xavier-uniform weights, zero biases, unit layernorm gains."""
    rng = np.random.default_rng([seed, 808])
    params: dict[str, Tensor] = {}
    for name, shape in _param_shapes(cfg).items():
        if name.endswith(".g"):
            arr = np.ones(shape)
        elif name.endswith((".b", ".b1", ".b2", ".bq", ".bqkv", ".bkv", ".bo")):
            arr = np.zeros(shape)
        else:
            limit = math.sqrt(6.0 / (shape[0] + shape[-1]))
            arr = rng.uniform(-limit, limit, size=shape)
        params[name] = Tensor(arr.astype(dtype), requires_grad=True)
    return params


def _split_heads(x: Tensor, nhead: int) -> Tensor:
    B, T, d = x.shape
    return tt.transpose(tt.reshape(x, (B, T, nhead, d // nhead)), (0, 2, 1, 3))


def _merge_heads(x: Tensor) -> Tensor:
    B, nh, T, hd = x.shape
    return tt.reshape(tt.transpose(x, (0, 2, 1, 3)), (B, T, nh * hd))


def _condition_tokens(P: dict[str, Tensor], t: np.ndarray, h: np.ndarray) -> tuple[Tensor, Tensor]:
    """The step and height tokens (B, 1, d) of step indices t (B,) and
    subject heights h (B,): each is an MLP of its input."""
    dtype = P["step_mlp.w1"].dtype
    d = P["step_mlp.w1"].shape[0]
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    h = np.atleast_1d(np.asarray(h, dtype=np.float64))
    B = len(t)
    step_in = Tensor(sinusoidal_embedding(t, d).reshape(B, 1, d).astype(dtype))
    step_tok = tt.linear(tt.gelu(tt.linear(step_in, P["step_mlp.w1"], P["step_mlp.b1"])),
                          P["step_mlp.w2"], P["step_mlp.b2"])
    h_in = Tensor(h.reshape(B, 1, 1).astype(dtype))
    height_tok = tt.linear(tt.gelu(tt.linear(h_in, P["height_mlp.w1"], P["height_mlp.b1"])),
                            P["height_mlp.w2"], P["height_mlp.b2"])
    return step_tok, height_tok


def _cross_fold(ckv: Tensor, P: dict[str, Tensor], prefix: str,
                nhead: int) -> tuple[Tensor, Tensor, Tensor]:
    """One layer's cross-attention over two memory tokens, folded.

    With ck, cv the memory keys and values (ckv, (B, 2, 2d)), it forms
    ws = scale * Wq_h ck^T (B, d, 2*nhead), bs = scale * bq_h ck^T (B, 1,
    2*nhead) and vo = cv Wo_h (B, 2*nhead, d), columns and rows ordered
    (head, memory token). Each fold is one product per head over the
    whole batch, so no weight is broadcast over B.
    """
    B, d = ckv.shape[0], ckv.shape[2] // 2
    hd = d // nhead
    scale = 1.0 / math.sqrt(hd)
    # (B, 2, nh, hd) -> (nh, hd, 2B) and (nh, 2B, hd), batch-major along 2B
    ck = tt.reshape(tt.transpose(tt.reshape(ckv[:, :, :d], (B, 2, nhead, hd)), (2, 3, 0, 1)),
                    (nhead, hd, 2 * B))
    cv = tt.reshape(tt.transpose(tt.reshape(ckv[:, :, d:], (B, 2, nhead, hd)), (2, 0, 1, 3)),
                    (nhead, 2 * B, hd))
    wq = tt.transpose(tt.reshape(P[prefix + "cross.wq"], (d, nhead, hd)), (1, 0, 2))  # (nh, d, hd)
    ws = tt.mul(tt.matmul(wq, ck), scale)                                              # (nh, d, 2B)
    ws = tt.reshape(tt.transpose(tt.reshape(ws, (nhead, d, B, 2)), (2, 1, 0, 3)), (B, d, 2 * nhead))
    bs = tt.mul(tt.matmul(tt.reshape(P[prefix + "cross.bq"], (nhead, 1, hd)), ck), scale)  # (nh, 1, 2B)
    bs = tt.reshape(tt.transpose(tt.reshape(bs, (nhead, B, 2)), (1, 0, 2)), (B, 1, 2 * nhead))
    vo = tt.matmul(cv, tt.reshape(P[prefix + "cross.wo"], (nhead, hd, d)))             # (nh, 2B, d)
    vo = tt.reshape(tt.transpose(tt.reshape(vo, (nhead, B, 2, d)), (1, 0, 2, 3)), (B, 2 * nhead, d))
    return ws, bs, vo


def _cross_attention(x: Tensor, memory: Tensor, P: dict[str, Tensor], prefix: str,
                     nhead: int) -> Tensor:
    """One layer's cross-attention of x (B, T, d) over the two memory
    tokens (B, 2, d), output projection and bias included: a softmax over
    each head's pair of `x @ ws + bs`, times vo, plus the output bias,
    with (ws, bs, vo) from `_cross_fold`. The d-by-d query and output
    projections of the T tokens never run."""
    B, T, _ = x.shape
    ckv = tt.linear(memory, P[prefix + "cross.wkv"], P[prefix + "cross.bkv"])  # (B, 2, 2d)
    ws, bs, vo = _cross_fold(ckv, P, prefix, nhead)
    weights = tt.softmax(tt.reshape(tt.add(tt.matmul(x, ws), bs), (B, T, nhead, 2)))
    return tt.add(tt.matmul(tt.reshape(weights, (B, T, 2 * nhead)), vo), P[prefix + "cross.bo"])


def denoiser_forward(cfg: DenoiserConfig, params: dict[str, Tensor],
                     z: np.ndarray, t: np.ndarray, h: np.ndarray) -> Tensor:
    """Graph forward: z (B, 61, 190), t (B,) step indices, h (B,) heights."""
    P = params
    dtype = P["in_proj.w"].dtype
    z = Tensor(np.asarray(z, dtype=dtype))
    d = cfg.width
    step_tok, height_tok = _condition_tokens(P, t, h)

    pos = Tensor(sinusoidal_embedding(np.arange(ft.WINDOW_LEN), d)[None].astype(dtype))
    frames = tt.add(tt.linear(z, P["in_proj.w"], P["in_proj.b"]), pos)
    tokens = tt.concat([step_tok, height_tok, frames], axis=1)  # (B, 63, d)
    memory = tt.concat([step_tok, height_tok], axis=1)          # (B, 2, d)

    x = tokens
    for i in range(cfg.layers):
        p = f"layers.{i}."
        qkv = tt.linear(x, P[p + "attn.wqkv"], P[p + "attn.bqkv"])
        q = _split_heads(qkv[:, :, :d], cfg.nhead)
        k = _split_heads(qkv[:, :, d:2 * d], cfg.nhead)
        v = _split_heads(qkv[:, :, 2 * d:], cfg.nhead)
        attn = _merge_heads(tt.softmax_attention(q, k, v))
        x = tt.add_layernorm(x, tt.linear(attn, P[p + "attn.wo"], P[p + "attn.bo"]),
                             P[p + "ln1.g"], P[p + "ln1.b"])
        x = tt.add_layernorm(x, _cross_attention(x, memory, P, p, cfg.nhead),
                             P[p + "ln2.g"], P[p + "ln2.b"])
        ffn = tt.linear(tt.gelu(tt.linear(x, P[p + "ff.w1"], P[p + "ff.b1"])),
                         P[p + "ff.w2"], P[p + "ff.b2"])
        x = tt.add_layernorm(x, ffn, P[p + "ln3.g"], P[p + "ln3.b"])

    out = tt.linear(x[:, 2:, :], P["out_proj.w"], P["out_proj.b"])
    return out


# -- differentiable feature-space kinematics --------------------------------


def _graph_decode6d(r6: Tensor) -> Tensor:
    """(..., 6) -> (..., 9): the three columns of each rotation, one after
    another, via eps-stabilized Gram-Schmidt, in-graph."""
    eps = 1e-12
    a1 = r6[..., 0:3]
    a2 = r6[..., 3:6]
    n1 = tt.tsqrt(tt.add(tt.tsum(tt.mul(a1, a1), axis=-1, keepdims=True), eps))
    b1 = tt.div(a1, n1)
    proj = tt.tsum(tt.mul(b1, a2), axis=-1, keepdims=True)
    u2 = tt.sub(a2, tt.mul(proj, b1))
    n2 = tt.tsqrt(tt.add(tt.tsum(tt.mul(u2, u2), axis=-1, keepdims=True), eps))
    b2 = tt.div(u2, n2)
    b3 = _graph_cross(b1, b2)
    return tt.concat([b1, b2, b3], axis=-1)


def _graph_cross(a: Tensor, b: Tensor) -> Tensor:
    ax, ay, az = a[..., 0:1], a[..., 1:2], a[..., 2:3]
    bx, by, bz = b[..., 0:1], b[..., 1:2], b[..., 2:3]
    return tt.concat([
        tt.sub(tt.mul(ay, bz), tt.mul(az, by)),
        tt.sub(tt.mul(az, bx), tt.mul(ax, bz)),
        tt.sub(tt.mul(ax, by), tt.mul(ay, bx)),
    ], axis=-1)


# -- losses ---------------------------------------------------------------


@dataclass(frozen=True)
class LossWeights:
    simple: float = 1.0
    vel: float = 1.0
    fk: float = 1.0
    drift: float = 1.0
    slide: float = 1.0


@dataclass
class LossBreakdown:
    simple: float
    vel: float
    fk: float
    drift: float
    slide: float
    total: float

    def as_dict(self) -> dict[str, float]:
        return dataclasses.asdict(self)


def _sumsq(x: Tensor) -> Tensor:
    return tt.tsum(tt.mul(x, x))


def diffusion_losses(pred: Tensor, target: np.ndarray, tree: KinematicTree, heights: np.ndarray,
                     weights: LossWeights = LossWeights()) -> tuple[Tensor, LossBreakdown]:
    """Five-term training loss; sums follow the written objective, then a
    mean over the batch axis. The position operator is scaled to each
    window's subject height. Returns (total graph scalar, float breakdown)."""
    dtype = pred.dtype
    B, N = pred.shape[0], pred.shape[1]
    tgt = Tensor(np.asarray(target, dtype=dtype))
    scale = np.atleast_1d(heights) / tree.reference_height
    # joint and contact columns, (B, 1, S + 4, 3S), C-ordered: the product and its vjp take the BLAS path
    op_t = (tree.operator[:, :ft.N_SEGMENTS + ft.B_LEN].T * scale[:, None, None, None]).astype(dtype, order="C")

    simple = _sumsq(tt.sub(pred, tgt))

    r_pred = pred[:, :, ft.R_OFF:ft.R_OFF + ft.R_LEN]
    r_tgt = tgt[:, :, ft.R_OFF:ft.R_OFF + ft.R_LEN]
    vel = _sumsq(tt.sub(
        tt.sub(r_pred[:, 1:], r_pred[:, :-1]),
        tt.sub(r_tgt[:, 1:], r_tgt[:, :-1]),
    ))

    cols_pred = _graph_decode6d(tt.reshape(r_pred, (B, N, ft.N_SEGMENTS, 6)))
    cols_tgt = _graph_decode6d(tt.reshape(r_tgt, (B, N, ft.N_SEGMENTS, 6)))
    # root-relative joints, then contact points: op_t times each pose's (3S, 3) orientation columns
    pos_pred = tt.matmul(op_t, tt.reshape(cols_pred, (B, N, 3 * ft.N_SEGMENTS, 3)))
    pos_tgt = tt.matmul(op_t, tt.reshape(cols_tgt, (B, N, 3 * ft.N_SEGMENTS, 3)))
    fk = _sumsq(tt.sub(pos_pred[:, :, :ft.N_SEGMENTS], pos_tgt[:, :, :ft.N_SEGMENTS]))

    dp_pred = pred[:, :, ft.DP_OFF:ft.DP_OFF + 2]
    dp_tgt = tgt[:, :, ft.DP_OFF:ft.DP_OFF + 2]
    drift = _sumsq(tt.sub(tt.cumsum(dp_pred, axis=1), tt.cumsum(dp_tgt, axis=1)))

    # foot sliding: world horizontal displacement of predicted contact points
    # between frames i and i+1 (root-relative difference plus the root step
    # into frame i+1), gated by the predicted contact probability at frame i
    ftxz = pos_pred[:, :, ft.N_SEGMENTS:, 0:3:2]  # (B, N, 4, 2): x and z
    disp = tt.add(
        tt.sub(ftxz[:, 1:], ftxz[:, :-1]),
        tt.reshape(dp_pred[:, 1:], (B, N - 1, 1, 2)),
    )
    b_pred = pred[:, :, ft.B_OFF:ft.B_OFF + ft.B_LEN]
    gated = tt.mul(tt.reshape(b_pred[:, :-1], (B, N - 1, ft.B_LEN, 1)), disp)
    slide = _sumsq(gated)

    inv_b = 1.0 / B
    terms = {"simple": simple, "vel": vel, "fk": fk, "drift": drift, "slide": slide}
    parts = {name: tt.mul(term, getattr(weights, name) * inv_b) for name, term in terms.items()}
    total = functools.reduce(tt.add, parts.values())
    breakdown = LossBreakdown(**{name: float(part.data) for name, part in parts.items()},
                              total=float(total.data))
    return total, breakdown


def training_step(cfg: DenoiserConfig, params: dict[str, Tensor], schedule: DiffusionSchedule,
                  windows: np.ndarray, heights: np.ndarray, ts: np.ndarray,
                  rng: np.random.Generator, tree: KinematicTree,
                  weights: LossWeights = LossWeights()) -> tuple[LossBreakdown, dict[str, np.ndarray]]:
    """Noise a batch of clean windows at steps ts, predict, differentiate."""
    dtype = params["in_proj.w"].dtype
    x = np.asarray(windows, dtype=dtype)
    z = noise_window(x.astype(np.float64), ts, schedule, rng).astype(dtype)
    pred = denoiser_forward(cfg, params, z, ts, heights)
    total, breakdown = diffusion_losses(pred, x, tree, heights, weights)
    if not math.isfinite(breakdown.total):
        raise TrainingDiverged(f"non-finite loss: {breakdown.as_dict()}")
    grads = tt.grads_by_name(total, params)
    return breakdown, grads


# -- training loop ----------------------------------------------------------


@dataclass
class TrainConfig:
    """One field per `imufill train` flag (--size, --steps, --batch, --lr,
    --seed, --diffusion-steps); the class constants are fixed."""

    model: DenoiserConfig
    steps: int = 2000
    batch: int = 16
    lr: float = 1e-4
    seed: int = 0
    T: int = DEFAULT_T

    betas = (0.9, 0.999)  # Adam's
    weights = LossWeights()
    np_dtype = np.float32

    def lr_at(self, step: int) -> float:
        """Learning rate for a step; the schedule is constant."""
        return self.lr


@dataclass
class TrainResult:
    params: dict[str, Tensor]
    schedule: DiffusionSchedule
    losses: list[LossBreakdown]
    eval_curve: list[float] = field(default_factory=list)


def train(sample_batch: Callable[[int], tuple[np.ndarray, np.ndarray]],
          tree: KinematicTree, cfg: TrainConfig,
          eval_windows: tuple[np.ndarray, np.ndarray] | None = None,
          log: Callable[[dict], None] | None = None) -> TrainResult:
    """Generic training loop; sample_batch(n) returns (windows, heights).

    Every LOG_EVERY steps and at the last one, `log` gets one record:
    the step, the five loss terms and their total, the step's seconds
    (batch draw, training step and Adam) and the global gradient norm,
    which is computed on logged steps only. Given `eval_windows`, every
    `max(steps // 10, 1)` steps adds their `evaluate_simple_loss` to the
    eval curve. Deterministic for a fixed
    cfg.seed and sampler. Raises TrainingDiverged on a non-finite loss.
    """
    eval_every = max(cfg.steps // 10, 1)
    schedule = build_cosine_schedule(cfg.T)
    params = init_denoiser(cfg.model, seed=cfg.seed, dtype=cfg.np_dtype)
    rng = np.random.default_rng([cfg.seed, 707])
    state = None
    losses: list[LossBreakdown] = []
    eval_curve: list[float] = []
    for step in range(cfg.steps):
        t0 = time.perf_counter()
        windows, heights = sample_batch(cfg.batch)
        ts = rng.integers(0, cfg.T + 1, size=windows.shape[0])
        breakdown, grads = training_step(cfg.model, params, schedule, windows, heights,
                                         ts, rng, tree, cfg.weights)
        params, state = tt.adam_step(params, grads, state, lr=cfg.lr_at(step), betas=cfg.betas)
        step_s = time.perf_counter() - t0
        losses.append(breakdown)
        if log and (step % LOG_EVERY == 0 or step == cfg.steps - 1):
            grad_norm = math.sqrt(sum(float(np.square(g, dtype=np.float64).sum()) for g in grads.values()))
            log({"step": step, **breakdown.as_dict(), "step_s": step_s, "grad_norm": grad_norm})
        del grads  # not held through the next step's forward and backward
        if eval_windows is not None and (step + 1) % eval_every == 0:
            eval_curve.append(evaluate_simple_loss(cfg.model, params, schedule, *eval_windows, seed=cfg.seed))
    return TrainResult(params=params, schedule=schedule, losses=losses, eval_curve=eval_curve)


def evaluate_simple_loss(model_cfg: DenoiserConfig, params: dict[str, Tensor],
                         schedule: DiffusionSchedule, windows: np.ndarray, heights: np.ndarray,
                         seed: int = 0) -> float:
    """Mean per-window squared feature error at fixed mid-range noise.
    The forward runs on detached copies of the parameters (same arrays,
    no gradient), so it records no graph."""
    rng = np.random.default_rng([seed, 909])
    dtype = params["in_proj.w"].dtype
    x = np.asarray(windows, dtype=dtype)
    ts = np.full(x.shape[0], schedule.T // 2)
    z = noise_window(x.astype(np.float64), ts, schedule, rng).astype(dtype)
    detached = {k: Tensor(v.data) for k, v in params.items()}
    pred = denoiser_forward(model_cfg, detached, z, ts, heights)
    return float(((pred.data - x) ** 2).sum() / x.shape[0])


def corpus_sampler(trials: list[dg.Trial], tree: KinematicTree,
                   seed: int) -> Callable[[int], tuple[np.ndarray, np.ndarray]]:
    """The training batches: sample(n) draws n (61-frame feature window,
    subject height) pairs. Each picks a trial among those that hold a
    window (`holds_window`; the caller counts the others) by its sampling
    weight, then a start frame uniformly. The weights are made here, from
    `dg.compute_trial_weights` of all the trials given, renormalized."""
    keep = [dg.holds_window(tr) for tr in trials]
    if not any(keep):
        raise dg.GenerationError("no trial long enough to sample windows from")
    eligible = [tr for tr, k in zip(trials, keep) if k]
    w = dg.compute_trial_weights(trials, tree)[keep]
    w = w / w.sum()
    feats = [tr.features(tree) for tr in eligible]
    rng = np.random.default_rng([seed, 404])

    def sample(n: int) -> tuple[np.ndarray, np.ndarray]:
        ws, hs = [], []
        for _ in range(n):
            i = int(rng.choice(len(eligible), p=w))
            s = int(rng.integers(0, len(feats[i]) - ft.WINDOW_LEN + 1))
            ws.append(feats[i][s:s + ft.WINDOW_LEN])
            hs.append(eligible[i].motion.height)
        return np.stack(ws), np.array(hs)

    return sample


def holdout_windows(trials: list[dg.Trial], tree: KinematicTree) -> tuple[np.ndarray, np.ndarray]:
    """(windows, heights) of every whole window that fits in the trials,
    back to back from frame 0; DatasetError when none holds a window."""
    ws, hs = [], []
    for tr in filter(dg.holds_window, trials):
        f = tr.features(tree)
        for s in range(0, len(f) - ft.WINDOW_LEN + 1, ft.WINDOW_LEN):
            ws.append(f[s:s + ft.WINDOW_LEN])
            hs.append(tr.motion.height)
    if not ws:
        raise dg.DatasetError(f"no held-out trial has the {ft.WINDOW_LEN} frames of a window")
    return np.stack(ws), np.array(hs)


# -- fast inference forward ----------------------------------------------


class FastDenoiser:
    """Inference forward pass over the graph path's parameters.

    It computes what `denoiser_forward` computes for one window (exactly,
    in real arithmetic) but skips work whose result nothing reads:

    - The cross-attention memory is the step and height tokens, which
      depend only on (t, h). `_conditioning` caches, per (t, h), both
      tokens and each layer's cross-attention as a tanh gate. It builds
      them with the graph's own `_condition_tokens` and `_cross_fold` on
      its weights (no gradient, so no tape). A head's softmax over its
      pair of scores a, b weighs the step token's value by
      sigma(a - b) = 1/2 + 1/2 tanh((a - b) / 2) and the height token's
      by the rest, so the block is `tanh(x @ A + c) @ V` plus a bias,
      with A = (ws_step - ws_height) / 2 (d, nhead), c = (bs_step -
      bs_height) / 2 (nhead,), V = (vo_step - vo_height) / 2 (nhead, d)
      and the bias half the sum of every row of vo plus the output
      bias. The gate is formed in float64 from the fold and rounded once
      to the model dtype. The d-by-d query and output projections never
      run, and the block takes four numpy calls.
    - `predict(..., rows=r)` returns only the frame rows `r`. Every
      layer but the last runs on all 63 tokens, because the last layer's
      keys and values read them all; the last layer computes keys and
      values for every token and everything else (query, both
      attentions, FFN, layernorms, output projection) for `r` alone.
    - A window enters only through its product with `in_proj.w` (W):
      `predict` is that product followed by `predict_projected`, which
      takes the projected frame rows, so a caller that works in the
      (61, d) projected space (the session's renoise loop) skips the
      (61, 190) one. `in_factor` is the R of W = QR, with RᵀR = WᵀW, for
      noise drawn in that space.

    The block's structure is written here a second time; its GELU,
    softmax and layernorm arithmetic are the graph's kernels in `tensor`.
    Residual and bias adds go in place into a product's fresh array (see
    `_add_layernorm_inplace`). An instance keeps only its weights, the
    position table, the token index of each frame row, the (t, h)
    cache of one height and `in_factor` once it is read; `predict` works
    on arrays it allocates, so one instance can serve several sessions
    or threads. Its weights share the parameters' arrays when they are
    already contiguous in its dtype (`np.ascontiguousarray` copies
    nothing then), and `tensor.adam_step` writes into those arrays in
    place: an instance built over parameters that are still training
    would see each step's weights with a stale conditioning cache and a
    stale `in_factor`. Build it after training, as `reconstruct` and
    `sweep` do.
    """

    def __init__(self, cfg: DenoiserConfig, params: dict[str, Tensor], dtype=np.float32):
        self.cfg = cfg
        self.dtype = dtype
        self.w = {k: np.ascontiguousarray(v.data, dtype=dtype) for k, v in params.items()}
        self.pos = sinusoidal_embedding(np.arange(ft.WINDOW_LEN), cfg.width).astype(dtype)
        self._cond_cache: tuple[float, dict[tuple[int, float], tuple]] = (math.nan, {})
        self._layers: list[dict[str, np.ndarray]] = [{} for _ in range(cfg.layers)]
        for k, v in self.w.items():
            if k.startswith("layers."):
                i, name = k[len("layers."):].split(".", 1)
                self._layers[int(i)][name] = v
        self._tokens = np.arange(2, ft.WINDOW_LEN + 2)  # token index of each frame row

    def _conditioning(self, t: int, h: float):
        key = (int(t), float(h))
        height, cache = self._cond_cache  # one read, so a thread never pairs a height with other entries
        hit = cache.get(key)
        if hit is not None:
            return hit
        P = {k: Tensor(v) for k, v in self.w.items()}
        step_tok, height_tok = _condition_tokens(P, t, h)  # (1, 1, d) each
        memory = tt.concat([step_tok, height_tok], axis=1)
        gates = []
        for i in range(self.cfg.layers):
            p = f"layers.{i}."
            ckv = tt.linear(memory, P[p + "cross.wkv"], P[p + "cross.bkv"])
            ws, bs, vo = (a.data[0] for a in _cross_fold(Tensor(ckv.data.astype(np.float64)), P, p,
                                                           self.cfg.nhead))
            # columns of ws and bs and rows of vo alternate step, height per head
            gate = (0.5 * (ws[:, 0::2] - ws[:, 1::2]), 0.5 * (bs[0, 0::2] - bs[0, 1::2]),
                    0.5 * (vo[0::2] - vo[1::2]), 0.5 * vo.sum(axis=0) + self.w[p + "cross.bo"])
            gates.append(tuple(np.ascontiguousarray(a, dtype=self.dtype) for a in gate))
        out = (step_tok.data[0], height_tok.data[0], gates)
        if key[1] == height:
            cache[key] = out
        else:  # a session has one height: a new one replaces the last one's entries
            self._cond_cache = (key[1], {key: out})
        return out

    @functools.cached_property
    def in_factor(self) -> np.ndarray:
        """The (k, d) R of `in_proj.w` = QR, k = min(190, d), with
        RᵀR = WᵀW: if n holds standard normals, n @ R has the law of a
        standard normal window's product with W. Taken in float64 and
        rounded once to the model dtype; built on first read, read-only."""
        r = np.linalg.qr(self.w["in_proj.w"].astype(np.float64), mode="r").astype(self.dtype)
        r.flags.writeable = False
        return r

    def predict(self, z: np.ndarray, t: int, h: float, rows: np.ndarray | None = None) -> np.ndarray:
        """(61, 190) noised window -> predicted clean window. With `rows`,
        a 1-D array of distinct frame indices, only those rows: the result
        equals `predict(z, t, h)[rows]` in exact arithmetic and within
        float32 rounding, because BLAS rounds a row by its place in a
        product."""
        return self.predict_projected(np.asarray(z, dtype=self.dtype) @ self.w["in_proj.w"], t, h, rows)

    def predict_projected(self, zw: np.ndarray, t: int, h: float, rows: np.ndarray | None) -> np.ndarray:
        """`predict(z, t, h, rows)` of the window z whose product with
        `in_proj.w` is `zw`, (61, d) in the model dtype; `zw` is not
        written."""
        w = self.w
        d = self.cfg.width
        step_tok, height_tok, gates = self._conditioning(t, h)
        frames = zw + w["in_proj.b"]
        frames += self.pos
        x = np.concatenate([step_tok, height_tok, frames])
        *body, last = self._layers
        for lw, gate in zip(body, gates):
            qkv = x @ lw["attn.wqkv"]
            qkv += lw["attn.bqkv"]
            x = self._block(x, qkv[:, :d], qkv[:, d:], lw, gate)
        wqkv, bqkv = last["attn.wqkv"], last["attn.bqkv"]
        kv = x @ wqkv[:, d:]
        kv += bqkv[d:]
        x = x[self._tokens if rows is None else self._tokens[rows]]
        q = x @ wqkv[:, :d]
        q += bqkv[:d]
        x = self._block(x, q, kv, last, gates[-1])
        out = x @ w["out_proj.w"]
        out += w["out_proj.b"]
        return out

    def _block(self, x: np.ndarray, q: np.ndarray, kv: np.ndarray, lw: dict, gate: tuple) -> np.ndarray:
        """One post-norm layer for the residual rows `x`, whose queries are
        `q`; `kv` holds the keys and values of all 63 tokens."""
        cfg = self.cfg
        n, d, nh, hd = len(x), cfg.width, cfg.nhead, cfg.head_dim
        q = q.reshape(n, nh, hd).transpose(1, 0, 2)
        k = kv[:, :d].reshape(-1, nh, hd).transpose(1, 2, 0)
        v = kv[:, d:].reshape(-1, nh, hd).transpose(1, 0, 2)
        s = q @ k
        s *= 1.0 / math.sqrt(hd)
        attn = np.empty((n, d), x.dtype)  # each head's output goes straight to its columns
        np.matmul(tt._softmax_rows(s, s), v, out=attn.reshape(n, nh, hd).transpose(1, 0, 2))
        x = _add_layernorm_inplace(attn @ lw["attn.wo"], x, lw["attn.bo"], lw["ln1.g"], lw["ln1.b"])

        A, c, V, bias = gate
        u = x @ A
        u += c
        x = _add_layernorm_inplace(np.tanh(u, out=u) @ V, x, bias, lw["ln2.g"], lw["ln2.b"])

        f = x @ lw["ff.w1"]
        f += lw["ff.b1"]
        tt._gelu_block(f, f, np.empty_like(f))  # the whole array at once: no block loop
        return _add_layernorm_inplace(f @ lw["ff.w2"], x, lw["ff.b2"], lw["ln3.g"], lw["ln3.b"])


def _add_layernorm_inplace(y: np.ndarray, x: np.ndarray, bias: np.ndarray, g: np.ndarray,
                           b: np.ndarray) -> np.ndarray:
    """Layernorm over the last axis of the residual sum `x + y + bias`, in
    y (`y + x` has the bits of `x + y`), normalized by `tensor._normalize`."""
    y += x
    y += bias
    tt._normalize(y)
    y *= g
    y += b
    return y


# -- checkpoints ------------------------------------------------------------


def save_checkpoint(path: str | Path, cfg: DenoiserConfig, params: dict[str, Tensor],
                    schedule: DiffusionSchedule, tree: KinematicTree) -> None:
    """magic, version, (L, d, f, nhead), T, schedule kind, skeleton hash,
    feature-layout hash, then raw parameter blocks in declared order."""
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<IIII", cfg.layers, cfg.width, cfg.ff, cfg.nhead))
        f.write(struct.pack("<I", schedule.T))
        kind = SCHEDULE_KIND.encode()
        f.write(struct.pack("<I", len(kind)))
        f.write(kind)
        f.write(skeleton_hash(tree).encode())
        f.write(ft.layout_hash().encode())
        names = sorted(params)
        f.write(struct.pack("<I", len(names)))
        for name in names:
            arr = params[name].data
            nb = name.encode()
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", 4 if arr.dtype == np.float32 else 8))
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(np.ascontiguousarray(arr).tobytes())


def load_checkpoint(path: str | Path, tree: KinematicTree) -> tuple[DenoiserConfig, dict[str, Tensor], DiffusionSchedule]:
    """Refuses to load when the skeleton or feature-layout hash disagrees
    or the parameters mix dtypes, and raises CheckpointError on a file
    that is corrupt or ends early."""
    with open(path, "rb") as f:
        if f.read(4) != CHECKPOINT_MAGIC:
            raise CheckpointError("not a checkpoint file")
        r = CheckedReader(f, CheckpointError, "checkpoint")
        (version,) = r.unpack("<I", "version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        L, d, ff_, nh = r.unpack("<IIII", "model size")
        (T,) = r.unpack("<I", "schedule length")
        (klen,) = r.unpack("<I", "schedule kind")
        kind = r.text(klen, "schedule kind")
        if r.text(64, "skeleton hash") != skeleton_hash(tree):
            raise CheckpointError("checkpoint was trained against a different skeleton")
        if r.text(64, "feature-layout hash") != ft.layout_hash():
            raise CheckpointError("checkpoint feature layout does not match this build")
        if kind != SCHEDULE_KIND:
            raise CheckpointError(f"unknown schedule kind {kind!r}")
        try:
            cfg = DenoiserConfig(layers=L, width=d, ff=ff_, nhead=nh)
            schedule = build_cosine_schedule(T)
        except ValueError as e:
            raise CheckpointError(f"corrupt checkpoint: {e}") from None
        (n,) = r.unpack("<I", "parameter count")
        params: dict[str, Tensor] = {}
        for _ in range(n):
            (nlen,) = r.unpack("<I", "parameter name")
            name = r.text(nlen, "parameter name")
            (itemsize,) = r.unpack("<B", f"{name} dtype")
            if itemsize not in (4, 8):
                raise CheckpointError(f"{name}: bad item size {itemsize}")
            (ndim,) = r.unpack("<I", f"{name} rank")
            if ndim not in (1, 2):  # every parameter is a vector or a matrix
                raise CheckpointError(f"{name}: bad rank {ndim}")
            shape = r.unpack(f"<{ndim}I", f"{name} shape")
            arr = r.array(shape, np.float32 if itemsize == 4 else np.float64, f"{name} values")
            params[name] = Tensor(arr, requires_grad=True)
        # every layer stores parameters, so fewer stored than layers is a
        # mismatch; checking that first keeps a corrupt layer count from
        # building a huge shape table
        if len(params) < cfg.layers or {k: p.shape for k, p in params.items()} != _param_shapes(cfg):
            raise CheckpointError(f"checkpoint parameters do not match a {cfg.label()} nhead {cfg.nhead} model")
        if len({p.dtype for p in params.values()}) > 1:  # a training graph has one dtype
            raise CheckpointError("checkpoint parameters mix float32 and float64")
        return cfg, params, schedule
