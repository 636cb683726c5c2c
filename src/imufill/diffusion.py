"""Diffusion model: cosine schedule, transformer denoiser, losses, training.

The denoiser is a post-norm transformer decoder over 63 tokens: a
denoising-step token and a subject-height token concatenated ahead of
the 61 projected feature frames. Both conditioning tokens also serve as
the cross-attention memory, and fixed sinusoidal position encodings are
added to the frame tokens. The network predicts the clean window
directly from a noised one.

Two forward implementations share the same parameters: a graph-building
one (training, gradient checks) and FastDenoiser, the float32 inference
path. Both fold the two-token cross-attention into three small arrays
per layer, so its d-by-d query and output projections never run over
the tokens: the graph forms the fold as graph ops for every batch item
(`_cross_attention`), FastDenoiser keeps it in a per-(t, h) cache and
also runs its last layer only on the requested frame `rows`. Besides its
weights FastDenoiser keeps only that cache, so one instance can be
shared. Their agreement is covered by tests.

The training loss is the unweighted sum of five terms: squared feature
error, orientation velocity matching, root-relative forward-kinematics
position error, cumulative root-displacement (drift) error, and a foot
contact/sliding consistency term gated by the predicted contact
probabilities.
"""

from __future__ import annotations

import math
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

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
    kind: str = "cosine"

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
    def toy() -> "DenoiserConfig":
        return DenoiserConfig(layers=2, width=64, ff=128)

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


def _linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return tt.add(tt.matmul(x, w), b)


def _split_heads(x: Tensor, nhead: int) -> Tensor:
    B, T, d = x.shape
    return tt.transpose(tt.reshape(x, (B, T, nhead, d // nhead)), (0, 2, 1, 3))


def _merge_heads(x: Tensor) -> Tensor:
    B, nh, T, hd = x.shape
    return tt.reshape(tt.transpose(x, (0, 2, 1, 3)), (B, T, nh * hd))


def _cross_attention(x: Tensor, memory: Tensor, P: dict[str, Tensor], prefix: str,
                     nhead: int) -> Tensor:
    """One layer's cross-attention of x (B, T, d) over the two memory
    tokens (B, 2, d), output projection and bias included, folded.

    With ck, cv the memory keys and values, it forms ws = scale * Wq_h
    ck^T (B, d, 2*nhead), bs = scale * bq_h ck^T and vo = cv Wo_h (B,
    2*nhead, d), columns and rows ordered (head, memory token); the block
    is a softmax over each head's pair of `x @ ws + bs`, times vo, plus
    the output bias. Each fold is one product per head over the whole
    batch, so no weight is broadcast over B, and the d-by-d query and
    output projections of the T tokens never run.
    """
    B, T, d = x.shape
    hd = d // nhead
    scale = 1.0 / math.sqrt(hd)
    ckv = _linear(memory, P[prefix + "cross.wkv"], P[prefix + "cross.bkv"])  # (B, 2, 2d)
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
    weights = tt.softmax(tt.reshape(tt.add(tt.matmul(x, ws), bs), (B, T, nhead, 2)), axis=-1)
    return tt.add(tt.matmul(tt.reshape(weights, (B, T, 2 * nhead)), vo), P[prefix + "cross.bo"])


def denoiser_forward(cfg: DenoiserConfig, params: dict[str, Tensor],
                     z: np.ndarray | Tensor, t: np.ndarray, h: np.ndarray) -> Tensor:
    """Graph forward: z (B, 61, 190), t (B,) step indices, h (B,) heights."""
    P = params
    dtype = P["in_proj.w"].dtype
    if not isinstance(z, Tensor):
        z = Tensor(np.asarray(z, dtype=dtype))
    B = z.shape[0]
    d = cfg.width
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    h = np.atleast_1d(np.asarray(h, dtype=np.float64))

    step_in = Tensor(sinusoidal_embedding(t, d).reshape(B, 1, d).astype(dtype))
    step_tok = _linear(tt.gelu(_linear(step_in, P["step_mlp.w1"], P["step_mlp.b1"])),
                       P["step_mlp.w2"], P["step_mlp.b2"])
    h_in = Tensor(h.reshape(B, 1, 1).astype(dtype))
    height_tok = _linear(tt.gelu(_linear(h_in, P["height_mlp.w1"], P["height_mlp.b1"])),
                         P["height_mlp.w2"], P["height_mlp.b2"])

    pos = Tensor(sinusoidal_embedding(np.arange(ft.WINDOW_LEN), d)[None].astype(dtype))
    frames = tt.add(_linear(z, P["in_proj.w"], P["in_proj.b"]), pos)
    tokens = tt.concat([step_tok, height_tok, frames], axis=1)  # (B, 63, d)
    memory = tt.concat([step_tok, height_tok], axis=1)          # (B, 2, d)

    x = tokens
    for i in range(cfg.layers):
        p = f"layers.{i}."
        qkv = _linear(x, P[p + "attn.wqkv"], P[p + "attn.bqkv"])
        q = _split_heads(qkv[:, :, :d], cfg.nhead)
        k = _split_heads(qkv[:, :, d:2 * d], cfg.nhead)
        v = _split_heads(qkv[:, :, 2 * d:], cfg.nhead)
        attn = _merge_heads(tt.softmax_attention(q, k, v))
        x = tt.layernorm(tt.add(x, _linear(attn, P[p + "attn.wo"], P[p + "attn.bo"])),
                         P[p + "ln1.g"], P[p + "ln1.b"])
        x = tt.layernorm(tt.add(x, _cross_attention(x, memory, P, p, cfg.nhead)),
                         P[p + "ln2.g"], P[p + "ln2.b"])
        ffn = _linear(tt.gelu(_linear(x, P[p + "ff.w1"], P[p + "ff.b1"])),
                      P[p + "ff.w2"], P[p + "ff.b2"])
        x = tt.layernorm(tt.add(x, ffn), P[p + "ln3.g"], P[p + "ln3.b"])

    out = _linear(x[:, 2:, :], P["out_proj.w"], P["out_proj.b"])
    return out


# -- differentiable feature-space kinematics --------------------------------


def _graph_decode6d(r6: Tensor, eps: float = 1e-12) -> Tensor:
    """(..., 6) -> (..., 3, 3) via eps-stabilized Gram-Schmidt, in-graph."""
    a1 = r6[..., 0:3]
    a2 = r6[..., 3:6]
    n1 = tt.tsqrt(tt.add(tt.tsum(tt.mul(a1, a1), axis=-1, keepdims=True), eps))
    b1 = tt.div(a1, n1)
    proj = tt.tsum(tt.mul(b1, a2), axis=-1, keepdims=True)
    u2 = tt.sub(a2, tt.mul(proj, b1))
    n2 = tt.tsqrt(tt.add(tt.tsum(tt.mul(u2, u2), axis=-1, keepdims=True), eps))
    b2 = tt.div(u2, n2)
    b3 = _graph_cross(b1, b2)
    return tt.concat([_colvec(b1), _colvec(b2), _colvec(b3)], axis=-1)


def _colvec(v: Tensor) -> Tensor:
    return tt.reshape(v, v.shape + (1,))


def _graph_cross(a: Tensor, b: Tensor) -> Tensor:
    ax, ay, az = a[..., 0:1], a[..., 1:2], a[..., 2:3]
    bx, by, bz = b[..., 0:1], b[..., 1:2], b[..., 2:3]
    return tt.concat([
        tt.sub(tt.mul(ay, bz), tt.mul(az, by)),
        tt.sub(tt.mul(az, bx), tt.mul(ax, bz)),
        tt.sub(tt.mul(ax, by), tt.mul(ay, bx)),
    ], axis=-1)


@dataclass(frozen=True)
class FkContext:
    """Per-batch constants for in-graph FK: offsets scaled by subject height."""

    parents: np.ndarray
    offsets: np.ndarray          # (B, S, 3)
    contact_segments: np.ndarray
    contact_offsets: np.ndarray  # (B, 4, 3)


def make_fk_context(tree: KinematicTree, heights: np.ndarray) -> FkContext:
    s = (np.atleast_1d(heights) / tree.reference_height)[:, None, None]
    return FkContext(
        parents=tree.parents,
        offsets=tree.offsets[None] * s,
        contact_segments=tree.contact_segments,
        contact_offsets=tree.contact_offsets[None] * s,
    )


def _graph_fk_positions(G: Tensor, ctx: FkContext, dtype) -> tuple[list[Tensor], Tensor]:
    """Root-relative joint positions from global orientations.

    G: (B, N, S, 3, 3). Returns per-segment list of (B, N, 3) and the
    stacked (B, N, S, 3).
    """
    B, N = G.shape[0], G.shape[1]
    S = len(ctx.parents)
    zero = Tensor(np.zeros((B, N, 3), dtype=dtype))
    pos: list[Tensor] = [zero]
    for i in range(1, S):
        par = int(ctx.parents[i])
        off = Tensor(ctx.offsets[:, i].reshape(B, 1, 3, 1).astype(dtype))
        disp = tt.reshape(tt.matmul(G[:, :, par], off), (B, N, 3))
        pos.append(tt.add(pos[par], disp))
    return pos, tt.stack(pos, axis=2)


def _graph_contact_xz(G: Tensor, pos: list[Tensor], ctx: FkContext, dtype) -> Tensor:
    """Root-relative horizontal contact-point positions: (B, N, 4, 2)."""
    B, N = G.shape[0], G.shape[1]
    pts = []
    for c, seg in enumerate(ctx.contact_segments):
        off = Tensor(ctx.contact_offsets[:, c].reshape(B, 1, 3, 1).astype(dtype))
        p = tt.add(pos[int(seg)], tt.reshape(tt.matmul(G[:, :, int(seg)], off), (B, N, 3)))
        pts.append(tt.concat([p[..., 0:1], p[..., 2:3]], axis=-1))
    return tt.stack(pts, axis=2)


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
        return {"simple": self.simple, "vel": self.vel, "fk": self.fk,
                "drift": self.drift, "slide": self.slide, "total": self.total}


def _sumsq(x: Tensor) -> Tensor:
    return tt.tsum(tt.mul(x, x))


def diffusion_losses(pred: Tensor, target: np.ndarray, ctx: FkContext,
                     weights: LossWeights = LossWeights()) -> tuple[Tensor, LossBreakdown]:
    """Five-term training loss; sums follow the written objective, then a
    mean over the batch axis. Returns (total graph scalar, float breakdown)."""
    dtype = pred.dtype
    B = pred.shape[0]
    tgt = Tensor(np.asarray(target, dtype=dtype))

    simple = _sumsq(tt.sub(pred, tgt))

    r_pred = pred[:, :, ft.R_OFF:ft.R_OFF + ft.R_LEN]
    r_tgt = tgt[:, :, ft.R_OFF:ft.R_OFF + ft.R_LEN]
    vel = _sumsq(tt.sub(
        tt.sub(r_pred[:, 1:], r_pred[:, :-1]),
        tt.sub(r_tgt[:, 1:], r_tgt[:, :-1]),
    ))

    B_, N = pred.shape[0], pred.shape[1]
    g_pred = _graph_decode6d(tt.reshape(r_pred, (B_, N, ft.N_SEGMENTS, 6)))
    g_tgt = _graph_decode6d(tt.reshape(r_tgt, (B_, N, ft.N_SEGMENTS, 6)))
    pos_pred_list, pos_pred = _graph_fk_positions(g_pred, ctx, dtype)
    _, pos_tgt = _graph_fk_positions(g_tgt, ctx, dtype)
    fk = _sumsq(tt.sub(pos_pred, pos_tgt))

    dp_pred = pred[:, :, ft.DP_OFF:ft.DP_OFF + 2]
    dp_tgt = tgt[:, :, ft.DP_OFF:ft.DP_OFF + 2]
    drift = _sumsq(tt.sub(tt.cumsum(dp_pred, axis=1), tt.cumsum(dp_tgt, axis=1)))

    # foot sliding: world horizontal displacement of predicted contact points
    # between frames i and i+1 (root-relative difference plus the root step
    # into frame i+1), gated by the predicted contact probability at frame i
    ftxz = _graph_contact_xz(g_pred, pos_pred_list, ctx, dtype)
    disp = tt.add(
        tt.sub(ftxz[:, 1:], ftxz[:, :-1]),
        tt.reshape(dp_pred[:, 1:], (B_, N - 1, 1, 2)),
    )
    b_pred = pred[:, :, ft.B_OFF:ft.B_OFF + ft.B_LEN]
    gated = tt.mul(tt.reshape(b_pred[:, :-1], (B_, N - 1, ft.B_LEN, 1)), disp)
    slide = _sumsq(gated)

    inv_b = 1.0 / B
    parts = {
        "simple": tt.mul(simple, weights.simple * inv_b),
        "vel": tt.mul(vel, weights.vel * inv_b),
        "fk": tt.mul(fk, weights.fk * inv_b),
        "drift": tt.mul(drift, weights.drift * inv_b),
        "slide": tt.mul(slide, weights.slide * inv_b),
    }
    total = parts["simple"]
    for key in ("vel", "fk", "drift", "slide"):
        total = tt.add(total, parts[key])
    breakdown = LossBreakdown(
        simple=float(parts["simple"].data), vel=float(parts["vel"].data),
        fk=float(parts["fk"].data), drift=float(parts["drift"].data),
        slide=float(parts["slide"].data), total=float(total.data),
    )
    return total, breakdown


def training_step(cfg: DenoiserConfig, params: dict[str, Tensor], schedule: DiffusionSchedule,
                  windows: np.ndarray, heights: np.ndarray, ts: np.ndarray,
                  rng: np.random.Generator, tree: KinematicTree,
                  weights: LossWeights = LossWeights()) -> tuple[LossBreakdown, dict[str, np.ndarray]]:
    """Noise a batch of clean windows at steps ts, predict, differentiate."""
    dtype = params["in_proj.w"].dtype
    x = np.asarray(windows, dtype=dtype)
    if x.ndim == 2:
        x = x[None]
    z = noise_window(x.astype(np.float64), ts, schedule, rng).astype(dtype)
    pred = denoiser_forward(cfg, params, z, ts, heights)
    ctx = make_fk_context(tree, np.atleast_1d(heights))
    total, breakdown = diffusion_losses(pred, x, ctx, weights)
    if not math.isfinite(breakdown.total):
        raise TrainingDiverged(f"non-finite loss: {breakdown.as_dict()}")
    grads = tt.grads_by_name(total, params)
    return breakdown, grads


# -- training loop ----------------------------------------------------------


@dataclass
class TrainConfig:
    model: DenoiserConfig = field(default_factory=DenoiserConfig.toy)
    steps: int = 2000
    batch: int = 16
    lr: float = 1e-4
    betas: tuple[float, float] = (0.9, 0.999)
    seed: int = 0
    T: int = DEFAULT_T
    weights: LossWeights = field(default_factory=LossWeights)
    dtype: str = "float32"
    log_every: int = 50

    @property
    def np_dtype(self):
        return {"float32": np.float32, "float64": np.float64}[self.dtype]

    def lr_at(self, step: int) -> float:
        """Learning rate for a step; the schedule is constant."""
        return self.lr


@dataclass
class TrainResult:
    cfg: TrainConfig
    params: dict[str, Tensor]
    schedule: DiffusionSchedule
    losses: list[LossBreakdown]
    eval_curve: list[float] = field(default_factory=list)


def train(sample_batch: Callable[[int], tuple[np.ndarray, np.ndarray]],
          tree: KinematicTree, cfg: TrainConfig,
          eval_windows: tuple[np.ndarray, np.ndarray] | None = None,
          eval_every: int = 0,
          log: Callable[[dict], None] | None = None) -> TrainResult:
    """Generic training loop; sample_batch(n) returns (windows, heights).

    Every cfg.log_every steps and at the last one, `log` gets one record:
    the step, the five loss terms and their total, the step's seconds
    (batch draw, training step and Adam) and the global gradient norm,
    which is computed on logged steps only. Deterministic for a fixed
    cfg.seed and sampler. Raises TrainingDiverged on a non-finite loss.
    """
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
        if log and (step % cfg.log_every == 0 or step == cfg.steps - 1):
            grad_norm = math.sqrt(sum(float(np.square(g, dtype=np.float64).sum()) for g in grads.values()))
            log({"step": step, **breakdown.as_dict(), "step_s": step_s, "grad_norm": grad_norm})
        if eval_windows is not None and eval_every and (step + 1) % eval_every == 0:
            eval_curve.append(evaluate_simple_loss(cfg.model, params, schedule, *eval_windows, seed=cfg.seed))
    return TrainResult(cfg=cfg, params=params, schedule=schedule, losses=losses, eval_curve=eval_curve)


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


def corpus_sampler(trials, tree: KinematicTree, seed: int) -> Callable[[int], tuple[np.ndarray, np.ndarray]]:
    """Adapter: energy-weighted window sampler -> batched arrays."""
    from .datagen import window_sampler

    it = window_sampler(trials, tree, seed=seed)

    def sample(n: int) -> tuple[np.ndarray, np.ndarray]:
        ws, hs = [], []
        for _ in range(n):
            w, h = next(it)
            ws.append(w)
            hs.append(h)
        return np.stack(ws), np.array(hs)

    return sample


# -- fast inference forward ----------------------------------------------


class FastDenoiser:
    """Inference forward pass over the graph path's parameters.

    It computes what `denoiser_forward` computes for one window (exactly,
    in real arithmetic) but skips work whose result nothing reads:

    - The cross-attention memory is the step and height tokens, which
      depend only on (t, h). `_conditioning` caches, per (t, h), both
      tokens and each layer's cross-attention folded into three small
      arrays: `ws = scale * Wq_h ck_h^T` (d, 2*nhead), `bs = scale *
      bq_h ck_h^T` (2*nhead,) and `vo = cv_h Wo_h` (2*nhead, d). A
      layer's cross block is then a softmax over each head's pair of
      `x @ ws + bs`, times `vo`, plus the output bias; its d-by-d query
      and output projections never run.
    - `predict(..., rows=r)` returns only the frame rows `r`. Every
      layer but the last runs on all 63 tokens, because the last layer's
      keys and values read them all; the last layer computes keys and
      values for every token and everything else (query, both
      attentions, FFN, layernorms, output projection) for `r` alone.

    An instance keeps only its weights, the position table, the token
    index of each frame row and the (t, h) cache of one height; `predict`
    works on arrays it allocates, so one instance can serve several
    sessions or threads.
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
        w = self.w
        cfg = self.cfg
        d, nh, hd = cfg.width, cfg.nhead, cfg.head_dim
        step_in = sinusoidal_embedding(np.array([t], dtype=np.float64), d).astype(self.dtype)
        step_tok = _gelu_inplace(step_in @ w["step_mlp.w1"] + w["step_mlp.b1"]) @ w["step_mlp.w2"] + w["step_mlp.b2"]
        h_in = np.array([[h]], dtype=self.dtype)
        height_tok = _gelu_inplace(h_in @ w["height_mlp.w1"] + w["height_mlp.b1"]) @ w["height_mlp.w2"] + w["height_mlp.b2"]
        mem = np.concatenate([step_tok, height_tok], axis=0)  # (2, d)
        scale = 1.0 / math.sqrt(hd)
        folds = []
        for lw in self._layers:
            # the fold is formed in float64 and rounded once to the model dtype
            ckv = (mem @ lw["cross.wkv"] + lw["cross.bkv"]).astype(np.float64)
            ck = ckv[:, :d].reshape(2, nh, hd).transpose(1, 2, 0)  # (nh, hd, 2)
            cv = ckv[:, d:].reshape(2, nh, hd).transpose(1, 0, 2)  # (nh, 2, hd)
            ws = scale * (lw["cross.wq"].reshape(d, nh, hd).transpose(1, 0, 2) @ ck)  # (nh, d, 2)
            bs = scale * (lw["cross.bq"].reshape(nh, 1, hd) @ ck)                     # (nh, 1, 2)
            vo = cv @ lw["cross.wo"].reshape(nh, hd, d)                               # (nh, 2, d)
            folds.append((np.ascontiguousarray(ws.transpose(1, 0, 2).reshape(d, 2 * nh), dtype=self.dtype),
                          bs.reshape(2 * nh).astype(self.dtype),
                          vo.reshape(2 * nh, d).astype(self.dtype)))
        out = (step_tok, height_tok, folds)
        if key[1] == height:
            cache[key] = out
        else:  # a session has one height: a new one replaces the last one's entries
            self._cond_cache = (key[1], {key: out})
        return out

    def predict(self, z: np.ndarray, t: int, h: float, rows: np.ndarray | None = None) -> np.ndarray:
        """(61, 190) noised window -> predicted clean window. With `rows`,
        a 1-D array of distinct frame indices, only those rows: the result
        equals `predict(z, t, h)[rows]`."""
        w = self.w
        d = self.cfg.width
        step_tok, height_tok, folds = self._conditioning(t, h)
        frames = np.asarray(z, dtype=self.dtype) @ w["in_proj.w"] + w["in_proj.b"] + self.pos
        x = np.concatenate([step_tok, height_tok, frames])
        *body, last = self._layers
        for lw, fold in zip(body, folds):
            qkv = x @ lw["attn.wqkv"] + lw["attn.bqkv"]
            x = self._block(x, qkv[:, :d], qkv[:, d:], lw, fold)
        wqkv, bqkv = last["attn.wqkv"], last["attn.bqkv"]
        kv = x @ wqkv[:, d:] + bqkv[d:]
        x = x[self._tokens if rows is None else self._tokens[rows]]
        x = self._block(x, x @ wqkv[:, :d] + bqkv[:d], kv, last, folds[-1])
        return x @ w["out_proj.w"] + w["out_proj.b"]

    def _block(self, x: np.ndarray, q: np.ndarray, kv: np.ndarray, lw: dict, fold: tuple) -> np.ndarray:
        """One post-norm layer for the residual rows `x`, whose queries are
        `q`; `kv` holds the keys and values of all 63 tokens."""
        cfg = self.cfg
        n, d, nh, hd = len(x), cfg.width, cfg.nhead, cfg.head_dim
        q = q.reshape(n, nh, hd).transpose(1, 0, 2)
        k = kv[:, :d].reshape(-1, nh, hd).transpose(1, 2, 0)
        v = kv[:, d:].reshape(-1, nh, hd).transpose(1, 0, 2)
        attn = (_softmax_inplace((q @ k) * (1.0 / math.sqrt(hd))) @ v).transpose(1, 0, 2).reshape(n, d)
        x = _layernorm_inplace(x + attn @ lw["attn.wo"] + lw["attn.bo"], lw["ln1.g"], lw["ln1.b"])

        ws, bs, vo = fold
        cross = _softmax_inplace((x @ ws + bs).reshape(n, nh, 2)).reshape(n, 2 * nh)
        x = _layernorm_inplace(x + cross @ vo + lw["cross.bo"], lw["ln2.g"], lw["ln2.b"])

        ffn = _gelu_inplace(x @ lw["ff.w1"] + lw["ff.b1"]) @ lw["ff.w2"]
        return _layernorm_inplace(x + ffn + lw["ff.b2"], lw["ln3.g"], lw["ln3.b"])


def _gelu_inplace(x: np.ndarray) -> np.ndarray:
    """tanh-approximate GELU of x, in place."""
    t = 0.044715 * x
    t *= x
    t *= x
    t += x
    t *= math.sqrt(2.0 / math.pi)
    np.tanh(t, out=t)
    t += 1.0
    x *= 0.5
    x *= t
    return x


def _softmax_inplace(s: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in place."""
    s -= s.max(-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(-1, keepdims=True)
    return s


def _layernorm_inplace(x: np.ndarray, g: np.ndarray, b: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Layernorm over the last axis, in place."""
    x -= x.mean(-1, keepdims=True)
    var = (x * x).mean(-1, keepdims=True)
    var += eps
    x /= np.sqrt(var, out=var)
    x *= g
    x += b
    return x


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
        kind = schedule.kind.encode()
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
    """Refuses to load when the skeleton or feature-layout hash disagrees,
    and raises CheckpointError on a file that is corrupt or ends early."""
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
        if kind != "cosine":
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
        return cfg, params, schedule
