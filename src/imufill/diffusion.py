"""Diffusion model: cosine schedule, transformer denoiser, losses, training.

The denoiser is a post-norm transformer decoder over 63 tokens: a
denoising-step token and a subject-height token concatenated ahead of
the 61 projected feature frames. Both conditioning tokens also serve as
the cross-attention memory, and fixed sinusoidal position encodings are
added to the frame tokens. The network predicts the clean window
directly from a noised one.

Two forward implementations share the same parameters: a graph-building
one (training, gradient checks) and FastDenoiser, an allocation-lean
float32 path that meets the real-time budget at inference. Their
agreement is covered by tests.

The training loss is the unweighted sum of five terms: squared feature
error, orientation velocity matching, root-relative forward-kinematics
position error, cumulative root-displacement (drift) error, and a foot
contact/sliding consistency term gated by the predicted contact
probabilities.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import features as ft
from . import tensor as tt
from .kinematics import KinematicTree, skeleton_hash
from .tensor import Tensor

CHECKPOINT_MAGIC = b"IMFC"
CHECKPOINT_VERSION = 1
DEFAULT_T = 1000
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
    if T < 2:
        raise ScheduleError(f"T must be >= 2, got {T}")
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


def _layernorm(x: Tensor, g: Tensor, b: Tensor, eps: float = 1e-5) -> Tensor:
    mu = tt.tmean(x, axis=-1, keepdims=True)
    xc = tt.sub(x, mu)
    var = tt.tmean(tt.mul(xc, xc), axis=-1, keepdims=True)
    return tt.add(tt.mul(tt.div(xc, tt.tsqrt(tt.add(var, eps))), g), b)


def _linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return tt.add(tt.matmul(x, w), b)


def _split_heads(x: Tensor, nhead: int) -> Tensor:
    B, T, d = x.shape
    return tt.transpose(tt.reshape(x, (B, T, nhead, d // nhead)), (0, 2, 1, 3))


def _merge_heads(x: Tensor) -> Tensor:
    B, nh, T, hd = x.shape
    return tt.reshape(tt.transpose(x, (0, 2, 1, 3)), (B, T, nh * hd))


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
        x = _layernorm(tt.add(x, _linear(attn, P[p + "attn.wo"], P[p + "attn.bo"])),
                       P[p + "ln1.g"], P[p + "ln1.b"])
        cq = _split_heads(_linear(x, P[p + "cross.wq"], P[p + "cross.bq"]), cfg.nhead)
        ckv = _linear(memory, P[p + "cross.wkv"], P[p + "cross.bkv"])
        ck = _split_heads(ckv[:, :, :d], cfg.nhead)
        cv = _split_heads(ckv[:, :, d:], cfg.nhead)
        cross = _merge_heads(tt.softmax_attention(cq, ck, cv))
        x = _layernorm(tt.add(x, _linear(cross, P[p + "cross.wo"], P[p + "cross.bo"])),
                       P[p + "ln2.g"], P[p + "ln2.b"])
        ffn = _linear(tt.gelu(_linear(x, P[p + "ff.w1"], P[p + "ff.b1"])),
                      P[p + "ff.w2"], P[p + "ff.b2"])
        x = _layernorm(tt.add(x, ffn), P[p + "ln3.g"], P[p + "ln3.b"])

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
          log: Callable[[str], None] | None = None) -> TrainResult:
    """Generic training loop; sample_batch(n) returns (windows, heights).

    Deterministic for a fixed cfg.seed and sampler. Raises
    TrainingDiverged on a non-finite loss.
    """
    schedule = build_cosine_schedule(cfg.T)
    params = init_denoiser(cfg.model, seed=cfg.seed, dtype=cfg.np_dtype)
    rng = np.random.default_rng([cfg.seed, 707])
    state = None
    losses: list[LossBreakdown] = []
    eval_curve: list[float] = []
    for step in range(cfg.steps):
        windows, heights = sample_batch(cfg.batch)
        ts = rng.integers(0, cfg.T + 1, size=windows.shape[0])
        breakdown, grads = training_step(cfg.model, params, schedule, windows, heights,
                                         ts, rng, tree, cfg.weights)
        params, state = tt.adam_step(params, grads, state, lr=cfg.lr_at(step), betas=cfg.betas)
        losses.append(breakdown)
        if log and (step % cfg.log_every == 0 or step == cfg.steps - 1):
            log(f"step {step:5d}  total {breakdown.total:10.4f}  "
                + "  ".join(f"{k} {v:9.4f}" for k, v in breakdown.as_dict().items() if k != "total"))
        if eval_windows is not None and eval_every and (step + 1) % eval_every == 0:
            eval_curve.append(evaluate_simple_loss(cfg.model, params, schedule, *eval_windows, seed=cfg.seed))
    return TrainResult(cfg=cfg, params=params, schedule=schedule, losses=losses, eval_curve=eval_curve)


def evaluate_simple_loss(model_cfg: DenoiserConfig, params: dict[str, Tensor],
                         schedule: DiffusionSchedule, windows: np.ndarray, heights: np.ndarray,
                         seed: int = 0) -> float:
    """Mean per-window squared feature error at fixed mid-range noise."""
    rng = np.random.default_rng([seed, 909])
    dtype = params["in_proj.w"].dtype
    x = np.asarray(windows, dtype=dtype)
    ts = np.full(x.shape[0], schedule.T // 2)
    z = noise_window(x.astype(np.float64), ts, schedule, rng).astype(dtype)
    pred = denoiser_forward(model_cfg, params, z, ts, heights)
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
    """Allocation-lean forward pass sharing the graph path's parameters.

    Caches the position table, per-step conditioning tokens, and the
    cross-attention memory projections per (t, h); float32 by default
    for the real-time budget.
    """

    def __init__(self, cfg: DenoiserConfig, params: dict[str, Tensor], dtype=np.float32):
        self.cfg = cfg
        self.dtype = dtype
        self.w = {k: np.ascontiguousarray(v.data, dtype=dtype) for k, v in params.items()}
        self.pos = sinusoidal_embedding(np.arange(ft.WINDOW_LEN), cfg.width).astype(dtype)
        self._cond_cache: dict[tuple[int, float], tuple] = {}

    def _conditioning(self, t: int, h: float):
        key = (int(t), float(h))
        hit = self._cond_cache.get(key)
        if hit is not None:
            return hit
        w = self.w
        cfg = self.cfg
        d = cfg.width
        step_in = sinusoidal_embedding(np.array([t], dtype=np.float64), d).astype(self.dtype)
        step_tok = _np_gelu(step_in @ w["step_mlp.w1"] + w["step_mlp.b1"]) @ w["step_mlp.w2"] + w["step_mlp.b2"]
        h_in = np.array([[h]], dtype=self.dtype)
        height_tok = _np_gelu(h_in @ w["height_mlp.w1"] + w["height_mlp.b1"]) @ w["height_mlp.w2"] + w["height_mlp.b2"]
        mem = np.concatenate([step_tok, height_tok], axis=0)  # (2, d)
        per_layer = []
        for i in range(cfg.layers):
            p = f"layers.{i}."
            ckv = mem @ w[p + "cross.wkv"] + w[p + "cross.bkv"]
            ck = ckv[:, :d].reshape(2, cfg.nhead, cfg.head_dim).transpose(1, 0, 2).copy()
            cv = ckv[:, d:].reshape(2, cfg.nhead, cfg.head_dim).transpose(1, 0, 2).copy()
            per_layer.append((ck, cv))
        out = (step_tok, height_tok, per_layer)
        self._cond_cache[key] = out
        return out

    def predict(self, z: np.ndarray, t: int, h: float) -> np.ndarray:
        """(61, 190) noised window -> predicted clean window."""
        cfg = self.cfg
        w = self.w
        d, nh, hd = cfg.width, cfg.nhead, cfg.head_dim
        z = np.ascontiguousarray(z, dtype=self.dtype)
        step_tok, height_tok, mem_kv = self._conditioning(t, h)
        x = np.empty((ft.WINDOW_LEN + 2, d), dtype=self.dtype)
        x[0] = step_tok
        x[1] = height_tok
        np.add(z @ w["in_proj.w"] + w["in_proj.b"], self.pos, out=x[2:])
        Ttok = x.shape[0]
        scale = 1.0 / math.sqrt(hd)
        for i in range(cfg.layers):
            p = f"layers.{i}."
            qkv = x @ w[p + "attn.wqkv"] + w[p + "attn.bqkv"]
            q = qkv[:, :d].reshape(Ttok, nh, hd).transpose(1, 0, 2)
            k = qkv[:, d:2 * d].reshape(Ttok, nh, hd).transpose(1, 0, 2)
            v = qkv[:, 2 * d:].reshape(Ttok, nh, hd).transpose(1, 0, 2)
            s = q @ k.transpose(0, 2, 1)
            s *= scale
            s -= s.max(-1, keepdims=True)
            np.exp(s, out=s)
            s /= s.sum(-1, keepdims=True)
            attn = (s @ v).transpose(1, 0, 2).reshape(Ttok, d)
            x = _np_layernorm(x + attn @ w[p + "attn.wo"] + w[p + "attn.bo"],
                              w[p + "ln1.g"], w[p + "ln1.b"])
            cq = (x @ w[p + "cross.wq"] + w[p + "cross.bq"]).reshape(Ttok, nh, hd).transpose(1, 0, 2)
            ck, cv = mem_kv[i]
            cs = cq @ ck.transpose(0, 2, 1)
            cs *= scale
            cs -= cs.max(-1, keepdims=True)
            np.exp(cs, out=cs)
            cs /= cs.sum(-1, keepdims=True)
            cross = (cs @ cv).transpose(1, 0, 2).reshape(Ttok, d)
            x = _np_layernorm(x + cross @ w[p + "cross.wo"] + w[p + "cross.bo"],
                              w[p + "ln2.g"], w[p + "ln2.b"])
            g = x @ w[p + "ff.w1"] + w[p + "ff.b1"]
            g = _np_gelu(g)
            x = _np_layernorm(x + g @ w[p + "ff.w2"] + w[p + "ff.b2"],
                              w[p + "ln3.g"], w[p + "ln3.b"])
        return x[2:] @ w["out_proj.w"] + w["out_proj.b"]


def _np_gelu(x: np.ndarray) -> np.ndarray:
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x * x * x)))


def _np_layernorm(x: np.ndarray, g: np.ndarray, b: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    mu = x.mean(-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(-1, keepdims=True)
    return xc / np.sqrt(var + eps) * g + b


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
    """Refuses to load when the skeleton or feature-layout hash disagrees."""
    with open(path, "rb") as f:
        if f.read(4) != CHECKPOINT_MAGIC:
            raise CheckpointError("not a checkpoint file")
        (version,) = struct.unpack("<I", f.read(4))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        L, d, ff_, nh = struct.unpack("<IIII", f.read(16))
        (T,) = struct.unpack("<I", f.read(4))
        (klen,) = struct.unpack("<I", f.read(4))
        kind = f.read(klen).decode()
        skel = f.read(64).decode()
        layout = f.read(64).decode()
        if skel != skeleton_hash(tree):
            raise CheckpointError("checkpoint was trained against a different skeleton")
        if layout != ft.layout_hash():
            raise CheckpointError("checkpoint feature layout does not match this build")
        cfg = DenoiserConfig(layers=L, width=d, ff=ff_, nhead=nh)
        if kind != "cosine":
            raise CheckpointError(f"unknown schedule kind {kind!r}")
        schedule = build_cosine_schedule(T)
        (n,) = struct.unpack("<I", f.read(4))
        params: dict[str, Tensor] = {}
        for _ in range(n):
            (nlen,) = struct.unpack("<I", f.read(4))
            name = f.read(nlen).decode()
            (itemsize,) = struct.unpack("<B", f.read(1))
            (ndim,) = struct.unpack("<I", f.read(4))
            shape = struct.unpack(f"<{ndim}I", f.read(4 * ndim))
            dtype = np.float32 if itemsize == 4 else np.float64
            count = int(np.prod(shape)) if ndim else 1
            arr = np.frombuffer(f.read(count * itemsize), dtype=dtype).reshape(shape)
            params[name] = Tensor(arr.copy(), requires_grad=True)
        expected = set(_param_shapes(cfg))
        if set(params) != expected:
            raise CheckpointError("checkpoint parameter set does not match architecture")
        return cfg, params, schedule
