"""Real-time autoregressive reconstruction from streaming sparse sensors.

Each 20 Hz step: write the new observation into the last frame of the
rolling 61-frame window (unobserved channels seeded from the previous
frame), run inpainting denoising over the configured step spread, take
the generated channels of the last frame alongside the measured ones,
decode that frame once into local rotations and, with root correction
on, its contact points; correct the root displacement from the contact
points of this frame and of the last one, which the previous step kept;
then shift the emitted frame into history. History rows are fully
observed, so the denoiser predicts only rows with generated channels:
in a session, the newest frame.

The inpainting loop follows the renoise-and-edit algorithm literally:
every iteration renoises the current estimate at the step's noise level,
predicts a clean window, and freezes observed channels back to the
input. A deterministic DDIM-style variant is available behind
`variant="ddim"`; it keeps a running latent and only edits the
prediction, matching the cited fast-sampling scheme instead.

Wire formats (JSON lines, versioned by a header record):

  input, 60 Hz  {"format": "imu-stream", "version": 1, "rate_hz": 60}
                {"t_ms": 0, "sites": {"pelvis": {"q": [w,x,y,z],
                 "a": [ax,ay,az]}, ...}, "insoles": [1,0,1,1]}
                absent sites mean per-sensor dropout for that frame;
                "insoles" is optional; a non-finite sample, a zero
                quaternion, an acceleration beyond MAX_ACCEL or insoles
                outside {0, 1} are a dropout too (see StreamIngestor).

  output, 20 Hz {"format": "pose-stream", "version": 1, "rate_hz": 20,
                 "segments": [... 24 names ...]}
                {"t_ms": 0, "root": [x,y,z], "q": [[w,x,y,z] x 24],
                 "contact": [c0,c1,c2,c3], "latency_ms": 1.2}
"""

from __future__ import annotations

import json
import math
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import features as ft
from . import kinematics
from .datagen import DECIMATION, SMOOTH_WINDOW
from .diffusion import DenoiserConfig, DiffusionSchedule, FastDenoiser
from .kinematics import (
    KinematicTree,
    Pose,
    decode_rot6d,
    encode_rot6d,
    global_to_local,
    quat_to_rot,
    rot_to_quat,
)
from .tensor import ContractError

STREAM_IN_FORMAT = "imu-stream"
STREAM_OUT_FORMAT = "pose-stream"
STREAM_VERSION = 1
CONTACT_THRESHOLD = 0.5
# Largest acceleration component (m/s^2) a stream sample may carry: about
# 1000 g, far beyond the full scale of any body-worn IMU (16 g is usual,
# high-g parts reach 400 g), so a larger value can only be a corrupt
# sample. It also keeps the filter's mean and the window's float32 cast
# finite. See _usable_sample.
MAX_ACCEL = 1e4


class SpreadError(ValueError):
    pass


class InferenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class StepSpread:
    """Ordered denoising step indices, strictly decreasing and ending at 0."""

    steps: tuple[int, ...]

    def __post_init__(self):
        s = self.steps
        if len(s) < 1 or s[-1] != 0:
            raise SpreadError(f"spread must end at 0, got {s}")
        if any(a <= b for a, b in zip(s, s[1:])):
            raise SpreadError(f"spread must be strictly decreasing, got {s}")

    def __len__(self):
        return len(self.steps)

    @staticmethod
    def like_10d(n: int, T: int = 1000) -> "StepSpread":
        """Irregular spacing in the 10D style: a linear sweep from T down
        to T/10, then a sparse low-noise tail (T/100, T/500, 0).

        For very small T colliding entries are squeezed downward, so the
        result may be shorter than n. There are only T + 1 distinct steps,
        so a larger n is refused before anything is built.
        """
        if n < 2:
            raise SpreadError("need at least 2 steps")
        if n > T + 1:
            raise SpreadError(f"a spread over T={T} has at most {T + 1} steps, got {n}")
        if n == 2:
            cand = [T, 0]
        elif n == 3:
            cand = [T, round(T * 0.01), 0]
        else:
            head = np.round(np.linspace(T, T * 0.1, n - 3)).astype(int).tolist()
            cand = head + [round(T * 0.01), round(T * 0.002), 0]
        out: list[int] = []
        for v in cand:
            v = int(v) if not out else min(int(v), out[-1] - 1)
            if v < 0:
                break
            out.append(v)
        if out[-1] != 0:
            out.append(0)
        return StepSpread(tuple(out))

    @staticmethod
    def parse(text: str, T: int = 1000) -> "StepSpread":
        """Named presets (10A/10B/10C/10D), a step count, or an explicit
        comma/slash-separated descending list."""
        text = text.strip()
        presets = {
            "10A": tuple(range(9, -1, -1)),
            "10B": tuple(range(18, -1, -2)),
            "10C": (100, 56, 32, 18, 10, 6, 3, 2, 1, 0),
            "10D": (1000, 850, 700, 550, 400, 250, 100, 10, 2, 0),
        }
        if text.upper() in presets:
            return StepSpread(presets[text.upper()])
        if text.isdigit():
            return StepSpread.like_10d(int(text), T)
        sep = "/" if "/" in text else ","
        try:
            steps = tuple(int(x) for x in text.split(sep))
        except ValueError:
            raise SpreadError(f"bad spread {text!r}: expected a step count, a preset "
                              "(10A..10D) or a descending list of step indices") from None
        return StepSpread(steps)


def inpaint_denoise(
    model: FastDenoiser,
    schedule: DiffusionSchedule,
    x_input: np.ndarray,
    mask: np.ndarray,
    h: float,
    spread: StepSpread,
    rng: np.random.Generator,
    variant: str = "renoise",
) -> np.ndarray:
    """Generate the unmasked channels of x_input; masked channels (mask=1)
    pass through bit-exactly. Only rows with a generated channel are
    predicted, and each step's estimate takes the model output there and
    the input everywhere else. Each noising draws one window-sized block
    of noise (renoise: one per step; ddim: one, for the starting latent).
    The input is checked to be finite once, before the first step."""
    x_input = np.asarray(x_input)
    if x_input.shape != (ft.WINDOW_LEN, ft.FRAME_DIM):
        raise ContractError(f"x_input shape {x_input.shape}")
    if mask.shape != x_input.shape:
        raise ContractError(f"mask shape {mask.shape} != {x_input.shape}")
    if spread.steps[0] > schedule.T:
        raise SpreadError(f"spread starts at {spread.steps[0]} > T={schedule.T}")
    if variant not in ("renoise", "ddim"):
        raise ValueError(f"unknown variant {variant!r}")
    keep = mask > 0.5
    rows = np.flatnonzero(~keep.all(axis=1))
    dtype = model.dtype
    xin = x_input.astype(dtype)
    if not np.isfinite(xin).all():
        raise InferenceError("non-finite value in the input window")
    x = xin.copy()  # the estimate: input in observed channels, model output elsewhere

    def noised(a: np.ndarray, t: int) -> np.ndarray:
        """sqrt(ab_t) a + sqrt(1 - ab_t) eps, with fresh noise eps."""
        # scaled and summed in the draw's own array: with three more
        # window-sized temporaries per step, the eval-toy10D sweep ran
        # about 5% slower per frame (2-core x86-64, OpenBLAS 1 thread)
        ab = schedule.alpha_bar[t]
        z = rng.standard_normal(a.shape, dtype=dtype)
        z *= np.sqrt(1.0 - ab, dtype=dtype)
        z += np.sqrt(ab, dtype=dtype) * a
        return z

    def edit(z: np.ndarray, t: int) -> None:
        x0 = model.predict(z, t, h, rows=rows)
        if not np.isfinite(x0).all():
            raise InferenceError(f"non-finite denoiser output at step t={t}")
        x[rows] = np.where(keep[rows], xin[rows], x0)

    if variant == "renoise":
        for t in spread.steps:
            edit(noised(x, t), t)
    else:
        # DDIM keeps a running latent z and only edits the prediction
        z = noised(x, spread.steps[0])
        for t, t_next in zip(spread.steps, spread.steps[1:] + (None,)):
            edit(z, t)
            if t_next is None:
                break
            ab, ab_next = schedule.alpha_bar[t], schedule.alpha_bar[t_next]
            eps_hat = (z - np.sqrt(ab, dtype=dtype) * x) / np.sqrt(1.0 - ab, dtype=dtype)
            z = np.sqrt(ab_next, dtype=dtype) * x + np.sqrt(1.0 - ab_next, dtype=dtype) * eps_hat
    # the final edit froze observed channels; make the pass-through exact
    # in the input's own dtype as well
    result = x_input.copy()
    np.copyto(result, x, where=~keep)
    return result


def root_correct(
    prev_xz: np.ndarray,
    cur_frame: np.ndarray,
    cur_xz: np.ndarray,
    threshold: float = CONTACT_THRESHOLD,
) -> np.ndarray:
    """Corrected horizontal root step for cur_frame.

    prev_xz and cur_xz are the root-relative horizontal contact points,
    (4, 2), of the previous and the current frame. Subtracts the mean
    world-horizontal displacement of the contact points predicted to be
    in contact; with one such point that point becomes exactly static,
    with several only their mean does.
    """
    dp = cur_frame[ft.DP_OFF:ft.DP_OFF + 2].copy()
    b = cur_frame[ft.B_OFF:ft.B_OFF + ft.B_LEN]
    in_contact = b >= threshold
    if not in_contact.any():
        return dp
    disp = (cur_xz - prev_xz) + dp[None, :]
    return dp - disp[in_contact].mean(axis=0)


@dataclass
class StepResult:
    pose: Pose
    frame: np.ndarray        # emitted 190-channel feature frame
    contacts: np.ndarray     # (4,) predicted probabilities, clipped to [0, 1]
    latency_ms: float
    index: int


class Reconstructor:
    """Single-session autoregressive reconstruction state machine.

    Not thread-safe; one reconstruction loop per instance, stepping a
    `model` that other sessions may share. Deterministic for a fixed
    seed and measurement stream.
    """

    def __init__(
        self,
        model_cfg: DenoiserConfig,
        model: FastDenoiser,
        schedule: DiffusionSchedule,
        tree: KinematicTree,
        config: ft.SensorConfig,
        height: float,
        spread: StepSpread | None = None,
        seed: int = 0,
        variant: str = "renoise",
        root_correction: bool = True,
    ):
        ft.check_height(height)
        self.cfg = model_cfg
        self.fast = model
        self.schedule = schedule
        self.tree = tree
        self.scaled_tree = tree.scaled(height)
        self.config = config
        self.height = float(height)
        self.spread = spread or StepSpread.like_10d(30, schedule.T)
        if self.spread.steps[0] > schedule.T:
            raise SpreadError(f"spread exceeds schedule T={schedule.T}")
        self.rng = np.random.default_rng([seed, 606])
        self.variant = variant
        self.root_correction = root_correction
        self.window: np.ndarray | None = None
        self.frame_index = 0
        self.root_xz = np.zeros(2)
        self.contact_xz: np.ndarray | None = None  # of window[-1], with root correction on

    def cold_start(self, measurement: ft.Measurement | None = None) -> None:
        """Fill the window with a neutral standing frame; write the first
        observation (if any) into the last frame."""
        neutral = ft.neutral_frame(self.tree, self.height)
        self.window = np.tile(neutral, (ft.WINDOW_LEN, 1))
        if measurement is not None:
            self.window, _ = ft.apply_observation(self.window, measurement, self.tree, self.config)
        self.frame_index = 0
        self.root_xz = np.zeros(2)
        self.contact_xz = self._decode_frame(self.window[-1])[1]

    def step(self, measurement: ft.Measurement | None = None) -> StepResult:
        """Consume one 20 Hz observation (None = total signal loss)."""
        t0 = time.perf_counter()
        if measurement is None:
            measurement = ft.Measurement()
        if self.window is None:
            self.cold_start(measurement)
        shifted = np.concatenate([self.window[1:], self.window[-1:]], axis=0)
        x_input, mask = ft.apply_observation(shifted, measurement, self.tree, self.config)
        out = inpaint_denoise(self.fast, self.schedule, x_input, mask, self.height,
                              self.spread, self.rng, variant=self.variant)
        emitted = out[-1].copy()
        locals_, cur_xz = self._decode_frame(emitted)
        if self.root_correction:
            emitted[ft.DP_OFF:ft.DP_OFF + 2] = root_correct(self.contact_xz, emitted, cur_xz)
            self.contact_xz = cur_xz
        self.root_xz = self.root_xz + emitted[ft.DP_OFF:ft.DP_OFF + 2]
        root = np.array([self.root_xz[0], emitted[ft.PY_OFF], self.root_xz[1]])
        contacts = np.clip(emitted[ft.B_OFF:ft.B_OFF + ft.B_LEN], 0.0, 1.0)
        self.window = np.concatenate([x_input[:-1], emitted[None]], axis=0)
        self.frame_index += 1
        return StepResult(pose=Pose(locals_, root), frame=emitted, contacts=contacts,
                          latency_ms=(time.perf_counter() - t0) * 1e3, index=self.frame_index - 1)

    def _decode_frame(self, frame: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Local rotations (24, 3, 3) and, with root correction on, the
        root-relative horizontal contact points (4, 2) of a frame. Both
        read only its rotation channels, which root correction keeps."""
        g6 = frame[ft.R_OFF:ft.R_OFF + ft.R_LEN].reshape(ft.N_SEGMENTS, 6)
        locals_ = global_to_local(self.tree, decode_rot6d(g6, strict=False))
        if not self.root_correction:
            return locals_, None
        fk = kinematics.forward_kinematics(self.scaled_tree, locals_, np.zeros(3))
        return locals_, fk.contacts[:, [0, 2]]


def run_session(recon: Reconstructor, measurements) -> list[StepResult]:
    """Cold-start a session, then step it once per 20 Hz measurement."""
    recon.cold_start()
    return [recon.step(m) for m in measurements]


def latency_percentiles(results: list[StepResult]) -> dict[str, float]:
    """p50 and p95 of the results' step latencies, in ms (NaN when empty)."""
    if not results:
        return {"p50": float("nan"), "p95": float("nan")}
    arr = np.array([r.latency_ms for r in results])
    return {"p50": float(np.percentile(arr, 50)), "p95": float(np.percentile(arr, 95))}


# -- measurement sources -------------------------------------------------


def measurements_from_trial(trial, config: ft.SensorConfig, drop: np.ndarray | None = None):
    """Per-frame Measurements replaying a dataset trial's synthesized
    signals through a sensor config. drop: optional (T,) bool, True = all
    sensors lost that frame."""
    T = trial.motion.n_frames
    orient6d = encode_rot6d(trial.site_rotations)  # (T, 13, 6)
    site_idx = {n: i for i, n in enumerate(ft.ALL_SITES)}
    for k in range(T):
        if drop is not None and drop[k]:
            yield ft.Measurement()
            continue
        m = ft.Measurement(
            site_orient6d={n: orient6d[k, site_idx[n]] for n in config.imu_sites},
            site_accel={n: trial.site_accels[k, site_idx[n]] for n in config.imu_sites},
            insole_labels=trial.contacts[k].astype(np.float64) if config.insoles else None,
        )
        yield m


def reconstruct_trial(recon: Reconstructor, trial, config: ft.SensorConfig,
                      drop: np.ndarray | None = None) -> tuple["np.ndarray", "np.ndarray", list[StepResult]]:
    """Cold-start + step through a trial; returns (local rotations
    (T,24,3,3), root positions (T,3), per-step results)."""
    results = run_session(recon, measurements_from_trial(trial, config, drop=drop))
    rot = np.stack([r.pose.rotations for r in results])
    root = np.stack([r.pose.root_position for r in results])
    return rot, root, results


# -- 60 Hz stream ingestion ---------------------------------------------


@dataclass
class StreamFrame:
    t_ms: float
    sites: dict[str, tuple[np.ndarray, np.ndarray]]  # name -> (quat wxyz, accel xyz)
    insoles: np.ndarray | None = None


@dataclass
class IngestedMeasurement:
    t_ms: float
    measurement: ft.Measurement
    latency_frames: int = SMOOTH_WINDOW // 2  # future 60 Hz frames the centered filter waits for


class StreamIngestor:
    """60 Hz sensor records -> 20 Hz Measurements.

    Accelerations get the centered SMOOTH_WINDOW-frame moving average
    (windows with dropped frames average over what is present); both
    channels are decimated by DECIMATION. Both constants come from
    `datagen`, so live input is filtered exactly as the training signals
    were synthesized. A site absent at a decimation instant is dropped
    from that Measurement. A bad sample is a dropout too: a site whose
    quaternion has no finite nonzero norm, or whose acceleration has a
    component that is not finite or exceeds MAX_ACCEL in magnitude, is
    dropped from its record, and so are insoles with a value outside
    {0, 1}; `bad_samples` counts them. Records whose
    timestamp is not after the last one are discarded and counted in
    `out_of_order`. Output lags input by SMOOTH_WINDOW // 2 raw frames.
    Only the last SMOOTH_WINDOW records are held, so memory stays flat
    over a session of any length.
    """

    half = SMOOTH_WINDOW // 2

    def __init__(self):
        self.frames: deque[StreamFrame] = deque(maxlen=SMOOTH_WINDOW)
        self.received = 0  # records accepted; frames[-1] has index received - 1
        self.last_ms = -np.inf
        self.next_out = 0  # index of next decimation instant
        self.bad_samples = 0
        self.out_of_order = 0

    def push(self, frame: StreamFrame) -> list[IngestedMeasurement]:
        if frame.t_ms <= self.last_ms:
            self.out_of_order += 1
            return []
        self.last_ms = frame.t_ms
        self.frames.append(self._without_bad_samples(frame))
        self.received += 1
        return self._drain(final=False)

    def finish(self) -> list[IngestedMeasurement]:
        """Flush instants still waiting for future frames (edge padding)."""
        return self._drain(final=True)

    def _without_bad_samples(self, frame: StreamFrame) -> StreamFrame:
        """frame itself when every sample is good, else a copy without the
        bad ones; the caller's frame is never changed."""
        sites = {name: (q, a) for name, (q, a) in frame.sites.items() if _usable_sample(q, a)}
        insoles = frame.insoles
        if insoles is not None and not all(v in (0.0, 1.0) for v in insoles.tolist()):
            insoles = None
        bad = len(frame.sites) - len(sites) + (insoles is not frame.insoles)
        if not bad:
            return frame
        self.bad_samples += bad
        return StreamFrame(t_ms=frame.t_ms, sites=sites, insoles=insoles)

    def _drain(self, final: bool) -> list[IngestedMeasurement]:
        out = []
        n = self.received
        while self.next_out < n:
            center = self.next_out
            if not final and center + self.half >= n:
                break
            out.append(self._emit(center))
            self.next_out += DECIMATION
        return out

    def _emit(self, center: int) -> IngestedMeasurement:
        # absolute record index i is held at frames[i - base]; every
        # instant is emitted before its window's first record leaves
        base = self.received - len(self.frames)
        frames = self.frames
        ref = frames[center - base]
        lo = max(center - self.half, 0)
        hi = min(center + self.half, self.received - 1)
        meas = ft.Measurement(site_orient6d={}, site_accel={},
                              insole_labels=None if ref.insoles is None else np.asarray(ref.insoles, float))
        for name, (quat, _acc) in ref.sites.items():
            acc_parts = [frames[i - base].sites[name][1] for i in range(lo, hi + 1)
                         if name in frames[i - base].sites]
            # edge replication: extend with boundary values when the window
            # sticks out of the recorded range
            pad_lo = self.half - (center - lo)
            pad_hi = self.half - (hi - center)
            if acc_parts:
                first, last = acc_parts[0], acc_parts[-1]
                acc_parts = [first] * pad_lo + acc_parts + [last] * pad_hi
            acc = np.mean(acc_parts, axis=0)
            meas.site_orient6d[name] = encode_rot6d(quat_to_rot(np.asarray(quat, float)))
            meas.site_accel[name] = acc
        return IngestedMeasurement(t_ms=ref.t_ms, measurement=meas)


def _usable_sample(q: np.ndarray, a: np.ndarray) -> bool:
    """True when q has a finite nonzero norm (quat_to_rot can normalize
    it) and every component of a is finite and at most MAX_ACCEL in
    magnitude (NaN fails the comparison). In Python floats: cheaper than
    numpy calls on 4- and 3-vectors, and a square that overflows or
    underflows raises no warning."""
    return 0.0 < sum(v * v for v in q.tolist()) < math.inf and all(abs(v) <= MAX_ACCEL for v in a.tolist())


# -- JSONL wire formats ------------------------------------------------------


def _read_wire(path, fmt: str, decode) -> list:
    """The records of a v1 `fmt` JSON-lines file, each passed through
    `decode`, after its header; blank lines are skipped. A bad header,
    line of JSON, field or vector raises InferenceError("<path>:<line>: ...")."""
    records, n = [], 0
    with open(path, "rb") as f:
        for n, line in enumerate(f, 1):
            if n > 1 and not line.strip():
                continue
            try:
                rec = json.loads(line)
                if not isinstance(rec, dict):
                    raise ValueError("not a JSON object")
                if n == 1:
                    if rec.get("format") != fmt or rec.get("version") != STREAM_VERSION:
                        raise ValueError(f"not a v{STREAM_VERSION} {fmt} header: {rec}")
                else:
                    records.append(decode(rec))
            except (ValueError, TypeError, AttributeError) as e:
                raise InferenceError(f"{path}:{n}: {e}") from None
    if not n:
        raise InferenceError(f"{path}: empty file, expected a {fmt} header")
    return records


def _field(rec: dict, key: str, shape: tuple[int, ...] = (), where: str = "") -> np.ndarray:
    """rec[key] as a float array of the given shape."""
    if key not in rec:
        raise ValueError(f"missing field '{where}{key}'")
    arr = np.asarray(rec[key], dtype=float)
    if arr.shape != shape:
        raise ValueError(f"field '{where}{key}' has shape {arr.shape}, expected {shape}")
    return arr


def _stream_frame(rec: dict) -> StreamFrame:
    sites = {name: (_field(v, "q", (4,), f"sites.{name}."), _field(v, "a", (3,), f"sites.{name}."))
             for name, v in rec.get("sites", {}).items()}
    return StreamFrame(t_ms=float(_field(rec, "t_ms")), sites=sites,
                       insoles=None if rec.get("insoles") is None else _field(rec, "insoles", (ft.B_LEN,)))


def parse_stream_file(path) -> list[StreamFrame]:
    return _read_wire(path, STREAM_IN_FORMAT, _stream_frame)


def _write_wire(path, header: dict, records) -> None:
    """A JSON-lines file: `header`, then each record as it is produced
    (the counterpart of `_read_wire`)."""
    with open(path, "w") as f:
        f.write(json.dumps(header) + "\n")
        for rec in records:
            f.write(json.dumps(rec) + "\n")


def _wire_values(x: np.ndarray, decimals: int) -> list[float]:
    """x rounded to `decimals` places, except that a component whose
    rounding overflows (above about 1.8e299 for 9 places, where x * 1e9
    is infinite) is kept as it is, so a finite value is written finite."""
    with np.errstate(over="ignore"):
        r = np.round(x, decimals)
    return np.where(np.isfinite(r), r, x).tolist()


def write_stream_file(path, frames: list[StreamFrame]) -> None:
    _write_wire(path, {"format": STREAM_IN_FORMAT, "version": STREAM_VERSION, "rate_hz": 60}, ({
        "t_ms": fr.t_ms,
        "sites": {n: {"q": _wire_values(q, 9), "a": _wire_values(a, 9)} for n, (q, a) in fr.sites.items()},
        **({} if fr.insoles is None else {"insoles": [int(x) for x in fr.insoles]}),
    } for fr in frames))


def stream_frames_from_trial(trial, config: ft.SensorConfig, tree: KinematicTree,
                             drop_ranges: list[tuple[int, int]] | None = None) -> list[StreamFrame]:
    """Simulated 60 Hz wire input for a (20 Hz) dataset trial.

    Each stored 20 Hz sample is emitted at its native instant plus two
    zero-order-hold repeats, carrying raw (unsmoothed) accelerations is
    not possible from a stored trial, so the stored smoothed values are
    used; this keeps round trips deterministic. drop_ranges are raw
    frame index intervals [a, b) with all sensors absent.
    """
    site_idx = {n: i for i, n in enumerate(ft.ALL_SITES)}
    frames = []
    T = trial.motion.n_frames
    for k in range(T):
        q = rot_to_quat(trial.site_rotations[k])
        for rep in range(3):
            idx = k * 3 + rep
            if drop_ranges and any(a <= idx < b for a, b in drop_ranges):
                frames.append(StreamFrame(t_ms=idx * 1000.0 / 60.0, sites={}))
                continue
            sites = {
                n: (q[site_idx[n]], trial.site_accels[k, site_idx[n]])
                for n in config.imu_sites
            }
            ins = trial.contacts[k].astype(float) if config.insoles else None
            frames.append(StreamFrame(t_ms=idx * 1000.0 / 60.0, sites=sites, insoles=ins))
    return frames


def write_pose_stream(path, tree: KinematicTree, results: list[StepResult]) -> None:
    _write_wire(path, {"format": STREAM_OUT_FORMAT, "version": STREAM_VERSION,
                       "rate_hz": ft.FRAME_RATE_HZ, "segments": list(tree.names)}, ({
        "t_ms": round(r.index * 1000.0 / ft.FRAME_RATE_HZ, 3),
        "root": _wire_values(r.pose.root_position, 9),
        "q": _wire_values(rot_to_quat(r.pose.rotations), 9),
        "contact": _wire_values(r.contacts, 6),
        "latency_ms": round(r.latency_ms, 3),
    } for r in results))


def _pose_record(rec: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return (quat_to_rot(_field(rec, "q", (ft.N_SEGMENTS, 4))), _field(rec, "root", (3,)),
            _field(rec, "contact", (ft.B_LEN,)))


def read_pose_stream(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """-> (local rotations (T,24,3,3), root positions (T,3), contacts (T,4))."""
    records = _read_wire(path, STREAM_OUT_FORMAT, _pose_record)
    if not records:
        raise InferenceError(f"{path}: no pose records")
    rots, roots, contacts = zip(*records)
    return np.stack(rots), np.stack(roots), np.stack(contacts)
