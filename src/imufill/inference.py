"""Real-time autoregressive reconstruction from streaming sparse sensors.

Each 20 Hz step: `features.apply_observation` advances the rolling
61-frame window by one frame (unobserved channels seeded from the
previous frame) and names the new frame's observed channels;
`inpaint_denoise` generates the new frame's other channels over the
configured step spread; the step decodes that frame's global
orientations once into local rotations and, with root correction on,
its contact points through the scaled tree's position operator
(`Reconstructor._decode_frame`, the one decoder from feature frame to
pose); corrects the root displacement from the contact points of this
frame and of the last one, which the previous step kept; then writes the
emitted frame into the window as its newest row. History rows are fully
observed, so the denoiser predicts only the newest frame.

The inpainting loop follows the renoise-and-edit algorithm literally:
every iteration renoises the current estimate of the whole window at the
step's noise level, predicts the clean newest frame, and freezes its
observed channels back to the input. The noise is Box-Muller normals
from the session's generator (`_standard_normal`), drawn in the
denoiser's input space, the window's product with `in_proj.w`, which is
all the denoiser reads of it (see `inpaint_denoise`); the t = 0 step,
whose noise level is 0, draws none.

Wire formats (JSON lines, versioned by a header record):

  input, 60 Hz  {"format": "imu-stream", "version": 1, "rate_hz": 60}
                {"t_ms": 0, "sites": {"pelvis": {"q": [w,x,y,z],
                 "a": [ax,ay,az]}, ...}, "insoles": [1,0,1,1]}
                absent sites mean per-sensor dropout for that frame;
                "insoles" is optional; a site name outside ALL_SITES,
                a non-finite sample, a quaternion whose norm is further
                than QUAT_NORM_TOL from 1, an acceleration beyond
                MAX_ACCEL or insoles outside {0, 1} are a dropout too
                (see StreamIngestor); a record whose "t_ms" is not
                finite or not after the last one is dropped. A site is
                one `Measurement.sites` pair; the session reads only the
                sensors its config names, as for dataset input.
                Accelerations pass the same centered SMOOTH_WINDOW-frame
                moving average as training data, so a 20 Hz instant is
                released SMOOTH_WINDOW // 2 = 5 records (83 ms) after it
                was sampled, a fixed lag of the stream path.

  output, 20 Hz {"format": "pose-stream", "version": 1, "rate_hz": 20,
                 "segments": [... 24 names ...]}
                {"t_ms": 0, "root": [x,y,z], "q": [[w,x,y,z] x 24],
                 "contact": [c0,c1,c2,c3], "latency_ms": 1.2}
                a pose is stamped with its instant: the "t_ms" of the
                input record at the centre of its decimation window, or
                index x 50 ms for untimed (dataset) input.

  Both readers take every value through `container`: a number is a JSON
  int or float, never a boolean, a string or null; a vector or matrix is
  nested arrays of exactly its shape; and a header's "version" is the
  integer 1 (not `true` or 1.0). Any other value is refused, naming the
  file and line, as is an object that names a key twice. A reader also
  refuses a header whose "rate_hz" is missing or is not its format's
  rate: the ingestor decimates by record count, so a stream at another
  rate would be reconstructed at the wrong speed, and `evaluate` matches
  poses to trial frames by order. The pose reader refuses a header whose
  "segments" are missing or are not the default skeleton's names in
  order, the one tree that any command writes poses with or scores them
  against, since it reads the "q" rows in that order. The
  pose reader also refuses a record that the writer cannot produce: a
  "t_ms" missing, not finite or before the last one (the writer rounds
  to 3 places, keeping order), a non-finite "root", "q" or "contact", a
  quaternion whose norm is further than QUAT_NORM_TOL from 1 (it rounds
  to 9 places) or a contact outside [0, 1] (it clips it).
"""

from __future__ import annotations

import json
import reprlib
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import features as ft
from . import kinematics
from .container import check_header, number, numbers, parse_json
from .datagen import DECIMATION, RAW_RATE_HZ, SMOOTH_WINDOW
from .diffusion import DenoiserConfig, DiffusionSchedule, FastDenoiser
from .kinematics import (
    SITE_INDEX,
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
FRAME_BUDGET_MS = 1000.0 / ft.FRAME_RATE_HZ  # a frame is due before the next one arrives
# Largest acceleration component (m/s^2) a stream sample may carry: about
# 1000 g, far beyond the full scale of any body-worn IMU (16 g is usual,
# high-g parts reach 400 g), so a larger value can only be a corrupt
# sample. It also keeps the filter's mean and the window's float32 cast
# finite. See _usable_sample.
MAX_ACCEL = 1e4
# Largest distance of a stream quaternion's norm from 1. The wire writes
# 9 decimals, so clean data is within about 1e-9, and a sensor that sends
# 16-bit fixed point with 14 fraction bits within about 1e-4; a norm
# further off than 1e-2 is a corrupt sample, not rounding, and would be
# silently renormalized into a wrong orientation. See _usable_sample.
QUAT_NORM_TOL = 1e-2
_QUAT_NORM2_LO, _QUAT_NORM2_HI = (1.0 - QUAT_NORM_TOL) ** 2, (1.0 + QUAT_NORM_TOL) ** 2


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
        """Named presets (10A/10B/10C/10D), a step count (`like_10d` over
        T), or an explicit comma/slash-separated descending list."""
        spec = StepSpread.syntax(text)
        return StepSpread.like_10d(spec, T) if isinstance(spec, int) else spec

    @staticmethod
    def syntax(text: str) -> "StepSpread | int":
        """`parse`'s reading of `text` that needs no schedule: a preset or a
        list as its spread, a step count as that count (at least 2). Only
        the schedule's T can refuse what this accepts."""
        text = text.strip()
        presets = {
            "10A": tuple(range(9, -1, -1)),
            "10B": tuple(range(18, -1, -2)),
            "10C": (100, 56, 32, 18, 10, 6, 3, 2, 1, 0),
            "10D": (1000, 850, 700, 550, 400, 250, 100, 10, 2, 0),
        }
        if text.upper() in presets:
            return StepSpread(presets[text.upper()])
        if text.isascii() and text.isdigit():
            n = int(text)
            if n < 2:
                raise SpreadError("need at least 2 steps")
            return n
        sep = "/" if "/" in text else ","
        try:
            steps = tuple(int(x) for x in text.split(sep))
        except ValueError:
            raise SpreadError(f"bad spread {text!r}: expected a step count, a preset "
                              "(10A..10D) or a descending list of step indices") from None
        return StepSpread(steps)


_NEWEST = np.array([ft.WINDOW_LEN - 1])  # the row a session step generates


def _standard_normal(rng: np.random.Generator, out: np.ndarray, scratch: np.ndarray) -> None:
    """Fill the contiguous array `out` with standard normals by the
    Box-Muller transform (Box & Muller 1958), in `out`'s dtype. One
    `out`-sized draw of uniforms u in [0, 1) goes into `scratch` (same
    shape and dtype, overwritten); the first half gives the radii
    sqrt(-2 ln(1 - u)), the second the angles 2 pi u, and `out` takes
    r cos in its first half and r sin in its second. In float32 1 - u lies
    in [2^-24, 1], so the log is finite and |z| is at most
    sqrt(-2 ln 2^-24) = 5.77. An odd size takes its last value from one
    extra pair."""
    u = rng.random(dtype=out.dtype, out=scratch).reshape(-1)
    z = out.reshape(-1)
    h = z.size // 2
    r, a = u[:h], u[h:2 * h]
    np.subtract(1, r, out=r)
    np.log(r, out=r)
    r *= -2
    np.sqrt(r, out=r)
    a *= 2 * np.pi
    np.multiply(np.cos(a, out=z[:h]), r, out=z[:h])
    np.multiply(np.sin(a, out=z[h:2 * h]), r, out=z[h:2 * h])
    if z.size % 2:
        pair = np.empty(2, out.dtype)
        _standard_normal(rng, pair, np.empty_like(pair))
        z[-1] = pair[0]


def inpaint_denoise(
    model: FastDenoiser,
    schedule: DiffusionSchedule,
    window: np.ndarray,
    observed: np.ndarray,
    h: float,
    spread: StepSpread,
    rng: np.random.Generator,
) -> np.ndarray:
    """The newest frame of a (61, 190) window, with its unobserved
    channels generated; its observed channels ((190,) bool) pass through
    bit-exactly, and the history rows are known. Each step renoises the
    whole window, predicts the newest row and takes the model output in
    its unobserved channels.

    The model reads a window only through its product with `in_proj.w`
    (W, (190, d)), so the loop works in that projected space: the
    estimate is projected once (xw = x @ W), and after each step only its
    newest row is projected again. A step draws one (61, k) block n of
    Box-Muller normals from `rng` (`_standard_normal`), k = min(190, d),
    and gives `predict_projected` u = sqrt(1 - ab) n @ R + sqrt(ab) xw,
    with R the model's `in_factor` (RᵀR = WᵀW). That is the product with W
    of the window renoised with eps = n Qᵀ (W = QR), a standard normal
    window in the directions W reads, so samples differ from a renoise in
    window space but their distribution does not; below width 190 a step
    draws 61 d normals, not 61 x 190. A step whose alpha_bar is exactly 1
    (t = 0 under the cosine schedule) would scale its noise by 0, so it
    draws nothing and predicts from xw itself. The window is checked to
    be finite once, before the first step."""
    window = np.asarray(window)
    if window.shape != (ft.WINDOW_LEN, ft.FRAME_DIM):
        raise ContractError(f"window shape {window.shape}")
    if observed.shape != (ft.FRAME_DIM,) or observed.dtype != bool:
        raise ContractError(f"observed must be ({ft.FRAME_DIM},) bool, got {observed.shape} {observed.dtype}")
    if spread.steps[0] > schedule.T:
        raise SpreadError(f"spread starts at {spread.steps[0]} > T={schedule.T}")
    dtype = model.dtype
    x = window.astype(dtype)
    if not np.isfinite(x).all():
        raise InferenceError("non-finite value in the input window")
    known = x[-1]
    W, R = model.w["in_proj.w"], model.in_factor
    xw = x @ W  # the estimate, projected: the window, model output in the generated channels
    # local, so threads can share the model
    noise, uniforms = np.empty((2, ft.WINDOW_LEN, len(R)), dtype)
    u, scaled = np.empty((2,) + xw.shape, dtype)
    for t in spread.steps:
        # renoise: sqrt(1 - ab_t) n @ R + sqrt(ab_t) xw, with n drawn into
        # `noise` through the uniforms in `uniforms`
        ab = schedule.alpha_bar[t]
        if ab == 1.0:  # the noise would be scaled by 0
            zw = xw
        else:
            zw = u
            _standard_normal(rng, noise, uniforms)
            np.matmul(noise, R, out=zw)
            zw *= np.sqrt(1.0 - ab, dtype=dtype)
            zw += np.multiply(np.sqrt(ab, dtype=dtype), xw, out=scaled)
        # edit: predict the clean newest frame and freeze its observed channels
        x0 = model.predict_projected(zw, t, h, rows=_NEWEST)[0]
        if not np.isfinite(x0).all():
            raise InferenceError(f"non-finite denoiser output at step t={t}")
        np.copyto(x0, known, where=observed)
        np.matmul(x0, W, out=xw[-1])
    # the last step froze observed channels; make the pass-through exact
    # in the window's own dtype as well
    frame = window[-1].copy()
    np.copyto(frame, x0, where=~observed)
    return frame


def root_correct(prev_xz: np.ndarray, cur_frame: np.ndarray, cur_xz: np.ndarray) -> np.ndarray:
    """Corrected horizontal root step for cur_frame.

    prev_xz and cur_xz are the root-relative horizontal contact points,
    (4, 2), of the previous and the current frame. Subtracts the mean
    world-horizontal displacement of the contact points predicted to be
    in contact (probability at least CONTACT_THRESHOLD); with one such
    point that point becomes exactly static, with several only their
    mean does.
    """
    dp = cur_frame[ft.DP_OFF:ft.DP_OFF + 2].copy()
    b = cur_frame[ft.B_OFF:ft.B_OFF + ft.B_LEN]
    in_contact = b >= CONTACT_THRESHOLD
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
    t_ms: float              # the measurement's instant; index x 50 ms when it is untimed


class Reconstructor:
    """Single-session autoregressive reconstruction state machine:
    `cold_start`, then one `step` per 20 Hz measurement.

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
        spread: StepSpread,
        seed: int = 0,
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
        self.spread = spread
        if spread.steps[0] > schedule.T:
            raise SpreadError(f"spread exceeds schedule T={schedule.T}")
        self.rng = np.random.default_rng([seed, 606])
        self.root_correction = root_correction
        self.window: np.ndarray | None = None  # set by cold_start
        self.frame_index = 0
        self.root_xz = np.zeros(2)
        self.contact_xz: np.ndarray | None = None  # of window[-1], with root correction on

    def cold_start(self) -> None:
        """Start (or restart) the session: fill the window with a neutral
        standing frame, whose contact points root correction starts from."""
        frame, contacts = ft.neutral_frame(self.scaled_tree)
        self.window = np.tile(frame, (ft.WINDOW_LEN, 1))
        self.frame_index = 0
        self.root_xz = np.zeros(2)
        self.contact_xz = contacts[:, [0, 2]] if self.root_correction else None

    def step(self, measurement: ft.Measurement) -> StepResult:
        """Consume one 20 Hz observation (an empty Measurement is total
        signal loss) of a session that `cold_start` started."""
        t0 = time.perf_counter()
        if self.window is None:
            raise InferenceError("step before cold_start")
        window, observed = ft.apply_observation(self.window, measurement, self.tree, self.config)
        emitted = inpaint_denoise(self.fast, self.schedule, window, observed, self.height, self.spread, self.rng)
        locals_, cur_xz = self._decode_frame(emitted)
        if self.root_correction:
            emitted[ft.DP_OFF:ft.DP_OFF + 2] = root_correct(self.contact_xz, emitted, cur_xz)
            self.contact_xz = cur_xz
        self.root_xz = self.root_xz + emitted[ft.DP_OFF:ft.DP_OFF + 2]
        root = np.array([self.root_xz[0], emitted[ft.PY_OFF], self.root_xz[1]])
        contacts = np.clip(emitted[ft.B_OFF:ft.B_OFF + ft.B_LEN], 0.0, 1.0)
        window[-1] = emitted
        self.window = window
        index = self.frame_index
        self.frame_index += 1
        t_ms = index * 1000.0 / ft.FRAME_RATE_HZ if measurement.t_ms is None else measurement.t_ms
        return StepResult(pose=Pose(locals_, root), frame=emitted, contacts=contacts,
                          latency_ms=(time.perf_counter() - t0) * 1e3, index=index, t_ms=t_ms)

    def _decode_frame(self, frame: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Local rotations (24, 3, 3) and, with root correction on, the
        root-relative horizontal contact points (4, 2) of a frame, both
        from its decoded globals, the points through the contact columns
        of the scaled tree's operator. Both read only its rotation
        channels, which root correction keeps."""
        G = decode_rot6d(frame[ft.R_OFF:ft.R_OFF + ft.R_LEN].reshape(ft.N_SEGMENTS, 6))
        locals_ = global_to_local(self.tree, G)
        if not self.root_correction:
            return locals_, None
        contact_op = self.scaled_tree.operator[:, ft.N_SEGMENTS:ft.N_SEGMENTS + ft.B_LEN]
        return locals_, kinematics.positions(G, contact_op)[:, [0, 2]]


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
    for k in range(T):
        if drop is not None and drop[k]:
            yield ft.Measurement()
            continue
        yield ft.Measurement({n: (orient6d[k, SITE_INDEX[n]], trial.site_accels[k, SITE_INDEX[n]])
                              for n in config.imu_sites},
                             trial.contacts[k].astype(np.float64) if config.insoles else None)


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


class StreamIngestor:
    """60 Hz sensor records -> 20 Hz Measurements.

    Accelerations get the centered SMOOTH_WINDOW-frame moving average
    (windows with dropped frames average over what is present); both
    channels are decimated by DECIMATION. Both constants come from
    `datagen`, so live input gets the same filter as the training
    signals, equal within rounding (`np.mean` here, `np.convolve`
    there). A site absent at a decimation instant is dropped from that
    Measurement. A bad sample is a dropout too: a site whose name is not
    in ALL_SITES, whose quaternion norm is not within QUAT_NORM_TOL of 1,
    or whose acceleration has a component that is not finite or exceeds
    MAX_ACCEL in magnitude, is dropped from its record, and so are
    insoles with a value outside {0, 1}; `bad_samples` counts them.
    Records whose timestamp is not finite or not after the last one are
    discarded and counted in `out_of_order`. Output lags input by
    SMOOTH_WINDOW // 2 raw frames. Only the last SMOOTH_WINDOW records
    are held, so memory stays flat over a session of any length.
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
        if not self.last_ms < frame.t_ms < np.inf:  # NaN fails too
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
        sites = {name: (q, a) for name, (q, a) in frame.sites.items()
                 if name in SITE_INDEX and _usable_sample(q, a)}
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
        meas = ft.Measurement(insole_labels=None if ref.insoles is None else np.asarray(ref.insoles, float),
                              t_ms=ref.t_ms)
        for name, (quat, _acc) in ref.sites.items():
            # never empty: the centre record holds the site
            acc_parts = [frames[i - base].sites[name][1] for i in range(lo, hi + 1)
                         if name in frames[i - base].sites]
            # edge replication: extend with boundary values when the window
            # sticks out of the recorded range
            pad_lo = self.half - (center - lo)
            pad_hi = self.half - (hi - center)
            acc_parts = [acc_parts[0]] * pad_lo + acc_parts + [acc_parts[-1]] * pad_hi
            meas.sites[name] = (encode_rot6d(quat_to_rot(np.asarray(quat, float))), np.mean(acc_parts, axis=0))
        return IngestedMeasurement(t_ms=ref.t_ms, measurement=meas)


def _usable_sample(q: np.ndarray, a: np.ndarray) -> bool:
    """True when the norm of q is within QUAT_NORM_TOL of 1 (its square
    within the squared bounds) and every component of a is finite and at
    most MAX_ACCEL in magnitude (NaN fails both comparisons). In Python
    floats: cheaper than numpy calls on 4- and 3-vectors, and a square
    that overflows or underflows raises no warning."""
    return (_QUAT_NORM2_LO <= sum(v * v for v in q.tolist()) <= _QUAT_NORM2_HI
            and all(abs(v) <= MAX_ACCEL for v in a.tolist()))


# -- JSONL wire formats ------------------------------------------------------


def _read_wire(path, fmt: str, header: dict, decode) -> list:
    """The records of a v1 `fmt` JSON-lines file, each passed through
    `decode`, after a header that holds each value of `header` (its rate,
    and the pose stream's segment names); blank lines are skipped. A bad
    header (one that differs from `header` or has a version that is not
    the integer 1 included), line of JSON (one nested past the recursion
    limit or naming a key twice included), field or vector (one holding a
    value that is not a number or an integer too large for a float
    included) raises InferenceError("<path>:<line>: ...")."""
    records, n = [], 0
    with open(path, "rb") as f:
        for n, line in enumerate(f, 1):
            if n > 1 and not line.strip():
                continue
            try:
                rec = parse_json(line)
                if not isinstance(rec, dict):
                    raise ValueError("not a JSON object")
                if n == 1:
                    check_header(rec, fmt, STREAM_VERSION)
                    for key, want in header.items():
                        if rec.get(key) != want:
                            raise ValueError(f"{fmt} {key} must be {reprlib.repr(want)}, "
                                             f"got {reprlib.repr(rec.get(key))}")
                else:
                    records.append(decode(rec))
            except (ValueError, TypeError, AttributeError, OverflowError, RecursionError) as e:
                raise InferenceError(f"{path}:{n}: {e}") from None
    if not n:
        raise InferenceError(f"{path}: empty file, expected a {fmt} header")
    return records


def _field(rec: dict, key: str, shape: tuple[int, ...] = (), where: str = "") -> float | np.ndarray:
    """rec[key] read by `container.number` (a float) for the shape (), else
    by `container.numbers` (a float array of the given shape)."""
    if key not in rec:
        raise ValueError(f"missing field '{where}{key}'")
    what = f"field '{where}{key}'"
    return numbers(rec[key], shape, what) if shape else number(rec[key], what)


def _stream_frame(rec: dict) -> StreamFrame:
    sites = {name: (_field(v, "q", (4,), f"sites.{name}."), _field(v, "a", (3,), f"sites.{name}."))
             for name, v in rec.get("sites", {}).items()}
    return StreamFrame(t_ms=_field(rec, "t_ms"), sites=sites,
                       insoles=None if rec.get("insoles") is None else _field(rec, "insoles", (ft.B_LEN,)))


def parse_stream_file(path) -> list[StreamFrame]:
    return _read_wire(path, STREAM_IN_FORMAT, {"rate_hz": int(RAW_RATE_HZ)}, _stream_frame)


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
    _write_wire(path, {"format": STREAM_IN_FORMAT, "version": STREAM_VERSION, "rate_hz": int(RAW_RATE_HZ)}, ({
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
    frames = []
    T = trial.motion.n_frames
    for k in range(T):
        q = rot_to_quat(trial.site_rotations[k])
        for rep in range(DECIMATION):
            idx = k * DECIMATION + rep
            if drop_ranges and any(a <= idx < b for a, b in drop_ranges):
                frames.append(StreamFrame(t_ms=idx * 1000.0 / RAW_RATE_HZ, sites={}))
                continue
            sites = {
                n: (q[SITE_INDEX[n]], trial.site_accels[k, SITE_INDEX[n]])
                for n in config.imu_sites
            }
            ins = trial.contacts[k].astype(float) if config.insoles else None
            frames.append(StreamFrame(t_ms=idx * 1000.0 / RAW_RATE_HZ, sites=sites, insoles=ins))
    return frames


def write_pose_stream(path, tree: KinematicTree, results: list[StepResult]) -> None:
    _write_wire(path, {"format": STREAM_OUT_FORMAT, "version": STREAM_VERSION,
                       "rate_hz": ft.FRAME_RATE_HZ, "segments": list(tree.names)}, ({
        "t_ms": round(r.t_ms, 3),
        "root": _wire_values(r.pose.root_position, 9),
        "q": _wire_values(rot_to_quat(r.pose.rotations), 9),
        "contact": _wire_values(r.contacts, 6),
        "latency_ms": round(r.latency_ms, 3),
    } for r in results))


def _pose_record(rec: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The values `write_pose_stream` can write: finite, unit quaternions
    within QUAT_NORM_TOL (the squared norm within the squared bounds, as
    in _usable_sample) and contacts in [0, 1] (NaN fails each test; a
    square that overflows is infinite and fails too)."""
    q = _field(rec, "q", (ft.N_SEGMENTS, 4))
    root, contact = _field(rec, "root", (3,)), _field(rec, "contact", (ft.B_LEN,))
    if not np.isfinite(root).all():
        raise ValueError(f"field 'root' is not finite: {root.tolist()}")
    with np.errstate(over="ignore"):
        norm2 = np.square(q).sum(axis=-1)
    if not ((_QUAT_NORM2_LO <= norm2) & (norm2 <= _QUAT_NORM2_HI)).all():
        raise ValueError(f"field 'q' holds a quaternion whose norm is not within {QUAT_NORM_TOL} of 1")
    if not ((0.0 <= contact) & (contact <= 1.0)).all():
        raise ValueError(f"field 'contact' is not in [0, 1]: {contact.tolist()}")
    return quat_to_rot(q), root, contact


def read_pose_stream(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """-> (local rotations (T,24,3,3), root positions (T,3), contacts (T,4))."""
    last_ms = -np.inf

    def decode(rec: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        nonlocal last_ms
        t_ms = _field(rec, "t_ms")
        if not last_ms <= t_ms < np.inf:  # NaN fails too
            raise ValueError(f"field 't_ms' must be finite and not before the previous record's, got {t_ms}")
        last_ms = t_ms
        return _pose_record(rec)

    header = {"rate_hz": int(ft.FRAME_RATE_HZ), "segments": list(kinematics.default_tree().names)}
    records = _read_wire(path, STREAM_OUT_FORMAT, header, decode)
    if not records:
        raise InferenceError(f"{path}: no pose records")
    rots, roots, contacts = zip(*records)
    return np.stack(rots), np.stack(roots), np.stack(contacts)
