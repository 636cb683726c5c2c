"""Synthetic training corpora: procedural motions and sensor synthesis.

Motions are generated at 60 Hz, then the sensor pipeline mirrors a live
rig: site accelerations by double differentiation of site positions,
an 11-frame centered moving average (166 ms), and decimation to 20 Hz.
Site orientations are the segments' global orientations, noise-free.
Contact labels threshold contact-point speed at 0.3 m/s (strictly
below = contact).

Generators are deterministic functions of (kind, params, seed). The gait
generator plants the stance foot exactly, with swing velocity ramps
tuned so the 0.3 m/s rule reproduces its stance flags at ordinary
walking speeds (label agreement degrades at sprint-like speeds where
swing return must be violent; see `_swing_profile`). Those stance flags
travel with the motion as `MotionSequence.stance`, through decimation
and the dataset container, as the oracle for the contact labels.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import features as ft
from .container import CheckedReader
from .kinematics import (
    CONTACT_NAMES,
    N_CONTACTS,
    N_SEGMENTS,
    N_SITES,
    KinematicTree,
    default_tree,
    forward_kinematics,
    ground_lift,
    identity_pose,
    identity_rotations,
    local_to_global,
    quat_to_rot,
    rot_to_quat,
    skeleton_hash,
    standing_root_height,
)

DECIMATION = 3  # raw motion and IMU samples per model frame
RAW_RATE_HZ = DECIMATION * ft.FRAME_RATE_HZ  # 60 Hz
SMOOTH_WINDOW = 11  # frames at 60 Hz, centered: 5 past + current + 5 future
CONTACT_SPEED_THRESHOLD = 0.3  # m/s, label = speed strictly below
ENERGY_FLOOR_FRACTION = 0.01   # epsilon = 1% of corpus mean energy
MAX_MASS_KG = 650.0  # any human subject
MIN_DURATION_S = 0.5  # shortest motion `generate_motion` makes
# Longest motion `generate_motion` makes: ten minutes. A motion is built
# whole in memory, at a peak of about 0.4 MB per second of motion (a gait
# trial, measured with tracemalloc), so this caps one motion near 0.25 GB;
# a longer capture is several trials.
MAX_DURATION_S = 600.0

DATASET_MAGIC = b"IMFD"
DATASET_VERSION = 2

MOTION_KINDS = ("gait", "random_smooth", "stationary", "jump")


class GenerationError(ValueError):
    """Invalid generator parameters or malformed input motion."""


@dataclass
class MotionSequence:
    rate: float                 # Hz, RAW_RATE_HZ for raw, FRAME_RATE_HZ after decimation
    rotations: np.ndarray       # (T, 24, 3, 3) local joint rotations
    root_positions: np.ndarray  # (T, 3) world, y up
    height: float               # subject height, m
    mass: float                 # subject mass, kg
    trial_id: str = ""
    stance: np.ndarray | None = None  # (T, 4) uint8 generator stance flags; None for random_smooth

    def __post_init__(self):
        if self.rate not in (RAW_RATE_HZ, ft.FRAME_RATE_HZ):
            raise GenerationError(f"rate must be {RAW_RATE_HZ:g} or {ft.FRAME_RATE_HZ:g} Hz, got {self.rate}")
        lo, hi = ft.SUBJECT_HEIGHT_M
        if not lo <= self.height <= hi:
            raise GenerationError(f"subject height must be in [{lo}, {hi}] m, got {self.height}")
        if not 0.0 < self.mass <= MAX_MASS_KG:
            raise GenerationError(f"subject mass must be in (0, {MAX_MASS_KG}] kg, got {self.mass}")
        if self.rotations.shape[0] < 2:
            raise GenerationError("motion needs at least 2 frames")
        if not (np.isfinite(self.rotations).all() and np.isfinite(self.root_positions).all()):
            raise GenerationError("non-finite values in motion")

    @property
    def n_frames(self) -> int:
        return self.rotations.shape[0]

    @property
    def duration_s(self) -> float:
        return (self.n_frames - 1) / self.rate


@dataclass
class Trial:
    """One 20 Hz dataset record: ground truth plus synthesized signals."""

    motion: MotionSequence          # 20 Hz
    site_rotations: np.ndarray      # (T, 13, 3, 3) synthesized IMU orientations
    site_accels: np.ndarray         # (T, 13, 3) smoothed world accelerations
    contacts: np.ndarray            # (T, 4) uint8

    @property
    def trial_id(self) -> str:
        return self.motion.trial_id

    def features(self, tree: KinematicTree) -> np.ndarray:
        return ft.encode_frames(local_to_global(tree, self.motion.rotations), self.motion.root_positions,
                                self.site_accels, self.contacts.astype(np.float64))


# -- small signal utilities ---------------------------------------------


def moving_average(x: np.ndarray) -> np.ndarray:
    """Centered SMOOTH_WINDOW-frame box filter along axis 0, with edge
    replication; unity gain at DC."""
    half = SMOOTH_WINDOW // 2
    x = np.asarray(x, dtype=np.float64)
    padded = np.concatenate([np.repeat(x[:1], half, axis=0), x, np.repeat(x[-1:], half, axis=0)], axis=0)
    kernel = np.ones(SMOOTH_WINDOW) / SMOOTH_WINDOW
    flat = padded.reshape(padded.shape[0], -1)
    res = np.empty((x.shape[0], flat.shape[1]))
    for j in range(flat.shape[1]):
        res[:, j] = np.convolve(flat[:, j], kernel, mode="valid")
    return res.reshape(x.shape)


def second_central_difference(p: np.ndarray, rate: float) -> np.ndarray:
    """d2p/dt2 along axis 0; endpoints replicate their neighbors."""
    a = np.empty_like(p, dtype=np.float64)
    a[1:-1] = (p[2:] - 2 * p[1:-1] + p[:-2]) * rate * rate
    a[0] = a[1]
    a[-1] = a[-2]
    return a


def central_velocity(p: np.ndarray, rate: float) -> np.ndarray:
    """dp/dt along axis 0 via centered differences, endpoints replicated."""
    v = np.empty(p.shape, dtype=np.float64)
    v[1:-1] = (p[2:] - p[:-2]) * (rate / 2.0)
    v[0] = v[1]
    v[-1] = v[-2]
    return v


# -- procedural motion generators -------------------------------------------


def generate_motion(kind: str, seed: int, duration_s: float = 10.0, height: float = 1.75,
                    mass: float = 70.0, trial_id: str = "", **params) -> MotionSequence:
    """Produce a 60 Hz motion of the requested kind.

    kinds: gait (speed: 0..3 m/s), random_smooth (amplitude: rad),
    stationary, jump (hop_height: 0.05..0.4 m). Deterministic in
    (kind, seed, params). Feet intersect the ground by less than 1 cm.
    Each generator maps (tree scaled to the subject, time base, seed) to
    (local rotations, root positions, stance flags or None).
    """
    if kind not in MOTION_KINDS:
        raise GenerationError(f"unknown motion kind {kind!r}; choose from {MOTION_KINDS}")
    if not MIN_DURATION_S <= duration_s <= MAX_DURATION_S:  # NaN fails too
        raise GenerationError(f"duration must be in [{MIN_DURATION_S}, {MAX_DURATION_S}] s, got {duration_s}")
    if not (1.2 <= height <= 2.2):
        raise GenerationError(f"height out of range: {height}")
    gen = {
        "gait": _generate_gait,
        "random_smooth": _generate_random_smooth,
        "stationary": _generate_stationary,
        "jump": _generate_jump,
    }[kind]
    t = np.arange(int(round(duration_s * RAW_RATE_HZ)) + 1) / RAW_RATE_HZ
    rotations, root, stance = gen(default_tree(height), t, seed, **params)
    return MotionSequence(RAW_RATE_HZ, rotations, root, height, mass, trial_id or f"{kind}-{seed}", stance)


def _generate_stationary(tree, t, seed):
    T = len(t)
    root = np.tile(identity_pose(tree).root_position, (T, 1))  # the T-pose, held still
    return identity_rotations(tree, T), root, np.ones((T, N_CONTACTS), dtype=np.uint8)


def _generate_random_smooth(tree, t, seed, amplitude: float = 0.2):
    if not (0.0 < amplitude <= 0.6):
        raise GenerationError(f"amplitude out of range: {amplitude}")
    rng = np.random.default_rng([seed, 101])
    T = len(t)
    rot = identity_rotations(tree, T)
    for seg in range(1, tree.n_segments):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        angle = np.zeros(T)
        for _ in range(3):
            a = rng.uniform(0.05, 1.0) * amplitude
            f = rng.uniform(0.1, 0.8)
            phi = rng.uniform(0, 2 * np.pi)
            angle += a * np.sin(2 * np.pi * f * t + phi)
        rot[:, seg] = _axis_angle(axis, angle)
    # slow root wander + yaw
    yaw = np.deg2rad(20) * np.sin(2 * np.pi * rng.uniform(0.05, 0.15) * t + rng.uniform(0, 6.28))
    rot[:, 0] = _axis_angle(np.array([0.0, 1.0, 0.0]), yaw)
    root = np.zeros((T, 3))
    for axis_i, amp in ((0, 0.3), (2, 0.3)):
        root[:, axis_i] = amp * np.sin(2 * np.pi * rng.uniform(0.05, 0.25) * t + rng.uniform(0, 6.28))
    root[:, 1] = standing_root_height(tree) + 0.03 * np.sin(2 * np.pi * rng.uniform(0.1, 0.3) * t)
    # lift so the lowest contact point grazes the ground without crossing it
    root[:, 1] += ground_lift(forward_kinematics(tree, rot, root))
    return rot, root, None


def _axis_angle(axis: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rodrigues for a fixed axis and (T,) angles -> (T, 3, 3)."""
    x, y, z = axis
    K = np.array([[0, -z, y], [z, 0, -x], [-y, x, 0]])
    angles = np.atleast_1d(angles)
    s = np.sin(angles)[:, None, None]
    c = np.cos(angles)[:, None, None]
    return np.eye(3)[None] + s * K[None] + (1 - c) * (K @ K)[None]


class _LegIK:
    """Sagittal-plane two-link leg poser for the default topology."""

    def __init__(self, tree: KinematicTree):
        self.tree = tree
        self.l1 = abs(tree.offsets[tree.index("shank_l")][1])  # thigh length
        self.l2 = abs(tree.offsets[tree.index("foot_l")][1])  # shank length

    def pose(self, rot: np.ndarray, side: str, root: np.ndarray, foot_y: np.ndarray, foot_z: np.ndarray) -> None:
        """Set `side`'s thigh, shank and foot rotations in rot (T, 24, 3, 3)
        so its ankle reaches (hip x, foot_y, foot_z) with the foot level.

        World angles theta_thigh, theta_shank run from -y toward +z.
        """
        tree, l1, l2 = self.tree, self.l1, self.l2
        hip = root + tree.offsets[tree.index(f"thigh_{side}")]
        dy, dz = foot_y - hip[:, 1], foot_z - hip[:, 2]
        L = np.hypot(dy, dz)
        L = np.clip(L, abs(l1 - l2) + 1e-6, (l1 + l2) * 0.9999)
        alpha = np.arctan2(dz, -dy)
        cosb = (l1**2 + L**2 - l2**2) / (2 * l1 * L)
        beta = np.arccos(np.clip(cosb, -1, 1))
        cosg = (l1**2 + l2**2 - L**2) / (2 * l1 * l2)
        gamma = np.arccos(np.clip(cosg, -1, 1))
        theta1 = alpha + beta
        theta2 = theta1 - (np.pi - gamma)
        x = np.array([1.0, 0, 0])
        rot[:, tree.index(f"thigh_{side}")] = _axis_angle(x, -theta1)
        rot[:, tree.index(f"shank_{side}")] = _axis_angle(x, theta1 - theta2)
        rot[:, tree.index(f"foot_{side}")] = _axis_angle(x, theta2)


def _swing_profile(tau: float, dist: float, rate: float):
    """Trapezoidal forward profile over swing time tau covering dist.

    The acceleration is tuned so the centered-difference speed estimate
    at 60 Hz stays below the contact threshold on the last stance frame
    and above it from the first full swing frame.
    """
    accel = 54.0  # m/s^2
    n = max(int(round(tau * rate)), 2)
    t = np.arange(n + 1) / rate
    if dist <= 0:
        return t, np.zeros(n + 1)
    # ramp time: dist = v_c * (tau - t_a), v_c = accel * t_a
    disc = tau * tau - 4 * dist / accel
    if disc >= 0:
        t_a = (tau - np.sqrt(disc)) / 2
    else:
        t_a = tau / 2  # triangle profile; violent swing, labels may smear
    v_c = accel * t_a
    s = np.where(
        t < t_a,
        0.5 * accel * t**2,
        np.where(
            t < tau - t_a,
            0.5 * accel * t_a**2 + v_c * (t - t_a),
            dist - 0.5 * accel * np.clip(tau - t, 0, None) ** 2,
        ),
    )
    return t, np.clip(s, 0.0, dist) * (dist / max(s[-1], 1e-12))


def _generate_gait(tree, t, seed, speed: float = 1.2):
    if not (0.0 <= speed <= 3.0):
        raise GenerationError(f"gait speed out of range [0, 3]: {speed}")
    if speed < 0.05:
        return _generate_stationary(tree, t, seed)
    scale = tree.reference_height / 1.75
    duty = 0.6
    stride = float(np.clip(0.5 + 0.5 * speed, 0.4, 1.55 * scale))
    T_c = stride / speed

    T = len(t)
    ik = _LegIK(tree)
    reach = ik.l1 + ik.l2
    ankle_h = 0.07 * scale
    excursion = stride * duty / 2 + 0.06
    drop = np.sqrt(max((0.995 * reach) ** 2 - excursion**2, (0.45 * reach) ** 2))
    hip_y = ankle_h + drop
    root_y0 = hip_y + 0.07 * scale  # hip joints sit 0.07*scale below the root

    root = np.zeros((T, 3))
    root[:, 2] = speed * t
    root[:, 1] = root_y0 + 0.012 * np.cos(4 * np.pi * t / T_c)

    rot = identity_rotations(tree, T)
    stance = np.zeros((T, N_CONTACTS), dtype=np.uint8)

    swing_tau = (1 - duty) * T_c
    for side, phase0 in (("l", 0.0), ("r", 0.5)):
        cycle_pos = (t / T_c + phase0) % 1.0
        cycle_idx = np.floor(t / T_c + phase0).astype(int)
        plant_z = (cycle_idx - phase0) * stride + stride * duty / 2
        in_stance = cycle_pos < duty
        foot_z = np.where(in_stance, plant_z, 0.0)
        foot_y = np.full(T, ankle_h)
        sw = ~in_stance
        if sw.any():
            u = (cycle_pos[sw] - duty) / (1 - duty)
            tt, prof = _swing_profile(swing_tau, stride, RAW_RATE_HZ)
            z_local = np.interp(u * swing_tau, tt, prof)
            foot_z[sw] = plant_z[sw] + z_local
            lift = 0.05 * scale * np.sin(np.pi * np.clip((z_local / stride), 0, 1)) ** 1.0
            foot_y[sw] = ankle_h + lift
        ik.pose(rot, side, root, foot_y, foot_z)
        stance[:, [CONTACT_NAMES.index(f"heel_{side}"), CONTACT_NAMES.index(f"toe_{side}")]] = in_stance[:, None]
    # gentle anti-phase arm swing
    arm = np.deg2rad(14) * np.sin(2 * np.pi * t / T_c)
    for side, sgn in (("l", 1.0), ("r", -1.0)):
        i_ua = tree.index(f"upper_arm_{side}")
        i_fa = tree.index(f"forearm_{side}")
        rot[:, i_ua] = _axis_angle(np.array([1.0, 0, 0]), sgn * arm)
        rot[:, i_fa] = _axis_angle(np.array([1.0, 0, 0]), np.full(T, -0.25))
    return rot, root, stance


def _generate_jump(tree, t, seed, hop_height: float = 0.18):
    if not (0.05 <= hop_height <= 0.4):
        raise GenerationError(f"hop height out of range [0.05, 0.4]: {hop_height}")
    hop_length = 0.3  # m forward per hop
    scale = tree.reference_height / 1.75
    g = 9.81
    T = len(t)
    v_launch = np.sqrt(2 * g * hop_height)
    t_flight = 2 * v_launch / g
    t_crouch, t_push, t_land, t_pause = 0.30, 0.18, 0.25, 0.4
    T_cyc = t_crouch + t_push + t_flight + t_land + t_pause
    v_h = hop_length / t_flight

    ankle_h = 0.07 * scale
    ik = _LegIK(tree)
    stand_drop = 0.97 * (ik.l1 + ik.l2)
    crouch = 0.18 * scale
    root_y0 = ankle_h + stand_drop + 0.07 * scale

    root = np.zeros((T, 3))
    rot = identity_rotations(tree, T)
    stance = np.zeros((T, N_CONTACTS), dtype=np.uint8)

    cyc = np.floor(t / T_cyc).astype(int)
    u = t - cyc * T_cyc
    base_z = cyc * hop_length
    y = np.full(T, root_y0)
    z = base_z.astype(np.float64)
    grounded = np.ones(T, dtype=bool)

    ph_crouch = u < t_crouch
    y[ph_crouch] = root_y0 - crouch * 0.5 * (1 - np.cos(np.pi * u[ph_crouch] / t_crouch))
    ph_push = (u >= t_crouch) & (u < t_crouch + t_push)
    up = (u[ph_push] - t_crouch) / t_push
    y[ph_push] = root_y0 - crouch * 0.5 * (1 + np.cos(np.pi * up))
    ph_fly = (u >= t_crouch + t_push) & (u < t_crouch + t_push + t_flight)
    tf = u[ph_fly] - t_crouch - t_push
    y[ph_fly] = root_y0 + v_launch * tf - 0.5 * g * tf * tf
    z[ph_fly] = base_z[ph_fly] + v_h * tf
    grounded[ph_fly] = False
    ph_land = (u >= t_crouch + t_push + t_flight) & (u < T_cyc - t_pause)
    ul = (u[ph_land] - t_crouch - t_push - t_flight) / t_land
    y[ph_land] = root_y0 - crouch * 0.6 * np.sin(np.pi * ul)
    z[ph_land] = base_z[ph_land] + hop_length
    z[u >= T_cyc - t_pause] = base_z[u >= T_cyc - t_pause] + hop_length

    root[:, 1] = y
    root[:, 2] = z
    # feet: planted under the hips while grounded, tucked during flight
    foot_z = np.where(grounded, np.where(u < t_crouch + t_push, base_z, base_z + hop_length), z)
    foot_y = np.where(grounded, ankle_h, ankle_h + (y - root_y0) + 0.04)
    for side in ("l", "r"):
        ik.pose(rot, side, root, foot_y, foot_z)
    stance[grounded] = 1
    return rot, root, stance


# -- sensor synthesis ----------------------------------------------------


def synthesize_imu(motion: MotionSequence, tree: KinematicTree,
                   noise_std: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Site orientations, smoothed accelerations and contact labels at
    20 Hz, from one forward-kinematics pass over the 60 Hz motion.

    Acceleration: second central difference of 60 Hz site positions,
    11-frame centered moving average, then every-3rd-frame decimation.
    Kinematic acceleration only (no gravity term); the optional Gaussian
    noise is seeded by the trial id. Orientations (global segment
    orientations) and contact labels (`labels_from_speeds`) are taken at
    the decimation instants.
    """
    if motion.rate != RAW_RATE_HZ:
        raise GenerationError(f"synthesize_imu expects 60 Hz input, got {motion.rate}")
    if motion.n_frames < 13:
        raise GenerationError(f"motion too short to synthesize: {motion.n_frames} frames")
    fk = forward_kinematics(tree.scaled(motion.height), motion.rotations, motion.root_positions)
    acc = moving_average(second_central_difference(fk.sites, RAW_RATE_HZ))
    if noise_std > 0:
        rng = np.random.default_rng([_stable_seed(motion.trial_id), 303])
        acc = acc + rng.normal(0.0, noise_std, size=acc.shape)
    speeds = np.linalg.norm(central_velocity(fk.contacts, RAW_RATE_HZ), axis=-1)  # (T, 4)
    idx = np.arange(0, motion.n_frames, DECIMATION)
    return fk.globals_[idx][:, tree.site_segments], acc[idx], labels_from_speeds(speeds[idx])


def labels_from_speeds(speeds: np.ndarray) -> np.ndarray:
    return (speeds < CONTACT_SPEED_THRESHOLD).astype(np.uint8)


def decimate_motion(motion: MotionSequence) -> MotionSequence:
    if motion.rate != RAW_RATE_HZ:
        raise GenerationError("decimate_motion expects 60 Hz input")
    idx = np.arange(0, motion.n_frames, DECIMATION)
    return MotionSequence(
        rate=ft.FRAME_RATE_HZ,
        rotations=motion.rotations[idx].copy(),
        root_positions=motion.root_positions[idx].copy(),
        height=motion.height,
        mass=motion.mass,
        trial_id=motion.trial_id,
        stance=None if motion.stance is None else motion.stance[idx],
    )


def _stable_seed(text: str) -> int:
    import hashlib

    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little")


def make_trial(motion60: MotionSequence, tree: KinematicTree, noise_std: float = 0.0) -> Trial:
    """Run the full 60 Hz -> 20 Hz synthesis pipeline for one motion."""
    orient, accel, contacts = synthesize_imu(motion60, tree, noise_std=noise_std)
    return Trial(
        motion=decimate_motion(motion60),
        site_rotations=orient,
        site_accels=accel,
        contacts=contacts,
    )


# -- energy-weighted sampling -------------------------------------------


def mean_kinetic_energy(motion: MotionSequence, tree: KinematicTree) -> float:
    """Mean over frames of sum_segments 0.5 m |dCOM/dt|^2, in joules; a
    centre of mass lies on its segment at half its children's mean offset."""
    scaled = tree.scaled(motion.height)
    fk = forward_kinematics(scaled, motion.rotations, motion.root_positions)
    children = scaled.parents[1:]
    com_offsets = np.zeros_like(scaled.offsets)
    np.add.at(com_offsets, children, scaled.offsets[1:])
    com_offsets *= 0.5 / np.maximum(np.bincount(children, minlength=scaled.n_segments), 1)[:, None]
    v = central_velocity(fk.joints + (fk.globals_ @ com_offsets[:, :, None])[..., 0], motion.rate)
    masses = scaled.masses(motion.mass)
    e = 0.5 * (masses[None, :] * (v**2).sum(axis=-1)).sum(axis=-1)
    return float(e.mean())


def compute_trial_weights(trials: list[Trial], tree: KinematicTree) -> np.ndarray:
    """Sampling probabilities of the trials, in order, proportional to
    (energy + eps), eps = 1% of their mean energy; a zero-energy corpus
    falls back to uniform. Only reads the trials (`corpus_sampler` calls it)."""
    if not trials:
        raise GenerationError("empty corpus")
    energies = np.array([mean_kinetic_energy(tr.motion, tree) for tr in trials])
    eps = ENERGY_FLOOR_FRACTION * energies.mean()
    raw = energies + eps
    if raw.sum() <= 0:
        return np.full(len(trials), 1.0 / len(trials))
    return raw / raw.sum()


def holds_window(trial: Trial) -> bool:
    """Whether a trial is long enough to take a feature window from: the
    one test of the training sampler, the holdout windows and the count
    of skipped trials (`diffusion.corpus_sampler`, `holdout_windows`)."""
    return trial.motion.n_frames >= ft.WINDOW_LEN


def generate_corpus(tree: KinematicTree, n_trials: int = 20, seconds: float = 10.0, seed: int = 0,
                    kinds: tuple[str, ...] = MOTION_KINDS, noise_std: float = 0.0) -> list[Trial]:
    """Deterministic mixed corpus; trial i is generated from (seed, i)."""
    trials = []
    rng = np.random.default_rng([seed, 505])
    for i in range(n_trials):
        kind = kinds[i % len(kinds)]
        params = {}
        if kind == "gait":
            params["speed"] = float(rng.uniform(0.6, 1.6))
        elif kind == "jump":
            params["hop_height"] = float(rng.uniform(0.1, 0.25))
        elif kind == "random_smooth":
            params["amplitude"] = float(rng.uniform(0.1, 0.3))
        height = float(rng.uniform(1.55, 1.95))
        mass = float(rng.uniform(55, 95))
        m = generate_motion(kind, seed=seed * 100_003 + i, duration_s=seconds,
                            height=height, mass=mass, trial_id=f"{kind}-{i:03d}", **params)
        trials.append(make_trial(m, tree, noise_std=noise_std))
    return trials


# -- dataset container ------------------------------------------------------


def save_dataset(trials: list[Trial], tree: KinematicTree, path: str | Path) -> None:
    """Binary container of recorded data only: magic, version, trial count,
    skeleton hash, then per trial: id length and id, metadata `<ddd I B`
    (rate, height, mass, frame count, has-stance byte), raw float64 arrays
    (rotations as wxyz quaternions) and uint8 contacts and stance flags,
    in declared order. Sampling weights are not stored:
    `diffusion.corpus_sampler` makes them."""
    with open(path, "wb") as f:
        f.write(DATASET_MAGIC)
        f.write(struct.pack("<I", DATASET_VERSION))
        f.write(struct.pack("<I", len(trials)))
        f.write(skeleton_hash(tree).encode())  # 64 ascii chars
        for tr in trials:
            m = tr.motion
            tid = m.trial_id.encode()
            f.write(struct.pack("<I", len(tid)))
            f.write(tid)
            f.write(struct.pack("<ddd I B", m.rate, m.height, m.mass, m.n_frames, 0 if m.stance is None else 1))
            f.write(rot_to_quat(m.rotations).tobytes())
            f.write(m.root_positions.astype(np.float64).tobytes())
            f.write(rot_to_quat(tr.site_rotations).tobytes())
            f.write(tr.site_accels.astype(np.float64).tobytes())
            f.write(tr.contacts.astype(np.uint8).tobytes())
            if m.stance is not None:
                f.write(m.stance.astype(np.uint8).tobytes())


class DatasetError(ValueError):
    pass


def load_dataset(path: str | Path, tree: KinematicTree) -> list[Trial]:
    """Reads what save_dataset wrote; raises DatasetError on a file that
    is not a dataset of version DATASET_VERSION (`datagen` makes one
    again), was made for another skeleton, holds a trial that is not at
    FRAME_RATE_HZ, or is corrupt (naming the trial where it can)."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != DATASET_MAGIC:
            raise DatasetError(f"not a dataset file (magic {magic!r})")
        r = CheckedReader(f, DatasetError, "dataset")
        (version,) = r.unpack("<I", "version")
        if version != DATASET_VERSION:
            raise DatasetError(f"unsupported dataset version {version}")
        (n_trials,) = r.unpack("<I", "trial count")
        if r.text(64, "skeleton hash") != skeleton_hash(tree):
            raise DatasetError("dataset was generated for a different skeleton")
        trials = []
        for k in range(n_trials):
            (id_len,) = r.unpack("<I", f"trial {k} id")
            tid = r.text(id_len, f"trial {k} id")
            rate, height, mass, T, has_stance = r.unpack("<ddd I B", f"{tid} metadata")
            if rate != ft.FRAME_RATE_HZ:
                raise DatasetError(f"{tid}: a dataset trial is {ft.FRAME_RATE_HZ:g} Hz, got rate {rate:g}")
            quats = r.array((T, N_SEGMENTS, 4), np.float64, f"{tid} rotations")
            root = r.array((T, 3), np.float64, f"{tid} root positions")
            site_q = r.array((T, N_SITES, 4), np.float64, f"{tid} site rotations")
            accel = r.array((T, N_SITES, 3), np.float64, f"{tid} site accelerations")
            contacts = r.array((T, N_CONTACTS), np.uint8, f"{tid} contacts")
            stance = r.array((T, N_CONTACTS), np.uint8, f"{tid} stance flags") if has_stance else None
            _check_unit(quats, f"{tid} rotations")
            _check_unit(site_q, f"{tid} site rotations")
            if not np.isfinite(accel).all():
                raise DatasetError(f"{tid}: non-finite site accelerations")
            for flags, what in ((contacts, "contact labels"), (stance, "stance flags")):
                if flags is not None and (flags > 1).any():
                    raise DatasetError(f"{tid}: {what} must be 0 or 1")
            try:
                motion = MotionSequence(rate, quat_to_rot(quats), root, height, mass, tid, stance)
            except GenerationError as e:
                raise DatasetError(f"{tid}: {e}") from None
            trials.append(Trial(
                motion=motion,
                site_rotations=quat_to_rot(site_q),
                site_accels=accel,
                contacts=contacts,
            ))
        return trials


def _check_unit(quats: np.ndarray, what: str) -> None:
    """DatasetError unless every row is a unit quaternion: each component
    within 1 + 1e-6 in magnitude (NaN is not), checked first so that the
    squared norm cannot overflow, and that norm within 1e-6 of 1."""
    if not ((np.abs(quats) <= 1.0 + 1e-6).all() and (np.abs((quats * quats).sum(-1) - 1.0) <= 1e-6).all()):
        raise DatasetError(f"corrupt dataset: {what} are not unit quaternions")


def export_dataset_text(trials: list[Trial], out_dir: str | Path) -> None:
    """Lossless (%.17g) text mirror of the container, for debugging; a
    motion's stance flags go to stance.txt, written only when it has them
    (meta.json's has_stance)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for tr in trials:
        d = out / tr.trial_id
        d.mkdir(exist_ok=True)
        m = tr.motion
        meta = {"trial_id": m.trial_id, "rate_hz": m.rate, "height_m": m.height,
                "mass_kg": m.mass, "n_frames": m.n_frames, "has_stance": m.stance is not None}
        (d / "meta.json").write_text(json.dumps(meta, indent=1))
        np.savetxt(d / "local_quat_wxyz.txt", rot_to_quat(m.rotations).reshape(m.n_frames, -1), fmt="%.17g")
        np.savetxt(d / "root_xyz.txt", m.root_positions, fmt="%.17g")
        np.savetxt(d / "site_quat_wxyz.txt", rot_to_quat(tr.site_rotations).reshape(m.n_frames, -1), fmt="%.17g")
        np.savetxt(d / "site_accel.txt", tr.site_accels.reshape(m.n_frames, -1), fmt="%.17g")
        np.savetxt(d / "contacts.txt", tr.contacts, fmt="%d")
        if m.stance is not None:
            np.savetxt(d / "stance.txt", m.stance, fmt="%d")
