"""Feature-space codec between motion and the model's 190-channel frames.

Per-frame layout, fixed and asserted once here, reused everywhere:

    [ R | a | dp | py | b ]
      R : 24 segments x 6   global orientations, 6-DOF encoding,
                            segment order = skeleton file order
      a : 13 sites x 3      site linear accelerations, world frame, m/s^2
      dp: 2                 horizontal (x, z) root position change since
                            the previous frame, meters (frame 0 stores 0)
      py: 1                 root height, meters
      b : 4                 contact labels, heel_l/toe_l/heel_r/toe_r;
                            {0,1} in ground truth, [0,1] for predictions

A window is 61 consecutive frames at 20 Hz plus the subject height
condition. Each step's inpainting mask comes from `apply_observation`:
1 marks a channel frozen during inpainting (every history frame, and
the last frame's channels that a sensor measured this step), 0 a
generated one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .kinematics import KinematicTree, encode_rot6d, decode_rot6d, global_to_local, forward_kinematics

N_SEGMENTS = 24
N_SITES = 13
WINDOW_LEN = 61
FRAME_RATE_HZ = 20.0
SUBJECT_HEIGHT_M = (0.5, 2.75)  # any human subject; scales the skeleton and conditions the model

R_OFF = 0
R_LEN = N_SEGMENTS * 6          # 144
A_OFF = R_OFF + R_LEN           # 144
A_LEN = N_SITES * 3             # 39
DP_OFF = A_OFF + A_LEN          # 183
DP_LEN = 2
PY_OFF = DP_OFF + DP_LEN        # 185
B_OFF = PY_OFF + 1              # 186
B_LEN = 4
FRAME_DIM = B_OFF + B_LEN       # 190

assert FRAME_DIM == 190, "feature layout drifted"
assert (R_LEN, A_LEN, DP_OFF, PY_OFF, B_OFF) == (144, 39, 183, 185, 186)


def layout_hash() -> str:
    desc = f"R@{R_OFF}:{R_LEN};a@{A_OFF}:{A_LEN};dp@{DP_OFF}:{DP_LEN};py@{PY_OFF}:1;b@{B_OFF}:{B_LEN};N={WINDOW_LEN};hz={FRAME_RATE_HZ}"
    return hashlib.sha256(desc.encode()).hexdigest()


def seg_r_slice(seg: int) -> slice:
    return slice(R_OFF + 6 * seg, R_OFF + 6 * (seg + 1))


def site_a_slice(site: int) -> slice:
    return slice(A_OFF + 3 * site, A_OFF + 3 * (site + 1))


class FeatureError(ValueError):
    """Contract violation in feature-space data."""


def check_height(height: float) -> float:
    """height, when it lies in SUBJECT_HEIGHT_M (NaN does not)."""
    lo, hi = SUBJECT_HEIGHT_M
    if not lo <= height <= hi:
        raise FeatureError(f"subject height must be in [{lo}, {hi}] m, got {height}")
    return height


@dataclass(frozen=True)
class SensorConfig:
    """Which of the 13 instrumentable sites carry an IMU, plus insoles."""

    imu_sites: tuple[str, ...] = ()
    insoles: bool = False

    def __post_init__(self):
        if len(set(self.imu_sites)) != len(self.imu_sites):
            raise FeatureError(f"duplicate sites in config: {self.imu_sites}")
        unknown = [n for n in self.imu_sites if n not in ALL_SITES]
        if unknown:
            raise FeatureError(f"unknown sites in config: {unknown}; known: {ALL_SITES}")

    @property
    def n_sensors(self) -> int:
        return len(self.imu_sites) + (1 if self.insoles else 0)

    def label(self) -> str:
        parts = list(self.imu_sites) + (["insoles"] if self.insoles else [])
        return "+".join(parts) if parts else "none"

    @staticmethod
    def parse(text: str) -> "SensorConfig":
        """Parse 'pelvis,head,wrist_l,wrist_r[,insoles]' or 'all13[+insoles]' or 'none'."""
        toks = [t.strip() for t in text.replace("+", ",").split(",") if t.strip()]
        insoles = "insoles" in toks
        toks = [t for t in toks if t != "insoles"]
        if toks == ["none"]:
            toks = []
        if toks == ["all13"]:
            toks = list(ALL_SITES)
        return SensorConfig(imu_sites=tuple(toks), insoles=insoles)


ALL_SITES = (
    "pelvis", "thigh_l", "thigh_r", "shank_l", "shank_r", "foot_l", "foot_r",
    "upper_arm_l", "upper_arm_r", "wrist_l", "wrist_r", "torso", "head",
)

SIX_IMU_SITES = ("pelvis", "head", "wrist_l", "wrist_r", "shank_l", "shank_r")


@dataclass(frozen=True)
class Measurement:
    """One 20 Hz observation: per-site 6-DOF orientation + acceleration.

    Sites not listed are treated as dropped out for this frame;
    `insole_labels` is None when no insoles are worn/received.
    """

    site_orient6d: dict[str, np.ndarray] = field(default_factory=dict)  # (6,)
    site_accel: dict[str, np.ndarray] = field(default_factory=dict)     # (3,)
    insole_labels: np.ndarray | None = None                             # (4,)


def encode_frames(
    tree: KinematicTree,
    rotations: np.ndarray,      # (T, 24, 3, 3) local rotations at 20 Hz
    root_positions: np.ndarray,  # (T, 3)
    site_accels: np.ndarray,     # (T, 13, 3) world frame
    contacts: np.ndarray,        # (T, 4) in {0,1}
) -> np.ndarray:
    """Pack aligned 20 Hz streams into (T, 190) feature frames."""
    T = rotations.shape[0]
    if not (root_positions.shape[0] == site_accels.shape[0] == contacts.shape[0] == T):
        raise FeatureError(
            f"misaligned streams: rot {T}, root {root_positions.shape[0]}, "
            f"accel {site_accels.shape[0]}, contacts {contacts.shape[0]}"
        )
    fk = forward_kinematics(tree, rotations, root_positions)
    frames = np.zeros((T, FRAME_DIM))
    frames[:, R_OFF:R_OFF + R_LEN] = encode_rot6d(fk.globals_).reshape(T, R_LEN)
    frames[:, A_OFF:A_OFF + A_LEN] = site_accels.reshape(T, A_LEN)
    dp = np.zeros((T, 2))
    dp[1:, 0] = np.diff(root_positions[:, 0])
    dp[1:, 1] = np.diff(root_positions[:, 2])
    frames[:, DP_OFF:DP_OFF + DP_LEN] = dp
    frames[:, PY_OFF] = root_positions[:, 1]
    frames[:, B_OFF:B_OFF + B_LEN] = contacts
    return frames


def decode_frames(
    tree: KinematicTree,
    frames: np.ndarray,
    initial_xz: tuple[float, float] = (0.0, 0.0),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unpack (T, 190) frames -> local rotations, root positions, contacts.

    The horizontal root path is the cumulative sum of dp plus initial_xz;
    the true initial offset is unobservable from features.
    """
    frames = np.asarray(frames)
    T = frames.shape[0]
    g6 = frames[:, R_OFF:R_OFF + R_LEN].reshape(T, N_SEGMENTS, 6)
    globals_ = decode_rot6d(g6, strict=False)
    locals_ = global_to_local(tree, globals_)
    root = np.zeros((T, 3))
    path = np.cumsum(frames[:, DP_OFF:DP_OFF + DP_LEN], axis=0)
    root[:, 0] = initial_xz[0] + path[:, 0]
    root[:, 2] = initial_xz[1] + path[:, 1]
    root[:, 1] = frames[:, PY_OFF]
    contacts = frames[:, B_OFF:B_OFF + B_LEN]
    return locals_, root, contacts


def measurement_channels(tree: KinematicTree, meas: Measurement) -> tuple[np.ndarray, np.ndarray]:
    """Expand a Measurement into (values, observed) 190-channel vectors."""
    vals = np.zeros(FRAME_DIM)
    obs = np.zeros(FRAME_DIM)
    site_by_name = {n: i for i, n in enumerate(tree.site_names)}
    for name, r6 in meas.site_orient6d.items():
        if name not in site_by_name:
            raise FeatureError(f"measurement for unknown site {name!r}")
        s = site_by_name[name]
        seg = int(tree.site_segments[s])
        vals[seg_r_slice(seg)] = np.asarray(r6, dtype=np.float64)
        obs[seg_r_slice(seg)] = 1.0
    for name, a in meas.site_accel.items():
        if name not in site_by_name:
            raise FeatureError(f"measurement for unknown site {name!r}")
        s = site_by_name[name]
        vals[site_a_slice(s)] = np.asarray(a, dtype=np.float64)
        obs[site_a_slice(s)] = 1.0
    if meas.insole_labels is not None:
        vals[B_OFF:B_OFF + B_LEN] = np.asarray(meas.insole_labels, dtype=np.float64)
        obs[B_OFF:B_OFF + B_LEN] = 1.0
    return vals, obs


def apply_observation(
    window: np.ndarray,
    meas: Measurement,
    tree: KinematicTree,
    config: SensorConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Write a new observation into the last frame of a (61, 190) window.

    Observed channels take the measured values; everything else in the
    last frame is initialized from the previous frame. Returns the new
    window and the effective (61, 190) inpainting mask for this step
    (base mask minus channels whose sensor dropped out).
    """
    window = np.asarray(window)
    if window.shape != (WINDOW_LEN, FRAME_DIM):
        raise FeatureError(f"window shape {window.shape}")
    allowed = set(config.imu_sites)
    for name in set(meas.site_orient6d) | set(meas.site_accel):
        if name not in allowed:
            raise FeatureError(f"measurement for uninstrumented site {name!r} (config: {config.label()})")
    if meas.insole_labels is not None and not config.insoles:
        raise FeatureError("insole labels supplied but config has no insoles")
    vals, obs = measurement_channels(tree, meas)
    out = window.copy()
    out[-1] = np.where(obs > 0, vals, window[-2])
    mask = np.ones((WINDOW_LEN, FRAME_DIM), dtype=np.float64)
    mask[-1] = obs
    return out, mask


def neutral_frame(tree: KinematicTree, height: float) -> np.ndarray:
    """Cold-start frame: T-pose orientations, zero accel/dp, standing
    root height, all contacts set."""
    from .kinematics import identity_pose, forward_kinematics

    scaled = tree if abs(tree.reference_height - height) < 1e-12 else tree.scaled(height)
    pose = identity_pose(scaled)
    fk = forward_kinematics(scaled, pose.rotations, pose.root_position)
    f = np.zeros(FRAME_DIM)
    f[R_OFF:R_OFF + R_LEN] = encode_rot6d(fk.globals_).reshape(R_LEN)
    f[PY_OFF] = pose.root_position[1]
    f[B_OFF:B_OFF + B_LEN] = 1.0
    return f
