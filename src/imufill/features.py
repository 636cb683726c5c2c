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
condition. `apply_observation` advances a window by one frame and says
which of the new frame's channels a sensor measured this step; every
history frame is known, so those channels are all that inpainting keeps
in the newest frame, and it generates the rest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .kinematics import (ALL_SITES, N_CONTACTS, N_SEGMENTS, N_SITES, SITE_INDEX, KinematicTree, encode_rot6d,
                         forward_kinematics, ground_lift, identity_rotations)

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
B_LEN = N_CONTACTS
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
        unknown = [n for n in self.imu_sites if n not in SITE_INDEX]
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


SIX_IMU_SITES = ("pelvis", "head", "wrist_l", "wrist_r", "shank_l", "shank_r")


@dataclass(frozen=True)
class Measurement:
    """One 20 Hz observation: `sites` maps a site to its (6-DOF orientation, acceleration) pair.

    Sites not listed are treated as dropped out for this frame;
    `insole_labels` is None when no insoles are worn/received. `t_ms` is
    the stream time of the instant, None for an untimed (dataset) one.
    """

    sites: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)  # (6,), (3,)
    insole_labels: np.ndarray | None = None  # (4,)
    t_ms: float | None = None


def encode_frames(
    globals_: np.ndarray,        # (T, 24, 3, 3) world orientations at 20 Hz (`local_to_global`)
    root_positions: np.ndarray,  # (T, 3)
    site_accels: np.ndarray,     # (T, 13, 3) world frame
    contacts: np.ndarray,        # (T, 4) in {0,1}
) -> np.ndarray:
    """Pack aligned 20 Hz streams into (T, 190) feature frames."""
    T = globals_.shape[0]
    if not (root_positions.shape[0] == site_accels.shape[0] == contacts.shape[0] == T):
        raise FeatureError(
            f"misaligned streams: rot {T}, root {root_positions.shape[0]}, "
            f"accel {site_accels.shape[0]}, contacts {contacts.shape[0]}"
        )
    frames = np.zeros((T, FRAME_DIM))
    frames[:, R_OFF:R_OFF + R_LEN] = encode_rot6d(globals_).reshape(T, R_LEN)
    frames[:, A_OFF:A_OFF + A_LEN] = site_accels.reshape(T, A_LEN)
    dp = np.zeros((T, 2))
    dp[1:, 0] = np.diff(root_positions[:, 0])
    dp[1:, 1] = np.diff(root_positions[:, 2])
    frames[:, DP_OFF:DP_OFF + DP_LEN] = dp
    frames[:, PY_OFF] = root_positions[:, 1]
    frames[:, B_OFF:B_OFF + B_LEN] = contacts
    return frames


def measurement_channels(tree: KinematicTree, meas: Measurement) -> tuple[np.ndarray, np.ndarray]:
    """Expand a Measurement into 190-channel values and observed flags (bool)."""
    vals = np.zeros(FRAME_DIM)
    obs = np.zeros(FRAME_DIM, dtype=bool)
    for name, (r6, a) in meas.sites.items():
        if name not in SITE_INDEX:
            raise FeatureError(f"measurement for unknown site {name!r}")
        s = SITE_INDEX[name]
        r, acc = seg_r_slice(int(tree.site_segments[s])), site_a_slice(s)
        vals[r], vals[acc] = r6, a
        obs[r] = obs[acc] = True
    if meas.insole_labels is not None:
        vals[B_OFF:B_OFF + B_LEN] = np.asarray(meas.insole_labels, dtype=np.float64)
        obs[B_OFF:B_OFF + B_LEN] = True
    return vals, obs


def apply_observation(
    window: np.ndarray,
    meas: Measurement,
    tree: KinematicTree,
    config: SensorConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance a (61, 190) window by one frame for a new observation.

    Returns a new window, the input's last 60 frames followed by the new
    frame, and the new frame's observed channels, (190,) bool. Only the
    sensors `config` names are read: other sites, and insoles when it has
    none, are left out as if they had dropped out; a site name outside
    ALL_SITES is a FeatureError. The new frame takes the measured values
    in the observed channels and the previous frame's values elsewhere.
    The input window is not changed.
    """
    window = np.asarray(window)
    if window.shape != (WINDOW_LEN, FRAME_DIM):
        raise FeatureError(f"window shape {window.shape}")
    # an unknown name stays, so that measurement_channels refuses it
    worn = Measurement({n: s for n, s in meas.sites.items() if n in config.imu_sites or n not in SITE_INDEX},
                       meas.insole_labels if config.insoles else None)
    vals, observed = measurement_channels(tree, worn)
    return np.concatenate([window[1:], np.where(observed, vals, window[-1])[None]]), observed


def neutral_frame(tree: KinematicTree) -> tuple[np.ndarray, np.ndarray]:
    """Cold-start frame of a tree scaled to the subject, the T-pose
    standing still at its `ground_lift` height with all contacts set, and
    the T-pose's contact points relative to its root, (4, 3). One forward
    kinematics pass of the T-pose with its root at the origin gives the
    height, the contact points and the frame's orientations, which do not
    depend on where the root is."""
    tpose = forward_kinematics(tree, identity_rotations(tree), np.zeros(3))
    root = np.array([[0.0, ground_lift(tpose), 0.0]])
    frame = encode_frames(tpose.globals_[None], root, np.zeros((1, N_SITES, 3)), np.ones((1, B_LEN)))[0]
    return frame, tpose.contacts
