"""Kinematic tree, rotation representations, and forward kinematics.

The default skeleton is a 24-segment rigid body in the SMPL topology with
13 instrumentable sensor sites (ALL_SITES) and 4 foot contact points
(CONTACT_NAMES, heel and toe per side), loaded from a versioned JSON file
whose values `container` reads and `KinematicTree.validate` checks. Everything here is a pure
function over immutable trees and is batched over arbitrary leading axes:
rotations are (..., 24, 3, 3), positions (..., 3). +y is up; the ground
plane is y = 0.

Body points have one definition, `position_operator`: each joint,
contact point or site relative to the root is a column of a constant
matrix that multiplies the global orientations (`positions`), in
`forward_kinematics`, the training loss and a session step alike.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from .container import check_header, exactly, number, numbers, parse_json

SKELETON_FORMAT = "imufill-skeleton"
SKELETON_VERSION = 1
N_SEGMENTS = 24
# The instrumentable sites, in skeleton file order: dataset site arrays and
# the feature layout's acceleration channels are indexed by SITE_INDEX.
ALL_SITES = (
    "pelvis", "thigh_l", "thigh_r", "shank_l", "shank_r", "foot_l", "foot_r",
    "upper_arm_l", "upper_arm_r", "wrist_l", "wrist_r", "torso", "head",
)
N_SITES = len(ALL_SITES)
SITE_INDEX = {name: i for i, name in enumerate(ALL_SITES)}
# The foot contact points, in skeleton file order: the insole wire order,
# the feature layout's contact channels and the generators' stance columns.
CONTACT_NAMES = ("heel_l", "toe_l", "heel_r", "toe_r")
N_CONTACTS = len(CONTACT_NAMES)
GROUND_CLEARANCE_M = 0.005  # height of the lowest contact point of a standing or grounded pose
_ROT6D_EPS = 1e-8  # floor of a column norm in decode_rot6d


class SkeletonError(ValueError):
    """Skeleton file is malformed or violates tree invariants."""


@dataclass(frozen=True)
class KinematicTree:
    names: tuple[str, ...]
    parents: np.ndarray          # (S,) int, parents[root] == -1
    offsets: np.ndarray          # (S, 3) meters, parent frame
    mass_fractions: np.ndarray   # (S,), sums to 1
    site_names: tuple[str, ...]
    site_segments: np.ndarray    # (13,) int
    site_offsets: np.ndarray     # (13, 3) meters, segment frame
    contact_names: tuple[str, ...]
    contact_segments: np.ndarray  # (4,) int
    contact_offsets: np.ndarray   # (4, 3)
    reference_height: float = 1.75

    @property
    def n_segments(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def scaled(self, height: float) -> "KinematicTree":
        """Linearly scale all offsets to a subject of the given height."""
        s = float(height) / self.reference_height
        return replace(
            self,
            offsets=self.offsets * s,
            site_offsets=self.site_offsets * s,
            contact_offsets=self.contact_offsets * s,
            reference_height=float(height),
        )

    @cached_property
    def operator(self) -> np.ndarray:
        """`position_operator(self)`, built once per tree, read-only."""
        op = position_operator(self)
        op.flags.writeable = False
        return op

    def masses(self, subject_mass: float) -> np.ndarray:
        return self.mass_fractions * float(subject_mass)

    def validate(self) -> None:
        p = self.parents
        if (p == -1).sum() != 1 or p[0] != -1:
            raise SkeletonError("expected exactly one root at index 0")
        if not all(0 <= p[i] < i for i in range(1, len(p))):
            raise SkeletonError("segments must be topologically ordered (0 <= parent < child)")
        if len(p) != N_SEGMENTS:
            raise SkeletonError(f"expected {N_SEGMENTS} segments, got {len(p)}")
        if self.site_names != ALL_SITES:
            raise SkeletonError(f"expected the sites {', '.join(ALL_SITES)} in that order, "
                                f"got {', '.join(self.site_names)}")
        if self.contact_names != CONTACT_NAMES:
            raise SkeletonError(f"expected the contact points {', '.join(CONTACT_NAMES)} in that order, "
                                f"got {', '.join(self.contact_names)}")
        if not all(np.isfinite(a).all() for a in (self.offsets, self.site_offsets, self.contact_offsets)):
            raise SkeletonError("offsets must be finite")
        if not 0.0 < self.reference_height < np.inf:
            raise SkeletonError(f"reference height must be finite and positive, got {self.reference_height}")
        if not (self.mass_fractions > 0).all():  # NaN fails
            raise SkeletonError("mass fractions must be positive")
        if not abs(self.mass_fractions.sum() - 1.0) <= 1e-6:
            raise SkeletonError(f"mass fractions sum to {self.mass_fractions.sum():.6f}, expected 1")


@dataclass(frozen=True)
class Pose:
    """Local joint rotations (index 0 = root orientation) plus root position."""

    rotations: np.ndarray      # (S, 3, 3) local; [0] is the root's world orientation
    root_position: np.ndarray  # (3,) meters, world frame


def load_skeleton(path: str | Path) -> KinematicTree:
    """The tree of a skeleton file; SkeletonError for a file that is not
    JSON or not a well-formed skeleton."""
    with open(path, "rb") as f:
        try:
            doc = parse_json(f.read())
        except (ValueError, RecursionError) as e:  # bad JSON or UTF-8, a repeated key, nested too deeply
            raise SkeletonError(f"not JSON: {e}") from None
    return _tree_from_doc(doc)


def _tree_from_doc(doc: dict) -> KinematicTree:
    if not isinstance(doc, dict):
        raise SkeletonError(f"not a skeleton file (top level is a {type(doc).__name__})")
    try:
        check_header(doc, SKELETON_FORMAT, SKELETON_VERSION)
        segs = doc["segments"]
        names = tuple(exactly(str, s["name"], "segment name") for s in segs)
        by_name = {n: i for i, n in enumerate(names)}

        def points(key: str, what: str) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
            pts = doc[key]
            return (tuple(exactly(str, p["name"], f"{what} name") for p in pts),
                    np.array([by_name[p["segment"]] for p in pts], dtype=np.int64),
                    numbers([p["offset"] for p in pts], (len(pts), 3), f"{what} offsets"))

        site_names, site_segments, site_offsets = points("sites", "site")
        contact_names, contact_segments, contact_offsets = points("contact_points", "contact point")
        tree = KinematicTree(
            names=names,
            parents=np.array([exactly(int, s["parent"], "segment parent") for s in segs], dtype=np.int64),
            offsets=numbers([s["offset"] for s in segs], (len(segs), 3), "segment offsets"),
            mass_fractions=numbers([s["mass_fraction"] for s in segs], (len(segs),), "mass fractions"),
            site_names=site_names,
            site_segments=site_segments,
            site_offsets=site_offsets,
            contact_names=contact_names,
            contact_segments=contact_segments,
            contact_offsets=contact_offsets,
            reference_height=number(doc["reference_height_m"], "reference height"),
        )
    except KeyError as e:
        raise SkeletonError(f"missing field or unknown segment {e}") from None
    except (TypeError, ValueError, OverflowError) as e:  # a wrong type or size, or a number out of range
        raise SkeletonError(f"malformed skeleton: {e}") from None
    if len(by_name) != len(names):
        raise SkeletonError("duplicate segment names")
    tree.validate()
    return tree


def default_tree(height: float | None = None) -> KinematicTree:
    with resources.files("imufill.data").joinpath("skeleton_default24.json").open() as f:
        tree = _tree_from_doc(parse_json(f.read()))
    return tree if height is None else tree.scaled(height)


def skeleton_hash(tree: KinematicTree) -> str:
    """Stable digest of the tree's geometry, used to pin checkpoints."""
    blob = json.dumps(
        {
            "names": tree.names,
            "parents": tree.parents.tolist(),
            "offsets": np.round(tree.offsets, 12).tolist(),
            "mass_fractions": np.round(tree.mass_fractions, 12).tolist(),
            "site_segments": tree.site_segments.tolist(),
            "site_offsets": np.round(tree.site_offsets, 12).tolist(),
            "contact_segments": tree.contact_segments.tolist(),
            "contact_offsets": np.round(tree.contact_offsets, 12).tolist(),
            "reference_height": round(tree.reference_height, 12),
        },
        sort_keys=True,
    ).encode()
    return hashlib.sha256(blob).hexdigest()


# -- 6-DOF rotation representation -----------------------------------------


def encode_rot6d(R: np.ndarray) -> np.ndarray:
    """First two columns of R, column-major: (..., 3, 3) -> (..., 6)."""
    R = np.asarray(R)
    return np.concatenate([R[..., :, 0], R[..., :, 1]], axis=-1)


def decode_rot6d(r6: np.ndarray) -> np.ndarray:
    """Gram-Schmidt the two encoded columns back into a rotation matrix.

    Output is orthonormal with det +1 for any input whose columns are
    neither near zero nor near parallel; it is what decodes the
    denoiser's raw output, so degenerate input is not rejected: each
    column norm is floored at 1e-8, which keeps the result finite.
    """
    r6 = np.asarray(r6, dtype=np.float64)
    x1, y1, z1, x2, y2, z2 = np.moveaxis(r6, -1, 0)
    R = np.empty(r6.shape[:-1] + (3, 3))
    b1, b2 = R[..., 0], R[..., 1]  # the first two columns, (..., 3) views
    np.divide(r6[..., :3], np.maximum(np.sqrt(x1 * x1 + y1 * y1 + z1 * z1), _ROT6D_EPS)[..., None], out=b1)
    bx, by, bz = R[..., 0, 0], R[..., 1, 0], R[..., 2, 0]
    np.subtract(r6[..., 3:], (bx * x2 + by * y2 + bz * z2)[..., None] * b1, out=b2)
    cx, cy, cz = R[..., 0, 1], R[..., 1, 1], R[..., 2, 1]
    np.divide(b2, np.maximum(np.sqrt(cx * cx + cy * cy + cz * cz), _ROT6D_EPS)[..., None], out=b2)
    # the third column, b1 x b2
    np.subtract(by * cz, bz * cy, out=R[..., 0, 2])
    np.subtract(bz * cx, bx * cz, out=R[..., 1, 2])
    np.subtract(bx * cy, by * cx, out=R[..., 2, 2])
    return R


# -- quaternions (wxyz) ---------------------------------------------------


def quat_to_rot(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    R = np.empty(q.shape[:-1] + (3, 3))
    R[..., 0, 0] = 1 - 2 * (y * y + z * z)
    R[..., 0, 1] = 2 * (x * y - w * z)
    R[..., 0, 2] = 2 * (x * z + w * y)
    R[..., 1, 0] = 2 * (x * y + w * z)
    R[..., 1, 1] = 1 - 2 * (x * x + z * z)
    R[..., 1, 2] = 2 * (y * z - w * x)
    R[..., 2, 0] = 2 * (x * z - w * y)
    R[..., 2, 1] = 2 * (y * z + w * x)
    R[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return R


# Entries of a row-major 3x3 matrix that rot_to_quat gathers in one pass:
# [0:3] m21 m02 m10 and [6:9] m12 m20 m01 (differences), [3:6] m01 m02 m12
# and [9:12] m10 m20 m21 (sums), [12:15] the diagonal, [15:18] and [18:21]
# the other two diagonal entries of each largest-diagonal branch.
_QUAT_GATHER = np.array([7, 2, 3, 1, 2, 5, 5, 6, 1, 3, 6, 7, 0, 4, 8, 4, 0, 0, 8, 8, 4])
# Per branch, the (w, x, y, z) sources among [differences, sums, 0.25 s].
_QUAT_COLS = np.array([[6, 0, 1, 2], [0, 6, 3, 4], [1, 3, 6, 5], [2, 4, 5, 6]])


def rot_to_quat(R: np.ndarray) -> np.ndarray:
    """Rotation matrix to unit quaternion (wxyz), w >= 0.

    Each matrix takes the branch trace > 0 (0), else that of its largest
    diagonal entry (1-3, first strict maximum), with the classic
    per-branch formulas, evaluated for the whole batch at once."""
    R = np.asarray(R, dtype=np.float64)
    batch = R.shape[:-2]
    g = R.reshape(-1, 9)[:, _QUAT_GATHER]
    n = len(g)
    d0, d1, d2 = g[:, 12], g[:, 13], g[:, 14]
    t = g[:, 12:15].sum(axis=1)
    branch = 3 - (d1 > d2)
    branch[(d0 > d1) & (d0 > d2)] = 1
    branch[t > 0] = 0
    radicand = np.empty((n, 4))
    np.add(t, 1.0, out=radicand[:, 0])
    radicand[:, 1:] = 1.0 + g[:, 12:15] - g[:, 15:18] - g[:, 18:21]
    rows = np.arange(n)
    s = np.sqrt(radicand[rows, branch]) * 2
    v = np.zeros((n, 7))
    np.subtract(g[:, 0:3], g[:, 6:9], out=v[:, 0:3])
    np.add(g[:, 3:6], g[:, 9:12], out=v[:, 3:6])
    cols = _QUAT_COLS[branch]
    q = v[rows[:, None], cols] / s[:, None]
    q[cols == 6] = 0.25 * s
    q[q[:, 0] < 0] *= -1
    return q.reshape(batch + (4,))


def rotation_about(axis: str, degrees: float) -> np.ndarray:
    a = np.deg2rad(degrees)
    c, s = np.cos(a), np.sin(a)
    if axis == "x":
        return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=np.float64)
    if axis == "y":
        return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=np.float64)
    if axis == "z":
        return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=np.float64)
    raise ValueError(f"unknown axis {axis!r}")


# -- forward kinematics ------------------------------------------------------


@dataclass(frozen=True)
class FKResult:
    globals_: np.ndarray    # (..., S, 3, 3) world-frame segment orientations
    joints: np.ndarray      # (..., S, 3) world-frame joint (segment origin) positions
    sites: np.ndarray       # (..., 13, 3)
    contacts: np.ndarray    # (..., 4, 3)


def forward_kinematics(tree: KinematicTree, rotations: np.ndarray, root_position: np.ndarray) -> FKResult:
    """Propagate local rotations through the tree: the global orientations
    (`local_to_global`), then every joint, contact point and site as one
    product of them with the tree's operator (`positions`), plus the root.

    rotations: (..., S, 3, 3) local joint rotations, [.., 0, :, :] being
    the root's world orientation; root_position: (..., 3).
    """
    rotations = np.asarray(rotations, dtype=np.float64)
    S, C = tree.n_segments, len(tree.contact_segments)
    if rotations.shape[-3:] != (S, 3, 3):
        raise SkeletonError(f"pose has {rotations.shape} rotations, tree needs (..., {S}, 3, 3)")
    G = local_to_global(tree, rotations)
    P = positions(G, tree.operator) + np.asarray(root_position, dtype=np.float64)[..., None, :]
    return FKResult(globals_=G, joints=P[..., :S, :], sites=P[..., S + C:, :], contacts=P[..., S:S + C, :])


def position_operator(tree: KinematicTree) -> np.ndarray:
    """The (3S, S + C + N) matrix op that maps a pose's global
    orientations, laid out as G'[r, 3k + c] = G_k[r, c], to its
    root-relative positions (G' @ op).T: S joints, then C contact points,
    then N sites. Joint i's column holds, in rows 3k..3k+2, the offset of
    the child of k on the path from the root to i; a contact point's or
    a site's column is its segment's plus its offset in that segment's
    rows. Each entry is one offset component, so the operator of
    `tree.scaled(h)` is this one times h / reference height exactly.
    It is built as (S + C + N, S, 3), whole rows at a time, transposed."""
    bases = np.concatenate([tree.parents, tree.contact_segments, tree.site_segments])
    offsets = np.concatenate([tree.offsets, tree.contact_offsets, tree.site_offsets])
    op = np.zeros((len(bases), tree.n_segments, 3))
    for j in range(1, len(bases)):
        op[j] = op[bases[j]]
        op[j, bases[j]] = offsets[j]
    return op.reshape(len(bases), -1).T


def positions(globals_: np.ndarray, op: np.ndarray) -> np.ndarray:
    """Root-relative positions (..., P, 3) of the P points of operator
    columns op (3S, P), from global orientations (..., S, 3, 3)."""
    rows = np.swapaxes(globals_, -3, -2).reshape(-1, op.shape[0])
    return np.swapaxes((rows @ op).reshape(globals_.shape[:-3] + (3, op.shape[1])), -1, -2)


def global_to_local(tree: KinematicTree, globals_: np.ndarray) -> np.ndarray:
    """Invert the orientation accumulation: G -> local rotations."""
    globals_ = np.asarray(globals_)
    L = np.empty_like(globals_)
    L[..., 0, :, :] = globals_[..., 0, :, :]
    L[..., 1:, :, :] = np.swapaxes(globals_[..., tree.parents[1:], :, :], -1, -2) @ globals_[..., 1:, :, :]
    return L


def local_to_global(tree: KinematicTree, locals_: np.ndarray) -> np.ndarray:
    """Global orientations of local rotations, one product per segment."""
    locals_ = np.asarray(locals_)
    G = np.empty_like(locals_)
    G[..., 0, :, :] = locals_[..., 0, :, :]
    for i in range(1, tree.n_segments):
        p = tree.parents[i]
        G[..., i, :, :] = G[..., p, :, :] @ locals_[..., i, :, :]
    return G


def geodesic_angle_deg(Ra: np.ndarray, Rb: np.ndarray) -> np.ndarray:
    """Angle of Ra^-1 Rb in degrees, in [0, 180], trace clamped."""
    Ra, Rb = np.asarray(Ra), np.asarray(Rb)
    rel = np.swapaxes(Ra, -1, -2) @ Rb
    tr = np.clip(np.trace(rel, axis1=-2, axis2=-1), -1.0, 3.0)
    return np.degrees(np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0)))


def identity_rotations(tree: KinematicTree, *batch: int) -> np.ndarray:
    """(*batch, S, 3, 3) identity local rotations: the T-pose."""
    return np.broadcast_to(np.eye(3), batch + (tree.n_segments, 3, 3)).copy()


def identity_pose(tree: KinematicTree) -> Pose:
    """T-pose standing over the origin at `standing_root_height`."""
    return Pose(identity_rotations(tree), np.array([0.0, standing_root_height(tree), 0.0]))


def ground_lift(fk: FKResult) -> float:
    """Height to add to the root positions of a pose or motion, given its
    forward kinematics, that puts its lowest contact point
    GROUND_CLEARANCE_M above ground."""
    return float(GROUND_CLEARANCE_M - fk.contacts[..., 1].min())


def standing_root_height(tree: KinematicTree) -> float:
    """Root height that grounds the T-pose (`ground_lift`)."""
    return ground_lift(forward_kinematics(tree, identity_rotations(tree), np.zeros(3)))
