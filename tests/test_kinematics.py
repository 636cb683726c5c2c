import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imufill import kinematics as kin

from conftest import random_rotations, ref_forward_kinematics, toy_tree


def test_default_tree_valid(tree):
    tree.validate()
    assert tree.n_segments == 24
    assert len(tree.site_names) == 13
    assert len(tree.contact_names) == 4
    assert abs(tree.mass_fractions.sum() - 1.0) < 1e-9


def test_decode6d_identity():
    r6 = np.array([1, 0, 0, 0, 1, 0], dtype=float)
    np.testing.assert_allclose(kin.decode_rot6d(r6), np.eye(3), atol=1e-15)


def test_rot6d_round_trip():
    rng = np.random.default_rng(0)
    R = random_rotations(rng, 50)
    back = kin.decode_rot6d(kin.encode_rot6d(R))
    np.testing.assert_allclose(back, R, atol=1e-12)


def test_decode6d_orthonormalizes_perturbed_input():
    rng = np.random.default_rng(1)
    r6 = kin.encode_rot6d(np.eye(3)) + 0.05 * rng.standard_normal(6)
    R = kin.decode_rot6d(r6)
    np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-10)
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-10)


def test_decode6d_degenerate_inputs_stay_finite():
    # raw denoiser output is decoded as it is: a zero or a parallel
    # column is clamped, not rejected
    for r6 in ([0.0, 0, 0, 0, 1, 0], [1.0, 0, 0, 2.0, 0, 0], [0.0] * 6):
        assert np.isfinite(kin.decode_rot6d(np.array(r6))).all()


def test_fk_identity_pose_accumulates_offsets(tree):
    pose = kin.identity_pose(tree)
    fk = kin.forward_kinematics(tree, pose.rotations, pose.root_position)
    # walk each chain by hand
    for i in range(1, tree.n_segments):
        expect = pose.root_position.copy()
        j = i
        chain = []
        while j != 0:
            chain.append(j)
            j = int(tree.parents[j])
        for j in chain:
            expect = expect + tree.offsets[j]
        np.testing.assert_allclose(fk.joints[i], expect, atol=1e-12)


def test_fk_root_yaw_rotates_children(tree):
    pose = kin.identity_pose(tree)
    rot = pose.rotations.copy()
    rot[0] = kin.rotation_about("y", 90.0)
    fk = kin.forward_kinematics(tree, rot, pose.root_position)
    # left thigh origin: offset (0.09, -0.07, 0) rotated 90 deg about y -> z = -0.09
    i = tree.index("thigh_l")
    np.testing.assert_allclose(fk.joints[i, 2], -0.09, atol=1e-12)
    np.testing.assert_allclose(fk.joints[i, 1], pose.root_position[1] - 0.07, atol=1e-12)


def test_fk_preserves_segment_lengths_random_pose(tree):
    rng = np.random.default_rng(2)
    rot = random_rotations(rng, 10, tree.n_segments)
    root = rng.standard_normal((10, 3))
    fk = kin.forward_kinematics(tree, rot, root)
    for i in range(1, tree.n_segments):
        d = np.linalg.norm(fk.joints[:, i] - fk.joints[:, tree.parents[i]], axis=-1)
        np.testing.assert_allclose(d, np.linalg.norm(tree.offsets[i]), atol=1e-9)


def test_global_local_round_trip(tree):
    rng = np.random.default_rng(3)
    G = random_rotations(rng, 5, tree.n_segments)
    L = kin.global_to_local(tree, G)
    back = kin.local_to_global(tree, L)
    np.testing.assert_allclose(back, G, atol=1e-10)


def test_global_to_local_identity(tree):
    eye = np.broadcast_to(np.eye(3), (tree.n_segments, 3, 3)).copy()
    np.testing.assert_allclose(kin.global_to_local(tree, eye), eye, atol=1e-15)


def test_global_to_local_parent_child_same_yaw(tree):
    G = np.broadcast_to(np.eye(3), (tree.n_segments, 3, 3)).copy()
    i = tree.index("thigh_l")
    yaw = kin.rotation_about("y", 90.0)
    G[0] = yaw
    G[i] = yaw
    L = kin.global_to_local(tree, G)
    np.testing.assert_allclose(L[i], np.eye(3), atol=1e-12)


def test_geodesic_angle_basics():
    R = kin.rotation_about("x", 30.0)
    assert kin.geodesic_angle_deg(R, R) == pytest.approx(0.0, abs=1e-9)
    assert kin.geodesic_angle_deg(np.eye(3), kin.rotation_about("z", 90.0)) == pytest.approx(90.0, abs=1e-9)
    assert kin.geodesic_angle_deg(np.eye(3), kin.rotation_about("x", 30.0) @ kin.rotation_about("y", 0.0)) == pytest.approx(30.0, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_geodesic_symmetric_and_triangle(seed):
    rng = np.random.default_rng(seed)
    Ra, Rb, Rc = random_rotations(rng, 3)
    ab = kin.geodesic_angle_deg(Ra, Rb)
    ba = kin.geodesic_angle_deg(Rb, Ra)
    assert ab == pytest.approx(ba, abs=1e-6)
    ac = kin.geodesic_angle_deg(Ra, Rc)
    cb = kin.geodesic_angle_deg(Rc, Rb)
    assert ab <= ac + cb + 1e-6


def test_quaternion_round_trip():
    rng = np.random.default_rng(4)
    R = random_rotations(rng, 40)
    back = kin.quat_to_rot(kin.rot_to_quat(R))
    np.testing.assert_allclose(back, R, atol=1e-10)


def _rot_to_quat_loop(R):
    """Per-matrix reference for kin.rot_to_quat: the same formulas, one
    branch chosen per matrix in a Python loop."""
    Rf = np.asarray(R, dtype=np.float64).reshape((-1, 3, 3))
    q = np.empty((Rf.shape[0], 4))
    t = np.trace(Rf, axis1=-2, axis2=-1)
    for i, m in enumerate(Rf):
        if t[i] > 0:
            s = np.sqrt(t[i] + 1.0) * 2
            q[i] = [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
        elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
            s = np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2
            q[i] = [(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s]
        elif m[1, 1] > m[2, 2]:
            s = np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2
            q[i] = [(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s]
        else:
            s = np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2
            q[i] = [(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s]
    q[q[:, 0] < 0] *= -1
    return q.reshape(np.shape(R)[:-2] + (4,))


def _branch(R):
    t = np.trace(R)
    if t > 0:
        return 0
    if R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        return 1
    return 2 if R[1, 1] > R[2, 2] else 3


def test_rot_to_quat_bit_identical_to_loop():
    rng = np.random.default_rng(12)
    near_pi = [kin.rotation_about(ax, 180.0 - eps) for ax in "xyz" for eps in (0.0, 1e-9, 1e-4, 0.5)]
    tilted = [kin.rotation_about("x", 179.9) @ kin.rotation_about("y", 0.05),
              kin.rotation_about("z", 180.0) @ kin.rotation_about("x", 180.0)]
    # half turns about diagonal axes tie two or three diagonal entries
    axes = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]]) / np.sqrt([[2], [2], [2], [3]])
    ties = [2.0 * np.outer(n, n) - np.eye(3) for n in axes]
    R = np.concatenate([random_rotations(rng, 300), np.stack(near_pi + tilted + ties), np.eye(3)[None]])
    assert {_branch(m) for m in R} == {0, 1, 2, 3}  # every branch is exercised
    q = kin.rot_to_quat(R)
    assert q.tobytes() == _rot_to_quat_loop(R).tobytes()
    batched = R[:300].reshape(10, 30, 3, 3)
    assert kin.rot_to_quat(batched).tobytes() == _rot_to_quat_loop(batched).tobytes()
    assert kin.rot_to_quat(R[0]).shape == (4,)


def _positions(op, G):
    """(..., P, 3) root-relative positions from global orientations
    (..., S, 3, 3) through a position operator: (G' @ op)^T with
    G'[r, 3k + c] = G_k[r, c]."""
    rows = np.swapaxes(G, -3, -2).reshape(G.shape[:-3] + (3, -1))
    return np.swapaxes(rows @ op, -1, -2)


@pytest.mark.parametrize("toy, height", [(False, 1.55), (False, 1.75), (False, 1.93), (True, 0.9)])
def test_position_operator_matches_forward_kinematics(tree, toy, height):
    # against forward kinematics walked one segment at a time, which the
    # operator does not go through
    base = toy_tree() if toy else tree
    body = base.scaled(height)
    op = kin.position_operator(body)
    S, C = body.n_segments, len(body.contact_segments)
    assert op.shape == (3 * S, S + C + (1 if toy else kin.N_SITES))
    rng = np.random.default_rng(S + int(100 * height))
    rot = random_rotations(rng, 40, S)
    ref = ref_forward_kinematics(body, rot, np.zeros(3))
    pos = _positions(op, ref.globals_)
    assert np.abs(pos[:, :S] - ref.joints).max() <= 1e-12
    assert np.abs(pos[:, S:S + C] - ref.contacts).max() <= 1e-12
    assert np.abs(pos[:, S + C:] - ref.sites).max() <= 1e-12
    # each entry is one offset component, so scaling the tree scales it exactly
    assert np.array_equal(op, kin.position_operator(base) * (height / base.reference_height))
    assert np.array_equal(body.operator, op) and not body.operator.flags.writeable


def test_scaled_tree(tree):
    tall = tree.scaled(2.0)
    np.testing.assert_allclose(tall.offsets, tree.offsets * (2.0 / 1.75))
    assert tall.reference_height == 2.0
    tall.validate()


def test_standing_root_height_grounds_contacts(tree):
    pose = kin.identity_pose(tree)
    fk = kin.forward_kinematics(tree, pose.rotations, pose.root_position)
    assert fk.contacts[..., 1].min() == pytest.approx(0.005, abs=1e-12)
    assert 0.8 < pose.root_position[1] < 1.1


def test_skeleton_hash_stable_and_sensitive(tree):
    h1 = kin.skeleton_hash(tree)
    h2 = kin.skeleton_hash(kin.default_tree())
    assert h1 == h2
    assert kin.skeleton_hash(tree.scaled(1.8)) != h1
