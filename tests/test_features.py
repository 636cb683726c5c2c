import numpy as np
import pytest

from imufill import features as ft
from imufill import kinematics as kin

from conftest import random_rotations


def test_layout_constants():
    assert ft.FRAME_DIM == 190
    assert ft.R_LEN == 144 and ft.A_LEN == 39
    assert (ft.DP_OFF, ft.PY_OFF, ft.B_OFF) == (183, 185, 186)
    assert ft.WINDOW_LEN == 61


def test_stationary_encode(tree):
    T = 10
    pose = kin.identity_pose(tree)
    rot = np.broadcast_to(pose.rotations, (T, 24, 3, 3)).copy()
    root = np.broadcast_to(pose.root_position, (T, 3)).copy()
    frames = ft.encode_frames(tree, rot, root, np.zeros((T, 13, 3)), np.ones((T, 4)))
    np.testing.assert_array_equal(frames[:, ft.DP_OFF:ft.DP_OFF + 2], 0.0)
    np.testing.assert_array_equal(frames[:, ft.B_OFF:], 1.0)
    np.testing.assert_allclose(frames[:, ft.PY_OFF], pose.root_position[1])


def test_constant_velocity_dp(tree):
    T = 8
    v = np.array([0.6, 0.0, -0.4])  # m/s, horizontal components x and z
    pose = kin.identity_pose(tree)
    rot = np.broadcast_to(pose.rotations, (T, 24, 3, 3)).copy()
    t = np.arange(T)[:, None] / ft.FRAME_RATE_HZ
    root = pose.root_position[None, :] + v[None, :] * t
    frames = ft.encode_frames(tree, rot, root, np.zeros((T, 13, 3)), np.zeros((T, 4)))
    np.testing.assert_allclose(frames[1:, ft.DP_OFF], v[0] / 20.0, atol=1e-12)
    np.testing.assert_allclose(frames[1:, ft.DP_OFF + 1], v[2] / 20.0, atol=1e-12)
    np.testing.assert_array_equal(frames[0, ft.DP_OFF:ft.DP_OFF + 2], 0.0)


def test_encode_decode_round_trip_random_motion(tree):
    rng = np.random.default_rng(0)
    T = 30
    rot = random_rotations(rng, T, 24)
    root = np.cumsum(0.02 * rng.standard_normal((T, 3)), axis=0) + [0, 1, 0]
    acc = rng.standard_normal((T, 13, 3))
    con = (rng.random((T, 4)) < 0.5).astype(float)
    frames = ft.encode_frames(tree, rot, root, acc, con)
    loc, root2, con2 = ft.decode_frames(tree, frames, initial_xz=(root[0, 0], root[0, 2]))
    # orientations reproduced exactly (through global encoding)
    g = kin.local_to_global(tree, rot)
    g2 = kin.local_to_global(tree, loc)
    np.testing.assert_allclose(g2, g, atol=1e-10)
    # root path matches original up to the (given) initial offset
    np.testing.assert_allclose(root2, root, atol=1e-9)
    np.testing.assert_array_equal(con2, con)


def test_encode_misaligned_lengths_raise(tree):
    with pytest.raises(ft.FeatureError, match="misaligned"):
        ft.encode_frames(
            tree,
            np.broadcast_to(np.eye(3), (5, 24, 3, 3)),
            np.zeros((5, 3)),
            np.zeros((4, 13, 3)),
            np.zeros((5, 4)),
        )


def _full_measurement(rng, sites, insoles=False):
    return ft.Measurement(
        site_orient6d={n: rng.standard_normal(6) for n in sites},
        site_accel={n: rng.standard_normal(3) for n in sites},
        insole_labels=np.array([1.0, 0.0, 1.0, 1.0]) if insoles else None,
    )


def test_inference_mask_empty_config(tree):
    window = np.random.default_rng(5).standard_normal((61, 190))
    _, m = ft.apply_observation(window, ft.Measurement(), tree, ft.SensorConfig())
    np.testing.assert_array_equal(m[:-1], 1.0)
    np.testing.assert_array_equal(m[-1], 0.0)


def test_inference_mask_full_config_counts(tree):
    rng = np.random.default_rng(6)
    cfg = ft.SensorConfig(imu_sites=ft.ALL_SITES, insoles=True)
    _, m = ft.apply_observation(rng.standard_normal((61, 190)),
                                _full_measurement(rng, ft.ALL_SITES, insoles=True), tree, cfg)
    np.testing.assert_array_equal(m[:-1], 1.0)
    assert m[-1].sum() == 13 * 6 + 13 * 3 + 4 == 121
    # dp and py never observed
    assert m[-1, ft.DP_OFF] == 0 and m[-1, ft.DP_OFF + 1] == 0 and m[-1, ft.PY_OFF] == 0
    # 11 uninstrumented segments stay free
    instrumented = {int(s) for s in tree.site_segments}
    for seg in range(24):
        expect = 1.0 if seg in instrumented else 0.0
        np.testing.assert_array_equal(m[-1, ft.seg_r_slice(seg)], expect)


def test_inference_mask_pelvis_only(tree):
    rng = np.random.default_rng(7)
    _, m = ft.apply_observation(rng.standard_normal((61, 190)), _full_measurement(rng, ("pelvis",)),
                                tree, ft.SensorConfig(imu_sites=("pelvis",)))
    np.testing.assert_array_equal(m[:-1], 1.0)
    assert m[-1].sum() == 9


def test_mask_is_pure_function(tree):
    rng = np.random.default_rng(8)
    cfg = ft.SensorConfig(imu_sites=("head", "shank_l"), insoles=False)
    window = rng.standard_normal((61, 190))
    meas = _full_measurement(rng, cfg.imu_sites)
    a = ft.apply_observation(window, meas, tree, cfg)
    b = ft.apply_observation(window, meas, tree, cfg)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_config_rejects_unknown_site():
    with pytest.raises(ft.FeatureError, match="unknown site"):
        ft.SensorConfig(imu_sites=("pelvis", "tail"))
    with pytest.raises(ft.FeatureError, match="unknown site"):
        ft.SensorConfig.parse("foo")


def test_apply_observation_full(tree):
    rng = np.random.default_rng(1)
    window = rng.standard_normal((61, 190))
    cfg = ft.SensorConfig(imu_sites=ft.ALL_SITES, insoles=True)
    meas = ft.Measurement(
        site_orient6d={n: rng.standard_normal(6) for n in ft.ALL_SITES},
        site_accel={n: rng.standard_normal(3) for n in ft.ALL_SITES},
        insole_labels=np.array([1.0, 0.0, 1.0, 1.0]),
    )
    out, mask = ft.apply_observation(window, meas, tree, cfg)
    vals, obs = ft.measurement_channels(tree, meas)
    assert obs.sum() == 121
    np.testing.assert_array_equal(out[-1][obs > 0], vals[obs > 0])
    np.testing.assert_array_equal(out[:-1], window[:-1])


def test_apply_observation_empty_copies_previous(tree):
    rng = np.random.default_rng(2)
    window = rng.standard_normal((61, 190))
    out, mask = ft.apply_observation(window, ft.Measurement(), tree, ft.SensorConfig())
    np.testing.assert_array_equal(out[-1], window[-2])
    np.testing.assert_array_equal(mask[-1], 0.0)


def test_apply_observation_partial_wrists(tree):
    rng = np.random.default_rng(3)
    window = rng.standard_normal((61, 190))
    cfg = ft.SensorConfig(imu_sites=("wrist_l", "wrist_r"))
    meas = ft.Measurement(
        site_orient6d={"wrist_l": rng.standard_normal(6), "wrist_r": rng.standard_normal(6)},
        site_accel={"wrist_l": rng.standard_normal(3), "wrist_r": rng.standard_normal(3)},
    )
    out, mask = ft.apply_observation(window, meas, tree, cfg)
    vals, obs = ft.measurement_channels(tree, meas)
    np.testing.assert_array_equal(out[-1][obs > 0], vals[obs > 0])
    np.testing.assert_array_equal(out[-1][obs == 0], window[-2][obs == 0])


def test_apply_observation_uninstrumented_site_rejected(tree):
    window = np.zeros((61, 190))
    meas = ft.Measurement(site_orient6d={"head": np.zeros(6)}, site_accel={})
    with pytest.raises(ft.FeatureError, match="uninstrumented"):
        ft.apply_observation(window, meas, tree, ft.SensorConfig(imu_sites=("pelvis",)))


def test_sensor_dropout_clears_mask_bits(tree):
    rng = np.random.default_rng(4)
    window = rng.standard_normal((61, 190))
    cfg = ft.SensorConfig(imu_sites=("pelvis", "head"))
    # head dropped out this frame
    meas = ft.Measurement(
        site_orient6d={"pelvis": rng.standard_normal(6)},
        site_accel={"pelvis": rng.standard_normal(3)},
    )
    out, mask = ft.apply_observation(window, meas, tree, cfg)
    head_seg = int(tree.site_segments[tree.site_index("head")])
    np.testing.assert_array_equal(mask[-1, ft.seg_r_slice(head_seg)], 0.0)
    assert mask[-1].sum() == 9


def test_config_parse():
    cfg = ft.SensorConfig.parse("pelvis,head,insoles")
    assert cfg.imu_sites == ("pelvis", "head") and cfg.insoles
    assert ft.SensorConfig.parse("all13+insoles").n_sensors == 14
    assert ft.SensorConfig.parse("none").imu_sites == ()


def test_neutral_frame(tree):
    f = ft.neutral_frame(tree, 1.75)
    assert f.shape == (190,)
    np.testing.assert_array_equal(f[ft.B_OFF:], 1.0)
    assert 0.8 < f[ft.PY_OFF] < 1.1
    r = f[ft.R_OFF:ft.R_OFF + 6]
    np.testing.assert_allclose(r, [1, 0, 0, 0, 1, 0], atol=1e-12)


def test_layout_hash_stable():
    assert ft.layout_hash() == ft.layout_hash()
    assert len(ft.layout_hash()) == 64
