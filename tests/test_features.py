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
    frames = ft.encode_frames(kin.local_to_global(tree, rot), root, np.zeros((T, 13, 3)), np.ones((T, 4)))
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
    frames = ft.encode_frames(kin.local_to_global(tree, rot), root, np.zeros((T, 13, 3)), np.zeros((T, 4)))
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
    frames = ft.encode_frames(kin.local_to_global(tree, rot), root, acc, con)
    # decode as the reconstructor does: orientations through 6-DOF and
    # the tree, the horizontal root path as the sum of dp from the
    # (unobservable) initial offset
    g6 = frames[:, ft.R_OFF:ft.R_OFF + ft.R_LEN].reshape(T, ft.N_SEGMENTS, 6)
    loc = kin.global_to_local(tree, kin.decode_rot6d(g6))
    path = np.cumsum(frames[:, ft.DP_OFF:ft.DP_OFF + ft.DP_LEN], axis=0)
    root2 = np.stack([root[0, 0] + path[:, 0], frames[:, ft.PY_OFF], root[0, 2] + path[:, 1]], axis=1)
    con2 = frames[:, ft.B_OFF:ft.B_OFF + ft.B_LEN]
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
            np.broadcast_to(np.eye(3), (5, 24, 3, 3)),
            np.zeros((5, 3)),
            np.zeros((4, 13, 3)),
            np.zeros((5, 4)),
        )


def _full_measurement(rng, sites, insoles=False):
    return ft.Measurement(
        sites={n: (rng.standard_normal(6), rng.standard_normal(3)) for n in sites},
        insole_labels=np.array([1.0, 0.0, 1.0, 1.0]) if insoles else None,
    )


def test_inference_mask_empty_config(tree):
    window = np.random.default_rng(5).standard_normal((61, 190))
    _, m = ft.apply_observation(window, ft.Measurement(), tree, ft.SensorConfig())
    assert m.shape == (190,) and m.dtype == bool
    assert not m.any()


def test_inference_mask_full_config_counts(tree):
    rng = np.random.default_rng(6)
    cfg = ft.SensorConfig(imu_sites=ft.ALL_SITES, insoles=True)
    _, m = ft.apply_observation(rng.standard_normal((61, 190)),
                                _full_measurement(rng, ft.ALL_SITES, insoles=True), tree, cfg)
    assert m.sum() == 13 * 6 + 13 * 3 + 4 == 121
    # dp and py never observed
    assert not m[ft.DP_OFF] and not m[ft.DP_OFF + 1] and not m[ft.PY_OFF]
    # 11 uninstrumented segments stay free
    instrumented = {int(s) for s in tree.site_segments}
    for seg in range(24):
        np.testing.assert_array_equal(m[ft.seg_r_slice(seg)], seg in instrumented)


def test_inference_mask_pelvis_only(tree):
    rng = np.random.default_rng(7)
    _, m = ft.apply_observation(rng.standard_normal((61, 190)), _full_measurement(rng, ("pelvis",)),
                                tree, ft.SensorConfig(imu_sites=("pelvis",)))
    assert m.sum() == 9


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
        sites={n: (rng.standard_normal(6), rng.standard_normal(3)) for n in ft.ALL_SITES},
        insole_labels=np.array([1.0, 0.0, 1.0, 1.0]),
    )
    out, observed = ft.apply_observation(window, meas, tree, cfg)
    vals, obs = ft.measurement_channels(tree, meas)
    assert obs.sum() == 121
    np.testing.assert_array_equal(observed, obs)
    np.testing.assert_array_equal(out[-1][obs], vals[obs])
    np.testing.assert_array_equal(out[:-1], window[1:])  # advanced by one frame


def test_apply_observation_empty_copies_previous(tree):
    rng = np.random.default_rng(2)
    window = rng.standard_normal((61, 190))
    before = window.copy()
    out, observed = ft.apply_observation(window, ft.Measurement(), tree, ft.SensorConfig())
    np.testing.assert_array_equal(out[-1], window[-1])
    assert not observed.any()
    np.testing.assert_array_equal(window, before)  # the input window is not changed


def test_apply_observation_partial_wrists(tree):
    rng = np.random.default_rng(3)
    window = rng.standard_normal((61, 190))
    cfg = ft.SensorConfig(imu_sites=("wrist_l", "wrist_r"))
    meas = ft.Measurement(
        sites={n: (rng.standard_normal(6), rng.standard_normal(3)) for n in ("wrist_l", "wrist_r")},
    )
    out, observed = ft.apply_observation(window, meas, tree, cfg)
    vals, obs = ft.measurement_channels(tree, meas)
    np.testing.assert_array_equal(out[-1][obs], vals[obs])
    np.testing.assert_array_equal(out[-1][~obs], window[-1][~obs])


def test_apply_observation_reads_only_the_configured_sensors(tree):
    # sites and insoles that the config lacks are left out, so a
    # measurement of every sensor reads as the pelvis alone
    rng = np.random.default_rng(9)
    window = rng.standard_normal((61, 190))
    full = _full_measurement(rng, ft.ALL_SITES, insoles=True)
    pelvis = ft.Measurement(sites={"pelvis": full.sites["pelvis"]})
    cfg = ft.SensorConfig(imu_sites=("pelvis",))
    got, got_obs = ft.apply_observation(window, full, tree, cfg)
    want, want_obs = ft.apply_observation(window, pelvis, tree, cfg)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got_obs, want_obs)
    assert got_obs.sum() == 9


@pytest.mark.parametrize("config", [("pelvis",), ()], ids=["configured", "empty"])
def test_apply_observation_unknown_site_rejected(tree, config):
    meas = ft.Measurement(sites={"pelvis": (np.zeros(6), np.zeros(3)), "tail": (np.zeros(6), np.zeros(3))})
    with pytest.raises(ft.FeatureError, match="unknown site 'tail'"):
        ft.apply_observation(np.zeros((61, 190)), meas, tree, ft.SensorConfig(imu_sites=config))


def test_sensor_dropout_clears_mask_bits(tree):
    rng = np.random.default_rng(4)
    window = rng.standard_normal((61, 190))
    cfg = ft.SensorConfig(imu_sites=("pelvis", "head"))
    # head dropped out this frame
    meas = ft.Measurement(sites={"pelvis": (rng.standard_normal(6), rng.standard_normal(3))})
    out, observed = ft.apply_observation(window, meas, tree, cfg)
    head_seg = int(tree.site_segments[tree.site_names.index("head")])
    assert not observed[ft.seg_r_slice(head_seg)].any()
    assert observed.sum() == 9


def test_all_sites_in_skeleton_order(tree):
    # dataset site arrays are laid out in skeleton order and indexed by
    # ALL_SITES position when a trial is replayed
    assert ft.ALL_SITES == tree.site_names
    assert tree.n_segments == kin.N_SEGMENTS == ft.R_LEN // 6


def test_config_parse():
    cfg = ft.SensorConfig.parse("pelvis,head,insoles")
    assert cfg.imu_sites == ("pelvis", "head") and cfg.insoles
    assert ft.SensorConfig.parse("all13+insoles").n_sensors == 14
    assert ft.SensorConfig.parse("none").imu_sites == ()


def test_neutral_frame(tree):
    f, contacts = ft.neutral_frame(tree)
    assert contacts.shape == (4, 3)
    # contact points relative to the root: the lowest is GROUND_CLEARANCE_M above ground at height py
    assert contacts[:, 1].min() == pytest.approx(kin.GROUND_CLEARANCE_M - f[ft.PY_OFF], abs=1e-12)
    assert f.shape == (190,)
    np.testing.assert_array_equal(f[ft.B_OFF:], 1.0)
    assert 0.8 < f[ft.PY_OFF] < 1.1
    r = f[ft.R_OFF:ft.R_OFF + 6]
    np.testing.assert_allclose(r, [1, 0, 0, 0, 1, 0], atol=1e-12)


def test_layout_hash_stable():
    assert ft.layout_hash() == ft.layout_hash()
    assert len(ft.layout_hash()) == 64
