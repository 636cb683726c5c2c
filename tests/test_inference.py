import numpy as np
import pytest

from imufill import datagen as dg
from imufill import diffusion as df
from imufill import features as ft
from imufill import inference as inf
from imufill import kinematics as kin


@pytest.fixture(scope="module")
def tiny_model():
    cfg = df.DenoiserConfig(layers=1, width=16, ff=32)
    params = df.init_denoiser(cfg, seed=0)
    schedule = df.build_cosine_schedule(1000)
    fast = df.FastDenoiser(cfg, params)
    return cfg, params, schedule, fast


@pytest.fixture(scope="module")
def gait_trial(tree):
    m = dg.generate_motion("gait", seed=21, duration_s=6.0, speed=1.0, trial_id="g21")
    return dg.make_trial(m, tree)


# -- spreads ---------------------------------------------------------------


def test_spread_presets():
    assert inf.StepSpread.parse("10D").steps == (1000, 850, 700, 550, 400, 250, 100, 10, 2, 0)
    assert inf.StepSpread.parse("10A").steps == tuple(range(9, -1, -1))
    assert inf.StepSpread.parse("10B").steps[0] == 18 and len(inf.StepSpread.parse("10B")) == 10
    assert inf.StepSpread.parse("1000,500,0").steps == (1000, 500, 0)


def test_spread_like_10d_matches_preset():
    assert inf.StepSpread.like_10d(10, 1000).steps == inf.StepSpread.parse("10D").steps


@pytest.mark.parametrize("n", [2, 3, 5, 30, 100])
def test_spread_like_10d_lengths(n):
    s = inf.StepSpread.like_10d(n, 1000)
    assert len(s) == n
    assert s.steps[0] == 1000 and s.steps[-1] == 0


@pytest.mark.parametrize("text", ["foo", "1000,x,0", ""])
def test_spread_parse_rejects_garbage(text):
    with pytest.raises(inf.SpreadError):
        inf.StepSpread.parse(text)


def test_spread_invariants_enforced():
    with pytest.raises(inf.SpreadError):
        inf.StepSpread((10, 5, 1))  # does not end at 0
    with pytest.raises(inf.SpreadError):
        inf.StepSpread((5, 5, 0))  # not strictly decreasing


# -- inpainting --------------------------------------------------------


def test_inpaint_all_ones_mask_is_identity(tiny_model):
    cfg, params, schedule, fast = tiny_model
    rng = np.random.default_rng(0)
    x = rng.standard_normal((61, 190))
    mask = np.ones_like(x)
    out = inf.inpaint_denoise(fast, schedule, x, mask, 1.75, inf.StepSpread.like_10d(5), rng)
    assert out.tobytes() == x.tobytes()  # bit-exact pass-through


def test_inpaint_all_zero_mask_single_step(tiny_model):
    cfg, params, schedule, fast = tiny_model
    x = np.random.default_rng(1).standard_normal((61, 190))
    mask = np.zeros_like(x)
    a = inf.inpaint_denoise(fast, schedule, x, mask, 1.75, inf.StepSpread((0,)), np.random.default_rng(5))
    b = inf.inpaint_denoise(fast, schedule, x, mask, 1.75, inf.StepSpread((0,)), np.random.default_rng(5))
    assert a.shape == (61, 190)
    np.testing.assert_array_equal(a, b)
    # t=0 renoise is exact, so this equals one clean denoise of x
    np.testing.assert_allclose(a, fast.predict(x.astype(np.float32), 0, 1.75), atol=1e-6)


@pytest.mark.parametrize("variant", ["renoise", "ddim"])
def test_inpaint_mask_preservation_random(tiny_model, tree, variant):
    cfg, params, schedule, fast = tiny_model
    rng = np.random.default_rng(2)
    for _ in range(25):
        x = rng.standard_normal((61, 190))
        mask = (rng.random((61, 190)) < 0.7).astype(float)
        out = inf.inpaint_denoise(fast, schedule, x, mask, 1.7,
                                  inf.StepSpread.like_10d(4), rng, variant=variant)
        keep = mask > 0.5
        assert out[keep].tobytes() == x[keep].tobytes()
        assert np.isfinite(out).all()


@pytest.mark.parametrize("variant", ["renoise", "ddim"])
def test_inpaint_rejects_nonfinite_input(tiny_model, variant):
    cfg, params, schedule, fast = tiny_model
    x = np.random.default_rng(4).standard_normal((61, 190))
    x[3, 7] = np.nan
    with pytest.raises(inf.InferenceError, match="non-finite"):
        inf.inpaint_denoise(fast, schedule, x, np.ones_like(x), 1.75, inf.StepSpread.like_10d(3),
                            np.random.default_rng(0), variant=variant)


def test_inpaint_ddim_deterministic(tiny_model):
    cfg, params, schedule, fast = tiny_model
    x = np.random.default_rng(3).standard_normal((61, 190))
    mask = np.zeros_like(x)
    spread = inf.StepSpread.like_10d(6)
    a = inf.inpaint_denoise(fast, schedule, x, mask, 1.75, spread, np.random.default_rng(9), variant="ddim")
    b = inf.inpaint_denoise(fast, schedule, x, mask, 1.75, spread, np.random.default_rng(9), variant="ddim")
    np.testing.assert_array_equal(a, b)


# -- root correction -------------------------------------------------------


def _tpose_frame(tree, root_xyz, dp, contacts, leg_tweak_deg=0.0):
    pose = kin.identity_pose(tree)
    rot = pose.rotations.copy()
    if leg_tweak_deg:
        rot[tree.index("thigh_l")] = kin.rotation_about("x", leg_tweak_deg)
    fk = kin.forward_kinematics(tree, rot, np.asarray(root_xyz, float))
    f = np.zeros(ft.FRAME_DIM)
    f[ft.R_OFF:ft.R_OFF + ft.R_LEN] = kin.encode_rot6d(fk.globals_).reshape(-1)
    f[ft.DP_OFF:ft.DP_OFF + 2] = dp
    f[ft.PY_OFF] = root_xyz[1]
    f[ft.B_OFF:ft.B_OFF + 4] = contacts
    return f


def test_root_correct_no_contacts(tree):
    prev = _tpose_frame(tree, [0, 1, 0], [0, 0], [0, 0, 0, 0])
    cur = _tpose_frame(tree, [0.05, 1, 0.02], [0.05, 0.02], [0.1, 0.2, 0.0, 0.4])
    np.testing.assert_array_equal(inf.root_correct(prev, cur, tree), [0.05, 0.02])


def test_root_correct_single_contact_exactly_static(tree):
    prev = _tpose_frame(tree, [0, 1, 0], [0, 0], [1, 1, 1, 1])
    cur = _tpose_frame(tree, [0.05, 1, 0.02], [0.05, 0.02], [1, 0, 0, 0])
    dp = inf.root_correct(prev, cur, tree)
    # identical pose, root shifted: the contact point displaced by exactly dp
    np.testing.assert_allclose(dp, [0.0, 0.0], atol=1e-15)
    # recompute: displacement of the gated point is now exactly zero
    cur2 = cur.copy()
    cur2[ft.DP_OFF:ft.DP_OFF + 2] = dp
    px_prev = inf._contact_xz(prev, tree)
    px_cur = inf._contact_xz(cur2, tree)
    resid = (px_cur - px_prev) + dp[None, :]
    np.testing.assert_array_equal(resid[0], [0.0, 0.0])


def test_root_correct_two_contacts_zero_mean_residual(tree):
    # left thigh tweak makes heel_l displace differently from heel_r
    prev = _tpose_frame(tree, [0, 1, 0], [0, 0], [1, 1, 1, 1])
    cur = _tpose_frame(tree, [0.04, 1, 0.0], [0.04, 0.0], [1, 0, 1, 0], leg_tweak_deg=2.0)
    dp = inf.root_correct(prev, cur, tree)
    cur2 = cur.copy()
    cur2[ft.DP_OFF:ft.DP_OFF + 2] = dp
    resid = (inf._contact_xz(cur2, tree) - inf._contact_xz(prev, tree)) + dp[None, :]
    gated = resid[[0, 2]]  # heel_l, heel_r
    np.testing.assert_allclose(gated.mean(axis=0), [0, 0], atol=1e-12)
    assert np.abs(gated).max() > 1e-4  # individuals nonzero, only the mean is static


def test_root_correct_changes_only_dp(tree, tiny_model, gait_trial):
    # within one step (identical rng and history), correction may only
    # touch the dp channels of the emitted frame; beyond that the change
    # legitimately feeds back through the autoregression
    cfg, params, schedule, fast = tiny_model
    config = ft.SensorConfig(imu_sites=("pelvis", "head"))
    kw = dict(height=gait_trial.motion.height, spread=inf.StepSpread.like_10d(3), seed=0)
    recon = inf.Reconstructor(cfg, params, schedule, tree, config, **kw)
    recon_nc = inf.Reconstructor(cfg, params, schedule, tree, config, root_correction=False, **kw)
    m = next(inf.measurements_from_trial(gait_trial, config))
    recon.cold_start()
    recon_nc.cold_start()
    a = recon.step(m)
    b = recon_nc.step(m)
    mask = np.ones(ft.FRAME_DIM, bool)
    mask[ft.DP_OFF:ft.DP_OFF + 2] = False
    np.testing.assert_array_equal(a.frame[mask], b.frame[mask])


# -- reconstructor --------------------------------------------------------


def test_cold_start_invariants(tree, tiny_model):
    cfg, params, schedule, fast = tiny_model
    recon = inf.Reconstructor(cfg, params, schedule, tree, ft.SensorConfig(), height=1.75)
    recon.cold_start()
    assert recon.window.shape == (61, 190)
    r = recon.step(None)
    assert np.isfinite(r.pose.rotations).all() and np.isfinite(r.pose.root_position).all()


@pytest.mark.parametrize("height", [0.0, -1.0, float("nan"), float("inf")])
def test_reconstructor_rejects_bad_height(tree, tiny_model, height):
    cfg, params, schedule, fast = tiny_model
    with pytest.raises(ft.FeatureError, match="height"):
        inf.Reconstructor(cfg, fast, schedule, tree, ft.SensorConfig(), height=height)


def test_full_config_passthrough(tree, tiny_model, gait_trial):
    cfg, params, schedule, fast = tiny_model
    config = ft.SensorConfig(imu_sites=ft.ALL_SITES, insoles=True)
    recon = inf.Reconstructor(cfg, params, schedule, tree, config, height=gait_trial.motion.height,
                              spread=inf.StepSpread.like_10d(4), seed=1)
    recon.cold_start()
    for k, meas in enumerate(inf.measurements_from_trial(gait_trial, config)):
        res = recon.step(meas)
        vals, obs = ft.measurement_channels(tree, meas)
        sel = obs > 0
        np.testing.assert_array_equal(res.frame[sel], vals[sel])
        if k == 5:
            break
    # instrumented segment orientations decode to the measured ones exactly
    g6 = res.frame[ft.R_OFF:ft.R_OFF + ft.R_LEN].reshape(24, 6)
    meas6 = kin.encode_rot6d(gait_trial.site_rotations[5])
    for i, seg in enumerate(tree.site_segments):
        np.testing.assert_array_equal(g6[seg], meas6[i])


def test_reconstruction_deterministic(tree, tiny_model, gait_trial):
    cfg, params, schedule, fast = tiny_model
    config = ft.SensorConfig(imu_sites=ft.SIX_IMU_SITES)

    def run():
        recon = inf.Reconstructor(cfg, params, schedule, tree, config,
                                  height=gait_trial.motion.height,
                                  spread=inf.StepSpread.like_10d(4), seed=33)
        rot, root, results = inf.reconstruct_trial(recon, gait_trial, config)
        return rot, root

    r1, p1 = run()
    r2, p2 = run()
    np.testing.assert_array_equal(r1, r2)
    np.testing.assert_array_equal(p1, p2)


def test_history_never_modified_after_emission(tree, tiny_model, gait_trial):
    cfg, params, schedule, fast = tiny_model
    config = ft.SensorConfig(imu_sites=("pelvis",))
    recon = inf.Reconstructor(cfg, params, schedule, tree, config, height=gait_trial.motion.height,
                              spread=inf.StepSpread.like_10d(3), seed=2)
    recon.cold_start()
    emitted = []
    for meas in list(inf.measurements_from_trial(gait_trial, config))[:6]:
        emitted.append(recon.step(meas).frame)
        k = len(emitted)
        for j in range(min(k, 61)):
            np.testing.assert_array_equal(recon.window[-1 - j], emitted[k - 1 - j])


def test_per_sensor_dropout_generates_channels(tree, tiny_model, gait_trial):
    cfg, params, schedule, fast = tiny_model
    config = ft.SensorConfig(imu_sites=("pelvis", "head"))
    recon = inf.Reconstructor(cfg, params, schedule, tree, config, height=gait_trial.motion.height,
                              spread=inf.StepSpread.like_10d(3), seed=3)
    recon.cold_start()
    meas_full = next(inf.measurements_from_trial(gait_trial, config))
    recon.step(meas_full)
    # head drops out: its channels must change freely (generated, not held)
    partial = ft.Measurement(
        site_orient6d={"pelvis": meas_full.site_orient6d["pelvis"]},
        site_accel={"pelvis": meas_full.site_accel["pelvis"]},
    )
    res = recon.step(partial)
    head_seg = int(tree.site_segments[tree.site_index("head")])
    prev_head = recon.window[-2][ft.seg_r_slice(head_seg)]
    assert not np.array_equal(res.frame[ft.seg_r_slice(head_seg)], prev_head)


def test_latency_stats(tree, tiny_model):
    cfg, params, schedule, fast = tiny_model
    recon = inf.Reconstructor(cfg, params, schedule, tree, ft.SensorConfig(), height=1.75,
                              spread=inf.StepSpread.like_10d(3))
    results = inf.run_session(recon, [None] * 5)
    p = inf.latency_percentiles(results)
    assert p["p50"] > 0 and p["p95"] >= p["p50"]
    assert np.isnan(inf.latency_percentiles([])["p50"])


# -- stream ingestion -------------------------------------------------------


def _const_stream(n, accel=(1.0, 2.0, 3.0)):
    q = np.array([1.0, 0, 0, 0])
    return [
        inf.StreamFrame(t_ms=i * 1000 / 60, sites={"pelvis": (q, np.array(accel, float))})
        for i in range(n)
    ]


def test_ingest_constant_input_unity():
    ing = inf.StreamIngestor()
    outs = []
    for fr in _const_stream(31):
        outs.extend(ing.push(fr))
    outs.extend(ing.finish())
    assert len(outs) == 11  # instants 0,3,...,30
    for o in outs:
        np.testing.assert_allclose(o.measurement.site_accel["pelvis"], [1, 2, 3], rtol=1e-12)
        np.testing.assert_allclose(o.measurement.site_orient6d["pelvis"], [1, 0, 0, 0, 1, 0], atol=1e-12)


def test_ingest_impulse_box_response():
    frames = _const_stream(61, accel=(0.0, 0.0, 0.0))
    frames[30] = inf.StreamFrame(t_ms=30 * 1000 / 60,
                                 sites={"pelvis": (np.array([1.0, 0, 0, 0]), np.array([11.0, 0, 0]))})
    ing = inf.StreamIngestor()
    outs = []
    for fr in frames:
        outs.extend(ing.push(fr))
    outs.extend(ing.finish())
    vals = {round(o.t_ms * 60 / 1000): o.measurement.site_accel["pelvis"][0] for o in outs}
    # centered 11-wide box: instants within 5 frames of the impulse read 1
    assert vals[27] == pytest.approx(1.0) and vals[30] == pytest.approx(1.0) and vals[33] == pytest.approx(1.0)
    assert vals[24] == pytest.approx(0.0) and vals[36] == pytest.approx(0.0)


def test_ingest_out_of_order_dropped():
    ing = inf.StreamIngestor()
    ing.push(_const_stream(2)[1])
    with pytest.warns(UserWarning, match="out-of-order"):
        got = ing.push(_const_stream(2)[0])
    assert got == []


def test_ingest_dropout_bookkeeping():
    # sensor absent for 2 s (120 raw frames) -> absent from 40 outputs
    frames = _const_stream(301)
    for i in range(60, 180):
        frames[i] = inf.StreamFrame(t_ms=i * 1000 / 60, sites={})
    ing = inf.StreamIngestor()
    outs = []
    for fr in frames:
        outs.extend(ing.push(fr))
    outs.extend(ing.finish())
    absent = [round(o.t_ms * 60 / 1000) for o in outs if "pelvis" not in o.measurement.site_orient6d]
    assert len(absent) == 40
    assert min(absent) == 60 and max(absent) == 177


def test_ingest_latency_metadata():
    ing = inf.StreamIngestor()
    outs = []
    for fr in _const_stream(12):
        outs.extend(ing.push(fr))
    assert outs and all(o.latency_frames == 5 for o in outs)
    # first instant only emitted once 5 future frames exist
    ing2 = inf.StreamIngestor()
    early = []
    for fr in _const_stream(5):
        early.extend(ing2.push(fr))
    assert early == []


# -- wire formats -------------------------------------------------------


def test_stream_file_round_trip(tmp_path, tree, gait_trial):
    config = ft.SensorConfig(imu_sites=("pelvis", "head"), insoles=True)
    frames = inf.stream_frames_from_trial(gait_trial, config, tree)
    p = tmp_path / "in.jsonl"
    inf.write_stream_file(p, frames)
    back = inf.parse_stream_file(p)
    assert len(back) == len(frames)
    np.testing.assert_allclose(back[7].sites["pelvis"][0], frames[7].sites["pelvis"][0], atol=1e-9)
    np.testing.assert_array_equal(back[7].insoles, frames[7].insoles)


def test_stream_file_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"format": "something-else", "version": 9}\n')
    with pytest.raises(inf.InferenceError):
        inf.parse_stream_file(p)


def test_pose_stream_round_trip(tmp_path, tree, tiny_model, gait_trial):
    cfg, params, schedule, fast = tiny_model
    config = ft.SensorConfig(imu_sites=("pelvis",))
    recon = inf.Reconstructor(cfg, params, schedule, tree, config, height=gait_trial.motion.height,
                              spread=inf.StepSpread.like_10d(3), seed=4)
    recon.cold_start()
    results = [recon.step(m) for m in list(inf.measurements_from_trial(gait_trial, config))[:5]]
    p = tmp_path / "out.jsonl"
    inf.write_pose_stream(p, tree, results)
    rot, root, contacts = inf.read_pose_stream(p)
    assert rot.shape == (5, 24, 3, 3)
    np.testing.assert_allclose(root[3], results[3].pose.root_position, atol=1e-8)
    np.testing.assert_allclose(rot[3], results[3].pose.rotations, atol=1e-7)
