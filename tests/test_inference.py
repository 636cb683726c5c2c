import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("text", ["4000000", "1" * 25])
def test_spread_step_count_above_T_rejected(text):
    # a spread has at most T + 1 distinct steps; a larger count is refused
    # before anything of its size is built
    with pytest.raises(inf.SpreadError, match="at most 1001 steps"):
        inf.StepSpread.parse(text, 1000)


def test_spread_step_count_at_T_plus_one_accepted():
    s = inf.StepSpread.like_10d(1001, 1000)
    assert s.steps[0] == 1000 and s.steps[-1] == 0 and len(s) <= 1001


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


def _inpaint_reference(model, schedule, x_input, mask, h, spread, rng, variant):
    """The inpainting loops written plainly: full-window predictions, fresh
    noise arrays and np.where edits."""
    keep = mask > 0.5
    dtype = model.dtype
    xin = x_input.astype(dtype)

    def noised(a, t):
        ab = schedule.alpha_bar[t]
        return np.sqrt(ab, dtype=dtype) * a + np.sqrt(1.0 - ab, dtype=dtype) * rng.standard_normal(
            a.shape, dtype=dtype)

    if variant == "renoise":
        x = xin
        for t in spread.steps:
            x = np.where(keep, xin, model.predict(noised(x, t), t, h))
    else:
        z = noised(xin, spread.steps[0])
        for t, t_next in zip(spread.steps, spread.steps[1:] + (None,)):
            x = np.where(keep, xin, model.predict(z, t, h))
            if t_next is None:
                break
            ab, ab_next = schedule.alpha_bar[t], schedule.alpha_bar[t_next]
            eps_hat = (z - np.sqrt(ab) * x) / np.sqrt(1.0 - ab)
            z = np.sqrt(ab_next) * x + np.sqrt(1.0 - ab_next) * eps_hat
    out = x_input.copy()
    np.copyto(out, x, where=~keep)
    return out


@pytest.fixture(scope="module")
def model64():
    cfg = df.DenoiserConfig(layers=2, width=16, ff=32, nhead=2)
    params = df.init_denoiser(cfg, seed=1, dtype=np.float64)
    return df.build_cosine_schedule(1000), df.FastDenoiser(cfg, params, dtype=np.float64)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(0, 61), density=st.floats(0.0, 1.0),
       variant=st.sampled_from(["renoise", "ddim"]))
def test_inpaint_matches_full_window_reference(model64, seed, n_rows, density, variant):
    schedule, fast = model64
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((61, 190))
    mask = np.ones_like(x)
    rows = rng.choice(61, size=n_rows, replace=False)
    mask[rows] = rng.random((n_rows, 190)) >= density
    spread = inf.StepSpread.like_10d(4)
    got = inf.inpaint_denoise(fast, schedule, x, mask, 1.7, spread, np.random.default_rng(seed), variant)
    want = _inpaint_reference(fast, schedule, x, mask, 1.7, spread, np.random.default_rng(seed), variant)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("variant", ["renoise", "ddim"])
def test_inpaint_draws_one_window_of_noise_per_renoise(tiny_model, variant):
    cfg, params, schedule, fast = tiny_model
    x = np.random.default_rng(6).standard_normal((61, 190))
    mask = np.ones_like(x)
    mask[-1, 150:] = 0.0
    spread = inf.StepSpread.like_10d(7)
    rng = np.random.default_rng(13)
    inf.inpaint_denoise(fast, schedule, x, mask, 1.75, spread, rng, variant=variant)
    fresh = np.random.default_rng(13)
    for _ in range(len(spread) if variant == "renoise" else 1):
        fresh.standard_normal((61, 190), dtype=np.float32)
    assert rng.bit_generator.state == fresh.bit_generator.state


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


def _contact_xz(frame, tree):
    """Root-relative horizontal contact points of one frame, decoded on
    its own: the reference for the points a Reconstructor carries."""
    g6 = frame[ft.R_OFF:ft.R_OFF + ft.R_LEN].reshape(ft.N_SEGMENTS, 6)
    locals_ = kin.global_to_local(tree, kin.decode_rot6d(g6, strict=False))
    return kin.forward_kinematics(tree, locals_, np.zeros(3)).contacts[:, [0, 2]]


def _reference_root_correct(prev_frame, cur_frame, tree):
    """Root correction that decodes both frames on its own."""
    dp = cur_frame[ft.DP_OFF:ft.DP_OFF + 2].copy()
    in_contact = cur_frame[ft.B_OFF:ft.B_OFF + ft.B_LEN] >= inf.CONTACT_THRESHOLD
    if not in_contact.any():
        return dp
    disp = (_contact_xz(cur_frame, tree) - _contact_xz(prev_frame, tree)) + dp[None, :]
    return dp - disp[in_contact].mean(axis=0)


def test_root_correct_no_contacts(tree):
    prev = _tpose_frame(tree, [0, 1, 0], [0, 0], [0, 0, 0, 0])
    cur = _tpose_frame(tree, [0.05, 1, 0.02], [0.05, 0.02], [0.1, 0.2, 0.0, 0.4])
    np.testing.assert_array_equal(inf.root_correct(_contact_xz(prev, tree), cur, _contact_xz(cur, tree)),
                                  [0.05, 0.02])


def test_root_correct_single_contact_exactly_static(tree):
    prev = _tpose_frame(tree, [0, 1, 0], [0, 0], [1, 1, 1, 1])
    cur = _tpose_frame(tree, [0.05, 1, 0.02], [0.05, 0.02], [1, 0, 0, 0])
    dp = inf.root_correct(_contact_xz(prev, tree), cur, _contact_xz(cur, tree))
    # identical pose, root shifted: the contact point displaced by exactly dp
    np.testing.assert_allclose(dp, [0.0, 0.0], atol=1e-15)
    # recompute: displacement of the gated point is now exactly zero
    cur2 = cur.copy()
    cur2[ft.DP_OFF:ft.DP_OFF + 2] = dp
    px_prev = _contact_xz(prev, tree)
    px_cur = _contact_xz(cur2, tree)
    resid = (px_cur - px_prev) + dp[None, :]
    np.testing.assert_array_equal(resid[0], [0.0, 0.0])


def test_root_correct_two_contacts_zero_mean_residual(tree):
    # left thigh tweak makes heel_l displace differently from heel_r
    prev = _tpose_frame(tree, [0, 1, 0], [0, 0], [1, 1, 1, 1])
    cur = _tpose_frame(tree, [0.04, 1, 0.0], [0.04, 0.0], [1, 0, 1, 0], leg_tweak_deg=2.0)
    dp = inf.root_correct(_contact_xz(prev, tree), cur, _contact_xz(cur, tree))
    cur2 = cur.copy()
    cur2[ft.DP_OFF:ft.DP_OFF + 2] = dp
    resid = (_contact_xz(cur2, tree) - _contact_xz(prev, tree)) + dp[None, :]
    gated = resid[[0, 2]]  # heel_l, heel_r
    np.testing.assert_allclose(gated.mean(axis=0), [0, 0], atol=1e-12)
    assert np.abs(gated).max() > 1e-4  # individuals nonzero, only the mean is static


def _reference_session(recon, first, measurements):
    """(frames, local rotations, root positions) of a session stepped the
    way Reconstructor.step works, with root correction decoding the
    previous and the current frame on their own."""
    recon.cold_start(first)
    frames, rots, roots, root_xz = [], [], [], np.zeros(2)
    for m in measurements:
        shifted = np.concatenate([recon.window[1:], recon.window[-1:]], axis=0)
        x_input, mask = ft.apply_observation(shifted, m or ft.Measurement(), recon.tree, recon.config)
        out = inf.inpaint_denoise(recon.fast, recon.schedule, x_input, mask, recon.height,
                                  recon.spread, recon.rng, variant=recon.variant)
        emitted = out[-1].copy()
        emitted[ft.DP_OFF:ft.DP_OFF + 2] = _reference_root_correct(recon.window[-1], emitted,
                                                                   recon.scaled_tree)
        g6 = emitted[ft.R_OFF:ft.R_OFF + ft.R_LEN].reshape(ft.N_SEGMENTS, 6)
        rots.append(kin.global_to_local(recon.tree, kin.decode_rot6d(g6, strict=False)))
        root_xz = root_xz + emitted[ft.DP_OFF:ft.DP_OFF + 2]
        roots.append(np.array([root_xz[0], emitted[ft.PY_OFF], root_xz[1]]))
        recon.window = np.concatenate([x_input[:-1], emitted[None]], axis=0)
        frames.append(emitted)
    return np.stack(frames), np.stack(rots), np.stack(roots)


@pytest.mark.parametrize("insoles", [False, True])
@pytest.mark.parametrize("first_measured", [False, True])
def test_session_matches_reference_root_correction(tree, tiny_model, gait_trial, insoles, first_measured):
    # the contact points a step carries over give the frames that decoding
    # the previous frame again gives, bit for bit
    cfg, params, schedule, fast = tiny_model
    config = ft.SensorConfig(imu_sites=("pelvis", "head", "shank_l"), insoles=insoles)
    meas = list(inf.measurements_from_trial(gait_trial, config))[:25]
    meas[7] = meas[8] = None  # total signal loss
    if insoles:  # flight frames: the contact gate closes
        for k in (3, 4, 12):
            meas[k] = dataclasses.replace(meas[k], insole_labels=np.zeros(ft.B_LEN))
    first = meas[0] if first_measured else None
    kw = dict(height=gait_trial.motion.height, spread=inf.StepSpread.like_10d(3), seed=5)
    recon = inf.Reconstructor(cfg, fast, schedule, tree, config, **kw)
    recon.cold_start(first)
    results = [recon.step(m) for m in meas[1:]]
    frames, rots, roots = _reference_session(inf.Reconstructor(cfg, fast, schedule, tree, config, **kw),
                                             first, meas[1:])
    np.testing.assert_array_equal(np.stack([r.frame for r in results]), frames)
    np.testing.assert_array_equal(np.stack([r.pose.rotations for r in results]), rots)
    np.testing.assert_array_equal(np.stack([r.pose.root_position for r in results]), roots)
    gate = (frames[:, ft.B_OFF:ft.B_OFF + ft.B_LEN] >= inf.CONTACT_THRESHOLD).any(axis=1)
    assert gate.any() and (gate.all() != insoles)


@pytest.mark.parametrize("root_correction, fk_calls", [(True, 1), (False, 0)])
def test_step_decodes_the_emitted_frame_once(tree, tiny_model, gait_trial, monkeypatch,
                                             root_correction, fk_calls):
    cfg, params, schedule, fast = tiny_model
    config = ft.SensorConfig(imu_sites=("pelvis",), insoles=True)
    recon = inf.Reconstructor(cfg, fast, schedule, tree, config, height=gait_trial.motion.height,
                              spread=inf.StepSpread.like_10d(3), seed=4, root_correction=root_correction)
    recon.cold_start()
    calls = {"decode_rot6d": 0, "global_to_local": 0, "forward_kinematics": 0}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    # patched where step looks them up, as the benchmark's tracer does
    counted(inf, "decode_rot6d")
    counted(inf, "global_to_local")
    counted(kin, "forward_kinematics")
    for m in list(inf.measurements_from_trial(gait_trial, config))[:6]:
        recon.step(m)
    assert calls == {"decode_rot6d": 6, "global_to_local": 6, "forward_kinematics": 6 * fk_calls}


def test_root_correct_changes_only_dp(tree, tiny_model, gait_trial):
    # within one step (identical rng and history), correction may only
    # touch the dp channels of the emitted frame; beyond that the change
    # legitimately feeds back through the autoregression
    cfg, params, schedule, fast = tiny_model
    config = ft.SensorConfig(imu_sites=("pelvis", "head"))
    kw = dict(height=gait_trial.motion.height, spread=inf.StepSpread.like_10d(3), seed=0)
    recon = inf.Reconstructor(cfg, fast, schedule, tree, config, **kw)
    recon_nc = inf.Reconstructor(cfg, fast, schedule, tree, config, root_correction=False, **kw)
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
    recon = inf.Reconstructor(cfg, fast, schedule, tree, ft.SensorConfig(), height=1.75)
    recon.cold_start()
    assert recon.window.shape == (61, 190)
    r = recon.step(None)
    assert np.isfinite(r.pose.rotations).all() and np.isfinite(r.pose.root_position).all()


@pytest.mark.parametrize("height", [0.0, -1.0, float("nan"), float("inf"), 1e300, 3.0])
def test_reconstructor_rejects_bad_height(tree, tiny_model, height):
    cfg, params, schedule, fast = tiny_model
    with pytest.raises(ft.FeatureError, match="height"):
        inf.Reconstructor(cfg, fast, schedule, tree, ft.SensorConfig(), height=height)


def test_full_config_passthrough(tree, tiny_model, gait_trial):
    cfg, params, schedule, fast = tiny_model
    config = ft.SensorConfig(imu_sites=ft.ALL_SITES, insoles=True)
    recon = inf.Reconstructor(cfg, fast, schedule, tree, config, height=gait_trial.motion.height,
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
        recon = inf.Reconstructor(cfg, fast, schedule, tree, config,
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
    recon = inf.Reconstructor(cfg, fast, schedule, tree, config, height=gait_trial.motion.height,
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
    recon = inf.Reconstructor(cfg, fast, schedule, tree, config, height=gait_trial.motion.height,
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


def test_shared_model_caches_one_height(tree, tiny_model, gait_trial):
    cfg, params, schedule, _ = tiny_model
    fast = df.FastDenoiser(cfg, params)
    spread = inf.StepSpread.like_10d(4)
    config = ft.SensorConfig(imu_sites=("pelvis",))
    meas = list(inf.measurements_from_trial(gait_trial, config))[:3]
    for height in (1.6, 1.75, 1.9):
        inf.run_session(inf.Reconstructor(cfg, fast, schedule, tree, config, height=height,
                                          spread=spread), meas)
    height, entries = fast._cond_cache
    assert height == 1.9 and 0 < len(entries) <= len(spread)
    assert all(h == 1.9 for _, h in entries)


def test_latency_stats(tree, tiny_model):
    cfg, params, schedule, fast = tiny_model
    recon = inf.Reconstructor(cfg, fast, schedule, tree, ft.SensorConfig(), height=1.75,
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
    got = ing.push(_const_stream(2)[0])
    assert got == [] and ing.out_of_order == 1


class _ListIngestor:
    """The ingestor as a list of every record, the reference for the
    ring buffer: same filter, decimation and edge padding."""

    half = dg.SMOOTH_WINDOW // 2

    def __init__(self):
        self.frames, self.last_ms, self.next_out = [], -np.inf, 0

    def push(self, frame):
        if frame.t_ms <= self.last_ms:
            return []
        self.last_ms = frame.t_ms
        self.frames.append(frame)
        return self.drain(final=False)

    def drain(self, final):
        out, n = [], len(self.frames)
        while self.next_out < n:
            center = self.next_out
            if not final and center + self.half >= n:
                break
            out.append(self.emit(center))
            self.next_out += dg.DECIMATION
        return out

    def emit(self, center):
        frames = self.frames
        ref = frames[center]
        lo, hi = max(center - self.half, 0), min(center + self.half, len(frames) - 1)
        meas = ft.Measurement(site_orient6d={}, site_accel={},
                              insole_labels=None if ref.insoles is None else np.asarray(ref.insoles, float))
        for name, (quat, _acc) in ref.sites.items():
            acc_parts = [frames[i].sites[name][1] for i in range(lo, hi + 1) if name in frames[i].sites]
            pad_lo, pad_hi = self.half - (center - lo), self.half - (hi - center)
            if acc_parts:
                acc_parts = [acc_parts[0]] * pad_lo + acc_parts + [acc_parts[-1]] * pad_hi
            meas.site_orient6d[name] = kin.encode_rot6d(kin.quat_to_rot(np.asarray(quat, float)))
            meas.site_accel[name] = np.mean(acc_parts, axis=0)
        return inf.IngestedMeasurement(t_ms=ref.t_ms, measurement=meas)


def _random_stream(seed, n):
    """Records with per-site dropouts, uneven spacing, a few out-of-order
    timestamps and intermittent insoles."""
    rng = np.random.default_rng(seed)
    frames, t = [], 0.0
    for _ in range(n):
        t += rng.uniform(2.0, 30.0)
        t_ms = t - 40.0 if rng.random() < 0.05 else t
        sites = {name: (rng.standard_normal(4), rng.standard_normal(3))
                 for name in ("pelvis", "head", "wrist_l") if rng.random() < 0.8}
        insoles = rng.integers(0, 2, ft.B_LEN).astype(float) if rng.random() < 0.5 else None
        frames.append(inf.StreamFrame(t_ms=t_ms, sites=sites, insoles=insoles))
    return frames


def _assert_same_measurements(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.t_ms == w.t_ms and g.latency_frames == w.latency_frames
        gm, wm = g.measurement, w.measurement
        assert list(gm.site_orient6d) == list(wm.site_orient6d)
        for name in wm.site_orient6d:
            np.testing.assert_array_equal(gm.site_orient6d[name], wm.site_orient6d[name])
            np.testing.assert_array_equal(gm.site_accel[name], wm.site_accel[name])
        assert (gm.insole_labels is None) == (wm.insole_labels is None)
        if wm.insole_labels is not None:
            np.testing.assert_array_equal(gm.insole_labels, wm.insole_labels)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 120))
def test_ingest_ring_buffer_matches_full_history(seed, n):
    ing, ref = inf.StreamIngestor(), _ListIngestor()
    got, want = [], []
    for fr in _random_stream(seed, n):
        got.extend(ing.push(fr))
        want.extend(ref.push(fr))
        _assert_same_measurements(got, want)
    _assert_same_measurements(got + ing.finish(), want + ref.drain(final=True))


def test_ingest_holds_at_most_one_filter_window():
    ing = inf.StreamIngestor()
    for fr in _random_stream(3, 3000):
        ing.push(fr)
        assert len(ing.frames) <= dg.SMOOTH_WINDOW
    assert ing.received + ing.out_of_order == 3000 and len(ing.frames) == dg.SMOOTH_WINDOW


def test_ingest_bad_samples_become_dropouts():
    q, a = np.array([1.0, 0, 0, 0]), np.array([1.0, 2.0, 3.0])
    bad = [(np.zeros(4), a), (np.array([1e-320, 0, 0, 0]), a), (np.array([np.nan, 0, 0, 1]), a),
           (np.array([np.inf, 0, 0, 0]), a), (np.array([1e300, 1e300, 0, 0]), a),
           (q, np.array([0, np.nan, 0])), (q, np.array([np.inf, 0, 0]))]
    frames = _const_stream(40)
    for k, site in enumerate(bad):
        frames[10 + k] = inf.StreamFrame(t_ms=frames[10 + k].t_ms, sites={"pelvis": site},
                                         insoles=np.array([1.0, np.nan, 0, 0]) if k == 0 else None)
    kept = [fr.sites["pelvis"] for fr in frames]
    ing = inf.StreamIngestor()
    outs = [o for fr in frames for o in ing.push(fr)] + ing.finish()
    assert ing.bad_samples == len(bad) + 1 and ing.out_of_order == 0
    assert [fr.sites["pelvis"] for fr in frames] == kept  # the caller's records are untouched
    # the instants at bad records lose the site; every average stays exact
    absent = [round(o.t_ms * 60 / 1000) for o in outs if "pelvis" not in o.measurement.site_accel]
    assert absent == [12, 15] and len(outs) == 14
    for o in outs:
        assert o.measurement.insole_labels is None
        if "pelvis" in o.measurement.site_accel:
            np.testing.assert_allclose(o.measurement.site_accel["pelvis"], [1, 2, 3], rtol=1e-12)


def test_ingest_insoles_outside_zero_one_are_dropped():
    frames = _const_stream(20)
    for k, insoles in enumerate(([1.0, 0.0, 0.5, 1.0], [2.0, 0, 0, 0], [0, -1.0, 0, 0])):
        frames[3 * k] = inf.StreamFrame(t_ms=frames[3 * k].t_ms, sites=frames[3 * k].sites,
                                        insoles=np.array(insoles))
    frames[9] = inf.StreamFrame(t_ms=frames[9].t_ms, sites=frames[9].sites, insoles=np.array([1.0, 0, 0, 1.0]))
    ing = inf.StreamIngestor()
    outs = [o for fr in frames for o in ing.push(fr)] + ing.finish()
    assert ing.bad_samples == 3
    assert [o.measurement.insole_labels is not None for o in outs[:4]] == [False, False, False, True]
    np.testing.assert_array_equal(outs[3].measurement.insole_labels, [1, 0, 0, 1])


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


def test_stream_file_writes_huge_finite_values_finite(tmp_path):
    # rounding to 9 decimals would overflow these; they are written as they are
    a = np.array([1e308, -1e300, 1.5])
    p = tmp_path / "in.jsonl"
    inf.write_stream_file(p, [inf.StreamFrame(t_ms=0.0, sites={"pelvis": (np.array([1.0, 0, 0, 0]), a)})])
    assert "Infinity" not in p.read_text()
    (back,) = inf.parse_stream_file(p)
    np.testing.assert_array_equal(back.sites["pelvis"][1], a)


def test_stream_file_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"format": "something-else", "version": 9}\n')
    with pytest.raises(inf.InferenceError):
        inf.parse_stream_file(p)


@pytest.mark.parametrize("record", [
    {"t_ms": 0, "sites": {"pelvis": {"q": [1, 0, 0, 0]}}},
    {"t_ms": 0, "sites": {"pelvis": {"q": [1, 0, 0, 0], "a": [0, 0]}}},
    {"t_ms": 0, "sites": {"pelvis": {"q": [1, 0, 0, 0, 0], "a": [0, 0, 0]}}},
    {"t_ms": 0, "insoles": [1, 0, 1]},
    {"t_ms": [0, 1]},
    {"t_ms": "soon"},
    {"t_ms": 0, "sites": ["pelvis"]},
    [0],
])
def test_stream_file_rejects_malformed_record(tmp_path, record):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"format": "imu-stream", "version": 1, "rate_hz": 60}\n{"t_ms": -20}\n'
                 + json.dumps(record) + "\n")
    with pytest.raises(inf.InferenceError, match=f"^{re.escape(str(p))}:3: "):
        inf.parse_stream_file(p)


@pytest.mark.parametrize("field, value", [
    ("root", [0, 0]), ("q", [[1, 0, 0, 0]] * 23), ("q", [[1, 0, 0]] * 24), ("contact", [0, 0, 0, 0, 0]),
])
def test_pose_stream_rejects_wrong_length_vector(tmp_path, field, value):
    record = {"t_ms": 0, "root": [0, 0, 0], "q": [[1, 0, 0, 0]] * 24, "contact": [0, 0, 0, 0], field: value}
    p = tmp_path / "bad.jsonl"
    p.write_text('{"format": "pose-stream", "version": 1}\n' + json.dumps(record) + "\n")
    with pytest.raises(inf.InferenceError, match=f"^{re.escape(str(p))}:2: field '{field}' has shape"):
        inf.read_pose_stream(p)


def test_pose_stream_round_trip(tmp_path, tree, tiny_model, gait_trial):
    cfg, params, schedule, fast = tiny_model
    config = ft.SensorConfig(imu_sites=("pelvis",))
    recon = inf.Reconstructor(cfg, fast, schedule, tree, config, height=gait_trial.motion.height,
                              spread=inf.StepSpread.like_10d(3), seed=4)
    recon.cold_start()
    results = [recon.step(m) for m in list(inf.measurements_from_trial(gait_trial, config))[:5]]
    p = tmp_path / "out.jsonl"
    inf.write_pose_stream(p, tree, results)
    rot, root, contacts = inf.read_pose_stream(p)
    assert rot.shape == (5, 24, 3, 3)
    np.testing.assert_allclose(root[3], results[3].pose.root_position, atol=1e-8)
    np.testing.assert_allclose(rot[3], results[3].pose.rotations, atol=1e-7)


def _reference_wire_values(x):
    with np.errstate(over="ignore"):
        r = np.round(x, 9)
    return np.where(np.isfinite(r), r, x).tolist()


def _reference_write_stream_file(path, frames):
    # the imu-stream writer as it was before the one JSON-lines writer
    with open(path, "w") as f:
        f.write(json.dumps({"format": "imu-stream", "version": 1, "rate_hz": 60}) + "\n")
        for fr in frames:
            rec = {
                "t_ms": fr.t_ms,
                "sites": {n: {"q": _reference_wire_values(q), "a": _reference_wire_values(a)}
                          for n, (q, a) in fr.sites.items()},
            }
            if fr.insoles is not None:
                rec["insoles"] = [int(x) for x in fr.insoles]
            f.write(json.dumps(rec) + "\n")


def _reference_write_pose_stream(path, tree, results, rate_hz=20.0):
    # the pose-stream writer as it was before the one JSON-lines writer
    with open(path, "w") as f:
        f.write(json.dumps({
            "format": "pose-stream", "version": 1,
            "rate_hz": rate_hz, "segments": list(tree.names),
        }) + "\n")
        for r in results:
            quats = kin.rot_to_quat(r.pose.rotations)
            f.write(json.dumps({
                "t_ms": round(r.index * 1000.0 / rate_hz, 3),
                "root": np.round(r.pose.root_position, 9).tolist(),
                "q": np.round(quats, 9).tolist(),
                "contact": np.round(r.contacts, 6).tolist(),
                "latency_ms": round(r.latency_ms, 3),
            }) + "\n")


def test_writers_keep_their_bytes(tmp_path, tree, tiny_model, gait_trial):
    cfg, params, schedule, fast = tiny_model
    config = ft.SensorConfig(imu_sites=("pelvis", "head"), insoles=True)
    frames = inf.stream_frames_from_trial(gait_trial, config, tree, drop_ranges=[(4, 9)])[:30]
    frames[5] = inf.StreamFrame(t_ms=frames[5].t_ms, sites={
        "pelvis": (np.array([1.0, 0, 0, 0]), np.array([1e308, -1e300, 1.5 + 1e-12]))})
    got, want = tmp_path / "got.jsonl", tmp_path / "want.jsonl"
    inf.write_stream_file(got, frames)
    _reference_write_stream_file(want, frames)
    assert got.read_bytes() == want.read_bytes()

    recon = inf.Reconstructor(cfg, fast, schedule, tree, config, height=gait_trial.motion.height,
                              spread=inf.StepSpread.like_10d(3), seed=4)
    results = inf.run_session(recon, list(inf.measurements_from_trial(gait_trial, config))[:8])
    inf.write_pose_stream(got, tree, results)
    _reference_write_pose_stream(want, tree, results)
    assert got.read_bytes() == want.read_bytes()
