import sys
import threading

import numpy as np
import pytest

from imufill import datagen as dg
from imufill import diffusion as df
from imufill import features as ft
from imufill import kinematics as kin
from imufill import tensor as tt
from imufill.tensor import Tensor


@pytest.fixture(scope="module")
def stationary_window(tree):
    m = dg.generate_motion("stationary", seed=1, duration_s=4.0, trial_id="stat")
    trial = dg.make_trial(m, tree)
    return trial.features(tree)[:61].copy()


@pytest.fixture(scope="module")
def gait_window(tree):
    m = dg.generate_motion("gait", seed=3, duration_s=6.0, speed=1.1, trial_id="g")
    trial = dg.make_trial(m, tree)
    return trial.features(tree)[:61].copy()


# -- schedule ---------------------------------------------------------------


@pytest.mark.parametrize("T", [10, 100, 1000])
def test_cosine_schedule_invariants(T):
    s = df.build_cosine_schedule(T)
    assert s.alpha_bar[0] >= 0.999
    assert s.alpha_bar[-1] <= 1e-3
    assert (np.diff(s.alpha_bar) < 0).all()


def test_cosine_schedule_midpoint_closed_form():
    s = df.build_cosine_schedule(1000)
    # closed form at t=500: cos^2(((0.5 + s)/(1 + s)) * pi/2) / cos^2((s/(1+s)) * pi/2)
    c = 0.008
    expect = np.cos(((0.5 + c) / (1 + c)) * np.pi / 2) ** 2 / np.cos((c / (1 + c)) * np.pi / 2) ** 2
    assert s.alpha_bar[500] == pytest.approx(expect, rel=1e-12)
    assert s.alpha_bar[500] == pytest.approx(0.4938435904406378, abs=1e-12)  # frozen from the closed form


def test_schedule_rejects_tiny_T():
    with pytest.raises(df.ScheduleError):
        df.build_cosine_schedule(1)


# -- forward noising --------------------------------------------------------


def test_noise_t0_is_clean(stationary_window):
    s = df.build_cosine_schedule(1000)
    rng = np.random.default_rng(0)
    z = df.noise_window(stationary_window, 0, s, rng)
    np.testing.assert_allclose(z, stationary_window, atol=1e-12)


def test_noise_tT_moments():
    s = df.build_cosine_schedule(1000)
    rng = np.random.default_rng(1)
    x = np.full((100, 1000), 3.0)
    z = df.noise_window(x, s.T, s, rng)
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1.0) < 0.02


def test_noise_deterministic():
    s = df.build_cosine_schedule(100)
    x = np.ones((4, 5))
    a = df.noise_window(x, 50, s, np.random.default_rng(7))
    b = df.noise_window(x, 50, s, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)


# -- denoiser ---------------------------------------------------------


def _forward(cfg, params, window, t, h):
    """One window through the graph forward: (61, 190) -> (61, 190)."""
    return df.denoiser_forward(cfg, params, window[None], np.array([t]), np.array([h])).data[0]


def test_denoiser_output_shape(stationary_window):
    cfg = df.DenoiserConfig(layers=1, width=16, ff=32)
    params = df.init_denoiser(cfg, seed=0)
    out = _forward(cfg, params, stationary_window, t=10, h=1.75)
    assert out.shape == (61, 190)
    assert np.isfinite(out).all()


@pytest.mark.parametrize("size", [dict(layers=0), dict(width=0), dict(ff=0), dict(nhead=0)])
def test_denoiser_config_rejects_nonpositive_sizes(size):
    with pytest.raises(ValueError, match="positive"):
        df.DenoiserConfig(**size)


def test_param_count_pure_function_of_size():
    c1 = df.param_count(df.DenoiserConfig(layers=1, width=16, ff=32))
    c2 = df.param_count(df.DenoiserConfig(layers=1, width=16, ff=32))
    assert c1 == c2
    assert df.param_count(df.DenoiserConfig(layers=2, width=16, ff=32)) > c1


def test_height_sensitivity_and_zeroed_pathway(stationary_window):
    cfg = df.DenoiserConfig(layers=1, width=16, ff=32)
    params = df.init_denoiser(cfg, seed=3)
    a = _forward(cfg, params, stationary_window, t=5, h=1.60)
    b = _forward(cfg, params, stationary_window, t=5, h=1.90)
    assert not np.allclose(a, b)  # untrained but height pathway wired
    for k in ("height_mlp.w1", "height_mlp.b1", "height_mlp.w2", "height_mlp.b2"):
        params[k] = Tensor(np.zeros_like(params[k].data), requires_grad=True)
    a = _forward(cfg, params, stationary_window, t=5, h=1.60)
    b = _forward(cfg, params, stationary_window, t=5, h=1.90)
    np.testing.assert_array_equal(a, b)


def test_time_permutation_sensitivity(stationary_window, gait_window):
    cfg = df.DenoiserConfig(layers=1, width=16, ff=32)
    params = df.init_denoiser(cfg, seed=4)
    rng = np.random.default_rng(5)
    perm = rng.permutation(61)
    out1 = _forward(cfg, params, gait_window, t=100, h=1.75)
    out2 = _forward(cfg, params, gait_window[perm], t=100, h=1.75)
    assert not np.allclose(out1[perm], out2)


def test_fast_denoiser_matches_graph(gait_window):
    cfg = df.DenoiserConfig(layers=2, width=32, ff=64)
    params = df.init_denoiser(cfg, seed=6, dtype=np.float64)
    fast = df.FastDenoiser(cfg, params, dtype=np.float64)
    for t in (0, 77, 1000):
        a = _forward(cfg, params, gait_window, t=t, h=1.8)
        b = fast.predict(gait_window, t=t, h=1.8)
        np.testing.assert_allclose(b, a, atol=1e-10)
    # float32 path stays close
    params32 = {k: Tensor(v.data.astype(np.float32), requires_grad=True) for k, v in params.items()}
    fast32 = df.FastDenoiser(cfg, params32, dtype=np.float32)
    b32 = fast32.predict(gait_window.astype(np.float32), t=77, h=1.8)
    a = _forward(cfg, params, gait_window, t=77, h=1.8)
    np.testing.assert_allclose(b32, a, atol=5e-3)


def _unfolded_cross_attention(x, memory, P, prefix, nhead):
    """The cross-attention block as d-by-d query and output projections
    over every token, the reference the folded graph block must match."""
    d = x.shape[-1]
    cq = df._split_heads(df._linear(x, P[prefix + "cross.wq"], P[prefix + "cross.bq"]), nhead)
    ckv = df._linear(memory, P[prefix + "cross.wkv"], P[prefix + "cross.bkv"])
    ck, cv = df._split_heads(ckv[:, :, :d], nhead), df._split_heads(ckv[:, :, d:], nhead)
    cross = df._merge_heads(tt.softmax_attention(cq, ck, cv))
    return df._linear(cross, P[prefix + "cross.wo"], P[prefix + "cross.bo"])


@pytest.mark.parametrize("nhead", [1, 2, 4])
@pytest.mark.parametrize("batch", [1, 3])
def test_folded_cross_attention_matches_unfolded_block(nhead, batch):
    rng = np.random.default_rng(10 * nhead + batch)
    d = 8
    P = {"layers.0.cross." + k: Tensor(rng.standard_normal(shape) * 0.5, requires_grad=True, dtype=np.float64)
         for k, shape in {"wq": (d, d), "bq": (d,), "wkv": (d, 2 * d), "bkv": (2 * d,),
                          "wo": (d, d), "bo": (d,)}.items()}
    x = Tensor(rng.standard_normal((batch, 5, d)), requires_grad=True, dtype=np.float64)
    memory = Tensor(rng.standard_normal((batch, 2, d)), requires_grad=True, dtype=np.float64)
    w = Tensor(rng.standard_normal((batch, 5, d)))
    leaves = {"x": x, "memory": memory, **P}
    outs = []
    for block in (df._cross_attention, _unfolded_cross_attention):
        out = block(x, memory, P, "layers.0.", nhead)
        outs.append((out.data, tt.grads_by_name(tt.tsum(tt.mul(out, w)), leaves)))
    (folded, g_folded), (unfolded, g_unfolded) = outs
    np.testing.assert_allclose(folded, unfolded, rtol=0, atol=1e-10)
    for name in leaves:
        np.testing.assert_allclose(g_folded[name], g_unfolded[name], rtol=0, atol=1e-10, err_msg=name)


def test_evaluate_simple_loss_records_no_graph(monkeypatch, gait_window):
    cfg = df.DenoiserConfig(layers=1, width=16, ff=32)
    params = df.init_denoiser(cfg, seed=2)
    schedule = df.build_cosine_schedule(100)
    windows, heights = np.stack([gait_window, gait_window[::-1]]), np.array([1.7, 1.8])
    # the loss as it was computed on the parameters themselves
    rng = np.random.default_rng([4, 909])
    x = windows.astype(np.float32)
    ts = np.full(2, 50)
    z = df.noise_window(x.astype(np.float64), ts, schedule, rng).astype(np.float32)
    pred = df.denoiser_forward(cfg, params, z, ts, heights)
    assert pred._parents  # the graph forward on trainable parameters records a graph
    expected = float(((pred.data - x) ** 2).sum() / 2)

    real, forwards = df.denoiser_forward, []

    def spy(*args):
        forwards.append(real(*args))
        return forwards[-1]

    monkeypatch.setattr(df, "denoiser_forward", spy)
    got = df.evaluate_simple_loss(cfg, params, schedule, windows, heights, seed=4)
    assert got == expected  # bit-equal
    assert len(forwards) == 1 and forwards[0]._parents == () and forwards[0]._vjp is None


def test_predict_returns_fresh_array_and_leaves_parameters_alone(gait_window):
    cfg = df.DenoiserConfig(layers=2, width=32, ff=64)
    params = df.init_denoiser(cfg, seed=8)
    before = {k: v.data.tobytes() for k, v in params.items()}
    fast = df.FastDenoiser(cfg, params)
    weights = {k: v.tobytes() for k, v in fast.w.items()}
    z = gait_window.astype(np.float32)
    a = fast.predict(z, 77, 1.8)        # fills the conditioning cache
    kept = a.copy()
    fast.predict(z, 77, 1.8, rows=[60])
    fast.predict(z[::-1], 500, 1.6)     # another cache fill, other input
    fast.predict(z[::-1], 77, 1.8)      # cached conditioning, other input
    assert a.tobytes() == kept.tobytes()
    assert {k: v.data.tobytes() for k, v in params.items()} == before
    assert {k: v.tobytes() for k, v in fast.w.items()} == weights


@pytest.mark.parametrize("nhead", [1, 2, 4])
def test_predict_rows_match_full_prediction(gait_window, nhead):
    cfg = df.DenoiserConfig(layers=2, width=32, ff=64, nhead=nhead)
    params = df.init_denoiser(cfg, seed=9, dtype=np.float64)
    fast = df.FastDenoiser(cfg, params, dtype=np.float64)
    z = gait_window + np.random.default_rng(nhead).standard_normal(gait_window.shape)
    for t in (0, 300, 1000):
        full = fast.predict(z, t, 1.7)
        for rows in ([60], [0, 30, 60], list(range(61))):
            part = fast.predict(z, t, 1.7, rows=rows)
            assert part.shape == (len(rows), 190)
            np.testing.assert_allclose(part, full[rows], rtol=0, atol=1e-12)


def test_one_fast_denoiser_shared_by_two_threads(gait_window):
    cfg = df.DenoiserConfig(layers=2, width=64, ff=128)
    params = df.init_denoiser(cfg, seed=10)
    z = gait_window.astype(np.float32)
    jobs = [(z, 0, 1.6, None), (z[::-1], 300, 1.7, [60]), (z + 0.5, 700, 1.8, [0, 30, 60]),
            (-z, 1000, 1.9, None)]
    serial = df.FastDenoiser(cfg, params)
    want = [serial.predict(zz, t, h, rows=rows).tobytes() for zz, t, h, rows in jobs]
    shared = df.FastDenoiser(cfg, params)
    got: list[list] = [[], []]

    def work(k):
        for i in range(150):
            j = (i + 2 * k) % len(jobs)  # the two threads run different jobs at once
            zz, t, h, rows = jobs[j]
            got[k].append(shared.predict(zz, t, h, rows=rows).tobytes() == want[j])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert [len(g) for g in got] == [150, 150]
    assert sum(not ok for g in got for ok in g) == 0


# -- losses ----------------------------------------------------------------


def _ctx(tree, h=1.75, batch=1):
    return df.make_fk_context(tree, np.full(batch, h))


def test_all_losses_zero_on_perfect_stationary_prediction(tree, stationary_window):
    pred = Tensor(stationary_window[None].astype(np.float64))
    total, bd = df.diffusion_losses(pred, stationary_window[None], _ctx(tree))
    for name, val in bd.as_dict().items():
        assert val == pytest.approx(0.0, abs=1e-15), name


def test_simple_vel_fk_drift_zero_on_perfect_gait_prediction(tree, gait_window):
    pred = Tensor(gait_window[None].astype(np.float64))
    total, bd = df.diffusion_losses(pred, gait_window[None], _ctx(tree))
    assert bd.simple == 0 and bd.vel == 0 and bd.fk == 0 and bd.drift == 0
    # slide may be small-positive even on ground truth: a point labeled
    # in contact at frame i can start its swing inside the i -> i+1 interval
    assert 0 <= bd.slide < 0.1
    # with contact channels zeroed the gate kills the term entirely
    unlabeled = gait_window.copy()
    unlabeled[:, ft.B_OFF:ft.B_OFF + ft.B_LEN] = 0.0
    _, bd0 = df.diffusion_losses(Tensor(unlabeled[None]), unlabeled[None], _ctx(tree))
    assert bd0.slide == 0.0


def test_total_is_sum_of_parts(tree, gait_window):
    rng = np.random.default_rng(0)
    pred = Tensor(gait_window[None] + 0.1 * rng.standard_normal((1, 61, 190)))
    total, bd = df.diffusion_losses(pred, gait_window[None], _ctx(tree))
    assert bd.total == pytest.approx(bd.simple + bd.vel + bd.fk + bd.drift + bd.slide, rel=1e-12)
    for v in bd.as_dict().values():
        assert v >= 0


def test_drift_perturbation_algebra(tree, stationary_window):
    delta, k = 0.37, 17
    x = stationary_window[None].astype(np.float64)
    pred = x.copy()
    pred[0, k, ft.DP_OFF] += delta
    _, bd = df.diffusion_losses(Tensor(pred), x, _ctx(tree))
    assert bd.drift == pytest.approx((61 - k) * delta**2, rel=1e-12)
    # frame 0 perturbation hits every cumulative sum
    pred = x.copy()
    pred[0, 0, ft.DP_OFF + 1] += delta
    _, bd = df.diffusion_losses(Tensor(pred), x, _ctx(tree))
    assert bd.drift == pytest.approx(61 * delta**2, rel=1e-12)


def test_slide_brute_force_oracle_three_frames(tree):
    # 3-frame toy motion: T-pose translating horizontally with contacts on
    rng = np.random.default_rng(2)
    T = 3
    pose = kin.identity_pose(tree)
    rot = np.broadcast_to(pose.rotations, (T, 24, 3, 3)).copy()
    root = np.stack([pose.root_position + [0.05 * i, 0.0, -0.02 * i] for i in range(T)])
    contacts = np.array([[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 1, 1]], dtype=float)
    frames = ft.encode_frames(tree, rot, root, np.zeros((T, 13, 3)), contacts)

    pred = Tensor(frames[None].astype(np.float64))
    _, bd = df.diffusion_losses(pred, frames[None], _ctx(tree))

    # brute force: sum_i sum_c b[i,c] * |world horizontal displacement|^2
    fk = kin.forward_kinematics(tree, rot, root)
    world_xz = fk.contacts[:, :, [0, 2]]
    expect = 0.0
    for i in range(T - 1):
        for c in range(4):
            d = world_xz[i + 1, c] - world_xz[i, c]
            expect += contacts[i, c] * (d @ d)
    assert bd.slide == pytest.approx(expect, rel=1e-9)
    assert expect > 0


def test_losses_batched_mean(tree, gait_window, stationary_window):
    xa, xb = gait_window[None], stationary_window[None]
    rng = np.random.default_rng(3)
    noise = 0.05 * rng.standard_normal((1, 61, 190))
    _, bda = df.diffusion_losses(Tensor(xa + noise), xa, _ctx(tree))
    _, bdb = df.diffusion_losses(Tensor(xb + noise), xb, _ctx(tree))
    both = np.concatenate([xa + noise, xb + noise])
    _, bd2 = df.diffusion_losses(Tensor(both), np.concatenate([xa, xb]), _ctx(tree, batch=2))
    assert bd2.total == pytest.approx((bda.total + bdb.total) / 2, rel=1e-9)


def test_training_step_gradcheck_small(tree, gait_window):
    # quick end-to-end check at a smaller size; the full (1,16,32) sweep
    # over every parameter runs in the acceptance suite
    cfg = df.DenoiserConfig(layers=1, width=8, ff=16)
    params = df.init_denoiser(cfg, seed=7, dtype=np.float64)
    schedule = df.build_cosine_schedule(100)
    rng = np.random.default_rng(8)
    x = gait_window[None]
    z = df.noise_window(x, 40, schedule, rng)
    ctx = _ctx(tree)

    def loss():
        pred = df.denoiser_forward(cfg, params, z, np.array([40]), np.array([1.75]))
        total, _ = df.diffusion_losses(pred, x, ctx)
        return total

    rep = tt.gradcheck(loss, params, subset=6, rng=np.random.default_rng(9))
    assert rep.max_rel_err < 1e-4, (rep.worst_param, rep.max_rel_err)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_training_divergence_detected(tree, stationary_window):
    cfg = df.DenoiserConfig(layers=1, width=8, ff=16)
    params = df.init_denoiser(cfg, seed=0)
    params["out_proj.w"] = Tensor(np.full_like(params["out_proj.w"].data, 1e30), requires_grad=True)
    schedule = df.build_cosine_schedule(100)
    with pytest.raises(df.TrainingDiverged):
        df.training_step(cfg, params, schedule, stationary_window[None], np.array([1.75]),
                         np.array([50]), np.random.default_rng(0), tree)


def test_train_loss_decreases_and_is_deterministic(tree, stationary_window):
    cfg = df.TrainConfig(model=df.DenoiserConfig(layers=1, width=16, ff=32),
                         steps=60, batch=1, lr=3e-3, seed=5, T=100)
    win = stationary_window[None]
    hs = np.array([1.75])

    def sample(n):
        return win, hs

    r1 = df.train(sample, tree, cfg)
    r2 = df.train(sample, tree, cfg)
    c1 = [b.total for b in r1.losses]
    c2 = [b.total for b in r2.losses]
    np.testing.assert_array_equal(c1, c2)  # identical loss curve under fixed seed
    assert np.mean(c1[-10:]) < 0.5 * np.mean(c1[:5])


def test_checkpoint_round_trip(tmp_path, tree):
    cfg = df.DenoiserConfig(layers=1, width=16, ff=32)
    params = df.init_denoiser(cfg, seed=11)
    schedule = df.build_cosine_schedule(50)
    p = tmp_path / "model.imfc"
    df.save_checkpoint(p, cfg, params, schedule, tree)
    cfg2, params2, sched2 = df.load_checkpoint(p, tree)
    assert cfg2 == cfg and sched2.T == 50
    for k in params:
        np.testing.assert_array_equal(params2[k].data, params[k].data)


def test_checkpoint_refuses_wrong_skeleton(tmp_path, tree):
    cfg = df.DenoiserConfig(layers=1, width=16, ff=32)
    params = df.init_denoiser(cfg, seed=11)
    p = tmp_path / "model.imfc"
    df.save_checkpoint(p, cfg, params, df.build_cosine_schedule(50), tree)
    with pytest.raises(df.CheckpointError, match="skeleton"):
        df.load_checkpoint(p, tree.scaled(1.9))


def _checkpoint_cuts(params: dict, size: int) -> dict[str, int]:
    """Lengths at which to cut a saved checkpoint of `size` bytes: inside
    the header and inside the first parameter record's name, shape and
    values, and one byte short of the end."""
    header = 4 + 4 + 16 + 4 + 4 + len(b"cosine") + 64 + 64 + 4
    name = sorted(params)[0]
    arr = params[name].data
    shape_at = header + 4 + len(name.encode()) + 1 + 4
    values_at = shape_at + 4 * arr.ndim
    return {"header": 22, "name": header + 4 + 1, "shape": shape_at + 2,
            "values": values_at + arr.nbytes // 2, "last byte": size - 1}


def test_checkpoint_truncated_raises_typed_error(tmp_path, tree):
    cfg = df.DenoiserConfig(layers=1, width=16, ff=32)
    params = df.init_denoiser(cfg, seed=11)
    p = tmp_path / "model.imfc"
    df.save_checkpoint(p, cfg, params, df.build_cosine_schedule(50), tree)
    blob = p.read_bytes()
    short = tmp_path / "short.imfc"
    for where, cut in _checkpoint_cuts(params, len(blob)).items():
        assert 4 < cut < len(blob), where
        short.write_bytes(blob[:cut])
        with pytest.raises(df.CheckpointError, match="truncated checkpoint"):
            df.load_checkpoint(short, tree)
