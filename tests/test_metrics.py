import numpy as np
import pytest

from imufill import datagen as dg
from imufill import diffusion as df
from imufill import features as ft
from imufill import inference as inf
from imufill import kinematics as kin
from imufill import metrics as mt

from conftest import random_rotations


@pytest.fixture(scope="module")
def gait20(tree):
    m = dg.generate_motion("gait", seed=31, duration_s=12.0, speed=1.1, trial_id="g31")
    return dg.decimate_motion(m)


def _copy(m, rotations=None, root=None):
    return dg.MotionSequence(
        m.rate,
        m.rotations.copy() if rotations is None else rotations,
        m.root_positions.copy() if root is None else root,
        m.height, m.mass, m.trial_id,
    )


def test_identity_metrics(tree, gait20):
    rep = mt.compute_metrics(gait20, _copy(gait20), tree)
    assert rep.la_deg == pytest.approx(0.0, abs=1e-6)
    assert rep.ga_deg == pytest.approx(0.0, abs=1e-6)
    assert rep.jpe_cm == pytest.approx(0.0, abs=1e-6)
    assert rep.jitter == pytest.approx(1.0, rel=1e-12)
    assert rep.re2_m == pytest.approx(0.0, abs=1e-12)
    assert rep.re5_m == pytest.approx(0.0, abs=1e-12)
    assert rep.re10_m == pytest.approx(0.0, abs=1e-12)


def test_ga_fixed_global_rotation_offset(tree, gait20):
    # compose every global orientation with a fixed 10 degree rotation
    off = kin.rotation_about("z", 10.0)
    g = kin.local_to_global(tree, gait20.rotations)
    rec_rot = kin.global_to_local(tree, g @ off)
    rep = mt.compute_metrics(gait20, _copy(gait20, rotations=rec_rot), tree)
    assert rep.ga_deg == pytest.approx(10.0, abs=1e-6)


def test_re_rigid_offset(tree, gait20):
    root = gait20.root_positions.copy()
    root[1:, 0] += 0.3  # drift of 0.3 m appearing after the aligned first frame
    rep = mt.compute_metrics(gait20, _copy(gait20, root=root), tree)
    assert rep.re2_m == pytest.approx(0.3, abs=1e-12)
    assert rep.re5_m == pytest.approx(0.3, abs=1e-12)
    assert rep.re10_m == pytest.approx(0.3, abs=1e-12)


def test_re_absent_for_short_sequences(tree, gait20):
    short_gt = dg.MotionSequence(20.0, gait20.rotations[:100], gait20.root_positions[:100],
                                 gait20.height, gait20.mass, "short")
    rep = mt.compute_metrics(short_gt, short_gt, tree)
    assert rep.re2_m is not None
    assert rep.re5_m is None and rep.re10_m is None


def test_length_mismatch_rejected(tree, gait20):
    bad = dg.MotionSequence(20.0, gait20.rotations[:-1], gait20.root_positions[:-1],
                            gait20.height, gait20.mass)
    with pytest.raises(mt.MetricsError, match="length"):
        mt.compute_metrics(gait20, bad, tree)


def test_la_ga_invariant_under_shared_rigid_rotation(tree, gait20):
    rng = np.random.default_rng(0)
    rec_rot = gait20.rotations.copy()
    rec_rot[:, 5] = rec_rot[:, 5] @ kin.rotation_about("x", 7.0)  # perturb one knee
    rec = _copy(gait20, rotations=rec_rot)
    base = mt.compute_metrics(gait20, rec, tree)

    W = random_rotations(rng)  # one shared world rotation
    def rotate(m):
        rot = m.rotations.copy()
        rot[:, 0] = W @ rot[:, 0]
        root = (W @ m.root_positions.T).T
        return dg.MotionSequence(m.rate, rot, root, m.height, m.mass, m.trial_id)

    got = mt.compute_metrics(rotate(gait20), rotate(rec), tree)
    assert got.la_deg == pytest.approx(base.la_deg, abs=1e-4)
    assert got.ga_deg == pytest.approx(base.ga_deg, abs=1e-4)


def test_metrics_invariant_to_appending_identical_frames(tree, gait20):
    rec_rot = gait20.rotations.copy()
    rec_rot[:, 4] = rec_rot[:, 4] @ kin.rotation_about("x", 5.0)
    rec = _copy(gait20, rotations=rec_rot)
    base = mt.compute_metrics(gait20, rec, tree)

    def extend(m, k=40):
        rot = np.concatenate([m.rotations, np.repeat(m.rotations[-1:], k, axis=0)])
        root = np.concatenate([m.root_positions, np.repeat(m.root_positions[-1:], k, axis=0)])
        return dg.MotionSequence(m.rate, rot, root, m.height, m.mass, m.trial_id)

    got = mt.compute_metrics(extend(gait20), extend(rec), tree)
    # angular means shift only by the (identical) appended frames' zero/nonzero mix
    assert got.ga_deg <= base.ga_deg + 1e-9
    assert got.la_deg <= base.la_deg + 1e-9
    # jitter tolerant to the filter edge at the splice
    assert got.jitter == pytest.approx(base.jitter, rel=0.1)


def test_excluded_joints_do_not_move_metrics(tree, gait20):
    rec_rot = gait20.rotations.copy()
    for name in mt.EXCLUDED_SEGMENTS:
        rec_rot[:, tree.index(name)] = rec_rot[:, tree.index(name)] @ kin.rotation_about("y", 25.0)
    rep = mt.compute_metrics(gait20, _copy(gait20, rotations=rec_rot), tree)
    assert rep.la_deg == pytest.approx(0.0, abs=1e-6)
    assert rep.ga_deg == pytest.approx(0.0, abs=1e-6)


def test_legs_back_subsets(tree, gait20):
    rec_rot = gait20.rotations.copy()
    rec_rot[:, tree.index("shank_l")] = rec_rot[:, tree.index("shank_l")] @ kin.rotation_about("x", 12.0)
    rep = mt.compute_metrics(gait20, _copy(gait20, rotations=rec_rot), tree)
    assert rep.legs_la_deg == pytest.approx(12.0 / 6, abs=1e-6)  # one of six leg joints
    assert rep.back_la_deg == pytest.approx(0.0, abs=1e-6)


def test_jitter_nan_for_still_ground_truth(tree):
    m = dg.decimate_motion(dg.generate_motion("stationary", seed=1, duration_s=6.0))
    rep = mt.compute_metrics(m, _copy(m), tree)
    assert np.isnan(rep.jitter)


def test_aggregate_mean_and_worst(tree, gait20):
    reps = []
    for deg in (5.0, 15.0):
        rot = gait20.rotations.copy()
        rot[:, 5] = rot[:, 5] @ kin.rotation_about("x", deg)
        reps.append(mt.compute_metrics(gait20, _copy(gait20, rotations=rot), tree))
    agg = mt.aggregate_reports(reps)
    assert agg["LA_deg"]["worst"] == pytest.approx(max(r.la_deg for r in reps))
    assert agg["LA_deg"]["mean"] == pytest.approx(np.mean([r.la_deg for r in reps]))


def test_rank_configs_tiebreak():
    from imufill.features import ALL_SITES, SensorConfig

    def entry(label, n_sensors, ga):
        cfg = SensorConfig(imu_sites=ALL_SITES[:n_sensors])
        agg = {"GA_deg": {"mean": ga, "worst": ga, "n": 1}}
        return mt.SweepEntry(config=cfg, per_trial=[], aggregate=agg, mean_latency_ms=0.0)

    entries = {
        "b": entry("b", 2, 5.0),
        "a": entry("a", 2, 5.0),
        "c": entry("c", 1, 5.0),
        "d": entry("d", 3, 4.0),
    }
    assert mt.rank_configs(entries, "GA") == ["d", "c", "a", "b"]


def test_report_round_trip(tmp_path):
    payload = {"kind": "evaluate", "metrics": {"GA_deg": 1.25, "RE10_m": None}}
    p = tmp_path / "r.json"
    mt.save_report(p, payload)
    back = mt.load_report(p)
    assert back["metrics"] == payload["metrics"]
    assert back["version"] == mt.REPORT_VERSION


def test_sweep_builds_one_model_and_matches_one_model_per_session(tree, monkeypatch):
    cfg = df.DenoiserConfig(layers=1, width=16, ff=32)
    params = df.init_denoiser(cfg, seed=2)
    schedule = df.build_cosine_schedule(1000)
    trials = dg.generate_corpus(tree, n_trials=3, seconds=1.0, seed=4)
    assert len({t.motion.height for t in trials}) == 3
    configs = [ft.SensorConfig.parse("pelvis"), ft.SensorConfig.parse("pelvis,head,insoles")]
    spread = inf.StepSpread.like_10d(3)

    # reference: a model per (config, trial) session, scored as sweeps were
    # before they shared one
    want_reports, want_poses = [], []
    for config in configs:
        for trial in trials:
            recon = inf.Reconstructor(cfg, df.FastDenoiser(cfg, params), schedule, tree, config,
                                      height=trial.motion.height, spread=spread, seed=6)
            rot, root, _ = inf.reconstruct_trial(recon, trial, config)
            want_poses.append((rot, root))
            m = trial.motion
            shift = m.root_positions[0] - root[0]
            moved = root + np.array([shift[0], 0.0, shift[2]])
            rec = dg.MotionSequence(20.0, rot, moved, m.height, m.mass, trial.trial_id)
            want_reports.append(mt.compute_metrics(m, rec, tree).as_dict())

    built, poses = [], []
    init, reconstruct = df.FastDenoiser.__init__, mt.reconstruct_trial

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def recorded(*args, **kwargs):
        out = reconstruct(*args, **kwargs)
        poses.append(out[:2])
        return out

    monkeypatch.setattr(df.FastDenoiser, "__init__", counted_init)
    monkeypatch.setattr(mt, "reconstruct_trial", recorded)
    result = mt.sweep_configs(cfg, params, schedule, tree, trials, configs, ["GA", "RE2"], spread, seed=6)
    assert len(built) == 1
    got_reports = [r.as_dict() for e in result.entries.values() for r in e.per_trial]
    np.testing.assert_equal(got_reports, want_reports)  # NaN jitter compares equal here
    assert len(poses) == len(want_poses)
    for got, want in zip(poses, want_poses):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_objectives_name_every_aggregated_metric(tree, gait20):
    rep = mt.compute_metrics(gait20, _copy(gait20), tree)
    assert set(mt.aggregate_reports([rep])) == set(mt.OBJECTIVES.values())
    assert set(rep.as_dict()) == set(mt.OBJECTIVES.values()) | {"trial_id"}
