import json

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
    """A reconstruction of m as the arrays `compute_metrics` scores."""
    return (m.rotations.copy() if rotations is None else rotations,
            m.root_positions.copy() if root is None else root)


def test_identity_metrics(tree, gait20):
    rep = mt.compute_metrics(gait20, *_copy(gait20), tree)
    assert rep["LA_deg"] == pytest.approx(0.0, abs=1e-6)
    assert rep["GA_deg"] == pytest.approx(0.0, abs=1e-6)
    assert rep["JPE_cm"] == pytest.approx(0.0, abs=1e-6)
    assert rep["jitter"] == pytest.approx(1.0, rel=1e-12)
    assert rep["RE2_m"] == pytest.approx(0.0, abs=1e-12)
    assert rep["RE5_m"] == pytest.approx(0.0, abs=1e-12)
    assert rep["RE10_m"] == pytest.approx(0.0, abs=1e-12)


def test_ga_fixed_global_rotation_offset(tree, gait20):
    # compose every global orientation with a fixed 10 degree rotation
    off = kin.rotation_about("z", 10.0)
    g = kin.local_to_global(tree, gait20.rotations)
    rec_rot = kin.global_to_local(tree, g @ off)
    rep = mt.compute_metrics(gait20, *_copy(gait20, rotations=rec_rot), tree)
    assert rep["GA_deg"] == pytest.approx(10.0, abs=1e-6)


def test_re_rigid_offset(tree, gait20):
    root = gait20.root_positions.copy()
    root[1:, 0] += 0.3  # drift of 0.3 m appearing after the aligned first frame
    rep = mt.compute_metrics(gait20, *_copy(gait20, root=root), tree)
    assert rep["RE2_m"] == pytest.approx(0.3, abs=1e-12)
    assert rep["RE5_m"] == pytest.approx(0.3, abs=1e-12)
    assert rep["RE10_m"] == pytest.approx(0.3, abs=1e-12)


def test_re_absent_for_short_sequences(tree, gait20):
    short_gt = dg.MotionSequence(20.0, gait20.rotations[:100], gait20.root_positions[:100],
                                 gait20.height, gait20.mass, "short")
    rep = mt.compute_metrics(short_gt, *_copy(short_gt), tree)
    assert rep["RE2_m"] is not None
    assert rep["RE5_m"] is None and rep["RE10_m"] is None


def test_length_mismatch_rejected(tree, gait20):
    with pytest.raises(mt.MetricsError, match="length"):
        mt.compute_metrics(gait20, gait20.rotations[:-1], gait20.root_positions[:-1], tree)


def test_la_ga_invariant_under_shared_rigid_rotation(tree, gait20):
    rng = np.random.default_rng(0)
    rec_rot = gait20.rotations.copy()
    rec_rot[:, 5] = rec_rot[:, 5] @ kin.rotation_about("x", 7.0)  # perturb one knee
    rec = dg.MotionSequence(gait20.rate, rec_rot, gait20.root_positions, gait20.height, gait20.mass)
    base = mt.compute_metrics(gait20, *_copy(rec), tree)

    W = random_rotations(rng)  # one shared world rotation
    def rotate(m):
        rot = m.rotations.copy()
        rot[:, 0] = W @ rot[:, 0]
        root = (W @ m.root_positions.T).T
        return dg.MotionSequence(m.rate, rot, root, m.height, m.mass, m.trial_id)

    got = mt.compute_metrics(rotate(gait20), *_copy(rotate(rec)), tree)
    assert got["LA_deg"] == pytest.approx(base["LA_deg"], abs=1e-4)
    assert got["GA_deg"] == pytest.approx(base["GA_deg"], abs=1e-4)


def test_metrics_invariant_to_appending_identical_frames(tree, gait20):
    rec_rot = gait20.rotations.copy()
    rec_rot[:, 4] = rec_rot[:, 4] @ kin.rotation_about("x", 5.0)
    rec = dg.MotionSequence(gait20.rate, rec_rot, gait20.root_positions, gait20.height, gait20.mass)
    base = mt.compute_metrics(gait20, *_copy(rec), tree)

    def extend(m, k=40):
        rot = np.concatenate([m.rotations, np.repeat(m.rotations[-1:], k, axis=0)])
        root = np.concatenate([m.root_positions, np.repeat(m.root_positions[-1:], k, axis=0)])
        return dg.MotionSequence(m.rate, rot, root, m.height, m.mass, m.trial_id)

    got = mt.compute_metrics(extend(gait20), *_copy(extend(rec)), tree)
    # angular means shift only by the (identical) appended frames' zero/nonzero mix
    assert got["GA_deg"] <= base["GA_deg"] + 1e-9
    assert got["LA_deg"] <= base["LA_deg"] + 1e-9
    # jitter tolerant to the filter edge at the splice
    assert got["jitter"] == pytest.approx(base["jitter"], rel=0.1)


def test_excluded_joints_do_not_move_metrics(tree, gait20):
    rec_rot = gait20.rotations.copy()
    for name in mt.EXCLUDED_SEGMENTS:
        rec_rot[:, tree.index(name)] = rec_rot[:, tree.index(name)] @ kin.rotation_about("y", 25.0)
    rep = mt.compute_metrics(gait20, *_copy(gait20, rotations=rec_rot), tree)
    assert rep["LA_deg"] == pytest.approx(0.0, abs=1e-6)
    assert rep["GA_deg"] == pytest.approx(0.0, abs=1e-6)


def test_legs_back_subsets(tree, gait20):
    rec_rot = gait20.rotations.copy()
    rec_rot[:, tree.index("shank_l")] = rec_rot[:, tree.index("shank_l")] @ kin.rotation_about("x", 12.0)
    rep = mt.compute_metrics(gait20, *_copy(gait20, rotations=rec_rot), tree)
    assert rep["legsLA_deg"] == pytest.approx(12.0 / 6, abs=1e-6)  # one of six leg joints
    assert rep["backLA_deg"] == pytest.approx(0.0, abs=1e-6)


def test_jitter_nan_for_still_ground_truth(tree):
    m = dg.decimate_motion(dg.generate_motion("stationary", seed=1, duration_s=6.0))
    rep = mt.compute_metrics(m, *_copy(m), tree)
    assert np.isnan(rep["jitter"])


def test_aggregate_mean_and_worst(tree, gait20):
    reps = []
    for deg in (5.0, 15.0):
        rot = gait20.rotations.copy()
        rot[:, 5] = rot[:, 5] @ kin.rotation_about("x", deg)
        reps.append(mt.compute_metrics(gait20, *_copy(gait20, rotations=rot), tree))
    agg = mt.aggregate_reports(reps)
    assert agg["LA_deg"]["worst"] == pytest.approx(max(r["LA_deg"] for r in reps))
    assert agg["LA_deg"]["mean"] == pytest.approx(np.mean([r["LA_deg"] for r in reps]))


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
    payload = {"kind": "evaluate", "metrics": {"GA_deg": 1.25, "RE10_m": None},
               "per_trial": [{"jitter": float("nan")}, {"jitter": np.float64(np.inf), "RE2_m": -np.inf}]}
    p = tmp_path / "r.json"
    mt.save_report(p, payload)
    back = json.loads(p.read_text(), parse_constant=_refuse_constant)
    assert back == mt.load_report(p)
    assert back["metrics"] == payload["metrics"]
    assert back["per_trial"] == [{"jitter": None}, {"jitter": None, "RE2_m": None}]
    assert back["version"] == mt.REPORT_VERSION


def _refuse_constant(name):
    raise AssertionError(f"{name} is not strict JSON")


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
    want_reports, want_poses = [], {}
    for config in configs:
        for trial in trials:
            recon = inf.Reconstructor(cfg, df.FastDenoiser(cfg, params), schedule, tree, config,
                                      height=trial.motion.height, spread=spread, seed=6)
            rot, root, _ = inf.reconstruct_trial(recon, trial, config)
            want_poses[config.label(), trial.motion.trial_id] = (rot, root)
            m = trial.motion
            shift = m.root_positions[0] - root[0]
            moved = root + np.array([shift[0], 0.0, shift[2]])
            want_reports.append(mt.compute_metrics(m, rot, moved, tree))

    built, poses = [], {}
    init, reconstruct = df.FastDenoiser.__init__, mt.reconstruct_trial

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def recorded(recon, trial, config):
        out = reconstruct(recon, trial, config)
        poses[config.label(), trial.motion.trial_id] = out[:2]
        return out

    monkeypatch.setattr(df.FastDenoiser, "__init__", counted_init)
    monkeypatch.setattr(mt, "reconstruct_trial", recorded)
    result = mt.sweep_configs(cfg, params, schedule, tree, trials, configs, ["GA", "RE2"], spread, seed=6)
    assert len(built) == 1
    got_reports = [r for e in result.entries.values() for r in e.per_trial]
    np.testing.assert_equal(got_reports, want_reports)  # NaN jitter compares equal here
    assert poses.keys() == want_poses.keys()  # sessions in any order
    for key, want in want_poses.items():
        assert all(a.tobytes() == b.tobytes() for a, b in zip(poses[key], want)), key


def _config_major_sweep(model_cfg, params, schedule, tree, trials, configs, objectives, spread, seed):
    """`sweep_configs` as it looped before trials became the outer loop:
    configs outside, trials inside, each entry built as its config ends."""
    model = df.FastDenoiser(model_cfg, params)
    entries = {}
    for config in configs:
        reports, latencies = [], []
        for trial in trials:
            recon = inf.Reconstructor(model_cfg, model, schedule, tree, config,
                                      height=trial.motion.height, spread=spread, seed=seed)
            rot, root, results = inf.reconstruct_trial(recon, trial, config)
            reports.append(mt.score_trial(trial, rot, root, tree))
            latencies.extend(r.latency_ms for r in results)
        entries[config.label()] = mt.SweepEntry(config=config, per_trial=reports,
                                                aggregate=mt.aggregate_reports(reports),
                                                mean_latency_ms=float(np.mean(latencies)))
    return mt.SweepResult(entries=entries, rankings={o: mt.rank_configs(entries, o) for o in objectives})


def test_sweep_matches_a_config_major_loop_and_conditions_once_per_trial(tree, monkeypatch):
    cfg = df.DenoiserConfig(layers=1, width=16, ff=32)
    params = df.init_denoiser(cfg, seed=3)
    schedule = df.build_cosine_schedule(1000)
    trials = dg.generate_corpus(tree, n_trials=3, seconds=1.0, seed=8)
    assert len({t.motion.height for t in trials}) == 3
    configs = [ft.SensorConfig.parse(s) for s in ("pelvis", "pelvis,head,insoles", "all13", "pelvis")]
    spread = inf.StepSpread.like_10d(4)
    args = (cfg, params, schedule, tree, trials, configs, ["LA", "JPE", "RE2"], spread, 2)
    want = _config_major_sweep(*args)

    builds = []
    condition_tokens = df._condition_tokens

    def counted(*a):
        builds.append(a)
        return condition_tokens(*a)

    monkeypatch.setattr(df, "_condition_tokens", counted)
    got = mt.sweep_configs(*args)
    # one conditioning build per (trial height, step), not per session
    assert len(builds) == len(trials) * len(spread)
    assert list(got.entries) == list(want.entries)
    for label, entry in got.entries.items():
        w = want.entries[label]
        assert entry.config == w.config
        np.testing.assert_equal(entry.per_trial, w.per_trial)  # NaN jitter compares equal here
        np.testing.assert_equal(entry.aggregate, w.aggregate)
    assert got.rankings == want.rankings


def test_objectives_name_every_aggregated_metric(tree, gait20):
    rep = mt.compute_metrics(gait20, *_copy(gait20), tree)
    assert set(mt.aggregate_reports([rep])) == set(mt.OBJECTIVES.values())
    assert list(rep) == ["trial_id", *mt.OBJECTIVES.values()]


def test_root_error_keys_come_from_the_horizons():
    assert [k for k in mt.OBJECTIVES.values() if k.startswith("RE")] == [f"RE{h:g}_m" for h in mt.RE_HORIZONS_S]
    assert [n for n in mt.OBJECTIVES if n.startswith("RE")] == [f"RE{h:g}" for h in mt.RE_HORIZONS_S]


def test_micro_training_follows_the_sensor_chain(tree):
    # the paper's claims at tier-1 size: one briefly trained model serves
    # every sensor set, far better than at initialization, and accuracy
    # follows the sensor set. Measured: trained LA 13.2, 13.6, 10.3 and
    # 5.0 deg against 130, 128, 127 and 70 deg initialized; JPE 5.92,
    # 5.47, 4.13 and 1.30 cm.
    kinds = ("gait", "random_smooth", "jump")
    train = dg.generate_corpus(tree, n_trials=8, seconds=6.0, seed=3, kinds=kinds)
    held = dg.generate_corpus(tree, n_trials=3, seconds=3.0, seed=99, kinds=kinds)
    cfg = df.TrainConfig(model=df.DenoiserConfig.parse("1/32/64"), steps=200, batch=8, lr=1e-3, seed=0)
    result = df.train(df.corpus_sampler(train, tree, seed=0), tree, cfg)
    chain = [ft.SensorConfig.parse(s) for s in
             ("none", "pelvis,head", ",".join(ft.SIX_IMU_SITES) + ",insoles", "all13+insoles")]

    def sweep(params):
        entries = mt.sweep_configs(cfg.model, params, result.schedule, tree, held, chain, ["LA"],
                                   inf.StepSpread.parse("3")).entries
        return ([entries[c.label()].aggregate[key]["mean"] for c in chain] for key in ("LA_deg", "JPE_cm"))

    la, jpe = sweep(result.params)
    la_init, _ = sweep(df.init_denoiser(cfg.model, seed=cfg.seed))
    assert all(a <= b / 4 for a, b in zip(la, la_init)), (la, la_init)
    assert jpe[0] > jpe[1] > jpe[2] > jpe[3], jpe
    # `none` and `pelvis,head` are not ordered on LA: the two swap places
    # with the size of the run
    assert la[3] < la[2] < min(la[0], la[1]), la
