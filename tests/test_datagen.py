import json
import warnings

import numpy as np
import pytest

from imufill import datagen as dg
from imufill import diffusion as df
from imufill import features as ft
from imufill import kinematics as kin

from conftest import ref_forward_kinematics


def test_stationary_motion(tree):
    m = dg.generate_motion("stationary", seed=1, duration_s=3.0)
    assert m.rate == 60.0
    np.testing.assert_array_equal(np.diff(m.root_positions, axis=0), 0.0)
    np.testing.assert_array_equal(m.rotations[1:], m.rotations[:-1])
    _, _, labels = dg.synthesize_imu(m, tree)
    np.testing.assert_array_equal(labels, 1)


@pytest.mark.parametrize("speed", [0.7, 1.2, 1.6])
def test_gait_mean_speed(tree, speed):
    m = dg.generate_motion("gait", seed=2, duration_s=8.0, speed=speed)
    dt = (m.n_frames - 1) / m.rate
    mean_v = (m.root_positions[-1, 2] - m.root_positions[0, 2]) / dt
    assert mean_v == pytest.approx(speed, rel=0.02)


def test_gait_feet_stay_above_ground(tree):
    m = dg.generate_motion("gait", seed=3, duration_s=6.0, speed=1.0)
    fk = kin.forward_kinematics(tree.scaled(m.height), m.rotations, m.root_positions)
    assert fk.contacts[..., 1].min() > -0.01


def test_generator_determinism(tree):
    a = dg.generate_motion("gait", seed=7, duration_s=4.0, speed=1.3)
    b = dg.generate_motion("gait", seed=7, duration_s=4.0, speed=1.3)
    np.testing.assert_array_equal(a.rotations, b.rotations)
    np.testing.assert_array_equal(a.root_positions, b.root_positions)
    c = dg.generate_motion("random_smooth", seed=9, duration_s=4.0)
    d = dg.generate_motion("random_smooth", seed=9, duration_s=4.0)
    np.testing.assert_array_equal(c.rotations, d.rotations)


def test_invalid_params_rejected(tree):
    with pytest.raises(dg.GenerationError):
        dg.generate_motion("gait", seed=0, speed=5.0)
    with pytest.raises(dg.GenerationError):
        dg.generate_motion("flying", seed=0)
    with pytest.raises(dg.GenerationError):
        dg.generate_motion("jump", seed=0, hop_height=0.9)


@pytest.mark.parametrize("seconds", [1e300, np.nextafter(dg.MAX_DURATION_S, np.inf)])
def test_duration_beyond_the_bound_rejected(seconds):
    with pytest.raises(dg.GenerationError, match=r"duration must be in \[0.5, 600.0\] s"):
        dg.generate_motion("stationary", seed=0, duration_s=seconds)


def test_moving_average_impulse_response():
    x = np.zeros(60)
    x[30] = 11.0
    y = dg.moving_average(x)
    np.testing.assert_array_equal(y[25:36], 1.0)
    np.testing.assert_array_equal(y[:25], 0.0)
    np.testing.assert_array_equal(y[36:], 0.0)


def test_moving_average_unity_at_dc():
    x = np.full((40, 3), 2.5)
    np.testing.assert_allclose(dg.moving_average(x), 2.5, rtol=1e-15)


def test_synthesize_stationary_accel_zero(tree):
    m = dg.generate_motion("stationary", seed=1, duration_s=2.0)
    orient, acc, _ = dg.synthesize_imu(m, tree)
    assert np.abs(acc).max() < 1e-9
    # orientations are the segment globals (identity in T-pose)
    np.testing.assert_allclose(orient, np.broadcast_to(np.eye(3), orient.shape), atol=1e-12)


def test_synthesize_constant_velocity_accel_zero(tree):
    T = 121
    t = np.arange(T) / 60.0
    rot = np.broadcast_to(np.eye(3), (T, 24, 3, 3)).copy()
    root = np.zeros((T, 3))
    root[:, 1] = 1.0
    root[:, 2] = 0.8 * t
    m = dg.MotionSequence(60.0, rot, root, 1.75, 70.0, "cv")
    _, acc, _ = dg.synthesize_imu(m, tree)
    assert np.abs(acc).max() < 1e-9


def test_synthesize_circular_motion_centripetal_oracle(tree):
    # root translates on a circle: every site sees |a| = r w^2
    r, f = 0.5, 0.3  # 0.3 Hz, well below the 5.45 Hz box-filter null
    w = 2 * np.pi * f
    T = 601
    t = np.arange(T) / 60.0
    rot = np.broadcast_to(np.eye(3), (T, 24, 3, 3)).copy()
    root = np.stack([r * np.cos(w * t), np.full(T, 1.0), r * np.sin(w * t)], axis=1)
    m = dg.MotionSequence(60.0, rot, root, 1.75, 70.0, "circ")
    _, acc, _ = dg.synthesize_imu(m, tree)
    mag = np.linalg.norm(acc, axis=-1)
    interior = mag[4:-4]  # clear of edge-replicated differences
    np.testing.assert_allclose(interior, r * w * w, rtol=0.01)


def test_synthesize_too_short_rejected(tree):
    m = dg.generate_motion("stationary", seed=0, duration_s=3.0)
    short = dg.MotionSequence(60.0, m.rotations[:8], m.root_positions[:8], 1.75, 70.0)
    with pytest.raises(dg.GenerationError, match="too short"):
        dg.synthesize_imu(short, tree)


def test_contact_threshold_strict():
    np.testing.assert_array_equal(dg.labels_from_speeds(np.array([0.3])), 0)
    np.testing.assert_array_equal(dg.labels_from_speeds(np.array([0.2999])), 1)
    np.testing.assert_array_equal(dg.labels_from_speeds(np.array([0.3001])), 0)


def test_contact_labels_near_threshold_motion(tree):
    # uniform translation slightly below/above the threshold speed
    def labels_at(v):
        T = 121
        t = np.arange(T) / 60.0
        rot = np.broadcast_to(np.eye(3), (T, 24, 3, 3)).copy()
        root = np.zeros((T, 3))
        root[:, 1] = 1.0
        root[:, 2] = v * t
        m = dg.MotionSequence(60.0, rot, root, 1.75, 70.0)
        return dg.synthesize_imu(m, tree)[2]

    np.testing.assert_array_equal(labels_at(0.28), 1)
    np.testing.assert_array_equal(labels_at(0.32), 0)


def test_gait_labels_match_stance_flags(tree):
    m = dg.generate_motion("gait", seed=11, duration_s=10.0, speed=1.1)
    trial = dg.make_trial(m, tree)
    assert trial.motion.stance is not None
    agree = (trial.contacts == trial.motion.stance).mean()
    assert agree >= 0.98, f"label/stance agreement {agree:.3f}"


def test_energy_single_moving_segment_oracle():
    # 2-segment toy tree: root (all the mass) + one child, translating at 1 m/s
    toy = kin.KinematicTree(
        names=("root", "tip"),
        parents=np.array([-1, 0]),
        offsets=np.array([[0.0, 0, 0], [0.0, -1.0, 0]]),
        mass_fractions=np.array([1.0, 1e-12]),
        site_names=(), site_segments=np.array([], dtype=int), site_offsets=np.zeros((0, 3)),
        contact_names=(), contact_segments=np.array([], dtype=int), contact_offsets=np.zeros((0, 3)),
        reference_height=1.75,
    )
    T = 61
    t = np.arange(T) / 20.0
    rot = np.broadcast_to(np.eye(3), (T, 2, 3, 3)).copy()
    root = np.zeros((T, 3))
    root[:, 2] = 1.0 * t
    m = dg.MotionSequence(20.0, rot, root, 1.75, 2.0, "toy")
    # COM of root = midpoint(root joint, child joint); translates at 1 m/s
    assert dg.mean_kinetic_energy(m, toy) == pytest.approx(1.0, rel=1e-9)


def test_energy_centres_of_mass_are_segment_midpoints(tree):
    # a segment's centre of mass is the midpoint of its joint and its
    # children's mean joint, a leaf's its own joint, from joints walked
    # one segment at a time
    m = dg.generate_motion("random_smooth", seed=4, duration_s=2.0, height=1.62, mass=61.0, trial_id="r4")
    scaled = tree.scaled(m.height)
    joints = ref_forward_kinematics(scaled, m.rotations, m.root_positions).joints
    com = joints.copy()
    for i in range(scaled.n_segments):
        children = np.flatnonzero(scaled.parents == i)
        if len(children):
            com[:, i] = 0.5 * (joints[:, i] + joints[:, children].mean(axis=1))
    v = dg.central_velocity(com, m.rate)
    want = (0.5 * scaled.masses(m.mass) * (v**2).sum(axis=-1)).sum(axis=-1).mean()
    assert dg.mean_kinetic_energy(m, tree) == pytest.approx(want, rel=1e-9)


def test_trial_weights_floor_and_symmetry(tree):
    stat = dg.make_trial(dg.generate_motion("stationary", seed=1, duration_s=4.0, trial_id="s"), tree)
    g1 = dg.make_trial(dg.generate_motion("gait", seed=2, duration_s=4.0, speed=1.2, trial_id="g1"), tree)
    g2 = dg.make_trial(dg.generate_motion("gait", seed=2, duration_s=4.0, speed=1.2, trial_id="g2"), tree)
    probs = dg.compute_trial_weights([stat, g1, g2], tree)
    assert probs.sum() == pytest.approx(1.0)
    assert probs[1] == pytest.approx(probs[2], rel=1e-12)  # identical trials
    energies = [dg.mean_kinetic_energy(t.motion, tree) for t in (stat, g1, g2)]
    assert energies[0] == pytest.approx(0.0, abs=1e-9)
    # stationary gets exactly the epsilon-floor share
    eps = dg.ENERGY_FLOOR_FRACTION * np.mean(energies)
    expect = eps / (np.sum(energies) + 3 * eps)
    assert probs[0] == pytest.approx(expect, rel=1e-9)


def test_all_stationary_corpus_uniform_weights(tree):
    trials = [
        dg.make_trial(dg.generate_motion("stationary", seed=i, duration_s=4.0, trial_id=f"s{i}"), tree)
        for i in range(3)
    ]
    probs = dg.compute_trial_weights(trials, tree)
    np.testing.assert_allclose(probs, 1 / 3)


def test_empty_corpus_rejected(tree):
    with pytest.raises(dg.GenerationError):
        dg.compute_trial_weights([], tree)


# the window sampler is `diffusion.corpus_sampler`


def test_window_sampler_single_trial(tree):
    m = dg.generate_motion("gait", seed=5, duration_s=8.0, speed=1.0, trial_id="only")
    trial = dg.make_trial(m, tree)
    wins, hs = df.corpus_sampler([trial], tree, seed=0)(5)
    assert wins.shape == (5, 61, 190)
    np.testing.assert_array_equal(hs, m.height)


def test_window_sampler_frequencies(tree):
    # a brisk tall walker and a slow short one: a draw is known by its height
    t1 = dg.make_trial(dg.generate_motion("gait", seed=1, duration_s=5.0, height=1.9, speed=1.6,
                                          trial_id="a"), tree)
    t2 = dg.make_trial(dg.generate_motion("gait", seed=2, duration_s=5.0, height=1.6, speed=0.7,
                                          trial_id="b"), tree)
    p1 = dg.compute_trial_weights([t1, t2], tree)[0]
    assert 0.6 < p1 < 0.95  # energy-weighted, far from uniform
    sample = df.corpus_sampler([t1, t2], tree, seed=42)
    n, chunk = 100_000, 100  # a chunk at a time, not 100 000 windows at once
    hits = sum(int((sample(chunk)[1] == 1.9).sum()) for _ in range(n // chunk))
    assert abs(hits / n - p1) < 0.01


def test_window_sampler_determinism(tree):
    trials = dg.generate_corpus(tree, n_trials=3, seconds=5.0, seed=3)

    def draws(seedval):
        return df.corpus_sampler(trials, tree, seed=seedval)(10)[0]

    np.testing.assert_array_equal(draws(9), draws(9))
    assert not np.array_equal(draws(9), draws(10))


def test_window_sampler_skips_short_trials(tree):
    long = dg.make_trial(dg.generate_motion("stationary", seed=1, duration_s=5.0, trial_id="long"), tree)
    short = dg.make_trial(dg.generate_motion("stationary", seed=2, duration_s=2.0, trial_id="short"), tree)
    assert short.motion.n_frames < 61
    assert dg.holds_window(long) and not dg.holds_window(short)
    wins, _ = df.corpus_sampler([long, short], tree, seed=0)(20)
    assert wins.shape == (20, 61, 190)
    with pytest.raises(dg.GenerationError):
        df.corpus_sampler([short], tree, seed=0)


def _trial_of(trial: dg.Trial, n: int) -> dg.Trial:
    """The first n frames of a 20 Hz trial."""
    m = trial.motion
    return dg.Trial(dg.MotionSequence(m.rate, m.rotations[:n], m.root_positions[:n], m.height, m.mass,
                                      f"{m.trial_id}-{n}"),
                    trial.site_rotations[:n], trial.site_accels[:n], trial.contacts[:n])


def test_holdout_windows_take_every_whole_window(tree):
    full = dg.make_trial(dg.generate_motion("gait", seed=3, duration_s=10.0, trial_id="g"), tree)
    lengths, counts = [61, 100, 121, 122, 183], [1, 1, 1, 2, 3]
    trials = [_trial_of(full, n) for n in lengths]
    for tr, count in zip(trials, counts):
        wins, hs = df.holdout_windows([tr], tree)
        assert wins.shape == (count, 61, 190) and hs.tolist() == [full.motion.height] * count
        for k in range(count):  # back to back from frame 0
            np.testing.assert_array_equal(wins[k], tr.features(tree)[61 * k:61 * (k + 1)])
    short = _trial_of(full, 60)
    wins, _ = df.holdout_windows([short] + trials, tree)
    assert len(wins) == sum(counts)
    with pytest.raises(dg.DatasetError, match="no held-out trial"):
        df.holdout_windows([short], tree)


def test_corpus_generation_and_rate_consistency(tree):
    trials = dg.generate_corpus(tree, n_trials=4, seconds=5.0, seed=0)
    assert len(trials) == 4
    for tr in trials:
        T = tr.motion.n_frames
        assert tr.site_accels.shape == (T, 13, 3)
        assert tr.site_rotations.shape == (T, 13, 3, 3)
        assert tr.contacts.shape == (T, 4)
        assert tr.motion.rate == 20.0


def test_dataset_round_trip(tmp_path, tree):
    trials = dg.generate_corpus(tree, n_trials=3, seconds=5.0, seed=1)
    p = tmp_path / "corpus.imfd"
    dg.save_dataset(trials, tree, p)
    back = dg.load_dataset(p, tree)
    assert len(back) == 3
    for a, b in zip(trials, back):
        assert a.trial_id == b.trial_id
        assert a.motion.height == b.motion.height
        np.testing.assert_allclose(b.motion.rotations, a.motion.rotations, atol=1e-12)
        np.testing.assert_array_equal(b.motion.root_positions, a.motion.root_positions)
        np.testing.assert_array_equal(b.site_accels, a.site_accels)
        np.testing.assert_array_equal(b.contacts, a.contacts)


def test_stance_flags_survive_decimation_and_the_container(tmp_path, tree):
    gait = dg.generate_motion("gait", seed=4, duration_s=3.0, speed=1.1, trial_id="g")
    smooth = dg.generate_motion("random_smooth", seed=4, duration_s=3.0, trial_id="s")
    trials = [dg.make_trial(gait, tree), dg.make_trial(smooth, tree)]
    np.testing.assert_array_equal(trials[0].motion.stance, gait.stance[::dg.DECIMATION])
    assert trials[0].motion.stance.any() and smooth.stance is None
    p = tmp_path / "corpus.imfd"
    dg.save_dataset(trials, tree, p)
    back = dg.load_dataset(p, tree)
    np.testing.assert_array_equal(back[0].motion.stance, trials[0].motion.stance)
    assert back[0].motion.stance.dtype == np.uint8 and back[1].motion.stance is None


def test_dataset_refuses_another_skeleton(tmp_path, tree):
    p = tmp_path / "corpus.imfd"
    dg.save_dataset(dg.generate_corpus(tree, n_trials=1, seconds=2.0, seed=0), tree, p)
    with pytest.raises(dg.DatasetError, match="skeleton"):
        dg.load_dataset(p, tree.scaled(1.9))


@pytest.mark.parametrize("height, mass", [(-1.59, 70.0), (1e300, 70.0), (float("nan"), 70.0),
                                          (1.75, 0.0), (1.75, float("nan")), (1.75, 1e300)])
def test_motion_rejects_implausible_subject(height, mass):
    T = 4
    rot = np.broadcast_to(np.eye(3), (T, 24, 3, 3)).copy()
    with pytest.raises(dg.GenerationError, match="subject"):
        dg.MotionSequence(20.0, rot, np.zeros((T, 3)), height, mass)


def test_dataset_bad_magic_rejected(tmp_path, tree):
    p = tmp_path / "bad.imfd"
    p.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(dg.DatasetError, match="magic"):
        dg.load_dataset(p, tree)


def _dataset_cuts(trials, size: int) -> dict[str, int]:
    """Lengths at which to cut a saved dataset of `size` bytes: inside the
    header, the first trial's id, its metadata and its rotation array, and
    one byte short of the end."""
    header = 4 + 4 + 4 + 64
    tid = trials[0].trial_id.encode()
    meta_at = header + 4 + len(tid)
    arrays_at = meta_at + 37
    return {"header": 40, "trial id": header + 4 + len(tid) // 2, "metadata": meta_at + 20,
            "mid-array": arrays_at + trials[0].motion.n_frames * 24 * 4 * 8 // 2, "last byte": size - 1}


def test_dataset_truncated_raises_typed_error(tmp_path, tree):
    trials = dg.generate_corpus(tree, n_trials=2, seconds=2.0, seed=3)
    p = tmp_path / "corpus.imfd"
    dg.save_dataset(trials, tree, p)
    blob = p.read_bytes()
    short = tmp_path / "short.imfd"
    for where, cut in _dataset_cuts(trials, len(blob)).items():
        assert 4 < cut < len(blob), where
        short.write_bytes(blob[:cut])
        with pytest.raises(dg.DatasetError, match="truncated dataset"):
            dg.load_dataset(short, tree)


def test_dataset_header_bit_flips_fail_cleanly(tmp_path, tree):
    # every bit of the file header and the first trial's header: a flip
    # that still fits the file must not reach quat_to_rot with garbage
    trials = dg.generate_corpus(tree, 2, 2.0, seed=0)
    path = tmp_path / "d.imfd"
    dg.save_dataset(trials, tree, path)
    blob = path.read_bytes()
    header_end = 4 + 4 + 4 + 64 + 4 + len(trials[0].trial_id.encode()) + 37
    outcomes = {"load": 0, "DatasetError": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i in range(header_end * 8):
            bad = bytearray(blob)
            bad[i // 8] ^= 1 << (i % 8)
            path.write_bytes(bad)
            try:
                dg.load_dataset(path, tree)
                outcomes["load"] += 1
            except dg.DatasetError:
                outcomes["DatasetError"] += 1
    assert sum(outcomes.values()) == header_end * 8
    assert outcomes["load"] and outcomes["DatasetError"]


def test_dataset_refuses_a_trial_that_is_not_at_20_hz(tmp_path, tree):
    trials = dg.generate_corpus(tree, 1, 2.0, seed=0)
    path = tmp_path / "d.imfd"
    dg.save_dataset(trials, tree, path)
    blob = bytearray(path.read_bytes())
    rate_at = 4 + 4 + 4 + 64 + 4 + len(trials[0].trial_id.encode())
    assert np.frombuffer(blob[rate_at:rate_at + 8], "<f8")[0] == ft.FRAME_RATE_HZ
    blob[rate_at:rate_at + 8] = np.float64(dg.RAW_RATE_HZ).tobytes()  # 20 Hz arrays, a 60 Hz label
    path.write_bytes(blob)
    with pytest.raises(dg.DatasetError, match=f"{trials[0].trial_id}: a dataset trial is 20 Hz, got rate 60"):
        dg.load_dataset(path, tree)


@pytest.mark.parametrize("value", [1.5, float("nan"), 1e300])
def test_dataset_rejects_a_quaternion_that_is_not_unit(tmp_path, tree, value):
    trials = dg.generate_corpus(tree, 1, 2.0, seed=0)
    path = tmp_path / "d.imfd"
    dg.save_dataset(trials, tree, path)
    blob = bytearray(path.read_bytes())
    first_rotation = 4 + 4 + 4 + 64 + 4 + len(trials[0].trial_id.encode()) + 29
    blob[first_rotation:first_rotation + 8] = np.float64(value).tobytes()
    path.write_bytes(blob)
    with pytest.raises(dg.DatasetError, match="rotations are not unit quaternions"):
        dg.load_dataset(path, tree)


@pytest.mark.parametrize("field, value, message", [
    ("contacts", 7, "contact labels must be 0 or 1"),
    ("stance", 2, "stance flags must be 0 or 1"),
    ("site_accels", np.nan, "non-finite site accelerations"),
    ("site_accels", -np.inf, "non-finite site accelerations"),
])
def test_dataset_refuses_signals_a_recording_cannot_hold(tmp_path, tree, field, value, message):
    (trial,) = dg.generate_corpus(tree, 1, 4.0, seed=0)  # a gait: it has stance flags
    target = trial.motion.stance if field == "stance" else getattr(trial, field)
    target[(12,) + (0,) * (target.ndim - 1)] = value
    path = tmp_path / "d.imfd"
    dg.save_dataset([trial], tree, path)
    with pytest.raises(dg.DatasetError, match=f"^{trial.trial_id}: {message}$"):
        dg.load_dataset(path, tree)


def test_dataset_regeneration_bit_identical(tmp_path, tree):
    p1, p2 = tmp_path / "a.imfd", tmp_path / "b.imfd"
    dg.save_dataset(dg.generate_corpus(tree, n_trials=2, seconds=4.0, seed=5), tree, p1)
    dg.save_dataset(dg.generate_corpus(tree, n_trials=2, seconds=4.0, seed=5), tree, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_text_export(tmp_path, tree):
    trials = dg.generate_corpus(tree, n_trials=2, seconds=4.0, seed=2)
    dg.export_dataset_text(trials, tmp_path / "txt")
    d = tmp_path / "txt" / trials[0].trial_id
    assert (d / "meta.json").exists()
    root = np.loadtxt(d / "root_xyz.txt")
    np.testing.assert_array_equal(root, trials[0].motion.root_positions)  # %.17g is lossless
    # the gait trial's stance flags round-trip; random_smooth has none
    gait, smooth = (next(tr for tr in trials if tr.trial_id.startswith(k)) for k in ("gait", "random_smooth"))
    d = tmp_path / "txt" / gait.trial_id
    assert json.loads((d / "meta.json").read_text())["has_stance"] is True
    np.testing.assert_array_equal(np.loadtxt(d / "stance.txt", dtype=np.uint8), gait.motion.stance)
    d = tmp_path / "txt" / smooth.trial_id
    assert json.loads((d / "meta.json").read_text())["has_stance"] is False
    assert not (d / "stance.txt").exists()


def test_jump_has_flight_and_ground_phases(tree):
    m = dg.generate_motion("jump", seed=4, duration_s=6.0, hop_height=0.2)
    trial = dg.make_trial(m, tree)
    frac_contact = trial.contacts.mean()
    assert 0.2 < frac_contact < 0.95
    fk = kin.forward_kinematics(tree.scaled(m.height), m.rotations, m.root_positions)
    assert fk.contacts[..., 1].min() > -0.01
