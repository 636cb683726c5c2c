import json
import struct
import warnings

import numpy as np
import pytest

from imufill import cli
from imufill import datagen as dg
from imufill import diffusion as df
from imufill import inference as inf
from imufill.features import SensorConfig
from imufill.kinematics import default_tree
from imufill.tensor import Tensor


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Tiny corpus + untrained tiny checkpoint shared across CLI tests."""
    d = tmp_path_factory.mktemp("cli")
    rc = cli.main(["datagen", "--trials", "3", "--seconds", "5", "--seed", "7",
                   "--kinds", "gait,stationary", "--out", str(d / "corpus.imfd")])
    assert rc == 0
    tree = default_tree()
    cfg = df.DenoiserConfig(layers=1, width=16, ff=32)
    params = df.init_denoiser(cfg, seed=0)
    df.save_checkpoint(d / "tiny.imfc", cfg, params, df.build_cosine_schedule(1000), tree)
    return d


def test_skeleton_validate_bundled(tmp_path):
    from importlib import resources

    src = resources.files("imufill.data").joinpath("skeleton_default24.json").read_text()
    f = tmp_path / "tree.json"
    f.write_text(src)
    assert cli.main(["skeleton", "validate", str(f)]) == 0


def test_skeleton_validate_rejects_bad_file(tmp_path):
    from importlib import resources

    src = json.loads(resources.files("imufill.data").joinpath("skeleton_default24.json").read_text())
    src["segments"][3]["mass_fraction"] = -1.0
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(src))
    assert cli.main(["skeleton", "validate", str(f)]) == 1


def _malformed_skeleton(case: str) -> str:
    from importlib import resources

    doc = json.loads(resources.files("imufill.data").joinpath("skeleton_default24.json").read_text())
    if case == "bad-json":
        return '{"format": "imufill-skeleton",'
    if case == "top-level-list":
        return json.dumps([doc])
    if case == "nested-past-recursion-limit":
        return "[" * 100000
    if case == "no-segments":
        del doc["segments"]
    elif case == "unknown-segment":
        doc["sites"][0]["segment"] = "tail"
    elif case == "offset-of-2":
        doc["segments"][3]["offset"] = [0.0, 0.1]
    elif case == "negative-parent":
        doc["segments"][5]["parent"] = -3
    elif case == "reference-height":
        doc["reference_height_m"] = -1.0
    elif case == "renamed-site":
        doc["sites"][12]["name"] = "skull"
    elif case == "reordered-sites":
        doc["sites"][1], doc["sites"][2] = doc["sites"][2], doc["sites"][1]
    elif case == "nan-contact-offset":
        doc["contact_points"][2]["offset"][1] = float("nan")
    elif case == "nan-mass-fraction":
        doc["segments"][7]["mass_fraction"] = float("nan")
    elif case == "fractional-parent":
        doc["segments"][4]["parent"] = 1.5
    elif case == "numeric-name":
        doc["segments"][9]["name"] = 5
    elif case == "true-version":
        doc["version"] = True
    elif case == "string-offset":
        doc["segments"][1]["offset"] = ["0.09", "-0.07", "0"]
    elif case == "true-site-offset":
        doc["sites"][4]["offset"] = [True, 0, 0]
    elif case == "string-mass-fraction":
        doc["segments"][1]["mass_fraction"] = "0.1"
    elif case == "true-reference-height":
        doc["reference_height_m"] = True
    elif case == "reordered-contacts":
        doc["contact_points"][0], doc["contact_points"][1] = doc["contact_points"][1], doc["contact_points"][0]
    elif case == "renamed-contact":
        doc["contact_points"][3]["name"] = "toe_tip_r"
    elif case == "duplicate-contact":
        doc["contact_points"][3]["name"] = "toe_l"
    elif case == "numeric-contact-name":
        doc["contact_points"][0]["name"] = 0
    elif case == "repeated-version":
        return json.dumps(doc).replace('"version": 1', '"version": 7, "version": 1')
    elif case == "repeated-offset":
        first = json.dumps(doc["segments"][2])
        return json.dumps(doc).replace(first, first.replace('"offset": ', '"offset": [0, 0, 0], "offset": '))
    elif case == "23-segments":  # without the leaf fingers_r, masses renormalized
        leaf = next(s for s in doc["segments"] if s["name"] == "fingers_r")
        doc["segments"].remove(leaf)
        for seg in doc["segments"]:
            seg["mass_fraction"] /= 1.0 - leaf["mass_fraction"]
    return json.dumps(doc)


@pytest.mark.parametrize("case, where", [
    ("bad-json", "not JSON"),
    ("top-level-list", "top level is a list"),
    ("no-segments", "missing field or unknown segment 'segments'"),
    ("unknown-segment", "missing field or unknown segment 'tail'"),
    ("offset-of-2", "malformed skeleton"),
    ("negative-parent", "topologically ordered"),
    ("reference-height", "reference height must be finite and positive, got -1.0"),
    ("23-segments", "expected 24 segments, got 23"),
    ("renamed-site", "expected the sites pelvis, thigh_l, thigh_r, "),
    ("reordered-sites", "got pelvis, thigh_r, thigh_l, "),
    ("nested-past-recursion-limit", "not JSON: maximum recursion depth exceeded"),
    ("nan-contact-offset", "offsets must be finite"),
    ("nan-mass-fraction", "mass fractions must be positive"),
    ("fractional-parent", "segment parent must be of type int, got 1.5"),
    ("numeric-name", "segment name must be of type str, got 5"),
    ("true-version", "unsupported imufill-skeleton version True, expected 1"),
    ("string-offset", "segment offsets must hold numbers only, got '0.09'"),
    ("true-site-offset", "site offsets must hold numbers only, got True"),
    ("string-mass-fraction", "mass fractions must hold numbers only, got '0.1'"),
    ("true-reference-height", "reference height must be a number, got True"),
    ("reordered-contacts", "expected the contact points heel_l, toe_l, heel_r, toe_r in that order, "
                           "got toe_l, heel_l, heel_r, toe_r"),
    ("renamed-contact", "got heel_l, toe_l, heel_r, toe_tip_r"),
    ("duplicate-contact", "got heel_l, toe_l, heel_r, toe_l"),
    ("numeric-contact-name", "contact point name must be of type str, got 0"),
    ("repeated-version", "repeated key 'version'"),
    ("repeated-offset", "repeated key 'offset'"),
])
def test_skeleton_validate_malformed_file_is_typed_error(tmp_path, capsys, case, where):
    f = tmp_path / "bad.json"
    f.write_text(_malformed_skeleton(case))
    assert cli.main(["skeleton", "validate", str(f)]) == 1
    err = capsys.readouterr().err
    assert "error (SkeletonError)" in err and where in err


def test_unknown_flag_usage_error():
    with pytest.raises(SystemExit) as e:
        cli.main(["datagen", "--definitely-not-a-flag", "1"])
    assert e.value.code == 2


def test_datagen_deterministic(workdir, tmp_path):
    rc = cli.main(["datagen", "--trials", "3", "--seconds", "5", "--seed", "7",
                   "--kinds", "gait,stationary", "--out", str(tmp_path / "again.imfd")])
    assert rc == 0
    assert (tmp_path / "again.imfd").read_bytes() == (workdir / "corpus.imfd").read_bytes()


@pytest.mark.parametrize("out, export, error", [("a_dir", None, "IsADirectoryError"),
                                                ("ok.imfd", "a_file", "FileExistsError")])
def test_datagen_unwritable_path_fails_cleanly(tmp_path, capsys, out, export, error):
    # --out names a directory, or --export-text a file: exit 1 naming the
    # OSError, no traceback
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "a_file").write_text("")
    text = [] if export is None else ["--export-text", str(tmp_path / export)]
    rc = cli.main(["datagen", "--trials", "1", "--seconds", "1", "--out", str(tmp_path / out), *text])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error ({error}): ") and "Traceback" not in err


def test_train_reconstruct_evaluate_round_trip(workdir, tmp_path):
    ck = tmp_path / "m.imfc"
    rc = cli.main(["train", "--data", str(workdir / "corpus.imfd"), "--size", "1/16/32",
                   "--steps", "5", "--batch", "2", "--seed", "1", "--out", str(ck)])
    assert rc == 0 and ck.exists()

    rec = tmp_path / "rec.jsonl"
    rc = cli.main(["reconstruct", "--ckpt", str(ck), "--config", "pelvis,head",
                   "--spread", "4", "--in", str(workdir / "corpus.imfd"),
                   "--trial", "gait-000", "--out", str(rec), "--seed", "3"])
    assert rc == 0

    rep = tmp_path / "report.json"
    rc = cli.main(["evaluate", "--gt", str(workdir / "corpus.imfd"), "--trial", "gait-000",
                   "--rec", str(rec), "--out", str(rep)])
    assert rc == 0
    doc = json.loads(rep.read_text())
    assert doc["kind"] == "evaluate"
    assert np.isfinite(doc["metrics"]["GA_deg"])


def test_train_logs_one_json_object_per_line(workdir, tmp_path, capsys):
    ck = tmp_path / "m.imfc"
    rc = cli.main(["train", "--data", str(workdir / "corpus.imfd"), "--size", "1/16/32", "--holdout", "1",
                   "--steps", "3", "--batch", "2", "--seed", "1", "--out", str(ck)])
    assert rc == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert all(isinstance(r, dict) for r in records)
    *steps, holdout, final = records
    assert [r["step"] for r in steps] == [0, 2]  # LOG_EVERY 50, and the last step
    for r in steps:
        assert set(r) == {"step", "simple", "vel", "fk", "drift", "slide", "total", "step_s", "grad_norm"}
        assert r["step_s"] > 0 and r["grad_norm"] > 0 and np.isfinite(r["total"])
    assert len(holdout["holdout_simple_loss"]) == 3
    assert final["checkpoint"] == str(ck) and final["model"] == "1/16/32"
    assert final["final_loss"] == steps[-1]["total"] and final["skipped_trials"] == 0


def test_train_skips_trials_shorter_than_a_window(tmp_path, capsys):
    # a 1.5 s trial (31 frames at 20 Hz) holds no 61-frame window
    tree = default_tree()
    trials = [dg.make_trial(dg.generate_motion(kind, seed=i, duration_s=s, trial_id=f"{kind}-{i}"), tree)
              for i, (kind, s) in enumerate([("gait", 1.5), ("gait", 4.0), ("stationary", 4.0)])]
    data = tmp_path / "short.imfd"
    dg.save_dataset(trials, tree, data)
    train = ["train", "--data", str(data), "--size", "1/16/32", "--steps", "2", "--batch", "2"]

    # the short trial is the only one held out: no holdout window, no training
    assert cli.main(train + ["--holdout", "1", "--out", str(tmp_path / "a.imfc")]) == 1
    err = capsys.readouterr().err
    assert "error (DatasetError): no held-out trial has the 61 frames of a window" in err
    assert "Traceback" not in err and not (tmp_path / "a.imfc").exists()

    # held out with a long one, it is skipped and counted
    assert cli.main(train + ["--holdout", "2", "--out", str(tmp_path / "b.imfc")]) == 0
    final = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert final["skipped_trials"] == 1


def test_evaluate_report_is_strict_json(workdir, tmp_path):
    # a still ground truth has no jitter ratio: the report says null, not NaN
    rec, rep = tmp_path / "rec.jsonl", tmp_path / "report.json"
    assert cli.main(["reconstruct", "--ckpt", str(workdir / "tiny.imfc"), "--config", "pelvis", "--spread", "3",
                     "--in", str(workdir / "corpus.imfd"), "--trial", "stationary-001", "--out", str(rec)]) == 0
    assert cli.main(["evaluate", "--gt", str(workdir / "corpus.imfd"), "--trial", "stationary-001",
                     "--rec", str(rec), "--out", str(rep)]) == 0

    def refuse(name):
        raise AssertionError(f"{name} is not strict JSON")
    doc = json.loads(rep.read_text(), parse_constant=refuse)
    assert doc["metrics"]["jitter"] is None and np.isfinite(doc["metrics"]["GA_deg"])


def test_reconstruct_deterministic_given_seed(workdir, tmp_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (out1, out2):
        rc = cli.main(["reconstruct", "--ckpt", str(workdir / "tiny.imfc"),
                       "--config", "pelvis", "--spread", "3",
                       "--in", str(workdir / "corpus.imfd"), "--trial", "stationary-001",
                       "--out", str(out), "--seed", "11"])
        assert rc == 0
    # identical content; only the wall-clock latency fields may differ
    a = inf.read_pose_stream(out1)
    b = inf.read_pose_stream(out2)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_reconstruct_stream_poses_keep_the_stream_clock(workdir, tmp_path):
    # a pose is stamped with its instant's t_ms, not with its index
    trial = dg.load_dataset(workdir / "corpus.imfd", default_tree())[0]
    frames = inf.stream_frames_from_trial(trial, SensorConfig.parse("pelvis"), default_tree())[:30]
    for fr in frames:
        fr.t_ms += 5000.0
    stream, out = tmp_path / "stream.jsonl", tmp_path / "rec.jsonl"
    inf.write_stream_file(stream, frames)
    rc = cli.main(["reconstruct", "--ckpt", str(workdir / "tiny.imfc"), "--config", "pelvis", "--spread", "2",
                   "--in", str(stream), "--height", "1.7", "--out", str(out)])
    assert rc == 0
    stamps = [json.loads(line)["t_ms"] for line in out.read_text().splitlines()[1:]]
    assert stamps == [5000.0 + 50.0 * k for k in range(10)]


def test_reconstruct_from_stream_file(workdir, tmp_path):
    trials = dg.load_dataset(workdir / "corpus.imfd", default_tree())
    trial = trials[0]
    config_label = "pelvis,shank_l,shank_r"
    frames = inf.stream_frames_from_trial(trial, SensorConfig.parse(config_label), default_tree())
    stream = tmp_path / "stream.jsonl"
    inf.write_stream_file(stream, frames)
    out = tmp_path / "rec.jsonl"
    rc = cli.main(["reconstruct", "--ckpt", str(workdir / "tiny.imfc"),
                   "--config", config_label, "--spread", "3", "--in", str(stream),
                   "--height", f"{trial.motion.height}", "--out", str(out)])
    assert rc == 0
    rot, root, contacts = inf.read_pose_stream(out)
    assert np.isfinite(rot).all() and np.isfinite(root).all()


@pytest.mark.parametrize("record, field, value", [
    (9, "q", [0.0, 0.0, 0.0, 0.0]),      # zero pelvis quaternion at a decimation instant
    (10, "a", [float("nan"), 0.0, 0.0]),  # NaN acceleration between instants
    (10, "a", [1e307, 0.0, 0.0]),         # finite, but its mean would overflow float32
    (9, "q", [0.5, 0.0, 0.0, 0.0]),       # norm 0.5: far from unit, not rounding
    (10, "q", [0.0, 2.0, 0.0, 0.0]),      # norm 2
])
def test_reconstruct_stream_bad_sample_is_a_dropout(workdir, tmp_path, capsys, record, field, value):
    # one bad sample drops that site from its record; the session goes on
    trial = dg.load_dataset(workdir / "corpus.imfd", default_tree())[0]
    frames = inf.stream_frames_from_trial(trial, SensorConfig.parse("pelvis,head"), default_tree())[:30]
    q, a = frames[record].sites["pelvis"]
    frames[record].sites["pelvis"] = (np.array(value), a) if field == "q" else (q, np.array(value))
    stream = tmp_path / "stream.jsonl"
    inf.write_stream_file(stream, frames)
    out = tmp_path / "rec.jsonl"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["reconstruct", "--ckpt", str(workdir / "tiny.imfc"), "--config", "pelvis,head",
                       "--spread", "3", "--in", str(stream), "--height", f"{trial.motion.height}",
                       "--out", str(out)])
    assert rc == 0
    rot, root, contacts = inf.read_pose_stream(out)
    assert len(rot) == len(range(0, len(frames), 3))
    assert np.isfinite(rot).all() and np.isfinite(root).all()
    assert "dropped 1 bad samples and 0 out-of-order records" in capsys.readouterr().out


@pytest.mark.parametrize("extra, record", [("wrist_l", 6), ("bogus", 6), ("wrist_l", 4), ("insoles", None)],
                         ids=["site-at-instant", "unknown-site", "site-between-instants", "insoles"])
def test_reconstruct_stream_sensors_outside_config_are_left_out(workdir, tmp_path, capsys, extra, record):
    # a site or insoles that --config lacks, on any record, are left out as
    # dataset input leaves them out; a site the skeleton lacks is a bad sample
    tree = default_tree()
    trial = dg.load_dataset(workdir / "corpus.imfd", tree)[0]

    def frames(config):
        return inf.stream_frames_from_trial(trial, SensorConfig.parse(config), tree)[:30]

    extended = frames("pelvis,insoles" if extra == "insoles" else "pelvis")
    if record is not None:
        extended[record].sites[extra] = extended[record].sites["pelvis"]
    poses, summaries = [], []
    for name, stream_frames in (("plain", frames("pelvis")), ("extended", extended)):
        stream, out = tmp_path / f"{name}.jsonl", tmp_path / f"{name}-rec.jsonl"
        inf.write_stream_file(stream, stream_frames)
        rc = cli.main(["reconstruct", "--ckpt", str(workdir / "tiny.imfc"), "--config", "pelvis",
                       "--spread", "3", "--in", str(stream), "--height", f"{trial.motion.height}",
                       "--out", str(out)])
        assert rc == 0
        poses.append(inf.read_pose_stream(out))
        summaries.append(capsys.readouterr().out)
    for plain, got in zip(*poses):
        np.testing.assert_array_equal(got, plain)
    assert "dropped 0 bad samples and 0 out-of-order records" in summaries[0]
    bad = 1 if extra == "bogus" else 0
    assert f"dropped {bad} bad samples and 0 out-of-order records" in summaries[1]


def test_reconstruct_stream_requires_height(workdir, tmp_path):
    stream = tmp_path / "s.jsonl"
    stream.write_text('{"format": "imu-stream", "version": 1, "rate_hz": 60}\n')
    rc = cli.main(["reconstruct", "--ckpt", str(workdir / "tiny.imfc"), "--config", "pelvis",
                   "--in", str(stream), "--out", str(tmp_path / "o.jsonl")])
    assert rc == 1


@pytest.mark.parametrize("flag, value, error", [
    ("--config", "foo", "FeatureError"),
    ("--spread", "foo", "SpreadError"),
    ("--height", "0", "FeatureError"),
    ("--height", "-1", "FeatureError"),
    ("--height", "nan", "FeatureError"),
    ("--height", "1e300", "FeatureError"),
])
def test_reconstruct_bad_argument_fails_cleanly(workdir, tmp_path, capsys, flag, value, error):
    # a usage error (exit 2); a --spread of bad syntax is one too, since
    # its argparse type checks what needs no checkpoint
    argv = {"--ckpt": str(workdir / "tiny.imfc"), "--config": "pelvis", "--spread": "3",
            "--in": str(workdir / "corpus.imfd"), "--trial": "stationary-001",
            "--out": str(tmp_path / "o.jsonl")}
    argv[flag] = value
    try:
        rc = cli.main(["reconstruct"] + [x for kv in argv.items() for x in kv])
    except SystemExit as e:
        rc = e.code
    assert rc == 2
    assert error in capsys.readouterr().err
    assert not (tmp_path / "o.jsonl").exists()


@pytest.mark.parametrize("cmd", ["reconstruct", "sweep", "bench"])
@pytest.mark.parametrize("spread", ["foo", "5,9,0", "3/", "1", "\u00b2"])
def test_malformed_spread_is_usage_error(tmp_path, capsys, cmd, spread):
    # refused by the argparse type before any file is read: none of these exist
    argv = {"reconstruct": ["--config", "pelvis", "--in", str(tmp_path / "x.imfd")],
            "sweep": ["--data", str(tmp_path / "x.imfd"), "--configs", "pelvis"],
            "bench": []}[cmd]
    with pytest.raises(SystemExit) as e:
        cli.main([cmd, "--ckpt", str(tmp_path / "x.imfc"), "--spread", spread,
                  "--out", str(tmp_path / "o.json")] + argv)
    assert e.value.code == 2
    assert "argument --spread: SpreadError" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("cmd", ["reconstruct", "sweep", "bench"])
@pytest.mark.parametrize("spread", ["1002", "2000,0"])
def test_spread_beyond_the_checkpoints_T_is_runtime_error(workdir, tmp_path, capsys, cmd, spread):
    # well-formed, but tiny.imfc's T = 1000 admits at most 1001 steps, the
    # largest 1000
    argv = {"reconstruct": ["--config", "pelvis", "--in", str(workdir / "corpus.imfd"),
                            "--trial", "stationary-001"],
            "sweep": ["--data", str(workdir / "corpus.imfd"), "--configs", "pelvis", "--trials", "1"],
            "bench": ["--frames", "2"]}[cmd]
    rc = cli.main([cmd, "--ckpt", str(workdir / "tiny.imfc"), "--spread", spread,
                   "--out", str(tmp_path / "o.json")] + argv)
    assert rc == 1
    assert "error (SpreadError)" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--configs", "pelvis", "--objectives", "GA,foo"], "argument --objectives: MetricsError: "
     "unknown objectives ['foo']"),
    (["sweep", "--configs", ";"], "argument --configs: FeatureError: no sensor configuration in ';'"),
    (["sweep", "--configs", "pelvis;foo"], "argument --configs: FeatureError: unknown sites in config: ['foo']"),
    (["reconstruct", "--config", "foo", "--in", "x.imfd"], "argument --config: FeatureError: "
     "unknown sites in config: ['foo']"),
    (["reconstruct", "--config", "pelvis", "--in", "x.imfd", "--height", "nan"],
     "argument --height: FeatureError: subject height must be in [0.5, 2.75] m, got nan"),
    (["reconstruct", "--config", "pelvis", "--in", "x.imfd", "--height", "tall"],
     "argument --height: ValueError: could not convert string to float: 'tall'"),
    (["bench", "--config", "pelvis,pelvis"], "argument --config: FeatureError: duplicate sites"),
    (["reconstruct", "--config", "pelvis", "--in", "x.imfd", "--variant", "ddim"],
     "unrecognized arguments: --variant ddim"),
    (["sweep", "--configs", "pelvis;head;pelvis"], "argument --configs: FeatureError: sensor set given twice: "
     "'pelvis' and 'pelvis'"),
    (["sweep", "--configs", "head,pelvis+insoles;pelvis;insoles,pelvis,head"], "argument --configs: FeatureError: "
     "sensor set given twice: 'head,pelvis+insoles' and 'insoles,pelvis,head'"),
])
def test_bad_argument_is_usage_error_before_the_checkpoint_is_read(tmp_path, capsys, argv, message):
    cmd, *rest = argv
    files = {"sweep": ["--data", "x.imfd", "--out", "o.json"], "reconstruct": ["--out", "o.jsonl"],
             "bench": []}[cmd]
    with pytest.raises(SystemExit) as e:
        cli.main([cmd, "--ckpt", str(tmp_path / "absent.imfc")] + rest + files)
    assert e.value.code == 2
    assert message in capsys.readouterr().err


def test_reconstruct_stream_rejects_bad_height(workdir, tmp_path, capsys):
    stream = tmp_path / "s.jsonl"
    stream.write_text('{"format": "imu-stream", "version": 1, "rate_hz": 60}\n')
    with pytest.raises(SystemExit) as e:
        cli.main(["reconstruct", "--ckpt", str(workdir / "tiny.imfc"), "--config", "pelvis",
                  "--in", str(stream), "--height", "0", "--out", str(tmp_path / "o.jsonl")])
    assert e.value.code == 2
    assert "argument --height: FeatureError: " in capsys.readouterr().err


def test_bench_rejects_nonpositive_frames(workdir, capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["bench", "--ckpt", str(workdir / "tiny.imfc"), "--frames", "0"])
    assert e.value.code == 2
    assert "argument --frames: ValueError: must be at least 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["train", "--steps", "0"], "argument --steps: ValueError: must be at least 1, got 0"),
    (["train", "--batch", "0"], "argument --batch: ValueError: must be at least 1, got 0"),
    (["train", "--batch", "-3"], "argument --batch: ValueError: must be at least 1, got -3"),
    (["train", "--holdout", "-1"], "argument --holdout: ValueError: must be at least 0, got -1"),
    (["train", "--steps", "2.5"], "argument --steps: ValueError: invalid literal for int()"),
    (["sweep", "--trials", "-1"], "argument --trials: ValueError: must be at least 0, got -1"),
    (["bench", "--frames", "-2"], "argument --frames: ValueError: must be at least 1, got -2"),
    (["train", "--lr", "-1"], "argument --lr: ValueError: must be finite and positive, got -1.0"),
    (["train", "--lr", "0"], "argument --lr: ValueError: must be finite and positive, got 0.0"),
    (["train", "--lr", "nan"], "argument --lr: ValueError: must be finite and positive, got nan"),
    (["train", "--lr", "inf"], "argument --lr: ValueError: must be finite and positive, got inf"),
    (["train", "--diffusion-steps", "1"], "argument --diffusion-steps: ScheduleError: T must be in [2, "),
    (["train", "--diffusion-steps", str(df.MAX_T + 1)], "argument --diffusion-steps: ScheduleError: "
     f"T must be in [2, {df.MAX_T}], got {df.MAX_T + 1}"),
    *[([cmd, "--seed", "-1"], "argument --seed: ValueError: must be at least 0, got -1")
      for cmd in ("datagen", "train", "reconstruct", "sweep", "bench")],
    (["datagen", "--kinds", ","], "argument --kinds: GenerationError: need one or more of gait, random_smooth, "
     "stationary, jump; got ','"),
    (["datagen", "--kinds", "gait,bogus"], "argument --kinds: GenerationError: need one or more of "),
    (["datagen", "--trials", "0"], "argument --trials: ValueError: must be at least 1, got 0"),
    (["datagen", "--seconds", "nan"], "argument --seconds: ValueError: must be finite and at least 0.5, got nan"),
    (["datagen", "--seconds", "inf"], "argument --seconds: ValueError: must be finite and at least 0.5, got inf"),
    (["datagen", "--seconds", "0.4"], "argument --seconds: ValueError: must be finite and at least 0.5, got 0.4"),
    (["datagen", "--noise-std", "-1"], "argument --noise-std: ValueError: must be finite and at least 0.0, "
     "got -1.0"),
    (["datagen", "--noise-std", "nan"], "argument --noise-std: ValueError: must be finite and at least 0.0, "
     "got nan"),
    (["datagen", "--seconds", "1e300"], "argument --seconds: ValueError: must be at most 600.0, got 1e+300"),
    (["datagen", "--seconds", str(float(np.nextafter(dg.MAX_DURATION_S, np.inf)))],
     "argument --seconds: ValueError: must be at most 600.0, got 600.0000000000001"),
    (["bench", "--frames", "11981"], "argument --frames: ValueError: must be at most 11980, got 11981"),
])
def test_bad_count_is_usage_error_before_any_file_is_read(tmp_path, capsys, argv, message):
    cmd, *rest = argv
    absent, out = str(tmp_path / "absent"), str(tmp_path / "out")
    files = {"datagen": ["--out", out],
             "train": ["--data", absent, "--out", out],
             "reconstruct": ["--ckpt", absent, "--config", "pelvis", "--in", absent, "--out", out],
             "sweep": ["--ckpt", absent, "--data", absent, "--configs", "pelvis", "--out", out],
             "bench": ["--ckpt", absent, "--out", out]}[cmd]
    with pytest.raises(SystemExit) as e:
        cli.main([cmd] + rest + files)
    assert e.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_evaluate_missing_trial_fails_cleanly(workdir, tmp_path):
    rc = cli.main(["evaluate", "--gt", str(workdir / "corpus.imfd"), "--trial", "nope",
                   "--rec", str(workdir / "corpus.imfd")])
    assert rc == 1


def test_sweep(workdir, tmp_path):
    out = tmp_path / "sweep.json"
    rc = cli.main(["sweep", "--ckpt", str(workdir / "tiny.imfc"),
                   "--data", str(workdir / "corpus.imfd"),
                   "--configs", "pelvis;pelvis+head", "--objectives", "GA,RE2",
                   "--spread", "3", "--trials", "1", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "sweep"
    assert set(doc["rankings"]) == {"GA", "RE2"}
    assert len(doc["rankings"]["GA"]) == 2
    assert set(doc["configs"]) == {"pelvis", "pelvis+head"}


def test_sweep_objective_without_value_prints_na(workdir, tmp_path, capsys):
    # the default objectives include RE10, which has no value on 5 s trials
    out = tmp_path / "sweep.json"
    rc = cli.main(["sweep", "--ckpt", str(workdir / "tiny.imfc"),
                   "--data", str(workdir / "corpus.imfd"), "--configs", "pelvis",
                   "--spread", "3", "--trials", "1", "--out", str(out)])
    assert rc == 0
    assert "best RE10: pelvis (n/a)" in capsys.readouterr().out
    assert json.loads(out.read_text())["configs"]["pelvis"]["aggregate"]["RE10_m"]["mean"] is None


def test_sweep_duplicate_config_identical_metrics(workdir, tmp_path):
    out = tmp_path / "sweep2.json"
    rc = cli.main(["sweep", "--ckpt", str(workdir / "tiny.imfc"),
                   "--data", str(workdir / "corpus.imfd"),
                   "--configs", "pelvis", "--objectives", "GA",
                   "--spread", "3", "--trials", "1", "--seed", "5", "--out", str(out)])
    assert rc == 0
    first = json.loads(out.read_text())["configs"]["pelvis"]["aggregate"]["GA_deg"]
    rc = cli.main(["sweep", "--ckpt", str(workdir / "tiny.imfc"),
                   "--data", str(workdir / "corpus.imfd"),
                   "--configs", "pelvis", "--objectives", "GA",
                   "--spread", "3", "--trials", "1", "--seed", "5", "--out", str(out)])
    assert rc == 0
    second = json.loads(out.read_text())["configs"]["pelvis"]["aggregate"]["GA_deg"]
    assert first == second


def test_bench(workdir, tmp_path):
    out = tmp_path / "bench.json"
    rc = cli.main(["bench", "--ckpt", str(workdir / "tiny.imfc"), "--spread", "4",
                   "--frames", "12", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "bench"
    assert doc["frames"] == 12
    assert doc["p95_ms"] > 0


def test_checkpoint_corruption_fails_cleanly(workdir, tmp_path):
    bad = tmp_path / "bad.imfc"
    bad.write_bytes(b"XXXX" + (workdir / "tiny.imfc").read_bytes()[4:])
    rc = cli.main(["bench", "--ckpt", str(bad), "--frames", "2"])
    assert rc == 1


def test_truncated_checkpoint_fails_cleanly(workdir, tmp_path, capsys):
    bad = tmp_path / "short.imfc"
    bad.write_bytes((workdir / "tiny.imfc").read_bytes()[:-10])
    rc = cli.main(["bench", "--ckpt", str(bad), "--frames", "2"])
    assert rc == 1
    assert "CheckpointError" in capsys.readouterr().err


def test_truncated_dataset_fails_cleanly(workdir, tmp_path, capsys):
    rec = tmp_path / "rec.jsonl"
    assert cli.main(["reconstruct", "--ckpt", str(workdir / "tiny.imfc"), "--config", "pelvis",
                     "--spread", "3", "--in", str(workdir / "corpus.imfd"),
                     "--trial", "gait-000", "--out", str(rec)]) == 0
    capsys.readouterr()
    blob = (workdir / "corpus.imfd").read_bytes()
    bad = tmp_path / "short.imfd"
    bad.write_bytes(blob[:len(blob) // 2])
    rc = cli.main(["evaluate", "--gt", str(bad), "--trial", "gait-000", "--rec", str(rec)])
    assert rc == 1
    assert "DatasetError" in capsys.readouterr().err


@pytest.mark.parametrize("spread", ["4000000", "1" * 25])
def test_reconstruct_huge_step_count_fails_cleanly(workdir, tmp_path, capsys, spread):
    rc = cli.main(["reconstruct", "--ckpt", str(workdir / "tiny.imfc"), "--config", "pelvis",
                   "--spread", spread, "--in", str(workdir / "corpus.imfd"),
                   "--trial", "gait-000", "--out", str(tmp_path / "rec.jsonl")])
    assert rc == 1
    assert "SpreadError" in capsys.readouterr().err


@pytest.mark.parametrize("size", ["foo", "8/512", "0/64/128"])
def test_train_bad_size_is_usage_error(workdir, tmp_path, size):
    with pytest.raises(SystemExit) as e:
        cli.main(["train", "--data", str(workdir / "corpus.imfd"), "--size", size,
                  "--steps", "1", "--out", str(tmp_path / "m.imfc")])
    assert e.value.code == 2
    assert not (tmp_path / "m.imfc").exists()


STREAM_HEADER = b'{"format": "imu-stream", "version": 1, "rate_hz": 60}\n'
POSE_HEADER = json.dumps({"format": "pose-stream", "version": 1, "rate_hz": 20,
                          "segments": list(default_tree().names)}).encode() + b"\n"
POSE_RECORD = json.dumps({"t_ms": 0, "root": [0, 0, 0], "q": [[1, 0, 0, 0]] * 24, "contact": [0] * 4}).encode() + b"\n"


@pytest.mark.parametrize("content, where", [
    (STREAM_HEADER + b'{"t_ms": 0, "sites": {\n', ":2: "),
    (STREAM_HEADER + b'{"t_ms": 0}\n\n{"sites": {}}\n', ":4: missing field 't_ms'"),
    (STREAM_HEADER + b'{"t_ms": 0, "sites": {"pelvis": {"q": [1, 0], "a": [0, 0, 0]}}}\n',
     ":2: field 'sites.pelvis.q' has shape (2,)"),
    (b"", "empty file"),
    (b"\xc3\x28\n", ":1: "),
    (STREAM_HEADER.replace(b"60", b"120") + b'{"t_ms": 0}\n', ":1: imu-stream rate_hz must be 60, got 120"),
    (b'{"format": "imu-stream", "version": 1}\n{"t_ms": 0}\n', ":1: imu-stream rate_hz must be 60, got None"),
    (STREAM_HEADER + b"[" * 100000 + b"\n", ":2: maximum recursion depth exceeded"),
    (STREAM_HEADER + b'{"t_ms": "5"}\n', ":2: field 't_ms' must be a number, got '5'"),
    (STREAM_HEADER + b'{"t_ms": true}\n', ":2: field 't_ms' must be a number, got True"),
    (STREAM_HEADER + b'{"t_ms": 0, "sites": {"pelvis": {"q": ["1", 0, 0, 0], "a": [0, 0, 0]}}}\n',
     ":2: field 'sites.pelvis.q' must hold numbers only, got '1'"),
    (STREAM_HEADER + b'{"t_ms": 0, "sites": {"pelvis": {"q": [1, 0, 0, 0], "a": [false, 0, 0]}}}\n',
     ":2: field 'sites.pelvis.a' must hold numbers only, got False"),
    (STREAM_HEADER + b'{"t_ms": 0, "insoles": [true, 0, 1, 1]}\n', ":2: field 'insoles' must hold numbers only, got True"),
    (STREAM_HEADER.replace(b'"version": 1', b'"version": true') + b'{"t_ms": 0}\n',
     ":1: unsupported imu-stream version True, expected 1"),
    (STREAM_HEADER + b'{"t_ms": 0, "t_ms": 5}\n', ":2: repeated key 't_ms'"),
    (STREAM_HEADER + b'{"t_ms": 0, "sites": {"pelvis": {"q": [1, 0, 0, 0], "a": [0, 0, 0], "q": [0, 1, 0, 0]}}}\n',
     ":2: repeated key 'q'"),
    (STREAM_HEADER.replace(b'"version": 1', b'"version": 7, "version": 1') + b'{"t_ms": 0}\n',
     ":1: repeated key 'version'"),
], ids=["bad-json", "no-t_ms", "short-q", "empty", "not-utf8", "rate-120", "no-rate", "nested",
        "string-t_ms", "true-t_ms", "string-q", "false-a", "true-insoles", "true-version",
        "repeated-t_ms", "repeated-q", "repeated-version"])
def test_reconstruct_malformed_stream_fails_cleanly(workdir, tmp_path, capsys, content, where):
    stream = tmp_path / "s.jsonl"
    stream.write_bytes(content)
    rc = cli.main(["reconstruct", "--ckpt", str(workdir / "tiny.imfc"), "--config", "pelvis",
                   "--in", str(stream), "--height", "1.7", "--out", str(tmp_path / "o.jsonl")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error (InferenceError)" in err and where in err


@pytest.mark.parametrize("records, out_of_order", [
    (b"", 0),
    (b'{"t_ms": NaN, "sites": {"pelvis": {"q": [1, 0, 0, 0], "a": [0, 0, 0]}}}\n' * 4, 4),
], ids=["header-only", "nan-t_ms"])
def test_reconstruct_stream_without_an_instant_fails_cleanly(workdir, tmp_path, capsys, records, out_of_order):
    # no record in order, so no 20 Hz instant: an error, and no pose stream
    # that `evaluate` would refuse
    stream = tmp_path / "s.jsonl"
    stream.write_bytes(STREAM_HEADER + records)
    rc = cli.main(["reconstruct", "--ckpt", str(workdir / "tiny.imfc"), "--config", "pelvis",
                   "--in", str(stream), "--height", "1.7", "--out", str(tmp_path / "o.jsonl")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error (InferenceError): {stream}: no 20 Hz instant to reconstruct " \
           f"({out_of_order} out-of-order records)" in err
    assert not (tmp_path / "o.jsonl").exists()


def _no_motion(*args, **kwargs):
    raise AssertionError("bench synthesized its motion before reading --ckpt and --spread")


@pytest.mark.parametrize("cmd", ["reconstruct", "sweep", "bench"])
@pytest.mark.parametrize("ckpt, spread, error", [("junk.imfc", "3", "CheckpointError"),
                                                 ("tiny.imfc", "1002", "SpreadError")])
def test_checkpoint_and_spread_are_read_before_any_input(workdir, tmp_path, capsys, monkeypatch,
                                                         cmd, ckpt, spread, error):
    # the input does not exist and bench cannot make its motion: the
    # checkpoint's error, or the spread's against its T, comes first
    (tmp_path / "junk.imfc").write_bytes(b"junk")
    monkeypatch.setattr(dg, "generate_motion", _no_motion)
    absent = str(tmp_path / "absent.imfd")
    argv = {"reconstruct": ["--config", "pelvis", "--in", absent],
            "sweep": ["--data", absent, "--configs", "pelvis"],
            "bench": ["--frames", "2"]}[cmd]
    rc = cli.main([cmd, "--ckpt", str((tmp_path if ckpt == "junk.imfc" else workdir) / ckpt),
                   "--spread", spread, "--out", str(tmp_path / "o.json")] + argv)
    assert rc == 1
    assert f"error ({error})" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("content, where", [
    (POSE_HEADER + b'{"t_ms": 0, "root": [0, 0\n', ":2: "),
    (POSE_HEADER + b'\n', "no pose records"),
    (POSE_HEADER.replace(b'"rate_hz": 20', b'"rate_hz": 7') + POSE_RECORD, ":1: pose-stream rate_hz must be 20, got 7"),
    (POSE_HEADER.replace(b'"rate_hz": 20, ', b"") + POSE_RECORD, ":1: pose-stream rate_hz must be 20, got None"),
    (POSE_HEADER
     + POSE_RECORD.replace(b"[[1, 0, 0, 0], ", b"[[0, 0, 0, 0], ", 1), ":2: field 'q' holds a quaternion whose norm"),
    (POSE_HEADER
     + POSE_RECORD.replace(b"[[1, 0, 0, 0], ", b"[[0, 2, 0, 0], ", 1), ":2: field 'q' holds a quaternion whose norm"),
    (POSE_HEADER
     + POSE_RECORD.replace(b'"root": [0, 0, 0]', b'"root": [0, NaN, 0]'), ":2: field 'root' is not finite"),
    (POSE_HEADER
     + POSE_RECORD.replace(b'"contact": [0, 0, 0, 0]', b'"contact": [0, NaN, 0, 0]'),
     ":2: field 'contact' is not in [0, 1]"),
    (POSE_HEADER
     + POSE_RECORD.replace(b'"contact": [0, 0, 0, 0]', b'"contact": [0, 0, 1.5, 0]'),
     ":2: field 'contact' is not in [0, 1]"),
    (POSE_HEADER + b"[" * 100000 + b"\n",
     ":2: maximum recursion depth exceeded"),
    (POSE_HEADER + POSE_RECORD.replace(b'"t_ms": 0, ', b"") * 3,
     ":2: missing field 't_ms'"),
    (POSE_HEADER
     + POSE_RECORD + POSE_RECORD.replace(b'"t_ms": 0', b'"t_ms": null') + POSE_RECORD,
     ":3: field 't_ms' must be a number, got None"),
    (POSE_HEADER
     + b"".join(POSE_RECORD.replace(b'"t_ms": 0', b'"t_ms": %d' % t) for t in (0, 50, 100, 150, 200, 100, 300)),
     ":7: field 't_ms' must be finite and not before the previous record's, got 100.0"),
    (POSE_HEADER + POSE_RECORD.replace(b'"t_ms": 0', b'"t_ms": "5"'),
     ":2: field 't_ms' must be a number, got '5'"),
    (POSE_HEADER
     + POSE_RECORD.replace(b'"root": [0, 0, 0]', b'"root": ["0", true, 0]'), ":2: field 'root' must hold numbers only, got '0'"),
    (POSE_HEADER
     + POSE_RECORD.replace(b'"contact": [0, 0, 0, 0]', b'"contact": [false, 0, 0, 0]'),
     ":2: field 'contact' must hold numbers only, got False"),
    (POSE_HEADER.replace(b'"version": 1', b'"version": true') + POSE_RECORD,
     ":1: unsupported pose-stream version True, expected 1"),
    (POSE_HEADER + POSE_RECORD.replace(b'"root": [0, 0, 0]', b'"root": [0, 0, 0], "root": [5, 5, 5]'),
     ":2: repeated key 'root'"),
    (POSE_HEADER.replace(b'"version": 1', b'"version": 7, "version": 1') + POSE_RECORD, ":1: repeated key 'version'"),
    (b'{"format": "pose-stream", "version": 1, "rate_hz": 20, "segments": ["a", "a", "a"]}\n' + POSE_RECORD,
     ":1: pose-stream segments must be ['pelvis', "),
    (b'{"format": "pose-stream", "version": 1, "rate_hz": 20}\n' + POSE_RECORD,
     ":1: pose-stream segments must be ['pelvis', "),
], ids=["bad-json", "no-records", "rate-7", "no-rate", "zero-q", "q-norm-2", "nan-root", "nan-contact",
        "contact-1.5", "nested", "no-t_ms", "null-t_ms", "t_ms-goes-back",
        "string-t_ms", "string-root", "false-contact", "true-version",
        "repeated-root", "repeated-version", "segments-a-a-a", "no-segments"])
def test_evaluate_malformed_pose_stream_fails_cleanly(workdir, tmp_path, capsys, content, where):
    rec = tmp_path / "rec.jsonl"
    rec.write_bytes(content)
    rc = cli.main(["evaluate", "--gt", str(workdir / "corpus.imfd"), "--trial", "gait-000",
                   "--rec", str(rec)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error (InferenceError)" in err and where in err


HUGE = "1" + "0" * 400  # a JSON integer too large for a float


@pytest.mark.parametrize("command, content, error, where", [
    ("reconstruct", STREAM_HEADER.decode() + '{"t_ms": %s}\n' % HUGE, "InferenceError",
     ":2: int too large to convert to float"),
    ("evaluate", POSE_HEADER.decode()
     + POSE_RECORD.decode().replace('"root": [0, 0, 0]', '"root": [%s, 0, 0]' % HUGE), "InferenceError",
     ":2: int too large to convert to float"),
    ("evaluate", POSE_HEADER.decode()
     + POSE_RECORD.decode().replace("[[1, 0, 0, 0], ", "[[1e200, 0, 0, 0], ", 1), "InferenceError",
     ":2: field 'q' holds a quaternion whose norm"),
    ("skeleton", _malformed_skeleton("reference-height").replace('"reference_height_m": -1.0', '"reference_height_m": ' + HUGE), "SkeletonError",
     "malformed skeleton: int too large to convert to float"),
    ("skeleton", _malformed_skeleton("negative-parent").replace('"parent": -3', '"parent": 1' + "0" * 30), "SkeletonError",
     "malformed skeleton: "),
], ids=["stream-t_ms", "pose-root", "pose-q-1e200", "skeleton-height", "skeleton-parent"])
def test_number_out_of_range_fails_cleanly(workdir, tmp_path, capsys, command, content, error, where):
    # a value no float (or parent index) can hold is a typed error, and a
    # quaternion whose norm overflows is refused without a warning (the
    # test configuration turns warnings into errors)
    f = tmp_path / "in.jsonl"
    f.write_text(content)
    argv = {"reconstruct": ["reconstruct", "--ckpt", str(workdir / "tiny.imfc"), "--config", "pelvis",
                            "--in", str(f), "--height", "1.7", "--out", str(tmp_path / "o.jsonl")],
            "evaluate": ["evaluate", "--gt", str(workdir / "corpus.imfd"), "--trial", "gait-000", "--rec", str(f)],
            "skeleton": ["skeleton", "validate", str(f)]}[command]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert f"error ({error})" in err and where in err

def _put(blob: bytes, at: int, fmt: str, value) -> bytes:
    return blob[:at] + struct.pack(fmt, value) + blob[at + struct.calcsize(fmt):]


def _flip(blob: bytes, at: int, bit: int) -> bytes:
    return blob[:at] + bytes([blob[at] ^ (1 << bit)]) + blob[at + 1:]


# checkpoint offsets: layers 8, width 12, ff 16, nhead 20, T 24, then the
# 6-byte schedule kind, the skeleton hash at 38 and, at 188, the rank of
# the first parameter record ("height_mlp.b1")
@pytest.mark.parametrize("corrupt", [
    lambda b: _flip(b, 38, 7),                 # a skeleton-hash byte that is not UTF-8
    lambda b: _put(b, 20, "<I", 3),            # nhead 3 does not divide width 16
    lambda b: _put(b, 12, "<I", 32),           # width 32, parameters stored for 16
    lambda b: _put(b, 24, "<I", df.MAX_T + 1), # schedule length past the maximum
    lambda b: _put(b, 188, "<I", 1000),        # a rank no parameter has
], ids=["hash-not-utf8", "nhead-3", "width-32", "T-past-max", "rank-1000"])
def test_corrupt_checkpoint_fails_cleanly(workdir, tmp_path, capsys, corrupt):
    bad = tmp_path / "bad.imfc"
    bad.write_bytes(corrupt((workdir / "tiny.imfc").read_bytes()))
    rc = cli.main(["reconstruct", "--ckpt", str(bad), "--config", "pelvis", "--spread", "3",
                   "--in", str(workdir / "corpus.imfd"), "--trial", "gait-000",
                   "--out", str(tmp_path / "rec.jsonl")])
    assert rc == 1
    assert "error (CheckpointError)" in capsys.readouterr().err


def test_checkpoint_of_two_dtypes_fails_cleanly(workdir, tmp_path, capsys):
    cfg = df.DenoiserConfig(layers=1, width=16, ff=32)
    params = df.init_denoiser(cfg, seed=0)
    params["out_proj.b"] = Tensor(params["out_proj.b"].data.astype(np.float64), requires_grad=True)
    bad = tmp_path / "mixed.imfc"
    df.save_checkpoint(bad, cfg, params, df.build_cosine_schedule(1000), default_tree())
    rc = cli.main(["reconstruct", "--ckpt", str(bad), "--config", "pelvis", "--spread", "3",
                   "--in", str(workdir / "corpus.imfd"), "--trial", "gait-000",
                   "--out", str(tmp_path / "rec.jsonl")])
    assert rc == 1
    assert "error (CheckpointError): checkpoint parameters mix float32 and float64" in capsys.readouterr().err


def test_train_diffusion_steps_past_max_fails_cleanly(workdir, tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["train", "--data", str(workdir / "corpus.imfd"), "--size", "1/16/32", "--steps", "1",
                  "--batch", "2", "--diffusion-steps", str(df.MAX_T + 1), "--out", str(tmp_path / "m.imfc")])
    assert e.value.code == 2
    assert "argument --diffusion-steps: ScheduleError: " in capsys.readouterr().err
    assert not (tmp_path / "m.imfc").exists()


# trial 0 ("gait-000") of the corpus: id at 80, then rate, height, mass
# (float64 each), the frame count at 88 + 24 and the has-stance byte; its
# arrays follow from 88 + 29: per frame 24 rotation quaternions, a root
# position and 13 site quaternions (float64), then the accelerations
# (13 x 3 float64 a frame) and the contacts (4 uint8 a frame)
def _signals_at(blob: bytes) -> tuple[int, int]:
    """Offsets of trial 0's accelerations and contacts."""
    (frames,) = struct.unpack_from("<I", blob, 88 + 24)
    accels = 88 + 29 + frames * (24 * 4 + 3 + 13 * 4) * 8
    return accels, accels + frames * 13 * 3 * 8


@pytest.mark.parametrize("corrupt", [
    lambda b: _flip(b, 80, 7),                 # a trial-id byte that is not UTF-8
    lambda b: _flip(b, 88 + 27, 6),            # bit 30 of the frame count
    lambda b: _put(b, 88 + 8, "<d", -1.59),    # a negative height
    lambda b: _put(b, 88 + 8, "<d", 1e300),    # a height that overflows the skeleton
    lambda b: _put(b, _signals_at(b)[1] + 5, "<B", 7),             # a contact label of 7
    lambda b: _put(b, _signals_at(b)[0] + 8, "<d", float("nan")),  # a NaN acceleration
], ids=["id-not-utf8", "frames-bit30", "height-negative", "height-1e300", "contact-7", "accel-nan"])
def test_corrupt_dataset_fails_cleanly(workdir, tmp_path, capsys, corrupt):
    bad = tmp_path / "bad.imfd"
    bad.write_bytes(corrupt((workdir / "corpus.imfd").read_bytes()))
    rc = cli.main(["train", "--data", str(bad), "--size", "1/16/32", "--steps", "1", "--batch", "2",
                   "--out", str(tmp_path / "m.imfc")])
    assert rc == 1
    assert "error (DatasetError)" in capsys.readouterr().err
    assert not (tmp_path / "m.imfc").exists()


def test_dataset_of_version_1_fails_cleanly(workdir, tmp_path, capsys):
    # version 1 stored a sampling weight per trial; such a file is made again with datagen
    old = tmp_path / "v1.imfd"
    old.write_bytes(_put((workdir / "corpus.imfd").read_bytes(), 4, "<I", 1))
    rc = cli.main(["train", "--data", str(old), "--size", "1/16/32", "--steps", "1", "--batch", "2",
                   "--out", str(tmp_path / "m.imfc")])
    assert rc == 1
    assert "error (DatasetError): unsupported dataset version 1\n" in capsys.readouterr().err
    assert not (tmp_path / "m.imfc").exists()
