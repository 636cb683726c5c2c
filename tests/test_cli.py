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


def test_unknown_flag_usage_error():
    with pytest.raises(SystemExit) as e:
        cli.main(["datagen", "--definitely-not-a-flag", "1"])
    assert e.value.code == 2


def test_datagen_deterministic(workdir, tmp_path):
    rc = cli.main(["datagen", "--trials", "3", "--seconds", "5", "--seed", "7",
                   "--kinds", "gait,stationary", "--out", str(tmp_path / "again.imfd")])
    assert rc == 0
    assert (tmp_path / "again.imfd").read_bytes() == (workdir / "corpus.imfd").read_bytes()


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
    assert [r["step"] for r in steps] == [0, 2]  # log_every 50, and the last step
    for r in steps:
        assert set(r) == {"step", "simple", "vel", "fk", "drift", "slide", "total", "step_s", "grad_norm"}
        assert r["step_s"] > 0 and r["grad_norm"] > 0 and np.isfinite(r["total"])
    assert len(holdout["holdout_simple_loss"]) == 3
    assert final["checkpoint"] == str(ck) and final["model"] == "1/16/32"
    assert final["final_loss"] == steps[-1]["total"]


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
    # a usage error (exit 2), except a bad --spread: a step count resolves
    # against the checkpoint's T, so that is a runtime error (exit 1)
    argv = {"--ckpt": str(workdir / "tiny.imfc"), "--config": "pelvis", "--spread": "3",
            "--in": str(workdir / "corpus.imfd"), "--trial": "stationary-001",
            "--out": str(tmp_path / "o.jsonl")}
    argv[flag] = value
    try:
        rc = cli.main(["reconstruct"] + [x for kv in argv.items() for x in kv])
    except SystemExit as e:
        rc = e.code
    assert rc == (1 if flag == "--spread" else 2)
    assert error in capsys.readouterr().err
    assert not (tmp_path / "o.jsonl").exists()


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
    rc = cli.main(["bench", "--ckpt", str(workdir / "tiny.imfc"), "--frames", "0"])
    assert rc == 1
    assert "error (InferenceError)" in capsys.readouterr().err


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


@pytest.mark.parametrize("content, where", [
    (STREAM_HEADER + b'{"t_ms": 0, "sites": {\n', ":2: "),
    (STREAM_HEADER + b'{"t_ms": 0}\n\n{"sites": {}}\n', ":4: missing field 't_ms'"),
    (STREAM_HEADER + b'{"t_ms": 0, "sites": {"pelvis": {"q": [1, 0], "a": [0, 0, 0]}}}\n',
     ":2: field 'sites.pelvis.q' has shape (2,)"),
    (b"", "empty file"),
    (b"\xc3\x28\n", ":1: "),
], ids=["bad-json", "no-t_ms", "short-q", "empty", "not-utf8"])
def test_reconstruct_malformed_stream_fails_cleanly(workdir, tmp_path, capsys, content, where):
    stream = tmp_path / "s.jsonl"
    stream.write_bytes(content)
    rc = cli.main(["reconstruct", "--ckpt", str(workdir / "tiny.imfc"), "--config", "pelvis",
                   "--in", str(stream), "--height", "1.7", "--out", str(tmp_path / "o.jsonl")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error (InferenceError)" in err and where in err


@pytest.mark.parametrize("content, where", [
    (b'{"format": "pose-stream", "version": 1}\n{"t_ms": 0, "root": [0, 0\n', ":2: "),
    (b'{"format": "pose-stream", "version": 1, "rate_hz": 20}\n\n', "no pose records"),
], ids=["bad-json", "no-records"])
def test_evaluate_malformed_pose_stream_fails_cleanly(workdir, tmp_path, capsys, content, where):
    rec = tmp_path / "rec.jsonl"
    rec.write_bytes(content)
    rc = cli.main(["evaluate", "--gt", str(workdir / "corpus.imfd"), "--trial", "gait-000",
                   "--rec", str(rec)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error (InferenceError)" in err and where in err


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


def test_train_diffusion_steps_past_max_fails_cleanly(workdir, tmp_path, capsys):
    rc = cli.main(["train", "--data", str(workdir / "corpus.imfd"), "--size", "1/16/32", "--steps", "1",
                   "--batch", "2", "--diffusion-steps", str(df.MAX_T + 1), "--out", str(tmp_path / "m.imfc")])
    assert rc == 1
    assert "error (ScheduleError)" in capsys.readouterr().err


# trial 0 ("gait-000") of the corpus: id at 80, then rate, height, mass,
# weight (float64 each) and the frame count
@pytest.mark.parametrize("corrupt", [
    lambda b: _flip(b, 80, 7),                 # a trial-id byte that is not UTF-8
    lambda b: _flip(b, 88 + 35, 6),            # bit 30 of the frame count
    lambda b: _put(b, 88 + 8, "<d", -1.59),    # a negative height
    lambda b: _put(b, 88 + 8, "<d", 1e300),    # a height that overflows the skeleton
], ids=["id-not-utf8", "frames-bit30", "height-negative", "height-1e300"])
def test_corrupt_dataset_fails_cleanly(workdir, tmp_path, capsys, corrupt):
    bad = tmp_path / "bad.imfd"
    bad.write_bytes(corrupt((workdir / "corpus.imfd").read_bytes()))
    rc = cli.main(["train", "--data", str(bad), "--size", "1/16/32", "--steps", "1", "--batch", "2",
                   "--out", str(tmp_path / "m.imfc")])
    assert rc == 1
    assert "error (DatasetError)" in capsys.readouterr().err
    assert not (tmp_path / "m.imfc").exists()
