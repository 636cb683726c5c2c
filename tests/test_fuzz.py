"""Corrupt input files load or fail with their format's typed error, and
a faulty sensor stream runs a session to its end.

Each of the five file formats the program reads (checkpoint, dataset,
skeleton, imu-stream, pose-stream) is cut at any byte or has one or
three bits flipped; reading the result either succeeds or raises the
format's own error (`CheckpointError`, `DatasetError`, `SkeletonError`,
`InferenceError`), never another exception and never a numpy warning
(the test configuration turns warnings into errors). An imu-stream that
parses is also pushed through a `StreamIngestor`, which drops what it
cannot use.

A 60 Hz `StreamFrame` sequence with faults in it (site dropouts, NaN and
zero quaternions, insoles outside {0, 1}, jittered, repeated,
out-of-order and non-finite times) is pushed through a `StreamIngestor`
into a `Reconstructor`: every instant it releases is stepped once, in
time order, and its counters account for every fault.
"""

import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imufill import datagen as dg
from imufill import diffusion as df
from imufill import features as ft
from imufill import inference as inf
from imufill import kinematics as km


def _ingest(path, tree):
    ingestor = inf.StreamIngestor()
    for frame in inf.parse_stream_file(path):
        ingestor.push(frame)
    return ingestor.finish()


# format -> (reader of a path, error it may raise)
READERS = {
    "checkpoint": (df.load_checkpoint, df.CheckpointError),
    "dataset": (dg.load_dataset, dg.DatasetError),
    "skeleton": (lambda path, tree: km.load_skeleton(path), km.SkeletonError),
    "imu-stream": (_ingest, inf.InferenceError),
    "pose-stream": (lambda path, tree: inf.read_pose_stream(path), inf.InferenceError),
}


@pytest.fixture(scope="module")
def files(tree, tmp_path_factory):
    """format -> (bytes of a small valid file, path to write a mutant to)."""
    d = tmp_path_factory.mktemp("fuzz")
    cfg = df.DenoiserConfig(layers=1, width=8, ff=16, nhead=2)
    params = df.init_denoiser(cfg, seed=0)
    schedule = df.build_cosine_schedule(20)
    df.save_checkpoint(d / "checkpoint", cfg, params, schedule, tree)
    trial = dg.generate_corpus(tree, n_trials=1, seconds=0.5, seed=5, kinds=("gait",))[0]
    dg.save_dataset([trial], tree, d / "dataset")
    (d / "skeleton").write_bytes(resources.files("imufill.data").joinpath("skeleton_default24.json").read_bytes())
    config = ft.SensorConfig.parse("pelvis,head,insoles")
    inf.write_stream_file(d / "imu-stream", inf.stream_frames_from_trial(trial, config, tree)[:9])
    recon = inf.Reconstructor(cfg, df.FastDenoiser(cfg, params), schedule, tree, config,
                              height=trial.motion.height, spread=inf.StepSpread.like_10d(2, schedule.T))
    results = inf.run_session(recon, list(inf.measurements_from_trial(trial, config))[:2])
    inf.write_pose_stream(d / "pose-stream", tree, results)
    for fmt, (read, _) in READERS.items():
        read(d / fmt, tree)  # the unmutated file loads
    return {fmt: ((d / fmt).read_bytes(), d / f"{fmt}.mutant") for fmt in READERS}


def _loads_or_raises_its_error(fmt, blob, path, tree):
    read, error = READERS[fmt]
    path.write_bytes(blob)
    try:
        read(path, tree)
    except error:
        pass


@pytest.mark.parametrize("fmt", READERS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_truncated_file(tree, files, fmt, data):
    blob, path = files[fmt]
    n = data.draw(st.integers(0, len(blob) - 1), label="kept bytes")
    _loads_or_raises_its_error(fmt, blob[:n], path, tree)


@pytest.mark.parametrize("flips", [1, 3])
@pytest.mark.parametrize("fmt", READERS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bit_flipped_file(tree, files, fmt, flips, data):
    blob, path = files[fmt]
    mutant = np.frombuffer(blob, dtype=np.uint8).copy()
    for _ in range(flips):
        at = data.draw(st.integers(0, len(blob) - 1), label="byte")
        mutant[at] ^= np.uint8(1 << data.draw(st.integers(0, 7), label="bit"))
    _loads_or_raises_its_error(fmt, mutant.tobytes(), path, tree)


# -- a faulty stream through a session ------------------------------------

SESSION_CONFIG = ft.SensorConfig.parse("pelvis,wrist_l,head,insoles")
GOOD_Q = np.array([0.5, 0.5, -0.5, 0.5])


@pytest.fixture(scope="module")
def session(tree):
    cfg = df.DenoiserConfig(layers=1, width=8, ff=16, nhead=2)
    schedule = df.build_cosine_schedule(20)
    return inf.Reconstructor(cfg, df.FastDenoiser(cfg, df.init_denoiser(cfg, seed=0)), schedule, tree,
                             SESSION_CONFIG, height=1.7, spread=inf.StepSpread.like_10d(3, schedule.T))


@st.composite
def faulty_streams(draw):
    """(frames, out-of-order records, bad samples of the records kept)."""
    frames, out_of_order, bad, last = [], 0, 0, None
    for k in range(draw(st.integers(1, 45), label="records")):
        if draw(st.integers(0, 9), label="time fault") == 0:  # a record the ingestor discards
            later = [math.nan, math.inf, -math.inf] + ([] if last is None else [last, last - 20.0])
            frames.append(inf.StreamFrame(t_ms=draw(st.sampled_from(later)), sites={}))
            out_of_order += 1
            continue
        last = k * 1000.0 / 60 + draw(st.floats(-5.0, 5.0), label="jitter")
        sites = {}
        for name in SESSION_CONFIG.imu_sites:
            kind = draw(st.sampled_from(["good", "good", "absent", "nan-q", "zero-q"]), label=name)
            if kind != "absent":
                q = {"good": GOOD_Q, "nan-q": np.array([math.nan, 0, 0, 1.0]), "zero-q": np.zeros(4)}[kind]
                sites[name] = (q, np.array([0.1 * k, -9.8, 0.3]))
                bad += kind != "good"
        insoles = draw(st.sampled_from([None, (0, 1, 1, 0), (1, 1, 1, 1), (0, 2, 1, 0), (0.5, 0, 0, 0)]),
                       label="insoles")
        if insoles is not None:
            bad += not set(insoles) <= {0, 1}
            insoles = np.array(insoles, dtype=float)
        frames.append(inf.StreamFrame(t_ms=last, sites=sites, insoles=insoles))
    return frames, out_of_order, bad


@settings(max_examples=30, deadline=None)
@given(stream=faulty_streams())
def test_faulty_stream_runs_a_session(session, stream):
    frames, out_of_order, bad = stream
    ingestor = inf.StreamIngestor()
    session.cold_start()
    released, results = [], []

    def step(instants):
        for im in instants:
            released.append(im.t_ms)
            results.append(session.step(im.measurement))

    for frame in frames:
        step(ingestor.push(frame))
    step(ingestor.finish())
    kept = len(frames) - out_of_order
    assert len(results) == math.ceil(kept / dg.DECIMATION)  # the first record kept is an instant
    assert [r.index for r in results] == list(range(len(results)))
    assert [r.t_ms for r in results] == released
    assert all(a < b for a, b in zip(released, released[1:]))
    assert (ingestor.out_of_order, ingestor.bad_samples) == (out_of_order, bad)
