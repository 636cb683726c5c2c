"""Corrupt input files load or fail with their format's typed error.

Each of the four file formats the program reads (checkpoint, dataset,
imu-stream, pose-stream) is cut at any byte or has one or three bits
flipped; reading the result either succeeds or raises the format's own
error (`CheckpointError`, `DatasetError`, `InferenceError`), never
another exception and never a numpy warning (the test configuration
turns warnings into errors). An imu-stream that parses is also pushed
through a `StreamIngestor`, which drops what it cannot use.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imufill import datagen as dg
from imufill import diffusion as df
from imufill import features as ft
from imufill import inference as inf


def _ingest(path, tree):
    ingestor = inf.StreamIngestor()
    for frame in inf.parse_stream_file(path):
        ingestor.push(frame)
    return ingestor.finish()


# format -> (reader of a path, error it may raise)
READERS = {
    "checkpoint": (df.load_checkpoint, df.CheckpointError),
    "dataset": (dg.load_dataset, dg.DatasetError),
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
