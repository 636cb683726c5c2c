"""The benchmark's workloads: inputs from a seed, program set-up, the
timed closed loop and the output checks.

Every workload drives the public API of `imufill` with random weights
(`diffusion.init_denoiser`): latency does not depend on weight values.
The one exception is root correction, which only acts on frames whose
contacts are set; where a sensor config has insoles those channels are
observed, so the data sets the gating. The traced run records the share
of frames it acted on either way.

Load is closed-loop: one session replays its input as fast as each call
returns. No threads are started beyond the BLAS pool.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from imufill import datagen as dg
from imufill import diffusion as df
from imufill import features as ft
from imufill import inference as inf
from imufill import kinematics as km
from imufill import metrics as mt
from imufill import tensor as tt

from calibrate import Calibration
from spans import Tracer

SIX_IMU_INSOLES = ft.SensorConfig(imu_sites=ft.SIX_IMU_SITES, insoles=True)
SWEEP_CONFIGS = ("none", "pelvis,head", ",".join(ft.SIX_IMU_SITES) + ",insoles", "all13+insoles")
SWEEP_OBJECTIVES = ["LA", "JPE"]
AGREEMENT_ATOL = 5e-3  # tolerance of the FastDenoiser-vs-graph agreement test
QUAT_NORM_TOL = 1e-6   # pose streams carry quaternions rounded to 9 decimals
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_BUDGET_S = 3, 25, 3.0
P95_MIN_SAMPLES = 200  # p95 needs at least ten samples beyond it
FLOOR_REPS = 30  # timings per GEMM shape of the floor; their median is used


@dataclass(frozen=True)
class Spec:
    kind: str            # "stream", "sweep" or "train"
    model: str           # layers/width/feedforward
    spread: str = ""     # denoising step spread of the inference workloads
    input_s: float = 0.0  # seconds of motion per session or corpus trial
    n_trials: int = 0    # corpus trials (sweep, train)
    batch: int = 0       # training batch
    kernel: str = "small"           # calibration kernel of the operations (calibrate.KERNELS)
    setup_kernel: str = "dispatch"  # calibration kernel of set-up
    # Work every run completes whatever --seconds says: frames (stream),
    # whole sweeps (sweep) or training steps after the warm-up (train).
    # The output digest covers this work.
    min_ops: int = 1


SPECS = {
    "stream-toy30": Spec("stream", "2/64/128", spread="30", input_s=10.0, min_ops=200),
    "session-paper10D": Spec("stream", "8/512/2048", spread="10D", input_s=10.0, min_ops=8,
                             kernel="paper-gemms", setup_kernel="draws"),
    "eval-toy10D": Spec("sweep", "2/64/128", spread="10D", input_s=1.0, n_trials=4, min_ops=1),
    "train-paper": Spec("train", "8/512/2048", input_s=5.0, n_trials=4, batch=16, min_ops=6,
                        kernel="elementwise", setup_kernel="draws"),
}

# Tiny sizes for the smoke test: the same code paths in a few seconds.
SMOKE = {
    "stream-toy30": dict(input_s=1.0, min_ops=3),
    "session-paper10D": dict(model="1/32/64", input_s=1.0, min_ops=3),
    "eval-toy10D": dict(input_s=0.6, n_trials=2, min_ops=1),
    "train-paper": dict(model="1/32/64", input_s=3.2, n_trials=2, batch=2, min_ops=1),
}

END_TO_END = {
    "setup_s": "s",
    "frame_p50_ms": "ms",
    "frames_per_s": "frames/s",
    "train_step_s": "s",
    "peak_rss_mb": "MiB",
}

TRAIN_LAYERS = ("diffusion.sample_batch", "diffusion.denoiser_forward", "diffusion.diffusion_losses",
                "tensor.grads_by_name", "tensor.adam_step", "tensor.gelu", "tensor.matmul")
KINEMATICS = ("decode_rot6d", "global_to_local", "forward_kinematics", "rot_to_quat")

PER_LAYER = {
    "diffusion.predict_ms": "ms",
    "diffusion.predict_calls_per_frame": "calls/frame",
    "diffusion.predict_gflop": "GFLOP",
    "diffusion.predict_gemm_floor_ms": "ms",
    "diffusion.predict_floor_ratio": "ratio",
    "inference.inpaint_denoise_self_ms": "ms",
    "inference.step_self_ms": "ms",
    "inference.root_correct_us": "us",
    "inference.root_correct_active_share": "ratio",
    "inference.ingest_us_per_record": "us",
    "inference.parse_ms": "ms",
    "inference.write_us_per_frame": "us",
    "features.apply_observation_us": "us",
    **{f"kinematics.{k}{suffix}": unit for k in KINEMATICS
       for suffix, unit in (("_us", "us"), ("_calls_per_frame", "calls/frame"))},
    "metrics.compute_metrics_ms": "ms",
    **{f"{k}{suffix}": unit for k in TRAIN_LAYERS
       for suffix, unit in (("_ms", "ms"), ("_calls_per_step", "calls/step"))},
    "trace.overhead_ms_per_op": "ms",
    "trace.overhead_share": "ratio",
    "trace.unattributed_share": "ratio",
}


def spec_for(name: str, smoke: bool) -> Spec:
    spec = SPECS[name]
    return dataclasses.replace(spec, **SMOKE[name]) if smoke else spec


# -- what a run measured ---------------------------------------------------------


class Run:
    """Samples, counts and checks of one run.

    Times are kept as measured and, for untraced operations, at the
    reference machine speed (`calibrate`). In a traced run operations
    alternate between untraced (even index) and traced (odd index), so
    both halves see the same machine and the difference between them is
    the tracing overhead.
    """

    def __init__(self, cal: Calibration, tracer: Tracer | None = None):
        self.cal = cal
        self.tracer = tracer
        self.op_ms: dict[bool, list[float]] = {False: [], True: []}    # per frame or training step
        self.step_ms: dict[bool, list[float]] = {False: [], True: []}  # per Reconstructor.step or training step
        self.op_ref_ms: list[float] = []    # untraced, at the reference speed
        self.step_ref_ms: list[float] = []
        self.units = 0       # poses emitted, or window frames trained on
        self.wall_s = 0.0    # pipeline wall time that produced `units`
        self.wall_ref_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.digest = ""
        self.passed_checks: Counter = Counter()
        self.failed_checks: Counter = Counter()

    def add_op(self, traced: bool, ms: float, step_ms: float, factor: float | None = None) -> None:
        """One operation's time and its Reconstructor.step or training step
        time; `factor` defaults to the current calibration."""
        factor = self.cal.factor if factor is None else factor
        self.op_ms[traced].append(ms)
        self.step_ms[traced].append(step_ms)
        if not traced:
            self.op_ref_ms.append(ms * factor)
            self.step_ref_ms.append(step_ms * factor)

    def add_wall(self, seconds: float, factor: float | None = None) -> None:
        self.wall_s += seconds
        self.wall_ref_s += seconds * (self.cal.factor if factor is None else factor)

    def trace(self, k: int) -> bool:
        """Sets the tracing mode of operation k and returns it."""
        on = self.tracer is not None and k % 2 == 1
        if self.tracer is not None:
            self.tracer.enable(on)
        return on

    def check(self, name: str, ok, n: int = 1) -> bool:
        (self.passed_checks if ok else self.failed_checks)[name] += n
        return bool(ok)

    def check_each(self, name: str, ok: np.ndarray) -> np.ndarray:
        self.check(name, True, int(ok.sum()))
        self.check(name, False, int((~ok).sum()))
        return ok

    def checks(self) -> dict:
        names = sorted(set(self.passed_checks) | set(self.failed_checks))
        return {n: {"passed": self.passed_checks[n], "failed": self.failed_checks[n]} for n in names}


def _run_op(fn, *args):
    """Call one operation; a raise is a failed operation, not a crash."""
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _poses_ok(rots: np.ndarray, roots: np.ndarray, quats: np.ndarray) -> np.ndarray:
    """Per frame: finite pose and unit-norm quaternions."""
    finite = np.isfinite(rots).all(axis=(1, 2, 3)) & np.isfinite(roots).all(axis=1)
    unit = (np.abs(np.linalg.norm(quats, axis=-1) - 1.0) <= QUAT_NORM_TOL).all(axis=1)
    return finite & unit


def _observed_equal(frame: np.ndarray, meas: ft.Measurement, tree: km.KinematicTree) -> bool:
    vals, obs = ft.measurement_channels(tree, meas)
    seen = obs > 0
    return np.array_equal(frame[seen], vals[seen])


def _agreement(cfg: df.DenoiserConfig, params, fast: df.FastDenoiser, seed: int) -> float:
    """Max |FastDenoiser.predict - denoiser_forward| on one noised window."""
    rng = np.random.default_rng([seed, 2])
    z = rng.standard_normal((ft.WINDOW_LEN, ft.FRAME_DIM))
    t, h = 500, 1.75
    fast_out = fast.predict(z, t, h)
    graph_out = df.denoiser_forward(cfg, params, z[None], np.array([t]), np.array([h])).data[0]
    return float(np.abs(fast_out.astype(np.float64) - graph_out).max())


# -- stream sessions: parse -> ingest -> step -> write ---------------------------


class StreamWorkload:
    """One gait trial written as a 60 Hz imu-stream file with a few short
    all-sensor dropouts, replayed through the whole wire path. Each
    session replays the file into a fresh Reconstructor with the same
    seed, so every session must produce the same poses."""

    op_name = "frame"
    serving = ("inference.write_pose_stream",)

    def __init__(self, spec: Spec, seed: int, workdir: Path):
        self.spec, self.seed = spec, seed
        self.tree = km.default_tree()
        self.cfg = df.DenoiserConfig.parse(spec.model)
        self.config = SIX_IMU_INSOLES
        rng = np.random.default_rng([seed, 1])
        self.height = float(rng.uniform(1.55, 1.95))
        motion = dg.generate_motion("gait", seed=seed, duration_s=spec.input_s, height=self.height,
                                    speed=float(rng.uniform(0.8, 1.5)), trial_id=f"gait-{seed}")
        trial = dg.make_trial(motion, self.tree)
        n_raw = 3 * trial.motion.n_frames
        drops = []
        for _ in range(3):
            a = int(rng.integers(0, n_raw - 12))
            drops.append((a, a + int(rng.integers(3, 13))))
        self.input_path = workdir / "imu-stream.jsonl"
        self.output_path = workdir / "pose-stream.jsonl"
        inf.write_stream_file(self.input_path, inf.stream_frames_from_trial(trial, self.config, self.tree, drops))
        self.first: tuple[np.ndarray, ...] | None = None

    def setup(self) -> None:
        self.schedule = df.build_cosine_schedule()
        self.params = df.init_denoiser(self.cfg, seed=self.seed)
        self.fast = df.FastDenoiser(self.cfg, self.params)
        self._session()

    def _session(self) -> inf.Reconstructor:
        recon = inf.Reconstructor(self.cfg, self.fast, self.schedule, self.tree, self.config,
                                  height=self.height, spread=inf.StepSpread.parse(self.spec.spread),
                                  seed=self.seed)
        recon.cold_start()
        return recon

    def agreement(self) -> float:
        return _agreement(self.cfg, self.params, self.fast, self.seed)

    def run(self, run: Run, seconds: float, min_ops: int) -> None:
        deadline = perf_counter() + seconds
        while run.attempted < min_ops or perf_counter() < deadline:
            if self._session_run(run, self._session(), deadline, min_ops):
                return

    def _session_run(self, run: Run, recon, deadline: float, min_ops: int) -> bool:
        """One session; True when the deadline cut it short."""
        tracer = run.tracer
        entries: list[tuple[inf.IngestedMeasurement, inf.StepResult | None]] = []

        def push(method, *args):
            # The frame's time runs from the push that releases its instant
            # to the return of step for it. Methods are looked up after the
            # tracing mode is set, so they are the wrapped ones when traced.
            run.cal.measure_if_due()
            traced = run.trace(run.attempted + len(entries))
            t0 = perf_counter()
            span = tracer.open("frame") if traced else -1
            out = getattr(ingestor, method)(*args)
            if not out and traced:
                tracer.close(span, rename="record")
            for k, im in enumerate(out):
                if k and traced:
                    span = tracer.open("frame")
                res = _run_op(recon.step, im.measurement)
                if traced:
                    tracer.close(span)
                t1 = perf_counter()
                entries.append((im, res))
                if res is not None:
                    run.add_op(traced, (t1 - t0) * 1e3, res.latency_ms)
            run.add_wall(perf_counter() - t0)

        if tracer is not None:
            tracer.enable(True)
        run.cal.measure()
        t0 = perf_counter()
        records = inf.parse_stream_file(self.input_path)
        ingestor = inf.StreamIngestor()
        run.add_wall(perf_counter() - t0)
        stopped = False
        for rec in records:
            push("push", rec)
            if entries and perf_counter() >= deadline and run.attempted + len(entries) >= min_ops:
                stopped = True
                break
        if not stopped:
            push("finish")
        if tracer is not None:
            tracer.enable(True)
        results = [r for _, r in entries if r is not None]
        run.cal.measure_if_due()
        t0 = perf_counter()
        inf.write_pose_stream(self.output_path, self.tree, results)
        run.add_wall(perf_counter() - t0)
        run.units += len(results)
        if tracer is not None:
            tracer.enable(False)
        self._check_session(run, entries)
        return stopped

    def _check_session(self, run: Run, entries) -> None:
        n = len(entries)
        rots, roots, contacts = inf.read_pose_stream(self.output_path)
        with open(self.output_path) as f:
            lines = [json.loads(line) for line in f.readlines()[1:] if line.strip()]
        t_pose = np.array([rec["t_ms"] for rec in lines])
        t_inst = np.array([im.t_ms for im, _ in entries])
        ok = np.full(n, run.check("one_pose_per_instant",
                                  len(lines) == n and all(r is not None for _, r in entries)
                                  and np.allclose(t_pose, t_inst, rtol=0, atol=1e-6), n))
        if ok.all():
            quats = np.array([rec["q"] for rec in lines])
            ok &= run.check_each("finite_poses_unit_quaternions",
                                 _poses_ok(rots, roots, quats) & np.isfinite(contacts).all(axis=1))
            ok &= run.check_each("observed_channels_bit_equal", np.array(
                [_observed_equal(res.frame, im.measurement, self.tree) for im, res in entries]))
            if self.first is None:
                k = min(self.spec.min_ops, n)
                self.first = (rots, roots, contacts)
                run.digest = _sha(rots[:k], roots[:k], contacts[:k])
            else:
                m = min(n, len(self.first[0]))
                ok[:m] &= run.check_each("sessions_repeat_identically", np.array(
                    [all(np.array_equal(a[i], b[i]) for a, b in zip(self.first, (rots, roots, contacts)))
                     for i in range(m)], dtype=bool))
        run.attempted += n
        run.failed += int((~ok).sum())


# -- the paper's sweep over sensor sets ----------------------------------------


class SweepWorkload:
    """`metrics.sweep_configs` over four sensor sets and a mixed corpus;
    the run repeats whole sweeps, which must reproduce the first one."""

    op_name = "inference.step"
    serving: tuple[str, ...] = ()

    def __init__(self, spec: Spec, seed: int, workdir: Path):
        self.spec, self.seed = spec, seed
        self.tree = km.default_tree()
        self.cfg = df.DenoiserConfig.parse(spec.model)
        self.spread = inf.StepSpread.parse(spec.spread)
        self.configs = [ft.SensorConfig.parse(s) for s in SWEEP_CONFIGS]
        self.trials = dg.generate_corpus(self.tree, n_trials=spec.n_trials, seconds=spec.input_s, seed=seed)
        self.frames_per_sweep = len(self.configs) * sum(t.motion.n_frames for t in self.trials)
        self.first_digest: str | None = None

    def setup(self) -> None:
        self.schedule = df.build_cosine_schedule()
        self.params = df.init_denoiser(self.cfg, seed=self.seed)

    def agreement(self) -> float:
        return _agreement(self.cfg, self.params, df.FastDenoiser(self.cfg, self.params), self.seed)

    def run(self, run: Run, seconds: float, min_ops: int) -> None:
        deadline = perf_counter() + seconds
        sweeps = 0
        while sweeps < min_ops or perf_counter() < deadline:
            self._sweep(run)
            sweeps += 1

    def _sweep(self, run: Run) -> None:
        sessions = []
        reconstruct_trial = mt.reconstruct_trial
        segment = [0.0, 0.0]  # wall time of the sweep so far, measured and at the reference speed
        t0 = perf_counter()

        def close_segment():
            dt = perf_counter() - t0
            segment[0] += dt
            segment[1] += dt * run.cal.factor

        def session(recon, trial, config, drop=None):
            # Reconstruction and scoring of one trial, calibrated at its
            # start. A traced run traces a checkerboard of (config, trial)
            # sessions, so that traced and untraced sessions cover the
            # same configs and trials.
            nonlocal t0
            close_segment()
            run.cal.measure()
            t0 = perf_counter()
            traced = run.trace(sum(divmod(len(sessions), len(self.trials))))
            out = reconstruct_trial(recon, trial, config, drop=drop)
            sessions.append((trial, config, out[2], traced, run.cal.factor))
            return out

        mt.reconstruct_trial = session
        try:
            run.cal.measure()
            t0 = perf_counter()
            result = _run_op(mt.sweep_configs, self.cfg, self.params, self.schedule, self.tree, self.trials,
                             self.configs, SWEEP_OBJECTIVES, self.spread, self.seed)
            close_segment()
        finally:
            mt.reconstruct_trial = reconstruct_trial
            if run.tracer is not None:
                run.tracer.enable(False)
        run.attempted += self.frames_per_sweep
        complete = run.check("sweep_covers_every_config_and_trial",
                             result is not None and len(sessions) == len(self.configs) * len(self.trials)
                             and list(result.entries) == [c.label() for c in self.configs]
                             and all(len(e.per_trial) == len(self.trials) for e in result.entries.values()))
        if not complete:
            run.failed += self.frames_per_sweep
            return
        run.wall_s += segment[0]
        run.wall_ref_s += segment[1]
        failed = 0
        pose_arrays = []
        for trial, config, results, traced, factor in sessions:
            n = trial.motion.n_frames
            run.units += len(results)
            for r in results:
                run.add_op(traced, r.latency_ms, r.latency_ms, factor)
            if not run.check("one_pose_per_instant",
                             len(results) == n and [r.index for r in results] == list(range(n)), n):
                failed += n
                continue
            rots = np.stack([r.pose.rotations for r in results])
            roots = np.stack([r.pose.root_position for r in results])
            ok = run.check_each("finite_poses_unit_quaternions", _poses_ok(rots, roots, km.rot_to_quat(rots)))
            ok &= run.check_each("observed_channels_bit_equal", np.array(
                [_observed_equal(r.frame, meas, self.tree)
                 for r, meas in zip(results, inf.measurements_from_trial(trial, config))]))
            failed += int((~ok).sum())
            pose_arrays += [rots, roots]
        digest = _sha(*pose_arrays)
        if self.first_digest is None:
            self.first_digest = run.digest = digest
        elif not run.check("sweeps_repeat_identically", digest == self.first_digest, self.frames_per_sweep):
            failed = self.frames_per_sweep
        run.failed += failed


# -- paper-size training steps ---------------------------------------------------


class TrainWorkload:
    """The steps `diffusion.train` makes, called one by one so each is
    timed and checked: batch draw, noising, forward, five-term loss,
    backward and `adam_step`. The first step is a warm-up."""

    op_name = "train_step"
    serving: tuple[str, ...] = ()

    def __init__(self, spec: Spec, seed: int, workdir: Path):
        self.spec, self.seed = spec, seed
        self.tree = km.default_tree()
        self.tcfg = df.TrainConfig(model=df.DenoiserConfig.parse(spec.model), batch=spec.batch, seed=seed)
        trials = dg.generate_corpus(self.tree, n_trials=spec.n_trials, seconds=spec.input_s, seed=seed)
        self.sample = df.corpus_sampler(trials, self.tree, seed=seed)

    def setup(self) -> None:
        c = self.tcfg
        self.schedule = df.build_cosine_schedule(c.T)
        self.params = df.init_denoiser(c.model, seed=c.seed, dtype=c.np_dtype)
        self.rng = np.random.default_rng([c.seed, 707])
        self.state = None
        self.step = 0

    def agreement(self) -> float:
        cfg = self.tcfg.model
        return _agreement(cfg, self.params, df.FastDenoiser(cfg, self.params), self.seed)

    def _train_step(self, sample):
        c = self.tcfg
        windows, heights = sample(c.batch)
        ts = self.rng.integers(0, c.T + 1, size=windows.shape[0])
        breakdown, grads = df.training_step(c.model, self.params, self.schedule, windows, heights,
                                            ts, self.rng, self.tree, c.weights)
        self.params, self.state = tt.adam_step(self.params, grads, self.state,
                                               lr=c.lr_at(self.step), betas=c.betas)
        return breakdown, grads

    def run(self, run: Run, seconds: float, min_ops: int) -> None:
        tracer = run.tracer
        traced_sample = tracer.wrap(self.sample, "diffusion.sample_batch") if tracer else None
        losses = []
        deadline = perf_counter() + seconds
        run.cal.measure()
        while self.step <= min_ops or perf_counter() < deadline:
            warm_up = self.step == 0
            traced = not warm_up and run.trace(self.step - 1)
            t0 = perf_counter()
            span = tracer.open("train_step") if traced else -1
            out = _run_op(self._train_step, traced_sample if traced else self.sample)
            if traced:
                tracer.close(span)
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.enable(False)
            factor = run.cal.measure_after()
            self.step += 1
            run.attempted += 1
            ok = out is not None
            if ok:
                breakdown, grads = out
                losses.append(breakdown.as_dict())
                ok = run.check("finite_losses", all(np.isfinite(v) for v in losses[-1].values()))
                ok &= run.check("finite_grads_for_every_parameter",
                                set(grads) == set(self.params)
                                and all(np.isfinite(g).all() for g in grads.values()))
            run.failed += not ok
            if len(losses) == min_ops + 1:
                run.digest = hashlib.sha256(json.dumps(losses).encode()).hexdigest()
            if warm_up:
                continue
            run.add_op(traced, dt * 1e3, dt * 1e3, factor)
            if not traced:
                run.units += self.tcfg.batch * ft.WINDOW_LEN
                run.add_wall(dt, factor)


WORKLOADS = {"stream": StreamWorkload, "sweep": SweepWorkload, "train": TrainWorkload}


# -- traced layers ---------------------------------------------------------------


def _root_correct_gate(tracer: Tracer, args, kwargs) -> None:
    """Counts root_correct calls that act: some contact at or above the
    threshold in the current frame (the function's own gate)."""
    cur = args[1] if len(args) > 1 else kwargs["cur_frame"]
    threshold = args[3] if len(args) > 3 else kwargs.get("threshold", inf.CONTACT_THRESHOLD)
    if (cur[ft.B_OFF:ft.B_OFF + ft.B_LEN] >= threshold).any():
        tracer.active_contacts += 1


# (owner, attribute, span name, probe): owners are where the callers look
# the names up, so kinematics functions are counted as called from inference.
TRACED = [
    (df.FastDenoiser, "predict", "diffusion.predict", None),
    (inf, "inpaint_denoise", "inference.inpaint_denoise", None),
    (inf.Reconstructor, "step", "inference.step", None),
    (inf, "root_correct", "inference.root_correct", _root_correct_gate),
    (inf.StreamIngestor, "push", "inference.push", None),
    (inf.StreamIngestor, "finish", "inference.finish", None),
    (inf, "parse_stream_file", "inference.parse_stream_file", None),
    (inf, "write_pose_stream", "inference.write_pose_stream", None),
    (ft, "apply_observation", "features.apply_observation", None),
    (inf, "decode_rot6d", "kinematics.decode_rot6d", None),
    (inf, "global_to_local", "kinematics.global_to_local", None),
    (km, "forward_kinematics", "kinematics.forward_kinematics", None),
    (inf, "rot_to_quat", "kinematics.rot_to_quat", None),
    (mt, "compute_metrics", "metrics.compute_metrics", None),
    (df, "training_step", "diffusion.training_step", None),
    (df, "noise_window", "diffusion.noise_window", None),
    (df, "denoiser_forward", "diffusion.denoiser_forward", None),
    (df, "diffusion_losses", "diffusion.diffusion_losses", None),
    (tt, "grads_by_name", "tensor.grads_by_name", None),
    (tt, "adam_step", "tensor.adam_step", None),
    (tt, "gelu", "tensor.gelu", None),
    (tt, "matmul", "tensor.matmul", None),
]


def predict_gemms(cfg: df.DenoiserConfig) -> list[tuple[int, int, int, int]]:
    """(batch, m, k, n) of every matrix product in one FastDenoiser.predict
    call, conditioning tokens cached."""
    T, d, f, nh, hd = ft.WINDOW_LEN + 2, cfg.width, cfg.ff, cfg.nhead, cfg.head_dim
    per_layer = [(1, T, d, 3 * d), (nh, T, hd, T), (nh, T, T, hd), (1, T, d, d),
                 (1, T, d, d), (nh, T, hd, 2), (nh, T, 2, hd), (1, T, d, d),
                 (1, T, d, f), (1, T, f, d)]
    return ([(1, ft.WINDOW_LEN, ft.FRAME_DIM, d)] + per_layer * cfg.layers
            + [(1, ft.WINDOW_LEN, d, ft.FRAME_DIM)])


def gemm_floor(cfg: df.DenoiserConfig) -> tuple[float, float]:
    """(GFLOP computed from the shapes, ms) of predict's matrix products
    alone: each distinct shape timed with np.matmul into a preallocated
    output, median of FLOOR_REPS, times the number of uses."""
    rng = np.random.default_rng(0)
    shapes = Counter(predict_gemms(cfg))
    gflop = sum(2 * b * m * k * n * c for (b, m, k, n), c in shapes.items()) / 1e9
    floor_s = 0.0
    for (b, m, k, n), count in shapes.items():
        a = rng.standard_normal((b, m, k)).astype(np.float32)
        w = rng.standard_normal((b, k, n)).astype(np.float32)
        out = np.empty((b, m, n), dtype=np.float32)
        times = []
        for _ in range(FLOOR_REPS):
            t0 = perf_counter()
            np.matmul(a, w, out=out)
            times.append(perf_counter() - t0)
        floor_s += statistics.median(times) * count
    return gflop, floor_s * 1e3


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def layer_metrics(tracer: Tracer, run: Run, floor: tuple[float, float]) -> dict:
    a = tracer.analyse()
    m = {}
    predict_ms = a.p50_ms("diffusion.predict")
    gflop, floor_ms = floor
    m["diffusion.predict_ms"] = predict_ms
    m["diffusion.predict_calls_per_frame"] = a.per_op("diffusion.predict")
    m["diffusion.predict_gflop"] = gflop
    m["diffusion.predict_gemm_floor_ms"] = floor_ms
    m["diffusion.predict_floor_ratio"] = predict_ms / floor_ms if floor_ms > 0 else 0.0
    m["inference.inpaint_denoise_self_ms"] = a.mean_self_ms("inference.inpaint_denoise")
    m["inference.step_self_ms"] = a.mean_self_ms("inference.step")
    m["inference.root_correct_us"] = 1e3 * a.mean_ms("inference.root_correct")
    rc_calls = a.calls("inference.root_correct")
    m["inference.root_correct_active_share"] = tracer.active_contacts / rc_calls if rc_calls else 0.0
    m["inference.ingest_us_per_record"] = 1e3 * a.mean_ms("inference.push")
    m["inference.parse_ms"] = a.mean_ms("inference.parse_stream_file")
    m["inference.write_us_per_frame"] = 1e3 * a.total_ms("inference.write_pose_stream") / run.units if run.units else 0.0
    m["features.apply_observation_us"] = 1e3 * a.mean_ms("features.apply_observation")
    for k in KINEMATICS:
        m[f"kinematics.{k}_us"] = 1e3 * a.mean_ms(f"kinematics.{k}")
        m[f"kinematics.{k}_calls_per_frame"] = a.per_op(f"kinematics.{k}", served=run.units)
    m["metrics.compute_metrics_ms"] = a.mean_ms("metrics.compute_metrics")
    for k in TRAIN_LAYERS:
        m[f"{k}_ms"] = a.mean_ms(k)
        m[f"{k}_calls_per_step"] = a.per_op(k)
    base = _median(run.op_ms[False])
    over = _median(run.op_ms[True]) - base if run.op_ms[True] and base else 0.0
    m["trace.overhead_ms_per_op"] = over
    m["trace.overhead_share"] = over / base if base else 0.0
    m["trace.unattributed_share"] = a.unattributed_share()
    return m


# -- one run -----------------------------------------------------------------------


def _setup_times(wl, cal: Calibration) -> tuple[list[float], list[float]]:
    """Set-up times as measured and at the reference speed, each
    calibrated by the kernel runs on both sides of it."""
    times, ref = [], []
    cal.measure()
    while len(times) < SETUP_MIN_REPS or (sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX_REPS):
        t0 = perf_counter()
        wl.setup()
        times.append(perf_counter() - t0)
        ref.append(times[-1] * cal.measure_after())
    return times, ref


def run(spec: Spec, seed: int, seconds: float, trace: bool, workdir: Path, spans_path: Path) -> dict:
    """Runs one workload; returns its report (metrics, counts, checks)."""
    wl = WORKLOADS[spec.kind](spec, seed, workdir)
    setup_cal, cal = Calibration(spec.setup_kernel), Calibration(spec.kernel)
    setup_times, setup_ref = _setup_times(wl, setup_cal)
    tracer = Tracer(TRACED, wl.op_name, wl.serving) if trace else None
    r = Run(cal, tracer)
    try:
        wl.run(r, seconds, spec.min_ops)
    finally:
        if tracer is not None:
            tracer.enable(False)
    diff = _run_op(wl.agreement)
    agree = r.check("predict_matches_graph_forward", diff is not None and diff <= AGREEMENT_ATOL)
    r.attempted += 1
    r.failed += not agree
    op_ms = r.op_ref_ms
    report = {
        "end_to_end": {
            "setup_s": statistics.median(setup_ref),
            "frame_p50_ms": _median(op_ms),
            "frames_per_s": r.units / r.wall_ref_s if r.wall_ref_s > 0 else 0.0,
            "train_step_s": _median(r.step_ref_ms) / 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "frame_p95_ms": float(np.percentile(op_ms, 95)) if len(op_ms) >= P95_MIN_SAMPLES else None,
        "as_measured": {
            "setup_s": statistics.median(setup_times),
            "frame_p50_ms": _median(r.op_ms[False]),
            "frames_per_s": r.units / r.wall_s if r.wall_s > 0 else 0.0,
            "train_step_s": _median(r.step_ms[False]) / 1e3,
        },
        "calibration": {
            part: {"kernel": name, "reference_ms": c.reference_ms,
                   "kernel_ms_p50": _median(c.kernel_ms), "runs": len(c.kernel_ms)}
            for part, name, c in (("setup", spec.setup_kernel, setup_cal), ("operations", spec.kernel, cal))},
        "op_samples": len(op_ms),
        "attempted": r.attempted,
        "failed": r.failed,
        "error_rate": r.failed / r.attempted,
        "checks": r.checks(),
        "agreement_max_abs_diff": diff,
        "digest": r.digest,
        "correct": r.failed == 0 and not any(r.failed_checks.values()) and bool(r.digest),
    }
    if tracer is not None:
        # Operations alternated, so the pipeline figures mix both modes;
        # the per-layer metrics and the overhead use measured times.
        for key in ("end_to_end", "as_measured", "frame_p95_ms"):
            del report[key]
        tracer.write(spans_path)
        a = tracer.analyse()
        untraced = r.op_ms[False]
        report.update({
            "per_layer": layer_metrics(tracer, r, (0.0, 0.0) if spec.kind == "train" else gemm_floor(wl.cfg)),
            "blocking_path_ms_per_op": dict(a.blocking_path()),
            "traced_op_mean_ms": 1e3 * statistics.mean(a.op_durations) if a.op_durations else 0.0,
            "untraced_op_mean_ms": statistics.mean(untraced) if untraced else 0.0,
            "untraced_frame_p50_ms": _median(untraced),
            "traced_frame_p50_ms": _median(r.op_ms[True]),
            "spans": len(tracer.spans),
        })
    return report
