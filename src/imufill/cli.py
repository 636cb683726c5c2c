"""Command-line surface.

Subcommands: skeleton, datagen, train, reconstruct, evaluate, sweep,
bench. Every command prints a short human summary and, where an --out
is given, writes a versioned machine-readable artifact (dataset,
checkpoint, pose stream, or JSON report). Exit codes: 0 success,
1 runtime failure (category printed to stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import datagen as dg
from . import diffusion as df
from . import features as ft
from . import inference as inf
from . import metrics as mt
from .kinematics import default_tree, load_skeleton, SkeletonError


def _usage_error(parse):
    """An argparse type from `parse`, which raises a (typed) ValueError on
    a bad value: the value is then a usage error, exit 2, before any file
    is read, and the message names the error and the value."""
    def checked(text: str):
        try:
            return parse(text)
        except ValueError as e:
            raise argparse.ArgumentTypeError(f"{type(e).__name__}: {e}") from None
    return checked


@_usage_error
def _height(text: str) -> float:
    return ft.check_height(float(text))


@_usage_error
def _sensor_configs(text: str) -> list[ft.SensorConfig]:
    configs = [ft.SensorConfig.parse(s) for s in text.split(";") if s.strip()]
    if not configs:
        raise ft.FeatureError(f"no sensor configuration in {text!r}")
    return configs


@_usage_error
def _objectives(text: str) -> list[str]:
    names = [o.strip() for o in text.split(",") if o.strip()]
    unknown = [o for o in names if o not in mt.OBJECTIVES]
    if unknown:
        raise mt.MetricsError(f"unknown objectives {unknown}; known: {list(mt.OBJECTIVES)}")
    return names


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="imufill",
                                description="sparse-sensor motion reconstruction toolkit")
    sub = p.add_subparsers(dest="cmd", required=True)

    sk = sub.add_parser("skeleton", help="skeleton file tools")
    sksub = sk.add_subparsers(dest="subcmd", required=True)
    skv = sksub.add_parser("validate", help="check a skeleton definition file")
    skv.add_argument("file")

    dgp = sub.add_parser("datagen", help="generate a synthetic training corpus")
    dgp.add_argument("--kinds", default="gait,random_smooth,stationary,jump")
    dgp.add_argument("--trials", type=int, default=20)
    dgp.add_argument("--seconds", type=float, default=30.0)
    dgp.add_argument("--seed", type=int, default=0)
    dgp.add_argument("--noise-std", type=float, default=0.0,
                     help="optional Gaussian acceleration noise, m/s^2")
    dgp.add_argument("--out", required=True)
    dgp.add_argument("--export-text", default=None, help="also write a lossless text mirror here")

    tr = sub.add_parser("train", help="train a denoiser on a dataset")
    tr.add_argument("--data", required=True)
    tr.add_argument("--size", type=df.DenoiserConfig.parse, default="2/64/128",
                    help="layers/width/feedforward")
    tr.add_argument("--steps", type=int, default=2000)
    tr.add_argument("--batch", type=int, default=16)
    tr.add_argument("--lr", type=float, default=1e-4)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--diffusion-steps", type=int, default=1000, metavar="T")
    tr.add_argument("--holdout", type=int, default=0, help="trials held out for eval logging")
    tr.add_argument("--out", required=True)

    rc = sub.add_parser("reconstruct", help="autoregressive reconstruction")
    rc.add_argument("--ckpt", required=True)
    rc.add_argument("--config", required=True, type=_usage_error(ft.SensorConfig.parse),
                    help="comma-separated site list, optionally +insoles; or all13/none")
    rc.add_argument("--spread", default="30", help="step count, preset name (10A..10D), or explicit list")
    rc.add_argument("--in", dest="input", required=True,
                    help="dataset (.imfd, with --trial) or a 60 Hz imu-stream .jsonl")
    rc.add_argument("--trial", default=None, help="trial id when --in is a dataset")
    rc.add_argument("--height", type=_height, default=None,
                    help="subject height, required for stream input")
    rc.add_argument("--seed", type=int, default=0)
    rc.add_argument("--variant", choices=("renoise", "ddim"), default="renoise")
    rc.add_argument("--no-root-correction", action="store_true")
    rc.add_argument("--out", required=True)

    ev = sub.add_parser("evaluate", help="score a reconstruction against ground truth")
    ev.add_argument("--gt", required=True, help="dataset file")
    ev.add_argument("--trial", default=None)
    ev.add_argument("--rec", required=True, help="pose-stream .jsonl")
    ev.add_argument("--out", default=None)

    sw = sub.add_parser("sweep", help="evaluate many sensor configurations")
    sw.add_argument("--ckpt", required=True)
    sw.add_argument("--data", required=True)
    sw.add_argument("--configs", required=True, type=_sensor_configs,
                    help="semicolon-separated config specs, e.g. 'pelvis+head;shank_l+shank_r'")
    sw.add_argument("--objectives", type=_objectives, default="GA,legsLA,backLA,RE10")
    sw.add_argument("--spread", default="30")
    sw.add_argument("--trials", type=int, default=0, help="limit number of trials (0 = all)")
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--out", required=True)

    bn = sub.add_parser("bench", help="per-frame latency of the reconstruction loop")
    bn.add_argument("--ckpt", required=True)
    bn.add_argument("--spread", default="30")
    bn.add_argument("--frames", type=int, default=200)
    bn.add_argument("--config", type=_usage_error(ft.SensorConfig.parse),
                    default="pelvis,head,wrist_l,wrist_r,shank_l,shank_r")
    bn.add_argument("--seed", type=int, default=0)
    bn.add_argument("--out", default=None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return {
            "skeleton": cmd_skeleton,
            "datagen": cmd_datagen,
            "train": cmd_train,
            "reconstruct": cmd_reconstruct,
            "evaluate": cmd_evaluate,
            "sweep": cmd_sweep,
            "bench": cmd_bench,
        }[args.cmd](args)
    except (dg.GenerationError, dg.DatasetError, df.CheckpointError, df.ScheduleError,
            ft.FeatureError, inf.SpreadError, inf.InferenceError, mt.MetricsError,
            SkeletonError, FileNotFoundError) as e:
        print(f"error ({type(e).__name__}): {e}", file=sys.stderr)
        return 1
    except df.TrainingDiverged as e:
        print(f"error (TrainingDiverged): {e}", file=sys.stderr)
        return 1


def cmd_skeleton(args) -> int:
    tree = load_skeleton(args.file)
    print(f"ok: {args.file}: {tree.n_segments} segments, "
          f"{len(tree.site_names)} sites, {len(tree.contact_names)} contact points, "
          f"reference height {tree.reference_height:.2f} m")
    return 0


def cmd_datagen(args) -> int:
    tree = default_tree()
    kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    t0 = time.perf_counter()
    trials = dg.generate_corpus(tree, n_trials=args.trials, seconds=args.seconds,
                                seed=args.seed, kinds=kinds, noise_std=args.noise_std)
    dg.save_dataset(trials, tree, args.out)
    if args.export_text:
        dg.export_dataset_text(trials, args.export_text)
    dur = time.perf_counter() - t0
    total_s = sum(t.motion.duration_s for t in trials)
    print(f"wrote {len(trials)} trials ({total_s:.0f} s of motion) to {args.out} "
          f"in {dur:.1f} s; kinds: {', '.join(kinds)}")
    return 0


def cmd_train(args) -> int:
    tree = default_tree()
    trials = dg.load_dataset(args.data, tree)
    holdout = []
    if args.holdout > 0:
        holdout, trials = trials[: args.holdout], trials[args.holdout:]
    if not trials:
        raise dg.DatasetError("no trials left to train on")
    dg.compute_trial_weights(trials, tree)
    cfg = df.TrainConfig(model=args.size, steps=args.steps,
                         batch=args.batch, lr=args.lr, seed=args.seed, T=args.diffusion_steps)
    sampler = df.corpus_sampler(trials, tree, seed=args.seed)
    eval_windows = None
    if holdout:
        ws, hs = [], []
        for t in holdout:
            f = t.features(tree)
            for s in range(0, max(f.shape[0] - ft.WINDOW_LEN, 1), ft.WINDOW_LEN):
                ws.append(f[s:s + ft.WINDOW_LEN])
                hs.append(t.motion.height)
        eval_windows = (np.stack(ws), np.array(hs))
    result = df.train(sampler, tree, cfg, eval_windows=eval_windows,
                      eval_every=max(args.steps // 10, 1) if holdout else 0,
                      log=lambda rec: print(json.dumps(rec), flush=True))
    df.save_checkpoint(args.out, cfg.model, result.params, result.schedule, tree)
    if result.eval_curve:
        print(json.dumps({"holdout_simple_loss": result.eval_curve}))
    print(json.dumps({"checkpoint": str(args.out), "model": cfg.model.label(),
                      "parameters": df.param_count(cfg.model), "final_loss": result.losses[-1].total}))
    return 0


def _session(args, tree, height: float, measurements,
             **options) -> tuple[inf.Reconstructor, list[inf.StepResult]]:
    """Load --ckpt and step a Reconstructor of its model through the
    measurements: the one session path of `reconstruct` and `bench`."""
    cfg, params, schedule = df.load_checkpoint(args.ckpt, tree)
    spread = inf.StepSpread.parse(args.spread, schedule.T)
    recon = inf.Reconstructor(cfg, df.FastDenoiser(cfg, params), schedule, tree, args.config,
                              height=height, spread=spread, seed=args.seed, **options)
    return recon, inf.run_session(recon, measurements)


def _stream_measurements(ingestor: inf.StreamIngestor, frames):
    for fr in frames:
        for im in ingestor.push(fr):
            yield im.measurement
    for im in ingestor.finish():
        yield im.measurement


def cmd_reconstruct(args) -> int:
    tree = default_tree()
    src = Path(args.input)
    ingestor = None
    if src.suffix == ".imfd" or _looks_like_dataset(src):
        trial = _pick_trial(dg.load_dataset(src, tree), args.trial)
        height = trial.motion.height if args.height is None else args.height
        measurements = inf.measurements_from_trial(trial, args.config)
    else:
        if args.height is None:
            raise inf.InferenceError("--height is required for stream input")
        height = args.height
        ingestor = inf.StreamIngestor()
        measurements = _stream_measurements(ingestor, inf.parse_stream_file(src))
    recon, results = _session(args, tree, height, measurements, variant=args.variant,
                              root_correction=not args.no_root_correction)
    inf.write_pose_stream(args.out, tree, results)
    lat = inf.latency_percentiles(results)
    print(f"reconstructed {len(results)} frames -> {args.out} "
          f"(config {args.config.label()}, {len(recon.spread)} steps, "
          f"latency p50 {lat['p50']:.1f} ms / p95 {lat['p95']:.1f} ms)")
    if ingestor is not None:
        print(f"dropped {ingestor.bad_samples} bad samples and "
              f"{ingestor.out_of_order} out-of-order records")
    return 0


def _looks_like_dataset(path: Path) -> bool:
    try:
        with open(path, "rb") as f:
            return f.read(4) == dg.DATASET_MAGIC
    except OSError:
        return False


def _pick_trial(trials, trial_id):
    if trial_id is None:
        if len(trials) == 1:
            return trials[0]
        raise dg.DatasetError(f"--trial required; dataset has {len(trials)} trials: "
                              + ", ".join(t.trial_id for t in trials[:10]))
    for t in trials:
        if t.trial_id == trial_id:
            return t
    raise dg.DatasetError(f"trial {trial_id!r} not found")


def cmd_evaluate(args) -> int:
    tree = default_tree()
    trial = _pick_trial(dg.load_dataset(args.gt, tree), args.trial)
    rot, root, _ = inf.read_pose_stream(args.rec)
    d = mt.score_trial(trial, rot, root, tree).as_dict()
    print(f"trial {trial.trial_id}: "
          f"LA {d['LA_deg']:.2f} deg, GA {d['GA_deg']:.2f} deg, JPE {d['JPE_cm']:.2f} cm, "
          f"jitter {d['jitter']:.2f}, RE2 {_fmt(d['RE2_m'])}, RE5 {_fmt(d['RE5_m'])}, RE10 {_fmt(d['RE10_m'])}")
    if args.out:
        mt.save_report(args.out, {"kind": "evaluate", "metrics": d})
        print(f"report -> {args.out}")
    return 0


def _fmt(v):
    return "n/a" if v is None else f"{v:.3f} m"


def cmd_sweep(args) -> int:
    tree = default_tree()
    cfg, params, schedule = df.load_checkpoint(args.ckpt, tree)
    trials = dg.load_dataset(args.data, tree)
    if args.trials > 0:
        trials = trials[: args.trials]
    spread = inf.StepSpread.parse(args.spread, schedule.T)
    result = mt.sweep_configs(cfg, params, schedule, tree, trials, args.configs,
                              args.objectives, spread, seed=args.seed)
    mt.save_report(args.out, result.as_dict())
    print(f"swept {len(args.configs)} configs over {len(trials)} trials -> {args.out}")
    for obj in args.objectives:
        ranked = result.rankings[obj]
        best = result.entries[ranked[0]].aggregate[mt.OBJECTIVES[obj]]["mean"]
        shown = "n/a" if best is None else f"{best:.3f}"
        print(f"  best {obj}: {ranked[0]} ({shown})")
    return 0


def cmd_bench(args) -> int:
    if args.frames < 1:
        raise inf.InferenceError(f"--frames must be at least 1, got {args.frames}")
    tree = default_tree()
    m = dg.generate_motion("gait", seed=123, duration_s=max(args.frames / 20.0 + 1, 2.0),
                           speed=1.2, trial_id="bench")
    trial = dg.make_trial(m, tree)
    measurements = itertools.islice(inf.measurements_from_trial(trial, args.config), args.frames)
    recon, results = _session(args, tree, trial.motion.height, measurements)
    cfg, n = recon.cfg, len(results)
    lat = inf.latency_percentiles(results)
    payload = {
        "kind": "bench", "model": cfg.label(), "params": df.param_count(cfg),
        "spread_steps": len(recon.spread), "frames": n,
        "p50_ms": lat["p50"], "p95_ms": lat["p95"],
        "budget_ms": 50.0,
    }
    print(f"bench {cfg.label()} ({df.param_count(cfg):,} params), {len(recon.spread)}-step spread, "
          f"{n} frames: p50 {lat['p50']:.1f} ms, p95 {lat['p95']:.1f} ms "
          f"({'within' if lat['p95'] < 50.0 else 'OVER'} the 50 ms budget)")
    if args.out:
        mt.save_report(args.out, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
