"""Reconstruction quality metrics and the sensor-configuration sweep.

Conventions, fixed here (the root README points to this list):
  * toe, wrist, and finger articulations are excluded from the angular
    and positional aggregates (their DoFs are unarticulated in much of
    the training material);
  * legsLA covers hip/knee/ankle joints, backLA covers spine, neck, and
    shoulder joints;
  * JPE is measured in the root frame, in centimeters, root excluded;
  * jitter is the mean third finite difference of world joint positions
    (raw 20 Hz, edge frames excluded), reconstructed over ground truth;
    NaN when the ground truth is perfectly still (null in a saved report);
  * RE is the horizontal (ground-plane) distance between the root
    positions at each of `RE_HORIZONS_S` (2/5/10 s); sequences too short
    for a horizon report None.
    Reconstructed paths are aligned to ground truth at frame 0 by
    `score_trial` before metrics (the initial offset is unobservable
    from relative root displacements).

`OBJECTIVES` is the one metric table: it maps each objective name
(`--objectives`, sweep rankings) to its key in reports and aggregates,
in report order; its RE entries come from `RE_HORIZONS_S`. A report is
a plain dict: "trial_id", then one value per `OBJECTIVES` key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import features as ft
from .datagen import MotionSequence, Trial
from .diffusion import DenoiserConfig, DiffusionSchedule, FastDenoiser
from .inference import Reconstructor, StepSpread, reconstruct_trial
from .kinematics import KinematicTree, forward_kinematics, geodesic_angle_deg

REPORT_FORMAT = "imufill-report"
REPORT_VERSION = 1

EXCLUDED_SEGMENTS = ("toes_l", "toes_r", "hand_l", "hand_r", "fingers_l", "fingers_r")
LEG_JOINTS = ("thigh_l", "thigh_r", "shank_l", "shank_r", "foot_l", "foot_r")
BACK_JOINTS = ("spine1", "spine2", "spine3", "neck", "upper_arm_l", "upper_arm_r")

RE_HORIZONS_S = (2.0, 5.0, 10.0)

# objective name -> report key, in report order
OBJECTIVES = {
    "LA": "LA_deg", "legsLA": "legsLA_deg", "backLA": "backLA_deg", "GA": "GA_deg", "JPE": "JPE_cm",
    "jitter": "jitter", **{f"RE{h:g}": f"RE{h:g}_m" for h in RE_HORIZONS_S},
}


class MetricsError(ValueError):
    pass


def _included(tree: KinematicTree) -> np.ndarray:
    return np.array([i for i, n in enumerate(tree.names) if n not in EXCLUDED_SEGMENTS])


def _joint_set(tree: KinematicTree, names) -> np.ndarray:
    return np.array([tree.index(n) for n in names])


def compute_metrics(gt: MotionSequence, rotations: np.ndarray, roots: np.ndarray,
                    tree: KinematicTree) -> dict:
    """The report of a reconstruction of `gt` at its rate, local rotations
    (T, 24, 3, 3) and root positions (T, 3): "trial_id", then one value
    per `OBJECTIVES` key, in table order."""
    if len(rotations) != gt.n_frames or len(roots) != gt.n_frames:
        raise MetricsError(f"length mismatch: gt {gt.n_frames} vs rec {len(rotations)} rotations, "
                           f"{len(roots)} root positions")
    rate = gt.rate
    scaled = tree.scaled(gt.height)
    inc = _included(tree)
    legs = _joint_set(tree, LEG_JOINTS)
    back = _joint_set(tree, BACK_JOINTS)

    la_all = geodesic_angle_deg(gt.rotations, rotations)  # (T, 24) local per joint
    fk_gt = forward_kinematics(scaled, gt.rotations, gt.root_positions)
    fk_rec = forward_kinematics(scaled, rotations, roots)
    jpe_m = np.linalg.norm(_root_frame(fk_gt) - _root_frame(fk_rec), axis=-1)
    jit_gt = _jitter(fk_gt.joints[:, inc], rate)
    jit_rec = _jitter(fk_rec.joints[:, inc], rate)
    value = {
        "LA": float(la_all[:, inc[inc != 0]].mean()),
        "legsLA": float(la_all[:, legs].mean()),
        "backLA": float(la_all[:, back].mean()),
        "GA": float(geodesic_angle_deg(fk_gt.globals_, fk_rec.globals_)[:, inc].mean()),
        "JPE": float(jpe_m[:, inc[inc != 0]].mean() * 100.0),
        # floor absorbs float residue of constant positions; a still ground
        # truth has no meaningful jitter ratio
        "jitter": float(jit_rec / jit_gt) if jit_gt > 1e-9 else float("nan"),
    }
    for horizon in RE_HORIZONS_S:
        idx = int(round(horizon * rate))
        value[f"RE{horizon:g}"] = (float(np.hypot(*(gt.root_positions[idx, [0, 2]] - roots[idx, [0, 2]])))
                                   if idx < gt.n_frames else None)
    return {"trial_id": gt.trial_id, **{key: value[name] for name, key in OBJECTIVES.items()}}


def _root_frame(fk) -> np.ndarray:
    """Joint positions expressed in the root frame: R_root^T (p - p_root)."""
    rel = fk.joints - fk.joints[:, :1]
    return np.einsum("tij,tsi->tsj", fk.globals_[:, 0], rel)


def _jitter(joints: np.ndarray, rate: float) -> float:
    """Mean third-finite-difference magnitude of world positions, m/s^3."""
    if joints.shape[0] < 4:
        raise MetricsError("need at least 4 frames for jitter")
    jerk = (joints[3:] - 3 * joints[2:-1] + 3 * joints[1:-2] - joints[:-3]) * rate**3
    return float(np.linalg.norm(jerk, axis=-1).mean())


def aggregate_reports(reports: list[dict]) -> dict:
    """Mean plus worst-trial value per metric (None-aware for RE)."""
    if not reports:
        raise MetricsError("no reports to aggregate")
    out: dict[str, dict] = {}
    for k in OBJECTIVES.values():
        vals = [r[k] for r in reports]
        vals = [v for v in vals if v is not None and np.isfinite(v)]
        out[k] = {
            "mean": float(np.mean(vals)) if vals else None,
            "worst": float(np.max(vals)) if vals else None,
            "n": len(vals),
        }
    return out


# -- configuration sweep -------------------------------------------------


@dataclass
class SweepEntry:
    config: ft.SensorConfig
    per_trial: list[dict]
    aggregate: dict
    mean_latency_ms: float


@dataclass
class SweepResult:
    entries: dict[str, SweepEntry]
    rankings: dict[str, list[str]]

    def as_dict(self) -> dict:
        return {
            "kind": "sweep",
            "configs": {
                label: {
                    "n_sensors": e.config.n_sensors,
                    "aggregate": e.aggregate,
                    "mean_latency_ms": e.mean_latency_ms,
                    "per_trial": e.per_trial,
                }
                for label, e in self.entries.items()
            },
            "rankings": self.rankings,
        }


def rank_configs(entries: dict[str, SweepEntry], objective: str) -> list[str]:
    """Ascending by objective mean; ties break to fewer sensors, then name."""
    def key(label: str):
        agg = entries[label].aggregate[OBJECTIVES[objective]]
        val = agg["mean"] if agg["mean"] is not None else float("inf")
        return (val, entries[label].config.n_sensors, label)

    return sorted(entries, key=key)


def score_trial(trial: Trial, rotations: np.ndarray, roots: np.ndarray, tree: KinematicTree) -> dict:
    """The report of a 20 Hz reconstruction of `trial`, local rotations
    (T, 24, 3, 3) and root positions (T, 3), aligned to it at frame 0."""
    shift = trial.motion.root_positions[0] - roots[0]
    return compute_metrics(trial.motion, rotations, roots + np.array([shift[0], 0.0, shift[2]]), tree)


def sweep_configs(model_cfg: DenoiserConfig, params, schedule: DiffusionSchedule,
                  tree: KinematicTree, trials: list[Trial], configs: list[ft.SensorConfig],
                  objectives: list[str], spread: StepSpread, seed: int = 0) -> SweepResult:
    """Reconstruct every trial under every config with one model; aggregate and rank.

    Trials are the outer loop, so each trial's height fills the model's
    conditioning cache once for all the configs; every session has its
    own generator, so the order changes no result."""
    model = FastDenoiser(model_cfg, params)
    reports: list[list[dict]] = [[] for _ in configs]
    latencies: list[list[float]] = [[] for _ in configs]
    for trial in trials:
        for config, config_reports, config_latencies in zip(configs, reports, latencies):
            recon = Reconstructor(model_cfg, model, schedule, tree, config,
                                  height=trial.motion.height, spread=spread, seed=seed)
            rot, root, results = reconstruct_trial(recon, trial, config)
            config_reports.append(score_trial(trial, rot, root, tree))
            config_latencies.extend(r.latency_ms for r in results)
    entries = {
        config.label(): SweepEntry(config=config, per_trial=r, aggregate=aggregate_reports(r),
                                   mean_latency_ms=float(np.mean(lat)))
        for config, r, lat in zip(configs, reports, latencies)
    }
    rankings = {obj: rank_configs(entries, obj) for obj in objectives}
    return SweepResult(entries=entries, rankings=rankings)


def save_report(path: str | Path, payload: dict) -> None:
    """Strict JSON: a value that is not finite (a jitter ratio against a
    still ground truth) is written as null, as a missing one is."""
    payload = {"format": REPORT_FORMAT, "version": REPORT_VERSION, **payload}
    Path(path).write_text(json.dumps(_finite_or_null(payload), indent=1, allow_nan=False) + "\n")


def _finite_or_null(value):
    """value with every float that is not finite replaced by None, in
    nested dicts and lists."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def load_report(path: str | Path) -> dict:
    doc = json.loads(Path(path).read_text())
    if doc.get("format") != REPORT_FORMAT:
        raise MetricsError(f"not a report file: {doc.get('format')!r}")
    return doc
