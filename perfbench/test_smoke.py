"""Smoke test of the benchmark: every workload at a tiny size (`--smoke`),
untraced and traced. It checks the result schema, that every metric
BENCHMARK.json names is reported with its unit, and that the output
checks ran. It has no timing thresholds.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

INFERENCE_CHECKS = {"one_pose_per_instant", "finite_poses_unit_quaternions",
                    "observed_channels_bit_equal", "predict_matches_graph_forward"}
CHECKS = {
    "stream-toy30": INFERENCE_CHECKS,
    "session-paper10D": INFERENCE_CHECKS,
    "eval-toy10D": INFERENCE_CHECKS | {"sweep_covers_every_config_and_trial"},
    "train-paper": {"finite_losses", "finite_grads_for_every_parameter", "predict_matches_graph_forward"},
}


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def report_of(proc) -> dict:
    line = next(x for x in proc.stdout.splitlines() if x.startswith("results -> "))
    return json.loads((ROOT / line.removeprefix("results -> ")).read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric_and_runs_its_checks(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())

    report = report_of(proc)
    ran = {name for name, c in report["checks"].items() if c["passed"] > 0}
    assert CHECKS[workload] <= ran
    assert not any(c["failed"] for c in report["checks"].values())
    assert len(report["digest"]) == 64
    env = report["environment"]
    assert env["blas_threads"] == env["blas_threads_requested"]


def test_same_seed_gives_the_same_digest_traced_or_not():
    digests = {report_of(bench("stream-toy30", trace, seed=5))["digest"] for trace in (0, 1, 0)}
    assert len(digests) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("stream-toy30", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
