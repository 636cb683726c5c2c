#!/usr/bin/env python3
"""imufill benchmark: one workload per process.

    python3 perfbench/run.py --workload stream-toy30 --seed 1 --seconds 20 --trace 0

Run from the root of a repository checkout; the program is imported from
`src/` there. Workloads: stream-toy30, session-paper10D, eval-toy10D,
train-paper (see perfbench/README.md). With --trace 0 the run measures
the end-to-end metrics; with --trace 1 its operations alternate between
untraced and traced, and it reports the per-layer metrics and the
tracing overhead. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Everything else the run
measured goes to perfbench/out/<workload>-seed<seed>-trace<0|1>.json,
spans of a traced run to the matching .spans.jsonl. Exit code 0 when
every output check passed, 1 when one failed, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("stream-toy30", "session-paper10D", "eval-toy10D", "train-paper")

# Held fixed for every commit compared. One thread gives the steadiest
# figures on small shared machines; the toy model is also faster with it.
BLAS_THREADS = 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def blas_threads(np) -> int | None:
    """Threads of numpy's bundled OpenBLAS, asked from the library itself."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def source_commit() -> str | None:
    """HEAD of the enclosing git checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def fingerprint(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "imufill").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src_hash.update(str(path.relative_to(SRC)).encode())
            src_hash.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(np),
        "blas_threads_requested": BLAS_THREADS,
        "commit": source_commit(),
        "source_sha256": src_hash.hexdigest(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "imufill" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'imufill'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    # The BLAS pool size is read when numpy loads, so it is fixed first.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import numpy as np
    import workloads as wl

    spec = wl.spec_for(args.workload, args.smoke)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        report = wl.run(spec, args.seed, args.seconds, bool(args.trace), Path(tmp),
                        out_dir / f"{stem}.spans.jsonl")
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "environment": fingerprint(np), **report}
    results_path = out_dir / f"{stem}.json"
    results_path.write_text(json.dumps(report, indent=1) + "\n")

    env = report["environment"]
    print(f"{args.workload} seed {args.seed}: {spec.model} model, "
          f"{'spread ' + spec.spread + ', ' if spec.spread else ''}BLAS {env['blas']} {env['blas_version']} "
          f"x{env['blas_threads']} threads, {env['nproc']} cpus, python {env['python']}, numpy {env['numpy']}")
    if args.trace:
        print(f"  operations alternate untraced/traced: p50 {report['untraced_frame_p50_ms']:.6g} ms untraced, "
              f"{report['traced_frame_p50_ms']:.6g} ms traced")
    else:
        for name, value in report["end_to_end"].items():
            print(f"  {name:<16} {value:14.6g} {wl.END_TO_END[name]}")
        p95 = report["frame_p95_ms"]
        print(f"  {'frame_p95_ms':<16} {p95:14.6g} ms" if p95 is not None else
              f"  frame_p95_ms     n/a ({report['op_samples']} samples < {wl.P95_MIN_SAMPLES})")
    print(f"  {'error_rate':<16} {report['error_rate']:14.6g} ratio "
          f"({report['failed']} of {report['attempted']} operations failed)")
    for name, c in report["checks"].items():
        print(f"  check {name}: {c['passed']} passed, {c['failed']} failed")
    print(f"  output digest {report['digest']}")
    if args.trace:
        for name, value in report["per_layer"].items():
            print(f"  {name:<44} {value:14.6g} {wl.PER_LAYER[name]}")
        total = sum(report["blocking_path_ms_per_op"].values())
        print("  blocking path, self time per operation (traced):")
        for name, ms in report["blocking_path_ms_per_op"].items():
            print(f"    {name:<36} {ms:12.4f} ms {100 * ms / total:6.2f}%")
        print(f"    {'sum (traced mean)':<36} {total:12.4f} ms; untraced mean "
              f"{report['untraced_op_mean_ms']:.4f} ms")
    print(f"results -> {results_path.relative_to(ROOT)}")

    names = wl.PER_LAYER if args.trace else wl.END_TO_END
    values = report["per_layer"] if args.trace else report["end_to_end"]
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names.items()},
    }))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
