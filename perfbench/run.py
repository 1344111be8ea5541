"""tinyst benchmark: train and beam-5 decode on the `toy` and `long` workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload toy --seed 1 --seconds 20 --trace 0

Each call runs one workload in a fresh worker process (worker.py) with the
BLAS thread count pinned, prints a report, and ends with one JSON line:
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end figures; with --trace 1 the worker runs twice, untraced and
then traced, and the metrics are the per-layer figures plus the tracing
overhead, the traced run's extra wall time over the untraced one.  The exit
code is 1 when an output check fails and 2 when the run cannot be made.
BENCHMARK.json lists the metrics; PREDICTIONS.md says which end-to-end
metric each per-layer metric should move.  Scratch files go to
.bench_work/ and span files to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
BLAS_THREADS = 1    # the program is bound by Python overhead on small ops
DEADLINE_S = 170    # the whole command, both workers included


def worker(args, trace: int, deadline: float) -> dict:
    """Run worker.py once; its report lines pass through to stdout."""
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    tag = f"{args.workload}-{args.seed}-{trace}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--work", str(ROOT / ".bench_work" / tag),
           "--out", str(ROOT / ".bench_out")]
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1))
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    result = json.loads(lines[-1])
    report(result)
    return result


def report(result: dict):
    info = result["info"]
    mode = "traced" if info["trace"] else "untraced"
    print(f"== {info['workload']} seed={info['seed']} {mode}")
    print("env " + json.dumps(info.pop("environment")))
    for key, value in info.items():
        if key not in ("workload", "seed", "trace"):
            print(f"{key}: {json.dumps(value)}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  attempted={result['attempted']} failed={result['failed']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("toy", "long"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "tinyst" / "__init__.py").is_file():
        print(f"error: no tinyst sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        plain = worker(args, 0, deadline)
        runs = [plain, worker(args, 1, deadline)] if args.trace else [plain]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    final = runs[-1]
    metrics = final["metrics"]
    if args.trace:
        wall = [sum(r["phases"].values()) for r in runs]
        metrics["trace.overhead_pct"] = {"value": 100.0 * (wall[1] / wall[0] - 1.0),
                                         "unit": "%"}
        print(f"  trace.overhead_pct                 "
              f"{metrics['trace.overhead_pct']['value']:.3g} %")
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": final["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
