"""Run one workload under several seeds and report how steady each metric is.

    python3 perfbench/steady.py --workload long --seeds 1 2 3 4 5

Runs `perfbench/run.py` once per seed, one after another, and prints for
every metric its median and its spread: the distance between the first and
third quartiles as a share of the median.  A metric whose spread exceeds a
third of its bound in BENCHMARK.json is flagged.  The raw results go to
.bench_out/steady-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import summary

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", str(args.trace)]
        start = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        elapsed = time.monotonic() - start
        last = done.stdout.splitlines()[-1] if done.stdout else "{}"
        result = json.loads(last) if last.startswith("{") else {}
        results.append({"seed": seed, "code": done.returncode,
                        "elapsed_s": elapsed, **result})
        values = {k: round(v["value"], 4) for k, v in result.get("metrics", {}).items()}
        print(f"seed {seed}: exit {done.returncode} in {elapsed:.0f} s {values}",
              flush=True)
    out = ROOT / ".bench_out" / f"steady-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    ok = [r for r in results if r["code"] == 0]
    names = ok[0]["metrics"] if ok else {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in ok]
        if len(values) < 2:
            break
        s = summary.spread(values)
        bound = bounds.get(name)
        flag = "  > bound/3" if bound and s > bound / 3 else ""
        print(f"{name:34s} median {statistics.median(values):.6g} "
              f"spread {s:.3f} bound {bound}{flag}")
    return 0 if len(ok) == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
