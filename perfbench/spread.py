"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds 10] [--out FILE]

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartile (``statistics.quantiles``
with n=4) as a share of that median, which is the figure the benchmark's
bounds are checked against. With ``--out`` each run's result and full
stdout go to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=_seeds, help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    results = []
    for seed in args.seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=HERE.parent, timeout=600,
        )
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        result = json.loads(last) if last.startswith("{") else {}
        result["seed"], result["exit"], result["stdout"] = seed, proc.returncode, proc.stdout
        result["wall_s"] = time.perf_counter() - start
        results.append(result)
        print(f"seed {seed}: exit {proc.returncode} correct {result.get('correct')} "
              f"failed {result.get('failed')}/{result.get('attempted')} "
              f"wall {result['wall_s']:.1f} s", flush=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-2000:])

    names = list(results[0].get("metrics", {}))
    summary = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results if "metrics" in r]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else None, "values": values}
        print(f"{name:45s} median {med:12.5g}  spread {summary[name]['spread']}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seconds": seconds,
                                        "results": results, "summary": summary}, indent=1))
    return 0 if all(r["exit"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
