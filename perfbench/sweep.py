"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workload NAME ...] [--trace 0|1]
                               [--seconds S] [--out FILE]

For each workload and metric it reports the median of the per-run values, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
interquartile distance as a share of the median.  With ``--trace 0`` each
end-to-end spread is compared with a third of its bound in BENCHMARK.json.
``--out`` writes the summary, with every run's value and the machine record
of the first run, as JSON; perfbench/baseline-v0.json and
perfbench/baseline-v0-layers.json were made this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "runs": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    steady = True
    for name in args.workload or names:
        values: dict[str, list[float]] = {}
        units = {}
        wall = []
        for seed in parse_seeds(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            wall.append(time.perf_counter() - start)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} of {result['attempted']} failed")
                steady = False
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
                units[metric] = entry["unit"]
            if "machine" not in summary:
                detail = json.loads((ROOT / "perfbench" / "work" / name / "result.json").read_text())
                summary["machine"] = detail["machine"]
        rows = {}
        print(f"{name}: {len(wall)} runs, {max(wall):.1f} s longest")
        for metric, vals in values.items():
            row = dict(summarize(vals), unit=units[metric], values=vals)
            rows[metric] = row
            flag = ""
            if metric in bounds and metric != "setup_s" and row["spread"] > bounds[metric] / 3:
                flag = f"  above a third of bound {bounds[metric]}"
                steady = False
            print(f"  {metric:36s} median {row['median']:.6g} {row['unit']}"
                  f"  spread {row['spread']:.3f}{flag}")
        summary["workloads"][name] = {"metrics": rows, "longest_run_s": max(wall)}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
