"""Run the benchmark over several seeds and record one point of the trajectory.

Usage (from the root of a checkout):

    python3 perfbench/record.py --label seed --out perfbench/trajectory/BENCH_00_seed.json

For every workload in BENCHMARK.json it runs ``run.py`` once per seed in
``SEEDS`` with ``--trace 0``, then once with ``--trace 1`` on the first seed,
one process at a time.  It writes each end-to-end metric's values, median,
quartiles and spread (interquartile distance over the median), the
per-workload report digests, and the traced per-layer metrics, and prints
the spreads next to the bounds BENCHMARK.json fixes.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    digest = next((m.group(1) for m in map(re.compile(r"^digest .* sha256=(\w+)$").match, lines)
                   if m), "")
    return json.loads(lines[-1]), digest


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="name of this trajectory point")
    ap.add_argument("--out", help="JSON file to write")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"label": args.label, "run_seconds": spec["run_seconds"], "seeds": SEEDS,
              "workloads": {}}
    for w in (w["name"] for w in spec["workloads"]):
        results = [run(w, s, spec["run_seconds"], 0) for s in SEEDS]
        entry = {
            "attempted": sum(r["attempted"] for r, _ in results),
            "failed": sum(r["failed"] for r, _ in results),
            "correct": all(r["correct"] for r, _ in results),
            "digests": {str(s): d for s, (_, d) in zip(SEEDS, results)},
            "end_to_end": {m: summarize([r["metrics"][m]["value"] for r, _ in results])
                           for m in bounds},
        }
        for m, st in entry["end_to_end"].items():
            flag = "" if st["spread"] < bounds[m] / 3 else "  <-- over bound/3"
            print(f"{w:14s} {m:12s} median {st['median']:10.4f}  spread {st['spread']:.4f}"
                  f"  bound {bounds[m]}{flag}  [{' '.join(f'{v:.4g}' for v in st['values'])}]")
        print(f"{w:14s} attempted {entry['attempted']} failed {entry['failed']}", flush=True)
        traced, _ = run(w, SEEDS[0], spec["run_seconds"], 1)
        entry["per_layer_seed"] = SEEDS[0]
        entry["per_layer"] = {m: v["value"] for m, v in traced["metrics"].items()}
        record["workloads"][w] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
