"""Run the benchmark on several seeds and summarise each end-to-end metric.

    python3 perfbench/spread.py --seconds 25 --seeds 1-10 [--workloads a,b] [--label text]

For every workload, runs ``run.py`` once per seed (untraced) and prints, per
metric, the median, the first and third quartile (``statistics.quantiles``
with n=4) and the spread: (q3 - q1) / median.  With ``--append`` the summary
is added to trajectory.json as one entry.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--label", default="")
    ap.add_argument("--append", action="store_true", help="add the summary to trajectory.json")
    args = ap.parse_args()
    seeds = seeds_of(args.seeds)
    summary = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{workload} seed {seed}: {res['failed']} failed operations", file=sys.stderr)
                return 1
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary[workload] = {}
        for name, v in values.items():
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": (q3 - q1) / med, "values": v}
            print(f"{workload:20s} {name:12s} median {med:.4f} q1 {q1:.4f} q3 {q3:.4f} "
                  f"spread {(q3 - q1) / med:.3f}", flush=True)
    if args.append:
        path = HERE / "trajectory.json"
        doc = json.loads(path.read_text()) if path.exists() else {"entries": []}
        doc["entries"].append({
            "label": args.label, "run_seconds": args.seconds, "seeds": seeds,
            "machine": {"cpus": 2, "python": platform.python_version(),
                        "processor": platform.processor() or platform.machine()},
            "workloads": summary})
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
