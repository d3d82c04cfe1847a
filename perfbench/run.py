"""ramseykit benchmark: four certified-search workloads, checked against golden
values, with end-to-end metrics (trace 0) or per-module metrics (trace 1).

    python3 perfbench/run.py --workload graph_scan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

The package is imported from ``src/`` beside this directory, by absolute
path.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat the metrics for a reader.  See README.md in this directory for the
workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gauge import SpeedGauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("graph_scan", "color_interval", "interactive_sharded", "greedy_sweep")
DEADLINE_S = 170.0
SETUP_STARTS = {"full": 15, "quick": 3}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "graphs.from_code_us": "us", "graphs.parse_graph6_us": "us",
    "exact.scan_s": "s", "exact.instances": "count", "exact.instances_per_s": "1/s",
    "exact.pair_ms": "ms", "exact.coloring_scan_s": "s",
    "scores.scan_s": "s", "scores.instances": "count", "scores.instances_per_s": "1/s",
    "vdw.scan_s": "s", "vdw.instances": "count", "vdw.instances_per_s": "1/s",
    "vdw.classical_s": "s",
    "greedy.sweep_s": "s", "greedy.graphs_per_s": "1/s", "greedy.replay_us": "us",
    "parallel.pools": "count", "parallel.pool_overhead_ms": "ms", "parallel.speedup": "ratio",
    "certificates.revalidate_ms": "ms", "certificates.json_us": "us",
    "certificates.revalidate_deep_s": "s", "certificates.rejected": "count",
    "certificates.built": "count",
    "cli.search_ms": "ms", "cli.resume_ms": "ms", "cli.rho_ms": "ms", "cli.cache_bytes": "bytes",
    "trace.overhead_s": "s", "src_loc": "count",
}

# A fresh interpreter imports the package from this checkout and answers one
# query: the cold start a CLI user pays on every command.
COLD_START = ("import sys; sys.path.insert(0, {src!r}); import ramseykit; "
              "from ramseykit import Graph, clique_indep_pair; "
              "assert ramseykit.__file__.startswith({src!r}); "
              "assert clique_indep_pair(Graph.cycle(5)).value == 4")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def cold_starts(count: int) -> tuple[list[float], int]:
    """Times of ``count`` cold starts at reference speed (each between two
    speed-gauge samples), after one untimed start that leaves compiled
    bytecode behind; returns (times, failures)."""
    argv = [sys.executable, "-I", "-c", COLD_START.format(src=str(SRC))]
    gauge = SpeedGauge()
    times, failed = [], 0
    subprocess.run(argv, capture_output=True, timeout=60)
    before = gauge.sample()
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, timeout=60)
        dt = time.perf_counter() - t0
        after = gauge.sample()
        times.append(SpeedGauge.scale(dt, before, after))
        failed += proc.returncode != 0
        before = after
    return times, failed


def run_worker(workload: str, seed: int, seconds: int, trace: int, size: str,
               deadline: float) -> dict:
    argv = [sys.executable, "-I", str(HERE / "worker.py"), workload, str(seed),
            str(seconds), str(trace), size]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} did not finish before the deadline")
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: int, trace: int, size: str,
            deadline: float) -> dict:
    attempted = failed = 0
    metrics = {}
    if not trace:
        times, setup_failed = cold_starts(SETUP_STARTS[size])
        attempted, failed = len(times), setup_failed
        metrics["setup_s"] = statistics.median(times)
    res = run_worker(workload, seed, seconds, trace, size, deadline)
    metrics.update(res["metrics"])
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"no value for {sorted(missing)}")
    return {"correct": failed + res["failed"] == 0,
            "attempted": attempted + res["attempted"],
            "failed": failed + res["failed"],
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
            "passes": res["passes"], "scaled_passes": res["scaled_passes"],
            "failures": res["failures"], "module": res["module"]}


def source_identity() -> str:
    head = ROOT / ".git" / "HEAD"
    commit = "not a git checkout"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return f"commit {commit}; src sha256 {h.hexdigest()[:16]}"


def report(workload: str, res: dict):
    print(f"workload {workload}: ramseykit from {res['module']}; {source_identity()}")
    print("pass wall times (s): " + ", ".join(f"{w:.4f}" for w in res["passes"]))
    print("at reference speed (s): " + ", ".join(f"{w:.4f}" for w in res["scaled_passes"]))
    for name, m in res["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    ratio = res["failed"] / res["attempted"]
    print(f"fail_ratio {ratio:.6g} ({res['failed']} failed of {res['attempted']} operations)")
    for f in res["failures"][:20]:
        print(f"FAILED {f}")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))


def self_test(deadline: float) -> int:
    """Each mix once at quick size, untraced and traced: metric names and
    units must match BENCHMARK.json, and no operation may fail."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            res = measure(workload, 0, 1, trace, "quick", deadline)
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            good = got == want[trace] and res["failed"] == 0
            ok &= good
            print(f"{workload} trace={trace}: {'ok' if good else 'FAIL'} "
                  f"({res['attempted']} operations, {res['failed']} failed)")
            if got != want[trace]:
                print(f"  metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(want[trace].items()))}")
            for f in res["failures"][:20]:
                print(f"  FAILED {f}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run every mix once at reduced size and check the output")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "ramseykit" / "__init__.py").is_file():
        print(f"no ramseykit package under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test(deadline)
        if args.workload is None:
            ap.error("--workload is required")
        res = measure(args.workload, args.seed, args.seconds, args.trace, "full", deadline)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    report(args.workload, res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
