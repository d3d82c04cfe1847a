"""Run one workload in this process and print its measurements as JSON.

Started by ``run.py`` as ``python3 -I perfbench/worker.py <workload> <seed>
<seconds> <trace> <size>``; the process exists so that its peak resident
memory (and that of its pool children) belongs to the workload alone.

Untraced (trace 0): passes of the mix until the next one would end past
``seconds``; reports the pass wall time at reference speed (``pass_wall``)
and the peak RSS.

Traced (trace 1): one untraced and one traced pass of the mix (for
greedy_sweep followed by the traced speedup pair: the n=7 sweep at threads 2
and 1), then the layer probe, traced: the quick mix of every workload plus
per-call batches (``mixes.layer_probe``).  Each per-module metric comes from the workload's
traced pass when that pass calls the module, and from the probe otherwise.
Spans are written to ``.perfbench/spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import concurrent.futures
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

sys.path.insert(0, str(SRC))
sys.path.insert(1, str(HERE))

import ramseykit  # noqa: E402
import mixes  # noqa: E402
from gauge import SpeedGauge  # noqa: E402


class PoolCounter:
    """Counts ProcessPoolExecutor constructions, the package's only way of
    starting worker processes, by wrapping the standard library class."""

    def __init__(self):
        self.started = 0
        original = concurrent.futures.ProcessPoolExecutor.__init__

        def counting_init(pool, *args, **kwargs):
            self.started += 1
            original(pool, *args, **kwargs)

        concurrent.futures.ProcessPoolExecutor.__init__ = counting_init

    def __call__(self) -> int:
        return self.started


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def src_loc() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def pass_wall(passes: list) -> float:
    """Sum over the mix's calls of each call's median duration at reference
    speed across passes; the median pass total if passes differ in calls."""
    if len({len(p.scaled) for p in passes}) == 1:
        return sum(statistics.median(col) for col in zip(*(p.scaled for p in passes)))
    return statistics.median(sum(p.scaled) for p in passes)


def untraced(workload: str, seed: int, seconds: float, size: str, golden: dict) -> dict:
    inp = mixes.make_inputs(workload, seed, size)
    gauge = SpeedGauge()
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(mixes.run_pass(workload, inp, mixes.Tracer(False), golden, OUT_DIR,
                                     gauge=gauge))
        elapsed = time.perf_counter() - start
        if size == "quick" or elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    return {"passes": [p.wall for p in passes],
            "scaled_passes": [sum(p.scaled) for p in passes],
            "metrics": {"wall_s": pass_wall(passes),
                        "peak_rss_mb": peak_rss_mb()},
            "attempted": sum(p.attempted for p in passes),
            "failed": sum(p.failed for p in passes),
            "failures": [f for p in passes for f in p.failures]}


def speedup_pair(tracer, golden: dict, n: int):
    p = mixes.Pass(tracer, golden)
    for threads in (2, 1):
        p.call(mixes.sweep_spec(n, threads))
    return p


def traced(workload: str, seed: int, size: str, golden: dict) -> dict:
    pools = PoolCounter()
    inp = mixes.make_inputs(workload, seed, size)
    gauge = SpeedGauge()
    plain = mixes.run_pass(workload, inp, mixes.Tracer(False), golden, OUT_DIR, gauge=gauge)
    own = mixes.Tracer(True)
    passes = [plain, mixes.run_pass(workload, inp, own, golden, OUT_DIR, pools, gauge)]
    if workload == "greedy_sweep":
        passes.append(speedup_pair(own, golden, inp["speedup_n"]))

    probe = mixes.Tracer(True)
    certs = []
    for other in mixes.WORKLOADS:
        other_inp = mixes.make_inputs(other, seed, "quick")
        p = mixes.run_pass(other, other_inp, probe, golden, OUT_DIR, pools)
        passes.append(p)
        certs += p.certificates
        if other == "greedy_sweep":
            passes.append(speedup_pair(probe, golden, other_inp["speedup_n"]))
    p = mixes.Pass(probe, golden)
    mixes.layer_probe(p, seed, certs)
    passes.append(p)

    own_spans, probe_spans = own.with_self_times(), probe.with_self_times()
    metrics = mixes.layer_metrics(probe_spans)
    metrics.update(mixes.layer_metrics(own_spans))
    metrics["trace.overhead_s"] = sum(passes[1].scaled) - sum(plain.scaled)
    metrics["src_loc"] = src_loc()
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"spans-{workload}-{seed}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "spans": own_spans, "probe_spans": probe_spans},
        default=str))
    return {"passes": [plain.wall, passes[1].wall],
            "scaled_passes": [sum(plain.scaled), sum(passes[1].scaled)], "metrics": metrics,
            "attempted": sum(p.attempted for p in passes),
            "failed": sum(p.failed for p in passes),
            "failures": [f for p in passes for f in p.failures]}


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, size = argv
    if not Path(ramseykit.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"imported {ramseykit.__file__}, not the package under {SRC}", file=sys.stderr)
        return 2
    golden = mixes.load_golden()
    if trace == "1":
        out = traced(workload, int(seed), size, golden)
    else:
        out = untraced(workload, int(seed), float(seconds), size, golden)
    out["module"] = ramseykit.__file__
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
